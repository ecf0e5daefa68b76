//! `slsb run --trace FILE` rejects an invalid scenario before it creates
//! FILE: an earlier trace at that path survives byte for byte, and a
//! missing one is not left behind as an empty file.

use std::path::Path;
use std::process::Command;

/// A committed scenario with its deployment's memory set below every
/// platform's floor.
fn invalid(scenario: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(scenario);
    let json = std::fs::read_to_string(&path).expect("committed scenario");
    let bad = json.replacen("\"memory_mb\": 2048.0", "\"memory_mb\": 50.0", 1);
    assert_ne!(json, bad, "{scenario} has no 2048 MB deployment to break");
    bad
}

#[test]
fn an_invalid_run_leaves_the_trace_file_untouched() {
    let dir = std::env::temp_dir().join(format!("slsb-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let earlier = b"{\"at\":0,\"event\":\"earlier trace\"}\n";
    for name in ["fault_smoke.json", "fleet_zipf.json"] {
        let scenario = dir.join(name);
        std::fs::write(&scenario, invalid(name)).unwrap();
        let existing = dir.join("existing.jsonl");
        std::fs::write(&existing, earlier).unwrap();
        let missing = dir.join("missing.jsonl");
        for trace in [&existing, &missing] {
            let out = Command::new(env!("CARGO_BIN_EXE_slsb"))
                .arg("run")
                .arg(&scenario)
                .arg("--trace")
                .arg(trace)
                .output()
                .expect("slsb runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{name}: an invalid run must fail");
            assert!(
                stderr.contains("invalid deployment"),
                "{name}: unexpected error {stderr:?}"
            );
        }
        assert_eq!(
            std::fs::read(&existing).unwrap(),
            earlier,
            "{name}: an invalid run changed the earlier trace"
        );
        assert!(
            !missing.exists(),
            "{name}: an invalid run created the trace file"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
