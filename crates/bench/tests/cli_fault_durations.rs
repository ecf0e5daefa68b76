//! A fault plan's durations are bounded by a year: a larger one would
//! saturate `SimDuration` and then wrap in instant arithmetic, so that,
//! for one, `client_jitter_ms: 1e308` would run like a plan without
//! jitter.

use std::path::Path;
use std::process::{Command, Output};

/// `slsb run scenarios/batched_serverless.json --faults F`, with `F` the
/// fault plan `plan_json`.
fn run_with_faults(name: &str, plan_json: &str) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = std::env::temp_dir().join(format!("slsb-cli-faults-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("faults.json");
    std::fs::write(&path, plan_json).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_slsb"))
        .arg("run")
        .arg(root.join("scenarios/batched_serverless.json"))
        .arg("--faults")
        .arg(&path)
        .output()
        .expect("slsb runs");
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

#[test]
fn a_fault_duration_past_a_year_is_a_named_error() {
    for (field, value) in [("client_jitter_ms", "1e308"), ("storage_stall_s", "1e12")] {
        let out = run_with_faults(field, &format!("{{\"{field}\": {value}}}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{field}: {out:?}");
        assert!(
            stderr.contains(&format!("{field} = ")) && stderr.contains("longer than a year"),
            "{field}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{field}: {out:?}");
    }
}

#[test]
fn a_fault_duration_of_a_year_runs() {
    let out = run_with_faults("year", r#"{"client_jitter_ms": 31536000000}"#);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
