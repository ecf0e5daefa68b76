//! A workload expecting more requests than one run can index is rejected
//! with a named error and exit status 1, before anything is generated;
//! it used to abort the process on a failed multi-petabyte allocation.

use std::path::Path;
use std::process::{Command, Output};

fn assert_rejected(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{what}: {stderr:?}");
    assert!(
        stderr.contains("one run can index"),
        "{what}: unexpected error {stderr:?}"
    );
}

#[test]
fn an_oversized_scenario_workload_is_a_named_error() {
    let dir = std::env::temp_dir().join(format!("slsb-cli-size-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/fault_smoke.json");
    let json = std::fs::read_to_string(committed).expect("committed scenario");
    // A duration past a year is its own error (`cli_duration_bounds.rs`),
    // so the rate grows instead: about 1.3e10 requests in 120 s.
    let huge = json.replacen("\"rate_high\": 40.0", "\"rate_high\": 1e9", 1);
    assert_ne!(json, huge, "fault_smoke.json has no 40 req/s rate to raise");
    let scenario = dir.join("huge.json");
    std::fs::write(&scenario, huge).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_slsb"))
        .arg("run")
        .arg(&scenario)
        .output()
        .expect("slsb runs");
    assert_rejected(&out, "slsb run");
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid workload"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_oversized_scale_is_a_named_error() {
    let repro = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig4", "--scale", "1e12", "--no-out"])
        .output()
        .expect("repro runs");
    assert_rejected(&repro, "repro --scale");
    let slsb = Command::new(env!("CARGO_BIN_EXE_slsb"))
        .args([
            "compare",
            "--model",
            "mobilenet",
            "--workload",
            "w40",
            "--scale",
            "1e12",
        ])
        .output()
        .expect("slsb runs");
    assert_rejected(&slsb, "slsb compare --scale");
}
