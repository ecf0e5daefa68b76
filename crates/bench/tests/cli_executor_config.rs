//! A scenario's `executor` block is checked before anything runs: each
//! out-of-range field is a named error with exit status 1. Unchecked, a
//! zero bandwidth or an empty pool panicked (exit 101), and a near-zero
//! bandwidth or a near-`u64::MAX` attempt timeout wrapped instant
//! arithmetic into a plausible-looking but wrong result.

use slsb_core::{ExecutorConfig, RetryPolicy, Scenario, WorkloadSpec};
use slsb_sim::SimDuration;
use std::path::Path;
use std::process::{Command, Output};

/// `batched_serverless.json` cut to 5 s, with `edit` applied to its
/// executor block, written out as JSON and run through `slsb run`.
fn run_with_executor(name: &str, edit: impl FnOnce(&mut ExecutorConfig)) -> Output {
    let committed =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/batched_serverless.json");
    let json = std::fs::read_to_string(committed).expect("committed scenario");
    let mut scenario = Scenario::from_json(&json).expect("scenario parses");
    let WorkloadSpec::Mmpp { duration_s, .. } = &mut scenario.workload else {
        panic!("batched_serverless.json has no MMPP workload to cut");
    };
    *duration_s = 5.0;
    edit(&mut scenario.executor);
    let dir = std::env::temp_dir().join(format!("slsb-cli-exec-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.json");
    std::fs::write(&path, scenario.to_json()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_slsb"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("slsb runs");
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

#[test]
fn the_default_executor_block_runs() {
    let out = run_with_executor("default", |_| {});
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout.contains("success ratio : 100.0%"), "{stdout}");
}

#[test]
fn an_out_of_range_executor_field_is_a_named_error() {
    type Edit = fn(&mut ExecutorConfig);
    let cases: [(&str, Edit, &str); 6] = [
        (
            "zero_bandwidth",
            |e| e.network.bandwidth_mb_per_sec = 0.0,
            "bandwidth_mb_per_sec must be finite and > 0, got 0",
        ),
        (
            "negative_bandwidth",
            |e| e.network.bandwidth_mb_per_sec = -5.0,
            "bandwidth_mb_per_sec must be finite and > 0, got -5",
        ),
        (
            "empty_pool",
            |e| e.pool_size = 0,
            "pool_size must be in [1, 4294967295], got 0",
        ),
        (
            "vanishing_bandwidth",
            |e| e.network.bandwidth_mb_per_sec = 1e-300,
            "-byte payload takes",
        ),
        (
            "endless_attempt_timeout",
            |e| {
                e.retry = RetryPolicy::standard();
                e.retry.attempt_timeout = SimDuration::from_micros(u64::MAX - 1_000);
            },
            "retry.attempt_timeout must be at most",
        ),
        (
            "negative_jitter",
            |e| {
                e.retry = RetryPolicy::standard();
                e.retry.jitter = -1.5;
            },
            "retry jitter -1.5 out of range [0, 10]",
        ),
    ];
    for (name, edit, message) in cases {
        let out = run_with_executor(name, edit);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr:?}");
        assert!(
            stderr.contains("invalid executor: ") && stderr.contains(message),
            "{name}: unexpected error {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "{name}: printed a result");
    }
}
