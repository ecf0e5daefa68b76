//! The two run-length knobs a document sets directly, a fleet trace's
//! `bucket_s` and a scenario workload's `duration_s`, stay inside a
//! bounded domain: each hostile value exits 1 with an error naming the
//! field, or runs. A `bucket_s` of 1e300 used to panic on the wrapped
//! product of the bucket width and the bucket count, 1e-300 reported a
//! fleet duration error that named no field, and a run past a year could
//! be cheap in requests yet hold an analysis timeline of ~10^8 buckets.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `slsb run` on `scenario`, written to a fresh directory together with
/// `files` (paths relative to it).
fn run_in_dir(name: &str, scenario: &str, files: &[(&str, String)]) -> Output {
    let dir = std::env::temp_dir().join(format!("slsb-cli-bounds-{}-{name}", std::process::id()));
    for (path, contents) in files {
        let path = dir.join(path);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, contents).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.json");
    std::fs::write(&path, scenario).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_slsb"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("slsb runs");
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

/// Replays `scenarios/fleet_trace_replay.json` with its trace's
/// `bucket_s` set to `value`.
fn replay_with_bucket(value: &str) -> Output {
    let read = |p: &str| std::fs::read_to_string(repo().join(p)).unwrap();
    let scenario = read("scenarios/fleet_trace_replay.json");
    let trace = read("scenarios/traces/sample_production.json");
    let edited = trace.replacen("\"bucket_s\": 60.0", &format!("\"bucket_s\": {value}"), 1);
    assert_ne!(trace, edited, "the sample trace has 60-s buckets");
    let files = [("traces/sample_production.json", edited)];
    run_in_dir(&format!("bucket-{value}"), &scenario, &files)
}

/// `scenarios/fault_smoke.json` with a Poisson workload of 5 req/s for
/// `value` seconds.
fn run_with_duration(value: &str) -> Output {
    let json = std::fs::read_to_string(repo().join("scenarios/fault_smoke.json")).unwrap();
    let start = json.find("\"workload\": {").expect("a workload block");
    let end = start + json[start..].find('}').expect("the block closes") + 1;
    let mut edited = json.clone();
    let poisson =
        format!("\"workload\": {{\"kind\": \"poisson\", \"rate\": 5.0, \"duration_s\": {value}}}");
    edited.replace_range(start..end, &poisson);
    run_in_dir(&format!("duration-{value}"), &edited, &[])
}

#[test]
fn run_length_knobs_past_their_bounds_are_named_errors() {
    // (field, value, runs): a case that does not run must name its field
    // and print nothing.
    let cases = [
        ("bucket_s", "60", true),
        ("bucket_s", "0", false),
        ("bucket_s", "1e-300", false),
        ("bucket_s", "1e300", false),
        ("bucket_s", "1e308", false),
        ("duration_s", "0", true),
        ("duration_s", "1e-300", true),
        ("duration_s", "1e300", false),
        ("duration_s", "1e308", false),
    ];
    for (field, value, runs) in cases {
        let out = match field {
            "bucket_s" => replay_with_bucket(value),
            _ => run_with_duration(value),
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("{field} = {value}");
        if runs {
            assert_eq!(out.status.code(), Some(0), "{case}: {stderr}");
            assert!(stdout.contains("requests"), "{case}: {stdout}");
        } else {
            assert_eq!(out.status.code(), Some(1), "{case}: {stdout}");
            assert!(
                stderr.contains("invalid") && stderr.contains(field),
                "{case}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{case}: {stdout}");
        }
    }
}
