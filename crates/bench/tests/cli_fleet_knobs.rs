//! A synthesized fleet's `duration_s` and `zipf_exponent` stay inside a
//! bounded domain: each hostile value exits 1 with an error naming the
//! field, or runs as a fleet of that shape. Past a year, a duration used
//! to wrap the run's horizon and replay the 90 s fleet's exact requests;
//! an unbounded exponent ran as if it were finite, and a steep one made
//! apps draw arrival gaps that wrapped the clock. A run with no requests
//! prints `-` for its success ratio, where it used to print 100.0%.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `slsb run` on `scenarios/fleet_zipf.json` shrunk to 20 apps at 30
/// req/s for 90 s, with `field` set to `value`.
fn run_fleet(field: &str, value: &str) -> Output {
    let json = std::fs::read_to_string(repo().join("scenarios/fleet_zipf.json")).unwrap();
    let mut edited = json
        .replacen("\"apps\": 1000,", "\"apps\": 20,", 1)
        .replacen("\"total_rate\": 1300.0,", "\"total_rate\": 30.0,", 1)
        .replacen("\"duration_s\": 900.0", "\"duration_s\": 90.0", 1);
    let key = format!("\"{field}\": ");
    let at = edited.find(&key).expect("the scenario has the field") + key.len();
    let end = at + edited[at..].find([',', '\n']).expect("a value ends");
    edited.replace_range(at..end, value);
    run_scenario(&format!("fleet-{field}-{value}"), &edited)
}

fn run_scenario(name: &str, json: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("slsb-cli-knobs-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.json");
    std::fs::write(&path, json).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_slsb"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("slsb runs");
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

/// The value of the `label :` line of a run's report.
fn line<'a>(stdout: &'a str, label: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(label)?.trim().strip_prefix(':'))
        .unwrap_or_else(|| panic!("no {label} line in {stdout}"))
        .trim()
}

#[test]
fn fleet_knobs_past_their_bounds_are_named_errors() {
    // (field, value, runs): a case that does not run must name its field.
    let cases = [
        ("duration_s", "0", false),
        ("duration_s", "1e-300", false),
        ("duration_s", "1e300", false),
        ("duration_s", "1e308", false),
        ("zipf_exponent", "0", true),
        ("zipf_exponent", "1e-300", true),
        // At the bound every app but the first draws gaps past any
        // instant, which must end its busy periods, not wrap.
        ("zipf_exponent", "64", true),
        ("zipf_exponent", "1e300", false),
        ("zipf_exponent", "1e308", false),
    ];
    for (field, value, runs) in cases {
        let out = run_fleet(field, value);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("{field} = {value}");
        if runs {
            assert_eq!(out.status.code(), Some(0), "{case}: {stderr}");
            let requests: u64 = line(&stdout, "requests").parse().unwrap();
            assert!(requests > 3_000, "{case}: {requests} requests");
        } else {
            assert_eq!(out.status.code(), Some(1), "{case}: {stdout}");
            assert!(
                stderr.contains("invalid fleet") && stderr.contains(field),
                "{case}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{case}: {stdout}");
        }
    }
}

#[test]
fn runs_without_requests_print_no_success_ratio() {
    let fleet = run_fleet("total_rate", "1e-9");
    let deployment = {
        let json =
            std::fs::read_to_string(repo().join("scenarios/batched_serverless.json")).unwrap();
        let quiet = json
            .replacen("\"rate_high\": 40.0", "\"rate_high\": 1e-9", 1)
            .replacen("\"rate_low\": 10.0", "\"rate_low\": 1e-9", 1);
        assert_ne!(json, quiet, "batched_serverless.json has its rates");
        run_scenario("quiet", &quiet)
    };
    for (what, out) in [("fleet", fleet), ("deployment", deployment)] {
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{what}: {out:?}");
        assert_eq!(line(&stdout, "requests"), "0", "{what}");
        assert_eq!(line(&stdout, "success ratio"), "-", "{what}");
    }
}
