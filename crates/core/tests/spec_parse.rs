//! Hostile-input tables for the compact `--retry` and `--slo` specs and
//! for scenario files: every malformed value yields an `Err` naming what
//! is wrong, never a panic.

use slsb_core::{RetryPolicy, Scenario, SloSpec, WorkloadSpec};
use slsb_obs::NoopRecorder;

/// Numeric values no duration, count or target may take.
const BAD_NUMBERS: [&str; 4] = ["nan", "inf", "-1", "1e400"];

#[test]
fn retry_spec_rejects_hostile_values_without_panicking() {
    for key in ["timeout", "base", "max"] {
        for value in BAD_NUMBERS {
            let spec = format!("{key}={value}");
            let err = RetryPolicy::parse_spec(&spec).expect_err(&spec);
            assert!(err.contains(key), "{spec}: error {err:?} must name the key");
        }
    }
    for key in ["attempts", "jitter", "budget"] {
        for value in BAD_NUMBERS {
            let spec = format!("{key}={value}");
            assert!(RetryPolicy::parse_spec(&spec).is_err(), "{spec}");
        }
    }
    let table: [(&str, bool); 7] = [
        ("attempts=", false),
        ("=3", false),
        ("attempts=3,,", true),
        ("attempts=99999999999", false),
        ("retries=3", false),
        (
            "attempts=3,timeout=10,base=0.5,max=8,jitter=0.25,budget=1000",
            true,
        ),
        ("base=0", true),
    ];
    for (spec, ok) in table {
        assert_eq!(RetryPolicy::parse_spec(spec).is_ok(), ok, "{spec}");
    }
    let p = RetryPolicy::parse_spec("attempts=3,,").unwrap();
    assert_eq!(p.max_attempts, 3);
}

#[test]
fn slo_spec_rejects_hostile_values_without_panicking() {
    for key in ["p50", "p99", "sr", "cost1k", "p99@1"] {
        for value in BAD_NUMBERS {
            let spec = format!("{key}={value}");
            assert!(SloSpec::parse(&spec).is_err(), "{spec}");
        }
    }
    let table: [(&str, bool); 7] = [
        ("p99=", false),
        ("=3", false),
        ("p99=0.5,,", true),
        ("p99@99999999999=1", false),
        ("p95=1", false),
        ("p50=0.1,p99=0.5,sr=0.99,cost1k=0.05,p99@2=1.0", true),
        ("sr=1", true),
    ];
    for (spec, ok) in table {
        assert_eq!(SloSpec::parse(spec).is_ok(), ok, "{spec}");
    }
}

/// An edit to a parsed scenario.
type Patch = fn(&mut Scenario);

/// A workload block parsed from scenario JSON.
fn workload(json: &str) -> WorkloadSpec {
    serde_json::from_str(json).unwrap()
}

#[test]
fn out_of_range_scenario_values_are_errors_not_panics() {
    // (the field the error must name, its patch to `fault_smoke.json`)
    let table: [(&str, Patch); 12] = [
        ("scale", |s| {
            s.workload = workload(r#"{"kind": "preset", "which": "W40", "scale": -1}"#);
        }),
        ("rate", |s| {
            s.workload = workload(r#"{"kind": "poisson", "rate": -1, "duration_s": 60}"#);
        }),
        ("duration_s", |s| {
            s.workload = workload(r#"{"kind": "poisson", "rate": 5, "duration_s": -60}"#);
        }),
        // Past a year. Only values whose request count the size check
        // would refuse as well, so that a broken bound never generates.
        ("duration_s", |s| {
            s.workload = workload(r#"{"kind": "poisson", "rate": 5, "duration_s": 1e300}"#);
        }),
        ("duration_s", |s| {
            s.workload = workload(
                r#"{"kind": "diurnal", "base_rate": 5, "amplitude": 2, "period_s": 300,
                    "duration_s": 1e308}"#,
            );
        }),
        ("rate_high", |s| {
            s.workload = workload(
                r#"{"kind": "mmpp", "rate_high": -1, "rate_low": 10, "dwell_high_s": 20,
                    "dwell_low_s": 40, "duration_s": 120}"#,
            );
        }),
        ("amplitude", |s| {
            s.workload = workload(
                r#"{"kind": "diurnal", "base_rate": 5, "amplitude": 50, "period_s": 300,
                    "duration_s": 900}"#,
            );
        }),
        ("spike_rate", |s| {
            s.workload = workload(
                r#"{"kind": "flash_crowd", "base_rate": 8, "spike_rate": -3,
                    "spike_start_s": 300, "spike_duration_s": 45, "duration_s": 600}"#,
            );
        }),
        ("spike_start_s", |s| {
            s.workload = workload(
                r#"{"kind": "flash_crowd", "base_rate": 8, "spike_rate": 250,
                    "spike_start_s": -10, "spike_duration_s": 45, "duration_s": 600}"#,
            );
        }),
        ("extra_container_mb", |s| {
            s.deployment.extra_container_mb = -1e9
        }),
        ("extra_download_mb", |s| {
            s.deployment.extra_download_mb = -1.0
        }),
        ("extra_download_mb", |s| {
            s.deployment.extra_download_mb = f64::NAN
        }),
    ];
    let smoke = Scenario::from_json(include_str!("../../../scenarios/fault_smoke.json")).unwrap();
    for (field, patch) in table {
        let mut scenario = smoke.clone();
        patch(&mut scenario);
        for err in [
            scenario.run().map(drop).expect_err(field),
            scenario
                .run_recorded(&mut NoopRecorder)
                .map(drop)
                .expect_err(field),
        ] {
            let err = err.to_string();
            assert!(err.contains(field), "error {err:?} must name {field}");
        }
    }
}
