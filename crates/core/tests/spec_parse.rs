//! Hostile-input table for the compact `--retry` and `--slo` specs: every
//! malformed value yields an `Err` naming what is wrong, never a panic.

use slsb_core::{RetryPolicy, SloSpec};

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
