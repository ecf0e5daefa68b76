//! Golden-file regression tests for the `slsb trace` explorer renderings.
//!
//! One pinned scenario (fixed seed, fixed fault plan, fixed retry policy)
//! is recorded and rendered through every explorer view; the output must
//! match the checked-in goldens byte for byte. Because the whole pipeline
//! is deterministic, any diff here is a real behaviour change — regenerate
//! deliberately with `BLESS=1 cargo test --test trace_golden`.

use slsbench::core::{analyze, Deployment, Executor, ExecutorConfig, RetryPolicy};
use slsbench::model::{ModelKind, RuntimeKind};
use slsbench::obs::{trace_view, MemoryRecorder, TraceEvent};
use slsbench::platform::{FaultPlan, PlatformKind, ThrottleSpec};
use slsbench::sim::{Seed, SimDuration};
use slsbench::workload::MmppSpec;

const SEED: Seed = Seed(4242);

/// The pinned run: a small burst on serverless with faults of several
/// kinds plus retries, so every view (including fault attribution) has
/// content.
fn pinned_events() -> Vec<TraceEvent> {
    let trace = MmppSpec {
        name: "golden",
        rate_high: 25.0,
        rate_low: 6.0,
        mean_high_dwell: SimDuration::from_secs(20),
        mean_low_dwell: SimDuration::from_secs(40),
        duration: SimDuration::from_secs(120),
    }
    .generate(SEED);
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let mut plan = FaultPlan::none();
    plan.crash_mid_exec = 0.05;
    plan.packet_loss = 0.05;
    plan.throttle = Some(ThrottleSpec {
        rate_per_sec: 15.0,
        burst: 8.0,
    });
    let cfg = ExecutorConfig {
        retry: RetryPolicy::standard(),
        ..ExecutorConfig::default()
    };
    let mut rec = MemoryRecorder::new();
    let run = Executor::new(cfg)
        .with_faults(plan)
        .run_recorded(&dep, &trace, SEED, &mut rec)
        .unwrap();
    // The run itself must be non-degenerate or the goldens prove nothing.
    let a = analyze(&run);
    assert!(a.faults > 0, "pinned run must inject platform faults");
    assert!(a.client_faults > 0, "pinned run must inject client faults");
    assert!(a.retries > 0, "pinned run must retry");
    assert!(a.succeeded > 0, "pinned run must succeed sometimes");
    rec.into_events()
}

fn check_golden(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        rendered, expected,
        "{name} drifted from its golden; regenerate with BLESS=1 if intended"
    );
}

#[test]
fn explorer_renderings_match_goldens() {
    let events = pinned_events();
    check_golden("summary", &trace_view::summary(&events));
    check_golden("phase_attribution", &trace_view::phase_attribution(&events));
    check_golden(
        "cold_start_breakdown",
        &trace_view::cold_start_breakdown(&events),
    );
    check_golden("fault_attribution", &trace_view::fault_attribution(&events));
    check_golden("waterfall", &trace_view::waterfall(&events, 20));
    check_golden(
        "instance_timeline",
        &trace_view::instance_timeline(&events, 20),
    );
    check_golden("app_breakdown", &trace_view::app_breakdown(&events, 5));

    // The same pinned run with the self-profiler enabled must emit the
    // exact same events — profiling never touches the trace path, so the
    // goldens pin profiled runs too.
    slsbench::sim::prof::reset();
    slsbench::sim::prof::enable(true);
    let profiled = pinned_events();
    slsbench::sim::prof::enable(false);
    slsbench::sim::prof::reset();
    assert_eq!(
        profiled, events,
        "enabling the profiler changed the pinned golden trace"
    );
}

#[test]
fn fault_attribution_empty_case_is_stable() {
    // No events at all: the view must render its explicit empty marker,
    // not an empty string (the CLI prints it unconditionally).
    assert_eq!(
        trace_view::fault_attribution(&[]),
        "  (no injected faults)\n"
    );
}
