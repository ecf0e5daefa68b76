//! Allocation attribution read off the profile tree, under the counting
//! allocator the `slsb` binary installs: the per-subsystem exclusive
//! counts of [`exclusive_allocs_where`] and the fleet's `arrival allocs`.

use slsb_bench::CountingAllocator;
use slsb_core::{arrival_allocs, Deployment, Executor, FleetRunResult, FleetScenario, FleetSource};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::PlatformKind;
use slsb_sim::alloc::allocation_count;
use slsb_sim::prof::exclusive_allocs_where;
use slsb_sim::{ProfileNode, Seed, SimDuration};
use slsb_workload::MmppPreset;
use std::collections::BTreeMap;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The profiler's enabled flag and merged tree are process-wide, so the
/// tests here take turns.
static PROFILER: Mutex<()> = Mutex::new(());

fn deployment() -> Deployment {
    Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    )
}

/// Runs `f` with the profiler on and returns its result, the profile tree
/// and the allocations counted while it ran.
fn profiled<T>(f: impl FnOnce() -> T) -> (T, Vec<ProfileNode>, u64) {
    slsb_sim::prof::reset();
    slsb_sim::prof::enable(true);
    let a0 = allocation_count();
    let out = f();
    let total = allocation_count() - a0;
    slsb_sim::prof::enable(false);
    (out, slsb_sim::prof::take(), total)
}

fn sum_labelled(nodes: &[ProfileNode], prefix: &str) -> u64 {
    nodes
        .iter()
        .map(|n| {
            if n.label.starts_with(prefix) {
                n.allocs
            } else {
                sum_labelled(&n.children, prefix)
            }
        })
        .sum()
}

#[test]
fn subsystem_allocs_are_attributed_within_the_counted_total() {
    let _turn = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let mut spec = MmppPreset::W40.spec();
    spec.duration = SimDuration::from_secs(180);
    let trace = spec.generate(Seed(152).substream("bench-workload"));
    let (run, roots, total) =
        profiled(|| Executor::default().run(&deployment(), &trace, Seed(1000)));
    run.expect("replicate runs");
    let bucket = |pred: &dyn Fn(&str) -> bool| exclusive_allocs_where(&roots, pred);
    let kernel = bucket(&|l| l.starts_with("kernel/"));
    let platform = bucket(&|l| l.starts_with("platform/"));
    let obs = bucket(&|l| matches!(l, "recorder" | "executor/spans" | "executor/merge"));
    let buckets = format!("kernel {kernel}, platform {platform}, obs {obs} of {total}");

    assert!(total > 0, "the counting allocator is not installed");
    assert!(kernel > 0, "{buckets}");
    assert!(platform > 0, "{buckets}");
    // An unrecorded run emits no spans and records nothing.
    assert_eq!(obs, 0, "{buckets}");
    // The kernel bucket is exactly the kernel scopes' inclusive counts.
    assert_eq!(kernel, sum_labelled(&roots, "kernel/"), "{buckets}");
    // Exclusive counts charge an allocation to one scope only, so the
    // disjoint buckets together fit inside the counted total.
    assert!(kernel + platform + obs <= total, "{buckets}");
}

fn fleet_run(duration_s: f64) -> (FleetRunResult, u64) {
    let mut profiles = BTreeMap::new();
    profiles.insert("p".to_string(), deployment());
    let scenario = FleetScenario {
        name: "flat".to_string(),
        seed: 7,
        fleet: FleetSource::Synth {
            apps: 64,
            zipf_exponent: 1.1,
            total_rate: 200.0,
            mean_busy_s: 10.0,
            median_idle_s: 30.0,
            idle_sigma: 1.5,
            duration_s,
        },
        profiles,
        timeout_s: 60.0,
        policy: None,
    };
    let plan = scenario.resolve(None).expect("scenario resolves");
    let (run, roots, _) = profiled(|| slsb_core::FleetRunner::default().run(&plan, Seed(7)));
    (run.expect("fleet runs"), arrival_allocs(&roots))
}

#[test]
fn fleet_arrival_allocs_stay_flat_when_the_duration_doubles() {
    let _turn = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let (small, small_allocs) = fleet_run(120.0);
    let (big, big_allocs) = fleet_run(240.0);

    assert!(small_allocs > 0, "the counting allocator is not installed");
    assert!(
        big.requests > small.requests * 3 / 2,
        "{} -> {} requests",
        small.requests,
        big.requests
    );
    // A request-proportional arrival path would grow with the request
    // count; the lazy merge's footprint is per app.
    assert!(
        big_allocs * 10 <= small_allocs * 11,
        "arrival allocs not flat: {small_allocs} at {} requests -> {big_allocs} at {}",
        small.requests,
        big.requests
    );
}
