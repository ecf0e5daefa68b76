//! Heap allocations per request on the steady-state request path, read
//! off the counting allocator. A thread that replays trace after trace
//! recycles its run arena, so a warm replay allocates for its output and
//! per-run setup, not per request; a fleet run allocates O(apps) (each
//! app's platform, its arrival stream in the lazy merge), not per
//! request.
//!
//! The two tests take turns: the allocation count is process-wide, so
//! nothing else may allocate while one of them counts.

use slsb_bench::CountingAllocator;
use slsb_core::{Deployment, Executor, FleetRunner, FleetScenario, FleetSource};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::PlatformKind;
use slsb_sim::alloc::allocation_count;
use slsb_sim::Seed;
use slsb_workload::MmppPreset;
use std::collections::BTreeMap;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

static COUNTING: Mutex<()> = Mutex::new(());

/// Ceiling on allocations per request of a warm W120 serverless replay
/// (53,900 requests). It measures 0.0205, 1,107 allocations per run
/// (0.0246 while deliveries were staged in a burst buffer before the
/// kernel), and the ceiling leaves 0.1 of headroom. One more allocation per
/// request would read 1.0 more.
const MAX_REPLAY_ALLOCS_PER_REQUEST: f64 = 0.125;

/// Ceiling on allocations per request of a warm 256-app fleet run (about
/// 150k requests). It measures 0.283, about 42k allocations per run
/// (0.303 while arrivals went through the timer wheel), and the ceiling
/// leaves about 0.1 of headroom.
const MAX_FLEET_ALLOCS_PER_REQUEST: f64 = 0.4;

/// Timed repetitions after one untimed warm-up.
const REPS: u64 = 3;

fn deployment() -> Deployment {
    Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    )
}

/// Allocations per request over [`REPS`] runs of `run`, which returns
/// the requests it simulated, after one untimed warm-up run.
fn allocs_per_request(label: &str, mut run: impl FnMut(u64) -> u64) -> f64 {
    let _turn = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    run(0);
    let a0 = allocation_count();
    let requests: u64 = (1..=REPS).map(&mut run).sum();
    let allocs = allocation_count() - a0;
    assert!(requests > 0);
    let per_request = allocs as f64 / requests as f64;
    eprintln!("{label}: {allocs} allocations over {requests} requests, {per_request:.4} each");
    per_request
}

#[test]
fn a_warm_replay_allocates_per_run_not_per_request() {
    let trace = MmppPreset::W120.generate(Seed(152).substream("bench-workload"));
    let (exec, dep) = (Executor::default(), deployment());
    let per_request = allocs_per_request("W120 serverless replay", |rep| {
        let run = exec
            .run(&dep, &trace, Seed(1000 + rep))
            .expect("valid deployment");
        run.records.len() as u64
    });
    assert!(
        per_request <= MAX_REPLAY_ALLOCS_PER_REQUEST,
        "a warm W120 replay made {per_request:.3} allocations per request, above \
         {MAX_REPLAY_ALLOCS_PER_REQUEST}"
    );
}

#[test]
fn a_warm_fleet_run_allocates_per_app_not_per_request() {
    let mut profiles = BTreeMap::new();
    profiles.insert("p".to_string(), deployment());
    let scenario = FleetScenario {
        name: "fleet".to_string(),
        seed: 152,
        fleet: FleetSource::Synth {
            apps: 256,
            zipf_exponent: 1.1,
            total_rate: 400.0,
            mean_busy_s: 10.0,
            median_idle_s: 30.0,
            idle_sigma: 1.5,
            duration_s: 240.0,
        },
        profiles,
        timeout_s: 60.0,
        policy: None,
    };
    let plan = scenario.resolve(None).expect("scenario resolves");
    let runner = FleetRunner::default();
    let per_request = allocs_per_request("256-app fleet", |rep| {
        let run = runner.run(&plan, Seed(2000 + rep)).expect("fleet runs");
        run.requests
    });
    assert!(
        per_request <= MAX_FLEET_ALLOCS_PER_REQUEST,
        "a warm 256-app fleet run made {per_request:.3} allocations per request, above \
         {MAX_FLEET_ALLOCS_PER_REQUEST}"
    );
}
