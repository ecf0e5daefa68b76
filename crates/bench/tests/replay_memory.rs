//! The memory bound of one replay that keeps records, read off the
//! live-bytes high-water mark of the counting allocator. A replay holds
//! O(requests) memory only for its sink, here the output records, whose
//! cold-start breakdowns sit in a side table with an entry per cold
//! request only. (Analysis-only replays settle into an outcome table
//! instead; `outcome_memory.rs` bounds those.) Each client is a lane that
//! sends as its batches come up, deliveries reach the kernel a burst at a
//! time, responses settle as they drain, and a lane keeps five bytes per
//! invocation in flight (its attempt and payload size), so no platform or
//! executor buffer grows with the request count. A sharded replay places
//! each cell's records as the cell finishes, so it holds one record table
//! too.
//!
//! This file is its own test binary with a single test, so no other test
//! allocates while the mark is read.

use slsb_bench::{CountingAllocator, ReproConfig};
use slsb_core::{Deployment, Executor, ExecutorConfig, RetryPolicy, RunResult};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::{FaultPlan, PlatformKind, ThrottleSpec};
use slsb_sim::alloc::{live_bytes, peak_live_bytes, reset_peak_live_bytes};
use slsb_workload::MmppPreset;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Ceiling on the live-heap growth of one replay of the calibrated W200
/// trace, per request: its 72-byte records, the cold-start table, and what
/// is in flight. The four families measure 77.2–83.4 B/request; the
/// heaviest, the CPU server, measured 90.4 while the 60k requests it drops
/// stale stayed in flight until the run ended, five bytes each, instead
/// of closing as they drop. The ceiling leaves about 1.6 B of headroom.
/// With each record carrying its cold-start breakdown inline (112-byte
/// records) they measured 118–124, and pre-scheduling every delivery up
/// front 233–241.
const MAX_BYTES_PER_REQUEST: f64 = 85.0;

/// Ceiling on a `with_shards(1)` replay of the same trace with client
/// retries, faults and client jitter, per request: one record table, the
/// finished cell's own table on its way into it (an eighth as large), and
/// what is in flight. It measures 95.2 B/request, and the ceiling leaves
/// about 8 B of headroom. With 112-byte records it measured 138, and
/// copying every cell's records into a second table after the last cell,
/// on top of the pre-scheduled deliveries, 270.
const MAX_SHARDED_RETRY_BYTES_PER_REQUEST: f64 = 104.0;

/// Runs `replay` on a fresh thread, whose run arena starts empty so the
/// arena's buffers are part of what the replay is charged for, and
/// returns the live-heap high-water growth per request.
fn growth_per_request(replay: impl FnOnce() -> RunResult + Send) -> f64 {
    std::thread::scope(|s| {
        s.spawn(|| {
            let base = live_bytes();
            reset_peak_live_bytes();
            let run = replay();
            let growth = peak_live_bytes() - base;
            growth as f64 / run.records.len() as f64
        })
        .join()
        .expect("replay thread")
    })
}

#[test]
fn a_replay_holds_only_its_records_and_what_is_in_flight() {
    let trace = ReproConfig::default().trace(MmppPreset::W200);
    let seed = ReproConfig::default().seed();
    let mobilenet = |p| Deployment::new(p, ModelKind::MobileNet, RuntimeKind::Tf115);
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
        PlatformKind::AwsGpu,
    ] {
        let dep = mobilenet(platform);
        let per_request = growth_per_request(|| {
            let run = Executor::default().run(&dep, &trace, seed);
            let run = run.expect("valid deployment");
            assert_eq!(run.records.len(), trace.len());
            run
        });
        eprintln!("{}: {per_request:.1} B/request", platform.label());
        assert!(
            per_request <= MAX_BYTES_PER_REQUEST,
            "{}: one replay grew the live heap by {per_request:.1} B/request, above \
             {MAX_BYTES_PER_REQUEST}",
            platform.label(),
        );
    }

    let mut faults = FaultPlan::none();
    faults.crash_mid_exec = 0.05;
    faults.packet_loss = 0.05;
    faults.client_jitter_ms = 20.0;
    faults.throttle = Some(ThrottleSpec {
        rate_per_sec: 120.0,
        burst: 40.0,
    });
    let exec = Executor::new(ExecutorConfig {
        retry: RetryPolicy::standard(),
        ..ExecutorConfig::default()
    })
    .with_faults(faults)
    .with_shards(1);
    let dep = mobilenet(PlatformKind::AwsServerless);
    let per_request = growth_per_request(|| {
        let run = exec.run(&dep, &trace, seed).expect("valid deployment");
        assert!(run.retries > 0 && run.client_faults > 0);
        run
    });
    eprintln!("sharded, retrying, faulted: {per_request:.1} B/request");
    assert!(
        per_request <= MAX_SHARDED_RETRY_BYTES_PER_REQUEST,
        "a with_shards(1) retrying replay grew the live heap by {per_request:.1} B/request, \
         above {MAX_SHARDED_RETRY_BYTES_PER_REQUEST}",
    );
}
