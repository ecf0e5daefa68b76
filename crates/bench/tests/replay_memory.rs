//! The memory bound of one replay, read off the live-bytes high-water mark
//! of the counting allocator. A replay holds O(requests) memory only for
//! its output records and the trace-sized plan; responses settle as they
//! drain, so no platform or executor buffer grows with the request count.
//!
//! This file is its own test binary with a single test, so no other test
//! allocates while the mark is read.

use slsb_bench::{CountingAllocator, ReproConfig};
use slsb_core::{Deployment, Executor};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::PlatformKind;
use slsb_sim::alloc::{live_bytes, peak_live_bytes, reset_peak_live_bytes};
use slsb_workload::MmppPreset;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Ceiling on the live-heap growth of one replay, per request of the
/// trace: records, the invocation plan and its per-invocation tables, and
/// the pre-scheduled deliveries, with headroom for the in-flight state.
const MAX_BYTES_PER_REQUEST: usize = 288;

#[test]
fn a_replay_holds_only_its_records_and_what_is_in_flight() {
    let trace = ReproConfig::default().trace(MmppPreset::W200);
    let requests = trace.len();
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
        PlatformKind::AwsGpu,
    ] {
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        // A fresh thread starts with an empty run arena, so the arena's
        // buffers are part of what this replay is charged for.
        let trace = &trace;
        let growth = std::thread::scope(|s| {
            s.spawn(|| {
                let base = live_bytes();
                reset_peak_live_bytes();
                let run = Executor::default()
                    .run(&dep, trace, ReproConfig::default().seed())
                    .expect("valid deployment");
                let peak = peak_live_bytes();
                assert_eq!(run.records.len(), requests);
                peak - base
            })
            .join()
            .expect("replay thread")
        });
        let per_request = growth as f64 / requests as f64;
        eprintln!("{}: {per_request:.1} B/request", platform.label());
        assert!(
            growth <= MAX_BYTES_PER_REQUEST * requests,
            "{}: one replay grew the live heap by {per_request:.1} B/request \
             ({growth} B over {requests} requests), above {MAX_BYTES_PER_REQUEST}",
            platform.label(),
        );
    }
}
