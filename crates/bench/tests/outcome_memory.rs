//! The memory bound of an analysis-only replay: one settled into an
//! outcome table and analyzed, as every experiment of `repro all` runs
//! it, read off the live-bytes high-water mark of the counting allocator.
//! The table holds 9 B per request: an outcome byte, and the latency and
//! the predict time as 4-B microsecond counts. Everything else the replay holds is the cold-start side
//! table, what is in flight (five bytes per invocation) and the platform.
//!
//! This file is its own test binary with a single test, so no other test
//! allocates while the mark is read.

use slsb_bench::{CountingAllocator, ReproConfig};
use slsb_core::{analyze_outcomes, Deployment, Executor};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::PlatformKind;
use slsb_sim::alloc::{live_bytes, peak_live_bytes, reset_peak_live_bytes};
use slsb_workload::MmppPreset;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Ceiling on the live-heap growth of one outcome-table replay of the
/// calibrated W200 trace and its analysis, per request. The four families
/// measure 13.2–17.4 B/request (the CPU server highest), deterministically:
/// the same allocations on every run. The ceiling leaves 2.6 B of
/// headroom, less than the 4 B a `u64` latency or predict column would add
/// back (the CPU server then reads 21.4). With both columns `u64`, a 17-B
/// table, full platform reservations and 40-B VM queue entries they
/// measured 22.2–28.4; keeping a growing table of 72-byte records besides
/// the outcome table, 132.7–145.2.
const MAX_BYTES_PER_REQUEST: f64 = 20.0;

#[test]
fn an_analysis_only_replay_holds_its_outcome_table_and_what_is_in_flight() {
    let preset = MmppPreset::W200;
    let cfg = ReproConfig::default();
    let trace = cfg.trace(preset);
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
        PlatformKind::AwsGpu,
    ] {
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        // A fresh thread's run arena starts empty, so the arena's buffers
        // are part of what the replay is charged for.
        let growth = std::thread::scope(|s| {
            s.spawn(|| {
                let base = live_bytes();
                reset_peak_live_bytes();
                let run = Executor::default()
                    .run_outcomes(&dep, &trace, cfg.seed())
                    .expect("valid deployment");
                let analysis = analyze_outcomes(&run);
                assert_eq!(analysis.total as usize, trace.len());
                peak_live_bytes() - base
            })
            .join()
            .expect("replay thread")
        });
        let per_request = growth as f64 / trace.len() as f64;
        eprintln!("{}: {per_request:.1} B/request", platform.label());
        assert!(
            per_request <= MAX_BYTES_PER_REQUEST,
            "{}: an analysis-only replay grew the live heap by {per_request:.1} B/request, \
             above {MAX_BYTES_PER_REQUEST}",
            platform.label(),
        );
    }
}
