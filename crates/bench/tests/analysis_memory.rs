//! The memory an analysis itself takes, read off the live-bytes
//! high-water mark of the counting allocator around the analysis alone.
//! An analysis keeps one latency sample per *successful* request, a 4-B
//! microsecond count, and reserves room for the successes only: on the CPU
//! server at W200 a minority of the requests succeed, and a reservation
//! sized by the request count would hold several times the samples it
//! ever gets.
//!
//! This file is its own test binary with a single test, so no other test
//! allocates while the mark is read.

use slsb_bench::{CountingAllocator, ReproConfig};
use slsb_core::{analyze, analyze_outcomes, Deployment, Executor};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::PlatformKind;
use slsb_sim::alloc::{live_bytes, peak_live_bytes, reset_peak_live_bytes};
use slsb_workload::MmppPreset;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Bytes an analysis holds per latency sample: a `u32` of microseconds.
/// Samples kept as `f64` seconds take 8.
const SAMPLE_BYTES: usize = 4;

/// What an analysis holds besides its latency samples, whatever the run's
/// size: the 10-s timelines of a 15-minute run, the cold-start means and
/// the analysis itself. On the run below the analysis peaks 17.8 KiB above
/// its 4 B per success, deterministically, leaving 6.2 KiB of headroom,
/// less than the 101.6 KiB that `f64` samples would add. Reserving for
/// every request, it peaked 486 KiB above.
const FIXED_BYTES: usize = 24 * 1024;

/// The live-heap high-water growth while `analyze` runs.
fn analysis_peak(analyze: impl FnOnce() -> u64) -> usize {
    let base = live_bytes();
    reset_peak_live_bytes();
    std::hint::black_box(analyze());
    peak_live_bytes() - base
}

#[test]
fn an_analysis_reserves_latencies_for_its_successes_only() {
    let cfg = ReproConfig::default();
    let trace = cfg.trace(MmppPreset::W200);
    let dep = Deployment::new(
        PlatformKind::AwsCpu,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let exec = Executor::default();
    let records = exec
        .run(&dep, &trace, cfg.seed())
        .expect("valid deployment");
    let outcomes = exec
        .run_outcomes(&dep, &trace, cfg.seed())
        .expect("valid deployment");
    let successes = records.successes().count();
    assert_eq!(outcomes.outcomes.successes(), successes);
    // The CPU server collapses at W200: most requests fail, which is what
    // makes the reservation's size visible.
    assert!(
        successes * 2 < trace.len(),
        "{successes} of {}",
        trace.len()
    );
    let ceiling = SAMPLE_BYTES * successes + FIXED_BYTES;
    for (sink, peak) in [
        ("records", analysis_peak(|| analyze(&records).succeeded)),
        (
            "outcomes",
            analysis_peak(|| analyze_outcomes(&outcomes).succeeded),
        ),
    ] {
        eprintln!(
            "{sink}: analysis peak {peak} B for {successes} successes of {} requests",
            trace.len()
        );
        assert!(
            peak <= ceiling,
            "analyzing {sink} peaked at {peak} B, above {SAMPLE_BYTES} B per success \
             plus {FIXED_BYTES} B ({ceiling} B)"
        );
    }
}
