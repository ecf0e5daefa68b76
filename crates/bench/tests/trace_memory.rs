//! The memory bound of a traced run, read off the live-bytes high-water
//! mark of the counting allocator. On one worker every cell records
//! straight into the caller's recorder, so tracing holds no event past
//! the sink: a traced run holds what an untraced one does, plus the sink's
//! own buffer.
//!
//! This file is its own test binary with a single test, so no other test
//! allocates while the mark is read.

use slsb_bench::{CountingAllocator, ReproConfig};
use slsb_core::{Deployment, Executor, FleetRunner, FleetScenario};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_obs::JsonlRecorder;
use slsb_platform::PlatformKind;
use slsb_sim::alloc::{live_bytes, peak_live_bytes, reset_peak_live_bytes};
use slsb_sim::Seed;
use slsb_workload::MmppPreset;
use std::io;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Ceiling on the live-heap growth of a traced one-worker fleet run, per
/// request. The run below (1000 apps, 97k requests) measures 39.0 B/request
/// traced and untraced alike (41.4 while arrivals went through the timer
/// wheel): the fleet's O(apps) state. The ceiling adds
/// about half again as headroom. Buffering each cell's events until the
/// run closed measured 653 B/request.
const MAX_FLEET_BYTES_PER_REQUEST: f64 = 64.0;

/// Ceiling on the live-heap growth of a traced `with_shards(1)` replay of
/// the calibrated W200 trace, per request: one record table, the finished
/// cell's table and span scratch, and what is in flight. The replay
/// measures 95.9 B/request, and the ceiling leaves about 8 B of headroom.
/// With 112-byte records it measured 141, with pre-scheduled deliveries
/// and a second record table 239, and buffering each cell's events until
/// the run closed 727.
const MAX_SHARDED_BYTES_PER_REQUEST: f64 = 104.0;

/// A sink that keeps only the count of bytes written to it.
#[derive(Default)]
struct ByteCount(u64);

impl io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs `traced` on a fresh thread (an empty run arena, so its buffers are
/// charged too) and returns the live-heap high-water growth per request
/// and the bytes it traced. `traced` returns its request count.
fn growth_per_request(
    traced: impl FnOnce(&mut JsonlRecorder<&mut ByteCount>) -> u64 + Send,
) -> (f64, u64) {
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut sink = ByteCount::default();
            let base = live_bytes();
            reset_peak_live_bytes();
            let mut rec = JsonlRecorder::new(&mut sink);
            let requests = traced(&mut rec);
            rec.finish().expect("counting sink");
            let growth = peak_live_bytes() - base;
            (growth as f64 / requests as f64, sink.0)
        })
        .join()
        .expect("traced run thread")
    })
}

#[test]
fn a_traced_run_holds_only_what_is_in_flight() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/fleet_zipf.json"
    );
    let mut scenario =
        FleetScenario::from_json(&std::fs::read_to_string(path).expect("fleet scenario"))
            .expect("valid scenario");
    scenario.scale_duration(0.05).expect("synthesized fleet");
    let plan = scenario.resolve(None).expect("resolves");
    let (fleet, fleet_bytes) = growth_per_request(|rec| {
        FleetRunner::default()
            .run_recorded(&plan, Seed(scenario.seed), rec)
            .expect("valid plan")
            .requests
    });
    eprintln!("fleet, one worker: {fleet:.1} B/request ({fleet_bytes} B traced)");

    let trace = ReproConfig::default().trace(MmppPreset::W200);
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let (sharded, sharded_bytes) = growth_per_request(|rec| {
        Executor::default()
            .with_shards(1)
            .run_recorded(&dep, &trace, ReproConfig::default().seed(), rec)
            .expect("valid deployment")
            .records
            .len() as u64
    });
    eprintln!("executor, with_shards(1): {sharded:.1} B/request ({sharded_bytes} B traced)");

    assert!(
        fleet <= MAX_FLEET_BYTES_PER_REQUEST,
        "a traced one-worker fleet run grew the live heap by {fleet:.1} B/request, \
         above {MAX_FLEET_BYTES_PER_REQUEST}"
    );
    assert!(
        sharded <= MAX_SHARDED_BYTES_PER_REQUEST,
        "a traced with_shards(1) replay grew the live heap by {sharded:.1} B/request, \
         above {MAX_SHARDED_BYTES_PER_REQUEST}"
    );
}
