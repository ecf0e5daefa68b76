//! The memory bound of reading a trace, read off the counting allocator:
//! parsing allocates the event table once, at its exact size, and the
//! renderings and the trace oracle hold only what they print or must
//! count, never a copy of the trace's spans.
//!
//! This file is its own test binary with a single test, so no other test
//! allocates while the counters are read.

use slsb_bench::CountingAllocator;
use slsb_core::{trace_oracle, FleetRunner, FleetScenario};
use slsb_obs::{trace_view, JsonlRecorder, TraceEvent};
use slsb_sim::alloc::{allocation_count, live_bytes, peak_live_bytes, reset_peak_live_bytes};
use slsb_sim::Seed;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Ceiling on the live-heap growth of every `slsb trace` rendering plus
/// the trace oracle over the fleet trace below (1000 apps, 29k request
/// spans, 193k events). They measure 0.51 MiB, nearly all of it the
/// oracle's two sweep arrays; the ceiling adds half again as headroom.
/// Sorting a copy of every span for the waterfall added 2.1 MiB or more.
const MAX_RENDER_BYTES: usize = 768 << 10;

/// A one-worker fleet trace of about 29k requests, as JSONL text.
fn fleet_trace() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/fleet_zipf.json"
    );
    let mut scenario =
        FleetScenario::from_json(&std::fs::read_to_string(path).expect("fleet scenario"))
            .expect("valid scenario");
    scenario.scale_duration(0.026).expect("synthesized fleet");
    let plan = scenario.resolve(None).expect("resolves");
    let mut buf = Vec::new();
    let mut rec = JsonlRecorder::new(&mut buf);
    FleetRunner::default()
        .run_recorded(&plan, Seed(scenario.seed), &mut rec)
        .expect("valid plan");
    rec.finish().expect("in-memory sink");
    String::from_utf8(buf).expect("the recorder writes UTF-8")
}

#[test]
fn reading_a_trace_holds_one_exact_table_and_bounded_renders() {
    let text = fleet_trace();

    let (allocs, base) = (allocation_count(), live_bytes());
    reset_peak_live_bytes();
    let events = trace_view::parse_jsonl_strict(&text).expect("a recorded trace parses");
    let (allocs, held, peak) = (
        allocation_count() - allocs,
        live_bytes() - base,
        peak_live_bytes() - base,
    );
    let table = events.len() * std::mem::size_of::<TraceEvent>();
    let spans = trace_view::spans(&events).len();
    eprintln!("{} events, {spans} spans: a {table} B table", events.len());
    assert!(spans > 25_000, "{spans} spans");
    assert_eq!(allocs, 1, "parsing made {allocs} allocations");
    assert_eq!(held, table, "parsing holds {held} B");
    assert_eq!(peak, table, "parsing peaked at {peak} B");

    let base = live_bytes();
    reset_peak_live_bytes();
    let mut out = trace_view::summary(&events);
    out += &trace_view::phase_attribution(&events);
    out += &trace_view::cold_start_breakdown(&events);
    out += &trace_view::fault_attribution(&events);
    out += &trace_view::waterfall(&events, 20);
    out += &trace_view::instance_timeline(&events, 20);
    out += &trace_view::app_breakdown(&events, 5);
    let oracle = trace_oracle(&events).expect("a serverless fleet");
    let growth = peak_live_bytes() - base;
    eprintln!(
        "renders and oracle: {growth} B peak growth ({} B printed, oracle {oracle:?})",
        out.len()
    );
    assert!(
        growth <= MAX_RENDER_BYTES,
        "rendering the trace grew the live heap by {growth} B, above {MAX_RENDER_BYTES}"
    );
}
