//! Contracts of the shipped scenario files that hold whatever the
//! simulation's numbers are.

use slsbench::core::{FleetRunner, FleetScenario};
use slsbench::sim::Seed;
use slsbench::workload::TraceSummary;
use std::path::Path;

/// An ingested trace summary replays its exact invocation count: the
/// bucket grid is a contract, not a hint.
#[test]
fn fleet_trace_replay_runs_every_invocation_of_its_trace() {
    let scenarios = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let read = |p: &Path| std::fs::read_to_string(p).unwrap();
    let scenario =
        FleetScenario::from_json(&read(&scenarios.join("fleet_trace_replay.json"))).unwrap();
    let trace_json = read(&scenarios.join(scenario.trace_path().expect("a trace-sourced fleet")));
    let invocations: u64 = TraceSummary::from_json(&trace_json)
        .unwrap()
        .apps
        .iter()
        .flat_map(|app| &app.invocations)
        .map(|&n| u64::from(n))
        .sum();
    let plan = scenario.resolve(Some(&trace_json)).unwrap();
    let run = FleetRunner::default()
        .run(&plan, Seed(scenario.seed))
        .unwrap();
    assert!(invocations > 0);
    assert_eq!(run.requests, invocations);
}
