//! Every experiment renders the same bytes on any worker budget: its
//! replays run over `parallel_map`, and its tables are built from the
//! results in plan order, never in the order the workers finish them.

use slsb_bench::{run_experiment_jobs, ReproConfig};
use slsbench::core::{ExperimentId, Jobs};

#[test]
fn every_experiment_renders_identical_markdown_for_any_worker_budget() {
    let cfg = ReproConfig::scaled(0.01);
    for id in ExperimentId::ALL {
        let out = run_experiment_jobs(id, &cfg, Jobs::new(1));
        assert!(!out.tables.is_empty(), "{id} produced no tables");
        let one = out.to_markdown();
        for workers in [2, 3] {
            let many = run_experiment_jobs(id, &cfg, Jobs::new(workers)).to_markdown();
            assert!(one == many, "{id} renders differently on {workers} workers");
        }
    }
}
