//! # slsb-core — the paper's benchmarking framework
//!
//! The four components of the paper's Figure 3, plus the design-space
//! tooling of Sections 5–6:
//!
//! - [`plan`] — the planner: a validated [`Deployment`] (platform × model ×
//!   runtime × configuration) enforcing each platform's rules;
//! - [`executor`] — the executor: an 8-client open-loop replay of a
//!   workload trace with request pools, network transfer, batching, and the
//!   per-request timeout that produces success-ratio dynamics;
//! - [`analyzer`] — the analyzer: latency / success-ratio / cost digests,
//!   timelines, and cold-start breakdowns, folded from a run's records or
//!   from its compact [`outcome`] table;
//! - [`report`] — paper-style table rendering (Markdown / CSV);
//! - [`batching`] — fixed (Section 5.5) and adaptive (BATCH-style) client
//!   batching policies;
//! - [`explorer`] — the Section 6 "navigation tool" opportunity,
//!   implemented as a configuration sweep with Pareto/SLO selection;
//! - [`experiment`] — the registry mapping every table and figure to a
//!   reproduction id;
//! - [`oracle`] — clairvoyant cold-start / cost lower bounds, reported
//!   beside every run so policies score as a "% of optimal";
//! - [`scenario`] — JSON-declarative experiments (save, share, replay);
//! - [`replication`] — n-seed replication with mean ± std aggregation;
//! - [`runner`] — the parallel run harness: a std-only work-stealing pool
//!   that fans independent simulations across cores with bit-identical,
//!   seed-order-stable results, plus the process-wide workload
//!   [`TraceCache`].
//!
//! ```
//! use slsb_core::{analyze, Deployment, Executor};
//! use slsb_model::{ModelKind, RuntimeKind};
//! use slsb_platform::PlatformKind;
//! use slsb_sim::Seed;
//! use slsb_workload::MmppPreset;
//!
//! let trace = MmppPreset::W40.generate(Seed(7));
//! let deployment = Deployment::new(
//!     PlatformKind::AwsServerless,
//!     ModelKind::MobileNet,
//!     RuntimeKind::Tf115,
//! );
//! let run = Executor::default().run(&deployment, &trace, Seed(7)).unwrap();
//! let analysis = analyze(&run);
//! assert!(analysis.success_ratio > 0.99);
//! ```

pub mod analyzer;
pub mod batching;
mod cell;
pub mod executor;
pub mod experiment;
pub mod explorer;
pub mod fleet;
pub mod oracle;
pub mod outcome;
pub mod plan;
pub mod replication;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod slo;

pub use analyzer::{
    analyze, analyze_outcomes, analyze_with_bucket, run_metrics, slo_metrics, slo_samples,
    Analysis, ColdStartStats, LatencyStats,
};
pub use batching::{plan_invocations, BatchPolicy, Invocation};
pub use executor::{ConfigError, Executor, ExecutorConfig, RequestRecord, RetryPolicy, RunResult};
pub use experiment::ExperimentId;
pub use explorer::{explore, explore_jobs, Candidate, Exploration, ExplorerGrid};
pub use fleet::{
    arrival_allocs, fleet_metrics, AppResult, CellBalance, FleetPartition, FleetPlan,
    FleetRunError, FleetRunResult, FleetRunner, FleetScenario, FleetScenarioError, FleetSource,
    FleetWarning, FLEET_CELLS,
};
pub use oracle::{oracle_bound, trace_oracle, OracleBound, TraceOracle};
pub use outcome::{Fate, OutcomeRun, OutcomeTable};
pub use plan::{Deployment, PlanError};
pub use replication::{replicate, replicate_jobs, MetricSummary, Replication};
pub use report::{ascii_chart, fmt_money, fmt_opt_secs, fmt_pct, fmt_secs, Table};
pub use runner::{parallel_map, run_jobs, Jobs, RunJob, TraceCache};
pub use scenario::{Scenario, ScenarioError, WorkloadSpec};
pub use slo::{SloObjective, SloReport, SloSample, SloSpec, SloTargets};
