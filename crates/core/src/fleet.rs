//! Fleet runs: a streaming multi-tenant engine over hundreds of apps.
//!
//! The paper benchmarks one model deployment against one trace. Production
//! serverless fleets look nothing like that: thousands of mostly-idle apps
//! whose popularity follows a heavy-tailed (Zipf-like) curve, each with its
//! own deployment configuration — the regime characterized by the Azure
//! Functions trace study. This module runs that regime without ever
//! materializing the merged request log:
//!
//! - [`FleetScenario`] is the declarative JSON surface: a `fleet` block
//!   (synthesized knobs or an ingested trace summary), a named profile map
//!   of [`Deployment`]s, and a client timeout.
//! - [`FleetRunner`] drives every app's platform instance from the lazy
//!   k-way merge in [`slsb_workload::FleetArrivalStream`]. Arrival-side
//!   memory is O(apps + in-flight), not O(requests): the engine holds at
//!   most one pending merged arrival at a time and pulls the next one only
//!   when the current one fires.
//! - Apps are partitioned over a **fixed** number of cells
//!   ([`FLEET_CELLS`]) by a weighted LPT bin-packing
//!   ([`FleetPartition`]): apps sorted by expected event weight
//!   (rate × duration from the resolved plan) are greedily assigned to
//!   the least-loaded cell. The partition is a pure function of the
//!   [`FleetPlan`] — never of `--jobs`/`--shards`, which only change how
//!   many worker threads execute those cells. Combined with per-app RNG
//!   substreams keyed by global app index
//!   (`substream_indexed("app", i)`, `substream_indexed("fleet-app", i)`,
//!   `substream_indexed("app-payload", i)`), every result — per-app
//!   counters, merged platform report, recorded trace — is byte-identical
//!   for any worker budget. Under Zipf popularity this shrinks the
//!   slowest cell from "head app + 1/8 of the tail" (the old
//!   `app % cells` rule) to ~1/cells of total weight.
//!
//! Each partition cell is a cell of the shared layer (the crate's private
//! `cell` module) whose clients are its apps, all on the run seed:
//! platform driving, the run's end, the fan-out over workers and the
//! trace close are the executor's.
//! Unlike the single-app executor there is no client batching and no retry
//! layer: each trace arrival is one invocation, delivered after its
//! payload's network transfer, and resolved against the client timeout when
//! its response (plus response-path network) comes back.

use crate::cell::{close_trace, fan_out, Cell, PlatformIo, RunEnd, ARRIVAL_BURST};
use crate::plan::{Deployment, PlanError};
use serde::{Deserialize, Serialize};
use slsb_obs::{EventKind, LogLinearHistogram, MetricsRegistry, Recorder, TraceEvent};
use slsb_platform::{
    FailureReason, NetworkProfile, Outcome, Platform, PlatformEvent, PlatformReport, PolicySet,
    RequestId, ServingRequest, ServingResponse,
};
use slsb_sim::{
    Engine, EventQueue, ProfGuard, ProfileNode, Seed, SimDuration, SimTime, StoreKind, System,
};
use slsb_workload::{FleetError, FleetSpec, FleetSynthesis, InputKind, RequestPool, TraceSummary};
use std::collections::BTreeMap;
use std::fmt;

/// Fixed cell count for intra-run parallelism. The app → cell mapping
/// ([`FleetPartition`], capped by the app count) never depends on the
/// worker budget, so results cannot vary with `--jobs`/`--shards`. 32
/// cells let big boxes keep every core busy while small boxes just run
/// more cells per worker.
pub const FLEET_CELLS: usize = 32;

/// A deterministic weighted assignment of apps to cells.
///
/// Built by LPT (longest-processing-time-first) bin-packing: apps are
/// sorted by descending expected event weight — `expected_requests`
/// over the plan duration plus a constant per-app baseline for platform
/// start/teardown — and greedily placed on the least-loaded cell, ties
/// broken by lowest cell index then lowest app index. The result is a
/// pure function of the [`FleetPlan`] and the cell count, so it can
/// never vary with the worker budget.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPartition {
    /// Per-cell member lists, ascending global app index within a cell.
    pub cells: Vec<Vec<u32>>,
    /// Per-cell total expected weight (same units as `expected_requests`).
    pub weights: Vec<f64>,
    /// The heaviest single app's weight. A cell can never weigh less
    /// than its heaviest member, so this is the unavoidable floor on the
    /// max cell weight (under Zipf the head app alone can exceed 2× the
    /// mean cell weight — no partition can shrink that cell further).
    pub max_app_weight: f64,
}

/// The balance figures the Zipf fleet smoke gate asserts on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellBalance {
    /// Heaviest cell's total weight.
    pub max_cell: f64,
    /// Mean cell weight.
    pub mean_cell: f64,
    /// Heaviest single app's weight (the indivisible floor).
    pub max_app: f64,
}

impl CellBalance {
    /// Whether the partition is as balanced as the gate demands: the
    /// heaviest cell is within 2× the mean, or is pinned by a single
    /// indivisible head app that no partition could split.
    pub fn is_balanced(&self) -> bool {
        self.max_cell <= (2.0 * self.mean_cell).max(self.max_app * (1.0 + 1e-9))
    }
}

impl FleetPartition {
    /// Partitions `plan`'s apps over `cells` cells.
    ///
    /// # Panics
    /// Panics if `cells == 0`.
    pub fn compute(plan: &FleetPlan, cells: usize) -> FleetPartition {
        assert!(cells > 0, "partition needs at least one cell");
        let duration = plan.spec.duration;
        // Every app carries a fixed baseline (platform build, start,
        // teardown) on top of its request-rate weight, so idle tenants
        // still spread across cells instead of piling onto cell 0.
        let weights: Vec<f64> = plan
            .spec
            .apps
            .iter()
            .map(|a| a.process.expected_requests(duration) + 1.0)
            .collect();
        let mut order: Vec<u32> = (0..weights.len() as u32).collect();
        // Descending weight; equal weights keep ascending app order. Both
        // keys are exact, so the sort is deterministic.
        order.sort_by(|&a, &b| {
            weights[b as usize]
                .total_cmp(&weights[a as usize])
                .then(a.cmp(&b))
        });
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); cells];
        let mut loads = vec![0.0f64; cells];
        for g in order {
            let lightest = loads
                .iter()
                .enumerate()
                .min_by(|(i, a), (j, b)| a.total_cmp(b).then(i.cmp(j)))
                .map(|(i, _)| i)
                .expect("at least one cell");
            loads[lightest] += weights[g as usize];
            members[lightest].push(g);
        }
        for cell in &mut members {
            cell.sort_unstable();
        }
        FleetPartition {
            cells: members,
            weights: loads,
            max_app_weight: weights.iter().copied().fold(0.0f64, f64::max),
        }
    }

    /// The balance figures the Zipf fleet smoke gate asserts on
    /// (`max_cell ≤ max(2 × mean, max_app)`).
    pub fn balance(&self) -> CellBalance {
        CellBalance {
            max_cell: self.weights.iter().copied().fold(0.0f64, f64::max),
            mean_cell: self.weights.iter().sum::<f64>() / self.weights.len().max(1) as f64,
            max_app: self.max_app_weight,
        }
    }
}

/// Why a fleet run failed.
#[derive(Debug)]
pub enum FleetRunError {
    /// A per-app deployment violates a platform rule.
    Plan(PlanError),
    /// The plan resolves to zero apps: there is nothing to run, and a
    /// silent empty result would read as a perfect success ratio.
    EmptyFleet,
    /// Internal stitching invariant broken: an app was produced by no
    /// cell (or two). Indicates a partition bug, reported instead of
    /// panicking so callers can surface which app was lost.
    UnassignedApp {
        /// The global index of the app no cell produced.
        app: u32,
    },
}

impl fmt::Display for FleetRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetRunError::Plan(e) => write!(f, "invalid deployment: {e}"),
            FleetRunError::EmptyFleet => write!(f, "fleet plan has no apps"),
            FleetRunError::UnassignedApp { app } => {
                write!(f, "app {app} was not assigned to exactly one cell")
            }
        }
    }
}

impl std::error::Error for FleetRunError {}

impl From<PlanError> for FleetRunError {
    fn from(e: PlanError) -> Self {
        FleetRunError::Plan(e)
    }
}

/// Where a fleet's apps come from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FleetSource {
    /// Synthesize from knobs (Zipf popularity over on/off tenants).
    Synth {
        /// Number of apps.
        apps: u32,
        /// Zipf popularity exponent (1.0–1.5 matches production studies).
        zipf_exponent: f64,
        /// Fleet-wide long-run request rate (req/s).
        total_rate: f64,
        /// Mean busy-period length, seconds.
        mean_busy_s: f64,
        /// Median idle gap, seconds (lognormal).
        median_idle_s: f64,
        /// Idle-gap lognormal sigma (heavy tail).
        idle_sigma: f64,
        /// Run duration, seconds.
        duration_s: f64,
    },
    /// Replay an ingested trace summary (`slsb fleet ingest` output). The
    /// path is resolved relative to the scenario file by the CLI; the core
    /// library never touches the filesystem.
    Trace {
        /// Path to the canonical `slsb-fleet-trace/v1` JSON document.
        path: String,
    },
}

/// One complete, replayable fleet experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetScenario {
    /// Human-readable name.
    pub name: String,
    /// Experiment seed.
    pub seed: u64,
    /// Where the apps come from.
    pub fleet: FleetSource,
    /// Named deployment profiles. Synthesized apps round-robin over the
    /// (sorted) profile names; trace apps reference profiles by name.
    pub profiles: BTreeMap<String, Deployment>,
    /// Per-request client timeout, seconds.
    #[serde(default = "FleetScenario::default_timeout_s")]
    pub timeout_s: f64,
    /// Fleet-wide policy override. When set, every app runs under this
    /// policy set regardless of what its profile says; when absent, each
    /// profile's own `policy` applies (and profiles that do not pin one
    /// raise a [`FleetWarning::ProfileWithoutPolicy`], because a fleet
    /// comparison where some apps silently ride platform defaults is
    /// usually a mis-specified experiment).
    #[serde(default)]
    pub policy: Option<PolicySet>,
}

/// A non-fatal diagnostic raised while resolving a fleet scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetWarning {
    /// A deployment profile pins no policy and no fleet-wide override is
    /// set: its apps will run whatever the platform's defaults are.
    ProfileWithoutPolicy {
        /// The policy-less profile's name.
        profile: String,
    },
}

impl fmt::Display for FleetWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetWarning::ProfileWithoutPolicy { profile } => write!(
                f,
                "profile {profile} pins no policy; its apps run platform \
                 defaults (set a profile policy block or a fleet-wide \
                 \"policy\" to silence this)"
            ),
        }
    }
}

/// Why a fleet scenario failed to load or resolve.
#[derive(Debug)]
pub enum FleetScenarioError {
    /// JSON was malformed or did not match the schema.
    Parse(serde_json::Error),
    /// The `profiles` map is empty.
    NoProfiles,
    /// A trace app references a profile that is not in `profiles`.
    UnknownProfile {
        /// The referencing app.
        app: String,
        /// The missing profile name.
        profile: String,
    },
    /// The fleet block is invalid (bad knob, bad trace document).
    Fleet(FleetError),
    /// A resolved per-app deployment violates a platform rule.
    Plan(PlanError),
    /// The scenario replays a trace but no trace document was supplied.
    MissingTrace(String),
}

impl fmt::Display for FleetScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetScenarioError::Parse(e) => write!(f, "fleet scenario parse error: {e}"),
            FleetScenarioError::NoProfiles => write!(f, "fleet scenario has no profiles"),
            FleetScenarioError::UnknownProfile { app, profile } => {
                write!(f, "app {app} references unknown profile {profile}")
            }
            FleetScenarioError::Fleet(e) => write!(f, "invalid fleet: {e}"),
            FleetScenarioError::Plan(e) => write!(f, "invalid deployment: {e}"),
            FleetScenarioError::MissingTrace(p) => {
                write!(
                    f,
                    "fleet replays trace {p} but no trace document was provided"
                )
            }
        }
    }
}

impl std::error::Error for FleetScenarioError {}

impl From<FleetError> for FleetScenarioError {
    fn from(e: FleetError) -> Self {
        FleetScenarioError::Fleet(e)
    }
}

impl From<PlanError> for FleetScenarioError {
    fn from(e: PlanError) -> Self {
        FleetScenarioError::Plan(e)
    }
}

/// A resolved fleet: the workload spec plus one validated deployment per
/// app (profile copies with any per-app trace hints applied).
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// The multi-tenant workload.
    pub spec: FleetSpec,
    /// One deployment per app, in app order.
    pub deployments: Vec<Deployment>,
    /// Per-request client timeout.
    pub timeout: SimDuration,
    /// Non-fatal diagnostics raised during resolution (e.g. a profile
    /// with no policy block). The CLI prints these to stderr.
    pub warnings: Vec<FleetWarning>,
}

impl FleetPlan {
    /// Checks that the plan can run: it has apps, and every deployment
    /// passes [`Deployment::validate`]. [`FleetRunner`] checks this before
    /// the first event, so a run that fails records nothing; callers may
    /// check it before opening a trace sink.
    ///
    /// # Errors
    /// [`FleetRunError::EmptyFleet`] or the first invalid deployment.
    pub fn validate(&self) -> Result<(), FleetRunError> {
        if self.spec.apps.is_empty() {
            return Err(FleetRunError::EmptyFleet);
        }
        for dep in &self.deployments {
            dep.validate()?;
        }
        Ok(())
    }
}

impl FleetScenario {
    fn default_timeout_s() -> f64 {
        60.0
    }

    /// Parses a fleet scenario from JSON.
    ///
    /// # Errors
    /// Fails on malformed JSON or schema mismatch.
    pub fn from_json(json: &str) -> Result<FleetScenario, FleetScenarioError> {
        serde_json::from_str(json).map_err(FleetScenarioError::Parse)
    }

    /// Serializes the scenario to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet scenario is serializable")
    }

    /// The trace-document path this scenario needs, if it replays one.
    pub fn trace_path(&self) -> Option<&str> {
        match &self.fleet {
            FleetSource::Trace { path } => Some(path),
            FleetSource::Synth { .. } => None,
        }
    }

    /// Scales the run duration (synthesized fleets only; `--scale`).
    ///
    /// # Errors
    /// Fails for trace replays, whose duration is fixed by the ingested
    /// bucket grid.
    pub fn scale_duration(&mut self, factor: f64) -> Result<(), FleetScenarioError> {
        match &mut self.fleet {
            FleetSource::Synth { duration_s, .. } => {
                *duration_s *= factor;
                Ok(())
            }
            FleetSource::Trace { .. } => Err(FleetScenarioError::Fleet(FleetError::BadKnob(
                "cannot scale a trace replay's duration".into(),
            ))),
        }
    }

    /// Resolves the scenario into a runnable [`FleetPlan`]. `trace_json`
    /// carries the trace document's contents for [`FleetSource::Trace`]
    /// scenarios (the CLI reads the file; the library stays fs-free).
    ///
    /// # Errors
    /// Fails on invalid knobs, unknown profiles, missing trace input, or a
    /// per-app deployment that violates a platform rule.
    pub fn resolve(&self, trace_json: Option<&str>) -> Result<FleetPlan, FleetScenarioError> {
        if self.profiles.is_empty() {
            return Err(FleetScenarioError::NoProfiles);
        }
        let (spec, mut deployments) = match &self.fleet {
            FleetSource::Synth {
                apps,
                zipf_exponent,
                total_rate,
                mean_busy_s,
                median_idle_s,
                idle_sigma,
                duration_s,
            } => {
                let names: Vec<String> = self.profiles.keys().cloned().collect();
                let spec = FleetSynthesis {
                    apps: *apps,
                    zipf_exponent: *zipf_exponent,
                    total_rate: *total_rate,
                    mean_busy_s: *mean_busy_s,
                    median_idle_s: *median_idle_s,
                    idle_sigma: *idle_sigma,
                    duration_s: *duration_s,
                }
                .build(&self.name, &names)?;
                let deployments = spec
                    .apps
                    .iter()
                    .map(|a| self.profiles[&a.profile])
                    .collect();
                (spec, deployments)
            }
            FleetSource::Trace { path } => {
                let json =
                    trace_json.ok_or_else(|| FleetScenarioError::MissingTrace(path.clone()))?;
                let summary = TraceSummary::from_json(json)?;
                let mut deployments = Vec::with_capacity(summary.apps.len());
                for app in &summary.apps {
                    let base = self.profiles.get(&app.profile).ok_or_else(|| {
                        FleetScenarioError::UnknownProfile {
                            app: app.name.clone(),
                            profile: app.profile.clone(),
                        }
                    })?;
                    let mut dep = *base;
                    if let Some(mb) = app.memory_mb_p50 {
                        dep.memory_mb = mb;
                    }
                    if let Some(mb) = app.artifact_mb {
                        dep.extra_download_mb += mb;
                    }
                    deployments.push(dep);
                }
                (summary.to_fleet_spec()?, deployments)
            }
        };
        let warnings = if let Some(policy) = self.policy {
            for dep in &mut deployments {
                dep.policy = Some(policy);
            }
            Vec::new()
        } else {
            self.profiles
                .iter()
                .filter(|(_, dep)| dep.policy.is_none())
                .map(|(name, _)| FleetWarning::ProfileWithoutPolicy {
                    profile: name.clone(),
                })
                .collect()
        };
        for dep in &deployments {
            dep.validate()?;
        }
        Ok(FleetPlan {
            spec,
            deployments,
            timeout: SimDuration::from_secs_f64(self.timeout_s),
            warnings,
        })
    }
}

/// Per-app outcome rollup of a fleet run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct AppResult {
    /// Global app index.
    pub app: u32,
    /// App name.
    pub name: String,
    /// Deployment-profile label.
    pub profile: String,
    /// Requests submitted by the trace.
    pub requests: u64,
    /// Successful responses within the client timeout.
    pub ok: u64,
    /// Failures by reason.
    pub queue_full: u64,
    /// Requests whose end-to-end time exceeded the timeout (including
    /// requests still unresolved at the horizon).
    pub timeout: u64,
    /// Platform-rejected requests.
    pub rejected: u64,
    /// Throttled requests.
    pub throttled: u64,
    /// Requests lost to instance crashes.
    pub crashed: u64,
    /// Cold starts observed on this app's platform.
    pub cold_starts: u64,
    /// End-to-end latency p50 over successes, seconds.
    pub p50_s: Option<f64>,
    /// End-to-end latency p99 over successes, seconds.
    pub p99_s: Option<f64>,
    /// Run cost for this app's platform, dollars.
    pub cost_dollars: f64,
}

/// The outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetRunResult {
    /// Fleet name.
    pub name: String,
    /// Workload duration.
    pub duration: SimDuration,
    /// Total requests submitted.
    pub requests: u64,
    /// Per-app rollups, in global app order.
    pub apps: Vec<AppResult>,
    /// Fleet-wide platform report (per-app reports merged).
    pub platform: PlatformReport,
    /// Fleet-wide end-to-end latency over successes, seconds.
    pub latency: LogLinearHistogram,
    /// Discrete events the simulation kernel delivered, summed over cells.
    pub engine_events: u64,
}

impl FleetRunResult {
    /// Successful requests.
    pub fn ok(&self) -> u64 {
        self.apps.iter().map(|a| a.ok).sum()
    }

    /// Success ratio over submitted requests.
    pub fn success_ratio(&self) -> f64 {
        if self.requests == 0 {
            return 1.0;
        }
        self.ok() as f64 / self.requests as f64
    }

    /// Total run cost, dollars.
    pub fn cost_dollars(&self) -> f64 {
        self.platform.cost.total().as_dollars()
    }
}

/// Runs [`FleetPlan`]s: one platform instance per app, arrivals pulled
/// lazily from the streaming merge, apps partitioned over fixed cells.
#[derive(Debug, Clone)]
pub struct FleetRunner {
    workers: usize,
    network: NetworkProfile,
    pool_size: usize,
}

impl Default for FleetRunner {
    fn default() -> Self {
        FleetRunner {
            workers: 1,
            network: NetworkProfile::DEFAULT,
            pool_size: RequestPool::DEFAULT_SIZE,
        }
    }
}

impl FleetRunner {
    /// Sets the worker-thread budget. Results are byte-identical for every
    /// value; only wall-clock time changes.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Runs the fleet.
    ///
    /// # Errors
    /// As [`FleetPlan::validate`].
    pub fn run(&self, plan: &FleetPlan, seed: Seed) -> Result<FleetRunResult, FleetRunError> {
        self.run_inner(plan, seed, None)
    }

    /// [`FleetRunner::run`] with every trace event streamed into `rec`:
    /// per-request spans (client = global app index), per-app
    /// [`EventKind::AppClosed`] rollups, platform internals, and a single
    /// merged [`EventKind::RunClosed`]. Cells reach `rec` in cell order as
    /// they finish, so the run holds only the cells in flight. The
    /// returned result is identical to an unrecorded run's.
    ///
    /// # Errors
    /// As [`FleetPlan::validate`], checked before the first event: a run
    /// that fails records nothing.
    pub fn run_recorded(
        &self,
        plan: &FleetPlan,
        seed: Seed,
        rec: &mut dyn Recorder,
    ) -> Result<FleetRunResult, FleetRunError> {
        self.run_inner(plan, seed, Some(rec))
    }

    fn run_inner(
        &self,
        plan: &FleetPlan,
        seed: Seed,
        rec: Option<&mut dyn Recorder>,
    ) -> Result<FleetRunResult, FleetRunError> {
        plan.validate()?;
        let n_apps = plan.spec.apps.len();
        // Every cell runs on the run seed: per-app substreams are keyed by
        // global app index, so no draw depends on the cell an app lands in.
        let cells: Vec<Cell> = FleetPartition::compute(plan, FLEET_CELLS.min(n_apps))
            .cells
            .into_iter()
            .map(|clients| Cell::new(seed, clients))
            .collect();
        let mut rec = rec.filter(|r| r.enabled());
        let cell_outs = fan_out(
            self.workers,
            &cells,
            rec.as_deref_mut().map(|r| r as &mut dyn Recorder),
            "fleet/merge",
            |cell, cell_rec| self.run_cell(plan, cell, cell_rec),
        );

        // Stitch per-app results back into global app order.
        let mut apps: Vec<Option<AppOut>> = (0..n_apps).map(|_| None).collect();
        let mut engine_events = 0u64;
        for (cell_apps, cell_events) in cell_outs {
            engine_events += cell_events;
            for app in cell_apps {
                let g = app.0.app as usize;
                if apps[g].replace(app).is_some() {
                    return Err(FleetRunError::UnassignedApp { app: g as u32 });
                }
            }
        }
        let mut results = Vec::with_capacity(n_apps);
        let mut reports = Vec::with_capacity(n_apps);
        let mut latency = LogLinearHistogram::default();
        let mut requests = 0u64;
        for (g, app) in apps.into_iter().enumerate() {
            let (mut result, app_latency, report) =
                app.ok_or(FleetRunError::UnassignedApp { app: g as u32 })?;
            let spec = &plan.spec.apps[g];
            result.name = spec.name.clone();
            result.profile = spec.profile.clone();
            requests += result.requests;
            latency.merge(&app_latency);
            results.push(result);
            reports.push(report);
        }
        let platform = PlatformReport::merge_shards(&reports);

        if let Some(r) = rec {
            let end = RunEnd::new(plan.spec.duration, plan.timeout);
            close_trace(r, end, engine_events, requests);
        }

        Ok(FleetRunResult {
            name: plan.spec.name.clone(),
            duration: plan.spec.duration,
            requests,
            apps: results,
            platform,
            latency,
            engine_events,
        })
    }

    /// Runs one cell: the partition's member apps, each on its own
    /// platform, fed by the lazy merge of exactly those apps' arrival
    /// substreams. Returns one output per app in slot order (= ascending
    /// global index) and the cell's engine-event count.
    fn run_cell(
        &self,
        plan: &FleetPlan,
        cell: &Cell,
        rec: Option<&mut dyn Recorder>,
    ) -> (Vec<AppOut>, u64) {
        let _cell = ProfGuard::enter_root("fleet/cell");
        let (seed, globals) = (cell.seed, cell.clients.as_slice());
        let duration = plan.spec.duration;
        let end = RunEnd::new(duration, plan.timeout);

        // Global app index → cell slot, for mapping merged arrivals onto
        // this cell's apps without a search. Only this cell's members are
        // meaningful entries.
        let mut slot_of = vec![0u32; plan.spec.apps.len()];
        for (slot, &g) in globals.iter().enumerate() {
            slot_of[g as usize] = slot as u32;
        }

        // Per-app platforms, payloads, and counters. Pools are pure
        // functions of (input kind, size, samples): memoize per cell.
        let setup = ProfGuard::enter("fleet/setup");
        let mut pools: BTreeMap<(bool, u32), RequestPool> = BTreeMap::new();
        let mut apps = Vec::with_capacity(globals.len());
        for &g in globals {
            let dep = &plan.deployments[g as usize];
            let mut platform = dep
                .build(seed.substream_indexed("fleet-app", u64::from(g)))
                .expect("plan validated before the run");
            let expected = plan.spec.apps[g as usize]
                .process
                .expected_requests(duration);
            platform.reserve(expected.ceil() as usize + 8);
            let image = dep.model.profile().image_input;
            let kind = if image {
                InputKind::Image
            } else {
                InputKind::Text
            };
            let pool = pools
                .entry((image, dep.samples_per_request))
                .or_insert_with(|| {
                    RequestPool::generate(kind, self.pool_size)
                        .with_samples_per_request(dep.samples_per_request)
                });
            // One fixed payload per app: tenants re-send the same artifact.
            let payload = pool.pick(&mut seed.substream_indexed("app-payload", u64::from(g)).rng());
            apps.push(AppState {
                platform,
                payload_bytes: payload.size_bytes,
                inferences: dep.inference_repeats.max(1),
                net_in: self.network.transfer_time(payload.size_bytes),
                resolved: 0,
                latency: LogLinearHistogram::default(),
                result: AppResult {
                    app: g,
                    ..AppResult::default()
                },
            });
        }
        let stream = plan.spec.arrival_stream_for(seed, globals.iter().copied());
        drop(setup);

        let engine_guard = ProfGuard::enter("fleet/engine");
        let mut buffer: Vec<(SimDuration, PlatformEvent)> = Vec::new();
        let mut resp_scratch: Vec<ServingResponse> = Vec::new();
        let queue = EventQueue::with_capacity((globals.len() * 4 + ARRIVAL_BURST).max(64));
        let mut engine = Engine::with_queue(
            FleetSystem {
                apps,
                stream,
                slot_of,
                outstanding_arrivals: 0,
                io: PlatformIo {
                    buffer: &mut buffer,
                    resp_scratch: &mut resp_scratch,
                    rec: rec.map(|r| r as &mut dyn Recorder),
                },
                timeout: plan.timeout,
                response_net: self.network.response_time(),
            },
            queue,
        );

        // Platform startups at t = 0, then the first arrival burst. Every
        // later burst is pulled when the previous one's last arrival
        // fires: the queue holds at most ARRIVAL_BURST pending arrivals
        // per cell at any instant.
        let sys = &mut engine.system;
        for (slot, app) in sys.apps.iter_mut().enumerate() {
            let s = slot as u32;
            let wrap = |e| FleetEvent::Platform(s, e);
            sys.io
                .drive(&mut app.platform, &mut engine.queue, wrap, |p, sched| {
                    p.start(sched, end.workload_end);
                });
        }
        sys.refill_arrivals(&mut engine.queue);

        engine.run_until(end.horizon);
        engine.queue.advance_to(end.horizon);
        let engine_events = engine.events_processed();
        drop(engine_guard);

        // Teardown mirrors the single-app executor; anything still
        // unresolved at the horizon counts as a client timeout.
        let _resolve = ProfGuard::enter("fleet/resolve");
        let sys = &mut engine.system;
        let mut out_apps = Vec::with_capacity(sys.apps.len());
        for slot in 0..sys.apps.len() {
            sys.io.finish(&mut sys.apps[slot].platform, end.teardown);
            let mut pending = std::mem::take(sys.io.resp_scratch);
            for resp in pending.drain(..) {
                sys.resolve(slot, resp);
            }
            *sys.io.resp_scratch = pending;
            let a = &mut sys.apps[slot];
            let report = a.platform.report();
            let r = &mut a.result;
            r.timeout += r.requests - a.resolved;
            r.cold_starts = report.cold_started;
            r.p50_s = a.latency.quantile(50.0);
            r.p99_s = a.latency.quantile(99.0);
            r.cost_dollars = report.cost.total().as_dollars();
            if let Some(rec) = sys.io.rec.as_deref_mut() {
                rec.record(&TraceEvent {
                    at: end.horizon,
                    kind: EventKind::AppClosed {
                        app: r.app,
                        requests: r.requests,
                        cost_micro_dollars: report.cost.total().as_micro_dollars(),
                    },
                });
            }
            out_apps.push((std::mem::take(r), std::mem::take(&mut a.latency), report));
        }

        (out_apps, engine_events)
    }
}

/// What a cell hands back per app: its rollup (name and profile are
/// filled in at stitching), latency histogram and platform report.
type AppOut = (AppResult, LogLinearHistogram, PlatformReport);

/// Live state of one app inside a cell.
struct AppState {
    platform: Platform,
    payload_bytes: u64,
    inferences: u32,
    /// Request-path network time for this app's fixed payload.
    net_in: SimDuration,
    resolved: u64,
    latency: LogLinearHistogram,
    /// The app's counters, keyed by its global index.
    result: AppResult,
}

/// Events of the fleet engine.
#[derive(Debug, Clone)]
enum FleetEvent {
    /// A merged trace arrival fires for cell slot `.0`; handling it pulls
    /// and schedules the next merged arrival.
    Arrive(u32),
    /// An arrival's payload finishes its network transfer and reaches slot
    /// `.0`'s platform.
    Deliver(u32),
    /// A platform-internal event for slot `.0`.
    Platform(u32, PlatformEvent),
}

struct FleetSystem<'r> {
    /// Cell-local apps, slot order.
    apps: Vec<AppState>,
    /// Lazy k-way merge of this cell's arrival substreams.
    stream: slsb_workload::FleetArrivalStream,
    /// Global app index → this cell's slot (valid for members only).
    slot_of: Vec<u32>,
    /// Arrive events scheduled from the current burst and not yet fired;
    /// when it hits zero the next burst is pulled from the merge.
    outstanding_arrivals: u32,
    /// Platform scheduling buffer, drain scratch and trace sink.
    io: PlatformIo<'r>,
    /// Per-request client timeout.
    timeout: SimDuration,
    /// Response-path network time.
    response_net: SimDuration,
}

impl FleetSystem<'_> {
    /// Pulls up to [`ARRIVAL_BURST`] merged arrivals and feeds them to the
    /// kernel under consecutive sequence numbers, as one `schedule_many`
    /// call would number them. The merge yields nondecreasing times, so
    /// everything pulled here is at or after the queue's current instant
    /// and lands at the back of the queue's feed, in order.
    fn refill_arrivals<K: StoreKind>(&mut self, queue: &mut EventQueue<FleetEvent, K>) {
        self.outstanding_arrivals = 0;
        while (self.outstanding_arrivals as usize) < ARRIVAL_BURST {
            let Some((t, global)) = self.stream.next() else {
                break;
            };
            let slot = self.slot_of[global as usize];
            let seq = queue.reserve_seqs(1);
            queue.feed(t, seq, FleetEvent::Arrive(slot));
            self.outstanding_arrivals += 1;
        }
    }
    fn drain(&mut self, slot: usize) {
        if !self.io.drain(&mut self.apps[slot].platform) {
            return;
        }
        // Swap the scratch out so `resolve` can borrow `self` freely;
        // capacity is preserved across calls either way.
        let mut pending = std::mem::take(self.io.resp_scratch);
        for resp in pending.drain(..) {
            self.resolve(slot, resp);
        }
        *self.io.resp_scratch = pending;
    }

    /// Resolves one response against the client timeout and folds it into
    /// the app's counters (emitting a span when recording). The request id
    /// encodes the trace-arrival instant in microseconds, so end-to-end
    /// time needs no per-request bookkeeping.
    fn resolve(&mut self, slot: usize, resp: ServingResponse) {
        let arrival = SimTime::from_micros(resp.id.0);
        let receive = resp.completed_at + self.response_net;
        let e2e = receive.saturating_duration_since(arrival);
        let a = &mut self.apps[slot];
        a.resolved += 1;
        let outcome = if e2e > self.timeout {
            Outcome::Failure(FailureReason::ClientTimeout)
        } else {
            resp.outcome
        };
        match outcome {
            Outcome::Success => {
                a.result.ok += 1;
                a.latency.record(e2e.as_secs_f64());
            }
            Outcome::Failure(FailureReason::QueueFull) => a.result.queue_full += 1,
            Outcome::Failure(FailureReason::ClientTimeout) => a.result.timeout += 1,
            Outcome::Failure(FailureReason::Rejected) => a.result.rejected += 1,
            Outcome::Failure(FailureReason::Throttled) => a.result.throttled += 1,
            Outcome::Failure(FailureReason::Crashed) => a.result.crashed += 1,
            Outcome::Failure(FailureReason::RetriesExhausted) => a.result.timeout += 1,
        }
        if let Some(r) = self.io.rec.as_deref_mut() {
            if r.enabled() {
                let delivered = arrival + a.net_in;
                let exec = resp
                    .completed_at
                    .saturating_duration_since(delivered + resp.queued);
                r.record(&TraceEvent {
                    at: receive,
                    kind: EventKind::RequestSpan {
                        request: resp.id.0,
                        client: a.result.app,
                        invocation: resp.id.0,
                        arrival,
                        batch: SimDuration::ZERO,
                        net_in: a.net_in,
                        queued: resp.queued,
                        exec,
                        net_out: self.response_net,
                        cold: resp.cold_start.is_some(),
                        outcome: outcome.into(),
                    },
                });
            }
        }
    }
}

impl System for FleetSystem<'_> {
    type Ev = FleetEvent;

    fn handle<K: StoreKind>(
        &mut self,
        queue: &mut EventQueue<FleetEvent, K>,
        at: SimTime,
        ev: FleetEvent,
    ) {
        match ev {
            FleetEvent::Arrive(slot) => {
                let s = slot as usize;
                self.apps[s].result.requests += 1;
                queue.schedule_at(at + self.apps[s].net_in, FleetEvent::Deliver(slot));
                // When the burst drains, pull the next one: arrival-side
                // memory stays O(apps + burst), independent of the
                // request count.
                self.outstanding_arrivals -= 1;
                if self.outstanding_arrivals == 0 {
                    self.refill_arrivals(queue);
                }
            }
            FleetEvent::Deliver(slot) => {
                let s = slot as usize;
                let arrival =
                    SimTime::from_micros(at.as_micros() - self.apps[s].net_in.as_micros());
                let req = ServingRequest {
                    id: RequestId(arrival.as_micros()),
                    arrival: at,
                    payload_bytes: self.apps[s].payload_bytes,
                    inferences: self.apps[s].inferences,
                };
                let wrap = |e| FleetEvent::Platform(slot, e);
                let platform = &mut self.apps[s].platform;
                self.io
                    .drive(platform, queue, wrap, |p, sched| p.submit(sched, req));
                self.drain(s);
            }
            FleetEvent::Platform(slot, e) => {
                let s = slot as usize;
                let wrap = |e| FleetEvent::Platform(slot, e);
                let platform = &mut self.apps[s].platform;
                self.io
                    .drive(platform, queue, wrap, |p, sched| p.handle(sched, e));
                self.drain(s);
            }
        }
    }
}

/// Arrival-side allocations of a profiled fleet run, read off its profile
/// tree: the exclusive allocations of the engine's own `fleet/*` scopes
/// (per-app setup, the streaming arrival merge, the event loop and
/// teardown), leaving out their platform and kernel children and the
/// trace replay in `fleet/merge`. The lazy merge keeps this O(apps): flat
/// in the request count.
pub fn arrival_allocs(roots: &[ProfileNode]) -> u64 {
    slsb_sim::prof::exclusive_allocs_where(roots, &|l| {
        l.starts_with("fleet/") && l != "fleet/merge"
    })
}

/// Metrics rollup of a fleet run: fleet-wide counters plus per-app
/// distribution histograms (requests and cost over apps).
pub fn fleet_metrics(run: &FleetRunResult) -> MetricsRegistry {
    let _p = ProfGuard::enter("analyzer/fleet-metrics");
    let mut m = MetricsRegistry::new();
    m.inc("fleet_apps", run.apps.len() as u64);
    m.inc("requests_total", run.requests);
    m.inc("engine_events", run.engine_events);
    m.inc("cold_starts", run.platform.cold_started);
    m.inc("invocations", run.platform.invocations);
    for a in &run.apps {
        m.inc("requests_ok", a.ok);
        m.inc("requests_queue_full", a.queue_full);
        m.inc("requests_timeout", a.timeout);
        m.inc("requests_rejected", a.rejected);
        m.inc("requests_throttled", a.throttled);
        m.inc("requests_crashed", a.crashed);
        m.observe("app_requests", a.requests as f64);
        m.observe("app_cost_dollars", a.cost_dollars);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use slsb_model::{ModelKind, RuntimeKind};
    use slsb_obs::MemoryRecorder;
    use slsb_platform::PlatformKind;

    fn profile() -> Deployment {
        Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        )
    }

    fn scenario(apps: u32, rate: f64, secs: f64) -> FleetScenario {
        let mut profiles = BTreeMap::new();
        profiles.insert("edge".to_string(), profile());
        profiles.insert("bulk".to_string(), profile().with_memory_mb(4096.0));
        FleetScenario {
            name: "fleet-test".into(),
            seed: 11,
            fleet: FleetSource::Synth {
                apps,
                zipf_exponent: 1.1,
                total_rate: rate,
                mean_busy_s: 10.0,
                median_idle_s: 30.0,
                idle_sigma: 1.5,
                duration_s: secs,
            },
            profiles,
            timeout_s: 60.0,
            policy: None,
        }
    }

    #[test]
    fn empty_fleet_is_a_typed_error_not_a_panic() {
        // Scenario resolution rejects zero-app sources, but FleetPlan is
        // an open struct: a caller can hand the runner an empty plan
        // directly. The runner must refuse it with the typed error
        // instead of reporting a vacuous 100 % success.
        let plan = FleetPlan {
            spec: slsb_workload::FleetSpec {
                name: "empty".into(),
                duration: SimDuration::from_secs(60),
                apps: vec![],
            },
            deployments: vec![],
            timeout: SimDuration::from_secs(60),
            warnings: vec![],
        };
        let err = FleetRunner::default().run(&plan, Seed(1)).unwrap_err();
        assert!(matches!(err, FleetRunError::EmptyFleet), "{err}");
        assert!(err.to_string().contains("no apps"));
        let mut rec = MemoryRecorder::new();
        let err = FleetRunner::default()
            .run_recorded(&plan, Seed(1), &mut rec)
            .unwrap_err();
        assert!(matches!(err, FleetRunError::EmptyFleet), "{err}");
    }

    #[test]
    fn partition_covers_every_app_exactly_once() {
        let plan = scenario(100, 40.0, 200.0).resolve(None).expect("resolve");
        let part = FleetPartition::compute(&plan, FLEET_CELLS);
        assert_eq!(part.cells.len(), FLEET_CELLS);
        let mut seen = vec![0u32; 100];
        for cell in &part.cells {
            // Slot order within a cell is ascending global index — the
            // contract the stitch step relies on.
            assert!(cell.windows(2).all(|w| w[0] < w[1]));
            for &g in cell {
                seen[g as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "coverage {seen:?}");
    }

    #[test]
    fn partition_balances_zipf_weight() {
        // Under Zipf(1.1) popularity the old `app % cells` rule left the
        // head app's cell with ~head + tail/cells of the weight. LPT must
        // keep the heaviest cell within 2× the mean unless a single
        // indivisible head app already exceeds that (then the head cell
        // must hold exactly that app and nothing else).
        let plan = scenario(200, 100.0, 300.0).resolve(None).expect("resolve");
        let part = FleetPartition::compute(&plan, FLEET_CELLS);
        let b = part.balance();
        assert!(b.mean_cell > 0.0);
        assert!(
            b.is_balanced(),
            "max cell {} vs mean {} (max app {}) exceeds the balance gate",
            b.max_cell,
            b.mean_cell,
            b.max_app
        );
        // The modulo partition would fail this gate: its head cell holds
        // the head app plus a 1/cells share of the tail.
        let modulo_head: f64 = plan
            .spec
            .apps
            .iter()
            .enumerate()
            .filter(|(i, _)| i % FLEET_CELLS == 0)
            .map(|(_, a)| a.process.expected_requests(plan.spec.duration) + 1.0)
            .sum();
        assert!(
            modulo_head > b.max_cell,
            "modulo head cell {modulo_head} should be heavier than LPT max {}",
            b.max_cell
        );
    }

    #[test]
    fn partition_is_a_pure_function_of_the_plan() {
        let plan = scenario(60, 30.0, 180.0).resolve(None).expect("resolve");
        let a = FleetPartition::compute(&plan, FLEET_CELLS);
        let b = FleetPartition::compute(&plan, FLEET_CELLS);
        assert_eq!(a, b);
    }

    #[test]
    fn fleet_scenario_json_roundtrip() {
        let sc = scenario(40, 20.0, 120.0);
        let parsed = FleetScenario::from_json(&sc.to_json()).expect("roundtrip");
        assert_eq!(parsed, sc);
    }

    #[test]
    fn fleet_run_is_identical_across_worker_budgets() {
        // Plan-purity property over the whole worker-budget axis: the
        // partition is a function of the plan alone, so every budget in
        // 1/2/4/8 must produce byte-identical per-app results, counters,
        // platform rollups, and metrics snapshots. Two plan shapes so a
        // cells-vs-apps boundary (apps < FLEET_CELLS) is covered too.
        for (apps, rate, duration, seed) in [(40, 25.0, 150.0, 11), (9, 12.0, 90.0, 23)] {
            let plan = scenario(apps, rate, duration)
                .resolve(None)
                .expect("resolve");
            let seed = Seed(seed);
            let one = FleetRunner::default().run(&plan, seed).expect("run");
            assert!(one.requests > 0, "fleet produced no requests");
            let one_apps = serde_json::to_string(&one.apps).unwrap();
            let one_metrics = serde_json::to_string(&fleet_metrics(&one)).unwrap();
            for workers in [2, 4, 8] {
                let n = FleetRunner::default()
                    .with_workers(workers)
                    .run(&plan, seed)
                    .expect("run");
                assert_eq!(
                    one_apps,
                    serde_json::to_string(&n.apps).unwrap(),
                    "workers={workers}"
                );
                assert_eq!(one.requests, n.requests, "workers={workers}");
                assert_eq!(one.engine_events, n.engine_events, "workers={workers}");
                assert_eq!(
                    format!("{:?}", one.platform),
                    format!("{:?}", n.platform),
                    "workers={workers}"
                );
                assert_eq!(
                    one_metrics,
                    serde_json::to_string(&fleet_metrics(&n)).unwrap(),
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn fleet_recording_is_identical_across_worker_budgets() {
        let plan = scenario(24, 15.0, 90.0).resolve(None).expect("resolve");
        let seed = Seed(3);
        let mut rec1 = MemoryRecorder::new();
        FleetRunner::default()
            .run_recorded(&plan, seed, &mut rec1)
            .expect("run");
        assert!(!rec1.events().is_empty());
        for workers in [2, 4, 8] {
            let mut rec4 = MemoryRecorder::new();
            FleetRunner::default()
                .with_workers(workers)
                .run_recorded(&plan, seed, &mut rec4)
                .expect("run");
            assert_eq!(rec1.events(), rec4.events(), "workers={workers}");
        }
        let closes = rec1
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RunClosed { .. }))
            .count();
        assert_eq!(closes, 1, "exactly one merged RunClosed");
        let app_closes = rec1
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::AppClosed { .. }))
            .count();
        assert_eq!(app_closes, 24, "one AppClosed per app");
    }

    #[test]
    fn fleet_accounts_every_arrival() {
        let plan = scenario(16, 20.0, 120.0).resolve(None).expect("resolve");
        let seed = Seed(5);
        let run = FleetRunner::default().run(&plan, seed).expect("run");
        let expected = plan.spec.arrival_stream(seed).count() as u64;
        assert_eq!(run.requests, expected, "every merged arrival submitted");
        let resolved: u64 = run
            .apps
            .iter()
            .map(|a| a.ok + a.queue_full + a.timeout + a.rejected + a.throttled + a.crashed)
            .sum();
        assert_eq!(resolved, run.requests, "every request resolved somewhere");
        assert!(run.success_ratio() > 0.5, "fleet mostly succeeds");
    }

    #[test]
    fn fleet_metrics_rolls_up() {
        let plan = scenario(12, 10.0, 90.0).resolve(None).expect("resolve");
        let run = FleetRunner::default().run(&plan, Seed(2)).expect("run");
        let m = fleet_metrics(&run);
        assert_eq!(m.counter("fleet_apps"), 12);
        assert_eq!(m.counter("requests_total"), run.requests);
        assert!(m.histogram("app_requests").is_some());
    }

    #[test]
    fn trace_replay_applies_profile_hints() {
        let summary = TraceSummary {
            schema: slsb_workload::FLEET_TRACE_SCHEMA.to_string(),
            name: "hints".into(),
            bucket_s: 60.0,
            buckets: 2,
            apps: vec![slsb_workload::TraceApp {
                name: "a".into(),
                profile: "edge".into(),
                invocations: vec![3, 1],
                duration_ms_p50: Some(80.0),
                memory_mb_p50: Some(3072.0),
                artifact_mb: Some(25.0),
            }],
        };
        let mut profiles = BTreeMap::new();
        profiles.insert("edge".to_string(), profile());
        let sc = FleetScenario {
            name: "trace-test".into(),
            seed: 1,
            fleet: FleetSource::Trace {
                path: "raw.json".into(),
            },
            profiles,
            timeout_s: 60.0,
            policy: None,
        };
        let plan = sc.resolve(Some(&summary.to_json())).expect("resolve");
        assert_eq!(plan.deployments[0].memory_mb, 3072.0);
        assert!(plan.deployments[0].extra_download_mb >= 25.0);
        let run = FleetRunner::default().run(&plan, Seed(1)).expect("run");
        assert_eq!(run.requests, 4, "bucket replay is exact");
    }

    #[test]
    fn policy_less_profiles_warn_and_fleet_policy_silences() {
        let sc = scenario(8, 10.0, 60.0);
        let plan = sc.resolve(None).expect("resolve");
        // Both profiles ("bulk", "edge") pin no policy → one warning each,
        // in sorted profile order.
        assert_eq!(
            plan.warnings,
            vec![
                FleetWarning::ProfileWithoutPolicy {
                    profile: "bulk".into()
                },
                FleetWarning::ProfileWithoutPolicy {
                    profile: "edge".into()
                },
            ]
        );
        assert!(plan.warnings[0].to_string().contains("bulk"));

        // A fleet-wide policy silences the warning and lands on every app.
        let mut pinned = sc.clone();
        pinned.policy = PolicySet::by_name("hybrid_histogram");
        assert!(pinned.policy.is_some());
        let plan = pinned.resolve(None).expect("resolve");
        assert!(plan.warnings.is_empty());
        assert!(plan.deployments.iter().all(|d| d.policy == pinned.policy));

        // A profile-level policy also silences its own warning.
        let mut per_profile = sc.clone();
        for dep in per_profile.profiles.values_mut() {
            dep.policy = Some(PolicySet::default());
        }
        let plan = per_profile.resolve(None).expect("resolve");
        assert!(plan.warnings.is_empty());
    }

    #[test]
    fn fleet_policy_roundtrips_through_json() {
        let mut sc = scenario(4, 5.0, 30.0);
        sc.policy = PolicySet::by_name("fixed");
        let parsed = FleetScenario::from_json(&sc.to_json()).expect("roundtrip");
        assert_eq!(parsed, sc);
        assert_eq!(parsed.policy, sc.policy);
    }

    #[test]
    fn missing_trace_and_unknown_profile_are_errors() {
        let mut profiles = BTreeMap::new();
        profiles.insert("edge".to_string(), profile());
        let sc = FleetScenario {
            name: "t".into(),
            seed: 1,
            fleet: FleetSource::Trace {
                path: "raw.json".into(),
            },
            profiles,
            timeout_s: 60.0,
            policy: None,
        };
        assert!(matches!(
            sc.resolve(None),
            Err(FleetScenarioError::MissingTrace(_))
        ));
        let summary = TraceSummary {
            schema: slsb_workload::FLEET_TRACE_SCHEMA.to_string(),
            name: "x".into(),
            bucket_s: 60.0,
            buckets: 1,
            apps: vec![slsb_workload::TraceApp {
                name: "a".into(),
                profile: "nope".into(),
                invocations: vec![1],
                duration_ms_p50: None,
                memory_mb_p50: None,
                artifact_mb: None,
            }],
        };
        assert!(matches!(
            sc.resolve(Some(&summary.to_json())),
            Err(FleetScenarioError::UnknownProfile { .. })
        ));
    }
}
