//! The five benchmark workloads.
//!
//! Each workload builds its inputs once ([`prepare`], timed as set-up) and
//! then runs closed reps: one rep starts after the previous one finishes.
//! Arrivals inside a rep are open-loop in simulated time. A rep returns
//! digests of everything it produced, the simulated headline numbers, and
//! the work counts the layer budget multiplies unit costs by. Invariants
//! that must hold at any seed are checked inside the rep.

use crate::spans::Tracer;
use crate::speed::Timed;
use slsb_bench::experiments::{run_experiment, ReproConfig};
use slsb_core::{
    analyze, fleet_metrics, oracle_bound, run_metrics, trace_oracle, Deployment, Executor,
    ExecutorConfig, ExperimentId, FleetPlan, FleetRunResult, FleetRunner, FleetScenario,
    FleetSource, RetryPolicy, Scenario, TraceCache, WorkloadSpec,
};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_obs::{trace_view, JsonlRecorder};
use slsb_platform::PlatformKind;
use slsb_sim::{SampleSet, Seed, SimDuration, SimTime};
use slsb_workload::{AppProcess, MmppPreset, WorkloadTrace};
use std::collections::BTreeMap;
use std::io;

/// The fleet scenario `fleet_zipf`, `trace_record` and `trace_explore`
/// scale: 1000 apps, Zipf(1.1) popularity, on two serverless profiles.
const FLEET_ZIPF_JSON: &str = include_str!("../inputs/fleet_zipf.json");

/// The fault-injection scenario `faulted_retry` stretches: crashes, packet
/// loss, storage slowdown and a throttle on a bursty MMPP.
const FAULT_SMOKE_JSON: &str = include_str!("../inputs/fault_smoke.json");

/// The client retry policy `faulted_retry` runs under.
const RETRY_SPEC: &str = "attempts=3,base=0.2";

/// Digests of every workload's outputs at its default seed, written by
/// `slsb-benchmark bless`.
const GOLDEN: &str = include_str!("../golden/digests.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    PaperRepro,
    FleetZipf,
    FaultedRetry,
    TraceRecord,
    TraceExplore,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::PaperRepro,
        WorkloadId::FleetZipf,
        WorkloadId::FaultedRetry,
        WorkloadId::TraceRecord,
        WorkloadId::TraceExplore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::PaperRepro => "paper_repro",
            WorkloadId::FleetZipf => "fleet_zipf",
            WorkloadId::FaultedRetry => "faulted_retry",
            WorkloadId::TraceRecord => "trace_record",
            WorkloadId::TraceExplore => "trace_explore",
        }
    }

    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the committed digests were taken at.
    pub fn default_seed(self) -> u64 {
        match self {
            WorkloadId::PaperRepro => 127,
            WorkloadId::FleetZipf | WorkloadId::TraceRecord | WorkloadId::TraceExplore => 41,
            WorkloadId::FaultedRetry => 7,
        }
    }
}

/// Worker threads the parallel-efficiency probes compare against one:
/// two, capped at the machine's cores. The timed workloads run on one
/// worker — on a shared 2-vCPU host the second core's slowdowns land on a
/// two-worker run's critical path and double its rep times at random —
/// and parallel scaling is reported per layer instead.
pub fn parallel_workers() -> usize {
    2.min(nproc())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Input size: `Full` is what the benchmark measures, `Smoke` a tiny
/// version of the same shape for `--smoke` and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

// Every workload holds a fixed number of requests; the seed picks only the
// realization. The arrival processes are bursty and heavy-tailed, so a
// fixed duration would give one seed twice the requests of another (the
// paper presets range over 0.5-1.6x their mean across seeds, a 27 s fleet
// window over 0.9-3.2x), and wall time would measure the seed, not the
// code. Both generators are prefix-stable, so each workload ends its run
// just after the N-th arrival of a long enough horizon (see `Sizing`). The
// fleet workloads also fix which apps carry those requests (see
// `fleet_plan`).

// Except for `paper_repro`, which is the full reproduction, sizes keep a
// rep near half a second, so a run holds enough reps for its median to
// ride out a slow spell of the host.

/// `paper_repro`: requests in the W40+W120+W200 traces together. At full
/// size this is what `repro all` generates at its calibrated seed and scale
/// 1.0 (14 957 + 51 651 + 85 949, within 0.3% of the paper's counts), so
/// every seed runs the full reproduction over the paper's ~900 s horizon,
/// keep-alive expiry and the cold starts after it included.
pub fn repro_requests(size: Size) -> usize {
    match size {
        Size::Full => 152_557,
        Size::Smoke => 1_526,
    }
}

/// The committed output of `repro all` at its calibrated seed and scale
/// 1.0, which a `paper_repro` rep at that configuration must equal.
const FULL_REPORT: &str = include_str!("../../results/full_report.md");

/// `fleet_zipf`: requests across the 1000 apps.
pub fn fleet_requests(size: Size) -> u64 {
    match size {
        Size::Full => 1_000_000,
        Size::Smoke => 10_000,
    }
}

/// `trace_record` and `trace_explore`: requests in the recorded fleet.
pub fn trace_requests(size: Size) -> u64 {
    match size {
        Size::Full => 30_000,
        Size::Smoke => 3_000,
    }
}

/// `faulted_retry`: requests per deployment.
pub fn faulted_requests(size: Size) -> usize {
    match size {
        Size::Full => 120_000,
        Size::Smoke => 3_000,
    }
}

/// Generous horizon, in multiples of the time the N requests take at the
/// long-run rate. Realized counts fall at least 0.5x the long-run mean on
/// every seed probed, so four times always reaches N.
const HORIZON_FACTOR: f64 = 4.0;

/// Longest preset-duration scale `paper_repro` may stretch to: its full
/// size is about the presets' mean count at scale 1.0, so the same
/// generous factor.
const MAX_REPRO_SCALE: f64 = HORIZON_FACTOR;

/// The simulated headline numbers of one rep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSummary {
    pub p99_s: f64,
    pub success_ratio: f64,
    pub cost_usd: f64,
    pub cold_starts: u64,
}

/// What one rep produced.
#[derive(Debug, Clone, Default)]
pub struct RepOut {
    /// `(key, value)` digests of the rep's outputs.
    pub digests: Vec<(String, u64)>,
    pub sim: Option<SimSummary>,
    /// `(per-layer unit-cost metric, count)` pairs for the layer budget.
    pub work: Vec<(&'static str, f64)>,
    /// Each phase of a rep made of several (the 20 experiments of
    /// `paper_repro`), timed with the host's speed sampled before it;
    /// empty for a single-phase rep.
    pub phases: Vec<Timed>,
}

pub trait Workload {
    /// Runs one rep.
    fn rep(&mut self, t: &mut Tracer) -> Result<RepOut, String>;

    /// Work counts for the layer budget when a rep's outputs carry none:
    /// runs one extra rep under a counting instrument.
    fn counted_work(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

/// How much of its arrival process a workload's set-up generates.
///
/// Every workload holds a fixed number of requests. For the two whose
/// arrivals come from a seeded MMPP, the horizon that holds them differs by
/// seed, and finding it means generating well past it. That search exists
/// only because the benchmark fixes request counts, so it runs once per
/// run, untimed; the timed set-up then generates just that horizon, the
/// same work on every seed.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub size: Size,
    /// `paper_repro`: the preset-duration scale; `faulted_retry`: the MMPP
    /// duration in seconds; unused by the fleet workloads, which count
    /// their arrivals as they synthesize them.
    pub horizon: f64,
}

impl Sizing {
    pub fn find(id: WorkloadId, seed: u64, size: Size) -> Result<Sizing, String> {
        let horizon = match id {
            WorkloadId::PaperRepro => repro_scale(seed, repro_requests(size))?,
            WorkloadId::FaultedRetry => faulted_horizon_s(seed, faulted_requests(size))?,
            _ => 0.0,
        };
        Ok(Sizing { size, horizon })
    }
}

/// Builds a workload's inputs; this is what `setup_s` times.
pub fn prepare(
    id: WorkloadId,
    seed: u64,
    sizing: Sizing,
    t: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    let size = sizing.size;
    Ok(match id {
        WorkloadId::PaperRepro => Box::new(PaperRepro::prepare(seed, sizing, t)?),
        WorkloadId::FleetZipf => Box::new(FleetZipf {
            plan: fleet_plan(fleet_requests(size), t)?,
            seed,
        }),
        WorkloadId::FaultedRetry => Box::new(FaultedRetry::prepare(seed, sizing, t)?),
        WorkloadId::TraceRecord => Box::new(TraceRecord {
            plan: fleet_plan(trace_requests(size), t)?,
            seed,
        }),
        WorkloadId::TraceExplore => Box::new(TraceExplore::prepare(seed, size, t)?),
    })
}

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut sink = DigestSink::default();
    sink.absorb(bytes);
    sink.hash
}

/// An `io::Write` sink that keeps nothing: it counts bytes and folds them
/// into an FNV-1a digest.
pub struct DigestSink {
    pub bytes: u64,
    pub hash: u64,
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink {
            bytes: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl DigestSink {
    fn absorb(&mut self, buf: &[u8]) {
        for &b in buf {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.bytes += buf.len() as u64;
    }
}

impl io::Write for DigestSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.absorb(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Digest of a serializable output (a metrics registry).
fn json_digest<T: serde::Serialize>(value: &T) -> Result<u64, String> {
    serde_json::to_string(value)
        .map(|s| fnv1a(s.as_bytes()))
        .map_err(|e| e.to_string())
}

/// The committed digests, keyed by `(workload, key)`.
pub fn golden() -> Result<BTreeMap<(String, String), u64>, String> {
    parse_golden(GOLDEN)
}

pub fn parse_golden(text: &str) -> Result<BTreeMap<(String, String), u64>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [workload, key, hex] = parts[..] else {
            return Err(format!(
                "golden line {}: expected 'workload key hex'",
                i + 1
            ));
        };
        let value = u64::from_str_radix(hex, 16)
            .map_err(|_| format!("golden line {}: bad hex {hex:?}", i + 1))?;
        out.insert((workload.to_string(), key.to_string()), value);
    }
    Ok(out)
}

/// Renders digests in the golden-file format.
pub fn render_golden(id: WorkloadId, digests: &[(String, u64)]) -> String {
    digests
        .iter()
        .map(|(k, v)| format!("{} {k} {v:016x}\n", id.name()))
        .collect()
}

/// Checks a rep's digests against the committed ones: the same keys, with
/// the same values.
pub fn check_golden(
    id: WorkloadId,
    digests: &[(String, u64)],
    golden: &BTreeMap<(String, String), u64>,
) -> Result<(), String> {
    for (key, value) in digests {
        match golden.get(&(id.name().to_string(), key.clone())) {
            Some(g) if g == value => {}
            Some(g) => {
                return Err(format!(
                    "{}: digest {key} is {value:016x}, committed {g:016x}",
                    id.name()
                ))
            }
            None => return Err(format!("{}: no committed digest for {key}", id.name())),
        }
    }
    for (w, key) in golden.keys() {
        if w == id.name() && !digests.iter().any(|(k, _)| k == key) {
            return Err(format!("{w}: the rep produced no digest for {key}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// paper_repro

/// All 20 experiments of the paper reproduction, in `repro all` order.
pub struct PaperRepro {
    cfg: ReproConfig,
}

impl PaperRepro {
    /// Generates this seed's three presets, at the duration scale where
    /// they hold the target request count, into the process-wide trace
    /// cache, as the first experiment of `repro all` would.
    fn prepare(seed: u64, sizing: Sizing, t: &mut Tracer) -> Result<PaperRepro, String> {
        t.span("workload.mmpp.generate", |_| {
            let requests = repro_requests(sizing.size);
            let cfg = ReproConfig {
                seed,
                scale: sizing.horizon,
            };
            TraceCache::clear();
            let generated: usize = MmppPreset::ALL.iter().map(|&p| cfg.trace(p).len()).sum();
            if generated != requests {
                return Err(format!(
                    "seed {seed}: {generated} requests at scale {}, expected {requests}",
                    cfg.scale
                ));
            }
            Ok(PaperRepro { cfg })
        })
    }
}

/// The preset-duration scale closest to 1.0 at which the W40, W120 and
/// W200 traces of `seed` hold `requests` arrivals together. Any duration
/// past the N-th smallest arrival instant across the three and up to the
/// next one will do; at the calibrated seed 1.0 itself does, so that rep
/// is `repro all` exactly.
fn repro_scale(seed: u64, requests: usize) -> Result<f64, String> {
    let mut at: Vec<u64> = Vec::new();
    for p in MmppPreset::ALL {
        let trace = WorkloadSpec::Preset {
            which: p,
            scale: MAX_REPRO_SCALE,
        }
        .generate(Seed(seed).substream("workload"));
        at.extend(trace.arrivals().iter().map(|a| a.as_micros()));
    }
    if at.len() <= requests {
        return Err(format!(
            "seed {seed}: only {} requests within {MAX_REPRO_SCALE}x the preset duration",
            at.len()
        ));
    }
    at.sort_unstable();
    let (nth, next) = (at[requests - 1], at[requests]);
    let duration = MmppPreset::W40.spec().duration.as_micros();
    debug_assert!(MmppPreset::ALL
        .iter()
        .all(|p| p.spec().duration.as_micros() == duration));
    // Arrivals fall strictly before the scaled duration.
    Ok(if (nth + 1..=next).contains(&duration) {
        1.0
    } else {
        (nth + 1) as f64 / duration as f64
    })
}

/// The `repro all` report for `cfg`, byte for byte, plus one digest per
/// experiment. Each experiment is timed on its own: a rep lasts several
/// seconds, long enough for the host's speed to change within it.
fn paper_report(cfg: &ReproConfig, t: &mut Tracer) -> (String, Vec<(String, u64)>, Vec<Timed>) {
    let mut report = format!(
        "# slsbench repro — seed {}, scale {}\n\n",
        cfg.seed, cfg.scale
    );
    let mut digests = Vec::new();
    let mut phases = Vec::new();
    for id in ExperimentId::ALL {
        let (md, timed) = Timed::run(|| {
            t.span(&format!("bench.experiments.{}", id.slug()), |_| {
                run_experiment(id, cfg).to_markdown()
            })
        });
        phases.push(timed);
        digests.push((id.slug().to_string(), fnv1a(md.as_bytes())));
        report.push_str(&md);
        report.push('\n');
    }
    digests.push(("report".to_string(), fnv1a(report.as_bytes())));
    (report, digests, phases)
}

/// Largest error of the generated full-scale W40/W120/W200 request counts
/// against the paper's, in percent (Figure 4).
pub fn fig4_max_err_pct(seed: u64) -> f64 {
    MmppPreset::ALL
        .into_iter()
        .map(|p| {
            let n = WorkloadSpec::Preset {
                which: p,
                scale: 1.0,
            }
            .generate(Seed(seed).substream("workload"))
            .len() as f64;
            let paper = p.paper_request_count() as f64;
            (n - paper).abs() / paper * 100.0
        })
        .fold(0.0, f64::max)
}

impl Workload for PaperRepro {
    fn rep(&mut self, t: &mut Tracer) -> Result<RepOut, String> {
        let (report, digests, phases) = paper_report(&self.cfg, t);
        if self.cfg == ReproConfig::default() && report != FULL_REPORT {
            return Err("the report differs from results/full_report.md".to_string());
        }
        Ok(RepOut {
            digests,
            phases,
            ..RepOut::default()
        })
    }

    /// The experiments expose no counts, so one rep runs under the
    /// repository's profiler purely to count platform entries (its call
    /// counts are deterministic; its times are not used).
    fn counted_work(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        slsb_sim::prof::reset();
        slsb_sim::prof::enable(true);
        let out = self.rep(&mut Tracer::new(false));
        slsb_sim::prof::enable(false);
        out?;
        let mut calls: BTreeMap<String, u64> = BTreeMap::new();
        fn walk(n: &slsb_sim::ProfileNode, calls: &mut BTreeMap<String, u64>) {
            *calls.entry(n.label.clone()).or_default() += n.calls;
            for c in &n.children {
                walk(c, calls);
            }
        }
        for root in slsb_sim::prof::take() {
            walk(&root, &mut calls);
        }
        let get = |label: &str| calls.get(label).copied().unwrap_or(0) as f64;
        Ok(vec![
            (
                "platform.serverless.ns_per_event",
                get("platform/serverless"),
            ),
            ("platform.managedml.ns_per_event", get("platform/managedml")),
            ("platform.vmserver.ns_per_event", get("platform/vm")),
            ("platform.hybrid.ns_per_event", get("platform/hybrid")),
        ])
    }
}

// ---------------------------------------------------------------------------
// Fleet workloads

/// The fleet every fleet workload runs: the first `requests` arrivals of
/// the scenario's on/off synthesis at the scenario's own seed, replayed as
/// per-app one-second request counts and ended just after the last of
/// them. A run's seed draws the instants inside each second and all the
/// platforms' randomness, while every seed runs the same amount of work:
/// the on/off process itself wakes a different set of apps on every seed,
/// which swings a 30k-request trace's size by tens of percent and a
/// 1M-request fleet's peak heap by 10-15%.
pub fn fleet_plan(requests: u64, t: &mut Tracer) -> Result<FleetPlan, String> {
    let (mut plan, shape_seed) = t.span("core.fleet.resolve", |_| {
        let mut sc = FleetScenario::from_json(FLEET_ZIPF_JSON).map_err(|e| e.to_string())?;
        let FleetSource::Synth {
            total_rate,
            duration_s,
            ..
        } = &mut sc.fleet
        else {
            return Err("fleet scenario is not synthesized".to_string());
        };
        *duration_s = HORIZON_FACTOR * requests as f64 / *total_rate;
        let plan = sc.resolve(None).map_err(|e| e.to_string())?;
        Ok((plan, Seed(sc.seed)))
    })?;
    let second = SimDuration::from_secs(1);
    let mut counts: Vec<Vec<u32>> = vec![Vec::new(); plan.spec.apps.len()];
    let (n, last) = t.span("workload.fleet.arrivals", |_| {
        let mut n = 0;
        let mut last = SimTime::ZERO;
        for (at, app) in plan.spec.arrival_stream(shape_seed).take(requests as usize) {
            let c = &mut counts[app as usize];
            let b = (at.as_micros() / second.as_micros()) as usize;
            if c.len() <= b {
                c.resize(b + 1, 0);
            }
            c[b] += 1;
            (n, last) = (n + 1, at);
        }
        (n, last)
    });
    if n < requests {
        return Err(format!(
            "the fleet synthesis yields only {n} of {requests} arrivals"
        ));
    }
    plan.spec.duration = SimDuration::from_micros(last.as_micros() + 1);
    let buckets = plan.spec.duration.as_micros().div_ceil(second.as_micros()) as usize;
    for (app, mut counts) in plan.spec.apps.iter_mut().zip(counts) {
        counts.resize(buckets, 0);
        app.process = AppProcess::Buckets {
            bucket: second,
            counts,
        };
    }
    Ok(plan)
}

/// Per-app request conservation: every submitted request ends exactly one
/// way.
fn check_fleet(run: &FleetRunResult) -> Result<(), String> {
    let mut total = 0;
    for a in &run.apps {
        let ended = a.ok + a.queue_full + a.timeout + a.rejected + a.throttled + a.crashed;
        if ended != a.requests {
            return Err(format!(
                "app {}: {ended} resolved outcomes for {} requests",
                a.name, a.requests
            ));
        }
        total += a.requests;
    }
    if total != run.requests || total == 0 {
        return Err(format!(
            "fleet: apps sum to {total} of {} requests",
            run.requests
        ));
    }
    Ok(())
}

fn fleet_sim(run: &FleetRunResult) -> SimSummary {
    SimSummary {
        p99_s: run.latency.quantile(99.0).unwrap_or(0.0),
        success_ratio: run.success_ratio(),
        cost_usd: run.cost_dollars(),
        cold_starts: run.platform.cold_started,
    }
}

fn fleet_work(run: &FleetRunResult) -> Vec<(&'static str, f64)> {
    vec![
        ("platform.serverless.ns_per_event", run.engine_events as f64),
        ("workload.fleet.arrival_ns", run.requests as f64),
        ("obs.metrics.hist_record_ns", run.requests as f64),
    ]
}

/// 1000 serverless tenants through the streaming fleet engine, no recorder.
pub struct FleetZipf {
    plan: FleetPlan,
    seed: u64,
}

impl Workload for FleetZipf {
    fn rep(&mut self, t: &mut Tracer) -> Result<RepOut, String> {
        let run = t.span("core.fleet.run", |t| {
            let run = FleetRunner::default().run(&self.plan, Seed(self.seed));
            if let Ok(r) = &run {
                t.work(r.requests, r.engine_events, 0);
            }
            run.map_err(|e| e.to_string())
        })?;
        let metrics = t.span("core.fleet.metrics", |_| fleet_metrics(&run));
        check_fleet(&run)?;
        Ok(RepOut {
            digests: vec![("fleet_metrics".to_string(), json_digest(&metrics)?)],
            sim: Some(fleet_sim(&run)),
            work: fleet_work(&run),
            ..RepOut::default()
        })
    }
}

/// The fleet with every trace event serialized to JSONL into a sink that
/// only counts and digests bytes.
pub struct TraceRecord {
    plan: FleetPlan,
    seed: u64,
}

impl Workload for TraceRecord {
    fn rep(&mut self, t: &mut Tracer) -> Result<RepOut, String> {
        let mut sink = DigestSink::default();
        let (run, written) = t.span("core.fleet.run_recorded", |t| {
            let mut rec = JsonlRecorder::new(&mut sink);
            let run = FleetRunner::default()
                .run_recorded(&self.plan, Seed(self.seed), &mut rec)
                .map_err(|e| e.to_string())?;
            let written = rec.finish().map_err(|e| e.to_string())?;
            t.work(run.requests, run.engine_events, 0);
            Ok::<_, String>((run, written))
        })?;
        let metrics = t.span("core.fleet.metrics", |_| fleet_metrics(&run));
        check_fleet(&run)?;
        if written < run.requests {
            return Err(format!(
                "{written} trace events for {} requests, each of which emits a span",
                run.requests
            ));
        }
        let mut work = fleet_work(&run);
        work.push(("obs.recorder.ns_per_event", written as f64));
        Ok(RepOut {
            digests: vec![
                ("fleet_metrics".to_string(), json_digest(&metrics)?),
                ("trace".to_string(), sink.hash),
                ("trace_events".to_string(), written),
                ("trace_bytes".to_string(), sink.bytes),
            ],
            sim: Some(fleet_sim(&run)),
            work,
            ..RepOut::default()
        })
    }
}

/// The `slsb trace --apps 5` pipeline over a trace recorded once in set-up.
pub struct TraceExplore {
    text: String,
    /// Digest of `text`, taken once: the trace is an input, not an output.
    text_digest: u64,
    written: u64,
    requests: u64,
}

impl TraceExplore {
    fn prepare(seed: u64, size: Size, t: &mut Tracer) -> Result<TraceExplore, String> {
        let plan = fleet_plan(trace_requests(size), t)?;
        t.span("core.fleet.run_recorded", |_| {
            let mut buf = Vec::new();
            let mut rec = JsonlRecorder::new(&mut buf);
            let run = FleetRunner::default()
                .run_recorded(&plan, Seed(seed), &mut rec)
                .map_err(|e| e.to_string())?;
            let written = rec.finish().map_err(|e| e.to_string())?;
            Ok(TraceExplore {
                text_digest: fnv1a(&buf),
                text: String::from_utf8(buf).map_err(|e| e.to_string())?,
                written,
                requests: run.requests,
            })
        })
    }
}

impl Workload for TraceExplore {
    fn rep(&mut self, t: &mut Tracer) -> Result<RepOut, String> {
        let bytes = self.text.len() as u64;
        let events = t.span("obs.trace_view.parse", |t| {
            t.work(0, self.written, bytes);
            trace_view::parse_jsonl_strict(&self.text)
        })?;
        let n = events.len() as u64;
        if n != self.written {
            return Err(format!(
                "parsed {n} trace events, recorder wrote {}",
                self.written
            ));
        }
        match trace_view::run_closed(&events) {
            Some((_, requests)) if requests == self.requests => {}
            other => {
                return Err(format!(
                    "run_closed {other:?}, run had {} requests",
                    self.requests
                ))
            }
        }
        let rendered = t.span("obs.trace_view.render", |t| {
            t.work(0, n, 0);
            let mut out = trace_view::summary(&events);
            out += &trace_view::phase_attribution(&events);
            out += &trace_view::cold_start_breakdown(&events);
            out += &trace_view::fault_attribution(&events);
            out += &trace_view::waterfall(&events, 20);
            out += &trace_view::instance_timeline(&events, 20);
            out += &trace_view::app_breakdown(&events, 5);
            out
        });
        let oracle = t.span("core.oracle.trace", |t| {
            t.work(0, n, 0);
            trace_oracle(&events)
        });
        let oracle = oracle.ok_or("trace has no serverless executions")?;
        if oracle.cold_floor > oracle.cold_observed {
            return Err(format!(
                "trace oracle floor {} above {} observed cold starts",
                oracle.cold_floor, oracle.cold_observed
            ));
        }
        Ok(RepOut {
            digests: vec![
                ("trace".to_string(), self.text_digest),
                ("trace_events".to_string(), n),
                ("render".to_string(), fnv1a(rendered.as_bytes())),
                ("oracle_cold_floor".to_string(), oracle.cold_floor),
                ("oracle_cold_observed".to_string(), oracle.cold_observed),
            ],
            sim: None,
            work: vec![
                ("obs.trace_view.parse_mb_per_s", bytes as f64),
                ("obs.trace_view.render_s", 1.0),
                ("core.oracle.trace_ns_per_event", n as f64),
            ],
            ..RepOut::default()
        })
    }
}

// ---------------------------------------------------------------------------
// faulted_retry

/// The four deployments `faulted_retry` runs, one per platform family
/// except the hybrid.
pub fn faulted_deployments() -> [Deployment; 4] {
    let tf = |p| Deployment::new(p, ModelKind::MobileNet, RuntimeKind::Tf115);
    [
        Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        ),
        tf(PlatformKind::AwsManagedMl),
        tf(PlatformKind::AwsCpu),
        tf(PlatformKind::AwsGpu),
    ]
}

/// Unit-cost metric of a deployment's platform family.
fn family_metric(p: PlatformKind) -> &'static str {
    if p.is_serverless() {
        "platform.serverless.ns_per_event"
    } else if p.is_managed_ml() {
        "platform.managedml.ns_per_event"
    } else {
        "platform.vmserver.ns_per_event"
    }
}

/// The stretched fault scenario's trace and its sharded, retrying executor.
pub struct FaultedRetry {
    exec: Executor,
    trace: WorkloadTrace,
    seed: u64,
}

impl FaultedRetry {
    fn prepare(seed: u64, sizing: Sizing, t: &mut Tracer) -> Result<FaultedRetry, String> {
        let requests = faulted_requests(sizing.size);
        let (exec, trace) = faulted_inputs(seed, requests, sizing.horizon, 1, t)?;
        Ok(FaultedRetry { exec, trace, seed })
    }
}

/// The fault scenario with its MMPP's duration set by `duration_s`, which
/// is given the MMPP's long-run arrival rate.
fn fault_scenario(duration_s: impl FnOnce(f64) -> f64) -> Result<Scenario, String> {
    let mut sc = Scenario::from_json(FAULT_SMOKE_JSON).map_err(|e| e.to_string())?;
    let WorkloadSpec::Mmpp {
        rate_high,
        rate_low,
        dwell_high_s,
        dwell_low_s,
        duration_s: duration,
    } = &mut sc.workload
    else {
        return Err("fault scenario workload is not an MMPP".to_string());
    };
    let long_run_rate =
        (*rate_high * *dwell_high_s + *rate_low * *dwell_low_s) / (*dwell_high_s + *dwell_low_s);
    *duration = duration_s(long_run_rate);
    Ok(sc)
}

/// The fault scenario's MMPP duration, in seconds, that holds `requests`
/// arrivals at `seed`: the instant of the next arrival, found over a
/// generous horizon.
pub fn faulted_horizon_s(seed: u64, requests: usize) -> Result<f64, String> {
    let sc = fault_scenario(|rate| HORIZON_FACTOR * requests as f64 / rate)?;
    let full = sc
        .workload
        .generate(Seed(seed).substream("scenario-workload"));
    let next = full.arrivals().get(requests).ok_or(format!(
        "seed {seed}: fewer than {requests} fault-scenario arrivals"
    ))?;
    Ok(next.as_micros() as f64 / 1e6)
}

/// Parses the fault scenario and generates its MMPP as `Scenario::run`
/// would, over `duration_s` (see [`faulted_horizon_s`]) cut just after the
/// `requests`-th arrival; the executor carries the scenario's fault plan,
/// the retry policy and `shards` workers.
pub fn faulted_inputs(
    seed: u64,
    requests: usize,
    duration_s: f64,
    shards: usize,
    t: &mut Tracer,
) -> Result<(Executor, WorkloadTrace), String> {
    let sc = fault_scenario(|_| duration_s)?;
    sc.faults.validate().map_err(|e| e.to_string())?;
    let trace = t.span("workload.mmpp.generate", |_| {
        let full = sc
            .workload
            .generate(Seed(seed).substream("scenario-workload"));
        let arrivals = full.arrivals().get(..requests)?.to_vec();
        let end = SimDuration::from_micros(arrivals.last()?.as_micros() + 1);
        Some(WorkloadTrace::new(full.shared_name(), end, arrivals))
    });
    let trace = trace.ok_or(format!(
        "seed {seed}: fewer than {requests} fault-scenario arrivals"
    ))?;
    let cfg = ExecutorConfig {
        retry: RetryPolicy::parse_spec(RETRY_SPEC)?,
        ..sc.executor
    };
    let exec = Executor::new(cfg)
        .with_faults(sc.faults)
        .with_shards(shards);
    Ok((exec, trace))
}

impl Workload for FaultedRetry {
    fn rep(&mut self, t: &mut Tracer) -> Result<RepOut, String> {
        let mut latencies = SampleSet::new();
        let (mut total, mut ok, mut cost, mut cold) = (0u64, 0u64, 0.0, 0u64);
        let mut digests = Vec::new();
        let mut work: Vec<(&'static str, f64)> = Vec::new();
        for dep in faulted_deployments() {
            let run = t.span("core.executor.run", |t| {
                let run = self.exec.run(&dep, &self.trace, Seed(self.seed));
                if let Ok(r) = &run {
                    t.work(r.records.len() as u64, r.engine_events, 0);
                }
                run.map_err(|e| e.to_string())
            })?;
            let n = run.records.len() as u64;
            let a = t.span("core.analyzer.analyze", |t| {
                t.work(n, 0, 0);
                analyze(&run)
            });
            let bound = t.span("core.oracle.bound", |t| {
                t.work(n, 0, 0);
                oracle_bound(&run)
            });
            let metrics = t.span("core.analyzer.run_metrics", |t| {
                t.work(n, 0, 0);
                run_metrics(&run)
            });
            let label = dep.platform.label();
            let ended = a.succeeded
                + a.failed_queue_full
                + a.failed_timeout
                + a.failed_rejected
                + a.failed_throttled
                + a.failed_crashed
                + a.failed_retries;
            if ended != a.total || a.total != self.trace.len() as u64 {
                return Err(format!(
                    "{label}: {ended} resolved outcomes, {} records, {} requests",
                    a.total,
                    self.trace.len()
                ));
            }
            if bound.cold_starts > a.cold_started {
                return Err(format!(
                    "{label}: oracle floor {} above {} cold starts",
                    bound.cold_starts, a.cold_started
                ));
            }
            for r in run.successes() {
                if let Some(l) = r.latency {
                    latencies.push(l.as_secs_f64());
                }
            }
            total += a.total;
            ok += a.succeeded;
            cost += a.cost.total().as_dollars();
            cold += a.cold_started;
            digests.push((format!("run_metrics.{label}"), json_digest(&metrics)?));
            work.push((family_metric(dep.platform), run.engine_events as f64));
            for m in [
                "core.analyzer.ns_per_request",
                "core.analyzer.metrics_ns_per_request",
                "core.oracle.ns_per_request",
            ] {
                work.push((m, n as f64));
            }
        }
        Ok(RepOut {
            digests,
            sim: Some(SimSummary {
                p99_s: latencies.percentile(99.0).unwrap_or(0.0),
                success_ratio: ok as f64 / total.max(1) as f64,
                cost_usd: cost,
                cold_starts: cold,
            }),
            work,
            ..RepOut::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_file_parses_and_round_trips() {
        let g = golden().expect("committed golden file parses");
        for id in WorkloadId::ALL {
            assert!(
                g.keys().any(|(w, _)| w == id.name()),
                "no committed digests for {}",
                id.name()
            );
        }
        let digests = vec![("a".to_string(), 0xdead_beef_u64), ("b".to_string(), 1)];
        let text = render_golden(WorkloadId::FleetZipf, &digests);
        let back = parse_golden(&text).unwrap();
        assert!(check_golden(WorkloadId::FleetZipf, &digests, &back).is_ok());
        let mut wrong = digests.clone();
        wrong[1].1 = 2;
        assert!(check_golden(WorkloadId::FleetZipf, &wrong, &back).is_err());
        assert!(check_golden(WorkloadId::PaperRepro, &digests, &back).is_err());
        // A committed digest the rep no longer produces fails too.
        assert!(check_golden(WorkloadId::FleetZipf, &digests[..1], &back).is_err());
        assert!(parse_golden("only two").is_err());
    }

    #[test]
    fn the_calibrated_seed_runs_repro_all_at_scale_one() {
        let cfg = ReproConfig::default();
        let scale = repro_scale(cfg.seed, repro_requests(Size::Full)).unwrap();
        assert_eq!(scale, cfg.scale);
        assert!(FULL_REPORT.starts_with(&format!(
            "# slsbench repro — seed {}, scale {}\n",
            cfg.seed, cfg.scale
        )));
    }

    #[test]
    fn the_recorded_trace_is_the_same_in_both_trace_workloads() {
        // trace_explore parses exactly the bytes trace_record writes.
        let g = golden().unwrap();
        for key in ["trace", "trace_events"] {
            let get = |w: WorkloadId| g.get(&(w.name().to_string(), key.to_string())).copied();
            assert!(get(WorkloadId::TraceRecord).is_some());
            assert_eq!(
                get(WorkloadId::TraceRecord),
                get(WorkloadId::TraceExplore),
                "{key}"
            );
        }
    }

    #[test]
    fn digest_sink_matches_fnv1a() {
        use std::io::Write as _;
        let mut sink = DigestSink::default();
        sink.write_all(b"hello ").unwrap();
        sink.write_all(b"world").unwrap();
        assert_eq!(sink.hash, fnv1a(b"hello world"));
        assert_eq!(sink.bytes, 11);
        // FNV-1a reference value for the empty string.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
