//! The analyzer (paper Figure 3): turns raw run records into the paper's
//! three metrics — response latency, request success ratio, and cost —
//! plus the time series and cold-start breakdowns its figures plot.

use crate::executor::RunResult;
use crate::slo::{SloReport, SloSample};
use serde::{Deserialize, Serialize};
use slsb_obs::{LogLinearHistogram, MetricsRegistry};
use slsb_platform::{CostBreakdown, FailureReason, Outcome};
use slsb_sim::{ProfGuard, SampleSet, SimDuration, TimeSeries};

/// Aggregate latency statistics over successful requests (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of successful requests.
    pub count: u64,
    /// Mean latency.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

/// Mean cold-start sub-stage durations (seconds) — the paper's Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ColdStartStats {
    /// Successful requests that rode a cold start.
    pub cold_requests: u64,
    /// Mean end-to-end latency of cold requests.
    pub e2e_cold: Option<f64>,
    /// Mean end-to-end latency of warm requests.
    pub e2e_warm: Option<f64>,
    /// Mean sandbox boot time.
    pub boot: Option<f64>,
    /// Mean dependency-import time.
    pub import: Option<f64>,
    /// Mean model-download time.
    pub download: Option<f64>,
    /// Mean model-load time.
    pub load: Option<f64>,
    /// Mean predict time on cold requests (includes lazy init).
    pub predict_cold: Option<f64>,
    /// Mean predict time on warm requests.
    pub predict_warm: Option<f64>,
}

/// One bucket of the latency / success-ratio timelines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Bucket start, seconds into the workload.
    pub at: f64,
    /// Mean latency of successful requests arriving in the bucket.
    pub mean_latency: Option<f64>,
    /// Success ratio of requests arriving in the bucket.
    pub success_ratio: Option<f64>,
    /// Requests arriving in the bucket.
    pub requests: u64,
}

/// The analyzer's digest of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Analysis {
    /// Deployment label (e.g. `"AWS-Serverless/MobileNet/TF1.15"`).
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Total logical requests.
    pub total: u64,
    /// Successful requests.
    pub succeeded: u64,
    /// Failures rejected for a full platform backlog.
    pub failed_queue_full: u64,
    /// Failures from the client timeout.
    pub failed_timeout: u64,
    /// Other platform rejections.
    pub failed_rejected: u64,
    /// Failures from injected admission throttling or outage windows.
    pub failed_throttled: u64,
    /// Failures from injected instance / handler crashes.
    pub failed_crashed: u64,
    /// Failures after the client retry policy ran out of attempts.
    pub failed_retries: u64,
    /// Discrete faults the platform's injector fired during the run.
    pub faults: u64,
    /// Client-path faults (request packets lost in flight).
    pub client_faults: u64,
    /// Re-sends the client fleet issued beyond first attempts.
    pub retries: u64,
    /// The paper's success ratio (SR).
    pub success_ratio: f64,
    /// Latency aggregates over successes (absent when nothing succeeded).
    pub latency: Option<LatencyStats>,
    /// Latency / SR timeline in `bucket`-wide windows.
    pub series: Vec<SeriesPoint>,
    /// Cold-start breakdown (serverless runs).
    pub cold: ColdStartStats,
    /// Run cost.
    pub cost: CostBreakdown,
    /// Instances that went through the cold-start pipeline.
    pub cold_started: u64,
    /// Billed invocations (serverless).
    pub invocations: u64,
    /// Peak concurrent instances.
    pub peak_instances: i64,
    /// Fraction of instance lifetime spent doing useful work (`None` when
    /// no instance time was recorded).
    pub utilization: Option<f64>,
    /// Instance count over time: `(seconds, max instances in bucket)`.
    pub instance_series: Vec<(f64, i64)>,
}

/// Default timeline bucket width (the paper's timeline figures use a
/// seconds-scale x-axis over a 15-minute run).
pub const DEFAULT_BUCKET: SimDuration = SimDuration::from_secs(10);

/// Analyzes a run with the default 10 s timeline bucket.
pub fn analyze(run: &RunResult) -> Analysis {
    analyze_with_bucket(run, DEFAULT_BUCKET)
}

/// Analyzes a run with an explicit timeline bucket width.
///
/// # Panics
/// Panics if a record claims success without a latency — the executor
/// guarantees resolution, and analyzing a half-resolved log would silently
/// understate failures.
pub fn analyze_with_bucket(run: &RunResult, bucket: SimDuration) -> Analysis {
    let _p = ProfGuard::enter("analyzer");
    let mut latencies = SampleSet::new();
    let mut lat_series = TimeSeries::new(bucket);
    let mut ok_series = TimeSeries::new(bucket);
    let mut failed_queue_full = 0;
    let mut failed_timeout = 0;
    let mut failed_rejected = 0;
    let mut failed_throttled = 0;
    let mut failed_crashed = 0;
    let mut failed_retries = 0;

    let mut cold = ColdMeans::default();

    for r in &run.records {
        match r.outcome {
            Outcome::Success => {
                let lat = r
                    .latency
                    .expect("success without latency: unresolved record")
                    .as_secs_f64();
                latencies.push(lat);
                lat_series.add(r.arrival, lat);
                ok_series.add(r.arrival, 1.0);
                match r.cold_start {
                    Some(bd) => {
                        cold.e2e_cold.push(lat);
                        cold.boot.push_duration(bd.boot);
                        cold.import.push_duration(bd.import);
                        cold.download.push_duration(bd.download);
                        cold.load.push_duration(bd.load);
                        cold.predict_cold.push_duration(r.predict);
                    }
                    None => {
                        cold.e2e_warm.push(lat);
                        cold.predict_warm.push_duration(r.predict);
                    }
                }
            }
            Outcome::Failure(reason) => {
                ok_series.add(r.arrival, 0.0);
                match reason {
                    FailureReason::QueueFull => failed_queue_full += 1,
                    FailureReason::ClientTimeout => failed_timeout += 1,
                    FailureReason::Rejected => failed_rejected += 1,
                    FailureReason::Throttled => failed_throttled += 1,
                    FailureReason::Crashed => failed_crashed += 1,
                    FailureReason::RetriesExhausted => failed_retries += 1,
                }
            }
        }
    }

    let total = run.records.len() as u64;
    let succeeded = latencies.len() as u64;
    let latency = latency_stats(&mut latencies);

    // Iterate over the SR series: it covers every record, while the latency
    // series only has buckets up to the last *successful* request (zipping
    // the two would silently drop trailing all-failure buckets).
    let lat_buckets: Vec<_> = lat_series.iter().map(|(_, acc)| *acc).collect();
    let series = ok_series
        .iter()
        .enumerate()
        .map(|(i, (at, ok_acc))| SeriesPoint {
            at: at.as_secs_f64(),
            mean_latency: lat_buckets.get(i).and_then(|acc| acc.mean()),
            success_ratio: ok_acc.mean(),
            requests: ok_acc.count(),
        })
        .collect();

    let instance_series = run
        .platform
        .instances
        .bucket_maxima(bucket)
        .into_iter()
        .map(|(t, v)| (t.as_secs_f64(), v))
        .collect();

    Analysis {
        label: run.deployment.label(),
        workload: run.workload.to_string(),
        total,
        succeeded,
        failed_queue_full,
        failed_timeout,
        failed_rejected,
        failed_throttled,
        failed_crashed,
        failed_retries,
        faults: run.platform.faults,
        client_faults: run.client_faults,
        retries: run.retries,
        success_ratio: if total == 0 {
            1.0
        } else {
            succeeded as f64 / total as f64
        },
        latency,
        series,
        cold: ColdStartStats {
            cold_requests: cold.e2e_cold.count,
            e2e_cold: cold.e2e_cold.mean(),
            e2e_warm: cold.e2e_warm.mean(),
            boot: cold.boot.mean(),
            import: cold.import.mean(),
            download: cold.download.mean(),
            load: cold.load.mean(),
            predict_cold: cold.predict_cold.mean(),
            predict_warm: cold.predict_warm.mean(),
        },
        cost: run.platform.cost,
        cold_started: run.platform.cold_started,
        invocations: run.platform.invocations,
        peak_instances: run.platform.instances.peak(),
        utilization: run.platform.utilization(),
        instance_series,
    }
}

/// Distills a run into streaming metrics: outcome counters, a peak-instance
/// gauge, and log-linear latency histograms. Unlike [`Analysis`], the result
/// merges deterministically across replicas (see
/// [`MetricsRegistry::merge`]), which is how the parallel harness aggregates
/// per-worker observations without retaining every sample.
pub fn run_metrics(run: &RunResult) -> MetricsRegistry {
    let _p = ProfGuard::enter("analyzer/metrics");
    // Records feed local counters and histograms, which move into the
    // registry once at the end, so no record pays a key lookup. Each key
    // is created exactly when a per-record `inc`/`observe` would have
    // created it: an outcome counter once it counts, a histogram once it
    // is observed.
    let (mut ok, mut cold) = (0u64, 0u64);
    let mut failed = [0u64; FAILURE_REASONS.len()];
    let mut latency = LogLinearHistogram::default();
    let mut latency_cold = LogLinearHistogram::default();
    let mut latency_warm = LogLinearHistogram::default();
    let mut queued = LogLinearHistogram::default();
    let mut predict = LogLinearHistogram::default();
    for r in &run.records {
        match r.outcome {
            Outcome::Success => {
                ok += 1;
                let lat = r
                    .latency
                    .expect("success without latency: unresolved record")
                    .as_secs_f64();
                latency.record(lat);
                if r.cold_start.is_some() {
                    cold += 1;
                    latency_cold.record(lat);
                } else {
                    latency_warm.record(lat);
                }
                queued.record(r.queued.as_secs_f64());
                predict.record(r.predict.as_secs_f64());
            }
            Outcome::Failure(reason) => failed[reason as usize] += 1,
        }
    }
    let mut m = MetricsRegistry::new();
    m.inc("requests_total", run.records.len() as u64);
    if ok > 0 {
        m.inc("requests_ok", ok);
    }
    for reason in FAILURE_REASONS {
        if failed[reason as usize] > 0 {
            m.inc(failure_counter(reason), failed[reason as usize]);
        }
    }
    for (name, h, observed) in [
        ("latency_seconds", latency, ok),
        ("latency_cold_seconds", latency_cold, cold),
        ("latency_warm_seconds", latency_warm, ok - cold),
        ("queued_seconds", queued, ok),
        ("predict_seconds", predict, ok),
    ] {
        if observed > 0 {
            m.insert_histogram(name, h);
        }
    }
    m.inc("cold_starts", run.platform.cold_started);
    m.inc("invocations", run.platform.invocations);
    m.inc("engine_events", run.engine_events);
    m.inc("faults_total", run.platform.faults);
    m.inc("client_faults_total", run.client_faults);
    m.inc("retries_total", run.retries);
    m.gauge_max("peak_instances", run.platform.instances.peak());
    m
}

/// Every failure reason; `run_metrics` counts them in an array indexed
/// by `reason as usize`.
const FAILURE_REASONS: [FailureReason; 6] = [
    FailureReason::QueueFull,
    FailureReason::ClientTimeout,
    FailureReason::Rejected,
    FailureReason::Throttled,
    FailureReason::Crashed,
    FailureReason::RetriesExhausted,
];

/// The `run_metrics` counter that counts one failure reason.
fn failure_counter(reason: FailureReason) -> &'static str {
    match reason {
        FailureReason::QueueFull => "requests_queue_full",
        FailureReason::ClientTimeout => "requests_timeout",
        FailureReason::Rejected => "requests_rejected",
        FailureReason::Throttled => "requests_throttled",
        FailureReason::Crashed => "requests_crashed",
        FailureReason::RetriesExhausted => "requests_retries_exhausted",
    }
}

/// Per-request SLO samples for [`crate::slo::SloSpec::evaluate`]: one
/// entry per record, carrying tenant, outcome, and end-to-end latency
/// (zero for failures — only successes feed latency objectives).
pub fn slo_samples(run: &RunResult) -> Vec<SloSample> {
    run.records
        .iter()
        .map(|r| SloSample {
            client: r.client,
            ok: matches!(r.outcome, Outcome::Success),
            latency_s: r.latency.map_or(0.0, |l| l.as_secs_f64()),
        })
        .collect()
}

/// Folds a scored SLO into a metrics registry: objective counts plus the
/// per-objective error budget as a histogram, so `slsb diff` and the
/// `--metrics-out` snapshot carry attainment without a full report.
pub fn slo_metrics(m: &mut MetricsRegistry, report: &SloReport) {
    m.inc("slo_objectives_total", report.objectives.len() as u64);
    m.inc(
        "slo_objectives_attained",
        report.objectives.iter().filter(|o| o.attained).count() as u64,
    );
    for o in &report.objectives {
        m.observe("slo_budget_consumed", o.budget_consumed);
    }
}

/// Latency aggregates over the successes, `None` when nothing succeeded.
/// The mean and deviation are read before the percentile queries reorder
/// the samples, so they sum in arrival order.
fn latency_stats(latencies: &mut SampleSet) -> Option<LatencyStats> {
    Some(LatencyStats {
        count: latencies.len() as u64,
        mean: latencies.mean()?,
        std_dev: latencies.std_dev()?,
        p50: latencies.percentile(50.0)?,
        p95: latencies.percentile(95.0)?,
        p99: latencies.percentile(99.0)?,
        max: latencies.percentile(100.0)?,
    })
}

/// A running mean that adds in arrival order, as `Iterator::sum` does, so
/// over durations (never `-0.0`) it reads bit for bit what
/// [`SampleSet::mean`] reads over the same pushes, without retaining them.
#[derive(Default)]
struct Mean {
    sum: f64,
    count: u64,
}

impl Mean {
    fn push(&mut self, x: f64) {
        self.sum += x;
        self.count += 1;
    }

    fn push_duration(&mut self, d: SimDuration) {
        self.push(d.as_secs_f64());
    }

    fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// The running means behind [`ColdStartStats`].
#[derive(Default)]
struct ColdMeans {
    e2e_cold: Mean,
    e2e_warm: Mean,
    boot: Mean,
    import: Mean,
    download: Mean,
    load: Mean,
    predict_cold: Mean,
    predict_warm: Mean,
}

impl Analysis {
    /// Mean latency in seconds (`NaN`-free: `None` when nothing succeeded).
    pub fn mean_latency(&self) -> Option<f64> {
        self.latency.map(|l| l.mean)
    }

    /// Dollar cost of the run.
    pub fn cost_dollars(&self) -> f64 {
        self.cost.total().as_dollars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, ExecutorConfig, RequestRecord};
    use crate::plan::Deployment;
    use slsb_model::{ModelKind, RuntimeKind};
    use slsb_platform::{ColdStartBreakdown, PlatformKind};
    use slsb_sim::{Seed, SimRng, SimTime};
    use slsb_workload::MmppSpec;

    fn run_small(platform: PlatformKind, rate: f64) -> RunResult {
        let trace = MmppSpec {
            name: "analyzer-test",
            rate_high: rate,
            rate_low: rate / 4.0,
            mean_high_dwell: SimDuration::from_secs(20),
            mean_low_dwell: SimDuration::from_secs(40),
            duration: SimDuration::from_secs(150),
        }
        .generate(Seed(5));
        Executor::new(ExecutorConfig::default())
            .run(
                &Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115),
                &trace,
                Seed(5),
            )
            .unwrap()
    }

    #[test]
    fn counts_are_conserved() {
        let run = run_small(PlatformKind::AwsCpu, 80.0);
        let a = analyze(&run);
        assert_eq!(
            a.succeeded
                + a.failed_queue_full
                + a.failed_timeout
                + a.failed_rejected
                + a.failed_throttled
                + a.failed_crashed
                + a.failed_retries,
            a.total
        );
        assert!((a.success_ratio - a.succeeded as f64 / a.total as f64).abs() < 1e-12);
    }

    #[test]
    fn latency_stats_ordered() {
        let run = run_small(PlatformKind::AwsServerless, 20.0);
        let a = analyze(&run);
        let l = a.latency.expect("successes exist");
        assert!(l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.max);
        assert!(l.mean > 0.0 && l.std_dev >= 0.0);
    }

    #[test]
    fn serverless_run_reports_cold_breakdown() {
        let run = run_small(PlatformKind::AwsServerless, 20.0);
        let a = analyze(&run);
        assert!(a.cold.cold_requests > 0);
        assert!(a.cold.e2e_cold.unwrap() > a.cold.e2e_warm.unwrap());
        assert!(a.cold.import.unwrap() > 1.0, "TF import dominates");
        assert!(a.cold.predict_cold.unwrap() > a.cold.predict_warm.unwrap());
        assert!(a.cold_started > 0);
        assert!(a.invocations > 0);
    }

    #[test]
    fn series_covers_run_and_counts_match() {
        let run = run_small(PlatformKind::AwsServerless, 20.0);
        let a = analyze(&run);
        assert!(!a.series.is_empty());
        let series_total: u64 = a.series.iter().map(|p| p.requests).sum();
        assert_eq!(series_total, a.total);
        for p in &a.series {
            if let Some(sr) = p.success_ratio {
                assert!((0.0..=1.0).contains(&sr));
            }
        }
    }

    #[test]
    fn vm_run_has_no_cold_starts_but_costs_rental() {
        let run = run_small(PlatformKind::AwsGpu, 30.0);
        let a = analyze(&run);
        assert_eq!(a.cold.cold_requests, 0);
        assert_eq!(a.cold_started, 0);
        assert!(a.cost_dollars() > 0.0);
        assert_eq!(a.peak_instances, 1);
        // A lightly loaded GPU box is mostly idle.
        let util = a.utilization.expect("instance time recorded");
        assert!(util > 0.0 && util < 0.6, "utilization {util}");
    }

    #[test]
    fn serverless_utilization_reported() {
        let run = run_small(PlatformKind::AwsServerless, 20.0);
        let a = analyze(&run);
        let util = a.utilization.expect("instance time recorded");
        assert!((0.0..=1.0).contains(&util));
    }

    #[test]
    fn all_failure_tail_buckets_stay_in_the_series() {
        // Regression: a run whose trailing buckets contain only failures
        // must still report those buckets (the latency series is shorter
        // than the SR series there).
        use slsb_platform::{CloudProvider, Platform, VmServerConfig};
        let trace = MmppSpec {
            name: "tail-failures",
            rate_high: 50.0,
            rate_low: 50.0,
            mean_high_dwell: SimDuration::from_secs(30),
            mean_low_dwell: SimDuration::from_secs(30),
            duration: SimDuration::from_secs(120),
        }
        .generate(Seed(3));
        // A one-slot queue rejects essentially everything after the first
        // request, so late buckets are failure-only.
        let mut cfg = VmServerConfig::cpu(
            CloudProvider::Aws,
            ModelKind::Vgg.profile(),
            RuntimeKind::Tf115.profile(),
        );
        cfg.queue_capacity = 1;
        let dep = Deployment::new(PlatformKind::AwsCpu, ModelKind::Vgg, RuntimeKind::Tf115);
        let run = Executor::default().run_built(&dep, Platform::vm(cfg, Seed(3)), &trace, Seed(3));
        let a = analyze(&run);
        let series_total: u64 = a.series.iter().map(|p| p.requests).sum();
        assert_eq!(series_total, a.total, "series must cover every request");
        let last = a.series.last().expect("non-empty series");
        assert!(last.mean_latency.is_none() || last.success_ratio.unwrap() < 1.0);
    }

    #[test]
    fn slo_samples_and_metrics_cover_every_record() {
        let run = run_small(PlatformKind::AwsServerless, 20.0);
        let samples = slo_samples(&run);
        assert_eq!(samples.len(), run.records.len());
        assert!(samples.iter().any(|s| s.ok && s.latency_s > 0.0));

        let spec = crate::slo::SloSpec::parse("p99=600.0,sr=0.01").unwrap();
        let report = spec.evaluate(&samples, Some(run.platform.cost.total().as_dollars()));
        assert!(report.attained, "{report:?}");

        let mut m = run_metrics(&run);
        slo_metrics(&mut m, &report);
        assert_eq!(m.counter("slo_objectives_total"), 2);
        assert_eq!(m.counter("slo_objectives_attained"), 2);
        assert_eq!(m.histogram("slo_budget_consumed").unwrap().count(), 2);
    }

    /// The stats a retained, stably sorted sample set reports: the
    /// reference the selection percentiles and running means must match.
    fn reference_stats(run: &RunResult) -> (Option<LatencyStats>, ColdStartStats) {
        fn mean(xs: &[f64]) -> Option<f64> {
            (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
        }
        fn rank(sorted: &[f64], q: f64) -> f64 {
            let n = sorted.len();
            let idx = if q == 0.0 {
                0
            } else {
                ((q / 100.0 * n as f64).ceil() as usize).max(1) - 1
            };
            sorted[idx.min(n - 1)]
        }
        let secs = |d: SimDuration| d.as_secs_f64();
        let ok: Vec<_> = run.successes().collect();
        let lat: Vec<f64> = ok.iter().map(|r| secs(r.latency.unwrap())).collect();
        let latency = mean(&lat).map(|m| {
            let var = lat.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / lat.len() as f64;
            let mut sorted = lat.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            LatencyStats {
                count: lat.len() as u64,
                mean: m,
                std_dev: var.sqrt(),
                p50: rank(&sorted, 50.0),
                p95: rank(&sorted, 95.0),
                p99: rank(&sorted, 99.0),
                max: rank(&sorted, 100.0),
            }
        });
        let (cold, warm): (Vec<&RequestRecord>, Vec<_>) =
            ok.iter().partition(|r| r.cold_start.is_some());
        let stage = |f: fn(&ColdStartBreakdown) -> SimDuration| {
            let xs: Vec<f64> = cold
                .iter()
                .map(|r| secs(f(&r.cold_start.unwrap())))
                .collect();
            mean(&xs)
        };
        let cold_lat: Vec<f64> = cold.iter().map(|r| secs(r.latency.unwrap())).collect();
        let warm_lat: Vec<f64> = warm.iter().map(|r| secs(r.latency.unwrap())).collect();
        let cold_pred: Vec<f64> = cold.iter().map(|r| secs(r.predict)).collect();
        let warm_pred: Vec<f64> = warm.iter().map(|r| secs(r.predict)).collect();
        let stats = ColdStartStats {
            cold_requests: cold.len() as u64,
            e2e_cold: mean(&cold_lat),
            e2e_warm: mean(&warm_lat),
            boot: stage(|b| b.boot),
            import: stage(|b| b.import),
            download: stage(|b| b.download),
            load: stage(|b| b.load),
            predict_cold: mean(&cold_pred),
            predict_warm: mean(&warm_pred),
        };
        (latency, stats)
    }

    fn latency_bits(l: &Option<LatencyStats>) -> Option<(u64, [u64; 6])> {
        l.map(|l| {
            let f = [l.mean, l.std_dev, l.p50, l.p95, l.p99, l.max];
            (l.count, f.map(f64::to_bits))
        })
    }

    fn cold_bits(c: &ColdStartStats) -> (u64, [Option<u64>; 8]) {
        let f = [
            c.e2e_cold,
            c.e2e_warm,
            c.boot,
            c.import,
            c.download,
            c.load,
            c.predict_cold,
            c.predict_warm,
        ];
        (c.cold_requests, f.map(|x| x.map(f64::to_bits)))
    }

    /// A run of `n` synthetic records: `value` draws each duration in
    /// microseconds; a few records fail and about a third ride a cold start.
    fn synthetic_run(
        template: &RunResult,
        n: usize,
        seed: u64,
        value: &dyn Fn(&mut SimRng) -> u64,
    ) -> RunResult {
        let mut rng = Seed(seed).rng();
        let base = template.records[0].clone();
        let d = |rng: &mut SimRng| SimDuration::from_micros(value(rng));
        let records = (0..n)
            .map(|i| {
                let failed = i % 7 == 3;
                RequestRecord {
                    index: i,
                    arrival: SimTime::from_micros(i as u64 * 20_000),
                    outcome: if failed {
                        Outcome::Failure(FailureReason::ClientTimeout)
                    } else {
                        Outcome::Success
                    },
                    latency: (!failed).then(|| d(&mut rng)),
                    cold_start: rng.chance(0.3).then(|| ColdStartBreakdown {
                        boot: d(&mut rng),
                        import: d(&mut rng),
                        download: d(&mut rng),
                        load: d(&mut rng),
                    }),
                    predict: d(&mut rng),
                    ..base.clone()
                }
            })
            .collect();
        RunResult {
            records,
            ..template.clone()
        }
    }

    #[test]
    fn selection_and_running_means_match_a_sorted_reference_bit_for_bit() {
        let template = run_small(PlatformKind::AwsServerless, 20.0);
        let wide = |rng: &mut SimRng| 1 + (rng.uniform() * 5e6) as u64;
        let ties = |rng: &mut SimRng| [12_345, 67_890, 250_001][rng.index(3)];
        let equal = |_: &mut SimRng| 98_765;
        let draws: [(&str, &dyn Fn(&mut SimRng) -> u64); 3] =
            [("wide", &wide), ("ties", &ties), ("equal", &equal)];
        for n in [1, 2, 3, 100, 10_001] {
            for (name, value) in draws {
                let mut run = synthetic_run(&template, n, n as u64, value);
                let mut rng = Seed(n as u64).substream("shuffle").rng();
                for pass in 0..3 {
                    let a = analyze(&run);
                    let (latency, cold) = reference_stats(&run);
                    let case = format!("n={n} {name} pass={pass}");
                    assert_eq!(latency_bits(&a.latency), latency_bits(&latency), "{case}");
                    assert_eq!(cold_bits(&a.cold), cold_bits(&cold), "{case}");
                    // Fisher–Yates: same multiset, another arrival order.
                    for i in (1..run.records.len()).rev() {
                        run.records.swap(i, rng.index(i + 1));
                    }
                }
            }
        }
    }

    #[test]
    fn empty_run_analyzes_cleanly() {
        let trace = slsb_workload::WorkloadTrace::new("empty", SimDuration::from_secs(5), vec![]);
        let run = Executor::default()
            .run(
                &Deployment::new(
                    PlatformKind::AwsServerless,
                    ModelKind::MobileNet,
                    RuntimeKind::Tf115,
                ),
                &trace,
                Seed(1),
            )
            .unwrap();
        let a = analyze(&run);
        assert_eq!(a.total, 0);
        assert_eq!(a.success_ratio, 1.0);
        assert!(a.latency.is_none());
    }
}
