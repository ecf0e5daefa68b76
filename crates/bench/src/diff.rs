//! `slsb diff`: regression comparison between two artifacts of the same
//! kind — trace JSONL, metrics snapshots, profiles, or bench reports.
//!
//! The diff is the CI-facing half of the observability story: every
//! artifact the toolchain emits (`slsb run --record/--metrics-out/
//! --profile`, `slsb bench`) can be compared against a committed baseline
//! with one command, and a thresholded regression turns into a nonzero
//! exit code that `verify.sh` can gate on. Thresholds are deliberately
//! loose (latency +10 %, throughput −20 %, …): the point is to catch
//! step-function regressions deterministically, not to flake on noise.

use slsb_obs::trace_view::{parse_jsonl_strict, spans};
use slsb_obs::{MetricsRegistry, Profile, TraceEvent};
use slsb_sim::SampleSet;
use std::fmt::Write as _;

use serde::Deserialize;

/// What kind of artifact a file turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Trace JSONL (one `TraceEvent` per line).
    Trace,
    /// A `MetricsRegistry` snapshot (`slsb run --metrics-out`).
    Metrics,
    /// A `slsb-profile/v1` document (`slsb run --profile`).
    Profile,
    /// A `slsb-bench-kernel/v*` report (`BENCH_kernel.json`).
    Bench,
}

impl ArtifactKind {
    fn name(self) -> &'static str {
        match self {
            ArtifactKind::Trace => "trace",
            ArtifactKind::Metrics => "metrics",
            ArtifactKind::Profile => "profile",
            ArtifactKind::Bench => "bench",
        }
    }
}

/// How one indicator is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// Regress when `b > a * (1 + frac)` (and the change is visible).
    RelIncrease(f64),
    /// Regress when `b < a * (1 - frac)`.
    RelDecrease(f64),
    /// Regress when `b < a - abs` (absolute drop, e.g. ratios).
    AbsDrop(f64),
    /// Regress when `b > a + abs` (absolute rise, e.g. time shares).
    AbsRise(f64),
    /// Regress when `b > a * (1 + frac)` AND `b >= a + 1` (counts: the
    /// relative gate alone would flake near zero).
    CountIncrease(f64),
    /// Never regresses; shown for context only.
    Info,
}

/// One compared quantity.
#[derive(Debug, Clone)]
pub struct Indicator {
    /// What is being compared (e.g. `latency_p99_s`).
    pub name: String,
    /// Baseline value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
    /// Human-readable threshold, e.g. `+10%`.
    pub threshold: String,
    /// Whether the candidate crossed the threshold.
    pub regressed: bool,
}

/// The result of diffing two artifacts.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The (common) artifact kind.
    pub kind: ArtifactKind,
    /// Every compared indicator, in a stable order.
    pub indicators: Vec<Indicator>,
    /// How many indicators regressed.
    pub regressions: usize,
}

fn judge(name: &str, a: f64, b: f64, rule: Rule) -> Indicator {
    // Tiny epsilon so a == b never trips a relative rule through float
    // noise introduced by formatting round-trips.
    const EPS: f64 = 1e-12;
    let (regressed, threshold) = match rule {
        Rule::RelIncrease(f) => (b > a * (1.0 + f) + EPS, format!("+{:.0}%", f * 100.0)),
        Rule::RelDecrease(f) => (b < a * (1.0 - f) - EPS, format!("-{:.0}%", f * 100.0)),
        Rule::AbsDrop(x) => (b < a - x - EPS, format!("-{x}")),
        Rule::AbsRise(x) => (b > a + x + EPS, format!("+{x}")),
        Rule::CountIncrease(f) => (
            b > a * (1.0 + f) + EPS && b + EPS >= a + 1.0,
            format!("+{:.0}% & +1", f * 100.0),
        ),
        Rule::Info => (false, "-".to_string()),
    };
    Indicator {
        name: name.to_string(),
        a,
        b,
        threshold,
        regressed,
    }
}

impl DiffReport {
    /// Whether the candidate regressed on any indicator.
    pub fn regressed(&self) -> bool {
        self.regressions > 0
    }

    /// Renders the report as an aligned table with a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "kind: {}", self.kind.name());
        let _ = writeln!(
            out,
            "  {:<34} {:>14} {:>14} {:>10} {:>9}  status",
            "indicator", "baseline", "candidate", "delta", "threshold"
        );
        for i in &self.indicators {
            let delta = i.b - i.a;
            let status = if i.regressed { "REGRESSED" } else { "ok" };
            let _ = writeln!(
                out,
                "  {:<34} {:>14.6} {:>14.6} {:>+10.4} {:>9}  {}",
                i.name, i.a, i.b, delta, i.threshold, status
            );
        }
        if self.regressions == 0 {
            let _ = writeln!(out, "verdict: OK ({} indicators)", self.indicators.len());
        } else {
            let _ = writeln!(
                out,
                "verdict: REGRESSED ({}/{} indicators)",
                self.regressions,
                self.indicators.len()
            );
        }
        out
    }
}

/// Minimal deserializable mirror of `BenchReport` — the committed report
/// type is `Serialize`-only, and the diff only needs headline rows.
#[derive(Debug, Deserialize)]
struct BenchDoc {
    schema: String,
    #[serde(default = "Default::default")]
    schedule_pop: Vec<BenchRow>,
    #[serde(default = "Default::default")]
    end_to_end: Vec<EndRow>,
    #[serde(default = "Default::default")]
    kernel_speedup: f64,
    #[serde(default = "Default::default")]
    end_to_end_speedup: f64,
    #[serde(default = "Default::default")]
    allocs_per_request: f64,
}

#[derive(Debug, Deserialize)]
struct BenchRow {
    kernel: String,
    pattern: String,
    events_per_sec: f64,
}

#[derive(Debug, Deserialize)]
struct EndRow {
    kernel: String,
    preset: String,
    mode: String,
    events_per_sec: f64,
}

/// Probe for any single-document artifact that carries a `schema` field.
#[derive(Debug, Deserialize)]
struct SchemaProbe {
    schema: String,
}

/// Detects what kind of artifact `text` is, by attempting the typed
/// parses in a fixed order.
///
/// # Errors
/// Fails when the text matches no known artifact shape.
pub fn detect(text: &str) -> Result<ArtifactKind, String> {
    classify(text).map(|artifact| artifact.kind())
}

/// What [`detect`] found, with a trace's events kept so that a trace is
/// parsed once.
enum Artifact {
    Trace(Vec<TraceEvent>),
    Metrics,
    Profile,
    Bench,
}

impl Artifact {
    fn kind(&self) -> ArtifactKind {
        match self {
            Artifact::Trace(_) => ArtifactKind::Trace,
            Artifact::Metrics => ArtifactKind::Metrics,
            Artifact::Profile => ArtifactKind::Profile,
            Artifact::Bench => ArtifactKind::Bench,
        }
    }
}

fn classify(text: &str) -> Result<Artifact, String> {
    if let Ok(probe) = serde_json::from_str::<SchemaProbe>(text) {
        if probe.schema.starts_with("slsb-profile/") {
            return Ok(Artifact::Profile);
        }
        if probe.schema.starts_with("slsb-bench") {
            return Ok(Artifact::Bench);
        }
        return Err(format!("unrecognized artifact schema `{}`", probe.schema));
    }
    if serde_json::from_str::<MetricsRegistry>(text).is_ok() {
        return Ok(Artifact::Metrics);
    }
    if let Ok(events) = parse_jsonl_strict(text) {
        return Ok(Artifact::Trace(events));
    }
    Err(
        "unrecognized artifact: expected trace JSONL, a metrics snapshot, \
         a profile, or a bench report"
            .to_string(),
    )
}

/// Diffs two artifacts (as raw file text) of the same kind.
///
/// # Errors
/// Fails when either file is unparseable or the kinds differ.
pub fn diff(text_a: &str, text_b: &str) -> Result<DiffReport, String> {
    let a = classify(text_a).map_err(|e| format!("baseline: {e}"))?;
    let b = classify(text_b).map_err(|e| format!("candidate: {e}"))?;
    let kind = a.kind();
    let indicators = match (a, b) {
        (Artifact::Trace(a), Artifact::Trace(b)) => diff_traces(&a, &b)?,
        (Artifact::Metrics, Artifact::Metrics) => diff_metrics(text_a, text_b)?,
        (Artifact::Profile, Artifact::Profile) => diff_profiles(text_a, text_b)?,
        (Artifact::Bench, Artifact::Bench) => diff_benches(text_a, text_b)?,
        (a, b) => {
            return Err(format!(
                "artifact kinds differ: baseline is {}, candidate is {}",
                a.kind().name(),
                b.kind().name()
            ))
        }
    };
    let regressions = indicators.iter().filter(|i| i.regressed).count();
    Ok(DiffReport {
        kind,
        indicators,
        regressions,
    })
}

/// Headline numbers extracted from one trace.
struct TraceStats {
    requests: f64,
    success_ratio: f64,
    p50_s: f64,
    p99_s: f64,
    cold: f64,
}

fn trace_stats(events: &[TraceEvent]) -> Result<TraceStats, String> {
    let all = spans(events);
    if all.is_empty() {
        return Err("trace has no request spans to compare".to_string());
    }
    let ok: Vec<_> = all.iter().filter(|s| s.outcome.is_success()).collect();
    let mut lat = SampleSet::new();
    for s in &ok {
        lat.push(s.total().as_secs_f64());
    }
    let p50_s = lat.percentile(50.0).unwrap_or(0.0);
    let p99_s = lat.percentile(99.0).unwrap_or(0.0);
    Ok(TraceStats {
        requests: all.len() as f64,
        success_ratio: ok.len() as f64 / all.len() as f64,
        p50_s,
        p99_s,
        cold: all.iter().filter(|s| s.cold).count() as f64,
    })
}

fn diff_traces(a: &[TraceEvent], b: &[TraceEvent]) -> Result<Vec<Indicator>, String> {
    let a = trace_stats(a).map_err(|e| format!("baseline: {e}"))?;
    let b = trace_stats(b).map_err(|e| format!("candidate: {e}"))?;
    Ok(vec![
        judge("requests", a.requests, b.requests, Rule::Info),
        judge(
            "success_ratio",
            a.success_ratio,
            b.success_ratio,
            Rule::AbsDrop(0.005),
        ),
        judge("latency_p50_s", a.p50_s, b.p50_s, Rule::RelIncrease(0.10)),
        judge("latency_p99_s", a.p99_s, b.p99_s, Rule::RelIncrease(0.10)),
        judge("cold_starts", a.cold, b.cold, Rule::CountIncrease(0.20)),
    ])
}

fn diff_metrics(text_a: &str, text_b: &str) -> Result<Vec<Indicator>, String> {
    let a: MetricsRegistry = serde_json::from_str(text_a).map_err(|e| format!("baseline: {e}"))?;
    let b: MetricsRegistry = serde_json::from_str(text_b).map_err(|e| format!("candidate: {e}"))?;
    let ratio = |m: &MetricsRegistry| {
        let total = m.counter("requests_total");
        if total == 0 {
            1.0
        } else {
            m.counter("requests_ok") as f64 / total as f64
        }
    };
    let q = |m: &MetricsRegistry, q: f64| {
        m.histogram("latency_seconds")
            .and_then(|h| h.quantile(q))
            .unwrap_or(0.0)
    };
    let mut out = vec![
        judge(
            "requests_total",
            a.counter("requests_total") as f64,
            b.counter("requests_total") as f64,
            Rule::Info,
        ),
        judge("success_ratio", ratio(&a), ratio(&b), Rule::AbsDrop(0.005)),
        judge(
            "latency_p50_s",
            q(&a, 0.50),
            q(&b, 0.50),
            Rule::RelIncrease(0.10),
        ),
        judge(
            "latency_p99_s",
            q(&a, 0.99),
            q(&b, 0.99),
            Rule::RelIncrease(0.10),
        ),
        judge(
            "cold_starts",
            a.counter("cold_starts") as f64,
            b.counter("cold_starts") as f64,
            Rule::CountIncrease(0.20),
        ),
        judge(
            "faults_total",
            a.counter("faults_total") as f64,
            b.counter("faults_total") as f64,
            Rule::Info,
        ),
    ];
    // SLO attainment only participates when either side scored objectives.
    let (at_a, tot_a) = (
        a.counter("slo_objectives_attained") as f64,
        a.counter("slo_objectives_total") as f64,
    );
    let (at_b, tot_b) = (
        b.counter("slo_objectives_attained") as f64,
        b.counter("slo_objectives_total") as f64,
    );
    if tot_a > 0.0 || tot_b > 0.0 {
        let frac = |at: f64, tot: f64| if tot == 0.0 { 1.0 } else { at / tot };
        out.push(judge(
            "slo_attainment",
            frac(at_a, tot_a),
            frac(at_b, tot_b),
            Rule::AbsDrop(0.0),
        ));
    }
    Ok(out)
}

fn diff_profiles(text_a: &str, text_b: &str) -> Result<Vec<Indicator>, String> {
    let a = Profile::from_json(text_a).map_err(|e| format!("baseline: {e}"))?;
    let b = Profile::from_json(text_b).map_err(|e| format!("candidate: {e}"))?;
    let shares = |p: &Profile| {
        let wall = p.wall_secs.max(1e-12);
        p.flatten()
            .into_iter()
            .map(|f| (f.path, f.exclusive_nanos as f64 / 1e9 / wall))
            .collect::<Vec<_>>()
    };
    let sa = shares(&a);
    let sb = shares(&b);
    let mut out = vec![judge("wall_secs", a.wall_secs, b.wall_secs, Rule::Info)];
    // Union of paths, baseline order first, then candidate-only paths. A
    // region growing by more than 5 points of wall share is a regression;
    // a region disappearing is fine (share 0).
    let find = |set: &[(String, f64)], path: &str| {
        set.iter().find(|(p, _)| p == path).map_or(0.0, |(_, v)| *v)
    };
    for (path, share_a) in &sa {
        out.push(judge(
            &format!("share:{path}"),
            *share_a,
            find(&sb, path),
            Rule::AbsRise(0.05),
        ));
    }
    for (path, share_b) in &sb {
        if !sa.iter().any(|(p, _)| p == path) {
            out.push(judge(
                &format!("share:{path}"),
                0.0,
                *share_b,
                Rule::AbsRise(0.05),
            ));
        }
    }
    Ok(out)
}

fn diff_benches(text_a: &str, text_b: &str) -> Result<Vec<Indicator>, String> {
    let a: BenchDoc = serde_json::from_str(text_a).map_err(|e| format!("baseline: {e}"))?;
    let b: BenchDoc = serde_json::from_str(text_b).map_err(|e| format!("candidate: {e}"))?;
    if a.schema != b.schema {
        return Err(format!(
            "bench schemas differ: baseline `{}`, candidate `{}`",
            a.schema, b.schema
        ));
    }
    let mut out = Vec::new();
    for row in &a.schedule_pop {
        let matched = b
            .schedule_pop
            .iter()
            .find(|r| r.kernel == row.kernel && r.pattern == row.pattern)
            .map_or(0.0, |r| r.events_per_sec);
        out.push(judge(
            &format!("eps:{}/{}", row.kernel, row.pattern),
            row.events_per_sec,
            matched,
            Rule::RelDecrease(0.20),
        ));
    }
    for row in &a.end_to_end {
        let matched = b
            .end_to_end
            .iter()
            .find(|r| r.kernel == row.kernel && r.preset == row.preset && r.mode == row.mode)
            .map_or(0.0, |r| r.events_per_sec);
        out.push(judge(
            &format!("eps:{}/{}/{}", row.kernel, row.preset, row.mode),
            row.events_per_sec,
            matched,
            Rule::RelDecrease(0.20),
        ));
    }
    out.push(judge(
        "kernel_speedup",
        a.kernel_speedup,
        b.kernel_speedup,
        Rule::RelDecrease(0.20),
    ));
    out.push(judge(
        "end_to_end_speedup",
        a.end_to_end_speedup,
        b.end_to_end_speedup,
        Rule::RelDecrease(0.20),
    ));
    out.push(judge(
        "allocs_per_request",
        a.allocs_per_request,
        b.allocs_per_request,
        Rule::RelIncrease(0.10),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS_A: &str = r#"{
        "counters": {"requests_total": 1000, "requests_ok": 995, "cold_starts": 10},
        "gauges": {},
        "histograms": {}
    }"#;

    #[test]
    fn detect_classifies_every_artifact_kind() {
        assert_eq!(detect(METRICS_A).unwrap(), ArtifactKind::Metrics);
        let profile = slsb_obs::Profile::new(Vec::new(), 1.0).to_json();
        assert_eq!(detect(&profile).unwrap(), ArtifactKind::Profile);
        let bench = r#"{"schema": "slsb-bench-kernel/v2", "schedule_pop": [],
                        "end_to_end": [], "kernel_speedup": 1.0,
                        "end_to_end_speedup": 1.0, "allocs_per_request": 0.5}"#;
        assert_eq!(detect(bench).unwrap(), ArtifactKind::Bench);
        assert!(detect("garbage").is_err());
        assert!(detect(r#"{"schema": "who-knows/v9"}"#)
            .unwrap_err()
            .contains("who-knows"));
    }

    #[test]
    fn self_diff_is_clean_and_kind_mismatch_errors() {
        let report = diff(METRICS_A, METRICS_A).unwrap();
        assert_eq!(report.kind, ArtifactKind::Metrics);
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.render().contains("verdict: OK"));

        let profile = slsb_obs::Profile::new(Vec::new(), 1.0).to_json();
        let err = diff(METRICS_A, &profile).unwrap_err();
        assert!(err.contains("kinds differ"), "{err}");
    }

    #[test]
    fn trace_diff_reads_parsed_events_and_types_bad_traces() {
        use slsb_obs::{EventKind, SpanOutcome};
        use slsb_sim::{SimDuration, SimTime};
        let line = |ev: &TraceEvent| {
            let mut out = Vec::new();
            slsb_obs::wire::write_event(ev, &mut out);
            String::from_utf8(out).unwrap() + "\n"
        };
        let span = |request: u64, exec_ms: u64| TraceEvent {
            at: SimTime::from_micros(request),
            kind: EventKind::RequestSpan {
                request,
                client: 0,
                invocation: request,
                arrival: SimTime::ZERO,
                batch: SimDuration::ZERO,
                net_in: SimDuration::from_millis(1),
                queued: SimDuration::ZERO,
                exec: SimDuration::from_millis(exec_ms),
                net_out: SimDuration::from_millis(1),
                cold: request == 0,
                outcome: SpanOutcome::Success,
            },
        };
        let fast: String = (0..50).map(|r| line(&span(r, 10))).collect();
        let slow: String = (0..50).map(|r| line(&span(r, 30))).collect();
        assert_eq!(detect(&fast).unwrap(), ArtifactKind::Trace);
        let report = diff(&fast, &fast).unwrap();
        assert_eq!(report.kind, ArtifactKind::Trace);
        assert!(!report.regressed(), "{}", report.render());
        let report = diff(&fast, &slow).unwrap();
        assert!(report
            .indicators
            .iter()
            .any(|i| i.name == "latency_p99_s" && i.regressed));

        let truncated = &fast[..fast.len() - 10];
        let err = diff(&fast, truncated).unwrap_err();
        assert!(err.starts_with("candidate: unrecognized artifact"), "{err}");
        let closed = line(&TraceEvent {
            at: SimTime::ZERO,
            kind: EventKind::RunClosed {
                engine_events: 1,
                requests: 0,
            },
        });
        let err = diff(&closed, &fast).unwrap_err();
        assert_eq!(err, "baseline: trace has no request spans to compare");
        let err = diff(&fast, METRICS_A).unwrap_err();
        assert!(err.contains("kinds differ"), "{err}");
    }

    #[test]
    fn metrics_regressions_trip_the_thresholds() {
        // 1 % fewer successes (past the 0.5-point drop), 30 % more colds.
        let worse = r#"{
            "counters": {"requests_total": 1000, "requests_ok": 985, "cold_starts": 13},
            "gauges": {},
            "histograms": {}
        }"#;
        let report = diff(METRICS_A, worse).unwrap();
        assert!(report.regressed());
        let names: Vec<_> = report
            .indicators
            .iter()
            .filter(|i| i.regressed)
            .map(|i| i.name.clone())
            .collect();
        assert!(names.contains(&"success_ratio".to_string()), "{names:?}");
        assert!(names.contains(&"cold_starts".to_string()), "{names:?}");
        // requests_total is informational even though it matched exactly.
        assert!(!names.contains(&"requests_total".to_string()));
        assert!(report.render().contains("REGRESSED"));
    }

    #[test]
    fn count_rule_needs_an_absolute_step_too() {
        // 1 -> 2 cold starts is +100 % but also +1, so it trips; 0 -> 0
        // and tiny relative wobbles below +1 do not.
        let one = r#"{"counters": {"requests_total": 10, "requests_ok": 10, "cold_starts": 1},
                      "gauges": {}, "histograms": {}}"#;
        let two = r#"{"counters": {"requests_total": 10, "requests_ok": 10, "cold_starts": 2},
                      "gauges": {}, "histograms": {}}"#;
        let report = diff(one, two).unwrap();
        assert!(report
            .indicators
            .iter()
            .any(|i| i.name == "cold_starts" && i.regressed));
        let report = diff(one, one).unwrap();
        assert!(!report.regressed());
    }

    #[test]
    fn bench_diff_compares_matching_rows() {
        let base = r#"{"schema": "slsb-bench-kernel/v2",
            "schedule_pop": [{"kernel": "wheel", "pattern": "preload-drain",
                              "events": 1, "elapsed_secs": 1.0,
                              "events_per_sec": 1000000.0, "allocations": 0}],
            "end_to_end": [], "kernel_speedup": 2.0,
            "end_to_end_speedup": 1.5, "allocs_per_request": 0.5}"#;
        let slower = base.replace("1000000.0", "700000.0");
        let report = diff(base, &slower).unwrap();
        assert!(report.regressed());
        assert!(report
            .indicators
            .iter()
            .any(|i| i.name == "eps:wheel/preload-drain" && i.regressed));
        assert!(!diff(base, base).unwrap().regressed());
    }

    #[test]
    fn profile_diff_flags_a_growing_region_share() {
        use slsb_obs::Profile;
        let mk = |kernel_nanos: u64| {
            let node = |label: &str, nanos: u64| slsb_sim::ProfileNode {
                label: label.to_string(),
                calls: 1,
                nanos,
                allocs: 0,
                children: Vec::new(),
            };
            Profile::new(
                vec![
                    node("executor/cell", 500_000_000),
                    node("kernel", kernel_nanos),
                ],
                1.0,
            )
            .to_json()
        };
        let a = mk(100_000_000); // 10 % of wall
        let b = mk(400_000_000); // 40 % of wall: +30 points, past +5
        let report = diff(&a, &b).unwrap();
        assert!(report
            .indicators
            .iter()
            .any(|i| i.name == "share:kernel" && i.regressed));
        assert!(!diff(&a, &a).unwrap().regressed());
    }
}
