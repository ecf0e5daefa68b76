//! The traced pass's per-layer metrics.
//!
//! Two sources feed them. Isolated probes run one layer's public API on
//! data shaped like the workloads (kernel, samplers, arrival merge, each
//! platform family, recorder, histogram, parallel efficiency). Spans the
//! benchmark opened around its own calls into a layer give that layer's
//! self time and per-item cost; every workload runs one traced rep here so
//! each span-derived metric exists whichever workload is being traced.
//! The layer budget then multiplies each unit cost by the traced
//! workload's work counts and compares the sum with its wall time.

use crate::spans::{self_times, Span, Tracer};
use crate::stats::median;
use crate::workloads::{self, fleet_plan, prepare, DigestSink, Size, Sizing, WorkloadId};
use slsb_core::{Deployment, ExperimentId, FleetPartition, FleetRunner, WorkloadSpec, FLEET_CELLS};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_obs::{trace_view, JsonlRecorder, LogLinearHistogram, MemoryRecorder, Recorder};
use slsb_platform::{
    CloudProvider, HybridConfig, Platform, PlatformEvent, PlatformKind, PlatformScheduler,
    RequestId, ServerlessConfig, ServingRequest, SpilloverPolicy, VmServerConfig,
};
use slsb_sim::{EventQueue, Seed, SimDuration, SimTime};
use slsb_workload::{InputKind, MmppPreset, RequestPool};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Every per-layer metric except the per-experiment rows: name, unit and
/// direction, in output order.
const LAYER_TABLE: &[(&str, &str, Better)] = &[
    ("sim.wheel.steady_ns", "ns", Better::Lower),
    ("sim.wheel.burst_ns", "ns", Better::Lower),
    ("sim.rng.exp_ns", "ns", Better::Lower),
    ("sim.rng.normal_ns", "ns", Better::Lower),
    ("sim.rng.lognormal_ns", "ns", Better::Lower),
    ("workload.mmpp.gen_s", "s", Better::Lower),
    ("workload.fleet.arrival_ns", "ns", Better::Lower),
    ("platform.serverless.ns_per_event", "ns", Better::Lower),
    (
        "platform.serverless.events_per_request",
        "count",
        Better::Lower,
    ),
    ("platform.managedml.ns_per_event", "ns", Better::Lower),
    (
        "platform.managedml.events_per_request",
        "count",
        Better::Lower,
    ),
    ("platform.vmserver.ns_per_event", "ns", Better::Lower),
    (
        "platform.vmserver.events_per_request",
        "count",
        Better::Lower,
    ),
    ("platform.hybrid.ns_per_event", "ns", Better::Lower),
    ("platform.hybrid.events_per_request", "count", Better::Lower),
    ("core.executor.run_s", "s", Better::Lower),
    ("core.executor.events_per_s", "1/s", Better::Higher),
    ("core.executor.allocs_per_request", "count", Better::Lower),
    ("core.executor.shard_eff", "ratio", Better::Higher),
    ("core.fleet.resolve_s", "s", Better::Lower),
    ("core.fleet.run_s", "s", Better::Lower),
    ("core.fleet.events_per_s", "1/s", Better::Higher),
    ("core.fleet.allocs_per_request", "count", Better::Lower),
    ("core.fleet.parallel_eff", "ratio", Better::Higher),
    ("core.fleet.cell_max_over_mean", "ratio", Better::Lower),
    ("core.analyzer.ns_per_request", "ns", Better::Lower),
    ("core.analyzer.metrics_ns_per_request", "ns", Better::Lower),
    ("core.oracle.ns_per_request", "ns", Better::Lower),
    ("core.oracle.trace_ns_per_event", "ns", Better::Lower),
    ("obs.recorder.ns_per_event", "ns", Better::Lower),
    ("obs.recorder.bytes_per_event", "bytes", Better::Lower),
    ("obs.recorder.run_s", "s", Better::Lower),
    ("obs.trace_view.parse_mb_per_s", "MiB/s", Better::Higher),
    ("obs.trace_view.spans_ns_per_event", "ns", Better::Lower),
    ("obs.trace_view.render_s", "s", Better::Lower),
    ("obs.metrics.hist_record_ns", "ns", Better::Lower),
    ("budget.explained_frac", "ratio", Better::Higher),
    ("trace.overhead_frac", "ratio", Better::Lower),
];

/// Every per-layer metric the traced pass emits: name, unit, direction.
pub fn layer_metric_table() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<(String, &'static str, Better)> = LAYER_TABLE
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for id in ExperimentId::ALL {
        out.push((experiment_metric(id), "s", Better::Lower));
    }
    out
}

fn experiment_metric(id: ExperimentId) -> String {
    format!("bench.experiments.{}_s", id.slug())
}

/// Spans the metric of the same name (minus `_s`) is read from.
fn experiment_span(id: ExperimentId) -> String {
    format!("bench.experiments.{}", id.slug())
}

/// Seconds one unit of work costs at a per-layer metric's measured value.
fn unit_cost_s(name: &str, value: f64) -> f64 {
    if name.ends_with("_mb_per_s") {
        1.0 / (value * 1_048_576.0)
    } else if name.ends_with("_s") {
        value
    } else {
        value / 1e9
    }
}

/// Share of a one-worker rep's `wall_s` the per-layer unit costs account
/// for, given the rep's `(metric, count)` work list.
pub fn explained_frac(
    work: &[(&str, f64)],
    values: &BTreeMap<String, f64>,
    wall_s: f64,
) -> Result<f64, String> {
    let mut explained = 0.0;
    for (name, count) in work {
        let v = values
            .get(*name)
            .ok_or_else(|| format!("budget needs {name}, which was not measured"))?;
        explained += count * unit_cost_s(name, *v);
    }
    Ok(explained / wall_s)
}

/// What the traced workload contributes to its own per-layer rows.
pub struct TracedRun<'a> {
    pub id: WorkloadId,
    pub seed: u64,
    /// Host seconds of one untraced and of one traced rep (`wall_s`).
    pub wall_untraced: f64,
    pub wall_traced: f64,
    /// The traced workload's work counts for the budget.
    pub work: &'a [(&'static str, f64)],
}

/// Runs the probes and one traced rep of every other workload, then
/// assembles every per-layer metric in [`layer_metric_table`] order.
pub fn layer_metrics(
    run: &TracedRun<'_>,
    t: &mut Tracer,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut values = probes(run.seed, t)?;
    for other in WorkloadId::ALL.into_iter().filter(|&w| w != run.id) {
        t.context(other.name(), None);
        t.span("coverage", |t| {
            let sizing = Sizing::find(other, run.seed, Size::Full)?;
            let mut w = t.span("setup", |t| prepare(other, run.seed, sizing, t))?;
            w.rep(t).map(|_| ())
        })?;
    }
    values.extend(span_metrics(t.spans()));
    values.insert(
        "budget.explained_frac".to_string(),
        explained_frac(run.work, &values, run.wall_untraced)?,
    );
    values.insert(
        "trace.overhead_frac".to_string(),
        run.wall_traced / run.wall_untraced - 1.0,
    );
    layer_metric_table()
        .into_iter()
        .map(|(name, unit, _)| match values.get(&name) {
            Some(v) if v.is_finite() => Ok((name, *v, unit)),
            _ => Err(format!("per-layer metric {name} was not measured")),
        })
        .collect()
}

/// A work count a span carries.
type Count = fn(&Span) -> u64;

/// Metrics read from the spans: self times, and per-item costs from the
/// counts attached to each span.
pub fn span_metrics(spans: &[Span]) -> BTreeMap<String, f64> {
    let self_ns = self_times(spans);
    let of = |name: &str| -> Vec<usize> {
        (0..spans.len())
            .filter(|&i| spans[i].name == name)
            .collect()
    };
    // NaN when no span of `name` exists, so the layer reads as unmeasured.
    let med_self_s = |name: &str| -> f64 {
        let s: Vec<f64> = of(name).iter().map(|&i| self_ns[i] as f64 / 1e9).collect();
        if s.is_empty() {
            f64::NAN
        } else {
            median(&s)
        }
    };
    // Σ num / Σ den over every span of `name`.
    let ratio = |name: &str, num: &dyn Fn(usize) -> f64, den: Count| -> f64 {
        let idx = of(name);
        let n: f64 = idx.iter().map(|&i| num(i)).sum();
        let d: u64 = idx.iter().map(|&i| den(&spans[i])).sum();
        n / d as f64
    };
    let nanos = |i: usize| self_ns[i] as f64;
    let allocs = |i: usize| spans[i].allocs as f64;
    let (requests, events, bytes): (Count, Count, Count) =
        (|s| s.requests, |s| s.events, |s| s.bytes);

    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let exec = "core.executor.run";
    put("core.executor.run_s", med_self_s(exec));
    put(
        "core.executor.events_per_s",
        1e9 / ratio(exec, &nanos, events),
    );
    put(
        "core.executor.allocs_per_request",
        ratio(exec, &allocs, requests),
    );
    let fleet = "core.fleet.run";
    put("core.fleet.resolve_s", med_self_s("core.fleet.resolve"));
    put("core.fleet.run_s", med_self_s(fleet));
    put(
        "core.fleet.events_per_s",
        1e9 / ratio(fleet, &nanos, events),
    );
    put(
        "core.fleet.allocs_per_request",
        ratio(fleet, &allocs, requests),
    );
    for (metric, span, count) in [
        (
            "core.analyzer.ns_per_request",
            "core.analyzer.analyze",
            requests,
        ),
        (
            "core.analyzer.metrics_ns_per_request",
            "core.analyzer.run_metrics",
            requests,
        ),
        ("core.oracle.ns_per_request", "core.oracle.bound", requests),
        (
            "core.oracle.trace_ns_per_event",
            "core.oracle.trace",
            events,
        ),
    ] {
        put(metric, ratio(span, &nanos, count));
    }
    put(
        "obs.trace_view.parse_mb_per_s",
        1e9 / ratio("obs.trace_view.parse", &nanos, bytes) / 1_048_576.0,
    );
    put(
        "obs.trace_view.render_s",
        med_self_s("obs.trace_view.render"),
    );
    for id in ExperimentId::ALL {
        put(&experiment_metric(id), med_self_s(&experiment_span(id)));
    }
    m
}

/// Median wall time of `reps` runs of `f`, seconds.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Cheap deterministic scramble for probe inputs.
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// The isolated probes, each in its own span.
fn probes(seed: u64, t: &mut Tracer) -> Result<BTreeMap<String, f64>, String> {
    t.context("layers", None);
    let mut m = BTreeMap::new();
    t.span("layers.sim.wheel", |_| wheel(&mut m));
    t.span("layers.sim.rng", |_| rng(seed, &mut m));
    t.span("layers.workload", |_| workload(seed, &mut m))?;
    t.span("layers.platform", |_| platforms(seed, &mut m))?;
    t.span("layers.core.executor", |_| executor(seed, &mut m))?;
    t.span("layers.core.fleet", |_| fleet(seed, &mut m))?;
    t.span("layers.obs", |_| obs(seed, &mut m))?;
    Ok(m)
}

/// Kernel schedule+pop: a steady population of 4096 pending events with
/// 1–50 ms delays, and bursts of 64 through `schedule_many` then drained.
fn wheel(m: &mut BTreeMap<String, f64>) {
    const RESIDENT: u64 = 4096;
    const STEPS: u64 = 2_000_000;
    let delay = |i: u64| SimDuration::from_micros(1_000 + mix(i) % 49_000);
    let steady = time_median(3, || {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(RESIDENT as usize);
        for i in 0..RESIDENT {
            q.schedule_at(SimTime::ZERO + delay(i), i);
        }
        for _ in 0..STEPS {
            let (at, ev) = q.pop().expect("queue stays populated");
            q.schedule_at(at + delay(ev ^ at.as_micros()), ev);
        }
        black_box(q.len());
    });
    m.insert("sim.wheel.steady_ns".into(), steady * 1e9 / STEPS as f64);

    const BURST: u64 = 64;
    const ROUNDS: u64 = 20_000;
    let burst = time_median(3, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for r in 0..ROUNDS {
            let now = q.now();
            q.schedule_many((0..BURST).map(|i| (now + delay(r * BURST + i), i)));
            while let Some(ev) = q.pop() {
                black_box(ev);
            }
        }
    });
    m.insert(
        "sim.wheel.burst_ns".into(),
        burst * 1e9 / (BURST * ROUNDS) as f64,
    );
}

/// Per-draw cost of the three samplers the platforms lean on.
fn rng(seed: u64, m: &mut BTreeMap<String, f64>) {
    const DRAWS: u32 = 4_000_000;
    let mut r = Seed(seed).substream("bench-rng").rng();
    let exp = time_median(3, || {
        black_box((0..DRAWS).map(|_| r.standard_exp()).sum::<f64>());
    });
    let normal = time_median(3, || {
        black_box((0..DRAWS).map(|_| r.standard_normal()).sum::<f64>());
    });
    let median_latency = SimDuration::from_millis(100);
    let lognormal = time_median(3, || {
        black_box(
            (0..DRAWS)
                .map(|_| r.lognormal(median_latency, 1.0).as_micros())
                .sum::<u64>(),
        );
    });
    let per = |s: f64| s * 1e9 / f64::from(DRAWS);
    m.insert("sim.rng.exp_ns".into(), per(exp));
    m.insert("sim.rng.normal_ns".into(), per(normal));
    m.insert("sim.rng.lognormal_ns".into(), per(lognormal));
}

/// MMPP generation of the full-scale W120 trace, and the k-way arrival
/// merge of the fleet_zipf plan.
fn workload(seed: u64, m: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let gen = time_median(3, || {
        black_box(
            MmppPreset::W120
                .generate(Seed(seed).substream("workload"))
                .len(),
        );
    });
    m.insert("workload.mmpp.gen_s".into(), gen);
    let plan = fleet_plan(
        workloads::fleet_requests(Size::Full),
        &mut Tracer::new(false),
    )?;
    let mut arrivals = 0u64;
    let merge = time_median(3, || {
        arrivals = plan.spec.arrival_stream(Seed(seed)).count() as u64;
    });
    m.insert(
        "workload.fleet.arrival_ns".into(),
        merge * 1e9 / arrivals as f64,
    );
    Ok(())
}

/// A fresh MobileNet/TF platform of one family: through `Deployment::build`
/// for the three deployable families, `Platform::hybrid` (GPU VM spilling
/// to serverless past a backlog of 16) for the hybrid.
fn build_family(family: &str, seed: u64) -> Result<Platform, String> {
    let (mn, tf) = (ModelKind::MobileNet, RuntimeKind::Tf115);
    let kind = match family {
        "serverless" => PlatformKind::AwsServerless,
        "managedml" => PlatformKind::AwsManagedMl,
        "vmserver" => PlatformKind::AwsCpu,
        _ => {
            return Ok(Platform::hybrid(
                HybridConfig {
                    vm: VmServerConfig::gpu(CloudProvider::Aws, mn.profile(), tf.profile()),
                    serverless: ServerlessConfig::new(
                        CloudProvider::Aws,
                        mn.profile(),
                        tf.profile(),
                    ),
                    policy: SpilloverPolicy::QueueDepth(16),
                },
                Seed(seed),
            ))
        }
    };
    Deployment::new(kind, mn, tf)
        .build(Seed(seed))
        .map_err(|e| e.to_string())
}

/// Each platform family driven by the benchmark's own event loop over
/// `start`/`submit`/`handle`, with the W120 arrivals (quarter scale).
fn platforms(seed: u64, m: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let trace = WorkloadSpec::Preset {
        which: MmppPreset::W120,
        scale: 0.25,
    }
    .generate(Seed(seed).substream("workload"));
    let pool = RequestPool::generate(InputKind::Image, RequestPool::DEFAULT_SIZE);
    let horizon = SimTime::ZERO + trace.duration() + SimDuration::from_secs(120);
    for family in ["serverless", "managedml", "vmserver", "hybrid"] {
        let mut events = 0u64;
        let mut elapsed = Vec::new();
        for _ in 0..3 {
            let mut platform = build_family(family, seed)?;
            let t0 = Instant::now();
            events = drive_platform(&mut platform, trace.arrivals(), &pool, horizon);
            elapsed.push(t0.elapsed().as_secs_f64());
        }
        m.insert(
            format!("platform.{family}.ns_per_event"),
            median(&elapsed) * 1e9 / events as f64,
        );
        m.insert(
            format!("platform.{family}.events_per_request"),
            events as f64 / trace.len() as f64,
        );
    }
    Ok(())
}

enum Ev {
    Arrive(usize),
    Platform(PlatformEvent),
}

/// Replays `arrivals` into `platform` until `horizon`; returns the events
/// delivered.
fn drive_platform(
    platform: &mut Platform,
    arrivals: &[SimTime],
    pool: &RequestPool,
    horizon: SimTime,
) -> u64 {
    let mut q: EventQueue<Ev> = EventQueue::with_capacity(arrivals.len());
    let mut buf: Vec<(SimDuration, PlatformEvent)> = Vec::new();
    let mut responses = Vec::new();
    platform.reserve(arrivals.len());
    platform.start(
        &mut PlatformScheduler::new(SimTime::ZERO, &mut buf),
        horizon,
    );
    q.schedule_many(
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &at)| (at, Ev::Arrive(i))),
    );
    q.schedule_many_after(buf.drain(..).map(|(d, e)| (d, Ev::Platform(e))));
    let payloads = pool.payloads();
    let mut events = 0;
    while let Some((at, ev)) = q.pop_at_or_before(horizon) {
        events += 1;
        let mut sched = PlatformScheduler::new(at, &mut buf);
        match ev {
            Ev::Arrive(i) => platform.submit(
                &mut sched,
                ServingRequest {
                    id: RequestId(i as u64),
                    arrival: at,
                    payload_bytes: payloads[i % payloads.len()].size_bytes,
                    inferences: 1,
                },
            ),
            Ev::Platform(e) => platform.handle(&mut sched, e),
        }
        q.schedule_many_after(buf.drain(..).map(|(d, e)| (d, Ev::Platform(e))));
        platform.drain_responses_into(&mut responses);
        responses.clear();
    }
    platform.finalize(q.now());
    events
}

/// The faulted_retry executor on its serverless deployment (60k
/// requests), sharded over one worker and then over two: `t1 / (2 × t2)`.
fn executor(seed: u64, m: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let workers = workloads::parallel_workers();
    let dep = workloads::faulted_deployments()[0];
    const REQUESTS: usize = 60_000;
    let duration_s = workloads::faulted_horizon_s(seed, REQUESTS)?;
    let (one, trace) =
        workloads::faulted_inputs(seed, REQUESTS, duration_s, 1, &mut Tracer::new(false))?;
    let many = one.clone().with_shards(workers);
    // Runs are deterministic: once the untimed warm-up succeeds, so does
    // every timed run.
    one.run(&dep, &trace, Seed(seed))
        .map_err(|e| e.to_string())?;
    let time = |exec: &slsb_core::Executor| {
        time_median(3, || {
            black_box(exec.run(&dep, &trace, Seed(seed)).is_ok());
        })
    };
    let t1 = time(&one);
    let t2 = time(&many);
    m.insert("core.executor.shard_eff".into(), t1 / (workers as f64 * t2));
    Ok(())
}

/// A 500k-request fleet_zipf plan on one worker and on two:
/// `t1 / (2 × t2)`; plus the partition's balance.
fn fleet(seed: u64, m: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let workers = workloads::parallel_workers();
    let plan = fleet_plan(500_000, &mut Tracer::new(false))?;
    // As for the executor: a successful untimed run vouches for the rest.
    FleetRunner::default()
        .run(&plan, Seed(seed))
        .map_err(|e| e.to_string())?;
    let time = |w: usize| {
        let runner = FleetRunner::default().with_workers(w);
        time_median(3, || {
            black_box(runner.run(&plan, Seed(seed)).is_ok());
        })
    };
    let t1 = time(1);
    let t2 = time(workers);
    m.insert("core.fleet.parallel_eff".into(), t1 / (workers as f64 * t2));
    let bal = FleetPartition::compute(&plan, FLEET_CELLS.min(plan.spec.apps.len())).balance();
    m.insert(
        "core.fleet.cell_max_over_mean".into(),
        bal.max_cell / bal.mean_cell,
    );
    Ok(())
}

/// The write half of tracing replayed in isolation: the trace_record
/// events captured once, then serialized into a JsonlRecorder over a
/// counting sink. Also span extraction over the same events, and the
/// latency histogram's record path.
fn obs(seed: u64, m: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let plan = fleet_plan(
        workloads::trace_requests(Size::Full),
        &mut Tracer::new(false),
    )?;
    let mut captured = MemoryRecorder::new();
    FleetRunner::default()
        .run_recorded(&plan, Seed(seed), &mut captured)
        .map_err(|e| e.to_string())?;
    let events = captured.into_events();
    let n = events.len() as f64;
    let mut bytes = 0;
    let replay = time_median(3, || {
        let mut sink = DigestSink::default();
        let mut rec = JsonlRecorder::new(&mut sink);
        for ev in &events {
            rec.record(ev);
        }
        black_box(rec.finish().ok());
        bytes = sink.bytes;
    });
    m.insert("obs.recorder.run_s".into(), replay);
    m.insert("obs.recorder.ns_per_event".into(), replay * 1e9 / n);
    m.insert("obs.recorder.bytes_per_event".into(), bytes as f64 / n);
    let spans = time_median(3, || {
        black_box(trace_view::spans(&events).len());
    });
    m.insert("obs.trace_view.spans_ns_per_event".into(), spans * 1e9 / n);

    const SAMPLES: usize = 1_000_000;
    let mut r = Seed(seed).substream("bench-hist").rng();
    let latencies: Vec<f64> = (0..SAMPLES)
        .map(|_| r.lognormal(SimDuration::from_millis(80), 1.2).as_secs_f64())
        .collect();
    let record = time_median(3, || {
        let mut h = LogLinearHistogram::default();
        for &v in &latencies {
            h.record(v);
        }
        black_box(h.count());
    });
    m.insert(
        "obs.metrics.hist_record_ns".into(),
        record * 1e9 / SAMPLES as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_costs_follow_the_metric_units() {
        assert_eq!(unit_cost_s("platform.serverless.ns_per_event", 50.0), 50e-9);
        assert_eq!(unit_cost_s("obs.trace_view.render_s", 0.25), 0.25);
        assert_eq!(
            unit_cost_s("obs.trace_view.parse_mb_per_s", 1.0),
            1.0 / 1_048_576.0
        );
        for (name, unit, _) in layer_metric_table() {
            let per_unit = unit_cost_s(&name, 2.0);
            match unit {
                "ns" => assert_eq!(per_unit, 2e-9, "{name}"),
                "s" => assert_eq!(per_unit, 2.0, "{name}"),
                _ => {}
            }
        }
    }

    #[test]
    fn budget_sums_unit_costs_over_wall() {
        let mut values = BTreeMap::new();
        values.insert("platform.serverless.ns_per_event".to_string(), 100.0);
        values.insert("obs.trace_view.render_s".to_string(), 0.5);
        let work = [
            ("platform.serverless.ns_per_event", 1e7),
            ("obs.trace_view.render_s", 1.0),
        ];
        // 1e7 × 100 ns = 1 s, plus 0.5 s, over a 3 s rep.
        let f = explained_frac(&work, &values, 3.0).unwrap();
        assert!((f - 0.5).abs() < 1e-12, "{f}");
        assert!(explained_frac(&[("missing", 1.0)], &values, 1.0).is_err());
    }

    #[test]
    fn span_metrics_use_self_time_and_attached_counts() {
        let span = |name: &str, start_ns, end_ns, parent, requests, events| Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            workload: "w",
            rep: Some(0),
            allocs: 10,
            requests,
            events,
            bytes: 0,
            self_ns: 0,
        };
        let spans = vec![
            span("rep", 0, 3_000, None, 0, 0),
            span("core.executor.run", 0, 1_000, Some(0), 100, 500),
            span("core.executor.run", 1_000, 3_000, Some(0), 100, 500),
        ];
        let m = span_metrics(&spans);
        assert_eq!(m["core.executor.run_s"], 1.5e-6);
        assert_eq!(m["core.executor.events_per_s"], 1000.0 / 3e-6);
        assert_eq!(m["core.executor.allocs_per_request"], 0.1);
        // A layer with no spans is unmeasured, not zero.
        assert!(m["core.fleet.run_s"].is_nan());
        assert!(!m["core.fleet.events_per_s"].is_finite());
    }
}
