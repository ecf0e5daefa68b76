//! Offline oracle lower bounds for keep-alive / scaling policies.
//!
//! Given a finished run, how well could a *clairvoyant* policy — one that
//! knows the whole trace in advance — possibly have done? This module
//! computes two lower bounds from the run's own records:
//!
//! - **Cold-start floor.** Each successful request occupies a distinct
//!   instance for its predict window `[t_end − predict, t_end]` (the
//!   response-network leg is a per-run constant, so it shifts every window
//!   equally and cancels out of the overlap). A sweep line over those
//!   windows yields the peak number of simultaneously-busy instances;
//!   dividing by the batch size converts request-level overlap to
//!   invocation-level demand. Any policy — oracle included — must have at
//!   least that many instances alive at the peak, and every instance beyond
//!   the provisioned-concurrency floor was necessarily cold-started at
//!   least once. The same argument is the LP-relaxation half of the
//!   path-cover formulation: warm reuse chains are paths through the
//!   interval graph, and the minimum number of paths covering all intervals
//!   is bounded below by the maximum antichain (here: the peak overlap).
//! - **Cost floor.** The fraction of billed time that was unavoidable
//!   work. On serverless platforms the in-handler cold phases (artifact
//!   download + model load) are what an ideal keep-alive would shave, so
//!   the floor is `cost × Σpredict / Σ(predict + download + load)`. On
//!   instance-billed platforms (managed ML, rented VMs, the hybrid) the
//!   floor is `cost × busy_seconds / instance_seconds` — pay only for
//!   instance-time that executed requests.
//!
//! Both bounds are conservative by construction (ratios clamped to
//! `[0, 1]`, overlap counts only successful records), so
//! `oracle ≤ actual` holds for **every** policy in the zoo on **every**
//! trace — a property the proptests in `crates/core/tests/properties.rs`
//! pin down.

use crate::executor::RunResult;
use slsb_obs::{Component, EventKind, SpawnCause, TraceEvent};

/// Clairvoyant lower bounds for one finished run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleBound {
    /// Minimum cold starts any keep-alive policy must pay on this trace
    /// (0 on platforms without a cold-start pipeline).
    pub cold_starts: u64,
    /// Minimum spend in dollars for the work actually done.
    pub cost_dollars: f64,
    /// Peak number of simultaneously-executing invocations — the
    /// instance-count floor behind `cold_starts`.
    pub peak_concurrency: u64,
    /// Fraction of billed time that was unavoidable (the cost ratio
    /// before multiplying by actual cost), in `[0, 1]`.
    pub warm_ratio: f64,
}

impl OracleBound {
    /// `lower / actual` as a percentage — "the run achieved N% of
    /// optimal". 100 when the actual already matches the bound (or both
    /// are zero).
    pub fn pct_of_optimal(lower: f64, actual: f64) -> f64 {
        if actual <= 0.0 {
            100.0
        } else {
            (lower / actual * 100.0).clamp(0.0, 100.0)
        }
    }

    /// Cold-start score against an observed cold-start count. A cold
    /// count of zero is already optimal, and a zero floor with observed
    /// cold starts scores 0.
    pub fn cold_score(&self, observed: u64) -> f64 {
        if observed == 0 {
            100.0
        } else {
            Self::pct_of_optimal(self.cold_starts as f64, observed as f64)
        }
    }

    /// Cost score against an observed spend in dollars.
    pub fn cost_score(&self, observed_dollars: f64) -> f64 {
        Self::pct_of_optimal(self.cost_dollars, observed_dollars)
    }
}

/// Computes the oracle bounds for one run from its own records.
pub fn oracle_bound(run: &RunResult) -> OracleBound {
    let batch = u64::from(run.deployment.batch_size.max(1));
    let peak_requests = peak_overlap(run.records.iter().filter_map(|r| {
        let end = (r.arrival + r.latency?).as_secs_f64();
        Some((end - r.predict.as_secs_f64(), end))
    }));
    let peak_concurrency = peak_requests.div_ceil(batch);

    let cold_starts = if run.deployment.platform.is_serverless() {
        peak_concurrency.saturating_sub(u64::from(run.deployment.provisioned_concurrency))
    } else {
        0
    };

    let warm_ratio = if run.deployment.platform.is_serverless() {
        let mut useful = 0.0;
        let mut billed = 0.0;
        for r in run.records.iter().filter(|r| r.latency.is_some()) {
            let predict = r.predict.as_secs_f64();
            useful += predict;
            billed += predict;
            if let Some(cold) = &r.cold_start {
                billed += cold.download.as_secs_f64() + cold.load.as_secs_f64();
            }
        }
        if billed > 0.0 {
            (useful / billed).clamp(0.0, 1.0)
        } else {
            1.0
        }
    } else {
        let p = &run.platform;
        if p.instance_seconds > 0.0 {
            (p.busy_seconds / p.instance_seconds).clamp(0.0, 1.0)
        } else {
            1.0
        }
    };

    OracleBound {
        cold_starts,
        cost_dollars: run.platform.cost.total().as_dollars() * warm_ratio,
        peak_concurrency,
        warm_ratio,
    }
}

/// Cold-start floor recovered from a recorded trace, for `slsb trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOracle {
    /// Peak simultaneously-executing serverless invocations.
    pub instance_floor: u64,
    /// `instance_floor` minus pre-provisioned instances — the cold-start
    /// lower bound.
    pub cold_floor: u64,
    /// Cold-start pipelines the trace actually recorded (one
    /// `instance_ready` per cold boot — this also counts speculative
    /// spawns whose first request never paid the cold start).
    pub cold_observed: u64,
}

impl TraceOracle {
    /// "% of optimal" for the recorded cold-start count.
    pub fn score(&self) -> f64 {
        if self.cold_observed == 0 {
            100.0
        } else {
            OracleBound::pct_of_optimal(self.cold_floor as f64, self.cold_observed as f64)
        }
    }
}

/// Extracts the oracle cold-start floor from serverless `exec_start`
/// events. `None` when the trace has no serverless executions (nothing to
/// bound).
pub fn trace_oracle(events: &[TraceEvent]) -> Option<TraceOracle> {
    let mut windows = Vec::new();
    let mut provisioned = 0u64;
    let mut cold_observed = 0u64;
    for ev in events {
        match ev.kind {
            EventKind::ExecStart {
                component: Component::Serverless,
                done_at,
                ..
            } => windows.push((ev.at.as_secs_f64(), done_at.as_secs_f64())),
            EventKind::InstanceReady {
                component: Component::Serverless,
                ..
            } => cold_observed += 1,
            EventKind::InstanceSpawn {
                component: Component::Serverless,
                cause: SpawnCause::Provisioned,
                ..
            } => provisioned += 1,
            _ => {}
        }
    }
    if windows.is_empty() {
        return None;
    }
    let instance_floor = peak_overlap(windows.into_iter());
    Some(TraceOracle {
        instance_floor,
        cold_floor: instance_floor.saturating_sub(provisioned),
        cold_observed,
    })
}

/// Sweep-line maximum point-overlap of half-open intervals `[start, end)`.
/// Starts and ends are sorted apart as order-preserving integer keys and
/// merged with ends first at equal instants, so back-to-back reuse of one
/// instance does not inflate the peak.
fn peak_overlap(intervals: impl Iterator<Item = (f64, f64)>) -> u64 {
    let cap = intervals.size_hint().1.unwrap_or(0);
    let mut starts = Vec::with_capacity(cap);
    let mut ends = Vec::with_capacity(cap);
    for (start, end) in intervals {
        if end > start {
            starts.push(total_order_key(start));
            ends.push(total_order_key(end));
        }
    }
    starts.sort_unstable();
    ends.sort_unstable();
    // Every interval ends after it starts, so `live` never goes negative
    // and the peak is reached by the time the last start is swept.
    let (mut live, mut peak, mut e) = (0u64, 0u64, 0);
    for s in starts {
        while ends[e] <= s {
            live -= 1;
            e += 1;
        }
        live += 1;
        peak = peak.max(live);
    }
    peak
}

/// Maps an `f64` to a `u64` whose unsigned order is [`f64::total_cmp`]'s:
/// negatives flip every bit, everything else sets the sign bit.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::plan::Deployment;
    use slsb_model::{ModelKind, RuntimeKind};
    use slsb_platform::PlatformKind;
    use slsb_sim::Seed;
    use slsb_workload::MmppPreset;

    fn run(platform: PlatformKind, runtime: RuntimeKind) -> RunResult {
        let trace = MmppPreset::W40.generate(Seed(5));
        let dep = Deployment::new(platform, ModelKind::MobileNet, runtime);
        Executor::default().run(&dep, &trace, Seed(5)).unwrap()
    }

    /// The stable-sort sweep `peak_overlap` replaced: one `(instant,
    /// delta)` edge list ordered by `total_cmp`, ends (-1) before starts
    /// (+1) at equal instants.
    fn peak_overlap_reference(intervals: impl Iterator<Item = (f64, f64)>) -> u64 {
        let mut edges: Vec<(f64, i64)> = Vec::new();
        for (start, end) in intervals {
            if end > start {
                edges.push((start, 1));
                edges.push((end, -1));
            }
        }
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut live = 0i64;
        let mut peak = 0i64;
        for (_, delta) in edges {
            live += delta;
            peak = peak.max(live);
        }
        peak.max(0) as u64
    }

    #[test]
    fn two_array_sweep_matches_the_edge_sort_reference() {
        // A small pool of instants makes ties at equal instants,
        // zero-length and inverted intervals common; the specials cover
        // the signed zeros, infinities and NaN.
        const SPECIAL: [f64; 6] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut rng = Seed(17).rng();
        let draw = |rng: &mut slsb_sim::SimRng| match rng.index(8) {
            0 => SPECIAL[rng.index(SPECIAL.len())],
            1 => rng.uniform() * 1e3 - 500.0,
            _ => rng.index(12) as f64 - 4.0,
        };
        for case in 0..120_000 {
            let n = rng.index(if case % 100 == 0 { 400 } else { 24 });
            let iv: Vec<(f64, f64)> = (0..n).map(|_| (draw(&mut rng), draw(&mut rng))).collect();
            assert_eq!(
                peak_overlap(iv.iter().copied()),
                peak_overlap_reference(iv.iter().copied()),
                "case {case}: {iv:?}"
            );
        }
    }

    #[test]
    fn total_order_key_sorts_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in xs.iter().chain([-f64::NAN].iter()) {
            for b in &xs {
                assert_eq!(
                    total_order_key(*a).cmp(&total_order_key(*b)),
                    a.total_cmp(b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn peak_overlap_counts_simultaneous_intervals() {
        assert_eq!(peak_overlap(std::iter::empty()), 0);
        // Two overlapping, one disjoint.
        let iv = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)];
        assert_eq!(peak_overlap(iv.into_iter()), 2);
        // Back-to-back intervals share an instant but never a point.
        let iv = vec![(0.0, 1.0), (1.0, 2.0)];
        assert_eq!(peak_overlap(iv.into_iter()), 1);
        // Empty and inverted intervals are ignored.
        let iv = vec![(1.0, 1.0), (3.0, 2.0), (0.0, 4.0)];
        assert_eq!(peak_overlap(iv.into_iter()), 1);
    }

    #[test]
    fn serverless_bounds_hold_on_a_real_run() {
        let r = run(PlatformKind::AwsServerless, RuntimeKind::Ort14);
        let b = oracle_bound(&r);
        assert!(b.cold_starts <= r.platform.cold_started, "{b:?}");
        let actual = r.platform.cost.total().as_dollars();
        assert!(b.cost_dollars <= actual + 1e-12, "{b:?} vs {actual}");
        assert!((0.0..=1.0).contains(&b.warm_ratio));
        assert!(b.peak_concurrency >= 1);
        assert!(b.cold_score(r.platform.cold_started) <= 100.0);
        assert!(b.cost_score(actual) > 0.0);
    }

    #[test]
    fn instance_billed_platforms_have_no_cold_floor() {
        for platform in [PlatformKind::AwsManagedMl, PlatformKind::AwsGpu] {
            let r = run(platform, RuntimeKind::Tf115);
            let b = oracle_bound(&r);
            assert_eq!(b.cold_starts, 0, "{platform:?}");
            assert!(b.cost_dollars <= r.platform.cost.total().as_dollars() + 1e-12);
            assert!((0.0..=1.0).contains(&b.warm_ratio), "{platform:?} {b:?}");
        }
    }

    #[test]
    fn provisioned_concurrency_lowers_the_cold_floor() {
        let trace = MmppPreset::W40.generate(Seed(5));
        let dep = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        let plain = Executor::default().run(&dep, &trace, Seed(5)).unwrap();
        let dep_pc = dep.with_provisioned_concurrency(4);
        let warm = Executor::default().run(&dep_pc, &trace, Seed(5)).unwrap();
        let b_plain = oracle_bound(&plain);
        let b_warm = oracle_bound(&warm);
        assert!(b_warm.cold_starts <= b_plain.cold_starts);
        assert!(b_warm.cold_starts <= warm.platform.cold_started);
    }

    #[test]
    fn trace_oracle_reads_serverless_exec_windows() {
        let trace = MmppPreset::W40.generate(Seed(5));
        let dep = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        let mut rec = slsb_obs::MemoryRecorder::new();
        let run = Executor::default()
            .run_recorded(&dep, &trace, Seed(5), &mut rec)
            .unwrap();
        let t = trace_oracle(rec.events()).expect("serverless trace has exec events");
        assert!(t.cold_floor <= t.cold_observed, "{t:?}");
        assert!(t.instance_floor >= 1);
        assert!((0.0..=100.0).contains(&t.score()));
        // The record-level bound and the trace-level bound agree on the
        // run's observed cold starts being no better than the floor.
        let b = oracle_bound(&run);
        assert!(b.cold_starts <= run.platform.cold_started);
    }

    #[test]
    fn trace_oracle_is_none_without_serverless_events() {
        let trace = MmppPreset::W40.generate(Seed(5));
        let dep = Deployment::new(PlatformKind::AwsGpu, ModelKind::MobileNet, RuntimeKind::Tf115);
        let mut rec = slsb_obs::MemoryRecorder::new();
        Executor::default()
            .run_recorded(&dep, &trace, Seed(5), &mut rec)
            .unwrap();
        assert!(trace_oracle(rec.events()).is_none());
    }
}
