//! Design-space navigator — the paper's third "opportunity" (Section 6),
//! implemented: sweep the serverless configuration space (memory × runtime
//! × batch size), score each candidate on latency, success ratio and cost,
//! and return the Pareto front plus the cheapest configuration meeting an
//! SLO.

use crate::analyzer::analyze_outcomes;
use crate::executor::Executor;
use crate::plan::{Deployment, PlanError};
use crate::runner::{parallel_map, Jobs};
use serde::{Deserialize, Serialize};
use slsb_model::RuntimeKind;
use slsb_sim::Seed;
use slsb_workload::WorkloadTrace;

/// The grid of configurations to sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorerGrid {
    /// Serverless memory sizes in MB.
    pub memory_mb: Vec<f64>,
    /// Serving runtimes to try.
    pub runtimes: Vec<RuntimeKind>,
    /// Client batch sizes to try.
    pub batch_sizes: Vec<u32>,
}

impl Default for ExplorerGrid {
    fn default() -> Self {
        ExplorerGrid {
            memory_mb: vec![2048.0, 4096.0, 6144.0, 8192.0],
            runtimes: vec![RuntimeKind::Tf115, RuntimeKind::Ort14],
            batch_sizes: vec![1, 2, 4],
        }
    }
}

/// One evaluated configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The configuration.
    pub deployment: Deployment,
    /// Mean latency in seconds (`INFINITY` when nothing succeeded).
    pub mean_latency: f64,
    /// 95th-percentile latency in seconds.
    pub p95_latency: f64,
    /// Success ratio.
    pub success_ratio: f64,
    /// Run cost in dollars.
    pub cost: f64,
}

/// The sweep's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exploration {
    /// All evaluated candidates.
    pub candidates: Vec<Candidate>,
}

impl Exploration {
    /// Candidates not dominated on (mean latency, cost) among those with a
    /// success ratio of at least `min_sr`.
    pub fn pareto_front(&self, min_sr: f64) -> Vec<&Candidate> {
        let eligible: Vec<&Candidate> = self
            .candidates
            .iter()
            .filter(|c| c.success_ratio >= min_sr)
            .collect();
        eligible
            .iter()
            .filter(|c| {
                !eligible.iter().any(|o| {
                    (o.mean_latency < c.mean_latency && o.cost <= c.cost)
                        || (o.mean_latency <= c.mean_latency && o.cost < c.cost)
                })
            })
            .copied()
            .collect()
    }

    /// The cheapest candidate whose p95 latency meets `slo_secs` and whose
    /// success ratio is at least `min_sr`.
    pub fn cheapest_under_slo(&self, slo_secs: f64, min_sr: f64) -> Option<&Candidate> {
        self.candidates
            .iter()
            .filter(|c| c.p95_latency <= slo_secs && c.success_ratio >= min_sr)
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
    }

    /// The fastest candidate with a success ratio of at least `min_sr`.
    pub fn fastest(&self, min_sr: f64) -> Option<&Candidate> {
        self.candidates
            .iter()
            .filter(|c| c.success_ratio >= min_sr)
            .min_by(|a, b| {
                a.mean_latency
                    .partial_cmp(&b.mean_latency)
                    .expect("comparable latencies")
            })
    }
}

/// Sweeps `grid` around `base` (platform and model fixed) on `trace`,
/// fanning grid cells across all available cores.
///
/// Identical to [`explore_jobs`] with [`Jobs::available`]; results are
/// bit-identical for any worker count.
///
/// # Errors
/// Fails when a generated deployment is invalid (e.g. sweeping runtimes on
/// a TF-only platform).
pub fn explore(
    executor: &Executor,
    base: Deployment,
    grid: &ExplorerGrid,
    trace: &WorkloadTrace,
    seed: Seed,
) -> Result<Exploration, PlanError> {
    explore_jobs(executor, base, grid, trace, seed, Jobs::available())
}

/// [`explore`] with an explicit worker count (`--jobs`).
///
/// Grid cells are enumerated in the same memory × runtime × batch order as
/// the sequential sweep, evaluated on `jobs` workers, and collected into a
/// slot vector indexed by cell number — so `candidates` is byte-identical
/// to the sequential path (`jobs = 1`) for any worker count.
///
/// # Errors
/// Fails when a generated deployment is invalid (first invalid cell in
/// grid order, matching the sequential loop).
pub fn explore_jobs(
    executor: &Executor,
    base: Deployment,
    grid: &ExplorerGrid,
    trace: &WorkloadTrace,
    seed: Seed,
    jobs: Jobs,
) -> Result<Exploration, PlanError> {
    let mut cells =
        Vec::with_capacity(grid.memory_mb.len() * grid.runtimes.len() * grid.batch_sizes.len());
    for &memory_mb in &grid.memory_mb {
        for &runtime in &grid.runtimes {
            for &batch in &grid.batch_sizes {
                let mut d = base;
                d.memory_mb = memory_mb;
                d.runtime = runtime;
                d.batch_size = batch;
                cells.push(d);
            }
        }
    }

    let evaluated = parallel_map(jobs, &cells, |_, d| {
        let a = analyze_outcomes(&executor.run_outcomes(d, trace, seed)?);
        Ok(Candidate {
            deployment: *d,
            mean_latency: a.mean_latency().unwrap_or(f64::INFINITY),
            p95_latency: a.latency.map(|l| l.p95).unwrap_or(f64::INFINITY),
            success_ratio: a.success_ratio,
            cost: a.cost_dollars(),
        })
    });

    let candidates = evaluated
        .into_iter()
        .collect::<Result<Vec<_>, PlanError>>()?;
    Ok(Exploration { candidates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slsb_model::ModelKind;
    use slsb_platform::PlatformKind;
    use slsb_sim::SimDuration;
    use slsb_workload::MmppSpec;

    fn trace() -> WorkloadTrace {
        MmppSpec {
            name: "explorer-test",
            rate_high: 20.0,
            rate_low: 5.0,
            mean_high_dwell: SimDuration::from_secs(20),
            mean_low_dwell: SimDuration::from_secs(40),
            duration: SimDuration::from_secs(120),
        }
        .generate(Seed(3))
    }

    fn base() -> Deployment {
        Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Tf115,
        )
    }

    fn small_grid() -> ExplorerGrid {
        ExplorerGrid {
            memory_mb: vec![2048.0, 4096.0],
            runtimes: vec![RuntimeKind::Tf115, RuntimeKind::Ort14],
            batch_sizes: vec![1, 4],
        }
    }

    #[test]
    fn sweep_covers_grid() {
        let e = explore(
            &Executor::default(),
            base(),
            &small_grid(),
            &trace(),
            Seed(1),
        )
        .unwrap();
        assert_eq!(e.candidates.len(), 2 * 2 * 2);
        assert!(e.candidates.iter().all(|c| c.cost > 0.0));
    }

    #[test]
    fn pareto_front_is_nondominated() {
        let e = explore(
            &Executor::default(),
            base(),
            &small_grid(),
            &trace(),
            Seed(1),
        )
        .unwrap();
        let front = e.pareto_front(0.99);
        assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                assert!(
                    !(b.mean_latency < a.mean_latency && b.cost < a.cost),
                    "front member dominated"
                );
            }
        }
    }

    #[test]
    fn ort_appears_on_the_front() {
        // Section 5.2: ORT dominates TF on both latency and cost for
        // MobileNet, so the front should be ORT-only.
        let e = explore(
            &Executor::default(),
            base(),
            &small_grid(),
            &trace(),
            Seed(1),
        )
        .unwrap();
        let front = e.pareto_front(0.99);
        assert!(front
            .iter()
            .any(|c| c.deployment.runtime == RuntimeKind::Ort14));
    }

    #[test]
    fn slo_selection_prefers_cheap() {
        let e = explore(
            &Executor::default(),
            base(),
            &small_grid(),
            &trace(),
            Seed(1),
        )
        .unwrap();
        let loose = e.cheapest_under_slo(30.0, 0.9).expect("something fits");
        for c in &e.candidates {
            if c.p95_latency <= 30.0 && c.success_ratio >= 0.9 {
                assert!(loose.cost <= c.cost);
            }
        }
        // An impossible SLO selects nothing.
        assert!(e.cheapest_under_slo(1e-6, 0.9).is_none());
    }

    #[test]
    fn fastest_ignores_cost() {
        let e = explore(
            &Executor::default(),
            base(),
            &small_grid(),
            &trace(),
            Seed(1),
        )
        .unwrap();
        let f = e.fastest(0.9).unwrap();
        for c in &e.candidates {
            if c.success_ratio >= 0.9 {
                assert!(f.mean_latency <= c.mean_latency);
            }
        }
    }
}
