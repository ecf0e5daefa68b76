//! Parallel run harness: multi-core fan-out of independent simulation jobs
//! with bit-identical, seed-order-stable results.
//!
//! Every simulation in this workspace is a pure function of
//! `(deployment, workload, seed)`, which makes batches embarrassingly
//! parallel. The harness is a std-only work-stealing pool built on
//! [`std::thread::scope`] plus a shared atomic job index: workers claim job
//! ids with `fetch_add`, run them, and the results are merged into a
//! pre-sized slot vector indexed by job id — so the output order (and
//! therefore every downstream aggregate and serialization) never depends on
//! thread scheduling. `jobs = 1` bypasses the pool entirely and runs the
//! exact sequential path.
//!
//! The module also hosts the [`TraceCache`]: the experiment suite replays
//! the same three MMPP presets dozens of times, and regenerating a trace is
//! pure waste once one (seed, preset, scale) realization exists.

use crate::executor::{Executor, RunResult};
use crate::plan::{Deployment, PlanError};
use crate::scenario::WorkloadSpec;
use slsb_sim::Seed;
use slsb_workload::{MmppPreset, WorkloadTrace};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

/// Worker-count policy for a parallel batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(usize);

impl Jobs {
    /// Exactly `n` workers (clamped to at least 1).
    pub fn new(n: usize) -> Jobs {
        Jobs(n.max(1))
    }

    /// One worker per available core (the `--jobs` default).
    pub fn available() -> Jobs {
        Jobs(
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0
    }

    /// Whether this policy runs the inline sequential path.
    pub fn is_sequential(self) -> bool {
        self.0 == 1
    }
}

impl Default for Jobs {
    fn default() -> Self {
        Jobs::available()
    }
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning results
/// in item order.
///
/// Scheduling is work-stealing (a shared atomic index), but each result is
/// written to the slot of its item index, so the returned vector is
/// byte-for-byte identical to the sequential map for any worker count —
/// provided `f` is a pure function of `(index, item)`, which every
/// simulation here is (all randomness derives from per-job seeds).
///
/// # Panics
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn parallel_map<T, R, F>(jobs: Jobs, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.get().min(n);
    if workers <= 1 {
        // The `--jobs 1` contract: the plain sequential loop, no threads.
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        local.push((idx, f(idx, &items[idx])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (idx, result) in handle.join().expect("runner worker panicked") {
                slots[idx] = Some(result);
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("work-stealing index covered every slot"))
        .collect()
}

/// Splits one worker budget between an outer fan-out (e.g. `--jobs`
/// replicas) and the intra-run shard workers each task may spawn, so the
/// two never oversubscribe: with `outer` tasks sharing `total` workers,
/// each task's sharded runs get `max(1, total / min(outer, total))`
/// workers, further capped at the `requested` shard budget. Shard results
/// are worker-count independent, so clamping never changes any output —
/// only how many threads exist at once.
pub fn shard_worker_budget(total: usize, outer: usize, requested: usize) -> usize {
    let total = total.max(1);
    let active_outer = outer.clamp(1, total);
    (total / active_outer).max(1).min(requested.max(1))
}

/// One independent simulation: a deployment serving one workload
/// realization under one seed.
#[derive(Debug, Clone, Copy)]
pub struct RunJob {
    /// The configuration to run.
    pub deployment: Deployment,
    /// The workload to generate.
    pub workload: WorkloadSpec,
    /// The executor seed (client jitter, cold starts, …).
    pub seed: Seed,
    /// The seed the trace is generated from. Callers that fan one base
    /// seed out across jobs should derive this with a substream so the
    /// workload stream stays independent of the executor stream.
    pub trace_seed: Seed,
}

impl RunJob {
    /// A job whose trace seed is the standard `"runner-workload"`
    /// substream of `seed`.
    pub fn new(deployment: Deployment, workload: WorkloadSpec, seed: Seed) -> RunJob {
        RunJob {
            deployment,
            workload,
            seed,
            trace_seed: seed.substream("runner-workload"),
        }
    }
}

/// Evaluates a batch of jobs across `jobs` workers. Results come back in
/// job order, each the exact value the sequential loop would produce.
///
/// # Errors
/// Each slot carries its own [`PlanError`]; one invalid deployment does
/// not poison its siblings.
pub fn run_jobs(
    executor: &Executor,
    jobs: Jobs,
    batch: &[RunJob],
) -> Vec<Result<RunResult, PlanError>> {
    parallel_map(jobs, batch, |_, job| {
        let trace = job.workload.generate(job.trace_seed);
        executor.run(&job.deployment, &trace, job.seed)
    })
}

type TraceKey = (u64, MmppPreset, u64);

static TRACE_CACHE: OnceLock<Mutex<HashMap<TraceKey, Arc<WorkloadTrace>>>> = OnceLock::new();

/// Process-wide cache of generated MMPP preset traces, keyed by
/// `(seed, preset, scale)`.
///
/// The experiment driver replays the same three paper presets for almost
/// every figure; one suite run used to regenerate each trace dozens of
/// times. Generation is deterministic, so the first realization is the
/// only one worth computing. Scale participates in the key by exact bit
/// pattern (`f64::to_bits`) — two scales compare equal iff they generate
/// identical traces.
pub struct TraceCache;

impl TraceCache {
    /// Returns the trace for `(seed, preset, scale)`, generating and
    /// caching it on first request. Generation happens under the cache
    /// lock, so concurrent requests for the same key generate once.
    pub fn preset(seed: Seed, preset: MmppPreset, scale: f64) -> Arc<WorkloadTrace> {
        let key = (seed.0, preset, scale.to_bits());
        let mut map = Self::lock();
        Arc::clone(map.entry(key).or_insert_with(|| {
            Arc::new(
                WorkloadSpec::Preset {
                    which: preset,
                    scale,
                }
                .generate(seed),
            )
        }))
    }

    /// Number of cached traces (diagnostics/tests).
    pub fn entries() -> usize {
        Self::lock().len()
    }

    /// Drops all cached traces (tests; frees memory between suites).
    pub fn clear() {
        Self::lock().clear();
    }

    fn lock() -> std::sync::MutexGuard<'static, HashMap<TraceKey, Arc<WorkloadTrace>>> {
        TRACE_CACHE
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("trace cache poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slsb_model::{ModelKind, RuntimeKind};
    use slsb_platform::PlatformKind;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq = parallel_map(Jobs::new(1), &items, |i, &x| (i as u64) * 1000 + x * x);
        let par = parallel_map(Jobs::new(8), &items, |i, &x| (i as u64) * 1000 + x * x);
        assert_eq!(seq, par);
        assert_eq!(seq[3], 3009);
    }

    #[test]
    fn parallel_map_handles_edge_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(Jobs::new(4), &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(Jobs::new(4), &[7u32], |_, &x| x + 1), vec![8]);
        // More workers than items.
        assert_eq!(
            parallel_map(Jobs::new(64), &[1u32, 2], |_, &x| x * 2),
            vec![2, 4]
        );
    }

    #[test]
    fn shard_worker_budget_splits_without_oversubscribing() {
        // (total workers, outer fan-out, requested shards) → per-task share.
        assert_eq!(shard_worker_budget(8, 4, 8), 2);
        assert_eq!(shard_worker_budget(8, 1, 4), 4);
        // Requested caps the share even when workers are plentiful.
        assert_eq!(shard_worker_budget(16, 1, 3), 3);
        // More outer tasks than workers: every task degrades to sequential.
        assert_eq!(shard_worker_budget(4, 8, 16), 1);
        assert_eq!(shard_worker_budget(1, 5, 8), 1);
        // Non-divisible splits round down but never below one.
        assert_eq!(shard_worker_budget(16, 3, 100), 5);
        // Degenerate inputs all clamp to one.
        assert_eq!(shard_worker_budget(0, 0, 0), 1);
    }

    #[test]
    fn jobs_clamps_to_one() {
        assert_eq!(Jobs::new(0).get(), 1);
        assert!(Jobs::new(1).is_sequential());
        assert!(!Jobs::new(2).is_sequential());
        assert!(Jobs::available().get() >= 1);
    }

    #[test]
    fn run_jobs_matches_sequential_executor() {
        let executor = Executor::default();
        let dep = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        let workload = WorkloadSpec::Preset {
            which: MmppPreset::W40,
            scale: 0.05,
        };
        let batch: Vec<RunJob> = (0..6)
            .map(|i| RunJob::new(dep, workload, Seed(500 + i)))
            .collect();
        let par = run_jobs(&executor, Jobs::new(4), &batch);
        let seq = run_jobs(&executor, Jobs::new(1), &batch);
        assert_eq!(par.len(), 6);
        for (p, s) in par.iter().zip(&seq) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.records, s.records);
            assert_eq!(p.cold_starts, s.cold_starts);
            assert_eq!(p.platform.invocations, s.platform.invocations);
        }
    }

    #[test]
    fn run_jobs_isolates_per_job_errors() {
        let executor = Executor::default();
        let good = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        // GCP ManagedML rejects ORT — an invalid plan.
        let bad = Deployment::new(
            PlatformKind::GcpManagedMl,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        let workload = WorkloadSpec::Poisson {
            rate: 5.0,
            duration_s: 5.0,
        };
        let batch = [
            RunJob::new(good, workload, Seed(1)),
            RunJob::new(bad, workload, Seed(1)),
            RunJob::new(good, workload, Seed(2)),
        ];
        let out = run_jobs(&executor, Jobs::new(3), &batch);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok());
    }

    #[test]
    fn trace_cache_returns_identical_instance() {
        let a = TraceCache::preset(Seed(9000), MmppPreset::W40, 0.01);
        let b = TraceCache::preset(Seed(9000), MmppPreset::W40, 0.01);
        assert!(Arc::ptr_eq(&a, &b), "second request should hit the cache");
        // A different key generates a different trace.
        let c = TraceCache::preset(Seed(9001), MmppPreset::W40, 0.01);
        assert!(!Arc::ptr_eq(&a, &c));
        // The cached trace equals a fresh generation.
        let fresh = WorkloadSpec::Preset {
            which: MmppPreset::W40,
            scale: 0.01,
        }
        .generate(Seed(9000));
        assert_eq!(*a, fresh);
    }
}
