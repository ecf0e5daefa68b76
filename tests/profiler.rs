//! Determinism tests for the self-profiler.
//!
//! Two properties are pinned here:
//!
//! 1. **Byte identity** — enabling the profiler changes no trace bytes.
//!    The same pinned run is recorded with profiling off and on, and the
//!    serialized JSONL must match byte for byte.
//! 2. **Shape determinism** — for a fixed seed, the profile *shape*
//!    (label tree + call counts, wall times and allocations zeroed) is
//!    identical across `--jobs 1` vs `--jobs 4` and `--shards 1` vs
//!    `--shards 4`: cell roots attach to the merged tree independently of
//!    which worker thread ran them, and the merge is order-insensitive.
//!
//! The profiler's enable flag and merged tree are process-global, so all
//! phases run inside ONE test function — Rust's parallel test runner must
//! never interleave another profiled run with these.

use slsbench::core::{replicate_jobs, Deployment, Executor, ExecutorConfig, Jobs, WorkloadSpec};
use slsbench::model::{ModelKind, RuntimeKind};
use slsbench::obs::{wire, MemoryRecorder};
use slsbench::platform::PlatformKind;
use slsbench::sim::{prof, ProfileNode, Seed};

const SEED: Seed = Seed(4242);

fn workload() -> WorkloadSpec {
    WorkloadSpec::Mmpp {
        rate_high: 25.0,
        rate_low: 6.0,
        dwell_high_s: 20.0,
        dwell_low_s: 40.0,
        duration_s: 120.0,
    }
}

fn deployment() -> Deployment {
    Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    )
}

/// Records the pinned run and serializes its trace to JSONL bytes.
fn recorded_jsonl(shards: usize) -> String {
    let trace = workload().generate(SEED.substream("profiler-test"));
    let mut exec = Executor::new(ExecutorConfig::default());
    if shards > 1 {
        exec = exec.with_shards(shards);
    }
    let mut rec = MemoryRecorder::new();
    exec.run_recorded(&deployment(), &trace, SEED, &mut rec)
        .unwrap();
    let mut out = Vec::new();
    for ev in rec.into_events() {
        wire::write_event(&ev, &mut out);
        out.push(b'\n');
    }
    String::from_utf8(out).unwrap()
}

/// Runs the replication harness under the profiler and returns the
/// merged tree's shape.
fn profiled_shape(jobs: usize, shards: usize) -> Vec<ProfileNode> {
    prof::reset();
    prof::enable(true);
    let mut exec = Executor::new(ExecutorConfig::default());
    if shards > 1 {
        exec = exec.with_shards(shards);
    }
    replicate_jobs(&exec, &deployment(), workload(), SEED.0, 3, Jobs::new(jobs)).unwrap();
    prof::enable(false);
    prof::take().iter().map(ProfileNode::shape).collect()
}

#[test]
fn profiler_is_deterministic_and_changes_no_trace_bytes() {
    // --- 1. Byte identity, profiling off vs on, sequential and sharded.
    for shards in [1, 4] {
        prof::reset();
        prof::enable(false);
        let off = recorded_jsonl(shards);
        prof::reset();
        prof::enable(true);
        let on = recorded_jsonl(shards);
        prof::enable(false);
        prof::reset();
        assert_eq!(
            off, on,
            "profiling must not change trace bytes (shards={shards})"
        );
        // The profiled run must actually have profiled something, or the
        // byte comparison proves nothing.
    }

    // --- 2. The profiled run produces a non-trivial tree at all.
    let base = profiled_shape(1, 1);
    assert!(!base.is_empty(), "profiled run produced an empty tree");
    let labels: Vec<&str> = base.iter().map(|n| n.label.as_str()).collect();
    assert!(
        labels.contains(&"executor/cell"),
        "missing executor/cell root in {labels:?}"
    );
    assert!(
        labels.contains(&"workload/generate"),
        "missing workload/generate root in {labels:?}"
    );
    let cell = base.iter().find(|n| n.label == "executor/cell").unwrap();
    assert!(
        cell.children.iter().any(|c| c.label == "executor/engine"),
        "executor/cell has no engine child"
    );

    // --- 3. Same seed => identical shape across worker budgets.
    let jobs4 = profiled_shape(4, 1);
    assert_eq!(base, jobs4, "profile shape differs between --jobs 1 and 4");

    let shards1 = profiled_shape(1, 4);
    let shards4 = profiled_shape(4, 4);
    assert_eq!(
        shards1, shards4,
        "profile shape differs between shard worker budgets"
    );

    // --- 4. Disabled-profiler runs accumulate nothing.
    prof::reset();
    prof::enable(false);
    recorded_jsonl(1);
    assert!(
        prof::take().is_empty(),
        "disabled profiler must record nothing"
    );
}
