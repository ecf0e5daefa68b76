//! Reproducibility contract: for a fixed seed and configuration, the whole
//! pipeline — workload generation, execution, analysis, rendering — is
//! bit-for-bit identical across runs; different seeds differ.

use slsbench::core::{
    analyze, explore_jobs, replicate_jobs, BatchPolicy, Deployment, Executor, ExecutorConfig,
    ExplorerGrid, FleetPartition, FleetRunError, FleetRunner, FleetScenario, FleetSource, Jobs,
    RetryPolicy, RunResult, WorkloadSpec, FLEET_CELLS,
};
use slsbench::model::{ModelKind, RuntimeKind};
use slsbench::obs::{trace_view, JsonlRecorder, MemoryRecorder, SpanOutcome};
use slsbench::platform::{FaultPlan, PlatformKind};
use slsbench::sim::event::ReferenceHeap;
use slsbench::sim::{Seed, SimDuration, StoreKind, Wheel};
use slsbench::workload::{MmppPreset, MmppSpec, WorkloadTrace};

fn trace(seed: Seed) -> WorkloadTrace {
    MmppSpec {
        name: "det",
        rate_high: 60.0,
        rate_low: 15.0,
        mean_high_dwell: SimDuration::from_secs(30),
        mean_low_dwell: SimDuration::from_secs(60),
        duration: SimDuration::from_secs(240),
    }
    .generate(seed)
}

fn digest(platform: PlatformKind, seed: Seed) -> String {
    let tr = trace(seed);
    let run = Executor::default()
        .run(
            &Deployment::new(platform, ModelKind::Albert, RuntimeKind::Tf115),
            &tr,
            seed,
        )
        .unwrap();
    let a = analyze(&run);
    serde_json_digest(&a)
}

fn serde_json_digest(a: &slsbench::core::Analysis) -> String {
    // Analysis is Serialize; the JSON string is a convenient full-state
    // fingerprint.
    serde_json::to_string(a).expect("serializable analysis")
}

#[test]
fn identical_seeds_identical_everything() {
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::GcpServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
        PlatformKind::AwsGpu,
    ] {
        let a = digest(platform, Seed(77));
        let b = digest(platform, Seed(77));
        assert_eq!(a, b, "{platform:?} must be deterministic");
    }
}

#[test]
fn different_seeds_differ() {
    let a = digest(PlatformKind::AwsServerless, Seed(1));
    let b = digest(PlatformKind::AwsServerless, Seed(2));
    assert_ne!(a, b);
}

#[test]
fn workload_generation_is_stable() {
    // The trace itself is deterministic and CSV round-trips exactly.
    let a = trace(Seed(5));
    let b = trace(Seed(5));
    assert_eq!(a, b);
    let parsed = WorkloadTrace::from_csv(&a.to_csv()).unwrap();
    assert_eq!(parsed.arrivals(), a.arrivals());
}

#[test]
fn component_substreams_are_isolated() {
    // Changing only the *model* must not change the generated workload
    // (workload randomness is a separate substream of the same seed).
    let seed = Seed(11);
    let tr = trace(seed);
    let exec = Executor::default();
    let r1 = exec
        .run(
            &Deployment::new(
                PlatformKind::AwsCpu,
                ModelKind::MobileNet,
                RuntimeKind::Tf115,
            ),
            &tr,
            seed,
        )
        .unwrap();
    let r2 = exec
        .run(
            &Deployment::new(PlatformKind::AwsCpu, ModelKind::Vgg, RuntimeKind::Tf115),
            &tr,
            seed,
        )
        .unwrap();
    // Same arrivals, same client payload assignment; only service differs.
    let arr1: Vec<_> = r1
        .records
        .iter()
        .map(|r| (r.arrival, r.payload_bytes))
        .collect();
    let arr2: Vec<_> = r2
        .records
        .iter()
        .map(|r| (r.arrival, r.payload_bytes))
        .collect();
    assert_eq!(arr1, arr2);
}

#[test]
fn replication_is_identical_across_worker_counts() {
    // The parallel harness contract: fanning replicas across threads must
    // not change a single byte of the result. Serialized JSON is the
    // strictest equality we can check — field order, float formatting and
    // all.
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Ort14,
    );
    let workload = WorkloadSpec::Preset {
        which: MmppPreset::W40,
        scale: 0.05,
    };
    let exec = Executor::default();
    let seq = replicate_jobs(&exec, &dep, workload, 400, 6, Jobs::new(1)).unwrap();
    let par = replicate_jobs(&exec, &dep, workload, 400, 6, Jobs::new(8)).unwrap();
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&par).unwrap(),
        "replicate --jobs 8 must be byte-identical to --jobs 1"
    );
}

#[test]
fn recording_is_write_only() {
    // Attaching a recorder must not perturb the run: the analysis of a
    // recorded run is byte-identical to the unrecorded one.
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
    ] {
        let seed = Seed(77);
        let tr = trace(seed);
        let dep = Deployment::new(platform, ModelKind::Albert, RuntimeKind::Tf115);
        let exec = Executor::default();
        let plain = exec.run(&dep, &tr, seed).unwrap();
        let mut rec = MemoryRecorder::new();
        let recorded = exec.run_recorded(&dep, &tr, seed, &mut rec).unwrap();
        assert_eq!(
            serde_json_digest(&analyze(&plain)),
            serde_json_digest(&analyze(&recorded)),
            "{platform:?}: recording must not change results"
        );
        assert!(
            !rec.events().is_empty(),
            "{platform:?}: the recorder must have seen events"
        );
    }
}

#[test]
fn recorded_traces_are_byte_identical() {
    // Two recorded runs of the same seed produce the same JSONL bytes.
    let seed = Seed(42);
    let tr = trace(seed);
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Ort14,
    );
    let exec = Executor::default();
    let dump = |s: Seed| -> Vec<u8> {
        let mut buf = Vec::new();
        let mut rec = JsonlRecorder::new(&mut buf);
        exec.run_recorded(&dep, &tr, s, &mut rec).unwrap();
        rec.finish().unwrap();
        buf
    };
    let a = dump(seed);
    let b = dump(seed);
    assert!(!a.is_empty());
    assert_eq!(a, b, "trace output must be deterministic");
}

#[test]
fn timer_wheel_and_heap_kernels_are_byte_identical() {
    // The timer-wheel kernel is a pure scheduling optimization: swapping
    // it for the reference binary heap must not move a single byte of the
    // recorded trace or the analysis, on any platform family, nor under
    // retries and packet loss, which schedule client receipts and attempt
    // timeouts.
    let seed = Seed(42);
    let tr = trace(seed);
    let mut lossy = FaultPlan::none();
    lossy.packet_loss = 0.1;
    let retrying = Executor::new(ExecutorConfig {
        retry: RetryPolicy::standard(),
        ..ExecutorConfig::default()
    })
    .with_faults(lossy);
    let plain = Executor::default();
    let cases = [
        (PlatformKind::AwsServerless, &plain),
        (PlatformKind::AwsManagedMl, &plain),
        (PlatformKind::AwsCpu, &plain),
        (PlatformKind::GcpGpu, &plain),
        (PlatformKind::AwsServerless, &retrying),
    ];
    fn dump<K: StoreKind>(
        exec: &Executor,
        dep: &Deployment,
        tr: &WorkloadTrace,
        seed: Seed,
    ) -> (Vec<u8>, String, u64) {
        let mut buf = Vec::new();
        let mut rec = JsonlRecorder::new(&mut buf);
        let run = exec.run_on::<K>(dep, tr, seed, Some(&mut rec)).unwrap();
        rec.finish().unwrap();
        (buf, serde_json_digest(&analyze(&run)), run.retries)
    }
    for (platform, exec) in cases {
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        let (wheel_trace, wheel_analysis, retries) = dump::<Wheel>(exec, &dep, &tr, seed);
        let (heap_trace, heap_analysis, _) = dump::<ReferenceHeap>(exec, &dep, &tr, seed);
        assert!(!wheel_trace.is_empty());
        let retry_mode = exec.config().retry.enabled();
        assert_eq!(
            retries > 0,
            retry_mode,
            "{platform:?}: retries fire only in retry mode"
        );
        assert_eq!(
            wheel_trace, heap_trace,
            "{platform:?} (retry {retry_mode}): kernels must record identical traces"
        );
        assert_eq!(
            wheel_analysis, heap_analysis,
            "{platform:?} (retry {retry_mode}): kernels must analyze identically"
        );
    }
}

#[test]
fn empty_fault_plan_and_disabled_retry_are_a_byte_identical_noop() {
    // The fault/retry layer's backward-compatibility pin: an executor that
    // explicitly installs an empty `FaultPlan` and the disabled
    // `RetryPolicy` must not move a single byte of either the recorded
    // JSONL trace or the analysis, relative to a plain `Executor::default()`.
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
    ] {
        let seed = Seed(77);
        let tr = trace(seed);
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        let dump = |exec: &Executor| -> (String, Vec<u8>) {
            let mut buf = Vec::new();
            let mut rec = JsonlRecorder::new(&mut buf);
            let run = exec.run_recorded(&dep, &tr, seed, &mut rec).unwrap();
            rec.finish().unwrap();
            (serde_json_digest(&analyze(&run)), buf)
        };
        let baseline = dump(&Executor::default());
        let noop_cfg = ExecutorConfig {
            retry: RetryPolicy::disabled(),
            ..ExecutorConfig::default()
        };
        let noop = dump(&Executor::new(noop_cfg).with_faults(FaultPlan::none()));
        assert_eq!(
            baseline.0, noop.0,
            "{platform:?}: analysis must be byte-identical"
        );
        assert_eq!(
            baseline.1, noop.1,
            "{platform:?}: recorded trace must be byte-identical"
        );
    }
}

#[test]
fn faulted_replication_is_identical_across_worker_counts() {
    // The --jobs contract extends to fault injection and retries: the
    // merged replication summary must be byte-identical for any worker
    // count when a fault plan and retry policy are active.
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Ort14,
    );
    let workload = WorkloadSpec::Preset {
        which: MmppPreset::W40,
        scale: 0.05,
    };
    let mut plan = FaultPlan::none();
    plan.crash_mid_exec = 0.1;
    plan.packet_loss = 0.1;
    let cfg = ExecutorConfig {
        retry: RetryPolicy::standard(),
        ..ExecutorConfig::default()
    };
    let exec = Executor::new(cfg).with_faults(plan);
    let seq = replicate_jobs(&exec, &dep, workload, 400, 6, Jobs::new(1)).unwrap();
    let par = replicate_jobs(&exec, &dep, workload, 400, 6, Jobs::new(8)).unwrap();
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&par).unwrap(),
        "faulted replicate --jobs 8 must be byte-identical to --jobs 1"
    );
}

#[test]
fn span_phases_sum_to_latency() {
    // The acceptance contract for request spans: for every successful
    // request, batch + net_in + queued + exec + net_out equals the
    // end-to-end latency the executor recorded, exactly (integer µs).
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
    ] {
        let seed = Seed(9);
        let tr = trace(seed);
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        let mut rec = MemoryRecorder::new();
        let run = Executor::default()
            .run_recorded(&dep, &tr, seed, &mut rec)
            .unwrap();
        let spans = trace_view::spans(rec.events());
        assert_eq!(
            spans.len(),
            run.records.len(),
            "{platform:?}: one span per request"
        );
        let mut successes = 0u64;
        for span in &spans {
            let record = &run.records[span.request as usize];
            assert_eq!(record.index as u64, span.request);
            if span.outcome == SpanOutcome::Success {
                let latency = record.latency.expect("success implies latency");
                assert_eq!(
                    span.total(),
                    latency,
                    "{platform:?} request {}: phase sum must equal latency",
                    span.request
                );
                successes += 1;
            }
        }
        assert!(successes > 0, "{platform:?}: expected successful requests");
    }
}

#[test]
fn sharded_runs_are_identical_for_any_worker_budget() {
    // The intra-run sharding contract: the merged result of a sharded run
    // is byte-identical for every shard worker budget — across platform
    // families, with fault injection and retries active, trace recording
    // on. `shards(1)` is the sequential reference; higher budgets differ
    // only in how many threads replay cells.
    let seed = Seed(314);
    let tr = trace(seed);
    let mut plan = FaultPlan::none();
    plan.crash_mid_exec = 0.05;
    plan.packet_loss = 0.05;
    let retry_cfg = ExecutorConfig {
        retry: RetryPolicy::standard(),
        ..ExecutorConfig::default()
    };
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
        PlatformKind::GcpGpu,
    ] {
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        let variants = [
            ("plain", Executor::default()),
            ("faulted", Executor::default().with_faults(plan.clone())),
            (
                "retrying",
                Executor::new(retry_cfg).with_faults(plan.clone()),
            ),
        ];
        for (label, base) in variants {
            let dump = |workers: usize| {
                let exec = base.clone().with_shards(workers);
                let mut buf = Vec::new();
                let mut rec = JsonlRecorder::new(&mut buf);
                let run = exec.run_recorded(&dep, &tr, seed, &mut rec).unwrap();
                rec.finish().unwrap();
                (serde_json_digest(&analyze(&run)), buf, run.cold_starts)
            };
            let reference = dump(1);
            assert!(!reference.1.is_empty());
            for workers in [2, 8] {
                let sharded = dump(workers);
                assert_eq!(
                    reference.0, sharded.0,
                    "{platform:?}/{label}: shards({workers}) analysis must equal shards(1)"
                );
                assert_eq!(
                    reference.1, sharded.1,
                    "{platform:?}/{label}: shards({workers}) trace must equal shards(1)"
                );
                assert_eq!(
                    reference.2, sharded.2,
                    "{platform:?}/{label}: shards({workers}) cold starts must equal shards(1)"
                );
            }
        }
    }
}

#[test]
fn unsharded_run_is_the_one_cell_case() {
    // Both executor modes run the same cell model: with one client, the
    // sharded run is a single cell on the seed's ("shard", 0) substream,
    // which is exactly an unsharded run handed that substream as its seed.
    // Records, analysis and recorded JSONL must all agree, with retries
    // and a fault plan active.
    let seed = Seed(2718);
    let tr = trace(seed);
    let mut plan = FaultPlan::none();
    plan.crash_mid_exec = 0.05;
    plan.packet_loss = 0.05;
    let cfg = ExecutorConfig {
        clients: 1,
        retry: RetryPolicy::standard(),
        ..ExecutorConfig::default()
    };
    let exec = Executor::new(cfg).with_faults(plan);
    for platform in [PlatformKind::AwsServerless, PlatformKind::AwsCpu] {
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        let dump = |exec: &Executor, seed: Seed| {
            let mut buf = Vec::new();
            let mut rec = JsonlRecorder::new(&mut buf);
            let run = exec.run_recorded(&dep, &tr, seed, &mut rec).unwrap();
            rec.finish().unwrap();
            let digest = serde_json_digest(&analyze(&run));
            (run.records, digest, buf, run.cold_starts)
        };
        let unsharded = dump(&exec, seed.substream_indexed("shard", 0));
        let sharded = dump(&exec.clone().with_shards(1), seed);
        assert!(!unsharded.0.is_empty());
        assert_eq!(unsharded.0, sharded.0, "{platform:?}: records must match");
        assert_eq!(unsharded.1, sharded.1, "{platform:?}: analysis must match");
        assert_eq!(unsharded.2, sharded.2, "{platform:?}: trace must match");
        assert_eq!(
            unsharded.3, sharded.3,
            "{platform:?}: cold starts must match"
        );
    }
}

/// Checks a run's cold-start table against its records: sorted by
/// index without duplicates, with an entry exactly for the cold records.
fn check_cold_table(run: &RunResult, case: &str) {
    let table = &run.cold_starts;
    assert!(
        table.windows(2).all(|w| w[0].0 < w[1].0),
        "{case}: the table is not strictly sorted by index"
    );
    for (i, r) in run.records.iter().enumerate() {
        assert_eq!(r.index, i, "{case}: records in trace order");
        assert_eq!(
            r.cold,
            run.cold_start(i).is_some(),
            "{case}: record {i}'s cold flag disagrees with the table"
        );
    }
    assert_eq!(
        table.len(),
        run.records.iter().filter(|r| r.cold).count(),
        "{case}: an entry per cold record"
    );
    let walked: Vec<_> = run
        .records_with_cold_starts()
        .filter_map(|(r, bd)| Some((r.index, *bd?)))
        .collect();
    assert_eq!(&walked, table, "{case}: the walk reads the table in order");
}

#[test]
fn cold_start_tables_match_the_records_for_any_worker_budget() {
    // Every run keeps its cold-start breakdowns in a side table sorted by
    // record index. Whatever the batching, provisioning, retries and
    // faults, and however the run is sharded, the table must hold one
    // entry exactly per cold record and be the same for every worker
    // budget.
    let seed = Seed(1618);
    let tr = trace(seed);
    let mut faults = FaultPlan::none();
    faults.crash_mid_exec = 0.05;
    faults.packet_loss = 0.05;
    faults.client_jitter_ms = 25.0;
    let batched = |policy| {
        Executor::new(ExecutorConfig {
            batch_override: Some(policy),
            ..ExecutorConfig::default()
        })
    };
    let serverless = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let cases = [
        ("plain", serverless, Executor::default()),
        (
            "provisioned",
            serverless.with_provisioned_concurrency(1),
            Executor::default(),
        ),
        ("fixed(4)", serverless, batched(BatchPolicy::Fixed(4))),
        (
            "adaptive",
            serverless,
            batched(BatchPolicy::Adaptive {
                max_wait: SimDuration::from_millis(200),
                max_batch: 8,
            }),
        ),
        (
            "retrying",
            serverless,
            Executor::new(ExecutorConfig {
                retry: RetryPolicy::standard(),
                ..ExecutorConfig::default()
            })
            .with_faults(faults),
        ),
    ];
    for (label, dep, exec) in cases {
        let mut sharded_table = None;
        for shards in [0, 1, 2] {
            let exec = if shards == 0 {
                exec.clone()
            } else {
                exec.clone().with_shards(shards)
            };
            let run = exec.run(&dep, &tr, seed).unwrap();
            let case = format!("{label}, shards {shards}");
            check_cold_table(&run, &case);
            // A sharded client's share of the load can fit its
            // provisioned instance, so only the whole fleet must go cold.
            if shards == 0 || label != "provisioned" {
                assert!(!run.cold_starts.is_empty(), "{case}: no cold start at all");
            }
            if shards > 0 {
                let table = sharded_table.get_or_insert_with(|| run.cold_starts.clone());
                assert_eq!(
                    *table, run.cold_starts,
                    "{case}: table differs from shards 1"
                );
            }
        }
    }
}

/// Runs `f` on a brand-new thread, whose run arena has never been used.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().unwrap())
}

#[test]
fn run_arena_recycling_is_invisible() {
    // The executor recycles run-lifetime buffers in a thread-local arena.
    // A run's bytes must not depend on what ran before it on the same
    // thread: runs on a dirty arena (after runs of different shapes,
    // platforms and modes: sharded, retrying, recorded) must match the
    // same runs each on a brand-new thread whose arena has never been
    // used — records, analysis and recorded trace bytes alike.
    let seed = Seed(4242);
    let dep = |p: PlatformKind| Deployment::new(p, ModelKind::MobileNet, RuntimeKind::Tf115);
    let serverless = dep(PlatformKind::AwsServerless);
    let mut faults = FaultPlan::none();
    faults.packet_loss = 0.1;
    let retrying = Executor::new(ExecutorConfig {
        retry: RetryPolicy::standard(),
        ..ExecutorConfig::default()
    })
    .with_faults(faults.clone());
    let plain = Executor::default();
    // Lost packets leave requests the platform never answers, whose spans
    // a stale arena would fill in.
    let lossy = Executor::default().with_faults(faults);
    let tr = trace(seed);
    let recorded = |exec: &Executor| -> Vec<u8> {
        let mut buf = Vec::new();
        let mut rec = JsonlRecorder::new(&mut buf);
        exec.run_recorded(&serverless, &tr, seed, &mut rec).unwrap();
        rec.finish().unwrap();
        buf
    };
    let records = |exec: &Executor| {
        let run = exec.run(&serverless, &tr, seed).unwrap();
        let digest = serde_json_digest(&analyze(&run));
        (run.records, run.cold_starts, digest)
    };
    let fresh_plain = on_fresh_thread(|| records(&plain));
    let fresh_retrying = on_fresh_thread(|| records(&retrying));
    let fresh_trace = on_fresh_thread(|| recorded(&lossy));
    assert!(!fresh_trace.is_empty());

    // Dirty the arena: different trace sizes, platforms, a sharded run, a
    // retrying run (response log, attempt and resolution tables) and a
    // recorded run (span scratch and invocation map).
    let other = trace(Seed(777));
    plain
        .run(&dep(PlatformKind::AwsCpu), &other, Seed(777))
        .unwrap();
    plain
        .run(&dep(PlatformKind::AwsManagedMl), &tr, Seed(9))
        .unwrap();
    plain
        .clone()
        .with_shards(2)
        .run(&serverless, &tr, seed)
        .unwrap();
    retrying
        .run(&dep(PlatformKind::AwsGpu), &other, Seed(778))
        .unwrap();
    recorded(&retrying);
    assert!(
        records(&plain) == fresh_plain,
        "a recycled arena must not leak state into a plain run"
    );
    assert!(
        recorded(&lossy) == fresh_trace,
        "a recycled arena must not leak state into a recorded run's trace"
    );
    assert!(
        records(&retrying) == fresh_retrying,
        "a recycled arena must not leak state into a retrying run"
    );
}

fn fleet_scenario() -> FleetScenario {
    // Two profiles so the round-robin assignment exercises both, enough
    // apps to populate every fixed cell with several slots, and a
    // duration long enough for cold starts, queueing, and idle gaps.
    FleetScenario::from_json(
        r#"{
        "name": "det fleet",
        "seed": 3141,
        "fleet": {
            "kind": "synth",
            "apps": 29,
            "zipf_exponent": 1.1,
            "total_rate": 60.0,
            "mean_busy_s": 10.0,
            "median_idle_s": 20.0,
            "idle_sigma": 1.4,
            "duration_s": 180.0
        },
        "profiles": {
            "edge": {
                "platform": "AwsServerless",
                "model": "MobileNet",
                "runtime": "Ort14",
                "memory_mb": 2048.0,
                "provisioned_concurrency": 0,
                "batch_size": 1,
                "extra_container_mb": 0.0,
                "extra_download_mb": 0.0,
                "samples_per_request": 1,
                "inference_repeats": 1
            },
            "text": {
                "platform": "GcpServerless",
                "model": "Albert",
                "runtime": "Tf115",
                "memory_mb": 4096.0,
                "provisioned_concurrency": 0,
                "batch_size": 1,
                "extra_container_mb": 0.0,
                "extra_download_mb": 0.0,
                "samples_per_request": 1,
                "inference_repeats": 1
            }
        },
        "timeout_s": 60.0
    }"#,
    )
    .unwrap()
}

#[test]
fn fleet_runs_are_identical_for_any_worker_budget() {
    // The fleet engine's --jobs/--shards contract: both flags only set the
    // thread budget replaying fixed cells, so every worker count must
    // produce the same bytes — per-app results, merged platform report,
    // and the recorded JSONL trace alike.
    let plan = fleet_scenario().resolve(None).unwrap();
    let seed = Seed(3141);
    let dump = |workers: usize| -> (String, Vec<u8>) {
        let runner = FleetRunner::default().with_workers(workers);
        let mut buf = Vec::new();
        let mut rec = JsonlRecorder::new(&mut buf);
        let run = runner.run_recorded(&plan, seed, &mut rec).unwrap();
        rec.finish().unwrap();
        let digest = format!(
            "{}|{}|{}|{:?}",
            serde_json::to_string(&run.apps).unwrap(),
            run.requests,
            run.engine_events,
            run.platform
        );
        (digest, buf)
    };
    let reference = dump(1);
    assert!(!reference.1.is_empty(), "fleet trace must record events");
    for workers in [2, 4, 8] {
        let parallel = dump(workers);
        assert_eq!(
            reference.0, parallel.0,
            "fleet workers({workers}) results must equal workers(1)"
        );
        assert_eq!(
            reference.1, parallel.1,
            "fleet workers({workers}) trace must equal workers(1)"
        );
    }
}

/// The JSONL bytes a traced fleet run of `plan` records on `workers`.
fn fleet_jsonl(plan: &slsbench::core::FleetPlan, workers: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut rec = JsonlRecorder::new(&mut buf);
    FleetRunner::default()
        .with_workers(workers)
        .run_recorded(plan, Seed(3141), &mut rec)
        .unwrap();
    rec.finish().unwrap();
    buf
}

#[test]
fn streamed_fleet_trace_keeps_cell_order_when_the_first_cell_is_heaviest() {
    // A steep Zipf fleet puts its head app alone in cell 0, which then
    // weighs several times any other cell: on several workers the helpers
    // finish later cells first, and those must wait for cell 0.
    let mut sc = fleet_scenario();
    let FleetSource::Synth {
        apps,
        zipf_exponent,
        ..
    } = &mut sc.fleet
    else {
        unreachable!("the fleet scenario is synthesized")
    };
    (*apps, *zipf_exponent) = (120, 1.6);
    let plan = sc.resolve(None).unwrap();
    let part = FleetPartition::compute(&plan, FLEET_CELLS);
    let next = part.weights[1..].iter().copied().fold(0.0, f64::max);
    assert!(
        part.weights[0] > 3.0 * next,
        "cell 0 must be much the heaviest: {:?}",
        part.weights
    );
    let reference = fleet_jsonl(&plan, 1);
    assert!(!reference.is_empty());
    // Which cells the helpers run depends on thread timing, so each budget
    // runs several times.
    for workers in [2, 4, 2, 4, 2, 4] {
        assert!(
            reference == fleet_jsonl(&plan, workers),
            "fleet workers({workers}) trace must equal workers(1)"
        );
    }
}

#[test]
fn streamed_sharded_trace_keeps_cell_order_with_retries_and_faults() {
    let seed = Seed(2718);
    let tr = trace(seed);
    let mut faults = FaultPlan::none();
    faults.crash_mid_exec = 0.05;
    faults.packet_loss = 0.1;
    let cfg = ExecutorConfig {
        retry: RetryPolicy::standard(),
        ..ExecutorConfig::default()
    };
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let jsonl = |workers: usize| -> (u64, Vec<u8>) {
        let exec = Executor::new(cfg)
            .with_faults(faults.clone())
            .with_shards(workers);
        let mut buf = Vec::new();
        let mut rec = JsonlRecorder::new(&mut buf);
        let run = exec.run_recorded(&dep, &tr, seed, &mut rec).unwrap();
        rec.finish().unwrap();
        (run.retries, buf)
    };
    let (retries, reference) = jsonl(1);
    assert!(retries > 0, "the faulted run must retry");
    // Which cells the helpers run depends on thread timing, so each budget
    // runs several times.
    for workers in [2, 4, 2, 4, 2, 4] {
        assert!(
            reference == jsonl(workers).1,
            "shards({workers}) trace must equal shards(1)"
        );
    }
}

#[test]
fn a_fleet_run_that_fails_records_nothing() {
    // An invalid deployment in the last cell, edited in after `resolve`:
    // every earlier cell could stream before that cell fails to build, so
    // the run must reject the plan before its first event.
    let mut plan = fleet_scenario().resolve(None).unwrap();
    let part = FleetPartition::compute(&plan, FLEET_CELLS.min(plan.spec.apps.len()));
    let last = part.cells.last().unwrap()[0] as usize;
    plan.deployments[last].memory_mb = 50.0;
    for workers in [1, 4] {
        let mut rec = MemoryRecorder::new();
        let result =
            FleetRunner::default()
                .with_workers(workers)
                .run_recorded(&plan, Seed(3141), &mut rec);
        assert!(
            matches!(result, Err(FleetRunError::Plan(_))),
            "workers({workers}): an invalid deployment must fail the run"
        );
        assert!(
            rec.events().is_empty(),
            "workers({workers}): a failed run recorded {} events",
            rec.events().len()
        );
    }
}

#[test]
fn fleet_recording_is_write_only() {
    // Attaching a recorder must not perturb a fleet run.
    let plan = fleet_scenario().resolve(None).unwrap();
    let seed = Seed(3141);
    let digest = |run: &slsbench::core::FleetRunResult| -> String {
        format!(
            "{}|{}|{}|{:?}",
            serde_json::to_string(&run.apps).unwrap(),
            run.requests,
            run.engine_events,
            run.platform
        )
    };
    let runner = FleetRunner::default().with_workers(4);
    let plain = runner.run(&plan, seed).unwrap();
    let mut rec = MemoryRecorder::new();
    let recorded = runner.run_recorded(&plan, seed, &mut rec).unwrap();
    assert_eq!(
        digest(&plain),
        digest(&recorded),
        "recording must not change fleet results"
    );
    assert!(!rec.events().is_empty());
    // Different seeds must differ (the engine is not ignoring the seed).
    let other = runner.run(&plan, Seed(2718)).unwrap();
    assert_ne!(digest(&plain), digest(&other));
}

#[test]
fn exploration_is_identical_across_worker_counts() {
    let seed = Seed(23);
    let tr = trace(seed);
    let base = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let exec = Executor::default();
    let grid = ExplorerGrid::default();
    let seq = explore_jobs(&exec, base, &grid, &tr, seed, Jobs::new(1)).unwrap();
    let par = explore_jobs(&exec, base, &grid, &tr, seed, Jobs::new(8)).unwrap();
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&par).unwrap(),
        "explore --jobs 8 must be byte-identical to --jobs 1"
    );
}
