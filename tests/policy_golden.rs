//! Differential pins for the policy-layer refactor: the default policy set
//! must reproduce the pre-refactor traces byte for byte.
//!
//! Every cell of the {platform family} × {plain, faulted, retrying,
//! sharded} matrix records a full trace and pins a digest of its exact
//! JSONL serialization (event count + FNV-64 hash) plus a handful of
//! headline counters for debuggability. The goldens were blessed against
//! the pre-refactor platforms; any diff means the refactor changed
//! behaviour it promised not to. Regenerate deliberately with
//! `BLESS=1 cargo test --test policy_golden`.
//!
//! The hybrid family has no [`Deployment`] surface, so it cannot go
//! through the shard splitter (`run_built` always replays one cell of
//! every client); its sharded cell is covered by the three
//! deployment-backed families, which exercise the same executor split.

use slsbench::core::{
    analyze, oracle_bound, run_metrics, BatchPolicy, Deployment, Executor, ExecutorConfig,
    RetryPolicy,
};
use slsbench::model::{ModelKind, RuntimeKind};
use slsbench::obs::{wire, MemoryRecorder, TraceEvent};
use slsbench::platform::{
    CloudProvider, FaultPlan, HybridConfig, Platform, PlatformKind, ServerlessConfig,
    SpilloverPolicy, ThrottleSpec, VmServerConfig,
};
use slsbench::sim::{Seed, SimDuration};
use slsbench::workload::{MmppSpec, WorkloadTrace};

const SEED: Seed = Seed(77);

fn trace() -> WorkloadTrace {
    MmppSpec {
        name: "policy-pin",
        rate_high: 40.0,
        rate_low: 10.0,
        mean_high_dwell: SimDuration::from_secs(30),
        mean_low_dwell: SimDuration::from_secs(60),
        duration: SimDuration::from_secs(300),
    }
    .generate(SEED)
}

const FAMILIES: [&str; 4] = ["serverless", "managedml", "vm", "hybrid"];
const MODES: [&str; 4] = ["plain", "faulted", "retrying", "sharded"];

fn family_deployment(family: &str) -> Deployment {
    let model = ModelKind::MobileNet;
    let runtime = RuntimeKind::Tf115;
    match family {
        "serverless" => Deployment::new(PlatformKind::AwsServerless, model, runtime),
        "managedml" => Deployment::new(PlatformKind::AwsManagedMl, model, runtime),
        // For hybrid the deployment is descriptive metadata only; the
        // platform itself is hand-built below.
        "vm" | "hybrid" => Deployment::new(PlatformKind::AwsCpu, model, runtime),
        other => unreachable!("unknown family {other}"),
    }
}

fn hybrid_platform() -> Platform {
    Platform::hybrid(
        HybridConfig {
            vm: VmServerConfig::cpu(
                CloudProvider::Aws,
                ModelKind::MobileNet.profile(),
                RuntimeKind::Tf115.profile(),
            ),
            serverless: ServerlessConfig::new(
                CloudProvider::Aws,
                ModelKind::MobileNet.profile(),
                RuntimeKind::Ort14.profile(),
            ),
            policy: SpilloverPolicy::QueueDepth(2),
        },
        SEED,
    )
}

/// Mixed platform + admission faults so every family injects something.
fn faults() -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.crash_mid_exec = 0.05;
    plan.storage_slowdown = 2.0;
    plan.throttle = Some(ThrottleSpec {
        rate_per_sec: 20.0,
        burst: 10.0,
    });
    plan
}

/// Client-path losses so the retry layer actually fires.
fn loss_plan() -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.packet_loss = 0.1;
    plan
}

fn mode_executor(mode: &str) -> Executor {
    match mode {
        "plain" => Executor::default(),
        "faulted" => Executor::default().with_faults(faults()),
        "retrying" => Executor::new(ExecutorConfig {
            retry: RetryPolicy::standard(),
            ..ExecutorConfig::default()
        })
        .with_faults(loss_plan()),
        "sharded" => Executor::default().with_shards(4),
        other => unreachable!("unknown mode {other}"),
    }
}

/// FNV-64 over the exact JSONL serialization of the recorded trace. Any
/// change to event content, order, or count changes the digest.
fn fnv64_jsonl(events: &[TraceEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut line = Vec::new();
    for ev in events {
        line.clear();
        wire::write_event(ev, &mut line);
        for &b in &line {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= u64::from(b'\n');
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn record_cell(family: &str, mode: &str, tr: &WorkloadTrace) -> (Vec<TraceEvent>, String) {
    let exec = mode_executor(mode);
    let dep = family_deployment(family);
    let mut rec = MemoryRecorder::new();
    let run = if family == "hybrid" {
        exec.run_built_recorded(&dep, hybrid_platform(), tr, SEED, Some(&mut rec))
    } else {
        exec.run_recorded(&dep, tr, SEED, &mut rec)
            .expect("valid deployment")
    };
    let a = analyze(&run);
    let events = rec.into_events();
    assert!(
        !events.is_empty(),
        "{family} x {mode}: trace must be non-empty"
    );
    assert!(
        a.succeeded > 0,
        "{family} x {mode}: run must succeed sometimes"
    );
    if mode == "faulted" {
        assert!(a.faults > 0, "{family} x {mode}: faults must fire");
    }
    if mode == "retrying" {
        assert!(run.retries > 0, "{family} x {mode}: retries must fire");
    }
    let rendered = format!(
        "events={} fnv=0x{:016x}\nrequests={} ok={} faults={} client_faults={} retries={} \
         cold={} cost_micro={}\n",
        events.len(),
        fnv64_jsonl(&events),
        a.total,
        a.succeeded,
        a.faults,
        a.client_faults,
        run.retries,
        a.cold_started,
        a.cost.total().as_micro_dollars(),
    );
    (events, rendered)
}

fn check_golden(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        rendered, expected,
        "{name} drifted from its pre-refactor pin; the default policy must \
         be byte-identical (BLESS=1 only if the change is deliberate)"
    );
}

/// Spelling the default policy out explicitly must be indistinguishable
/// from leaving the `policy` block off entirely — same events, same
/// digest. This is the "no hidden default drift" half of the differential
/// harness: the zoo's `default` entry *is* the pre-refactor behaviour.
#[test]
fn explicit_default_policy_matches_implicit() {
    use slsbench::platform::PolicySet;
    let tr = trace();
    for family in ["serverless", "managedml", "vm"] {
        let implicit = {
            let mut rec = MemoryRecorder::new();
            Executor::default()
                .run_recorded(&family_deployment(family), &tr, SEED, &mut rec)
                .expect("valid deployment");
            rec.into_events()
        };
        let explicit = {
            let mut rec = MemoryRecorder::new();
            let dep = family_deployment(family).with_policy(PolicySet::default());
            Executor::default()
                .run_recorded(&dep, &tr, SEED, &mut rec)
                .expect("valid deployment");
            rec.into_events()
        };
        assert_eq!(
            fnv64_jsonl(&implicit),
            fnv64_jsonl(&explicit),
            "{family}: explicit PolicySet::default() drifted from the implicit default"
        );
    }
}

#[test]
fn default_policy_reproduces_pre_refactor_traces() {
    let tr = trace();
    for family in FAMILIES {
        for mode in MODES {
            if family == "hybrid" && mode == "sharded" {
                continue; // no Deployment surface; see module docs
            }
            let (_events, rendered) = record_cell(family, mode, &tr);
            check_golden(&format!("policy_{family}_{mode}"), &rendered);
        }
    }
}

/// FNV-64 over a byte string.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Post-run outputs of every matrix cell, bit for bit: a digest of the
/// serialized [`run_metrics`] registry and the four [`oracle_bound`]
/// fields, each `f64` as its `to_bits` hex. These passes read the run's
/// records, not its trace, so the trace pins above do not cover them.
#[test]
fn post_run_outputs_match_golden() {
    let tr = trace();
    let mut rendered = String::new();
    for family in FAMILIES {
        for mode in MODES {
            if family == "hybrid" && mode == "sharded" {
                continue; // no Deployment surface; see module docs
            }
            let exec = mode_executor(mode);
            let dep = family_deployment(family);
            let run = if family == "hybrid" {
                exec.run_built_recorded(&dep, hybrid_platform(), &tr, SEED, None)
            } else {
                exec.run(&dep, &tr, SEED).expect("valid deployment")
            };
            let metrics = serde_json::to_string(&run_metrics(&run)).expect("serializable");
            let b = oracle_bound(&run);
            rendered.push_str(&format!(
                "{family} {mode} metrics_fnv=0x{:016x} cold_starts={} cost_dollars=0x{:016x} \
                 peak_concurrency={} warm_ratio=0x{:016x}\n",
                fnv64(metrics.as_bytes()),
                b.cold_starts,
                b.cost_dollars.to_bits(),
                b.peak_concurrency,
                b.warm_ratio.to_bits(),
            ));
        }
    }
    check_golden("post_run", &rendered);
}

/// The client lanes where no other pin reaches them: client jitter on,
/// per-client batching (none, `Fixed(4)` through the deployment, adaptive
/// through the override), retries off and on, on 1, 3 and 8 clients (3
/// leaves a partial last round), unsharded and sharded. Each row pins the
/// recorded trace (event count + FNV-64 of its JSONL) and the run's
/// serialized [`run_metrics`], so delivery order, same-instant ties,
/// jitter draws and batch membership are all covered.
#[test]
fn client_lane_outputs_match_golden() {
    let tr = MmppSpec {
        name: "lane-pin",
        rate_high: 40.0,
        rate_low: 10.0,
        mean_high_dwell: SimDuration::from_secs(30),
        mean_low_dwell: SimDuration::from_secs(60),
        duration: SimDuration::from_secs(120),
    }
    .generate(SEED);
    assert_ne!(tr.len() % 3, 0, "3 clients must leave a partial last round");
    let mut plan = FaultPlan::none();
    plan.client_jitter_ms = 25.0;
    plan.packet_loss = 0.05;
    plan.crash_mid_exec = 0.03;
    let serverless = family_deployment("serverless");
    let adaptive = BatchPolicy::Adaptive {
        max_wait: SimDuration::from_millis(250),
        max_batch: 6,
    };
    let batchings = [
        ("none", serverless, None),
        ("fixed4", serverless.with_batch_size(4), None),
        ("adaptive", serverless, Some(adaptive)),
    ];
    let mut rendered = String::new();
    for clients in [1, 3, 8] {
        for (batch, dep, batch_override) in batchings {
            for retry in [RetryPolicy::disabled(), RetryPolicy::standard()] {
                for shards in [0, 2] {
                    let exec = Executor::new(ExecutorConfig {
                        clients,
                        batch_override,
                        retry,
                        shards,
                        ..ExecutorConfig::default()
                    })
                    .with_faults(plan.clone());
                    let mut rec = MemoryRecorder::new();
                    let run = exec
                        .run_recorded(&dep, &tr, SEED, &mut rec)
                        .expect("valid deployment");
                    let events = rec.into_events();
                    let metrics = serde_json::to_string(&run_metrics(&run)).expect("serializable");
                    rendered.push_str(&format!(
                        "clients={clients} batch={batch} attempts={} shards={shards} \
                         events={} fnv=0x{:016x} metrics_fnv=0x{:016x} engine_events={} \
                         client_faults={} retries={}\n",
                        retry.max_attempts,
                        events.len(),
                        fnv64_jsonl(&events),
                        fnv64(metrics.as_bytes()),
                        run.engine_events,
                        run.client_faults,
                        run.retries,
                    ));
                }
            }
        }
    }
    check_golden("client_lanes", &rendered);
}
