//! A replay settled into an outcome table analyzes exactly like the same
//! replay settled into records: the analysis serializes to the same bytes,
//! the cold-start side tables and tallies are equal, every fate matches
//! its record, and the SLO attainment matches the records' reading. Covers every platform
//! family under every batching policy, with and without retries and
//! faults, at several client counts, sharded and not, plus an empty trace.

use slsbench::core::{
    analyze, analyze_outcomes, BatchPolicy, Deployment, Executor, ExecutorConfig, RetryPolicy,
    Scenario,
};
use slsbench::model::{ModelKind, RuntimeKind};
use slsbench::platform::{FaultPlan, PlatformKind};
use slsbench::sim::{Seed, SimDuration};
use slsbench::workload::{MmppSpec, WorkloadTrace};

const SEED: Seed = Seed(21);

/// A burst heavy enough that the CPU server drops and times out requests.
fn trace() -> WorkloadTrace {
    MmppSpec {
        name: "outcome-table",
        rate_high: 90.0,
        rate_low: 20.0,
        mean_high_dwell: SimDuration::from_secs(10),
        mean_low_dwell: SimDuration::from_secs(10),
        duration: SimDuration::from_secs(25),
    }
    .generate(SEED)
}

fn fault_smoke() -> FaultPlan {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/fault_smoke.json");
    let json = std::fs::read_to_string(path).expect("fault_smoke.json");
    let plan = Scenario::from_json(&json).expect("valid scenario").faults;
    assert!(!plan.is_empty(), "fault_smoke injects faults");
    plan
}

/// Replays `trace` both ways under `exec` and checks that they agree;
/// returns whether any request failed.
fn assert_equivalent(exec: &Executor, dep: &Deployment, trace: &WorkloadTrace, case: &str) -> bool {
    let run = exec.run(dep, trace, SEED).expect("valid deployment");
    let outcomes = exec
        .run_outcomes(dep, trace, SEED)
        .expect("valid deployment");
    let analysis = analyze_outcomes(&outcomes);
    let json = |a| serde_json::to_string(a).expect("analysis serializes");
    assert_eq!(json(&analysis), json(&analyze(&run)), "{case}");
    assert_eq!(outcomes.outcomes.len(), run.records.len(), "{case}");
    assert_eq!(outcomes.cold_starts, run.cold_starts, "{case}");
    assert_eq!(outcomes.engine_events, run.engine_events, "{case}");
    assert_eq!(outcomes.client_faults, run.client_faults, "{case}");
    assert_eq!(outcomes.retries, run.retries, "{case}");
    for ms in [0, 150, 300, 1_000, 60_000] {
        let slo = SimDuration::from_millis(ms);
        assert_eq!(
            outcomes.slo_attainment(slo).to_bits(),
            run.slo_attainment(slo).to_bits(),
            "{case} slo {ms} ms"
        );
    }
    for (fate, r) in outcomes.outcomes.iter().zip(&run.records) {
        assert_eq!(
            (fate.outcome, fate.cold, fate.latency, fate.predict),
            (r.outcome, r.cold, r.latency, r.predict),
            "{case} request {}",
            r.index
        );
    }
    analysis.succeeded < analysis.total
}

#[test]
fn outcome_runs_analyze_like_record_runs() {
    let trace = trace();
    let policies = [
        ("none", BatchPolicy::None),
        ("fixed4", BatchPolicy::Fixed(4)),
        (
            "adaptive",
            BatchPolicy::Adaptive {
                max_wait: SimDuration::from_millis(200),
                max_batch: 8,
            },
        ),
    ];
    let retries = [
        ("no-retry", RetryPolicy::disabled()),
        (
            "retry",
            RetryPolicy {
                base_backoff: SimDuration::from_millis(100),
                ..RetryPolicy::standard()
            },
        ),
    ];
    let faults = [
        ("no-faults", FaultPlan::none()),
        ("fault_smoke", fault_smoke()),
    ];
    let mut failures_seen = false;
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
        PlatformKind::AwsGpu,
    ] {
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        for (policy_name, policy) in policies {
            for (retry_name, retry) in retries {
                for (fault_name, plan) in &faults {
                    for clients in [1, 3, 8] {
                        let cfg = ExecutorConfig {
                            clients,
                            batch_override: Some(policy),
                            retry,
                            ..ExecutorConfig::default()
                        };
                        let exec = Executor::new(cfg).with_faults(plan.clone());
                        let case = format!(
                            "{} {policy_name} {retry_name} {fault_name} {clients} clients",
                            platform.label()
                        );
                        failures_seen |= assert_equivalent(&exec, &dep, &trace, &case);
                        if clients == 3 {
                            let sharded = exec.clone().with_shards(2);
                            assert_equivalent(&sharded, &dep, &trace, &format!("{case} sharded"));
                        }
                    }
                }
            }
        }
    }
    assert!(failures_seen, "the matrix exercises failures");
}

#[test]
fn an_empty_trace_settles_into_an_empty_table() {
    let trace = WorkloadTrace::new("empty", SimDuration::from_secs(10), vec![]);
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let exec = Executor::default();
    assert_equivalent(&exec, &dep, &trace, "empty");
    let run = exec.run_outcomes(&dep, &trace, SEED).unwrap();
    assert!(run.outcomes.is_empty());
    assert_eq!(run.slo_attainment(SimDuration::ZERO), 1.0);
}
