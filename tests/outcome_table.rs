//! A replay settled into an outcome table analyzes exactly like the same
//! replay settled into records: the analysis serializes to the same bytes,
//! the cold-start side tables and tallies are equal, every fate matches
//! its record, and the SLO attainment matches the records' reading. Covers every platform
//! family under every batching policy, with and without retries and
//! faults, at several client counts, sharded and not, plus an empty trace
//! and a run whose latencies do not fit the table's 4-B entries.

use slsbench::core::{
    analyze, analyze_outcomes, BatchPolicy, Deployment, Executor, ExecutorConfig, OutcomeRun,
    RetryPolicy, RunResult, Scenario,
};
use slsbench::model::{ModelKind, RuntimeKind};
use slsbench::platform::{CloudProvider, FaultPlan, Platform, PlatformKind, VmServerConfig};
use slsbench::sim::{Seed, SimDuration, SimTime};
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
    assert_same(&run, &outcomes, case)
}

/// Checks that a replay settled into records and the same replay settled
/// into an outcome table agree; returns whether any request failed.
fn assert_same(run: &RunResult, outcomes: &OutcomeRun<'_>, case: &str) -> bool {
    let analysis = analyze_outcomes(outcomes);
    let json = |a| serde_json::to_string(a).expect("analysis serializes");
    assert_eq!(json(&analysis), json(&analyze(run)), "{case}");
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

/// The seconds of `run`'s success latencies, in trace order.
fn success_seconds(run: &RunResult) -> Vec<f64> {
    run.successes()
        .map(|r| r.latency.expect("a success has a latency").as_secs_f64())
        .collect()
}

#[test]
fn latencies_past_two_to_the_32_microseconds_analyze_exactly() {
    // One request a second for 200 s into a CPU server whose every request
    // takes about 40 s and whose queue never goes stale: request k waits
    // about 39·k s, so those from k ≈ 110 on wait past 2³² µs (71.6 min),
    // and the two-hour client timeout keeps them successes up to k ≈ 183.
    let arrivals = (0..200).map(|k| SimTime::from_millis(k * 1000)).collect();
    let trace = WorkloadTrace::new("saturated", SimDuration::from_secs(200), arrivals);
    let dep = Deployment::new(
        PlatformKind::AwsCpu,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let mut vm = VmServerConfig::cpu(
        CloudProvider::Aws,
        ModelKind::MobileNet.profile(),
        RuntimeKind::Tf115.profile(),
    );
    vm.request_overhead = SimDuration::from_secs(40);
    vm.stale_after = SimDuration::from_secs(3 * 3600);
    let exec = Executor::new(ExecutorConfig {
        timeout: SimDuration::from_secs(2 * 3600),
        ..ExecutorConfig::default()
    });
    let run = exec.run_built(&dep, Platform::vm(vm.clone(), SEED), &trace, SEED);
    let outcomes = exec.run_built_outcomes(&dep, Platform::vm(vm, SEED), &trace, SEED);
    assert!(
        assert_same(&run, &outcomes, "saturated"),
        "some requests time out"
    );

    let limit = u32::MAX as f64 / 1e6;
    let secs = success_seconds(&run);
    let wide = secs.iter().filter(|&&s| s > limit).count();
    assert!(
        wide >= 10 && wide + 10 <= secs.len(),
        "{wide} of {} successes past 2^32 us",
        secs.len()
    );

    // The statistics of the seconds themselves: sums in trace order, and
    // nearest-rank percentiles of a sorted copy.
    let n = secs.len() as f64;
    let mean = secs.iter().sum::<f64>() / n;
    let std_dev = (secs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt();
    let mut sorted = secs.clone();
    sorted.sort_by(f64::total_cmp);
    let rank = |q: f64| sorted[((q / 100.0 * n).ceil() as usize).max(1) - 1];
    let want = [
        mean,
        std_dev,
        rank(50.0),
        rank(95.0),
        rank(99.0),
        rank(100.0),
    ];
    assert!(
        want[2] < limit && want[3] > limit,
        "p50 narrow, p95 wide: {want:?}"
    );
    for (label, analysis) in [
        ("records", analyze(&run)),
        ("outcomes", analyze_outcomes(&outcomes)),
    ] {
        let l = analysis.latency.expect("successes");
        let got = [l.mean, l.std_dev, l.p50, l.p95, l.p99, l.max];
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "{label}: {got:?}"
        );
    }

    // SLO attainment on both sides of the limit and at the timeout.
    for slo_s in [60, 4_000, 4_300, 5_000, 7_200] {
        let slo = SimDuration::from_secs(slo_s);
        let within = secs.iter().filter(|&&s| s <= slo.as_secs_f64()).count();
        let want = within as f64 / trace.len() as f64;
        assert_eq!(
            outcomes.slo_attainment(slo).to_bits(),
            want.to_bits(),
            "{slo_s} s"
        );
    }
}
