//! Property-based tests of the framework's end-to-end invariants: for any
//! valid deployment and any workload, the executor resolves every request,
//! conserves counts, keeps latency causal, and stays deterministic.

use proptest::prelude::*;
use slsb_core::{
    analyze, oracle_bound, Analysis, BatchPolicy, Deployment, Executor, ExecutorConfig, RetryPolicy,
};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::{FaultPlan, KeepAlivePolicy, PlatformKind, PolicySet, ScalingPolicy};
use slsb_sim::{Seed, SimDuration, SimTime};
use slsb_workload::{MmppSpec, WorkloadTrace};

fn any_platform() -> impl Strategy<Value = PlatformKind> {
    prop::sample::select(PlatformKind::ALL.to_vec())
}

/// Sum of every terminal outcome counter — must always equal `total`.
fn resolved(a: &Analysis) -> u64 {
    a.succeeded
        + a.failed_queue_full
        + a.failed_timeout
        + a.failed_rejected
        + a.failed_throttled
        + a.failed_crashed
        + a.failed_retries
}

fn any_model() -> impl Strategy<Value = ModelKind> {
    prop::sample::select(ModelKind::ALL.to_vec())
}

fn small_trace(rate: f64, secs: u64, seed: u64) -> WorkloadTrace {
    MmppSpec {
        name: "prop",
        rate_high: rate,
        rate_low: rate / 4.0,
        mean_high_dwell: SimDuration::from_secs(15),
        mean_low_dwell: SimDuration::from_secs(30),
        duration: SimDuration::from_secs(secs),
    }
    .generate(Seed(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every request resolves to exactly one outcome, and the analyzer's
    /// counts always balance — for any platform × model × workload.
    #[test]
    fn conservation_holds_everywhere(
        platform in any_platform(),
        model in any_model(),
        rate in 5.0f64..60.0,
        seed in 0u64..1000,
    ) {
        let trace = small_trace(rate, 60, seed);
        let dep = Deployment::new(platform, model, RuntimeKind::Tf115);
        let run = Executor::default().run(&dep, &trace, Seed(seed)).unwrap();
        prop_assert_eq!(run.records.len(), trace.len());
        let a = analyze(&run);
        prop_assert_eq!(resolved(&a), a.total);
        prop_assert!((0.0..=1.0).contains(&a.success_ratio));
        prop_assert!(a.cost.total().as_dollars() >= 0.0);
    }

    /// Latency is bounded below by the physical floor (two network legs)
    /// and above by the client timeout.
    #[test]
    fn latency_bounds(seed in 0u64..1000, rate in 5.0f64..40.0) {
        let trace = small_trace(rate, 60, seed);
        let cfg = ExecutorConfig::default();
        let floor = (cfg.network.one_way_latency + cfg.network.one_way_latency).as_secs_f64();
        let dep = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        let run = Executor::new(cfg).run(&dep, &trace, Seed(seed)).unwrap();
        for r in run.successes() {
            let lat = r.latency.unwrap();
            prop_assert!(lat.as_secs_f64() >= floor, "below network floor");
            prop_assert!(lat <= cfg.timeout, "success past the timeout");
        }
    }

    /// Intra-run sharding is worker-count invariant: the merged result of
    /// a sharded run is byte-identical (serialized analysis and raw
    /// records) for every shard budget, for any platform × seed, with and
    /// without faults and retries active.
    #[test]
    fn sharded_runs_are_worker_count_invariant(
        platform in any_platform(),
        seed in 0u64..1000,
        shards in 2usize..9,
        faulted in prop::sample::select(vec![false, true]),
        retrying in prop::sample::select(vec![false, true]),
    ) {
        let trace = small_trace(20.0, 60, seed);
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        let mut exec = if retrying {
            Executor::new(ExecutorConfig {
                retry: RetryPolicy::standard(),
                ..ExecutorConfig::default()
            })
        } else {
            Executor::default()
        };
        if faulted {
            let mut plan = FaultPlan::none();
            plan.crash_mid_exec = 0.05;
            plan.packet_loss = 0.05;
            exec = exec.with_faults(plan);
        }
        let reference = exec.clone().with_shards(1).run(&dep, &trace, Seed(seed)).unwrap();
        let sharded = exec.with_shards(shards).run(&dep, &trace, Seed(seed)).unwrap();
        prop_assert_eq!(&reference.records, &sharded.records);
        prop_assert_eq!(reference.engine_events, sharded.engine_events);
        prop_assert_eq!(
            serde_json::to_string(&analyze(&reference)).unwrap(),
            serde_json::to_string(&analyze(&sharded)).unwrap()
        );
    }

    /// SLO attainment is monotone in the threshold and bounded by the
    /// success ratio.
    #[test]
    fn slo_attainment_monotone(seed in 0u64..500) {
        let trace = small_trace(30.0, 60, seed);
        let dep = Deployment::new(
            PlatformKind::AwsCpu,
            ModelKind::Albert,
            RuntimeKind::Tf115,
        );
        let run = Executor::default().run(&dep, &trace, Seed(seed)).unwrap();
        let thresholds = [0.1, 0.5, 1.0, 10.0, 60.0];
        let vals: Vec<f64> = thresholds
            .iter()
            .map(|&s| run.slo_attainment(SimDuration::from_secs_f64(s)))
            .collect();
        prop_assert!(vals.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        prop_assert!(vals[4] <= run.success_ratio() + 1e-12);
    }

    /// Batching conserves logical requests for any batch size.
    #[test]
    fn batching_conserves(batch in 1u32..16, seed in 0u64..500) {
        let trace = small_trace(25.0, 45, seed);
        let dep = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        )
        .with_batch_size(batch);
        let run = Executor::default().run(&dep, &trace, Seed(seed)).unwrap();
        prop_assert_eq!(run.records.len(), trace.len());
        prop_assert!(run.records.iter().all(|r| r.sent_at >= r.arrival));
        // Invocation count shrinks at least by ~the batch factor (up to the
        // per-client remainder).
        let max_invocations = trace.len() as u64 / u64::from(batch) + 8;
        prop_assert!(
            run.platform.invocations <= max_invocations,
            "{} invocations for {} requests at batch {batch}",
            run.platform.invocations,
            trace.len()
        );
    }

    /// Adaptive batching never holds a request longer than max_wait plus
    /// the service path.
    #[test]
    fn adaptive_batching_bounds_hold(seed in 0u64..300) {
        let max_wait = SimDuration::from_millis(400);
        let exec = Executor::new(ExecutorConfig {
            batch_override: Some(BatchPolicy::Adaptive {
                max_wait,
                max_batch: 8,
            }),
            ..ExecutorConfig::default()
        });
        let trace = small_trace(20.0, 45, seed);
        let dep = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        let run = exec.run(&dep, &trace, Seed(seed)).unwrap();
        for r in &run.records {
            prop_assert!(r.sent_at.saturating_duration_since(r.arrival) <= max_wait);
        }
    }

    /// The whole pipeline is deterministic for any seed.
    #[test]
    fn pipeline_deterministic(seed in 0u64..300, platform in any_platform()) {
        let trace = small_trace(15.0, 45, seed);
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        let exec = Executor::default();
        let a = exec.run(&dep, &trace, Seed(seed)).unwrap();
        let b = exec.run(&dep, &trace, Seed(seed)).unwrap();
        prop_assert_eq!(a.records, b.records);
    }
}

/// Arbitrary retry policies plus a client-path fault mix, from a flat
/// vector of unit uniforms (the vendored proptest has no tuple
/// strategies).
fn retry_setup(u: &[f64]) -> (RetryPolicy, FaultPlan) {
    let policy = RetryPolicy {
        max_attempts: 1 + (u[0] * 3.99) as u32,
        attempt_timeout: SimDuration::from_secs_f64(0.5 + u[1] * 4.0),
        base_backoff: SimDuration::from_secs_f64(0.05 + u[2]),
        max_backoff: SimDuration::from_secs_f64(1.0 + u[3] * 7.0),
        jitter: u[4],
        budget: if u[5] < 0.3 {
            (u[5] * 400.0) as u64
        } else {
            u64::MAX
        },
    };
    let mut plan = FaultPlan::none();
    plan.packet_loss = u[6] * 0.3;
    plan.client_jitter_ms = u[7] * 40.0;
    plan.crash_mid_exec = u[8] * 0.2;
    (policy, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Retry invariants for any policy × client-fault mix: every request
    /// still resolves exactly once, re-sends never exceed the per-
    /// invocation attempt cap or the fleet budget, and no success is
    /// reported past the client deadline.
    #[test]
    fn retries_respect_attempt_and_deadline_bounds(
        u in prop::collection::vec(0.0f64..1.0, 9..10),
        seed in 0u64..300,
    ) {
        let (policy, plan) = retry_setup(&u);
        let cfg = ExecutorConfig { retry: policy, ..ExecutorConfig::default() };
        let trace = small_trace(20.0, 45, seed);
        let dep = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        let run = Executor::new(cfg)
            .with_faults(plan)
            .run(&dep, &trace, Seed(seed))
            .unwrap();
        prop_assert_eq!(run.records.len(), trace.len());
        let a = analyze(&run);
        prop_assert_eq!(resolved(&a), a.total);
        // Each invocation re-sends at most (max_attempts - 1) times, and
        // the fleet never exceeds its retry budget.
        let cap = u64::from(policy.max_attempts - 1) * trace.len() as u64;
        prop_assert!(run.retries <= cap, "{} re-sends > cap {cap}", run.retries);
        prop_assert!(run.retries <= policy.budget);
        // Total client wall-time never exceeds the per-request deadline.
        for r in run.successes() {
            prop_assert!(r.latency.unwrap() <= cfg.timeout, "success past deadline");
        }
    }

    /// Attaching a recorder never changes the simulation: the recorded
    /// run's records and analysis are identical to the unrecorded run's,
    /// for any retry policy and fault mix.
    #[test]
    fn recorded_run_is_byte_identical(
        u in prop::collection::vec(0.0f64..1.0, 9..10),
        seed in 0u64..200,
    ) {
        let (policy, plan) = retry_setup(&u);
        let cfg = ExecutorConfig { retry: policy, ..ExecutorConfig::default() };
        let trace = small_trace(15.0, 30, seed);
        let dep = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Tf115,
        );
        let exec = Executor::new(cfg).with_faults(plan);
        let plain = exec.run(&dep, &trace, Seed(seed)).unwrap();
        let mut rec = slsb_obs::JsonlRecorder::new(Vec::new());
        let recorded = exec.run_recorded(&dep, &trace, Seed(seed), &mut rec).unwrap();
        prop_assert_eq!(&plain.records, &recorded.records);
        prop_assert_eq!(plain.retries, recorded.retries);
        prop_assert_eq!(plain.client_faults, recorded.client_faults);
        prop_assert_eq!(plain.platform.faults, recorded.platform.faults);
        let (pa, ra) = (analyze(&plain), analyze(&recorded));
        prop_assert_eq!(
            serde_json::to_string(&pa).unwrap(),
            serde_json::to_string(&ra).unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The clairvoyant oracle is a true lower bound for **every** zoo
    /// member on **every** trace: no policy ever beats it on cold starts
    /// or cost, and the conservation invariants keep holding under
    /// non-default policies.
    #[test]
    fn oracle_bounds_every_zoo_member(
        name in prop::sample::select(PolicySet::ZOO.to_vec()),
        platform in any_platform(),
        rate in 5.0f64..50.0,
        seed in 0u64..500,
    ) {
        let policy = PolicySet::by_name(name).expect("zoo name resolves");
        let trace = small_trace(rate, 60, seed);
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115)
            .with_policy(policy);
        let run = Executor::default().run(&dep, &trace, Seed(seed)).unwrap();
        let a = analyze(&run);
        prop_assert_eq!(resolved(&a), a.total);
        let b = oracle_bound(&run);
        prop_assert!(
            b.cold_starts <= run.platform.cold_started,
            "policy {} on {:?}: oracle cold {} > actual {}",
            name, platform, b.cold_starts, run.platform.cold_started
        );
        let actual_cost = run.platform.cost.total().as_dollars();
        prop_assert!(
            b.cost_dollars <= actual_cost + 1e-9,
            "policy {} on {:?}: oracle cost {} > actual {}",
            name, platform, b.cost_dollars, actual_cost
        );
        prop_assert!((0.0..=1.0).contains(&b.warm_ratio));
    }

    /// An infinite fixed keep-alive (with speculative scaling off)
    /// degenerates to first-touch-only cold starts on a strictly
    /// sequential trace: one cold pipeline, every later request warm. The
    /// platform default re-colds on every arrival because the idle gaps
    /// exceed its window — and the oracle's floor of one bounds both.
    #[test]
    fn infinite_keep_alive_is_first_touch_cold_only(
        requests in 3usize..9,
        seed in 0u64..200,
    ) {
        // Gaps of 1200 s dwarf both platform defaults (600 s AWS, 900 s
        // GCP) and leave zero execution overlap.
        let gap = 1200u64;
        let arrivals: Vec<SimTime> = (0..requests)
            .map(|k| SimTime::ZERO + SimDuration::from_secs(k as u64 * gap))
            .collect();
        let trace = WorkloadTrace::new(
            "sparse",
            SimDuration::from_secs(requests as u64 * gap),
            arrivals,
        );
        let forever = PolicySet {
            keep_alive: KeepAlivePolicy::Fixed { idle_s: 1e12 },
            scaling: ScalingPolicy::NoOverprovision,
            ..PolicySet::default()
        };
        let dep = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        let warm_run = Executor::default()
            .run(&dep.with_policy(forever), &trace, Seed(seed))
            .unwrap();
        prop_assert_eq!(warm_run.platform.cold_started, 1, "one cold pipeline total");
        let mut by_arrival: Vec<_> = warm_run.records.iter().collect();
        by_arrival.sort_by_key(|r| r.arrival);
        prop_assert!(by_arrival[0].cold, "first touch pays the cold start");
        for r in &by_arrival[1..] {
            prop_assert!(!r.cold, "request at {:?} re-cold", r.arrival);
        }

        // The platform default forgets the instance between arrivals.
        let cold_run = Executor::default().run(&dep, &trace, Seed(seed)).unwrap();
        prop_assert!(
            cold_run.platform.cold_started >= requests as u64,
            "default keep-alive must re-cold every sparse arrival: {} < {}",
            cold_run.platform.cold_started,
            requests
        );

        // Oracle floor: sequential execution needs exactly one instance.
        let b = oracle_bound(&warm_run);
        prop_assert_eq!(b.cold_starts, 1);
        prop_assert!(b.cold_starts <= cold_run.platform.cold_started);
    }
}
