//! Robustness under injected faults: degraded storage, crashing instances,
//! and pathological configurations must degrade results, never break the
//! accounting invariants (every request resolved, conserved counts,
//! non-negative cost). The fault matrix at the bottom crosses every
//! platform family with every `FaultPlan` regime and checks the same
//! invariants in each cell.

use slsbench::core::{analyze, Deployment, Executor};
use slsbench::model::{ModelKind, RuntimeKind};
use slsbench::platform::{
    CloudProvider, FaultPlan, HybridConfig, KeepAlivePolicy, ManagedMlConfig, OutageWindow,
    Platform, PlatformKind, PolicySet, ServerlessConfig, SpilloverPolicy, StorageProfile,
    ThrottleSpec, VmServerConfig,
};
use slsbench::sim::{Seed, SimDuration};
use slsbench::workload::{MmppSpec, WorkloadTrace};

const SEED: Seed = Seed(33);

fn trace() -> WorkloadTrace {
    MmppSpec {
        name: "faults",
        rate_high: 40.0,
        rate_low: 10.0,
        mean_high_dwell: SimDuration::from_secs(30),
        mean_low_dwell: SimDuration::from_secs(60),
        duration: SimDuration::from_secs(300),
    }
    .generate(SEED)
}

fn serverless_with(mutate: impl FnOnce(&mut ServerlessConfig)) -> slsbench::core::Analysis {
    let mut cfg = ServerlessConfig::new(
        CloudProvider::Aws,
        ModelKind::MobileNet.profile(),
        RuntimeKind::Tf115.profile(),
    );
    mutate(&mut cfg);
    let platform = Platform::serverless(cfg, SEED);
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let tr = trace();
    let run = Executor::default().run_built(&dep, platform, &tr, SEED);
    analyze(&run)
}

fn assert_invariants(a: &slsbench::core::Analysis) {
    assert_eq!(
        a.succeeded
            + a.failed_queue_full
            + a.failed_timeout
            + a.failed_rejected
            + a.failed_throttled
            + a.failed_crashed
            + a.failed_retries,
        a.total,
        "request conservation"
    );
    assert!(a.cost.total().as_dollars() >= 0.0);
    assert!((0.0..=1.0).contains(&a.success_ratio));
}

#[test]
fn degraded_storage_slows_cold_starts_but_everything_resolves() {
    let healthy = serverless_with(|_| {});
    let degraded = serverless_with(|cfg| {
        // A 10x storage brown-out.
        cfg.params.storage = StorageProfile {
            base_latency: SimDuration::from_secs(2),
            bandwidth_mb_per_sec: StorageProfile::AWS.bandwidth_mb_per_sec / 10.0,
        };
    });
    assert_invariants(&healthy);
    assert_invariants(&degraded);
    assert!(
        degraded.cold.download.unwrap() > 4.0 * healthy.cold.download.unwrap(),
        "slow storage must show in the download sub-stage"
    );
    assert!(degraded.cold.e2e_cold.unwrap() > healthy.cold.e2e_cold.unwrap());
    // Warm path is unaffected.
    let h = healthy.cold.e2e_warm.unwrap();
    let d = degraded.cold.e2e_warm.unwrap();
    assert!(
        (d - h).abs() < 0.3 * h,
        "warm path should be untouched: {h} vs {d}"
    );
}

#[test]
fn crashing_instances_cost_extra_cold_starts_not_correctness() {
    let stable = serverless_with(|_| {});
    let flaky = serverless_with(|cfg| {
        cfg.params.crash_on_start_chance = 0.3;
    });
    assert_invariants(&flaky);
    assert!(
        flaky.cold_started > stable.cold_started,
        "crashes force replacement spawns: {} vs {}",
        flaky.cold_started,
        stable.cold_started
    );
    assert!(
        flaky.success_ratio > 0.95,
        "the platform must absorb crashes: SR {}",
        flaky.success_ratio
    );
}

#[test]
fn pathological_crash_rate_still_conserves_requests() {
    // At 90% crash probability most pipelines restart repeatedly; requests
    // may time out, but the books must still balance.
    let a = serverless_with(|cfg| {
        cfg.params.crash_on_start_chance = 0.9;
    });
    assert_invariants(&a);
}

#[test]
fn zero_bandwidth_network_is_rejected_loudly() {
    // Misconfiguration should fail fast, not hang the simulation.
    let bad = slsbench::platform::NetworkProfile {
        one_way_latency: SimDuration::from_millis(10),
        bandwidth_mb_per_sec: 0.0,
    };
    let result = std::panic::catch_unwind(|| bad.transfer_time(1000));
    assert!(result.is_err(), "zero bandwidth must panic");
}

// ---------------------------------------------------------------------------
// The fault matrix: platform families × FaultPlan regimes.
// ---------------------------------------------------------------------------

const FAMILIES: [&str; 4] = ["serverless", "managedml", "vm", "hybrid"];
const REGIMES: [&str; 4] = ["crash", "storage", "throttle", "outage"];

fn family_platform(family: &str) -> (Deployment, Platform) {
    family_platform_with(family, PolicySet::default())
}

/// [`family_platform`] with an explicit policy set installed (the hybrid
/// family forwards it to both children via `with_policy_set`).
fn family_platform_with(family: &str, policy: PolicySet) -> (Deployment, Platform) {
    let model = ModelKind::MobileNet;
    let runtime = RuntimeKind::Tf115;
    match family {
        "serverless" => (
            Deployment::new(PlatformKind::AwsServerless, model, runtime),
            Platform::serverless(
                {
                    let mut cfg = ServerlessConfig::new(
                        CloudProvider::Aws,
                        model.profile(),
                        runtime.profile(),
                    );
                    cfg.policy = policy;
                    cfg
                },
                SEED,
            ),
        ),
        "managedml" => (
            Deployment::new(PlatformKind::AwsManagedMl, model, runtime),
            Platform::managedml(
                {
                    let mut cfg = ManagedMlConfig::new(
                        CloudProvider::Aws,
                        model.profile(),
                        runtime.profile(),
                    );
                    cfg.policy = policy;
                    cfg
                },
                SEED,
            ),
        ),
        "vm" => (
            Deployment::new(PlatformKind::AwsCpu, model, runtime),
            Platform::vm(
                {
                    let mut cfg =
                        VmServerConfig::cpu(CloudProvider::Aws, model.profile(), runtime.profile());
                    cfg.policy = policy;
                    cfg
                },
                SEED,
            ),
        ),
        "hybrid" => (
            Deployment::new(PlatformKind::AwsCpu, model, runtime),
            Platform::hybrid(
                HybridConfig {
                    vm: VmServerConfig::cpu(CloudProvider::Aws, model.profile(), runtime.profile()),
                    serverless: ServerlessConfig::new(
                        CloudProvider::Aws,
                        model.profile(),
                        RuntimeKind::Ort14.profile(),
                    ),
                    policy: SpilloverPolicy::QueueDepth(2),
                }
                .with_policy_set(policy),
                SEED,
            ),
        ),
        other => unreachable!("unknown family {other}"),
    }
}

fn fault_regime(regime: &str) -> FaultPlan {
    let mut plan = FaultPlan::none();
    match regime {
        "crash" => {
            plan.crash_on_boot = 0.2;
            plan.crash_mid_exec = 0.1;
        }
        "storage" => {
            plan.storage_slowdown = 3.0;
            plan.storage_stall_chance = 0.5;
            plan.storage_stall_s = 2.0;
        }
        "throttle" => {
            plan.throttle = Some(ThrottleSpec {
                rate_per_sec: 15.0,
                burst: 5.0,
            });
        }
        "outage" => {
            plan.outages = vec![OutageWindow {
                start_s: 60.0,
                duration_s: 30.0,
            }];
        }
        other => unreachable!("unknown regime {other}"),
    }
    plan
}

#[test]
fn fault_matrix_preserves_accounting_in_every_cell() {
    let tr = trace();
    for family in FAMILIES {
        for regime in REGIMES {
            let (dep, platform) = family_platform(family);
            let plan = fault_regime(regime);
            plan.validate().unwrap_or_else(|e| panic!("{regime}: {e}"));
            let run = Executor::default()
                .with_faults(plan)
                .run_built(&dep, platform, &tr, SEED);
            let a = analyze(&run);
            let cell = format!("{family} x {regime}");
            // Every request resolved exactly once, counts conserved,
            // cost non-negative — in every cell.
            assert_eq!(a.total as usize, tr.len(), "{cell}: every request resolved");
            assert_invariants(&a);
            assert_eq!(a.faults, run.platform.faults, "{cell}: fault accounting");
            match regime {
                "crash" => {
                    assert!(a.faults > 0, "{cell}: crashes must fire");
                    assert!(
                        a.failed_crashed > 0,
                        "{cell}: mid-exec crashes fail requests"
                    );
                }
                // Only platforms with a storage download path can stall;
                // the VM family keeps its model resident.
                "storage" if family == "serverless" => {
                    assert!(a.faults > 0, "{cell}: storage stalls must fire");
                }
                "throttle" | "outage" => {
                    assert!(a.faults > 0, "{cell}: admission faults must fire");
                    assert!(
                        a.failed_throttled > 0,
                        "{cell}: rejections surface as throttled"
                    );
                    assert!(a.success_ratio < 1.0, "{cell}: throttling costs successes");
                }
                _ => {}
            }
        }
    }
}

/// The fault matrix again, now swept across the keep-alive zoo: fault
/// accounting must stay exact (analyzer count == platform count) and
/// request conservation must hold under every (family, regime, keep-alive
/// policy) combination, not just the defaults the cells above pin.
#[test]
fn fault_matrix_holds_under_every_keep_alive_policy() {
    let tr = trace();
    let policies: [(&str, PolicySet); 2] = [
        (
            "fixed-60",
            PolicySet {
                keep_alive: KeepAlivePolicy::Fixed { idle_s: 60.0 },
                ..PolicySet::default()
            },
        ),
        (
            "hybrid-histogram",
            PolicySet {
                keep_alive: KeepAlivePolicy::hybrid_histogram(),
                ..PolicySet::default()
            },
        ),
    ];
    for family in FAMILIES {
        for regime in REGIMES {
            for (label, policy) in policies {
                let (dep, platform) = family_platform_with(family, policy);
                let plan = fault_regime(regime);
                let run = Executor::default()
                    .with_faults(plan)
                    .run_built(&dep, platform, &tr, SEED);
                let a = analyze(&run);
                let cell = format!("{family} x {regime} x {label}");
                assert_eq!(a.total as usize, tr.len(), "{cell}: every request resolved");
                assert_invariants(&a);
                assert_eq!(a.faults, run.platform.faults, "{cell}: fault accounting");
                if matches!(regime, "throttle" | "outage") {
                    assert!(a.faults > 0, "{cell}: admission faults must fire");
                }
            }
        }
    }
}

#[test]
fn retries_recover_client_path_losses() {
    // 20% of requests are lost on the wire. Without retries they all time
    // out; with three attempts most are recovered, at extra latency.
    let mut plan = FaultPlan::none();
    plan.packet_loss = 0.2;
    let tr = trace();
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let build = || {
        Platform::serverless(
            ServerlessConfig::new(
                CloudProvider::Aws,
                ModelKind::MobileNet.profile(),
                RuntimeKind::Tf115.profile(),
            ),
            SEED,
        )
    };
    let no_retry =
        Executor::default()
            .with_faults(plan.clone())
            .run_built(&dep, build(), &tr, SEED);
    let cfg = slsbench::core::ExecutorConfig {
        retry: slsbench::core::RetryPolicy::standard(),
        ..Default::default()
    };
    let with_retry = Executor::new(cfg)
        .with_faults(plan)
        .run_built(&dep, build(), &tr, SEED);
    let a0 = analyze(&no_retry);
    let a1 = analyze(&with_retry);
    assert_invariants(&a0);
    assert_invariants(&a1);
    assert!(a0.client_faults > 0, "losses must fire");
    assert!(with_retry.retries > 0, "retries must fire");
    assert!(
        a1.success_ratio > a0.success_ratio,
        "retries must recover lost requests: {} vs {}",
        a1.success_ratio,
        a0.success_ratio
    );
}

#[test]
fn overload_with_tiny_queue_fails_fast_but_cleanly() {
    use slsbench::platform::VmServerConfig;
    let mut cfg = VmServerConfig::cpu(
        CloudProvider::Aws,
        ModelKind::Vgg.profile(),
        RuntimeKind::Tf115.profile(),
    );
    cfg.queue_capacity = 5;
    let platform = Platform::vm(cfg, SEED);
    let dep = Deployment::new(PlatformKind::AwsCpu, ModelKind::Vgg, RuntimeKind::Tf115);
    let tr = trace();
    let run = Executor::default().run_built(&dep, platform, &tr, SEED);
    let a = analyze(&run);
    assert_invariants(&a);
    assert!(a.failed_queue_full > a.total / 2, "tiny queue rejects most");
}
