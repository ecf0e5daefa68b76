//! Extension studies beyond the paper: adaptive batching (the Section 5.5
//! takeaway's "better way"), the Section 6 design-space navigator, and an
//! over-provisioning scaling-policy ablation (Section 6's first research
//! challenge).

use super::{Output, ReproConfig};
use slsb_core::{
    analyze_outcomes, explore_jobs, fmt_money, fmt_opt_secs, parallel_map, BatchPolicy, Deployment,
    Executor, ExecutorConfig, ExplorerGrid, Jobs, Table,
};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::{CloudProvider, Platform, PlatformKind, ServerlessConfig};
use slsb_sim::SimDuration;

use slsb_workload::MmppPreset;

/// Extension: fixed vs adaptive batching on AWS-Serverless at workload-120.
pub fn adaptive(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let mut t = Table::new(
        "Extension — adaptive vs fixed batching (AWS-Serverless, workload-120)",
        &[
            "Model",
            "Policy",
            "Mean latency",
            "p95",
            "Cost",
            "Invocations",
        ],
    );
    let policies: [(&str, Option<BatchPolicy>); 4] = [
        ("no batching", Some(BatchPolicy::None)),
        ("fixed(4)", Some(BatchPolicy::Fixed(4))),
        (
            "adaptive(200ms, max 8)",
            Some(BatchPolicy::Adaptive {
                max_wait: SimDuration::from_millis(200),
                max_batch: 8,
            }),
        ),
        (
            "adaptive(1s, max 16)",
            Some(BatchPolicy::Adaptive {
                max_wait: SimDuration::from_secs(1),
                max_batch: 16,
            }),
        ),
    ];
    let mut plan = Vec::new();
    for model in [ModelKind::MobileNet, ModelKind::Vgg] {
        for (label, policy) in policies {
            plan.push((model, label, policy));
        }
    }
    let trace = cfg.trace(MmppPreset::W120);
    let analyses = parallel_map(jobs, &plan, |_, &(model, _, policy)| {
        let exec = Executor::new(ExecutorConfig {
            batch_override: policy,
            ..ExecutorConfig::default()
        });
        let dep = Deployment::new(PlatformKind::AwsServerless, model, RuntimeKind::Tf115);
        let run = exec
            .run_outcomes(&dep, &trace, cfg.seed())
            .expect("valid deployment");
        analyze_outcomes(&run)
    });
    for ((model, label, _), a) in plan.iter().zip(analyses) {
        t.push_row(vec![
            model.to_string(),
            label.to_string(),
            fmt_opt_secs(a.mean_latency()),
            fmt_opt_secs(a.latency.map(|l| l.p95)),
            fmt_money(a.cost.total()),
            a.invocations.to_string(),
        ]);
    }
    let notes = vec![
        "Adaptive batching bounds the oldest request's extra wait, so it recovers most of \
         fixed batching's cost saving at a fraction of its latency penalty — the trade the \
         paper's Section 5.5 takeaway asks for."
            .to_string(),
    ];
    (vec![t], notes)
}

/// Extension: the design-space navigator (Section 6, third opportunity).
pub fn explorer(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let trace = cfg.trace(MmppPreset::W120);
    let base = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let exploration = explore_jobs(
        &Executor::default(),
        base,
        &ExplorerGrid::default(),
        &trace,
        cfg.seed(),
        jobs,
    )
    .expect("explorer grid is valid");

    let mut t = Table::new(
        "Extension — design-space sweep (AWS-Serverless, MobileNet, workload-120)",
        &[
            "Memory MB",
            "Runtime",
            "Batch",
            "Mean latency",
            "p95",
            "SR",
            "Cost",
        ],
    );
    for c in &exploration.candidates {
        t.push_row(vec![
            format!("{:.0}", c.deployment.memory_mb),
            c.deployment.runtime.to_string(),
            c.deployment.batch_size.to_string(),
            format!("{:.3}s", c.mean_latency),
            format!("{:.3}s", c.p95_latency),
            format!("{:.1}%", c.success_ratio * 100.0),
            format!("${:.3}", c.cost),
        ]);
    }

    let mut notes = Vec::new();
    let front = exploration.pareto_front(0.99);
    notes.push(format!(
        "Pareto front (latency vs cost, SR ≥ 99%): {}",
        front
            .iter()
            .map(|c| format!(
                "[{:.0}MB {} batch={} → {:.3}s ${:.3}]",
                c.deployment.memory_mb,
                c.deployment.runtime,
                c.deployment.batch_size,
                c.mean_latency,
                c.cost
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if let Some(best) = exploration.cheapest_under_slo(0.5, 0.99) {
        notes.push(format!(
            "Cheapest config meeting p95 ≤ 0.5s: {:.0}MB {} batch={} at ${:.3}",
            best.deployment.memory_mb,
            best.deployment.runtime,
            best.deployment.batch_size,
            best.cost
        ));
    }
    (vec![t], notes)
}

/// Extension: over-provisioning ablation — sweep the spawn factor of the
/// GCP-style scaling policy and measure cold-start waste and cost.
pub fn scaling(cfg: &ReproConfig, jobs: Jobs) -> Output {
    const FACTORS: [f64; 4] = [1.0, 1.3, 1.6, 2.0];
    const DEPTHS: [u32; 4] = [1, 2, 4, 8];
    let serverless = |provider, platform| {
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        let scfg = ServerlessConfig::new(
            provider,
            ModelKind::MobileNet.profile(),
            RuntimeKind::Tf115.profile(),
        );
        (dep, scfg)
    };
    // The spawn-factor rows on GCP's parameters, then the router-coalescing
    // rows on AWS's.
    let mut plan = Vec::with_capacity(FACTORS.len() + DEPTHS.len());
    for factor in FACTORS {
        let (dep, mut scfg) = serverless(CloudProvider::Gcp, PlatformKind::GcpServerless);
        scfg.params.spawn_factor = factor;
        plan.push((dep, scfg));
    }
    for depth in DEPTHS {
        let (dep, mut scfg) = serverless(CloudProvider::Aws, PlatformKind::AwsServerless);
        scfg.params.pending_per_starting = depth;
        plan.push((dep, scfg));
    }
    let trace = cfg.trace(MmppPreset::W40);
    let analyses = parallel_map(jobs, &plan, |_, (dep, scfg)| {
        let platform = Platform::serverless(scfg.clone(), cfg.seed());
        analyze_outcomes(&Executor::default().run_built_outcomes(dep, platform, &trace, cfg.seed()))
    });
    let (spawn, coalesce) = analyses.split_at(FACTORS.len());

    let mut t = Table::new(
        "Extension — over-provisioning ablation (GCP-Serverless params, MobileNet, workload-40)",
        &[
            "Spawn factor",
            "Cold-started",
            "Peak instances",
            "Utilization",
            "Mean latency",
            "Cost",
        ],
    );
    for (factor, a) in FACTORS.iter().zip(spawn) {
        t.push_row(vec![
            format!("{factor:.1}"),
            a.cold_started.to_string(),
            a.peak_instances.to_string(),
            a.utilization
                .map(|u| format!("{:.1}%", u * 100.0))
                .unwrap_or_else(|| "-".into()),
            fmt_opt_secs(a.mean_latency()),
            fmt_money(a.cost.total()),
        ]);
    }
    // Second ablation axis: router coalescing — how many pending
    // invocations may wait per booting instance before another spawn.
    let mut t2 = Table::new(
        "Extension — router coalescing ablation (AWS-Serverless params, MobileNet, workload-40)",
        &[
            "Pending per starting",
            "Cold-started",
            "Peak instances",
            "Mean latency",
            "p99",
            "Cost",
        ],
    );
    for (depth, a) in DEPTHS.iter().zip(coalesce) {
        t2.push_row(vec![
            depth.to_string(),
            a.cold_started.to_string(),
            a.peak_instances.to_string(),
            fmt_opt_secs(a.mean_latency()),
            fmt_opt_secs(a.latency.map(|l| l.p99)),
            fmt_money(a.cost.total()),
        ]);
    }

    let notes = vec![
        "Speculative spawning (factor > 1) multiplies cold-started instances without \
         improving latency — quantifying the paper's first research challenge: \
         over-provisioning is pure cost."
            .to_string(),
        "Coalescing pending invocations onto booting instances (depth > 1) cuts the \
         instance count at a small tail-latency price; an exact policy would sit at the \
         knee of this curve."
            .to_string(),
    ];
    (vec![t, t2], notes)
}

/// Extension: MArk-style hybrid serving — a provisioned GPU box handles the
/// base load and bursts spill to a serverless function. Compares pure GPU,
/// pure serverless, and the hybrid on the paper's hardest setting
/// (MobileNet at workload-200, where Figure 9's dynamics bite).
pub fn hybrid(cfg: &ReproConfig, jobs: Jobs) -> Output {
    use slsb_platform::{HybridConfig, SpilloverPolicy, VmServerConfig};

    let trace = cfg.trace(MmppPreset::W200);
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let gpu = Deployment::new(
        PlatformKind::AwsGpu,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    // Each row: its name, its deployment and, for a hybrid, the platform
    // that serves it.
    let mut plan: Vec<(String, Deployment, Option<HybridConfig>)> = vec![
        ("Pure GPU server".into(), gpu, None),
        ("Pure serverless".into(), dep, None),
    ];
    for depth in [4usize, 16, 64] {
        let hybrid_cfg = HybridConfig {
            vm: VmServerConfig::gpu(
                CloudProvider::Aws,
                ModelKind::MobileNet.profile(),
                RuntimeKind::Tf115.profile(),
            ),
            serverless: ServerlessConfig::new(
                CloudProvider::Aws,
                ModelKind::MobileNet.profile(),
                RuntimeKind::Tf115.profile(),
            ),
            policy: SpilloverPolicy::QueueDepth(depth),
        };
        plan.push((
            format!("Hybrid (spill at depth {depth})"),
            dep,
            Some(hybrid_cfg),
        ));
    }
    // A worker keeps only its row's analysis and SLO attainment, so no
    // more than one outcome table per worker is alive at a time.
    let slo = SimDuration::from_millis(300);
    let rows = parallel_map(jobs, &plan, |_, (_, d, hybrid)| {
        let exec = Executor::default();
        let run = match hybrid {
            None => exec.run_outcomes(d, &trace, cfg.seed()).expect("valid"),
            Some(h) => {
                let platform = Platform::hybrid(h.clone(), cfg.seed());
                exec.run_built_outcomes(d, platform, &trace, cfg.seed())
            }
        };
        (analyze_outcomes(&run), run.slo_attainment(slo))
    });

    let mut t = Table::new(
        "Extension — hybrid serving (MobileNet, workload-200, AWS)",
        &[
            "System",
            "Mean latency",
            "p99",
            "SR",
            "SLO(0.3s) attainment",
            "Cost",
        ],
    );
    for ((name, _, _), (a, attainment)) in plan.iter().zip(&rows) {
        t.push_row(vec![
            name.clone(),
            fmt_opt_secs(a.mean_latency()),
            fmt_opt_secs(a.latency.map(|l| l.p99)),
            format!("{:.1}%", a.success_ratio * 100.0),
            format!("{:.1}%", attainment * 100.0),
            fmt_money(a.cost.total()),
        ]);
    }

    let notes = vec![
        "The MArk-style hybrid keeps the GPU's low unit latency for the base load while \
         the serverless pool absorbs surge overflow — avoiding the pure GPU's queueing \
         collapse at workload-200 at a fraction of pure serverless' invocation bill."
            .to_string(),
    ];
    (vec![t], notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_outputs_eight_rows() {
        let (tables, _) = adaptive(&ReproConfig::scaled(0.02), Jobs::available());
        assert_eq!(tables[0].len(), 8);
    }

    #[test]
    fn scaling_factor_one_spawns_fewest() {
        let cfg = ReproConfig::scaled(0.05);
        let (tables, _) = scaling(&cfg, Jobs::available());
        assert_eq!(tables[0].len(), 4);
    }

    #[test]
    fn explorer_reports_front() {
        let (tables, notes) = explorer(&ReproConfig::scaled(0.01), Jobs::available());
        assert_eq!(tables[0].len(), 4 * 2 * 3);
        assert!(!notes.is_empty());
    }

    #[test]
    fn hybrid_emits_five_rows() {
        let (tables, notes) = hybrid(&ReproConfig::scaled(0.02), Jobs::available());
        assert_eq!(tables[0].len(), 5);
        assert!(!notes.is_empty());
    }
}
