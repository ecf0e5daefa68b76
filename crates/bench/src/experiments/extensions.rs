//! Extension studies beyond the paper: adaptive batching (the Section 5.5
//! takeaway's "better way"), the Section 6 design-space navigator, and an
//! over-provisioning scaling-policy ablation (Section 6's first research
//! challenge).

use super::{Output, ReproConfig};
use slsb_core::{
    analyze_outcomes, explore, fmt_money, fmt_opt_secs, BatchPolicy, Deployment, Executor,
    ExecutorConfig, ExplorerGrid, OutcomeRun, Table,
};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::{CloudProvider, Platform, PlatformKind, ServerlessConfig};
use slsb_sim::SimDuration;

use slsb_workload::MmppPreset;

/// Extension: fixed vs adaptive batching on AWS-Serverless at workload-120.
pub fn adaptive(cfg: &ReproConfig) -> Output {
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
    for model in [ModelKind::MobileNet, ModelKind::Vgg] {
        for (label, policy) in &policies {
            let exec = Executor::new(ExecutorConfig {
                batch_override: *policy,
                ..ExecutorConfig::default()
            });
            let trace = cfg.trace(MmppPreset::W120);
            let dep = Deployment::new(PlatformKind::AwsServerless, model, RuntimeKind::Tf115);
            let run = exec
                .run_outcomes(&dep, &trace, cfg.seed())
                .expect("valid deployment");
            let a = analyze_outcomes(&run);
            t.push_row(vec![
                model.to_string(),
                label.to_string(),
                fmt_opt_secs(a.mean_latency()),
                fmt_opt_secs(a.latency.map(|l| l.p95)),
                fmt_money(a.cost.total()),
                a.invocations.to_string(),
            ]);
        }
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
pub fn explorer(cfg: &ReproConfig) -> Output {
    let trace = cfg.trace(MmppPreset::W120);
    let base = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let exploration = explore(
        &Executor::default(),
        base,
        &ExplorerGrid::default(),
        &trace,
        cfg.seed(),
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
pub fn scaling(cfg: &ReproConfig) -> Output {
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
    let trace = cfg.trace(MmppPreset::W40);
    let dep = Deployment::new(
        PlatformKind::GcpServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    for factor in [1.0, 1.3, 1.6, 2.0] {
        let mut scfg = ServerlessConfig::new(
            CloudProvider::Gcp,
            ModelKind::MobileNet.profile(),
            RuntimeKind::Tf115.profile(),
        );
        scfg.params.spawn_factor = factor;
        let platform = Platform::serverless(scfg, cfg.seed());
        let run = Executor::default().run_built_outcomes(&dep, platform, &trace, cfg.seed());
        let a = analyze_outcomes(&run);
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
    let dep_aws = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    for depth in [1u32, 2, 4, 8] {
        let mut scfg = ServerlessConfig::new(
            CloudProvider::Aws,
            ModelKind::MobileNet.profile(),
            RuntimeKind::Tf115.profile(),
        );
        scfg.params.pending_per_starting = depth;
        let platform = Platform::serverless(scfg, cfg.seed());
        let run = Executor::default().run_built_outcomes(&dep_aws, platform, &trace, cfg.seed());
        let a = analyze_outcomes(&run);
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
pub fn hybrid(cfg: &ReproConfig) -> Output {
    use slsb_platform::{HybridConfig, SpilloverPolicy, VmServerConfig};

    let trace = cfg.trace(MmppPreset::W200);
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let exec = Executor::default();

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
    let mut notes = Vec::new();

    let mut push = |name: &str, run: &OutcomeRun<'_>| {
        let a = analyze_outcomes(run);
        t.push_row(vec![
            name.to_string(),
            fmt_opt_secs(a.mean_latency()),
            fmt_opt_secs(a.latency.map(|l| l.p99)),
            format!("{:.1}%", a.success_ratio * 100.0),
            format!(
                "{:.1}%",
                run.slo_attainment(SimDuration::from_millis(300)) * 100.0
            ),
            fmt_money(a.cost.total()),
        ]);
    };

    // Each run is tabulated and dropped as it finishes, so no more than
    // one run's outcome table is alive at a time.
    let gpu = Deployment::new(
        PlatformKind::AwsGpu,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    push(
        "Pure GPU server",
        &exec.run_outcomes(&gpu, &trace, cfg.seed()).expect("valid"),
    );
    push(
        "Pure serverless",
        &exec.run_outcomes(&dep, &trace, cfg.seed()).expect("valid"),
    );

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
        let platform = Platform::hybrid(hybrid_cfg, cfg.seed());
        let run = exec.run_built_outcomes(&dep, platform, &trace, cfg.seed());
        push(&format!("Hybrid (spill at depth {depth})"), &run);
    }

    notes.push(
        "The MArk-style hybrid keeps the GPU's low unit latency for the base load while \
         the serverless pool absorbs surge overflow — avoiding the pure GPU's queueing \
         collapse at workload-200 at a fraction of pure serverless' invocation bill."
            .to_string(),
    );
    (vec![t], notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_outputs_eight_rows() {
        let (tables, _) = adaptive(&ReproConfig::scaled(0.02));
        assert_eq!(tables[0].len(), 8);
    }

    #[test]
    fn scaling_factor_one_spawns_fewest() {
        let cfg = ReproConfig::scaled(0.05);
        let (tables, _) = scaling(&cfg);
        assert_eq!(tables[0].len(), 4);
    }

    #[test]
    fn explorer_reports_front() {
        let (tables, notes) = explorer(&ReproConfig::scaled(0.01));
        assert_eq!(tables[0].len(), 4 * 2 * 3);
        assert!(!notes.is_empty());
    }

    #[test]
    fn hybrid_emits_five_rows() {
        let (tables, notes) = hybrid(&ReproConfig::scaled(0.02));
        assert_eq!(tables[0].len(), 5);
        assert!(!notes.is_empty());
    }
}
