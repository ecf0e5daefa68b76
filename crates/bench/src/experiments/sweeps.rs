//! Figures 15–17: the function-specific parameter sweeps on
//! AWS-Serverless (memory size, provisioned concurrency, batch size), all
//! at workload-120 for MobileNet and VGG under both runtimes.

use super::{Output, Planned, ReproConfig};
use slsb_core::{fmt_money, fmt_opt_secs, Deployment, Jobs, Table};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::PlatformKind;
use slsb_workload::MmppPreset;

const MODELS: [ModelKind; 2] = [ModelKind::MobileNet, ModelKind::Vgg];

/// One row per knob value, model and runtime on AWS-Serverless at
/// workload-120, the runs on up to `jobs` workers.
fn sweep_table<T: Copy + std::fmt::Display>(
    cfg: &ReproConfig,
    jobs: Jobs,
    title: &str,
    knob_name: &str,
    values: &[T],
    apply: impl Fn(Deployment, T) -> Deployment,
) -> Table {
    let mut t = Table::new(
        title,
        &[
            knob_name,
            "Model",
            "Runtime",
            "Mean latency",
            "Cost",
            "Cold-started",
        ],
    );
    let mut rows = Vec::new();
    for &v in values {
        for model in MODELS {
            for runtime in RuntimeKind::ALL {
                let base = Deployment::new(PlatformKind::AwsServerless, model, runtime);
                rows.push((v, apply(base, v)));
            }
        }
    }
    let plan: Vec<Planned> = rows.iter().map(|&(_, d)| (d, MmppPreset::W120)).collect();
    for ((v, d), a) in rows.iter().zip(cfg.run_plan(&plan, jobs)) {
        t.push_row(vec![
            v.to_string(),
            d.model.to_string(),
            d.runtime.to_string(),
            fmt_opt_secs(a.mean_latency()),
            fmt_money(a.cost.total()),
            a.cold_started.to_string(),
        ]);
    }
    t
}

/// Regenerates Figure 15: vary memory size (2–8 GB).
pub fn fig15(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let t = sweep_table(
        cfg,
        jobs,
        "Figure 15 — vary memory size on AWS-Serverless (workload-120)",
        "Memory MB",
        &[2048.0, 4096.0, 6144.0, 8192.0],
        |d, v| d.with_memory_mb(v),
    );
    let notes = vec![
        "Expected shapes: latency decreases with memory (sharper for VGG than MobileNet); \
         cost is not monotone — 4GB can be cheaper than 2GB for VGG because faster handlers \
         and fewer cold instances offset the higher GB-second rate."
            .to_string(),
    ];
    (vec![t], notes)
}

/// Regenerates Figure 16: vary provisioned concurrency (0/8/16/32).
pub fn fig16(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let t = sweep_table(
        cfg,
        jobs,
        "Figure 16 — vary provisioned concurrency on AWS-Serverless (workload-120)",
        "Provisioned",
        &[0u32, 8, 16, 32],
        |d, v| d.with_provisioned_concurrency(v),
    );
    let notes = vec![
        "Expected shapes: provisioned concurrency does not reliably reduce latency and adds \
         a reservation fee; the paper observed *more* cold-started instances with it (e.g. \
         VGG/TF: 614/640/478 at PC 8/16/32 vs 409 without) and inferred a more aggressive \
         scaling policy, which the simulator models."
            .to_string(),
    ];
    (vec![t], notes)
}

/// Regenerates Figure 17: vary client batch size (1/2/4/8).
pub fn fig17(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let t = sweep_table(
        cfg,
        jobs,
        "Figure 17 — vary batch size on AWS-Serverless (workload-120)",
        "Batch",
        &[1u32, 2, 4, 8],
        |d, v| d.with_batch_size(v),
    );
    let notes = vec![
        "Expected shapes: mean latency roughly doubles as batch size doubles (requests wait \
         client-side and batched execution is longer), while cost drops — fewer invocations \
         and fewer cold-started instances; the saving is marginal for MobileNet on ORT."
            .to_string(),
    ];
    (vec![t], notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_more_memory_is_faster_for_vgg() {
        let cfg = ReproConfig::scaled(0.05);
        let base = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::Vgg,
            RuntimeKind::Tf115,
        );
        let small = cfg.run(&base.with_memory_mb(2048.0), MmppPreset::W120);
        let big = cfg.run(&base.with_memory_mb(8192.0), MmppPreset::W120);
        assert!(big.mean_latency().unwrap() < small.mean_latency().unwrap());
    }

    #[test]
    fn fig17_batching_trades_latency_for_cost() {
        let cfg = ReproConfig::scaled(0.05);
        let base = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::Vgg,
            RuntimeKind::Tf115,
        );
        let single = cfg.run(&base, MmppPreset::W120);
        let batched = cfg.run(&base.with_batch_size(8), MmppPreset::W120);
        assert!(batched.mean_latency().unwrap() > single.mean_latency().unwrap());
        assert!(batched.cost_dollars() < single.cost_dollars());
    }

    #[test]
    fn sweeps_emit_full_grids() {
        let cfg = ReproConfig::scaled(0.01);
        let (t15, _) = fig15(&cfg, Jobs::available());
        let (t16, _) = fig16(&cfg, Jobs::available());
        let (t17, _) = fig17(&cfg, Jobs::available());
        // 4 knob values × 2 models × 2 runtimes.
        assert_eq!(t15[0].len(), 16);
        assert_eq!(t16[0].len(), 16);
        assert_eq!(t17[0].len(), 16);
    }
}
