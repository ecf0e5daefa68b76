//! Figures 6, 8, 9: latency / success-ratio timelines contrasting
//! serverless with one alternative system.

use super::{Output, Planned, ReproConfig};
use slsb_core::{Analysis, Deployment, Jobs, Table};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::PlatformKind;
use slsb_workload::MmppPreset;

/// Builds one timeline table contrasting two systems on the same workload.
fn timeline_table(title: &str, left: (&str, &Analysis), right: (&str, &Analysis)) -> Table {
    let mut t = Table::new(
        title,
        &[
            "t (s)",
            &format!("{} latency", left.0),
            &format!("{} SR", left.0),
            &format!("{} latency", right.0),
            &format!("{} SR", right.0),
        ],
    );
    let n = left.1.series.len().max(right.1.series.len());
    let cell_lat = |a: &Analysis, i: usize| {
        a.series
            .get(i)
            .and_then(|p| p.mean_latency)
            .map(|l| format!("{l:.3}"))
            .unwrap_or_else(|| "-".into())
    };
    let cell_sr = |a: &Analysis, i: usize| {
        a.series
            .get(i)
            .and_then(|p| p.success_ratio)
            .map(|s| format!("{:.2}", s))
            .unwrap_or_else(|| "-".into())
    };
    for i in 0..n {
        t.push_row(vec![
            format!("{}", i * 10),
            cell_lat(left.1, i),
            cell_sr(left.1, i),
            cell_lat(right.1, i),
            cell_sr(right.1, i),
        ]);
    }
    t
}

fn summarize(label: &str, a: &Analysis) -> String {
    format!(
        "{label}: mean latency {}, SR {:.1}%",
        a.mean_latency()
            .map(|l| format!("{l:.3}s"))
            .unwrap_or_else(|| "-".into()),
        a.success_ratio * 100.0
    )
}

/// One panel of a timeline figure: a serverless platform against an
/// alternative, serving `model` on `preset`.
struct Panel {
    title: &'static str,
    model: ModelKind,
    preset: MmppPreset,
    serverless: PlatformKind,
    other: PlatformKind,
}

/// Runs both systems of every panel on up to `jobs` workers and renders a
/// timeline table per panel, then one summary note per system and `shape`.
fn versus(cfg: &ReproConfig, jobs: Jobs, panels: [Panel; 2], shape: &str) -> Output {
    let plan: Vec<Planned> = panels
        .iter()
        .flat_map(|p| {
            [p.serverless, p.other].map(|platform| {
                (
                    Deployment::new(platform, p.model, RuntimeKind::Tf115),
                    p.preset,
                )
            })
        })
        .collect();
    let analyses = cfg.run_plan(&plan, jobs);
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for (p, pair) in panels.iter().zip(analyses.chunks(2)) {
        let (sls, alt) = (&pair[0], &pair[1]);
        tables.push(timeline_table(
            p.title,
            (p.serverless.label(), sls),
            (p.other.label(), alt),
        ));
        notes.push(summarize(p.serverless.label(), sls));
        notes.push(summarize(p.other.label(), alt));
    }
    notes.push(shape.to_string());
    (tables, notes)
}

/// Regenerates Figure 6: serverless vs ManagedML — MobileNet·w-40 on AWS
/// (6a) and ALBERT·w-40 on GCP (6b).
pub fn fig6(cfg: &ReproConfig, jobs: Jobs) -> Output {
    versus(
        cfg,
        jobs,
        [
            Panel {
                title: "Figure 6a — MobileNet, workload-40, AWS: serverless vs ManagedML",
                model: ModelKind::MobileNet,
                preset: MmppPreset::W40,
                serverless: PlatformKind::AwsServerless,
                other: PlatformKind::AwsManagedMl,
            },
            Panel {
                title: "Figure 6b — ALBERT, workload-40, GCP: serverless vs ManagedML",
                model: ModelKind::Albert,
                preset: MmppPreset::W40,
                serverless: PlatformKind::GcpServerless,
                other: PlatformKind::GcpManagedMl,
            },
        ],
        "Expected shape: serverless starts slow (cold starts) then stays flat; ManagedML \
         degrades and drops requests once the rate exceeds one instance's capacity, \
         recovering only after minutes-long scale-out.",
    )
}

/// Regenerates Figure 8: serverless vs CPU server — ALBERT·w-120 on AWS
/// (8a) and MobileNet·w-120 on GCP (8b).
pub fn fig8(cfg: &ReproConfig, jobs: Jobs) -> Output {
    versus(
        cfg,
        jobs,
        [
            Panel {
                title: "Figure 8a — ALBERT, workload-120, AWS: serverless vs CPU server",
                model: ModelKind::Albert,
                preset: MmppPreset::W120,
                serverless: PlatformKind::AwsServerless,
                other: PlatformKind::AwsCpu,
            },
            Panel {
                title: "Figure 8b — MobileNet, workload-120, GCP: serverless vs CPU server",
                model: ModelKind::MobileNet,
                preset: MmppPreset::W120,
                serverless: PlatformKind::GcpServerless,
                other: PlatformKind::GcpCpu,
            },
        ],
        "Expected shape: CPU-server latency climbs to tens of seconds at the first request \
         peak and stays high; serverless remains consistently low after warm-up.",
    )
}

/// Regenerates Figure 9: serverless vs GPU server — VGG·w-40 (9a) and
/// VGG·w-200 (9b) on AWS.
pub fn fig9(cfg: &ReproConfig, jobs: Jobs) -> Output {
    versus(
        cfg,
        jobs,
        [
            Panel {
                title: "Figure 9a — VGG, workload-40, AWS: serverless vs GPU server",
                model: ModelKind::Vgg,
                preset: MmppPreset::W40,
                serverless: PlatformKind::AwsServerless,
                other: PlatformKind::AwsGpu,
            },
            Panel {
                title: "Figure 9b — VGG, workload-200, AWS: serverless vs GPU server",
                model: ModelKind::Vgg,
                preset: MmppPreset::W200,
                serverless: PlatformKind::AwsServerless,
                other: PlatformKind::AwsGpu,
            },
        ],
        "Expected shape: at workload-40 the GPU wins throughout; at workload-200 the GPU \
         queue grows during peaks (three-phase dynamics) while warmed-up serverless stays \
         low.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_produces_two_timelines() {
        let (tables, notes) = fig6(&ReproConfig::scaled(0.02), Jobs::available());
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].is_empty());
        assert!(notes.len() >= 4);
    }

    #[test]
    fn fig9_gpu_wins_at_low_load() {
        let cfg = ReproConfig::scaled(0.05);
        let sls = cfg.run(
            &Deployment::new(
                PlatformKind::AwsServerless,
                ModelKind::Vgg,
                RuntimeKind::Tf115,
            ),
            MmppPreset::W40,
        );
        let gpu = cfg.run(
            &Deployment::new(PlatformKind::AwsGpu, ModelKind::Vgg, RuntimeKind::Tf115),
            MmppPreset::W40,
        );
        assert!(
            gpu.mean_latency().unwrap() < sls.mean_latency().unwrap(),
            "GPU should win at workload-40"
        );
    }
}
