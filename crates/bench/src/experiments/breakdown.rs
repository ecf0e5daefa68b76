//! Figures 10 and 14: cold-start / warm-up sub-stage breakdowns.

use super::{Output, Planned, ReproConfig};
use slsb_core::{fmt_opt_secs, Analysis, Deployment, Jobs, Table};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::PlatformKind;
use slsb_workload::MmppPreset;

fn breakdown_row(label: &str, a: &Analysis) -> Vec<String> {
    vec![
        label.to_string(),
        fmt_opt_secs(a.cold.e2e_cold),
        fmt_opt_secs(a.cold.import),
        fmt_opt_secs(a.cold.download),
        fmt_opt_secs(a.cold.load),
        fmt_opt_secs(a.cold.predict_cold),
        fmt_opt_secs(a.cold.e2e_warm),
        fmt_opt_secs(a.cold.predict_warm),
    ]
}

const HEADERS: [&str; 8] = [
    "Deployment",
    "cs E2E",
    "cs import",
    "cs download",
    "cs load",
    "cs predict",
    "wu E2E",
    "wu predict",
];

/// A breakdown table titled `title`: one row per labelled deployment,
/// each run at workload-120 on up to `jobs` workers.
fn breakdown_table(
    cfg: &ReproConfig,
    jobs: Jobs,
    title: &str,
    rows: &[(String, Deployment)],
) -> Table {
    let plan: Vec<Planned> = rows.iter().map(|(_, d)| (*d, MmppPreset::W120)).collect();
    let mut t = Table::new(title, &HEADERS);
    for ((label, _), a) in rows.iter().zip(cfg.run_plan(&plan, jobs)) {
        t.push_row(breakdown_row(label, &a));
    }
    t
}

/// Regenerates Figure 10: cold-start vs warm-up breakdown of the two
/// serverless platforms for MobileNet and ALBERT at workload-120 (TF1.15).
pub fn fig10(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let mut rows = Vec::new();
    for model in [ModelKind::MobileNet, ModelKind::Albert] {
        for platform in [PlatformKind::AwsServerless, PlatformKind::GcpServerless] {
            let dep = Deployment::new(platform, model, RuntimeKind::Tf115);
            rows.push((format!("{} {model}", platform.label()), dep));
        }
    }
    let t = breakdown_table(
        cfg,
        jobs,
        "Figure 10 — serverless cold-start/warm-up breakdown (TF1.15, workload-120)",
        &rows,
    );
    let notes = vec![
        "Paper anchors: cs E2E = 9.08s (AWS MN) / 9.49s (AWS AL) / 11.71s (GCP MN) / 14.19s \
         (GCP AL); import dominates at 4–5s on both clouds; cold predict ≫ warm predict \
         (TF lazy initialization)."
            .to_string(),
    ];
    (vec![t], notes)
}

/// Regenerates Figure 14: TF1.15 vs ORT1.4 breakdown for MobileNet at
/// workload-120 on both clouds.
pub fn fig14(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let mut rows = Vec::new();
    for platform in [PlatformKind::AwsServerless, PlatformKind::GcpServerless] {
        for runtime in RuntimeKind::ALL {
            let dep = Deployment::new(platform, ModelKind::MobileNet, runtime);
            rows.push((format!("{} {runtime}", platform.label()), dep));
        }
    }
    let t = breakdown_table(
        cfg,
        jobs,
        "Figure 14 — runtime breakdown (MobileNet, workload-120)",
        &rows,
    );
    let notes = vec![
        "Paper anchors: cs E2E drops 9.08s → 2.775s on AWS and 11.71s → 2.917s on GCP when \
         switching TF1.15 → ORT1.4; the win comes from import and load time."
            .to_string(),
    ];
    (vec![t], notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_has_four_rows() {
        let (tables, _) = fig10(&ReproConfig::scaled(0.02), Jobs::available());
        assert_eq!(tables[0].len(), 4);
    }

    #[test]
    fn fig14_ort_cold_start_is_faster() {
        let cfg = ReproConfig::scaled(0.05);
        let tf = cfg.run(
            &Deployment::new(
                PlatformKind::AwsServerless,
                ModelKind::MobileNet,
                RuntimeKind::Tf115,
            ),
            MmppPreset::W120,
        );
        let ort = cfg.run(
            &Deployment::new(
                PlatformKind::AwsServerless,
                ModelKind::MobileNet,
                RuntimeKind::Ort14,
            ),
            MmppPreset::W120,
        );
        assert!(ort.cold.e2e_cold.unwrap() * 2.0 < tf.cold.e2e_cold.unwrap());
    }
}
