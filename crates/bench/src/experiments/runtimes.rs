//! Figure 13 and Table 2: the serving-runtime study (TF1.15 vs ORT1.4).

use super::{Output, Planned, ReproConfig};
use slsb_core::{fmt_money, Analysis, Deployment, Jobs, Table};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::PlatformKind;
use slsb_workload::MmppPreset;

const MODELS: [ModelKind; 2] = [ModelKind::MobileNet, ModelKind::Vgg];
const PLATFORMS: [PlatformKind; 2] = [PlatformKind::AwsServerless, PlatformKind::GcpServerless];

/// `rows` of deployments, each run on all three workloads on up to `jobs`
/// workers: one slice of three analyses per row, workload-40 first.
fn on_every_workload(cfg: &ReproConfig, jobs: Jobs, rows: &[Deployment]) -> Vec<[Analysis; 3]> {
    let plan: Vec<Planned> = rows
        .iter()
        .flat_map(|&d| MmppPreset::ALL.map(|preset| (d, preset)))
        .collect();
    let mut analyses = cfg.run_plan(&plan, jobs).into_iter();
    rows.iter()
        .map(|_| std::array::from_fn(|_| analyses.next().expect("one analysis per run")))
        .collect()
}

/// Regenerates Figure 13: mean latency (± std deviation) of TF1.15 vs
/// ORT1.4 for MobileNet and VGG across the three workloads on both clouds.
pub fn fig13(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let mut rows = Vec::new();
    for model in MODELS {
        for platform in PLATFORMS {
            for runtime in RuntimeKind::ALL {
                rows.push(Deployment::new(platform, model, runtime));
            }
        }
    }
    let analyses = on_every_workload(cfg, jobs, &rows);
    let per_model = rows.len() / MODELS.len();
    let mut tables = Vec::new();
    for (model, (deps, runs)) in MODELS
        .into_iter()
        .zip(rows.chunks(per_model).zip(analyses.chunks(per_model)))
    {
        let mut t = Table::new(
            format!("Figure 13 — {model}: mean latency ± std (s)"),
            &["Deployment", "workload-40", "workload-120", "workload-200"],
        );
        for (d, row_runs) in deps.iter().zip(runs) {
            let mut row = vec![format!("{} {}", d.platform.label(), d.runtime)];
            row.extend(row_runs.iter().map(|a| match a.latency {
                Some(l) => format!("{:.3} ± {:.3}", l.mean, l.std_dev),
                None => "-".into(),
            }));
            t.push_row(row);
        }
        tables.push(t);
    }
    let notes = vec![
        "Paper anchors: ORT1.4 is up to 2.51x faster on AWS and 3.61x on GCP for MobileNet; \
         the improvement is more moderate on VGG (1.47x on GCP) because execution time, not \
         cold start, dominates there."
            .to_string(),
    ];
    (tables, notes)
}

/// Regenerates Table 2: serverless costs with ORT1.4.
pub fn table2(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let mut t = Table::new(
        "Table 2: costs for serverless serving with ORT1.4",
        &[
            "System",
            "Model",
            "workload-40",
            "workload-120",
            "workload-200",
        ],
    );
    let mut rows = Vec::new();
    for platform in PLATFORMS {
        for model in MODELS {
            rows.push(Deployment::new(platform, model, RuntimeKind::Ort14));
        }
    }
    for (d, runs) in rows.iter().zip(on_every_workload(cfg, jobs, &rows)) {
        let mut row = vec![d.platform.label().to_string(), d.model.to_string()];
        row.extend(runs.iter().map(|a| fmt_money(a.cost.total())));
        t.push_row(row);
    }
    let notes = vec![
        "Paper anchors: AWS MobileNet $0.011/$0.037/$0.062, AWS VGG $0.322/$0.931/$1.644, \
         GCP MobileNet $0.047/$0.160/$0.272, GCP VGG $0.383/$1.108/$2.455 — ORT cuts cost \
         up to 4.55x vs Table 1."
            .to_string(),
    ];
    (vec![t], notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_two_tables_four_rows() {
        let (tables, _) = fig13(&ReproConfig::scaled(0.01), Jobs::available());
        assert_eq!(tables.len(), 2);
        assert!(tables.iter().all(|t| t.len() == 4));
    }

    #[test]
    fn ort_beats_tf_on_latency_and_cost_for_mobilenet() {
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
        assert!(ort.mean_latency().unwrap() < tf.mean_latency().unwrap());
        assert!(ort.cost_dollars() < tf.cost_dollars());
    }

    #[test]
    fn table2_has_four_rows() {
        let (tables, _) = table2(&ReproConfig::scaled(0.01), Jobs::available());
        assert_eq!(tables[0].len(), 4);
    }
}
