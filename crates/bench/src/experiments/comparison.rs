//! Figure 5 and Table 1: the headline comparison of all eight systems
//! across three models and three workloads (TF1.15 everywhere).

use super::{Output, Planned, ReproConfig};
use slsb_core::{fmt_money, fmt_pct, parallel_map, Analysis, Deployment, Jobs, Table};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::PlatformKind;
use slsb_workload::MmppPreset;

/// One cell of the comparison matrix.
pub struct MatrixEntry {
    /// Serving system.
    pub platform: PlatformKind,
    /// Served model.
    pub model: ModelKind,
    /// Workload.
    pub preset: MmppPreset,
    /// Analyzer digest of the run.
    pub analysis: Analysis,
}

/// Runs the full 8 × 3 × 3 comparison matrix (`fig5` prints all of it)
/// on up to `jobs` workers, in platform, model, preset order.
///
/// `table1` runs only the 48 cells it prints: the four rented-box rows bill
/// wall-clock time and read MobileNet alone. Every run depends only on its
/// deployment, preset and the seed, so a cell `table1` shares with `fig5`
/// reads the same in both.
pub fn matrix(cfg: &ReproConfig, jobs: Jobs) -> Vec<MatrixEntry> {
    let mut plan: Vec<Planned> = Vec::with_capacity(8 * 3 * 3);
    for platform in PlatformKind::ALL {
        for model in ModelKind::ALL {
            for preset in MmppPreset::ALL {
                plan.push((Deployment::new(platform, model, RuntimeKind::Tf115), preset));
            }
        }
    }
    let analyses = cfg.run_plan(&plan, jobs);
    plan.into_iter()
        .zip(analyses)
        .map(|((dep, preset), analysis)| MatrixEntry {
            platform: dep.platform,
            model: dep.model,
            preset,
            analysis,
        })
        .collect()
}

fn lat_cell(a: &Analysis) -> String {
    a.mean_latency()
        .map(|l| format!("{l:.3}s"))
        .unwrap_or_else(|| "-".into())
}

/// Regenerates Figure 5: average latency and success ratio per system ×
/// model × workload (one table per model, mirroring the paper's panels).
pub fn fig5(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let m = matrix(cfg, jobs);
    let mut tables = Vec::new();
    for model in ModelKind::ALL {
        let mut t = Table::new(
            format!("Figure 5 — {model}: mean latency / success ratio"),
            &[
                "System",
                "w-40 latency",
                "w-40 SR",
                "w-120 latency",
                "w-120 SR",
                "w-200 latency",
                "w-200 SR",
            ],
        );
        for platform in PlatformKind::ALL {
            let mut row = vec![platform.label().to_string()];
            for preset in MmppPreset::ALL {
                let e = m
                    .iter()
                    .find(|e| e.platform == platform && e.model == model && e.preset == preset)
                    .expect("matrix is complete");
                row.push(lat_cell(&e.analysis));
                row.push(fmt_pct(e.analysis.success_ratio));
            }
            t.push_row(row);
        }
        tables.push(t);
    }

    let mut notes = Vec::new();
    // Headline observations, phrased like the paper's key findings.
    let get = |p: PlatformKind, mo: ModelKind, w: MmppPreset| {
        m.iter()
            .find(|e| e.platform == p && e.model == mo && e.preset == w)
            .expect("matrix is complete")
    };
    let sls = get(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        MmppPreset::W200,
    );
    let gpu = get(PlatformKind::AwsGpu, ModelKind::MobileNet, MmppPreset::W200);
    if let (Some(a), Some(b)) = (sls.analysis.mean_latency(), gpu.analysis.mean_latency()) {
        notes.push(format!(
            "MobileNet @ workload-200 on AWS: serverless {a:.3}s vs GPU {b:.3}s \
             ({:.1}x; paper reports 0.097s vs 7.52s = 77.5x)",
            b / a
        ));
    }
    let mml = get(
        PlatformKind::AwsManagedMl,
        ModelKind::MobileNet,
        MmppPreset::W40,
    );
    if let (Some(a), Some(b)) = (
        get(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            MmppPreset::W40,
        )
        .analysis
        .mean_latency(),
        mml.analysis.mean_latency(),
    ) {
        notes.push(format!(
            "MobileNet @ workload-40 on AWS: ManagedML is {:.1}x slower than serverless \
             (paper reports 71.6x)",
            b / a
        ));
    }
    (tables, notes)
}

/// Regenerates Table 1: costs for all evaluated systems.
pub fn table1(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let mut t = Table::new(
        "Table 1: costs for evaluated model serving systems (TF1.15)",
        &[
            "System",
            "Model",
            "workload-40",
            "workload-120",
            "workload-200",
        ],
    );
    // One row per serverless or ManagedML system and model; rented boxes
    // bill wall-clock time, so the paper reports a single model-independent
    // row per system, run on MobileNet.
    let mut rows: Vec<(PlatformKind, Option<ModelKind>)> = Vec::new();
    for platform in PlatformKind::ALL {
        if platform.is_serverless() || platform.is_managed_ml() {
            rows.extend(ModelKind::ALL.map(|model| (platform, Some(model))));
        } else {
            rows.push((platform, None));
        }
    }
    let plan: Vec<Planned> = rows
        .iter()
        .flat_map(|&(platform, model)| {
            let model = model.unwrap_or(ModelKind::MobileNet);
            let dep = Deployment::new(platform, model, RuntimeKind::Tf115);
            MmppPreset::ALL.map(|preset| (dep, preset))
        })
        .collect();
    // A cell's cost is the platform's bill: no analysis needed.
    let bills = parallel_map(jobs, &plan, |_, (dep, preset)| {
        cfg.replay(dep, &cfg.trace(*preset)).platform.cost.total()
    });
    for (&(platform, model), bills) in rows.iter().zip(bills.chunks(MmppPreset::ALL.len())) {
        let mut row = vec![
            platform.label().to_string(),
            model.map_or_else(|| "(any)".to_string(), |m| m.to_string()),
        ];
        row.extend(bills.iter().map(|&bill| fmt_money(bill)));
        t.push_row(row);
    }
    let notes = vec![
        "Paper anchors (AWS-Serverless row): $0.050/$0.117/$0.186 for MobileNet, \
         $0.223/$0.665/$1.326 for ALBERT, $0.492/$1.134/$1.993 for VGG."
            .to_string(),
    ];
    (vec![t], notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_complete_at_tiny_scale() {
        let m = matrix(&ReproConfig::scaled(0.01), Jobs::available());
        assert_eq!(m.len(), 72);
    }

    #[test]
    fn fig5_emits_three_tables_of_eight_rows() {
        let (tables, _) = fig5(&ReproConfig::scaled(0.01), Jobs::available());
        assert_eq!(tables.len(), 3);
        assert!(tables.iter().all(|t| t.len() == 8));
    }

    #[test]
    fn table1_has_rows_for_every_system() {
        let (tables, _) = table1(&ReproConfig::scaled(0.01), Jobs::available());
        // 4 serverless/managed systems × 3 models + 4 rented boxes.
        assert_eq!(tables[0].len(), 4 * 3 + 4);
    }

    #[test]
    fn table1_cells_equal_the_matrix_costs() {
        let cfg = ReproConfig::scaled(0.02);
        let m = matrix(&cfg, Jobs::available());
        let (tables, _) = table1(&cfg, Jobs::available());
        let csv = tables[0].to_csv();
        let mut cells = 0;
        for line in csv.lines().skip(1) {
            let row: Vec<&str> = line.split(',').collect();
            let platform = PlatformKind::ALL
                .into_iter()
                .find(|p| p.label() == row[0])
                .expect("row names a system");
            let model = match row[1] {
                "(any)" => ModelKind::MobileNet,
                name => ModelKind::ALL
                    .into_iter()
                    .find(|mo| mo.to_string() == name)
                    .expect("row names a model"),
            };
            for (preset, cell) in MmppPreset::ALL.into_iter().zip(&row[2..]) {
                let e = m
                    .iter()
                    .find(|e| e.platform == platform && e.model == model && e.preset == preset)
                    .expect("matrix is complete");
                assert_eq!(
                    *cell,
                    fmt_money(e.analysis.cost.total()),
                    "{platform:?}/{model}/{preset:?}"
                );
                cells += 1;
            }
        }
        assert_eq!(cells, 48);
    }
}
