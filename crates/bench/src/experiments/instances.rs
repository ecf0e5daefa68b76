//! Figures 7 and 11: instance counts over time.

use super::{Output, Planned, ReproConfig};
use slsb_core::{Analysis, Deployment, Jobs, Table};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::PlatformKind;
use slsb_workload::MmppPreset;

fn instance_table(title: &str, columns: &[(&str, &Analysis)]) -> Table {
    let mut headers: Vec<String> = vec!["t (s)".into()];
    headers.extend(columns.iter().map(|(l, _)| l.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header_refs);
    let n = columns
        .iter()
        .map(|(_, a)| a.instance_series.len())
        .max()
        .unwrap_or(0);
    for i in 0..n {
        let mut row = vec![format!("{}", i * 10)];
        for (_, a) in columns {
            row.push(
                a.instance_series
                    .get(i)
                    .map(|&(_, v)| v.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        t.push_row(row);
    }
    t
}

/// Regenerates Figure 7: the number of in-service instances on the
/// ManagedML services, MobileNet at workload-40.
pub fn fig7(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let plan: Vec<Planned> = [PlatformKind::AwsManagedMl, PlatformKind::GcpManagedMl]
        .map(|platform| {
            let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
            (dep, MmppPreset::W40)
        })
        .to_vec();
    let [aws, gcp]: [Analysis; 2] = cfg
        .run_plan(&plan, jobs)
        .try_into()
        .expect("one analysis per planned run");
    let t = instance_table(
        "Figure 7 — ManagedML in-service instances (MobileNet, workload-40)",
        &[("AWS-ManagedML", &aws), ("GCP-ManagedML", &gcp)],
    );
    let notes = vec![
        format!(
            "Peak instances: AWS {} / GCP {} (paper: AWS wants ~5 by minute 7, serving by \
             minute 11; GCP reaches 2 by minute 6)",
            aws.peak_instances, gcp.peak_instances
        ),
        "New instances take minutes to enter service, which is what queues and drops \
         requests in Figures 5–6."
            .to_string(),
    ];
    (vec![t], notes)
}

/// Regenerates Figure 11: the number of live instances on the serverless
/// platforms for all three models at workload-40.
pub fn fig11(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let plan: Vec<Planned> = ModelKind::ALL
        .into_iter()
        .flat_map(|model| {
            [PlatformKind::AwsServerless, PlatformKind::GcpServerless].map(|platform| {
                let dep = Deployment::new(platform, model, RuntimeKind::Tf115);
                (dep, MmppPreset::W40)
            })
        })
        .collect();
    let analyses = cfg.run_plan(&plan, jobs);
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for (model, pair) in ModelKind::ALL.into_iter().zip(analyses.chunks(2)) {
        let (aws, gcp) = (&pair[0], &pair[1]);
        notes.push(format!(
            "{model}: cold-started instances AWS {} / GCP {} (GCP over-provisions; paper's \
             VGG example: ~100 created vs ~50 needed)",
            aws.cold_started, gcp.cold_started
        ));
        tables.push(instance_table(
            &format!("Figure 11 — serverless live instances ({model}, workload-40)"),
            &[("AWS-Serverless", aws), ("GCP-Serverless", gcp)],
        ));
    }
    notes.push(
        "Both platforms scale to tens/hundreds of instances within the first minute of a \
         surge — the elasticity that keeps serverless success ratios at ~100%."
            .to_string(),
    );
    (tables, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_emits_one_table() {
        let (tables, notes) = fig7(&ReproConfig::scaled(0.02), Jobs::available());
        assert_eq!(tables.len(), 1);
        assert!(notes.len() >= 2);
    }

    #[test]
    fn fig11_gcp_overprovisions() {
        let cfg = ReproConfig::scaled(0.05);
        let aws = cfg.run(
            &Deployment::new(
                PlatformKind::AwsServerless,
                ModelKind::MobileNet,
                RuntimeKind::Tf115,
            ),
            MmppPreset::W40,
        );
        let gcp = cfg.run(
            &Deployment::new(
                PlatformKind::GcpServerless,
                ModelKind::MobileNet,
                RuntimeKind::Tf115,
            ),
            MmppPreset::W40,
        );
        assert!(
            gcp.cold_started as f64 > aws.cold_started as f64 * 1.1,
            "GCP {} vs AWS {}",
            gcp.cold_started,
            aws.cold_started
        );
    }
}
