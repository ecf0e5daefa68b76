//! Figure 12: in-depth micro-benchmarks with workload-120 — container
//! size, downloaded size, input size, and prediction count.

use super::{Output, Planned, ReproConfig};
use slsb_core::{fmt_opt_secs, Deployment, Jobs, Table};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::PlatformKind;
use slsb_workload::MmppPreset;

const PLATFORMS: [PlatformKind; 2] = [PlatformKind::AwsServerless, PlatformKind::GcpServerless];

/// Extra image MB of Figure 12a.
const EXTRA_IMAGE_MB: [f64; 4] = [0.0, 512.0, 1024.0, 1536.0];
/// Extra downloaded MB of Figure 12b.
const EXTRA_DOWNLOAD_MB: [f64; 4] = [0.0, 100.0, 200.0, 300.0];
/// Samples per request of Figure 12c.
const SAMPLES: [u32; 4] = [1, 4, 8, 16];
/// Inferences per request of Figure 12d.
const REPEATS: [u32; 4] = [1, 2, 4, 8];

/// The runs of one panel at workload-120: for each knob value, each
/// platform's `base` deployment with `vary` applied.
fn panel<T: Copy>(
    values: &[T],
    base: impl Fn(PlatformKind) -> Deployment,
    vary: impl Fn(&mut Deployment, T),
) -> Vec<Planned> {
    let mut plan = Vec::with_capacity(values.len() * PLATFORMS.len());
    for &v in values {
        for platform in PLATFORMS {
            let mut d = base(platform);
            vary(&mut d, v);
            plan.push((d, MmppPreset::W120));
        }
    }
    plan
}

/// Regenerates Figure 12a–d.
pub fn fig12(cfg: &ReproConfig, jobs: Jobs) -> Output {
    let mobilenet = |platform| Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
    let albert = |platform| Deployment::new(platform, ModelKind::Albert, RuntimeKind::Tf115);
    // The unmodified MobileNet/TF1.15 deployment is the first row of 12a,
    // 12c and 12d alike: the plan runs it once per platform.
    let plan = [
        // (a) Container size: inject dummy MB into the image.
        panel(&EXTRA_IMAGE_MB, mobilenet, |d, mb| {
            d.extra_container_mb = mb
        }),
        // (b) Downloaded size: extra dummy data beside the ALBERT model.
        panel(&EXTRA_DOWNLOAD_MB, albert, |d, mb| d.extra_download_mb = mb),
        // (c) Input size: pack more samples per request, predict only one.
        panel(&SAMPLES, mobilenet, |d, n| d.samples_per_request = n),
        // (d) Prediction count: execute the inference several times per
        // request.
        panel(&REPEATS, mobilenet, |d, n| d.inference_repeats = n),
    ]
    .concat();
    let analyses = cfg.run_plan(&plan, jobs);
    // One row of `PLATFORMS.len()` runs per knob value, panel after panel.
    let mut rows = analyses.chunks(PLATFORMS.len());

    let mut tables = Vec::new();
    let mut a = Table::new(
        "Figure 12a — vary container size (MobileNet, TF1.15): cold-start E2E",
        &["Extra image MB", "AWS cs E2E", "GCP cs E2E"],
    );
    for (extra, runs) in EXTRA_IMAGE_MB.iter().zip(rows.by_ref()) {
        let mut row = vec![format!("{extra:.0}")];
        row.extend(runs.iter().map(|an| fmt_opt_secs(an.cold.e2e_cold)));
        a.push_row(row);
    }
    tables.push(a);

    let mut b = Table::new(
        "Figure 12b — vary downloaded size (ALBERT, TF1.15): download time / cold-start E2E",
        &[
            "Extra MB",
            "AWS download",
            "AWS cs E2E",
            "GCP download",
            "GCP cs E2E",
        ],
    );
    for (extra, runs) in EXTRA_DOWNLOAD_MB.iter().zip(rows.by_ref()) {
        let mut row = vec![format!("{extra:.0}")];
        for an in runs {
            row.push(fmt_opt_secs(an.cold.download));
            row.push(fmt_opt_secs(an.cold.e2e_cold));
        }
        b.push_row(row);
    }
    tables.push(b);

    let mut c = Table::new(
        "Figure 12c — vary input size (MobileNet, TF1.15): warm-up E2E",
        &["Samples/request", "AWS wu E2E", "GCP wu E2E"],
    );
    for (samples, runs) in SAMPLES.iter().zip(rows.by_ref()) {
        let mut row = vec![samples.to_string()];
        row.extend(runs.iter().map(|an| fmt_opt_secs(an.cold.e2e_warm)));
        c.push_row(row);
    }
    tables.push(c);

    let mut dtab = Table::new(
        "Figure 12d — vary number of inferences (MobileNet, TF1.15): overall latency",
        &["Inferences/request", "AWS mean latency", "GCP mean latency"],
    );
    for (repeats, runs) in REPEATS.iter().zip(rows.by_ref()) {
        let mut row = vec![repeats.to_string()];
        row.extend(runs.iter().map(|an| fmt_opt_secs(an.mean_latency())));
        dtab.push_row(row);
    }
    tables.push(dtab);

    let notes = vec![
        "Expected shapes (paper takeaways): container size barely moves cold-start E2E \
         (~0.1–0.2s per +0.5–1.5GB); downloaded size matters, and AWS downloads ~4x faster \
         than GCP (+300MB ⇒ +2.39s vs +10.06s); input size has a minor effect on warm E2E; \
         prediction count grows latency roughly linearly and dominates when large."
            .to_string(),
    ];
    (tables, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_emits_four_tables() {
        let (tables, notes) = fig12(&ReproConfig::scaled(0.01), Jobs::available());
        assert_eq!(tables.len(), 4);
        assert!(tables.iter().all(|t| t.len() == 4));
        assert!(!notes.is_empty());
    }

    #[test]
    fn download_size_raises_cold_start() {
        let cfg = ReproConfig::scaled(0.03);
        let base = {
            let d = Deployment::new(
                PlatformKind::GcpServerless,
                ModelKind::Albert,
                RuntimeKind::Tf115,
            );
            cfg.run(&d, MmppPreset::W120)
        };
        let heavy = {
            let mut d = Deployment::new(
                PlatformKind::GcpServerless,
                ModelKind::Albert,
                RuntimeKind::Tf115,
            );
            d.extra_download_mb = 300.0;
            cfg.run(&d, MmppPreset::W120)
        };
        assert!(
            heavy.cold.download.unwrap() > base.cold.download.unwrap() + 5.0,
            "GCP +300MB should add ~10s of download"
        );
    }

    #[test]
    fn inference_repeats_scale_latency() {
        let cfg = ReproConfig::scaled(0.03);
        let one = {
            let d = Deployment::new(
                PlatformKind::AwsServerless,
                ModelKind::MobileNet,
                RuntimeKind::Tf115,
            );
            cfg.run(&d, MmppPreset::W120)
        };
        let eight = {
            let mut d = Deployment::new(
                PlatformKind::AwsServerless,
                ModelKind::MobileNet,
                RuntimeKind::Tf115,
            );
            d.inference_repeats = 8;
            cfg.run(&d, MmppPreset::W120)
        };
        assert!(
            eight.cold.predict_warm.unwrap() > one.cold.predict_warm.unwrap() * 4.0,
            "8 inferences must cost much more than 1"
        );
    }
}
