//! Experiment regeneration: each submodule rebuilds one group of the
//! paper's artifacts and returns paper-style tables.
//!
//! Every experiment takes the same three steps. It *plans* its replays
//! (a list of independent runs, each a pure function of its deployment,
//! its trace and the seed), *runs* them over [`parallel_map`] on up to
//! `jobs` workers, collecting the results in plan order, and *renders*
//! its tables from those results. The output is therefore byte-identical
//! for every worker budget, and `Jobs::new(1)` spawns no thread.
//!
//! | Module | Artifacts |
//! |---|---|
//! | [`workloads`] | Figure 4 |
//! | [`comparison`] | Figure 5, Table 1 |
//! | [`timelines`] | Figures 6, 8, 9 |
//! | [`instances`] | Figures 7, 11 |
//! | [`breakdown`] | Figures 10, 14 |
//! | [`microbench`] | Figure 12 |
//! | [`runtimes`] | Figure 13, Table 2 |
//! | [`sweeps`] | Figures 15, 16, 17 |
//! | [`extensions`] | ext-adaptive, ext-explorer, ext-scaling |

pub mod breakdown;
pub mod comparison;
pub mod extensions;
pub mod instances;
pub mod microbench;
pub mod runtimes;
pub mod sweeps;
pub mod timelines;
pub mod workloads;

use slsb_core::{
    analyze_outcomes, parallel_map, Analysis, Deployment, Executor, ExperimentId, Jobs, OutcomeRun,
    Table, TraceCache,
};
use slsb_sim::Seed;
use slsb_workload::{MmppPreset, TooManyRequests, WorkloadTrace};
use std::sync::Arc;

/// Knobs shared by every experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReproConfig {
    /// Experiment seed; the same seed reproduces identical tables.
    pub seed: u64,
    /// Workload-duration scale: 1.0 replays the paper's full ~15-minute
    /// workloads; benches use small fractions.
    pub scale: f64,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            // Seed 127 is the calibrated default: its generated workloads
            // hit the paper's published request counts (15 000 / 51 600 /
            // 86 000) within 0.3% under the ziggurat samplers. Any seed
            // works; this one makes the regenerated tables directly
            // comparable to the paper's. (Seed 152 played this role for
            // the pre-ziggurat draw streams.)
            seed: 127,
            scale: 1.0,
        }
    }
}

impl ReproConfig {
    /// A configuration with every workload's duration scaled by `scale`.
    pub fn scaled(scale: f64) -> Self {
        ReproConfig {
            scale,
            ..ReproConfig::default()
        }
    }

    /// Checks a duration scale: positive, finite, and small enough that
    /// every preset expects no more requests than one run can index.
    ///
    /// # Errors
    /// Names the first preset the scale makes too large.
    pub fn check_scale(scale: f64) -> Result<(), String> {
        if scale <= 0.0 || !scale.is_finite() {
            return Err(format!("scale must be positive, got {scale}"));
        }
        for preset in MmppPreset::ALL {
            let spec = preset.spec();
            TooManyRequests::check(spec.expected_requests() * scale)
                .map_err(|e| format!("scale {scale}: {} {e}", spec.name))?;
        }
        Ok(())
    }

    /// The experiment seed.
    pub fn seed(&self) -> Seed {
        Seed(self.seed)
    }

    /// The workload trace for `preset` at this config's seed and scale,
    /// served from the process-wide [`TraceCache`]. Experiments replay the
    /// same three presets for almost every figure; the first request per
    /// `(seed, preset, scale)` generates, the rest share the realization.
    pub fn trace(&self, preset: MmppPreset) -> Arc<WorkloadTrace> {
        assert!(
            self.scale.is_finite() && self.scale > 0.0,
            "invalid scale: {}",
            self.scale
        );
        TraceCache::preset(self.seed().substream("workload"), preset, self.scale)
    }

    /// Runs `deployment` on `preset` and analyzes it.
    pub fn run(&self, deployment: &Deployment, preset: MmppPreset) -> Analysis {
        let trace = self.trace(preset);
        analyze_outcomes(&self.replay(deployment, &trace))
    }

    /// The run step of most experiments: replays every distinct entry of
    /// `plan` once, on up to `jobs` workers, and returns one analysis per
    /// entry in plan order. Entries that are equal share one replay: a run
    /// depends only on its deployment, preset and the seed.
    pub fn run_plan(&self, plan: &[Planned], jobs: Jobs) -> Vec<Analysis> {
        let mut distinct: Vec<Planned> = Vec::with_capacity(plan.len());
        let slots: Vec<usize> = plan
            .iter()
            .map(|entry| {
                distinct.iter().position(|d| d == entry).unwrap_or_else(|| {
                    distinct.push(*entry);
                    distinct.len() - 1
                })
            })
            .collect();
        let analyses = parallel_map(jobs, &distinct, |_, (dep, preset)| self.run(dep, *preset));
        slots.into_iter().map(|i| analyses[i].clone()).collect()
    }

    /// Replays `deployment` on `trace` at this config's seed. The run
    /// settles into an outcome table: experiments read analyses, bills
    /// and SLO attainment, never records.
    pub fn replay<'t>(&self, deployment: &Deployment, trace: &'t WorkloadTrace) -> OutcomeRun<'t> {
        Executor::default()
            .run_outcomes(deployment, trace, self.seed())
            .expect("experiment deployments are valid by construction")
    }
}

/// One planned replay: a deployment on a preset workload.
pub type Planned = (Deployment, MmppPreset);

/// What one experiment produced: paper-style tables plus free-form notes.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Which artifact this regenerates.
    pub id: ExperimentId,
    /// Paper-style tables, in presentation order.
    pub tables: Vec<Table>,
    /// Commentary (observed highlights, paper-vs-measured remarks).
    pub notes: Vec<String>,
}

impl ExperimentOutput {
    /// Renders the whole output as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("# {}\n\n", self.id.title());
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str("Notes:\n");
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
        }
        out
    }
}

/// Regenerates one experiment, its replays on every available core:
/// [`run_experiment_jobs`] with [`Jobs::available`].
pub fn run_experiment(id: ExperimentId, cfg: &ReproConfig) -> ExperimentOutput {
    run_experiment_jobs(id, cfg, Jobs::available())
}

/// Regenerates one experiment with its independent replays on up to
/// `jobs` workers. The output is byte-identical for every `jobs`.
pub fn run_experiment_jobs(id: ExperimentId, cfg: &ReproConfig, jobs: Jobs) -> ExperimentOutput {
    let (tables, notes) = match id {
        ExperimentId::Fig4 => workloads::fig4(cfg),
        ExperimentId::Fig5 => comparison::fig5(cfg, jobs),
        ExperimentId::Table1 => comparison::table1(cfg, jobs),
        ExperimentId::Fig6 => timelines::fig6(cfg, jobs),
        ExperimentId::Fig7 => instances::fig7(cfg, jobs),
        ExperimentId::Fig8 => timelines::fig8(cfg, jobs),
        ExperimentId::Fig9 => timelines::fig9(cfg, jobs),
        ExperimentId::Fig10 => breakdown::fig10(cfg, jobs),
        ExperimentId::Fig11 => instances::fig11(cfg, jobs),
        ExperimentId::Fig12 => microbench::fig12(cfg, jobs),
        ExperimentId::Fig13 => runtimes::fig13(cfg, jobs),
        ExperimentId::Table2 => runtimes::table2(cfg, jobs),
        ExperimentId::Fig14 => breakdown::fig14(cfg, jobs),
        ExperimentId::Fig15 => sweeps::fig15(cfg, jobs),
        ExperimentId::Fig16 => sweeps::fig16(cfg, jobs),
        ExperimentId::Fig17 => sweeps::fig17(cfg, jobs),
        ExperimentId::ExtAdaptive => extensions::adaptive(cfg, jobs),
        ExperimentId::ExtExplorer => extensions::explorer(cfg, jobs),
        ExperimentId::ExtScaling => extensions::scaling(cfg, jobs),
        ExperimentId::ExtHybrid => extensions::hybrid(cfg, jobs),
    };
    ExperimentOutput { id, tables, notes }
}

/// `(tables, notes)` pair every submodule function returns.
pub type Output = (Vec<Table>, Vec<String>);

#[cfg(test)]
mod tests {
    use super::*;
    use slsb_model::{ModelKind, RuntimeKind};
    use slsb_platform::PlatformKind;

    #[test]
    fn scaled_trace_shrinks_proportionally() {
        let full = ReproConfig::default();
        let small = ReproConfig::scaled(0.1);
        let a = full.trace(MmppPreset::W40);
        let b = small.trace(MmppPreset::W40);
        assert!(b.len() < a.len() / 5);
        assert_eq!(b.duration().as_secs_f64(), a.duration().as_secs_f64() * 0.1);
    }

    #[test]
    fn a_plan_runs_equal_entries_once_and_answers_in_plan_order() {
        let cfg = ReproConfig::scaled(0.01);
        let dep = |model| Deployment::new(PlatformKind::AwsServerless, model, RuntimeKind::Tf115);
        let plan = [
            (dep(ModelKind::Vgg), MmppPreset::W40),
            (dep(ModelKind::MobileNet), MmppPreset::W40),
            (dep(ModelKind::Vgg), MmppPreset::W40),
        ];
        let got = cfg.run_plan(&plan, Jobs::new(2));
        let labels: Vec<&str> = got.iter().map(|a| a.label.as_str()).collect();
        let vgg = "AWS-Serverless/VGG/TF1.15";
        assert_eq!(labels, [vgg, "AWS-Serverless/MobileNet/TF1.15", vgg]);
        let json = |a: &Analysis| serde_json::to_string(a).expect("analysis serializes");
        assert_eq!(json(&got[0]), json(&got[2]));
        assert_eq!(json(&got[0]), json(&cfg.run(&plan[0].0, MmppPreset::W40)));
    }
}
