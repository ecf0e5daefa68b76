//! Experiment regeneration: each submodule rebuilds one group of the
//! paper's artifacts and returns paper-style tables.
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
    analyze_outcomes, Analysis, Deployment, Executor, ExperimentId, OutcomeRun, Table, TraceCache,
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

    /// Replays `deployment` on `trace` at this config's seed. The run
    /// settles into an outcome table: experiments read analyses, bills
    /// and SLO attainment, never records.
    pub fn replay<'t>(&self, deployment: &Deployment, trace: &'t WorkloadTrace) -> OutcomeRun<'t> {
        Executor::default()
            .run_outcomes(deployment, trace, self.seed())
            .expect("experiment deployments are valid by construction")
    }
}

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

/// Regenerates one experiment.
pub fn run_experiment(id: ExperimentId, cfg: &ReproConfig) -> ExperimentOutput {
    let tables_notes = match id {
        ExperimentId::Fig4 => workloads::fig4(cfg),
        ExperimentId::Fig5 => comparison::fig5(cfg),
        ExperimentId::Table1 => comparison::table1(cfg),
        ExperimentId::Fig6 => timelines::fig6(cfg),
        ExperimentId::Fig7 => instances::fig7(cfg),
        ExperimentId::Fig8 => timelines::fig8(cfg),
        ExperimentId::Fig9 => timelines::fig9(cfg),
        ExperimentId::Fig10 => breakdown::fig10(cfg),
        ExperimentId::Fig11 => instances::fig11(cfg),
        ExperimentId::Fig12 => microbench::fig12(cfg),
        ExperimentId::Fig13 => runtimes::fig13(cfg),
        ExperimentId::Table2 => runtimes::table2(cfg),
        ExperimentId::Fig14 => breakdown::fig14(cfg),
        ExperimentId::Fig15 => sweeps::fig15(cfg),
        ExperimentId::Fig16 => sweeps::fig16(cfg),
        ExperimentId::Fig17 => sweeps::fig17(cfg),
        ExperimentId::ExtAdaptive => extensions::adaptive(cfg),
        ExperimentId::ExtExplorer => extensions::explorer(cfg),
        ExperimentId::ExtScaling => extensions::scaling(cfg),
        ExperimentId::ExtHybrid => extensions::hybrid(cfg),
    };
    ExperimentOutput {
        id,
        tables: tables_notes.0,
        notes: tables_notes.1,
    }
}

/// `(tables, notes)` pair every submodule function returns.
pub type Output = (Vec<Table>, Vec<String>);

#[cfg(test)]
mod tests {
    use super::*;

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
    fn every_experiment_runs_at_tiny_scale() {
        let cfg = ReproConfig::scaled(0.01);
        for id in ExperimentId::ALL {
            let out = run_experiment(id, &cfg);
            assert!(!out.tables.is_empty(), "{id} produced no tables");
            assert!(!out.to_markdown().is_empty());
        }
    }
}
