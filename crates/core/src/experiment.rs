//! Experiment registry: one entry per table/figure of the paper, plus the
//! extension studies. The entries carry identity and provenance; the
//! regeneration logic lives in `slsb-bench` (the `repro` binary and
//! `slsb-benchmark` both call into it).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Every artifact of the paper's evaluation, plus extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExperimentId {
    /// Figure 4: the generated MMPP workloads.
    Fig4,
    /// Figure 5a–f: latency + success ratio, 8 systems × 3 models × 3
    /// workloads.
    Fig5,
    /// Table 1: costs for all evaluated systems.
    Table1,
    /// Figure 6: serverless vs ManagedML latency/SR timelines.
    Fig6,
    /// Figure 7: ManagedML instance counts over time.
    Fig7,
    /// Figure 8: serverless vs CPU server timelines.
    Fig8,
    /// Figure 9: serverless vs GPU server timelines.
    Fig9,
    /// Figure 10: cold-start vs warm-up sub-stage breakdown.
    Fig10,
    /// Figure 11: serverless instance counts over time.
    Fig11,
    /// Figure 12a–d: container size / download size / input size /
    /// prediction count micro-benchmarks.
    Fig12,
    /// Figure 13: TF1.15 vs ORT1.4 latency across workloads.
    Fig13,
    /// Table 2: serverless costs with ORT1.4.
    Table2,
    /// Figure 14: TF vs ORT cold/warm breakdown.
    Fig14,
    /// Figure 15: memory-size sweep.
    Fig15,
    /// Figure 16: provisioned-concurrency sweep.
    Fig16,
    /// Figure 17: batch-size sweep.
    Fig17,
    /// Extension: adaptive batching vs fixed batching ablation.
    ExtAdaptive,
    /// Extension: design-space navigator demonstration.
    ExtExplorer,
    /// Extension: over-provisioning / scaling-policy ablation.
    ExtScaling,
    /// Extension: MArk-style hybrid (VM + serverless spillover) study.
    ExtHybrid,
}

impl ExperimentId {
    /// All experiments in paper order (extensions last).
    pub const ALL: [ExperimentId; 20] = [
        ExperimentId::Fig4,
        ExperimentId::Fig5,
        ExperimentId::Table1,
        ExperimentId::Fig6,
        ExperimentId::Fig7,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Fig10,
        ExperimentId::Fig11,
        ExperimentId::Fig12,
        ExperimentId::Fig13,
        ExperimentId::Table2,
        ExperimentId::Fig14,
        ExperimentId::Fig15,
        ExperimentId::Fig16,
        ExperimentId::Fig17,
        ExperimentId::ExtAdaptive,
        ExperimentId::ExtExplorer,
        ExperimentId::ExtScaling,
        ExperimentId::ExtHybrid,
    ];

    /// The `repro` subcommand name.
    pub fn slug(self) -> &'static str {
        match self {
            ExperimentId::Fig4 => "fig4",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Table1 => "table1",
            ExperimentId::Fig6 => "fig6",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Fig10 => "fig10",
            ExperimentId::Fig11 => "fig11",
            ExperimentId::Fig12 => "fig12",
            ExperimentId::Fig13 => "fig13",
            ExperimentId::Table2 => "table2",
            ExperimentId::Fig14 => "fig14",
            ExperimentId::Fig15 => "fig15",
            ExperimentId::Fig16 => "fig16",
            ExperimentId::Fig17 => "fig17",
            ExperimentId::ExtAdaptive => "ext-adaptive",
            ExperimentId::ExtExplorer => "ext-explorer",
            ExperimentId::ExtScaling => "ext-scaling",
            ExperimentId::ExtHybrid => "ext-hybrid",
        }
    }

    /// Parses a `repro` subcommand name.
    pub fn from_slug(slug: &str) -> Option<ExperimentId> {
        ExperimentId::ALL.into_iter().find(|e| e.slug() == slug)
    }

    /// Human title matching the paper.
    pub fn title(self) -> &'static str {
        match self {
            ExperimentId::Fig4 => "Figure 4: generated MMPP workloads",
            ExperimentId::Fig5 => {
                "Figure 5: model serving systems' performance comparison (latency + SR)"
            }
            ExperimentId::Table1 => "Table 1: costs for evaluated model serving systems",
            ExperimentId::Fig6 => "Figure 6: serverless and ManagedML comparison (timelines)",
            ExperimentId::Fig7 => "Figure 7: number of instances on ManagedML services",
            ExperimentId::Fig8 => "Figure 8: serverless and CPU server comparison (timelines)",
            ExperimentId::Fig9 => "Figure 9: serverless and GPU server comparison (timelines)",
            ExperimentId::Fig10 => "Figure 10: breakdown comparison of serverless platforms",
            ExperimentId::Fig11 => "Figure 11: number of instances on serverless platforms",
            ExperimentId::Fig12 => "Figure 12: in-depth analysis with workload-120",
            ExperimentId::Fig13 => "Figure 13: runtime comparison, latency w.r.t. workloads",
            ExperimentId::Table2 => "Table 2: costs for serverless serving with ORT1.4",
            ExperimentId::Fig14 => "Figure 14: breakdown comparison of different runtimes",
            ExperimentId::Fig15 => "Figure 15: vary memory size on AWS-Serverless",
            ExperimentId::Fig16 => "Figure 16: vary provisioned concurrency on AWS-Serverless",
            ExperimentId::Fig17 => "Figure 17: vary batch size on AWS-Serverless",
            ExperimentId::ExtAdaptive => "Extension: adaptive vs fixed batching",
            ExperimentId::ExtExplorer => "Extension: design-space navigator",
            ExperimentId::ExtScaling => "Extension: over-provisioning scaling-policy ablation",
            ExperimentId::ExtHybrid => {
                "Extension: hybrid serving (provisioned VM + serverless spillover)"
            }
        }
    }

    /// True for the extension studies (not in the paper).
    pub fn is_extension(self) -> bool {
        matches!(
            self,
            ExperimentId::ExtAdaptive
                | ExperimentId::ExtExplorer
                | ExperimentId::ExtScaling
                | ExperimentId::ExtHybrid
        )
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_roundtrip() {
        for e in ExperimentId::ALL {
            assert_eq!(ExperimentId::from_slug(e.slug()), Some(e));
        }
        assert_eq!(ExperimentId::from_slug("fig99"), None);
    }

    #[test]
    fn slugs_are_unique() {
        let mut slugs: Vec<&str> = ExperimentId::ALL.iter().map(|e| e.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), ExperimentId::ALL.len());
    }

    #[test]
    fn extensions_flagged() {
        assert!(ExperimentId::ExtAdaptive.is_extension());
        assert!(!ExperimentId::Fig5.is_extension());
        assert_eq!(
            ExperimentId::ALL
                .iter()
                .filter(|e| e.is_extension())
                .count(),
            4
        );
    }

    #[test]
    fn titles_nonempty() {
        for e in ExperimentId::ALL {
            assert!(!e.title().is_empty());
            assert_eq!(e.to_string(), e.slug());
        }
    }
}
