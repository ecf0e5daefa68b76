//! Declarative scenarios: a JSON-serializable description of one
//! experiment — workload, deployment, executor settings, seed — that can be
//! saved, shared, and replayed. This is the "easily extended to support new
//! models and new platforms" surface the paper claims for its framework
//! (Section 3): downstream users describe a run instead of writing code.

use crate::analyzer::{analyze, Analysis};
use crate::executor::{Executor, ExecutorConfig, RunResult};
use crate::plan::{Deployment, PlanError};
use serde::{Deserialize, Serialize};
use crate::slo::SloSpec;
use slsb_platform::{FaultPlan, FaultPlanError, PolicySet};
use slsb_sim::{ProfGuard, Seed, SimDuration, SimTime};
use slsb_workload::{
    DiurnalSpec, FlashCrowdSpec, MmppPreset, MmppSpec, PoissonProcess, WorkloadTrace,
};
use std::fmt;

/// A serializable workload description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WorkloadSpec {
    /// One of the paper's presets, optionally duration-scaled.
    Preset {
        /// Which preset.
        which: MmppPreset,
        /// Duration scale (1.0 = the paper's 900 s).
        scale: f64,
    },
    /// A custom 2-state MMPP.
    Mmpp {
        /// High-state rate (req/s).
        rate_high: f64,
        /// Low-state rate (req/s).
        rate_low: f64,
        /// Mean high-state sojourn, seconds.
        dwell_high_s: f64,
        /// Mean low-state sojourn, seconds.
        dwell_low_s: f64,
        /// Trace duration, seconds.
        duration_s: f64,
    },
    /// A sinusoidal day-night cycle.
    Diurnal {
        /// Mean rate (req/s).
        base_rate: f64,
        /// Peak-to-mean difference (req/s).
        amplitude: f64,
        /// Cycle period, seconds.
        period_s: f64,
        /// Trace duration, seconds.
        duration_s: f64,
    },
    /// A flash crowd on a quiet background.
    FlashCrowd {
        /// Background rate (req/s).
        base_rate: f64,
        /// Spike rate (req/s).
        spike_rate: f64,
        /// Spike onset, seconds.
        spike_start_s: f64,
        /// Spike length, seconds.
        spike_duration_s: f64,
        /// Trace duration, seconds.
        duration_s: f64,
    },
    /// Constant-rate Poisson arrivals.
    Poisson {
        /// Arrival rate (req/s).
        rate: f64,
        /// Trace duration, seconds.
        duration_s: f64,
    },
}

impl WorkloadSpec {
    /// Materializes the trace for a seed.
    pub fn generate(&self, seed: Seed) -> WorkloadTrace {
        let _p = ProfGuard::enter("workload/generate");
        match *self {
            WorkloadSpec::Preset { which, scale } => {
                let spec = which.spec();
                MmppSpec {
                    duration: spec.duration.mul_f64(scale),
                    ..spec
                }
                .generate(seed)
            }
            WorkloadSpec::Mmpp {
                rate_high,
                rate_low,
                dwell_high_s,
                dwell_low_s,
                duration_s,
            } => MmppSpec {
                name: "scenario-mmpp",
                rate_high,
                rate_low,
                mean_high_dwell: SimDuration::from_secs_f64(dwell_high_s),
                mean_low_dwell: SimDuration::from_secs_f64(dwell_low_s),
                duration: SimDuration::from_secs_f64(duration_s),
            }
            .generate(seed),
            WorkloadSpec::Diurnal {
                base_rate,
                amplitude,
                period_s,
                duration_s,
            } => DiurnalSpec {
                name: "scenario-diurnal",
                base_rate,
                amplitude,
                period: SimDuration::from_secs_f64(period_s),
                duration: SimDuration::from_secs_f64(duration_s),
            }
            .generate(seed),
            WorkloadSpec::FlashCrowd {
                base_rate,
                spike_rate,
                spike_start_s,
                spike_duration_s,
                duration_s,
            } => FlashCrowdSpec {
                name: "scenario-flash-crowd",
                base_rate,
                spike_rate,
                spike_start: SimTime::from_secs_f64(spike_start_s),
                spike_duration: SimDuration::from_secs_f64(spike_duration_s),
                duration: SimDuration::from_secs_f64(duration_s),
            }
            .generate(seed),
            WorkloadSpec::Poisson { rate, duration_s } => {
                PoissonProcess::new(rate, SimDuration::from_secs_f64(duration_s)).generate(seed)
            }
        }
    }
}

/// One complete, replayable experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable name.
    pub name: String,
    /// Experiment seed.
    pub seed: u64,
    /// The workload to generate.
    pub workload: WorkloadSpec,
    /// The deployment to serve it with.
    pub deployment: Deployment,
    /// Client-fleet settings.
    #[serde(default = "ExecutorConfig::default")]
    pub executor: ExecutorConfig,
    /// Fault-injection plan (an absent block injects nothing and is a
    /// byte-identical no-op).
    #[serde(default = "FaultPlan::none")]
    pub faults: FaultPlan,
    /// Service-level objectives to score the run against (an absent block
    /// evaluates nothing; purely observational either way).
    #[serde(default = "SloSpec::default")]
    pub slo: SloSpec,
    /// Scenario-level policy override. When set it wins over
    /// [`Deployment::policy`]; when absent the deployment decides (and an
    /// unset deployment keeps the platform defaults).
    #[serde(default)]
    pub policy: Option<PolicySet>,
}

/// Why a scenario failed to load or run.
#[derive(Debug)]
pub enum ScenarioError {
    /// JSON was malformed or did not match the schema.
    Parse(serde_json::Error),
    /// The deployment violates a platform rule.
    Plan(PlanError),
    /// The fault plan has an out-of-range knob.
    Faults(FaultPlanError),
    /// The SLO block has a nonsensical target.
    Slo(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "scenario parse error: {e}"),
            ScenarioError::Plan(e) => write!(f, "invalid deployment: {e}"),
            ScenarioError::Faults(e) => write!(f, "invalid fault plan: {e}"),
            ScenarioError::Slo(e) => write!(f, "invalid slo: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<PlanError> for ScenarioError {
    fn from(e: PlanError) -> Self {
        ScenarioError::Plan(e)
    }
}

impl Scenario {
    /// The deployment with the scenario-level policy override applied.
    fn effective_deployment(&self) -> Deployment {
        let mut dep = self.deployment;
        if self.policy.is_some() {
            dep.policy = self.policy;
        }
        dep
    }

    /// Parses a scenario from JSON.
    ///
    /// # Errors
    /// Fails on malformed JSON or schema mismatch.
    pub fn from_json(json: &str) -> Result<Scenario, ScenarioError> {
        serde_json::from_str(json).map_err(ScenarioError::Parse)
    }

    /// Serializes the scenario to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario is serializable")
    }

    /// Generates the workload and runs the deployment.
    ///
    /// # Errors
    /// Fails when the deployment is invalid.
    pub fn run(&self) -> Result<(RunResult, Analysis), ScenarioError> {
        let seed = Seed(self.seed);
        self.faults.validate().map_err(ScenarioError::Faults)?;
        self.slo.validate().map_err(ScenarioError::Slo)?;
        let trace = self.workload.generate(seed.substream("scenario-workload"));
        let run = Executor::new(self.executor)
            .with_faults(self.faults.clone())
            .run(&self.effective_deployment(), &trace, seed)?;
        let analysis = analyze(&run);
        Ok((run, analysis))
    }

    /// [`Scenario::run`] with every trace event streamed into `rec`. The
    /// returned result and analysis are identical to an unrecorded run's.
    ///
    /// # Errors
    /// Fails when the deployment is invalid.
    pub fn run_recorded(
        &self,
        rec: &mut dyn slsb_obs::Recorder,
    ) -> Result<(RunResult, Analysis), ScenarioError> {
        let seed = Seed(self.seed);
        self.faults.validate().map_err(ScenarioError::Faults)?;
        self.slo.validate().map_err(ScenarioError::Slo)?;
        let trace = self.workload.generate(seed.substream("scenario-workload"));
        let run = Executor::new(self.executor)
            .with_faults(self.faults.clone())
            .run_recorded(&self.effective_deployment(), &trace, seed, rec)?;
        let analysis = analyze(&run);
        Ok((run, analysis))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slsb_model::{ModelKind, RuntimeKind};
    use slsb_platform::PlatformKind;

    fn sample() -> Scenario {
        Scenario {
            name: "smoke".into(),
            seed: 7,
            workload: WorkloadSpec::Mmpp {
                rate_high: 30.0,
                rate_low: 8.0,
                dwell_high_s: 20.0,
                dwell_low_s: 40.0,
                duration_s: 120.0,
            },
            deployment: Deployment::new(
                PlatformKind::AwsServerless,
                ModelKind::MobileNet,
                RuntimeKind::Ort14,
            ),
            executor: ExecutorConfig::default(),
            faults: FaultPlan::none(),
            slo: SloSpec::default(),
            policy: None,
        }
    }

    #[test]
    fn json_roundtrip() {
        let s = sample();
        let json = s.to_json();
        let parsed = Scenario::from_json(&json).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let (run, analysis) = sample().run().unwrap();
        assert!(!run.records.is_empty());
        assert!(analysis.success_ratio > 0.9);
        assert!(analysis.cost_dollars() > 0.0);
    }

    #[test]
    fn every_workload_kind_generates() {
        let seed = Seed(3);
        let specs = [
            WorkloadSpec::Preset {
                which: MmppPreset::W40,
                scale: 0.05,
            },
            WorkloadSpec::Diurnal {
                base_rate: 20.0,
                amplitude: 10.0,
                period_s: 60.0,
                duration_s: 120.0,
            },
            WorkloadSpec::FlashCrowd {
                base_rate: 5.0,
                spike_rate: 80.0,
                spike_start_s: 30.0,
                spike_duration_s: 10.0,
                duration_s: 90.0,
            },
            WorkloadSpec::Poisson {
                rate: 15.0,
                duration_s: 60.0,
            },
        ];
        for spec in specs {
            let tr = spec.generate(seed);
            assert!(!tr.is_empty(), "{spec:?} generated nothing");
        }
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let err = Scenario::from_json("{not json").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse(_)));
        assert!(err.to_string().contains("parse"));
    }

    #[test]
    fn deeply_nested_json_is_a_parse_error() {
        // Unbounded recursion here used to overflow the stack and abort.
        let json = format!(r#"{{"x":{}"#, "[".repeat(200_000));
        let err = Scenario::from_json(&json).unwrap_err();
        assert!(matches!(err, ScenarioError::Parse(_)));
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn invalid_deployment_is_a_plan_error() {
        let mut s = sample();
        s.deployment = Deployment::new(
            PlatformKind::GcpManagedMl,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        let err = s.run().unwrap_err();
        assert!(matches!(err, ScenarioError::Plan(_)));
    }

    #[test]
    fn policy_block_overrides_deployment() {
        let mut s = sample();
        s.policy = PolicySet::by_name("fixed");
        assert_eq!(
            s.effective_deployment().policy,
            PolicySet::by_name("fixed")
        );
        // Absent scenario policy defers to the deployment's.
        let mut d = sample();
        d.deployment = d.deployment.with_policy(PolicySet::by_name("least_loaded").unwrap());
        assert_eq!(
            d.effective_deployment().policy,
            PolicySet::by_name("least_loaded")
        );
        // Roundtrip keeps the block.
        let parsed = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn malformed_policy_block_is_a_parse_error() {
        let mut json = sample().to_json();
        json = json.replace(
            "\"policy\": null",
            "\"policy\": {\"keep_alive\": {\"kind\": \"no_such_policy\"}}",
        );
        assert!(json.contains("no_such_policy"), "replacement must apply");
        let err = Scenario::from_json(&json).unwrap_err();
        assert!(matches!(err, ScenarioError::Parse(_)));
        assert!(
            err.to_string().contains("no_such_policy"),
            "diagnostic must name the unknown policy: {err}"
        );
    }

    #[test]
    fn executor_field_is_optional_in_json() {
        let json = r#"{
            "name": "minimal",
            "seed": 1,
            "workload": {"kind": "poisson", "rate": 10.0, "duration_s": 30.0},
            "deployment": {
                "platform": "AwsServerless",
                "model": "MobileNet",
                "runtime": "Ort14",
                "memory_mb": 2048.0,
                "provisioned_concurrency": 0,
                "batch_size": 1,
                "extra_container_mb": 0.0,
                "extra_download_mb": 0.0,
                "samples_per_request": 1,
                "inference_repeats": 1
            }
        }"#;
        let s = Scenario::from_json(json).unwrap();
        assert_eq!(s.executor, ExecutorConfig::default());
        let (_, analysis) = s.run().unwrap();
        assert!(analysis.total > 0);
    }
}
