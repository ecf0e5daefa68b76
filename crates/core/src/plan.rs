//! The planner (paper Figure 3): a validated deployment specification.
//!
//! A [`Deployment`] pins down the three dimensions the paper deploys by —
//! model, runtime, configuration — plus the design-space knobs of Section 5
//! (memory, provisioned concurrency, batch size) and the Figure 12
//! micro-benchmark inputs. [`Deployment::validate`] enforces the platform
//! rules the paper calls out (Lambda's 512 MB `/tmp` quota, AI Platform's
//! TF-only support, Cloud Functions' lack of provisioned concurrency).

use serde::{Deserialize, Serialize};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::{
    ManagedMlConfig, Platform, PlatformKind, PolicySet, ServerlessConfig, VmServerConfig,
    LAMBDA_TMP_LIMIT_MB,
};
use slsb_sim::Seed;
use std::fmt;

/// A fully specified deployment of one model on one serving system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// Which of the eight systems serves the model.
    pub platform: PlatformKind,
    /// The served model.
    pub model: ModelKind,
    /// The serving runtime.
    pub runtime: RuntimeKind,
    /// Function memory in MB (serverless platforms only; the paper's
    /// default is 2 GB).
    pub memory_mb: f64,
    /// Pre-warmed instances (AWS serverless only; Section 5.4).
    pub provisioned_concurrency: u32,
    /// Client-side batch size (Section 5.5); 1 disables batching.
    pub batch_size: u32,
    /// Dummy MB injected into the container image (Figure 12a).
    pub extra_container_mb: f64,
    /// Dummy MB downloaded beside the model (Figure 12b).
    pub extra_download_mb: f64,
    /// Input samples packed per request; only one is predicted
    /// (Figure 12c).
    pub samples_per_request: u32,
    /// Inference executions per request (Figure 12d).
    pub inference_repeats: u32,
    /// Keep-alive / placement / scaling policy overrides; `None` keeps the
    /// platform defaults (the paper's behavior).
    #[serde(default)]
    pub policy: Option<PolicySet>,
}

impl Deployment {
    /// The paper's default deployment of `model` × `runtime` on `platform`.
    pub fn new(platform: PlatformKind, model: ModelKind, runtime: RuntimeKind) -> Deployment {
        Deployment {
            platform,
            model,
            runtime,
            memory_mb: 2048.0,
            provisioned_concurrency: 0,
            batch_size: 1,
            extra_container_mb: 0.0,
            extra_download_mb: 0.0,
            samples_per_request: 1,
            inference_repeats: 1,
            policy: None,
        }
    }

    /// Fluent setter for [`Deployment::policy`].
    pub fn with_policy(mut self, policy: PolicySet) -> Deployment {
        self.policy = Some(policy);
        self
    }

    /// Fluent setter for [`Deployment::memory_mb`].
    pub fn with_memory_mb(mut self, mb: f64) -> Deployment {
        self.memory_mb = mb;
        self
    }

    /// Fluent setter for [`Deployment::provisioned_concurrency`].
    pub fn with_provisioned_concurrency(mut self, n: u32) -> Deployment {
        self.provisioned_concurrency = n;
        self
    }

    /// Fluent setter for [`Deployment::batch_size`].
    pub fn with_batch_size(mut self, n: u32) -> Deployment {
        self.batch_size = n;
        self
    }

    /// Checks the platform rules; returns the first violation.
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.batch_size == 0 || self.samples_per_request == 0 || self.inference_repeats == 0 {
            return Err(PlanError::ZeroParameter);
        }
        if self.platform.is_serverless() {
            if !(128.0..=10_240.0).contains(&self.memory_mb) {
                return Err(PlanError::MemoryOutOfRange(self.memory_mb));
            }
            for (knob, mb) in [
                ("extra_container_mb", self.extra_container_mb),
                ("extra_download_mb", self.extra_download_mb),
            ] {
                if !(mb.is_finite() && mb >= 0.0) {
                    return Err(PlanError::ExtraMbInvalid { knob, mb });
                }
            }
        } else {
            // Server-side knobs that only exist on FaaS.
            if self.provisioned_concurrency > 0
                || self.extra_container_mb != 0.0
                || self.extra_download_mb != 0.0
            {
                return Err(PlanError::ServerlessOnlyKnob(self.platform));
            }
        }
        if self.provisioned_concurrency > 0 && self.platform != PlatformKind::AwsServerless {
            // The paper studies provisioned concurrency on Lambda; Cloud
            // Functions gen-1 has no equivalent.
            return Err(PlanError::ProvisionedConcurrencyUnsupported(self.platform));
        }
        if self.platform == PlatformKind::GcpManagedMl && self.runtime != RuntimeKind::Tf115 {
            // Section 2.4: AI Platform only supports TensorFlow for deep
            // learning.
            return Err(PlanError::RuntimeUnsupported {
                platform: self.platform,
                runtime: self.runtime,
            });
        }
        if self.platform.is_managed_ml() && self.runtime != RuntimeKind::Tf115 {
            // The paper evaluates ManagedML with TF1.15 only; ORT endpoints
            // are out of scope on both clouds.
            return Err(PlanError::RuntimeUnsupported {
                platform: self.platform,
                runtime: self.runtime,
            });
        }
        Ok(())
    }

    /// True when the model artifact must be baked into the serverless image
    /// (Lambda `/tmp` rule; we mirror it on both clouds, matching the
    /// paper's packaging).
    pub fn model_baked_in_image(&self) -> bool {
        self.platform.is_serverless() && self.model.profile().artifact_mb > LAMBDA_TMP_LIMIT_MB
    }

    /// Builds the simulated platform for this deployment.
    ///
    /// # Errors
    /// Fails when [`Deployment::validate`] fails.
    pub fn build(&self, seed: Seed) -> Result<Platform, PlanError> {
        self.validate()?;
        let m = self.model.profile();
        let r = self.runtime.profile();
        let provider = self.platform.provider();
        let policy = self.policy.unwrap_or_default();
        Ok(match self.platform {
            PlatformKind::AwsServerless | PlatformKind::GcpServerless => {
                let mut cfg = ServerlessConfig::new(provider, m, r);
                cfg.memory_mb = self.memory_mb;
                cfg.provisioned_concurrency = self.provisioned_concurrency;
                cfg.bake_model_in_image = self.model_baked_in_image();
                cfg.extra_container_mb = self.extra_container_mb;
                cfg.extra_download_mb = self.extra_download_mb;
                cfg.policy = policy;
                Platform::serverless(cfg, seed)
            }
            PlatformKind::AwsManagedMl | PlatformKind::GcpManagedMl => {
                let mut cfg = ManagedMlConfig::new(provider, m, r);
                cfg.policy = policy;
                Platform::managedml(cfg, seed)
            }
            PlatformKind::AwsCpu | PlatformKind::GcpCpu => {
                let mut cfg = VmServerConfig::cpu(provider, m, r);
                cfg.policy = policy;
                Platform::vm(cfg, seed)
            }
            PlatformKind::AwsGpu | PlatformKind::GcpGpu => {
                let mut cfg = VmServerConfig::gpu(provider, m, r);
                cfg.policy = policy;
                Platform::vm(cfg, seed)
            }
        })
    }

    /// Short human-readable label, e.g.
    /// `"AWS-Serverless/MobileNet/TF1.15"`.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.platform, self.model, self.runtime)
    }
}

/// Why a deployment is invalid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// batch size / samples / repeats must be ≥ 1.
    ZeroParameter,
    /// Serverless memory outside the allocatable range.
    MemoryOutOfRange(f64),
    /// Provisioned concurrency / container / download knobs on a
    /// non-serverless platform.
    ServerlessOnlyKnob(PlatformKind),
    /// A serverless image or download padding that is negative or not
    /// finite.
    ExtraMbInvalid {
        /// The offending field.
        knob: &'static str,
        /// Its value in MB.
        mb: f64,
    },
    /// Provisioned concurrency requested where unsupported.
    ProvisionedConcurrencyUnsupported(PlatformKind),
    /// Platform does not support the runtime.
    RuntimeUnsupported {
        /// The offending platform.
        platform: PlatformKind,
        /// The unsupported runtime.
        runtime: RuntimeKind,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ZeroParameter => {
                write!(f, "batch size, samples, and repeats must be at least 1")
            }
            PlanError::MemoryOutOfRange(mb) => {
                write!(f, "serverless memory {mb} MB outside 128–10240 MB")
            }
            PlanError::ServerlessOnlyKnob(p) => {
                write!(f, "{p} does not accept serverless-only parameters")
            }
            PlanError::ExtraMbInvalid { knob, mb } => {
                write!(f, "{knob} must be finite and >= 0 MB, got {mb}")
            }
            PlanError::ProvisionedConcurrencyUnsupported(p) => {
                write!(f, "{p} has no provisioned concurrency")
            }
            PlanError::RuntimeUnsupported { platform, runtime } => {
                write!(f, "{platform} does not support {runtime}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_deployment_is_valid_everywhere_with_tf() {
        for p in PlatformKind::ALL {
            for m in ModelKind::ALL {
                Deployment::new(p, m, RuntimeKind::Tf115)
                    .validate()
                    .unwrap();
            }
        }
    }

    #[test]
    fn gcp_managedml_rejects_ort() {
        let d = Deployment::new(
            PlatformKind::GcpManagedMl,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        assert!(matches!(
            d.validate(),
            Err(PlanError::RuntimeUnsupported { .. })
        ));
    }

    #[test]
    fn provisioned_concurrency_is_lambda_only() {
        let ok = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Tf115,
        )
        .with_provisioned_concurrency(8);
        ok.validate().unwrap();
        let bad = Deployment::new(
            PlatformKind::GcpServerless,
            ModelKind::MobileNet,
            RuntimeKind::Tf115,
        )
        .with_provisioned_concurrency(8);
        assert!(matches!(
            bad.validate(),
            Err(PlanError::ProvisionedConcurrencyUnsupported(_))
        ));
    }

    #[test]
    fn memory_bounds_enforced() {
        let d = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Tf115,
        )
        .with_memory_mb(64.0);
        assert!(matches!(d.validate(), Err(PlanError::MemoryOutOfRange(_))));
    }

    #[test]
    fn serverless_knobs_rejected_on_vm() {
        let mut d = Deployment::new(
            PlatformKind::AwsCpu,
            ModelKind::MobileNet,
            RuntimeKind::Tf115,
        );
        d.extra_download_mb = 100.0;
        assert!(matches!(
            d.validate(),
            Err(PlanError::ServerlessOnlyKnob(_))
        ));
    }

    #[test]
    fn zero_batch_rejected() {
        let d = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Tf115,
        )
        .with_batch_size(0);
        assert_eq!(d.validate(), Err(PlanError::ZeroParameter));
    }

    #[test]
    fn vgg_is_baked_only_on_serverless() {
        let sls = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::Vgg,
            RuntimeKind::Tf115,
        );
        assert!(sls.model_baked_in_image());
        let cpu = Deployment::new(PlatformKind::AwsCpu, ModelKind::Vgg, RuntimeKind::Tf115);
        assert!(!cpu.model_baked_in_image());
        let small = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Tf115,
        );
        assert!(!small.model_baked_in_image());
    }

    #[test]
    fn build_produces_platform() {
        let d = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::MobileNet,
            RuntimeKind::Tf115,
        )
        .with_memory_mb(4096.0);
        let p = d.build(Seed(1)).unwrap();
        match p {
            Platform::Serverless(p) => assert_eq!(p.config().memory_mb, 4096.0),
            _ => panic!("expected serverless"),
        }
    }

    #[test]
    fn build_rejects_invalid() {
        let d = Deployment::new(
            PlatformKind::GcpManagedMl,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        assert!(d.build(Seed(1)).is_err());
    }

    #[test]
    fn labels_and_errors_display() {
        let d = Deployment::new(
            PlatformKind::AwsServerless,
            ModelKind::Albert,
            RuntimeKind::Ort14,
        );
        assert_eq!(d.label(), "AWS-Serverless/ALBERT/ORT1.4");
        assert!(!PlanError::ZeroParameter.to_string().is_empty());
        assert!(!PlanError::MemoryOutOfRange(1.0).to_string().is_empty());
    }
}
