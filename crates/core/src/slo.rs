//! Service-level objectives: the vocabulary a serving deployment is
//! judged against, and the evaluator that turns a run's per-request
//! outcomes into attainment and error-budget numbers.
//!
//! An [`SloSpec`] carries up to four objectives — p50 latency, p99
//! latency, success ratio, and cost per 1 000 requests — plus optional
//! per-tenant (per-client) overrides of the latency/success targets.
//! Specs come from a scenario file's `slo` section or the `--slo` CLI
//! flag's compact `key=value` syntax; [`SloSpec::evaluate`] scores a set
//! of [`SloSample`]s into an [`SloReport`].
//!
//! Error budget convention: `budget_consumed` is the fraction of the
//! allowed slack actually used, so `1.0` means the objective is exactly
//! at its target and anything above is a miss. For the success ratio the
//! slack is the allowed failure fraction `1 - target`; for latency
//! percentiles the slack is the fraction of requests allowed above the
//! target latency (`0.5` for p50, `0.01` for p99); for cost it is the
//! target itself. Budgets are capped at [`BUDGET_CAP`] so degenerate
//! runs (zero allowed failures, all requests failing) stay finite and
//! JSON-serializable.

use serde::{Deserialize, Serialize};
use slsb_sim::SampleSet;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Upper cap on reported `budget_consumed`, keeping degenerate ratios
/// finite (vendored serde_json renders non-finite floats as `null`).
pub const BUDGET_CAP: f64 = 1e6;

/// Latency/success/cost targets. All fields optional; omitted targets
/// are simply not evaluated.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SloTargets {
    /// Median latency target, seconds.
    #[serde(default = "Default::default")]
    pub p50_s: Option<f64>,
    /// 99th-percentile latency target, seconds.
    #[serde(default = "Default::default")]
    pub p99_s: Option<f64>,
    /// Minimum fraction of requests that must succeed, in `(0, 1]`.
    #[serde(default = "Default::default")]
    pub success_ratio: Option<f64>,
    /// Maximum cost per 1 000 requests, dollars.
    #[serde(default = "Default::default")]
    pub cost_per_1k: Option<f64>,
}

impl SloTargets {
    fn is_empty(&self) -> bool {
        self.p50_s.is_none()
            && self.p99_s.is_none()
            && self.success_ratio.is_none()
            && self.cost_per_1k.is_none()
    }

    fn validate(&self, what: &str) -> Result<(), String> {
        for (name, v) in [
            ("p50", self.p50_s),
            ("p99", self.p99_s),
            ("cost1k", self.cost_per_1k),
        ] {
            if let Some(v) = v {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("{what}: {name} target must be positive, got {v}"));
                }
            }
        }
        if let Some(sr) = self.success_ratio {
            if !sr.is_finite() || sr <= 0.0 || sr > 1.0 {
                return Err(format!(
                    "{what}: success-ratio target must be in (0, 1], got {sr}"
                ));
            }
        }
        if let (Some(p50), Some(p99)) = (self.p50_s, self.p99_s) {
            if p99 < p50 {
                return Err(format!(
                    "{what}: p99 target {p99} is below the p50 target {p50}"
                ));
            }
        }
        Ok(())
    }
}

/// A full SLO: run-wide targets plus per-tenant (client index) overrides.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Run-wide targets, evaluated over all requests.
    #[serde(default = "Default::default")]
    pub targets: SloTargets,
    /// Per-tenant overrides keyed by client index (stringly keyed so the
    /// scenario JSON reads naturally). Cost is run-wide only; tenant
    /// cost targets are rejected at validation.
    #[serde(default = "Default::default")]
    pub tenants: BTreeMap<String, SloTargets>,
}

impl SloSpec {
    /// True when no objective is set anywhere.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty() && self.tenants.values().all(SloTargets::is_empty)
    }

    /// Sanity-checks every target.
    pub fn validate(&self) -> Result<(), String> {
        self.targets.validate("slo")?;
        for (tenant, t) in &self.tenants {
            tenant
                .parse::<u32>()
                .map_err(|_| format!("slo: tenant key {tenant:?} is not a client index"))?;
            t.validate(&format!("slo tenant {tenant}"))?;
            if t.cost_per_1k.is_some() {
                return Err(format!(
                    "slo tenant {tenant}: cost-per-1k is run-wide only (billing is not attributed per tenant)"
                ));
            }
        }
        Ok(())
    }

    /// Parses the compact CLI syntax: comma-separated `key=value` pairs
    /// where the key is `p50`, `p99`, `sr`, or `cost1k`, optionally
    /// suffixed `@<client>` for a tenant override — e.g.
    /// `p99=0.5,sr=0.99,cost1k=0.05,p99@2=1.0`.
    pub fn parse(spec: &str) -> Result<SloSpec, String> {
        let mut out = SloSpec::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("--slo: expected key=value, got {pair:?}"))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("--slo: {key}: not a number: {value:?}"))?;
            let key = key.trim();
            let (obj, tenant) = match key.split_once('@') {
                Some((obj, tenant)) => (obj, Some(tenant)),
                None => (key, None),
            };
            let targets = match tenant {
                Some(t) => {
                    t.parse::<u32>()
                        .map_err(|_| format!("--slo: tenant {t:?} is not a client index"))?;
                    out.tenants.entry(t.to_string()).or_default()
                }
                None => &mut out.targets,
            };
            match obj {
                "p50" => targets.p50_s = Some(value),
                "p99" => targets.p99_s = Some(value),
                "sr" => targets.success_ratio = Some(value),
                "cost1k" => targets.cost_per_1k = Some(value),
                other => {
                    return Err(format!(
                        "--slo: unknown objective {other:?} (expected p50, p99, sr, or cost1k)"
                    ))
                }
            }
        }
        out.validate()?;
        Ok(out)
    }

    /// Scores per-request samples (plus the run's total cost, when known)
    /// against this spec. `cost` is in dollars for the whole run; pass
    /// `None` when the caller has no billing data (e.g. the trace-replay
    /// path) and cost objectives will be skipped with a note.
    pub fn evaluate(&self, samples: &[SloSample], cost: Option<f64>) -> SloReport {
        let mut objectives = Vec::new();
        eval_targets(&self.targets, None, samples, cost, &mut objectives);
        for (tenant, targets) in &self.tenants {
            let tid: u32 = tenant.parse().unwrap_or(u32::MAX);
            let subset: Vec<SloSample> = samples
                .iter()
                .filter(|s| s.client == tid)
                .copied()
                .collect();
            eval_targets(
                targets,
                Some(tenant.clone()),
                &subset,
                None,
                &mut objectives,
            );
        }
        let attained = objectives.iter().all(|o| o.attained);
        SloReport {
            objectives,
            attained,
        }
    }
}

/// One request's contribution to SLO scoring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSample {
    /// Client (tenant) index the request belonged to.
    pub client: u32,
    /// Whether the request ultimately succeeded.
    pub ok: bool,
    /// End-to-end latency, seconds (failed requests still carry the
    /// latency of their failed span; only successes count toward latency
    /// objectives).
    pub latency_s: f64,
}

/// A single scored objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloObjective {
    /// Which objective: `"p50"`, `"p99"`, `"success_ratio"`, `"cost_per_1k"`.
    pub objective: String,
    /// Tenant (client index as a string) for overrides, `None` run-wide.
    #[serde(default = "Default::default")]
    pub tenant: Option<String>,
    /// The target value.
    pub target: f64,
    /// The measured value (`null`-free: degenerate cases are capped).
    pub actual: f64,
    /// Whether the measurement met the target.
    pub attained: bool,
    /// Fraction of the error budget consumed (1.0 = exactly at target),
    /// capped at [`BUDGET_CAP`].
    pub budget_consumed: f64,
}

/// The scored SLO for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Every evaluated objective, run-wide first, then tenants in key
    /// order.
    pub objectives: Vec<SloObjective>,
    /// True when every objective was met.
    pub attained: bool,
}

impl SloReport {
    /// Objectives that missed their target.
    pub fn misses(&self) -> impl Iterator<Item = &SloObjective> {
        self.objectives.iter().filter(|o| !o.attained)
    }

    /// The `slsb run` / `slsb trace` text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "slo           : {} ({}/{} objectives attained)",
            if self.attained { "ATTAINED" } else { "MISSED" },
            self.objectives.iter().filter(|o| o.attained).count(),
            self.objectives.len(),
        );
        for o in &self.objectives {
            let scope = match &o.tenant {
                Some(t) => format!("{}@{t}", o.objective),
                None => o.objective.clone(),
            };
            let _ = writeln!(
                out,
                "  {:<18} target {:>10.4}  actual {:>10.4}  budget {:>8.2}x  {}",
                scope,
                o.target,
                o.actual,
                o.budget_consumed,
                if o.attained { "ok" } else { "MISS" },
            );
        }
        out
    }
}

fn cap(x: f64) -> f64 {
    if x.is_finite() {
        x.min(BUDGET_CAP)
    } else {
        BUDGET_CAP
    }
}

fn eval_targets(
    t: &SloTargets,
    tenant: Option<String>,
    samples: &[SloSample],
    cost: Option<f64>,
    out: &mut Vec<SloObjective>,
) {
    let total = samples.len();
    let ok: Vec<&SloSample> = samples.iter().filter(|s| s.ok).collect();

    let mut latency_objective = |name: &str, target: f64, q: f64, slack: f64| {
        let mut set = SampleSet::new();
        for s in &ok {
            set.push(s.latency_s);
        }
        // No successful request ⇒ the percentile is unbounded: report the
        // cap, full budget burned.
        let actual = set.percentile(q).map_or(BUDGET_CAP, cap);
        let over = ok.iter().filter(|s| s.latency_s > target).count();
        let frac_over = if ok.is_empty() {
            1.0
        } else {
            over as f64 / ok.len() as f64
        };
        out.push(SloObjective {
            objective: name.to_string(),
            tenant: tenant.clone(),
            target,
            actual,
            attained: actual <= target,
            budget_consumed: cap(frac_over / slack),
        });
    };
    if let Some(target) = t.p50_s {
        latency_objective("p50", target, 50.0, 0.5);
    }
    if let Some(target) = t.p99_s {
        latency_objective("p99", target, 99.0, 0.01);
    }

    if let Some(target) = t.success_ratio {
        let actual = if total == 0 {
            // No traffic for this tenant: vacuously attained.
            1.0
        } else {
            ok.len() as f64 / total as f64
        };
        let allowed_failures = 1.0 - target;
        let failures = 1.0 - actual;
        let budget = if failures <= 0.0 {
            0.0
        } else if allowed_failures <= 0.0 {
            BUDGET_CAP
        } else {
            cap(failures / allowed_failures)
        };
        out.push(SloObjective {
            objective: "success_ratio".to_string(),
            tenant: tenant.clone(),
            target,
            actual,
            attained: actual >= target,
            budget_consumed: budget,
        });
    }

    if let Some(target) = t.cost_per_1k {
        if let Some(cost) = cost {
            let actual = if total == 0 {
                0.0
            } else {
                cap(cost / total as f64 * 1000.0)
            };
            out.push(SloObjective {
                objective: "cost_per_1k".to_string(),
                tenant: tenant.clone(),
                target,
                actual,
                attained: actual <= target,
                budget_consumed: cap(actual / target),
            });
        }
        // No billing data (trace replay): the objective is skipped rather
        // than scored against a made-up number.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<SloSample> {
        // Client 0: 50 fast successes; client 1: 40 slow successes + 10
        // failures.
        let mut v = Vec::new();
        for _ in 0..50 {
            v.push(SloSample {
                client: 0,
                ok: true,
                latency_s: 0.1,
            });
        }
        for _ in 0..40 {
            v.push(SloSample {
                client: 1,
                ok: true,
                latency_s: 0.9,
            });
        }
        for _ in 0..10 {
            v.push(SloSample {
                client: 1,
                ok: false,
                latency_s: 2.0,
            });
        }
        v
    }

    #[test]
    fn parse_compact_syntax_with_tenant_overrides() {
        let spec = SloSpec::parse("p50=0.2,p99=0.5,sr=0.99,cost1k=0.05,p99@1=1.0").unwrap();
        assert_eq!(spec.targets.p50_s, Some(0.2));
        assert_eq!(spec.targets.p99_s, Some(0.5));
        assert_eq!(spec.targets.success_ratio, Some(0.99));
        assert_eq!(spec.targets.cost_per_1k, Some(0.05));
        assert_eq!(spec.tenants["1"].p99_s, Some(1.0));
        assert!(!spec.is_empty());
        assert!(SloSpec::default().is_empty());
    }

    #[test]
    fn parse_rejects_nonsense() {
        assert!(SloSpec::parse("p51=0.2").is_err());
        assert!(SloSpec::parse("p50").is_err());
        assert!(SloSpec::parse("p50=fast").is_err());
        assert!(SloSpec::parse("p50=-1").is_err());
        assert!(SloSpec::parse("sr=1.5").is_err());
        assert!(SloSpec::parse("p99@zero=1.0").is_err());
        assert!(SloSpec::parse("p50=0.5,p99=0.1").is_err());
        assert!(SloSpec::parse("cost1k@1=0.5").is_err());
    }

    #[test]
    fn evaluation_scores_run_wide_and_tenant_objectives() {
        let spec = SloSpec::parse("p99=1.0,sr=0.95,cost1k=1.0,sr@1=0.95").unwrap();
        let report = spec.evaluate(&samples(), Some(0.05));
        // Run-wide: p99 of successes is 0.9 ≤ 1.0 ok; success ratio is
        // 0.9 < 0.95 miss; cost/1k = 0.05/100*1000 = 0.5 ≤ 1.0 ok.
        // Tenant 1: 40/50 = 0.8 < 0.95 miss.
        assert!(!report.attained);
        let by_name: BTreeMap<String, &SloObjective> = report
            .objectives
            .iter()
            .map(|o| {
                let key = match &o.tenant {
                    Some(t) => format!("{}@{t}", o.objective),
                    None => o.objective.clone(),
                };
                (key, o)
            })
            .collect();
        assert!(by_name["p99"].attained);
        assert!(!by_name["success_ratio"].attained);
        // 10% failures against a 5% allowance: budget 2x overspent.
        assert!((by_name["success_ratio"].budget_consumed - 2.0).abs() < 1e-9);
        assert!(by_name["cost_per_1k"].attained);
        assert!((by_name["cost_per_1k"].actual - 0.5).abs() < 1e-9);
        assert!(!by_name["success_ratio@1"].attained);
        assert!((by_name["success_ratio@1"].actual - 0.8).abs() < 1e-9);

        let text = report.render();
        assert!(text.contains("MISSED"), "{text}");
        assert!(text.contains("success_ratio@1"), "{text}");
        assert_eq!(report.misses().count(), 2);
    }

    #[test]
    fn degenerate_runs_stay_finite_and_serializable() {
        let spec = SloSpec::parse("p99=0.5,sr=1.0").unwrap();
        let all_failed: Vec<SloSample> = (0..5)
            .map(|_| SloSample {
                client: 0,
                ok: false,
                latency_s: 1.0,
            })
            .collect();
        let report = spec.evaluate(&all_failed, Some(1.0));
        for o in &report.objectives {
            assert!(o.actual.is_finite(), "{o:?}");
            assert!(o.budget_consumed.is_finite(), "{o:?}");
            assert!(o.budget_consumed <= BUDGET_CAP);
        }
        let json = serde_json::to_string(&report).unwrap();
        let back: SloReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);

        // Cost objective without billing data is skipped, not faked.
        let spec = SloSpec::parse("cost1k=1.0").unwrap();
        let report = spec.evaluate(&samples(), None);
        assert!(report.objectives.is_empty());
        assert!(report.attained);
    }

    #[test]
    fn scenario_style_json_round_trips() {
        let json = r#"{
            "targets": {"p99_s": 0.5, "success_ratio": 0.99},
            "tenants": {"2": {"p99_s": 1.0}}
        }"#;
        let spec: SloSpec = serde_json::from_str(json).unwrap();
        spec.validate().unwrap();
        assert_eq!(spec.targets.p99_s, Some(0.5));
        assert_eq!(spec.tenants["2"].p99_s, Some(1.0));
        let back: SloSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
    }
}
