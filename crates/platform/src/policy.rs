//! Pluggable platform policies: keep-alive, placement, and scaling.
//!
//! Every platform used to hard-code these decisions. This module extracts
//! them into a [`PolicySet`] carried by each platform config, with the
//! pre-refactor behaviour preserved exactly by the default members
//! (pinned byte-for-byte by `tests/policy_golden.rs`):
//!
//! * [`KeepAlivePolicy`] decides how long an idle warm instance survives.
//!   The default defers to the platform's calibrated window (Lambda 600 s,
//!   Cloud Functions 900 s; ManagedML maps it onto the scale-in cooldown).
//!   [`KeepAlivePolicy::Fixed`] pins an explicit window, and
//!   [`KeepAlivePolicy::HybridHistogram`] is the "Serverless in the Wild"
//!   policy: a per-deployment histogram of request inter-arrival times
//!   whose tail percentile sets the window adaptively. The histogram
//!   observes arrivals only — it never draws from the RNG, so swapping
//!   keep-alive policies cannot perturb any other sampled quantity.
//! * [`PlacementPolicy`] picks which warm instance / free worker serves a
//!   request. The default keeps each platform's locality-preserving order
//!   (serverless routes to the most-recently-used warm instance, VM and
//!   ManagedML to the first free worker); `LeastLoaded` spreads work to
//!   the instance that has served the fewest requests.
//! * [`ScalingPolicy`] gates speculative capacity. The default keeps the
//!   provider's over-provisioning behaviour; `NoOverprovision` spawns only
//!   for observed demand.
//!
//! [`PolicySet::by_name`] exposes the zoo to the CLI (`slsb run
//! --policy`), and scenario JSON accepts the same shape as a `"policy"`
//! block.

use serde::{Deserialize, Serialize};
use slsb_sim::{SimDuration, SimTime};

/// Windows beyond this are "never reclaim" for any practical run.
const MAX_WINDOW_S: f64 = 1e9;

/// The complete policy selection for one platform instance.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PolicySet {
    /// Idle-instance reclamation.
    #[serde(default)]
    pub keep_alive: KeepAlivePolicy,
    /// Warm-instance / worker selection.
    #[serde(default)]
    pub placement: PlacementPolicy,
    /// Speculative capacity.
    #[serde(default)]
    pub scaling: ScalingPolicy,
}

impl PolicySet {
    /// Every named policy accepted by [`PolicySet::by_name`], in the order
    /// documentation and `verify.sh` sweep them.
    pub const ZOO: [&'static str; 5] = [
        "default",
        "fixed",
        "hybrid_histogram",
        "least_loaded",
        "no_overprovision",
    ];

    /// Resolves a CLI policy name to a [`PolicySet`].
    ///
    /// `default` (alias `mru`) is the paper's behaviour; `fixed` pins a
    /// 600 s keep-alive on every provider; `hybrid_histogram` enables the
    /// adaptive keep-alive; `least_loaded` switches placement;
    /// `no_overprovision` disables speculative spawns.
    pub fn by_name(name: &str) -> Option<PolicySet> {
        Some(match name {
            "default" | "mru" => PolicySet::default(),
            "fixed" => PolicySet {
                keep_alive: KeepAlivePolicy::Fixed { idle_s: 600.0 },
                ..PolicySet::default()
            },
            "hybrid_histogram" => PolicySet {
                keep_alive: KeepAlivePolicy::hybrid_histogram(),
                ..PolicySet::default()
            },
            "least_loaded" => PolicySet {
                placement: PlacementPolicy::LeastLoaded,
                ..PolicySet::default()
            },
            "no_overprovision" => PolicySet {
                scaling: ScalingPolicy::NoOverprovision,
                ..PolicySet::default()
            },
            _ => None?,
        })
    }
}

/// How long an idle warm instance survives before reclamation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum KeepAlivePolicy {
    /// The platform's calibrated window (the paper's behaviour).
    #[default]
    PlatformDefault,
    /// A fixed idle window in seconds. Values at or above 10^9 seconds
    /// mean "never reclaim".
    Fixed {
        /// Idle window, seconds.
        idle_s: f64,
    },
    /// "Serverless in the Wild"-style adaptive keep-alive: track a
    /// histogram of request inter-arrival times per deployment and keep
    /// instances warm for a tail percentile of it (times a safety
    /// margin), floored at the platform default so the histogram only
    /// ever extends keep-alive to cover an app's idle tail. Until
    /// `warmup` gaps are observed the platform default applies.
    HybridHistogram {
        /// Histogram bucket width, seconds.
        #[serde(default = "KeepAlivePolicy::default_bucket_s")]
        bucket_s: f64,
        /// Histogram range cap, seconds (gaps beyond it land in the last
        /// bucket).
        #[serde(default = "KeepAlivePolicy::default_max_s")]
        max_s: f64,
        /// Percentile of the inter-arrival distribution to cover.
        #[serde(default = "KeepAlivePolicy::default_percentile")]
        percentile: f64,
        /// Safety margin multiplied onto the chosen percentile edge.
        #[serde(default = "KeepAlivePolicy::default_margin")]
        margin: f64,
        /// Observed gaps required before the histogram takes over.
        #[serde(default = "KeepAlivePolicy::default_warmup")]
        warmup: u32,
    },
}

impl KeepAlivePolicy {
    fn default_bucket_s() -> f64 {
        10.0
    }
    fn default_max_s() -> f64 {
        3_600.0
    }
    fn default_percentile() -> f64 {
        99.0
    }
    fn default_margin() -> f64 {
        1.2
    }
    fn default_warmup() -> u32 {
        3
    }

    /// The hybrid-histogram policy with its default knobs.
    pub fn hybrid_histogram() -> KeepAlivePolicy {
        KeepAlivePolicy::HybridHistogram {
            bucket_s: Self::default_bucket_s(),
            max_s: Self::default_max_s(),
            percentile: Self::default_percentile(),
            margin: Self::default_margin(),
            warmup: Self::default_warmup(),
        }
    }
}

/// Which warm instance / free worker serves an arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum PlacementPolicy {
    /// The platform's locality-preserving order: serverless picks the
    /// most-recently-used warm instance, VM and ManagedML the first free
    /// worker. This is the pre-refactor behaviour.
    #[default]
    Mru,
    /// Pick the eligible instance that has served the fewest requests
    /// (ties broken by lowest instance id, so the choice is
    /// deterministic).
    LeastLoaded,
}

/// Whether speculative capacity is spawned beyond observed demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ScalingPolicy {
    /// The provider's over-provisioning behaviour (spawn factors, the
    /// paper's Figure 11 mechanism).
    #[default]
    PlatformDefault,
    /// Spawn only for observed demand; never speculatively. Serverless
    /// only — ManagedML's scaler and the fixed-capacity VM ignore it.
    NoOverprovision,
}

/// Converts a fixed window in seconds to a schedulable duration, clamping
/// into the representable range.
pub(crate) fn fixed_window(idle_s: f64) -> SimDuration {
    SimDuration::from_secs_f64(idle_s.clamp(0.0, MAX_WINDOW_S))
}

/// Mutable keep-alive state owned by a platform: the inter-arrival
/// histogram for [`KeepAlivePolicy::HybridHistogram`], nothing for the
/// other members (no allocation, no work on the hot path).
#[derive(Debug, Clone)]
pub struct KeepAliveTracker {
    policy: KeepAlivePolicy,
    last_arrival: Option<SimTime>,
    buckets: Vec<u64>,
    total: u64,
}

impl KeepAliveTracker {
    /// Builds the tracker for a policy.
    pub fn new(policy: KeepAlivePolicy) -> KeepAliveTracker {
        let buckets = match policy {
            KeepAlivePolicy::HybridHistogram {
                bucket_s, max_s, ..
            } => {
                let width = bucket_s.max(0.001);
                vec![0u64; ((max_s / width).ceil() as usize).max(1) + 1]
            }
            _ => Vec::new(),
        };
        KeepAliveTracker {
            policy,
            last_arrival: None,
            buckets,
            total: 0,
        }
    }

    /// Records one request arrival. Only the hybrid-histogram policy keeps
    /// state; for every other policy this returns immediately.
    pub fn observe_arrival(&mut self, now: SimTime) {
        let KeepAlivePolicy::HybridHistogram { bucket_s, .. } = self.policy else {
            return;
        };
        if let Some(prev) = self.last_arrival {
            let gap = now.saturating_duration_since(prev).as_secs_f64();
            let idx = ((gap / bucket_s.max(0.001)) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
            self.total += 1;
        }
        self.last_arrival = Some(now);
    }

    /// The idle window to apply right now, given the platform's calibrated
    /// default.
    pub fn window(&self, platform_default: SimDuration) -> SimDuration {
        match self.policy {
            KeepAlivePolicy::PlatformDefault => platform_default,
            KeepAlivePolicy::Fixed { idle_s } => fixed_window(idle_s),
            KeepAlivePolicy::HybridHistogram {
                bucket_s,
                percentile,
                margin,
                warmup,
                ..
            } => {
                if self.total < u64::from(warmup) {
                    return platform_default;
                }
                let target = ((percentile / 100.0) * self.total as f64).ceil().max(1.0) as u64;
                let mut cum = 0u64;
                for (i, &count) in self.buckets.iter().enumerate() {
                    cum += count;
                    if cum >= target {
                        let edge = (i as f64 + 1.0) * bucket_s.max(0.001);
                        // Floor at the provider window: under bursty
                        // arrivals the percentile edge sits inside the
                        // burst, and reclaiming faster than the provider
                        // would re-colds every inter-burst gap. The
                        // histogram only ever *extends* keep-alive to
                        // cover an app's observed idle tail.
                        return fixed_window(edge * margin.max(1.0)).max(platform_default);
                    }
                }
                platform_default
            }
        }
    }

    /// Observed inter-arrival gaps so far (0 unless hybrid-histogram).
    pub fn observations(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_set_is_all_platform_defaults() {
        let p = PolicySet::default();
        assert_eq!(p.keep_alive, KeepAlivePolicy::PlatformDefault);
        assert_eq!(p.placement, PlacementPolicy::Mru);
        assert_eq!(p.scaling, ScalingPolicy::PlatformDefault);
    }

    #[test]
    fn every_zoo_name_resolves_and_unknown_does_not() {
        for name in PolicySet::ZOO {
            assert!(PolicySet::by_name(name).is_some(), "zoo name {name}");
        }
        assert!(PolicySet::by_name("nope").is_none());
    }

    #[test]
    fn policy_set_json_roundtrip_and_empty_block_is_default() {
        let p = PolicySet::by_name("hybrid_histogram").unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: PolicySet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        let empty: PolicySet = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, PolicySet::default());
        let partial: PolicySet = serde_json::from_str(r#"{"placement":"least_loaded"}"#).unwrap();
        assert_eq!(partial.placement, PlacementPolicy::LeastLoaded);
        assert_eq!(partial.keep_alive, KeepAlivePolicy::PlatformDefault);
    }

    #[test]
    fn histogram_knobs_have_serde_defaults() {
        let p: KeepAlivePolicy = serde_json::from_str(r#"{"kind":"hybrid_histogram"}"#).unwrap();
        assert_eq!(p, KeepAlivePolicy::hybrid_histogram());
    }

    #[test]
    fn default_tracker_passes_platform_window_through() {
        let t = KeepAliveTracker::new(KeepAlivePolicy::PlatformDefault);
        let d = SimDuration::from_secs(600);
        assert_eq!(t.window(d), d);
    }

    #[test]
    fn fixed_tracker_pins_window() {
        let t = KeepAliveTracker::new(KeepAlivePolicy::Fixed { idle_s: 42.0 });
        assert_eq!(
            t.window(SimDuration::from_secs(600)),
            SimDuration::from_secs(42)
        );
    }

    #[test]
    fn histogram_adapts_to_observed_gaps() {
        let mut t = KeepAliveTracker::new(KeepAlivePolicy::hybrid_histogram());
        let default = SimDuration::from_secs(600);
        // Before warmup the platform default applies.
        t.observe_arrival(SimTime::from_secs_f64(0.0));
        t.observe_arrival(SimTime::from_secs_f64(100.0));
        assert_eq!(t.window(default), default);
        // Steady 100 s gaps: the percentile edge covers them with margin,
        // but the window never drops below the platform default.
        for i in 2..30u64 {
            t.observe_arrival(SimTime::from_secs_f64(i as f64 * 100.0));
        }
        assert_eq!(t.window(default), default);
        // With a short provider window the histogram edge governs.
        let tight = SimDuration::from_secs(10);
        let w = t.window(tight).as_secs_f64();
        assert!(w >= 100.0, "window {w} must cover the observed gap");
        assert!(w <= 200.0, "window {w} must stay near the observed gap");
        // A sparse tail pushes the percentile out beyond the default.
        let mut sparse = KeepAliveTracker::new(KeepAlivePolicy::hybrid_histogram());
        for i in 0..20u64 {
            sparse.observe_arrival(SimTime::from_secs_f64(i as f64 * 1_500.0));
        }
        let ws = sparse.window(default).as_secs_f64();
        assert!(ws > 1_500.0, "sparse window {ws} must exceed the gap");
    }

    #[test]
    fn huge_fixed_window_is_clamped_not_overflowed() {
        let t = KeepAliveTracker::new(KeepAlivePolicy::Fixed { idle_s: 1e18 });
        let w = t.window(SimDuration::from_secs(1));
        assert!(w.as_secs_f64() >= 1e8, "clamped window still enormous");
    }
}
