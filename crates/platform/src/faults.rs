//! Seed-deterministic fault injection: the [`FaultPlan`] schedule and the
//! [`FaultInjector`] runtime the simulators consult at their hook points.
//!
//! A plan describes *which* faults can fire — boot/mid-execution crashes,
//! storage-download degradation and stalls, client-path jitter and packet
//! loss, token-bucket throttling, and timed outage windows — while the
//! injector owns the RNG substream and token-bucket state that decide
//! *when* they fire. Two invariants make plans safe to thread through
//! every simulator unconditionally:
//!
//! 1. **A disabled knob draws nothing.** Every probabilistic decision
//!    checks its enabling parameter before touching the RNG, so an empty
//!    plan is a byte-identical no-op: the fault substream is never
//!    advanced and simulation output cannot differ from a run without the
//!    fault layer at all.
//! 2. **Counting is unconditional, events are recorder-gated.** The
//!    injector increments its fired-fault counter whether or not a
//!    recorder is attached; the simulators emit one `EventKind::Fault`
//!    per fired fault through the write-only recorder hook. When a trace
//!    is recorded, the number of `fault` lines therefore equals the
//!    fault totals in the analyzer output exactly.
//!
//! Throttling and outage windows are deliberately RNG-free (pure
//! functions of virtual time) so they stay identical across any client
//! ordering; the probabilistic knobs each draw from the injector's own
//! labelled substream and never perturb platform service-time streams.

use serde::{Deserialize, Serialize};
use slsb_obs::FaultKind;
use slsb_sim::{Seed, SimDuration, SimRng, SimTime};
use std::fmt;

/// A token-bucket admission throttle (429-style), refilled continuously
/// at `rate_per_sec` up to a capacity of `burst` tokens. Each admitted
/// request consumes one token; a request arriving to an empty bucket is
/// rejected as throttled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThrottleSpec {
    /// Sustained admissions per second.
    pub rate_per_sec: f64,
    /// Bucket capacity: the largest instantaneous burst admitted.
    pub burst: f64,
}

/// A timed regional-outage window: every admission attempt inside
/// `[start_s, start_s + duration_s)` (virtual seconds from run start) is
/// rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// Window start, seconds of virtual time from run start.
    pub start_s: f64,
    /// Window length in seconds.
    pub duration_s: f64,
}

impl OutageWindow {
    /// Whether `now` falls inside this window.
    pub fn contains(&self, now: SimTime) -> bool {
        let t = now.duration_since(SimTime::ZERO).as_secs_f64();
        t >= self.start_s && t < self.start_s + self.duration_s
    }
}

/// A declarative, seed-deterministic schedule of injectable faults.
///
/// All knobs default to "off"; [`FaultPlan::default`] (= an absent
/// `faults` block in a scenario file) is guaranteed to be a no-op.
/// Probabilities are per-decision-point Bernoulli chances in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Chance an instance crashes at the end of its cold start (and is
    /// replaced, re-paying the cold start). Adds to any platform-preset
    /// crash chance.
    #[serde(default = "zero")]
    pub crash_on_boot: f64,
    /// Chance a dispatched handler execution crashes: the request fails
    /// as [`crate::FailureReason::Crashed`] after its would-be service
    /// time, and on serverless the instance dies with it.
    #[serde(default = "zero")]
    pub crash_mid_exec: f64,
    /// Multiplier (≥ 1.0) on storage-download time — models a degraded
    /// object store. Continuous degradation: no per-download event.
    #[serde(default = "one")]
    pub storage_slowdown: f64,
    /// Chance a storage download additionally stalls for
    /// [`FaultPlan::storage_stall_s`].
    #[serde(default = "zero")]
    pub storage_stall_chance: f64,
    /// Length of an injected storage stall, in seconds.
    #[serde(default = "zero")]
    pub storage_stall_s: f64,
    /// Maximum extra one-way network delay on the client request path,
    /// in milliseconds; each delivery draws uniformly from `[0, jitter]`.
    /// Continuous degradation: no per-request event.
    #[serde(default = "zero")]
    pub client_jitter_ms: f64,
    /// Chance a client request is lost on the way to the platform (the
    /// platform never sees it; the client times out and may retry).
    #[serde(default = "zero")]
    pub packet_loss: f64,
    /// Optional token-bucket admission throttle.
    #[serde(default = "no_throttle")]
    pub throttle: Option<ThrottleSpec>,
    /// Timed outage windows during which admission is refused.
    #[serde(default = "no_outages")]
    pub outages: Vec<OutageWindow>,
}

fn zero() -> f64 {
    0.0
}

fn one() -> f64 {
    1.0
}

fn no_throttle() -> Option<ThrottleSpec> {
    None
}

fn no_outages() -> Vec<OutageWindow> {
    Vec::new()
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            crash_on_boot: 0.0,
            crash_mid_exec: 0.0,
            storage_slowdown: 1.0,
            storage_stall_chance: 0.0,
            storage_stall_s: 0.0,
            client_jitter_ms: 0.0,
            packet_loss: 0.0,
            throttle: None,
            outages: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// An explicitly empty plan (same as [`FaultPlan::default`]).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no knob is enabled: the plan injects nothing and a run
    /// with it is byte-identical to a run without a fault layer.
    pub fn is_empty(&self) -> bool {
        self.crash_on_boot <= 0.0
            && self.crash_mid_exec <= 0.0
            && self.storage_slowdown <= 1.0
            && (self.storage_stall_chance <= 0.0 || self.storage_stall_s <= 0.0)
            && self.client_jitter_ms <= 0.0
            && self.packet_loss <= 0.0
            && self.throttle.is_none()
            && self.outages.is_empty()
    }

    /// Checks every knob for well-formedness; returns the first problem.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let chances = [
            ("crash_on_boot", self.crash_on_boot),
            ("crash_mid_exec", self.crash_mid_exec),
            ("storage_stall_chance", self.storage_stall_chance),
            ("packet_loss", self.packet_loss),
        ];
        for (name, p) in chances {
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultPlanError::ChanceOutOfRange { name, value: p });
            }
        }
        if !self.storage_slowdown.is_finite() || self.storage_slowdown < 1.0 {
            return Err(FaultPlanError::BadSlowdown(self.storage_slowdown));
        }
        for (name, v) in [
            ("storage_stall_s", self.storage_stall_s),
            ("client_jitter_ms", self.client_jitter_ms),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(FaultPlanError::NegativeDuration { name, value: v });
            }
        }
        if let Some(t) = &self.throttle {
            if !t.rate_per_sec.is_finite()
                || t.rate_per_sec <= 0.0
                || !t.burst.is_finite()
                || t.burst < 1.0
            {
                return Err(FaultPlanError::BadThrottle(*t));
            }
        }
        for w in &self.outages {
            if !w.start_s.is_finite()
                || w.start_s < 0.0
                || !w.duration_s.is_finite()
                || w.duration_s <= 0.0
            {
                return Err(FaultPlanError::BadOutage(*w));
            }
        }
        Ok(())
    }
}

/// Why a [`FaultPlan`] is invalid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// A probability knob outside `[0, 1]`.
    ChanceOutOfRange {
        /// The offending field.
        name: &'static str,
        /// Its value.
        value: f64,
    },
    /// `storage_slowdown` below 1.0 or non-finite.
    BadSlowdown(f64),
    /// A duration knob that is negative or non-finite.
    NegativeDuration {
        /// The offending field.
        name: &'static str,
        /// Its value.
        value: f64,
    },
    /// A throttle with non-positive rate or a burst below one token.
    BadThrottle(ThrottleSpec),
    /// An outage window with negative start or non-positive length.
    BadOutage(OutageWindow),
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::ChanceOutOfRange { name, value } => {
                write!(f, "{name} = {value} outside [0, 1]")
            }
            FaultPlanError::BadSlowdown(v) => {
                write!(f, "storage_slowdown = {v} must be a finite value >= 1")
            }
            FaultPlanError::NegativeDuration { name, value } => {
                write!(f, "{name} = {value} must be finite and >= 0")
            }
            FaultPlanError::BadThrottle(t) => write!(
                f,
                "throttle rate {} / burst {} invalid (need rate > 0, burst >= 1)",
                t.rate_per_sec, t.burst
            ),
            FaultPlanError::BadOutage(w) => write!(
                f,
                "outage window start {}s / duration {}s invalid",
                w.start_s, w.duration_s
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The runtime half of fault injection: owns the plan, a dedicated RNG
/// substream, the throttle bucket, and the fired-fault counter.
///
/// Each simulator (and the executor's client path) holds its own
/// injector built from its own seed substream, so fault draws in one
/// component never shift the streams of another.
#[derive(Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    stall: SimDuration,
    jitter: SimDuration,
    tokens: f64,
    refilled_at: SimTime,
    injected: u64,
}

impl FaultInjector {
    /// An injector for `plan`, drawing from `seed`'s stream.
    pub fn new(plan: FaultPlan, seed: Seed) -> Self {
        let tokens = plan.throttle.map_or(0.0, |t| t.burst);
        let stall = SimDuration::from_secs_f64(plan.storage_stall_s.max(0.0));
        let jitter = SimDuration::from_secs_f64(plan.client_jitter_ms.max(0.0) / 1e3);
        FaultInjector {
            plan,
            rng: seed.rng(),
            stall,
            jitter,
            tokens,
            refilled_at: SimTime::ZERO,
            injected: 0,
        }
    }

    /// An injector with an empty plan: every hook is a no-op and the RNG
    /// is never advanced.
    pub fn disabled() -> Self {
        FaultInjector::new(FaultPlan::default(), Seed(0))
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// How many discrete faults have fired so far. Equals the number of
    /// `fault` trace events the owning component emitted when recording.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Should this cold-starting instance crash at boot? Draws only when
    /// the knob is enabled; counts one fault when it fires.
    pub fn crash_on_boot(&mut self) -> bool {
        self.fire(self.plan.crash_on_boot)
    }

    /// Should this dispatched handler execution crash? Draws only when
    /// the knob is enabled; counts one fault when it fires.
    pub fn crash_mid_exec(&mut self) -> bool {
        self.fire(self.plan.crash_mid_exec)
    }

    /// Extra storage-download delay for a download of base duration
    /// `base`: the slowdown surcharge plus, with
    /// `storage_stall_chance`, an injected stall. Returns the extra
    /// delay and whether a (counted) stall fired.
    pub fn storage_penalty(&mut self, base: SimDuration) -> (SimDuration, bool) {
        let mut extra = SimDuration::ZERO;
        if self.plan.storage_slowdown > 1.0 {
            extra +=
                SimDuration::from_secs_f64(base.as_secs_f64() * (self.plan.storage_slowdown - 1.0));
        }
        let stalled = self.stall > SimDuration::ZERO && self.fire(self.plan.storage_stall_chance);
        if stalled {
            extra += self.stall;
        }
        (extra, stalled)
    }

    /// Admission check at `now`: `None` admits; `Some(kind)` rejects
    /// (outage windows take precedence over the throttle). RNG-free.
    /// Counts one fault per rejection.
    pub fn admit(&mut self, now: SimTime) -> Option<FaultKind> {
        if self.plan.outages.iter().any(|w| w.contains(now)) {
            self.injected += 1;
            return Some(FaultKind::Outage);
        }
        if let Some(t) = self.plan.throttle {
            let dt = now
                .saturating_duration_since(self.refilled_at)
                .as_secs_f64();
            self.tokens = (self.tokens + dt * t.rate_per_sec).min(t.burst);
            self.refilled_at = now;
            if self.tokens < 1.0 {
                self.injected += 1;
                return Some(FaultKind::Throttled);
            }
            self.tokens -= 1.0;
        }
        None
    }

    /// Is this client request lost in transit? Draws only when the knob
    /// is enabled; counts one fault when it fires.
    pub fn drop_packet(&mut self) -> bool {
        self.fire(self.plan.packet_loss)
    }

    /// Extra one-way client network delay, uniform in
    /// `[0, client_jitter_ms]`. Draws only when jitter is enabled;
    /// continuous degradation, never counted as a discrete fault.
    pub fn client_jitter(&mut self) -> SimDuration {
        if self.jitter == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        self.rng.uniform_duration(SimDuration::ZERO, self.jitter)
    }

    /// Splits off the client jitter of the next `n` sends: returns an
    /// injector that draws exactly what `n` calls to
    /// [`FaultInjector::client_jitter`] on `self` would, and moves `self`
    /// past them. Lets independent senders each draw their own share of
    /// one jitter sequence, in any interleaving.
    pub fn split_jitter(&mut self, n: u64) -> FaultInjector {
        let head = self.clone();
        if self.jitter > SimDuration::ZERO {
            // One draw per jittered send.
            self.rng.discard(n);
        }
        head
    }

    fn fire(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let hit = self.rng.chance(p);
        if hit {
            self.injected += 1;
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        p.validate().unwrap();
        let mut inj = FaultInjector::disabled();
        assert!(!inj.crash_on_boot());
        assert!(!inj.crash_mid_exec());
        assert!(!inj.drop_packet());
        assert_eq!(inj.client_jitter(), SimDuration::ZERO);
        assert_eq!(
            inj.storage_penalty(SimDuration::from_secs(3)),
            (SimDuration::ZERO, false)
        );
        assert_eq!(inj.admit(SimTime::from_secs_f64(5.0)), None);
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn split_jitter_hands_out_the_sequential_draws() {
        let mut plan = FaultPlan::none();
        plan.client_jitter_ms = 40.0;
        plan.packet_loss = 0.5;
        let mut sequential = FaultInjector::new(plan.clone(), Seed(3));
        let expect: Vec<SimDuration> = (0..7).map(|_| sequential.client_jitter()).collect();
        let mut rest = FaultInjector::new(plan, Seed(3));
        let mut first = rest.split_jitter(3);
        let mut second = rest.split_jitter(4);
        // Drawn in another interleaving, the shares are still the
        // sequence's, and `rest` continues where it would.
        let mut got = vec![second.client_jitter(), first.client_jitter()];
        got.extend((0..2).map(|_| first.client_jitter()));
        got.extend((0..3).map(|_| second.client_jitter()));
        let order = [3, 0, 1, 2, 4, 5, 6];
        assert_eq!(got, order.map(|i| expect[i]));
        assert_eq!(rest.drop_packet(), sequential.drop_packet());
        assert_eq!(rest.client_jitter(), sequential.client_jitter());
    }

    #[test]
    fn disabled_knobs_never_advance_the_rng() {
        // Two injectors with the same seed, one exercised heavily with an
        // empty plan: a subsequent enabled draw must match a fresh stream.
        let seed = Seed(99);
        let enabled = FaultPlan {
            packet_loss: 0.5,
            ..FaultPlan::default()
        };
        let mut idle = FaultInjector::new(enabled.clone(), seed);
        let mut busy = FaultInjector::new(enabled, seed);
        let mut noop = FaultInjector::new(FaultPlan::none(), seed);
        for i in 0..100 {
            assert!(!noop.crash_on_boot());
            noop.storage_penalty(SimDuration::from_secs(1));
            noop.admit(SimTime::from_secs_f64(i as f64));
            // `busy` exercises the same disabled paths as `noop` …
            assert!(!busy.crash_on_boot());
            busy.storage_penalty(SimDuration::ZERO);
        }
        // … and still produces the same enabled-draw sequence as `idle`.
        for _ in 0..50 {
            assert_eq!(idle.drop_packet(), busy.drop_packet());
        }
        assert_eq!(noop.injected(), 0);
    }

    #[test]
    fn token_bucket_admits_burst_then_throttles() {
        let plan = FaultPlan {
            throttle: Some(ThrottleSpec {
                rate_per_sec: 2.0,
                burst: 3.0,
            }),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, Seed(1));
        let t0 = SimTime::ZERO;
        // Burst of 3 admitted, 4th rejected.
        for _ in 0..3 {
            assert_eq!(inj.admit(t0), None);
        }
        assert_eq!(inj.admit(t0), Some(FaultKind::Throttled));
        // One second refills two tokens.
        let t1 = t0 + SimDuration::from_secs(1);
        assert_eq!(inj.admit(t1), None);
        assert_eq!(inj.admit(t1), None);
        assert_eq!(inj.admit(t1), Some(FaultKind::Throttled));
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn outage_window_bounds_are_half_open() {
        let plan = FaultPlan {
            outages: vec![OutageWindow {
                start_s: 10.0,
                duration_s: 5.0,
            }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, Seed(1));
        assert_eq!(inj.admit(SimTime::from_secs_f64(9.999)), None);
        assert_eq!(
            inj.admit(SimTime::from_secs_f64(10.0)),
            Some(FaultKind::Outage)
        );
        assert_eq!(
            inj.admit(SimTime::from_secs_f64(14.999)),
            Some(FaultKind::Outage)
        );
        assert_eq!(inj.admit(SimTime::from_secs_f64(15.0)), None);
    }

    #[test]
    fn storage_penalty_applies_slowdown_and_stall() {
        let plan = FaultPlan {
            storage_slowdown: 3.0,
            storage_stall_chance: 1.0,
            storage_stall_s: 2.0,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, Seed(4));
        let (extra, stalled) = inj.storage_penalty(SimDuration::from_secs(5));
        assert!(stalled);
        // 5s * (3 - 1) slowdown surcharge + 2s stall.
        assert_eq!(extra, SimDuration::from_secs(12));
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let plan = FaultPlan {
            crash_mid_exec: 0.4,
            packet_loss: 0.2,
            ..FaultPlan::default()
        };
        let run = |seed: Seed| {
            let mut inj = FaultInjector::new(plan.clone(), seed);
            (0..64)
                .map(|_| (inj.crash_mid_exec(), inj.drop_packet()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(Seed(7)), run(Seed(7)));
        assert_ne!(run(Seed(7)), run(Seed(8)));
    }

    #[test]
    fn validation_catches_bad_knobs() {
        let bad_chance = FaultPlan {
            packet_loss: 1.5,
            ..FaultPlan::default()
        };
        assert!(matches!(
            bad_chance.validate(),
            Err(FaultPlanError::ChanceOutOfRange { .. })
        ));
        let bad_slow = FaultPlan {
            storage_slowdown: 0.5,
            ..FaultPlan::default()
        };
        assert!(matches!(
            bad_slow.validate(),
            Err(FaultPlanError::BadSlowdown(_))
        ));
        let bad_throttle = FaultPlan {
            throttle: Some(ThrottleSpec {
                rate_per_sec: 0.0,
                burst: 4.0,
            }),
            ..FaultPlan::default()
        };
        assert!(matches!(
            bad_throttle.validate(),
            Err(FaultPlanError::BadThrottle(_))
        ));
        let bad_outage = FaultPlan {
            outages: vec![OutageWindow {
                start_s: -1.0,
                duration_s: 2.0,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(
            bad_outage.validate(),
            Err(FaultPlanError::BadOutage(_))
        ));
        for e in [
            FaultPlanError::BadSlowdown(0.0),
            FaultPlanError::NegativeDuration {
                name: "x",
                value: -1.0,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn plan_roundtrips_through_json_with_defaults() {
        let json = r#"{ "packet_loss": 0.1, "throttle": { "rate_per_sec": 50.0, "burst": 10.0 } }"#;
        let plan: FaultPlan = serde_json::from_str(json).unwrap();
        assert_eq!(plan.packet_loss, 0.1);
        assert_eq!(plan.storage_slowdown, 1.0);
        assert!(!plan.is_empty());
        let back: FaultPlan = serde_json::from_str(&serde_json::to_string(&plan).unwrap()).unwrap();
        assert_eq!(back, plan);
        let empty: FaultPlan = serde_json::from_str("{}").unwrap();
        assert!(empty.is_empty());
    }
}
