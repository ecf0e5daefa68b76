//! Markov-Modulated Poisson Process (MMPP) workload generation.
//!
//! The paper (Section 3, "Load generator") uses a 2-state MMPP — following
//! MArk \[57\] and BATCH \[2\] — because no public model-serving traces
//! exist. The chain alternates between a *high* state and a *low* state;
//! sojourn times are exponential, and within a state arrivals follow a
//! Poisson process at that state's rate. The result is bursty and
//! unpredictable, with random surge onsets and durations (the paper's
//! Figure 4).

use crate::stream::MmppStream;
use crate::trace::{reserve_for, TooManyRequests, WorkloadTrace};
use serde::{Deserialize, Serialize};
use slsb_sim::{Seed, SimDuration};

/// Which of the two modulation states the chain is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Demand-surge state (the paper's "higher arrival rate").
    High,
    /// Background state.
    Low,
}

/// Parameters of a 2-state MMPP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MmppSpec {
    /// Workload label, e.g. `"workload-120"`.
    pub name: &'static str,
    /// Poisson rate in the high state (requests/second). The paper names
    /// workloads after this number (40, 120, 200).
    pub rate_high: f64,
    /// Poisson rate in the low state.
    pub rate_low: f64,
    /// Mean sojourn in the high state.
    pub mean_high_dwell: SimDuration,
    /// Mean sojourn in the low state.
    pub mean_low_dwell: SimDuration,
    /// Total trace duration (the paper uses ≈ 15 minutes).
    pub duration: SimDuration,
}

/// The paper's three workloads (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MmppPreset {
    /// "workload-40": low request rate, E\[requests\] = 15 000.
    W40,
    /// "workload-120": medium request rate, E\[requests\] = 51 600.
    W120,
    /// "workload-200": high request rate, E\[requests\] = 86 000.
    W200,
}

impl MmppPreset {
    /// All three presets in the paper's order.
    pub const ALL: [MmppPreset; 3] = [MmppPreset::W40, MmppPreset::W120, MmppPreset::W200];

    /// The calibrated spec.
    ///
    /// Dwell times are chosen so the stationary mean rate reproduces the
    /// paper's request counts over 900 s exactly in expectation:
    /// `E[N] = duration · (rate_high·π_high + rate_low·π_low)` with
    /// `π_high = dwell_high / (dwell_high + dwell_low)`:
    ///
    /// * W40: π_high = 40/180 = 0.2222 → E\[N\] = 900·16.67 = 15 000
    /// * W120: π_high = 40/131.7 = 0.3037 → E\[N\] = 900·57.3 ≈ 51 600
    /// * W200: π_high = 40/131.7 = 0.3037 → E\[N\] = 900·95.5 ≈ 86 000
    ///
    /// Mean sojourns of 40 s give 6–9 demand surges per 15-minute trace
    /// (as in the paper's Figure 4) and keep per-seed count variance low.
    pub fn spec(self) -> MmppSpec {
        match self {
            MmppPreset::W40 => MmppSpec {
                name: "workload-40",
                rate_high: 40.0,
                rate_low: 10.0,
                mean_high_dwell: SimDuration::from_secs(40),
                mean_low_dwell: SimDuration::from_secs(140),
                duration: SimDuration::from_secs(900),
            },
            MmppPreset::W120 => MmppSpec {
                name: "workload-120",
                rate_high: 120.0,
                rate_low: 30.0,
                mean_high_dwell: SimDuration::from_secs(40),
                mean_low_dwell: SimDuration::from_millis(91_667),
                duration: SimDuration::from_secs(900),
            },
            MmppPreset::W200 => MmppSpec {
                name: "workload-200",
                rate_high: 200.0,
                rate_low: 50.0,
                mean_high_dwell: SimDuration::from_secs(40),
                mean_low_dwell: SimDuration::from_millis(91_667),
                duration: SimDuration::from_secs(900),
            },
        }
    }

    /// The request count the paper reports for this workload.
    pub fn paper_request_count(self) -> usize {
        match self {
            MmppPreset::W40 => 15_000,
            MmppPreset::W120 => 51_600,
            MmppPreset::W200 => 86_000,
        }
    }

    /// Generates the trace for a seed. Convenience for `spec().generate`.
    pub fn generate(self, seed: Seed) -> WorkloadTrace {
        self.spec().generate(seed)
    }
}

impl MmppSpec {
    /// Stationary probability of the high state.
    pub fn stationary_high(&self) -> f64 {
        let h = self.mean_high_dwell.as_secs_f64();
        let l = self.mean_low_dwell.as_secs_f64();
        h / (h + l)
    }

    /// Long-run mean arrival rate (requests/second).
    pub fn stationary_rate(&self) -> f64 {
        let ph = self.stationary_high();
        self.rate_high * ph + self.rate_low * (1.0 - ph)
    }

    /// Expected number of requests over the full duration.
    pub fn expected_requests(&self) -> f64 {
        self.stationary_rate() * self.duration.as_secs_f64()
    }

    /// The same chain over `scale` times the duration.
    pub fn scaled(self, scale: f64) -> MmppSpec {
        MmppSpec {
            duration: self.duration.mul_f64(scale),
            ..self
        }
    }

    /// Checks that the spec expects no more requests than one run can
    /// index; a chain whose dwells are both zero is charged its faster
    /// rate.
    ///
    /// # Errors
    /// When it expects more.
    pub fn check_size(&self) -> Result<(), TooManyRequests> {
        let expected = self.expected_requests();
        let expected = if expected.is_nan() {
            self.rate_high.max(self.rate_low) * self.duration.as_secs_f64()
        } else {
            expected
        };
        TooManyRequests::check(expected)
    }

    /// A lazy iterator over this spec's arrivals — same seed, same draw
    /// order, byte-identical sequence to [`MmppSpec::generate`], but O(1)
    /// memory. Fleet runs pull from this instead of materializing.
    pub fn stream(&self, seed: Seed) -> MmppStream {
        MmppStream::new(*self, seed)
    }

    /// Samples a full trace.
    ///
    /// The chain starts in a state drawn from the stationary distribution.
    /// Within each sojourn, arrivals are generated by sequential exponential
    /// gaps at the state's rate; the partial gap at a state switch is
    /// restarted, which is the standard (memoryless-exact) construction.
    /// This is a thin collect over [`MmppSpec::stream`].
    pub fn generate(&self, seed: Seed) -> WorkloadTrace {
        let mut arrivals = Vec::with_capacity(reserve_for(self.expected_requests()));
        arrivals.extend(self.stream(seed));
        // A sample can land exactly on `duration` only via rounding; the
        // trace type requires arrivals ≤ duration, which holds by the stream
        // bound (t < segment_end ≤ end).
        WorkloadTrace::new(self.name, self.duration, arrivals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_expected_counts_match_paper() {
        let tol = 0.01; // within 1 % in expectation
        for p in MmppPreset::ALL {
            let spec = p.spec();
            let exp = spec.expected_requests();
            let target = p.paper_request_count() as f64;
            assert!(
                (exp - target).abs() / target < tol,
                "{:?}: expected {exp}, paper {target}",
                p
            );
        }
    }

    #[test]
    fn oversized_specs_are_rejected_and_reserve_little() {
        let mut spec = MmppPreset::W200.spec();
        spec.check_size().unwrap();
        spec.duration = SimDuration::from_secs(10_000_000_000);
        let err = spec.check_size().unwrap_err();
        assert!(err.expected > crate::MAX_TRACE_REQUESTS as f64, "{err}");
        assert!(err.to_string().contains("one run can index"));
        assert!(reserve_for(spec.expected_requests()) <= crate::trace::MAX_RESERVED_ARRIVALS);
        spec.mean_high_dwell = SimDuration::ZERO;
        spec.mean_low_dwell = SimDuration::ZERO;
        assert!(
            spec.check_size().is_err(),
            "zero dwells are charged the faster rate"
        );
    }

    #[test]
    fn generated_counts_close_to_expectation() {
        // Average over several seeds: the sojourn randomness makes a single
        // draw noisy (few state switches per 15 min), so check the mean.
        for p in MmppPreset::ALL {
            let target = p.paper_request_count() as f64;
            let seeds = 12;
            let mean: f64 = (0..seeds)
                .map(|s| p.generate(Seed(s)).len() as f64)
                .sum::<f64>()
                / seeds as f64;
            assert!(
                (mean - target).abs() / target < 0.25,
                "{p:?}: mean {mean} vs target {target}"
            );
        }
    }

    #[test]
    fn trace_is_bursty() {
        // Peak bucket rate should approach the high rate and clearly exceed
        // the stationary mean — the property the paper relies on.
        let tr = MmppPreset::W120.generate(Seed(7));
        let peak = tr.peak_rate(SimDuration::from_secs(10));
        let mean = tr.mean_rate();
        assert!(peak > 1.5 * mean, "peak {peak} vs mean {mean}");
        assert!(peak > 80.0, "peak {peak} should approach rate_high=120");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        let mmpp = MmppPreset::W120.generate(Seed(5));
        let poisson =
            crate::poisson::PoissonProcess::new(mmpp.mean_rate(), SimDuration::from_secs(900))
                .generate(Seed(5));
        let bucket = SimDuration::from_secs(10);
        let b_mmpp = mmpp.burstiness(bucket).unwrap();
        let b_poisson = poisson.burstiness(bucket).unwrap();
        assert!(
            b_mmpp.interarrival_cv > b_poisson.interarrival_cv,
            "MMPP CV {} should exceed Poisson CV {}",
            b_mmpp.interarrival_cv,
            b_poisson.interarrival_cv
        );
        assert!(b_mmpp.peak_to_mean > b_poisson.peak_to_mean);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = MmppPreset::W40.generate(Seed(42));
        let b = MmppPreset::W40.generate(Seed(42));
        assert_eq!(a, b);
        assert_ne!(a, MmppPreset::W40.generate(Seed(43)));
    }

    #[test]
    fn stationary_math() {
        let spec = MmppPreset::W40.spec();
        assert!((spec.stationary_high() - 40.0 / 180.0).abs() < 1e-12);
        assert!((spec.stationary_rate() - 50.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_low_state_still_works() {
        let spec = MmppSpec {
            name: "zero-low",
            rate_high: 10.0,
            rate_low: 0.0,
            mean_high_dwell: SimDuration::from_secs(10),
            mean_low_dwell: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(100),
        };
        let tr = spec.generate(Seed(1));
        // Only high-state segments produce arrivals.
        assert!(!tr.is_empty());
        assert!(tr.len() < 10 * 100);
    }

    #[test]
    fn arrivals_sorted_and_in_range() {
        let tr = MmppPreset::W200.generate(Seed(9));
        let a = tr.arrivals();
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|t| t.as_micros() <= 900 * 1_000_000));
    }
}
