//! Deterministic randomness with labelled substreams.
//!
//! Every experiment takes one `u64` seed. Components derive independent
//! substreams from it by label (`seed.substream("clients")`,
//! `seed.substream("coldstart")`, …) so that adding a random draw in one
//! component never perturbs the sequence seen by another — a prerequisite
//! for meaningful A/B comparisons between platform configurations.
//!
//! The generator is a self-contained xoshiro256++ (seeded by SplitMix64
//! expansion) with ziggurat exponential and normal samplers on the hot
//! path, so the crate has no external RNG dependency and every draw is
//! a pure function of the seed — the property the parallel run harness
//! relies on for bit-identical results regardless of thread count.
//!
//! The ziggurat samplers (Marsaglia & Tsang, 256 layers) accept ~98–99 %
//! of draws with one `u64`, two table loads, a multiply, and a compare —
//! no `ln`/`sqrt`/`cos` — which is what lifts fleet throughput past the
//! libm-bound Box–Muller/inverse-transform path. The legacy samplers
//! survive only in test builds, as `*_reference` differential oracles:
//! moment and KS tests pin the fast path against them. Note the
//! ziggurat consumes a *variable* number of raw draws per sample
//! (rejection), so the stream position now depends on the values drawn;
//! determinism is unaffected because every draw remains a pure function
//! of the substream seed.

use crate::time::SimDuration;
use std::sync::OnceLock;

/// An experiment seed from which component substreams are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Seed(pub u64);

impl Seed {
    /// Derives a child seed for the component named `label`.
    ///
    /// Uses FNV-1a over the label mixed with the parent seed via
    /// SplitMix64-style finalization; labels that differ in any byte give
    /// unrelated child seeds.
    pub fn substream(self, label: &str) -> Seed {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET ^ self.0;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        Seed(splitmix64(h))
    }

    /// Derives a child seed for the `index`-th member of a homogeneous group
    /// (e.g. client #3).
    pub fn substream_indexed(self, label: &str, index: u64) -> Seed {
        Seed(splitmix64(self.substream(label).0 ^ splitmix64(index)))
    }

    /// Builds the RNG for this (sub)stream.
    pub fn rng(self) -> SimRng {
        // Expand the 64-bit seed into xoshiro256++ state via SplitMix64,
        // the seeding procedure recommended by the xoshiro authors.
        let mut sm = self.0;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            splitmix64_mix(sm)
        };
        SimRng {
            state: [next(), next(), next(), next()],
            ln_median: (0, 0.0),
        }
    }
}

fn splitmix64(z: u64) -> u64 {
    splitmix64_mix(z.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Layers in each ziggurat (the classic 256-layer construction; accept
/// probability on the single-compare fast path is ~98–99 %).
const ZIG_LAYERS: usize = 256;
/// Rightmost layer edge of the normal ziggurat (Marsaglia & Tsang).
const ZIG_NORM_R: f64 = 3.654_152_885_361_009;
/// Per-layer area of the normal ziggurat for the unnormalized pdf
/// `exp(-x²/2)` (base strip rectangle + tail share the same area).
const ZIG_NORM_V: f64 = 4.928_673_233_992_336e-3;
/// Rightmost layer edge of the exponential ziggurat.
const ZIG_EXP_R: f64 = 7.697_117_470_131_487;
/// Per-layer area of the exponential ziggurat for `exp(-x)`.
const ZIG_EXP_V: f64 = 3.949_659_822_581_557e-3;

/// Precomputed ziggurat layer edges `x[i]` (strictly decreasing,
/// `x[LAYERS] = 0`) and pdf values `f[i] = pdf(x[i])`.
struct ZigTable {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

/// Builds a ziggurat table from the published `(r, v)` constants and the
/// (unnormalized, monotone-decreasing) pdf with its inverse. Purely a
/// function of math constants, so lazily initializing it never threatens
/// determinism.
fn build_zig_table(r: f64, v: f64, pdf: fn(f64) -> f64, pdf_inv: fn(f64) -> f64) -> ZigTable {
    let mut x = [0.0; ZIG_LAYERS + 1];
    let mut f = [0.0; ZIG_LAYERS + 1];
    // The base strip (layer 0) is a rectangle of area v whose width
    // overshoots r; the overshoot region maps onto the tail.
    x[0] = v / pdf(r);
    x[1] = r;
    for i in 2..ZIG_LAYERS {
        // Equal-area recurrence: v = x[i-1]·(pdf(x[i]) − pdf(x[i-1])).
        // Clamp guards the last few layers against f64 rounding pushing
        // the argument of the inverse pdf above 1.
        let y = (v / x[i - 1] + pdf(x[i - 1])).min(1.0);
        x[i] = pdf_inv(y);
    }
    x[ZIG_LAYERS] = 0.0;
    for i in 0..=ZIG_LAYERS {
        f[i] = pdf(x[i]);
    }
    ZigTable { x, f }
}

fn zig_norm_table() -> &'static ZigTable {
    static T: OnceLock<ZigTable> = OnceLock::new();
    T.get_or_init(|| {
        build_zig_table(
            ZIG_NORM_R,
            ZIG_NORM_V,
            |x| (-0.5 * x * x).exp(),
            |y| (-2.0 * y.ln()).sqrt(),
        )
    })
}

fn zig_exp_table() -> &'static ZigTable {
    static T: OnceLock<ZigTable> = OnceLock::new();
    T.get_or_init(|| build_zig_table(ZIG_EXP_R, ZIG_EXP_V, |x| (-x).exp(), |y| -y.ln()))
}

/// Seeded random source with samplers for the distributions the simulators
/// use. Internally a xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    /// The last [`SimRng::lognormal`] median (µs) and its `ln` in
    /// seconds: callers draw around a few fixed medians, so most draws
    /// skip the `ln`. A 0 key never matches: a zero median returns early.
    ln_median: (u64, f64),
}

impl SimRng {
    /// Next raw 64-bit draw (xoshiro256++ step).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Skips the next `n` raw draws: afterwards the stream continues
    /// exactly where it would after `n` calls that each draw once (such
    /// as [`SimRng::uniform`] or [`SimRng::uniform_duration`]).
    pub fn discard(&mut self, n: u64) {
        for _ in 0..n {
            self.next_u64();
        }
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits give every representable double in [0, 1) at the
        // standard spacing.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        // Widening-multiply range reduction (Lemire); bias is < 2^-64 per
        // draw, far below anything a simulation statistic can observe.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Uniform draw in `(0, 1]` (safe to take the log of).
    fn nonzero_uniform(&mut self) -> f64 {
        1.0 - self.uniform()
    }

    /// Standard exponential draw (mean 1) via the 256-layer ziggurat:
    /// ~98 % of draws cost one `u64`, two table loads, and one compare.
    /// Pinned statistically against the inverse-transform reference in
    /// this module's tests.
    pub fn standard_exp(&mut self) -> f64 {
        let t = zig_exp_table();
        loop {
            let bits = self.next_u64();
            // Low 8 bits pick the layer; bits 11.. form the 53-bit uniform
            // (disjoint bit ranges, so layer and position are independent
            // enough for every published use of this construction).
            let i = (bits & 0xff) as usize;
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let x = u * t.x[i];
            if x < t.x[i + 1] {
                return x;
            }
            if i == 0 {
                // Base strip overshoot: the exponential tail beyond r is
                // itself exponential (memorylessness).
                return ZIG_EXP_R - self.nonzero_uniform().ln();
            }
            // Wedge: accept under the true pdf.
            if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * self.uniform() < (-x).exp() {
                return x;
            }
        }
    }

    /// Standard exponential draw via the legacy inverse transform
    /// (`-ln(1-U)`): one `ln` per draw. The differential oracle for
    /// [`Self::standard_exp`]; test builds only.
    #[cfg(test)]
    pub fn standard_exp_reference(&mut self) -> f64 {
        -self.nonzero_uniform().ln()
    }

    /// Exponential inter-arrival sample with the given rate (events/sec).
    ///
    /// # Panics
    /// Panics if `rate_per_sec` is not strictly positive and finite.
    pub fn exp_interval(&mut self, rate_per_sec: f64) -> SimDuration {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "invalid rate: {rate_per_sec}"
        );
        SimDuration::from_secs_f64(self.standard_exp() / rate_per_sec)
    }

    /// Exponential sample with the given mean.
    pub fn exp_mean(&mut self, mean: SimDuration) -> SimDuration {
        let m = mean.as_secs_f64();
        if m <= 0.0 {
            return SimDuration::ZERO;
        }
        self.exp_interval(1.0 / m)
    }

    /// Standard normal draw via the symmetric 256-layer ziggurat: ~99 %
    /// of draws cost one `u64`, two table loads, and one compare — no
    /// `ln`/`sqrt`/`cos`. Pinned statistically against the Box–Muller
    /// reference in this module's tests.
    pub fn standard_normal(&mut self) -> f64 {
        let t = zig_norm_table();
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            // 53-bit uniform mapped onto [-1, 1); sign comes for free.
            let u = 2.0 * ((bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) - 1.0;
            let x = u * t.x[i];
            if x.abs() < t.x[i + 1] {
                return x;
            }
            if i == 0 {
                // Base strip overshoot: Marsaglia's exact tail method for
                // the region beyond ±r.
                loop {
                    let x = self.nonzero_uniform().ln() / ZIG_NORM_R; // ≤ 0
                    let y = self.nonzero_uniform().ln(); // ≤ 0
                    if -2.0 * y >= x * x {
                        return if u < 0.0 {
                            x - ZIG_NORM_R
                        } else {
                            ZIG_NORM_R - x
                        };
                    }
                }
            }
            if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * self.uniform() < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// Standard normal draw via the legacy Box–Muller transform (the
    /// second variate is discarded so each call consumes exactly two
    /// uniforms). The differential oracle for [`Self::standard_normal`];
    /// test builds only.
    #[cfg(test)]
    pub fn standard_normal_reference(&mut self) -> f64 {
        let u1 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal duration around `median` with shape `sigma` (σ of the
    /// underlying normal). Models service-time jitter: strictly positive,
    /// right-skewed — the shape cloud latencies empirically follow.
    pub fn lognormal(&mut self, median: SimDuration, sigma: f64) -> SimDuration {
        let m = median.as_secs_f64();
        if m <= 0.0 {
            return SimDuration::ZERO;
        }
        if sigma <= 0.0 {
            return median;
        }
        let z = self.standard_normal();
        let key = median.as_micros();
        if self.ln_median.0 != key {
            self.ln_median = (key, m.ln());
        }
        SimDuration::from_secs_f64((self.ln_median.1 + sigma * z).exp())
    }

    /// Normal duration clamped at zero. For mild symmetric jitter.
    pub fn normal_clamped(&mut self, mean: SimDuration, std_dev: SimDuration) -> SimDuration {
        let s = std_dev.as_secs_f64();
        if s <= 0.0 {
            return mean;
        }
        let z = self.standard_normal();
        SimDuration::from_secs_f64((mean.as_secs_f64() + s * z).max(0.0))
    }

    /// Uniform duration in `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn uniform_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "uniform_duration: lo > hi");
        if lo == hi {
            return lo;
        }
        let span = hi.as_micros() - lo.as_micros() + 1;
        let offset = (((self.next_u64() as u128) * (span as u128)) >> 64) as u64;
        SimDuration::from_micros(lo.as_micros() + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Seed(42).rng();
        let mut b = Seed(42).rng();
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_labels_give_different_streams() {
        let s = Seed(42);
        let mut a = s.substream("clients").rng();
        let mut b = s.substream("coldstart").rng();
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 2, "streams should be unrelated");
    }

    #[test]
    fn substream_is_stable() {
        // Guards reproducibility across refactors: the derivation is part of
        // the observable contract.
        assert_eq!(Seed(1).substream("x"), Seed(1).substream("x"));
        assert_ne!(Seed(1).substream("x"), Seed(2).substream("x"));
        assert_ne!(
            Seed(1).substream_indexed("c", 0),
            Seed(1).substream_indexed("c", 1)
        );
    }

    #[test]
    fn exp_interval_mean_is_inverse_rate() {
        let mut rng = Seed(7).rng();
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| rng.exp_interval(4.0).as_secs_f64())
            .sum::<f64>();
        let mean = total / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean} should be ~0.25");
    }

    #[test]
    fn lognormal_median_is_roughly_median() {
        let mut rng = Seed(9).rng();
        let median = SimDuration::from_millis(100);
        let mut below = 0;
        let n = 10_000;
        for _ in 0..n {
            if rng.lognormal(median, 0.3) < median {
                below += 1;
            }
        }
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "median fraction {frac}");
    }

    /// `lognormal` keeps the last median's `ln`; its draws must equal the
    /// uncached formula's draw for draw, whichever way the medians
    /// alternate, on the `sigma <= 0` and zero-median paths too.
    #[test]
    fn lognormal_matches_the_uncached_formula() {
        fn uncached(rng: &mut SimRng, median: SimDuration, sigma: f64) -> SimDuration {
            let m = median.as_secs_f64();
            if m <= 0.0 {
                return SimDuration::ZERO;
            }
            if sigma <= 0.0 {
                return median;
            }
            let z = rng.standard_normal();
            SimDuration::from_secs_f64((m.ln() + sigma * z).exp())
        }
        // A serverless cold start draws around boot, import, download,
        // load and first-predict medians in turn, then warm predicts
        // around one median, scaled per inference count.
        let ms = SimDuration::from_millis;
        let medians = [
            ms(250),
            ms(4_100),
            SimDuration::from_micros(1_234_567),
            ms(900),
            ms(35),
            ms(35),
            ms(35),
            SimDuration::ZERO,
            ms(35),
            ms(70),
            SimDuration::from_micros(1),
        ];
        let sigmas = [0.2, 0.0, 0.35, -1.0, 1.5];
        let (mut cached, mut reference) = (Seed(31).rng(), Seed(31).rng());
        for i in 0..5_000 {
            let median = medians[i % medians.len()];
            let sigma = sigmas[i / 7 % sigmas.len()];
            assert_eq!(
                cached.lognormal(median, sigma),
                uncached(&mut reference, median, sigma),
                "draw {i}: median {median:?}, sigma {sigma}"
            );
        }
        assert_eq!(cached.next_u64(), reference.next_u64(), "streams in step");
    }

    #[test]
    fn degenerate_parameters_short_circuit() {
        let mut rng = Seed(3).rng();
        assert_eq!(rng.exp_mean(SimDuration::ZERO), SimDuration::ZERO);
        assert_eq!(
            rng.lognormal(SimDuration::from_secs(1), 0.0),
            SimDuration::from_secs(1)
        );
        assert_eq!(
            rng.normal_clamped(SimDuration::from_secs(1), SimDuration::ZERO),
            SimDuration::from_secs(1)
        );
        let d = SimDuration::from_secs(2);
        assert_eq!(rng.uniform_duration(d, d), d);
    }

    #[test]
    fn discard_skips_single_draws() {
        let mut skipped = Seed(21).rng();
        let mut drawn = Seed(21).rng();
        skipped.discard(5);
        for _ in 0..5 {
            drawn.uniform();
        }
        assert_eq!(skipped.uniform().to_bits(), drawn.uniform().to_bits());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Seed(5).rng();
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn index_covers_range() {
        let mut rng = Seed(11).rng();
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_duration_stays_in_bounds() {
        let mut rng = Seed(13).rng();
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(20);
        for _ in 0..1000 {
            let d = rng.uniform_duration(lo, hi);
            assert!(d >= lo && d <= hi);
        }
    }

    /// Two-sample Kolmogorov–Smirnov statistic: max gap between the
    /// empirical CDFs. Inputs are sorted in place.
    fn ks_statistic(a: &mut [f64], b: &mut [f64]) -> f64 {
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                i += 1;
            } else {
                j += 1;
            }
            let gap = (i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs();
            d = d.max(gap);
        }
        d
    }

    #[test]
    fn ziggurat_tables_are_well_formed() {
        for t in [super::zig_norm_table(), super::zig_exp_table()] {
            // Strictly decreasing edges down to zero, pdf values rising
            // to pdf(0) = 1: the invariants the accept tests rely on.
            for i in 0..super::ZIG_LAYERS {
                assert!(t.x[i] > t.x[i + 1], "x not decreasing at {i}");
                assert!(t.f[i] < t.f[i + 1] + 1e-12, "f not increasing at {i}");
            }
            assert_eq!(t.x[super::ZIG_LAYERS], 0.0);
            assert!((t.f[super::ZIG_LAYERS] - 1.0).abs() < 1e-12);
        }
        assert_eq!(super::zig_norm_table().x[1], super::ZIG_NORM_R);
        assert_eq!(super::zig_exp_table().x[1], super::ZIG_EXP_R);
    }

    #[test]
    fn ziggurat_normal_matches_reference_moments() {
        let mut rng = Seed(101).rng();
        let n = 200_000;
        let (mut sum, mut sum2, mut sum3) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let z = rng.standard_normal();
            sum += z;
            sum2 += z * z;
            sum3 += z * z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        let skew = sum3 / n as f64;
        // 3σ bounds for N draws of a standard normal: mean ±3/√n,
        // variance ±3·√(2/n), third moment ±3·√(15/n).
        assert!(mean.abs() < 3.0 / (n as f64).sqrt(), "mean {mean}");
        assert!(
            (var - 1.0).abs() < 3.0 * (2.0 / n as f64).sqrt(),
            "var {var}"
        );
        assert!(skew.abs() < 3.0 * (15.0 / n as f64).sqrt(), "skew {skew}");
    }

    #[test]
    fn ziggurat_exp_matches_reference_moments() {
        let mut rng = Seed(103).rng();
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let e = rng.standard_exp();
            assert!(e >= 0.0);
            sum += e;
            sum2 += e * e;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        // Exp(1): mean 1 (σ²=1), variance 1 (var of X² terms ⇒ wide σ).
        assert!((mean - 1.0).abs() < 3.0 / (n as f64).sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn ziggurat_normal_ks_close_to_reference() {
        // Differential pin: the fast path and the legacy oracle must draw
        // from the same distribution. Deterministic seeds make the KS
        // statistic reproducible; 0.02 is the α≈0.001 critical value at
        // this sample size.
        let n = 20_000;
        let mut a: Vec<f64> = {
            let mut r = Seed(201).rng();
            (0..n).map(|_| r.standard_normal()).collect()
        };
        let mut b: Vec<f64> = {
            let mut r = Seed(202).rng();
            (0..n).map(|_| r.standard_normal_reference()).collect()
        };
        let d = ks_statistic(&mut a, &mut b);
        assert!(d < 0.02, "normal KS statistic {d}");
    }

    #[test]
    fn ziggurat_exp_ks_close_to_reference() {
        let n = 20_000;
        let mut a: Vec<f64> = {
            let mut r = Seed(203).rng();
            (0..n).map(|_| r.standard_exp()).collect()
        };
        let mut b: Vec<f64> = {
            let mut r = Seed(204).rng();
            (0..n).map(|_| r.standard_exp_reference()).collect()
        };
        let d = ks_statistic(&mut a, &mut b);
        assert!(d < 0.02, "exp KS statistic {d}");
    }

    #[test]
    fn ziggurat_tail_region_is_reachable() {
        // The |z| > r tail fires with probability ~2.6e-4 per draw; a
        // large fixed-seed sweep must hit it (exercising the Marsaglia
        // tail branch) and never exceed plausible magnitudes.
        let mut rng = Seed(205).rng();
        let mut tail = 0u32;
        for _ in 0..500_000 {
            let z = rng.standard_normal();
            assert!(z.abs() < 7.0, "implausible normal draw {z}");
            if z.abs() > super::ZIG_NORM_R {
                tail += 1;
            }
        }
        assert!(tail > 20, "tail hits {tail}");
    }

    #[test]
    fn normal_is_roughly_symmetric() {
        let mut rng = Seed(17).rng();
        let mean = SimDuration::from_millis(500);
        let sd = SimDuration::from_millis(50);
        let n = 10_000;
        let above = (0..n)
            .filter(|_| rng.normal_clamped(mean, sd) > mean)
            .count();
        let frac = above as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "above-mean fraction {frac}");
    }
}
