//! Streaming statistics used by the analyzer: scalar accumulators, exact
//! percentile sets, time-bucketed series, and step-function gauges.

use crate::merge::KWayMerge;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Welford-style streaming accumulator: count, mean, variance, min, max.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds a duration observation in seconds.
    pub fn add_duration(&mut self, d: SimDuration) {
        self.add(d.as_secs_f64());
    }

    /// Folds `other` into `self` (parallel Welford merge).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance, or `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Population standard deviation, or `None` when empty.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Minimum observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }
}

/// Exact percentile computation over a retained sample set.
///
/// Retention is fine at benchmark scale (≤ ~10⁵ requests per run); the
/// analyzer needs exact tail latencies, not sketches. Percentiles are read
/// by selection, so a query reorders the retained samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SampleSet {
    samples: Vec<f64>,
}

impl SampleSet {
    /// An empty sample set.
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// An empty sample set with room for `n` observations.
    pub fn with_capacity(n: usize) -> Self {
        SampleSet {
            samples: Vec::with_capacity(n),
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Adds a duration observation in seconds.
    pub fn push_duration(&mut self, d: SimDuration) {
        self.push(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// The `q`-th percentile (0–100) by the nearest-rank definition: the
    /// smallest sample such that at least `q`% of the set is ≤ it. Always an
    /// observed value — never an interpolated one — so small sample counts
    /// report real latencies instead of fabricated midpoints. `None` when
    /// empty.
    ///
    /// The rank is found by selection (O(n), no scratch buffer), which
    /// leaves the samples partially reordered. The result equals the rank's
    /// entry in a sorted copy; samples that compare equal are
    /// interchangeable, except that `-0.0` and `0.0` may stand in for each
    /// other.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 100]`.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        self.percentiles([q]).map(|[x]| x)
    }

    /// The percentiles `qs`, each what [`SampleSet::percentile`] reads,
    /// from one cascade of selections: a selection leaves every sample
    /// above its rank behind it, so each later rank is selected inside
    /// that part alone.
    ///
    /// # Panics
    /// Panics if a `q` is outside `[0, 100]` or below the one before it.
    pub fn percentiles<const N: usize>(&mut self, qs: [f64; N]) -> Option<[f64; N]> {
        select_percentiles(&mut self.samples, qs)
    }

    /// Median (p50), or `None` when empty.
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Standard deviation (population), or `None` when empty.
    pub fn std_dev(&self) -> Option<f64> {
        self.mean_std_dev().map(|(_, sd)| sd)
    }

    /// [`SampleSet::mean`] and [`SampleSet::std_dev`] with one pass for
    /// the mean, or `None` when empty.
    pub fn mean_std_dev(&self) -> Option<(f64, f64)> {
        let mean = self.mean()?;
        let var = self
            .samples
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / self.samples.len() as f64;
        Some((mean, var.sqrt()))
    }

    /// Immutable view of the raw samples: insertion order until the first
    /// percentile query, an unspecified order after it.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// The index of the `q`-th percentile (0–100) in a sorted set of `n > 0`
/// samples, by the nearest-rank definition: the smallest sample such that
/// at least `q`% of the set is ≤ it.
///
/// # Panics
/// Panics if `q` is outside `[0, 100]`.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    assert!((0.0..=100.0).contains(&q), "percentile out of range: {q}");
    if q == 0.0 {
        0
    } else {
        ((q / 100.0 * n as f64).ceil() as usize).max(1) - 1
    }
    .min(n - 1)
}

/// The nearest-rank percentiles `qs` of `samples` (see [`nearest_rank`]),
/// each the rank's entry in a sorted copy, from one cascade of selections:
/// a selection leaves every sample above its rank behind it, so each later
/// rank is selected inside that part alone. Leaves `samples` partially
/// reordered; `None` when empty.
///
/// # Panics
/// Panics if a `q` is outside `[0, 100]` or below the one before it, or if
/// two samples do not compare (a NaN).
pub fn select_percentiles<T: Copy + PartialOrd, const N: usize>(
    samples: &mut [T],
    qs: [f64; N],
) -> Option<[T; N]> {
    let n = samples.len();
    let mut out = [*samples.first()?; N];
    // The last rank selected and its sample.
    let mut last: Option<(usize, T)> = None;
    for (x, q) in out.iter_mut().zip(qs) {
        let idx = nearest_rank(q, n);
        *x = match last {
            Some((at, x)) if at == idx => x,
            _ => {
                let from = last.map_or(0, |(at, _)| at + 1);
                assert!(idx >= from, "percentiles must ascend: {q}");
                let (_, x, _) = samples[from..].select_nth_unstable_by(idx - from, |a, b| {
                    a.partial_cmp(b).expect("NaN sample")
                });
                *x
            }
        };
        last = Some((idx, *x));
    }
    Some(out)
}

/// A fixed-bin linear histogram over `[lo, hi)` with under/overflow bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// A histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "empty histogram range");
        assert!(bins > 0, "zero histogram bins");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let last = self.bins.len() - 1;
            self.bins[idx.min(last)] += 1;
        }
    }

    /// Total observations, including under/overflow.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range's end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// `(bin_start, bin_end, count)` triples.
    pub fn bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins.iter().enumerate().map(move |(i, &c)| {
            (
                self.lo + width * i as f64,
                self.lo + width * (i + 1) as f64,
                c,
            )
        })
    }

    /// Fraction of in-range observations at or below `x` (empirical CDF
    /// evaluated at bin granularity; under/overflow included in the
    /// denominator).
    pub fn cdf(&self, x: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let mut acc = self.underflow;
        for (start, end, c) in self.bins() {
            let _ = start;
            if end <= x {
                acc += c;
            }
        }
        if x >= self.hi {
            acc += self.overflow;
        }
        acc as f64 / total as f64
    }
}

/// Per-bucket statistics of a value observed over simulated time — e.g.
/// "average latency of requests arriving in each 10 s window", the series
/// plotted by the paper's timeline figures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    bucket: SimDuration,
    buckets: Vec<Accumulator>,
    /// The bucket added to last and its span `[start, end)` in µs:
    /// observations in time order mostly land in it, found without a
    /// division.
    #[serde(skip)]
    last: (usize, u64, u64),
}

impl TimeSeries {
    /// A series with the given bucket width.
    ///
    /// # Panics
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "zero bucket width");
        TimeSeries {
            bucket,
            buckets: Vec::new(),
            last: (0, 0, 0),
        }
    }

    /// Records observation `value` at instant `at`.
    pub fn add(&mut self, at: SimTime, value: f64) {
        let t = at.as_micros();
        let (mut idx, start, end) = self.last;
        if !(start..end).contains(&t) {
            let width = self.bucket.as_micros();
            idx = (t / width) as usize;
            let start = idx as u64 * width;
            self.last = (idx, start, start.saturating_add(width));
            if idx >= self.buckets.len() {
                self.buckets.resize_with(idx + 1, Accumulator::new);
            }
        }
        self.buckets[idx].add(value);
    }

    /// Bucket width.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket
    }

    /// Iterates `(bucket_start, stats)` for every bucket, including empty
    /// interior ones.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &Accumulator)> + '_ {
        self.buckets.iter().enumerate().map(move |(i, acc)| {
            (
                SimTime::from_micros(i as u64 * self.bucket.as_micros()),
                acc,
            )
        })
    }

    /// Number of buckets (span of observations / bucket width, rounded up).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// A step-function gauge sampled over time — e.g. the number of running
/// instances. Records every change and can report per-bucket maxima,
/// matching how the paper plots instance counts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GaugeSeries {
    /// `(instant, new_value)` change points, in nondecreasing time order.
    points: Vec<(SimTime, i64)>,
    current: i64,
    peak: i64,
}

impl GaugeSeries {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        GaugeSeries::default()
    }

    /// Current value.
    pub fn current(&self) -> i64 {
        self.current
    }

    /// All-time maximum value.
    pub fn peak(&self) -> i64 {
        self.peak
    }

    /// Applies a delta at instant `at`.
    ///
    /// # Panics
    /// Panics if `at` precedes the previous change (gauges are recorded in
    /// simulation order).
    pub fn record_delta(&mut self, at: SimTime, delta: i64) {
        self.record(at, self.current + delta);
    }

    /// Sets the value at instant `at`.
    pub fn record(&mut self, at: SimTime, value: i64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(at >= last, "gauge recorded out of order");
        }
        self.current = value;
        self.peak = self.peak.max(value);
        self.points.push((at, value));
    }

    /// Sums several gauges into one step function: the result's value at
    /// any instant is the sum of the parts' values at that instant.
    ///
    /// Change points are replayed as deltas, merged by `(time, part index)`
    /// through a [`KWayMerge`] — a canonical order that depends only on the
    /// parts themselves, never on how they were produced. This is what lets
    /// sharded runs merge per-shard instance gauges into a fleet gauge
    /// byte-identically for any worker count.
    pub fn merge_summed<'a, I>(parts: I) -> GaugeSeries
    where
        I: IntoIterator<Item = &'a GaugeSeries>,
    {
        let parts: Vec<&GaugeSeries> = parts.into_iter().collect();
        let mut cursor = vec![0usize; parts.len()];
        let mut prev = vec![0i64; parts.len()];
        let total: usize = parts.iter().map(|p| p.points.len()).sum();
        let mut out = GaugeSeries::new();
        out.points.reserve(total);
        let mut sum = 0i64;
        let mut frontier = KWayMerge::new(parts.iter().map(|p| p.points.first().map(|&(t, _)| t)));
        while let Some((t, i)) = frontier.next_with(|i| {
            let i = i as usize;
            cursor[i] += 1;
            parts[i].points.get(cursor[i]).map(|&(t, _)| t)
        }) {
            let i = i as usize;
            let (_, v) = parts[i].points[cursor[i] - 1];
            sum += v - prev[i];
            prev[i] = v;
            out.record(t, sum);
        }
        out
    }

    /// Value at instant `at` (the most recent change at or before `at`, or
    /// zero before the first change).
    pub fn value_at(&self, at: SimTime) -> i64 {
        match self.points.binary_search_by(|&(t, _)| t.cmp(&at)) {
            Ok(mut i) => {
                // Several changes can share a timestamp; take the last.
                while i + 1 < self.points.len() && self.points[i + 1].0 == at {
                    i += 1;
                }
                self.points[i].1
            }
            Err(0) => 0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Maximum value attained in `[start, start + width)`.
    pub fn bucket_max(&self, start: SimTime, width: SimDuration) -> i64 {
        let end = start + width;
        let mut max = self.value_at(start);
        for &(t, v) in &self.points {
            if t >= start && t < end {
                max = max.max(v);
            }
        }
        max
    }

    /// Per-bucket maxima from time zero through the last change: entry `i`
    /// is [`GaugeSeries::bucket_max`] of `[i·width, (i+1)·width)`, computed
    /// in one pass over the change points.
    pub fn bucket_maxima(&self, width: SimDuration) -> Vec<(SimTime, i64)> {
        let Some(&(last, _)) = self.points.last() else {
            return Vec::new();
        };
        let n = last.as_micros() / width.as_micros() + 1;
        let mut out = Vec::with_capacity(n as usize);
        // The value carried into the bucket: the last change before it.
        let mut value = 0;
        let mut rest = self.points.as_slice();
        for i in 0..n {
            let start = SimTime::from_micros(i * width.as_micros());
            let end = start + width;
            // Changes at `start` itself replace the carried value; each of
            // them counts toward the maximum, the last one carries over.
            let mut max = match rest.first() {
                Some(&(t, _)) if t == start => i64::MIN,
                _ => value,
            };
            while let Some((&(t, v), tail)) = rest.split_first() {
                if t >= end {
                    break;
                }
                max = max.max(v);
                value = v;
                rest = tail;
            }
            out.push((start, max));
        }
        out
    }

    /// Time-weighted average value over `[SimTime::ZERO, end]`.
    pub fn time_weighted_mean(&self, end: SimTime) -> f64 {
        if end == SimTime::ZERO {
            return 0.0;
        }
        let mut area = 0.0;
        let mut prev_t = SimTime::ZERO;
        let mut prev_v = 0i64;
        for &(t, v) in &self.points {
            if t > end {
                break;
            }
            area += prev_v as f64 * t.duration_since(prev_t).as_secs_f64();
            prev_t = t;
            prev_v = v;
        }
        area += prev_v as f64 * end.saturating_duration_since(prev_t).as_secs_f64();
        area / end.as_secs_f64()
    }

    /// The raw change points.
    pub fn points(&self) -> &[(SimTime, i64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn accumulator_matches_hand_computed() {
        let mut a = Accumulator::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.add(x);
        }
        assert_eq!(a.count(), 8);
        assert!((a.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((a.std_dev().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(a.min().unwrap(), 2.0);
        assert_eq!(a.max().unwrap(), 9.0);
        assert!((a.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn accumulator_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Accumulator::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &xs[..37] {
            left.add(x);
        }
        for &x in &xs[37..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn accumulator_merge_with_empty() {
        let mut a = Accumulator::new();
        a.add(1.0);
        let b = Accumulator::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Accumulator::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), Some(1.0));
    }

    #[test]
    fn empty_accumulator_returns_none() {
        let a = Accumulator::new();
        assert!(a.mean().is_none());
        assert!(a.std_dev().is_none());
        assert!(a.min().is_none());
        assert!(a.max().is_none());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = SampleSet::new();
        for x in [15.0, 20.0, 35.0, 40.0, 50.0] {
            s.push(x);
        }
        assert_eq!(s.percentile(0.0), Some(15.0));
        assert_eq!(s.percentile(100.0), Some(50.0));
        // p50 of 5 samples: ceil(0.5·5) = rank 3 → 35.
        assert_eq!(s.median(), Some(35.0));
        // p25: ceil(0.25·5) = rank 2 → 20.
        assert_eq!(s.percentile(25.0), Some(20.0));
        // p10: ceil(0.1·5) = rank 1 → the smallest sample, never an
        // interpolated value below every observation.
        assert_eq!(s.percentile(10.0), Some(15.0));
        assert_eq!(s.percentile(95.0), Some(50.0));
    }

    #[test]
    fn small_sample_percentiles_return_observed_values() {
        // Nearest-rank must hand back actual observations at small n — the
        // regime where interpolation fabricates values nobody measured.
        let mut s = SampleSet::new();
        for x in 1..=10 {
            s.push(x as f64);
        }
        assert_eq!(s.percentile(90.0), Some(9.0));
        assert_eq!(s.percentile(91.0), Some(10.0));
        assert_eq!(s.percentile(99.0), Some(10.0));
        assert_eq!(s.percentile(50.0), Some(5.0));

        let mut quad = SampleSet::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            quad.push(x);
        }
        assert_eq!(quad.percentile(50.0), Some(2.0));
        assert_eq!(quad.percentile(75.0), Some(3.0));
        assert_eq!(quad.percentile(76.0), Some(4.0));

        let mut single = SampleSet::new();
        single.push(42.0);
        for q in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(single.percentile(q), Some(42.0));
        }
    }

    #[test]
    fn percentile_cascade_matches_a_sorted_reference() {
        let qs = [0.0, 10.0, 50.0, 95.0, 99.0, 99.5, 100.0];
        for n in [1, 2, 3, 7, 100, 1001] {
            for distinct in [1, 3, 1000] {
                let mut rng = crate::Seed(n as u64 * 31 + distinct).rng();
                let mut s = SampleSet::new();
                for _ in 0..n {
                    s.push(rng.index(distinct as usize) as f64 * 0.25);
                }
                let mut sorted = s.samples().to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let want = qs.map(|q| {
                    let rank = (q / 100.0 * n as f64).ceil() as usize;
                    sorted[rank.clamp(1, n) - 1]
                });
                assert_eq!(s.percentiles(qs), Some(want), "n={n} distinct={distinct}");
            }
        }
        assert_eq!(SampleSet::new().percentiles([50.0, 99.0]), None);
    }

    #[test]
    fn sampleset_mean_std() {
        let mut s = SampleSet::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.mean(), Some(2.5));
        assert!((s.std_dev().unwrap() - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn empty_sampleset() {
        let mut s = SampleSet::new();
        assert!(s.is_empty());
        assert!(s.mean().is_none());
        assert!(s.percentile(50.0).is_none());
    }

    #[test]
    fn timeseries_buckets_observations() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(10));
        ts.add(secs(1.0), 5.0);
        ts.add(secs(9.9), 15.0);
        ts.add(secs(25.0), 100.0);
        assert_eq!(ts.len(), 3);
        let v: Vec<_> = ts.iter().collect();
        assert_eq!(v[0].1.mean(), Some(10.0));
        assert!(v[1].1.is_empty());
        assert_eq!(v[2].1.mean(), Some(100.0));
        assert_eq!(v[2].0, secs(20.0));
    }

    #[test]
    fn timeseries_buckets_match_division_in_any_order() {
        let width = SimDuration::from_secs(10);
        let mut rng = crate::Seed(11).rng();
        let mut ats: Vec<u64> = (0..2000)
            .map(|i| i * 77_777 + rng.index(50_000) as u64)
            .collect();
        for shuffled in [false, true] {
            if shuffled {
                for i in (1..ats.len()).rev() {
                    ats.swap(i, rng.index(i + 1));
                }
            }
            let mut ts = TimeSeries::new(width);
            let mut reference: Vec<Accumulator> = Vec::new();
            for (i, &at) in ats.iter().enumerate() {
                ts.add(SimTime::from_micros(at), i as f64);
                let idx = (at / width.as_micros()) as usize;
                if idx >= reference.len() {
                    reference.resize_with(idx + 1, Accumulator::new);
                }
                reference[idx].add(i as f64);
            }
            assert_eq!(ts.len(), reference.len());
            for ((_, got), want) in ts.iter().zip(&reference) {
                assert_eq!(got.count(), want.count(), "shuffled={shuffled}");
                assert_eq!(got.mean().map(f64::to_bits), want.mean().map(f64::to_bits));
            }
        }
    }

    #[test]
    fn histogram_counts_and_bounds() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.0, 1.9, 2.0, 9.99, 10.0, 42.0] {
            h.add(x);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        let bins: Vec<u64> = h.bins().map(|(_, _, c)| c).collect();
        assert_eq!(bins, vec![2, 1, 0, 0, 1]);
    }

    #[test]
    fn histogram_cdf_monotone() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.add(i as f64);
        }
        let cdf_50 = h.cdf(50.0);
        let cdf_90 = h.cdf(90.0);
        assert!((cdf_50 - 0.5).abs() < 0.05);
        assert!(cdf_50 < cdf_90);
        assert!((h.cdf(100.0) - 1.0).abs() < 1e-12);
        assert_eq!(h.cdf(-5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty histogram range")]
    fn histogram_bad_range_panics() {
        Histogram::new(5.0, 5.0, 3);
    }

    #[test]
    fn gauge_value_at_and_peak() {
        let mut g = GaugeSeries::new();
        g.record_delta(secs(1.0), 2);
        g.record_delta(secs(2.0), 3);
        g.record_delta(secs(5.0), -4);
        assert_eq!(g.current(), 1);
        assert_eq!(g.peak(), 5);
        assert_eq!(g.value_at(SimTime::ZERO), 0);
        assert_eq!(g.value_at(secs(1.5)), 2);
        assert_eq!(g.value_at(secs(2.0)), 5);
        assert_eq!(g.value_at(secs(10.0)), 1);
    }

    #[test]
    fn gauge_same_instant_changes_take_last() {
        let mut g = GaugeSeries::new();
        g.record(secs(1.0), 1);
        g.record(secs(1.0), 7);
        assert_eq!(g.value_at(secs(1.0)), 7);
    }

    #[test]
    fn gauge_bucket_maxima() {
        let mut g = GaugeSeries::new();
        g.record(secs(1.0), 4);
        g.record(secs(3.0), 2);
        g.record(secs(12.0), 9);
        let m = g.bucket_maxima(SimDuration::from_secs(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].1, 4);
        assert_eq!(m[1].1, 9);
    }

    #[test]
    fn gauge_time_weighted_mean() {
        let mut g = GaugeSeries::new();
        g.record(secs(0.0), 2);
        g.record(secs(5.0), 4);
        // 2 for 5s, 4 for 5s → mean 3 over [0, 10]
        assert!((g.time_weighted_mean(secs(10.0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn gauge_rejects_time_travel() {
        let mut g = GaugeSeries::new();
        g.record(secs(2.0), 1);
        g.record(secs(1.0), 2);
    }

    #[test]
    fn gauge_merge_summed_is_pointwise_sum() {
        let mut a = GaugeSeries::new();
        a.record_delta(secs(1.0), 2);
        a.record_delta(secs(4.0), -1);
        let mut b = GaugeSeries::new();
        b.record_delta(secs(2.0), 5);
        b.record_delta(secs(4.0), -5);
        let m = GaugeSeries::merge_summed([&a, &b]);
        for t in [0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0] {
            assert_eq!(
                m.value_at(secs(t)),
                a.value_at(secs(t)) + b.value_at(secs(t)),
                "t = {t}"
            );
        }
        assert_eq!(m.peak(), 7);
        assert_eq!(m.current(), 1);
        // Canonical: merging in the same part order is reproducible, and an
        // empty merge is the zero gauge.
        assert_eq!(m.points(), GaugeSeries::merge_summed([&a, &b]).points());
        assert!(GaugeSeries::merge_summed([]).points().is_empty());
    }

    /// The reference sum: every part's change points tagged with their
    /// part, stably sorted by `(instant, part)`, replayed as deltas.
    fn sorted_sum(parts: &[GaugeSeries]) -> Vec<(SimTime, i64)> {
        let mut changes: Vec<(SimTime, usize, i64)> = Vec::new();
        for (i, p) in parts.iter().enumerate() {
            let mut prev = 0;
            for &(t, v) in p.points() {
                changes.push((t, i, v - prev));
                prev = v;
            }
        }
        changes.sort_by_key(|&(t, i, _)| (t, i));
        let mut sum = 0;
        changes
            .into_iter()
            .map(|(t, _, delta)| {
                sum += delta;
                (t, sum)
            })
            .collect()
    }

    #[test]
    fn gauge_merge_matches_a_sort_based_reference() {
        // Across part counts on both sides of 8, with same-instant changes
        // across parts and within one part, and parts that end early or
        // hold nothing.
        for k in [1i64, 2, 7, 8, 9, 20, 64] {
            let parts: Vec<GaugeSeries> = (0..k)
                .map(|i| {
                    let mut g = GaugeSeries::new();
                    for j in 0..(i * 5) % 9 {
                        let t = secs((j + (i + j) % 2) as f64);
                        g.record_delta(t, (i + j) % 5 - 2);
                        if j % 3 == 0 {
                            g.record_delta(t, i + 1);
                        }
                    }
                    g
                })
                .collect();
            let merged = GaugeSeries::merge_summed(parts.iter());
            assert_eq!(merged.points(), &sorted_sum(&parts)[..], "k = {k}");
            for t in [0.0, 1.0, 2.5, 4.0, 5.0, 6.0, 7.0, 15.0] {
                let want: i64 = parts.iter().map(|p| p.value_at(secs(t))).sum();
                assert_eq!(merged.value_at(secs(t)), want, "k = {k}, t = {t}");
            }
        }
    }

    #[test]
    fn bucket_maxima_match_bucket_max() {
        let width = SimDuration::from_secs(10);
        let mut g = GaugeSeries::new();
        // Several changes at one bucket's start (t = 10): all count toward
        // that bucket's maximum and only the last carries over.
        for (t, v) in [
            (0.0, 3),
            (0.0, 1),
            (4.0, 6),
            (9.0, 8),
            (10.0, 12),
            (10.0, 2),
            (10.0, 5),
            (15.0, 4),
            // Empty buckets between: the carried value is their maximum.
            (47.0, 1),
            (50.0, 0),
            (59.999, 9),
            (60.0, 7),
        ] {
            g.record(secs(t), v);
        }
        let maxima = g.bucket_maxima(width);
        assert_eq!(maxima.len(), 7);
        for &(start, max) in &maxima {
            assert_eq!(max, g.bucket_max(start, width), "bucket at {start:?}");
        }
        let values: Vec<i64> = maxima.iter().map(|&(_, m)| m).collect();
        assert_eq!(values, vec![8, 12, 4, 4, 4, 9, 7]);
        // Same-instant pile-ups on every start, at a width that does not
        // divide the change times.
        let mut dense = GaugeSeries::new();
        for i in 0..200u64 {
            let t = SimTime::from_micros(i / 3 * 250_000);
            dense.record(t, ((i * 37) % 11) as i64 - 3);
        }
        for width in [SimDuration::from_micros(250_000), SimDuration::from_secs(1)] {
            for (start, max) in dense.bucket_maxima(width) {
                assert_eq!(
                    max,
                    dense.bucket_max(start, width),
                    "{width:?} at {start:?}"
                );
            }
        }
        assert!(GaugeSeries::new().bucket_maxima(width).is_empty());
    }
}
