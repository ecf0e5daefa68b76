//! Materialized workload traces: sorted arrival instants plus metadata.

use serde::{Deserialize, Serialize};
use slsb_sim::{SimDuration, SimTime};
use std::fmt;
use std::sync::Arc;

/// The most requests one trace may be expected to hold: the executor
/// numbers a run's requests and invocations with `u32`.
pub const MAX_TRACE_REQUESTS: u64 = u32::MAX as u64;

/// Generators pre-size a trace's arrivals for at most this many requests;
/// a larger trace grows as it is generated, so a huge expected count
/// costs no allocation up front.
pub(crate) const MAX_RESERVED_ARRIVALS: usize = 1 << 22;

/// The arrival capacity to reserve for about `expected` requests.
pub(crate) fn reserve_for(expected: f64) -> usize {
    ((expected * 1.2).max(16.0) as usize).min(MAX_RESERVED_ARRIVALS)
}

/// A workload that expects more requests than one run can index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TooManyRequests {
    /// The workload's expected request count.
    pub expected: f64,
}

impl TooManyRequests {
    /// Checks an expected request count against [`MAX_TRACE_REQUESTS`].
    ///
    /// # Errors
    /// When the count is larger, or not a number.
    pub fn check(expected: f64) -> Result<(), TooManyRequests> {
        if expected <= MAX_TRACE_REQUESTS as f64 {
            Ok(())
        } else {
            Err(TooManyRequests { expected })
        }
    }
}

impl fmt::Display for TooManyRequests {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expects {:.3e} requests, more than the {MAX_TRACE_REQUESTS} one run can index",
            self.expected
        )
    }
}

impl std::error::Error for TooManyRequests {}

/// A fully materialized workload: every request's arrival instant, sorted.
///
/// The name is interned (`Arc<str>`): results and analyses that label
/// themselves with the workload share the trace's one allocation instead
/// of cloning the string per run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadTrace {
    name: Arc<str>,
    duration: SimDuration,
    arrivals: Vec<SimTime>,
}

impl WorkloadTrace {
    /// Wraps a list of arrivals. Arrivals are sorted; those beyond
    /// `duration` are rejected.
    ///
    /// # Panics
    /// Panics if any arrival exceeds `duration`. Internal generators uphold
    /// that invariant by construction; ingest paths that handle untrusted
    /// files use [`WorkloadTrace::try_new`] instead.
    pub fn new(name: impl Into<Arc<str>>, duration: SimDuration, arrivals: Vec<SimTime>) -> Self {
        Self::try_new(name, duration, arrivals).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`WorkloadTrace::new`]: out-of-duration arrivals come back
    /// as a diagnostic instead of a panic, so malformed production traces
    /// fail cleanly at the ingest boundary.
    ///
    /// # Errors
    /// [`TraceParseError::ArrivalBeyondDuration`] when any arrival exceeds
    /// `duration`.
    pub fn try_new(
        name: impl Into<Arc<str>>,
        duration: SimDuration,
        mut arrivals: Vec<SimTime>,
    ) -> Result<Self, TraceParseError> {
        arrivals.sort_unstable();
        if let Some(&last) = arrivals.last() {
            if last.as_micros() > duration.as_micros() {
                return Err(TraceParseError::ArrivalBeyondDuration {
                    arrival: last,
                    duration,
                });
            }
        }
        Ok(WorkloadTrace {
            name: name.into(),
            duration,
            arrivals,
        })
    }

    /// Human-readable workload name (e.g. `"workload-120"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned name: a shared handle, cloning which never copies the
    /// string. Run results label themselves with this.
    pub fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// Nominal workload duration (the paper uses ~15 minutes).
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Sorted arrival instants.
    pub fn arrivals(&self) -> &[SimTime] {
        &self.arrivals
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Mean arrival rate over the nominal duration, in requests/second.
    pub fn mean_rate(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.arrivals.len() as f64 / self.duration.as_secs_f64()
    }

    /// Requests per bucket — the series plotted in the paper's Figure 4.
    pub fn rate_series(&self, bucket: SimDuration) -> Vec<(SimTime, u64)> {
        assert!(!bucket.is_zero(), "zero bucket width");
        let n = self
            .duration
            .as_micros()
            .div_ceil(bucket.as_micros())
            .max(1);
        let mut counts = vec![0u64; n as usize];
        for &a in &self.arrivals {
            let idx = ((a.as_micros() / bucket.as_micros()) as usize).min(counts.len() - 1);
            counts[idx] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (SimTime::from_micros(i as u64 * bucket.as_micros()), c))
            .collect()
    }

    /// Peak bucket arrival rate in requests/second.
    pub fn peak_rate(&self, bucket: SimDuration) -> f64 {
        self.rate_series(bucket)
            .iter()
            .map(|&(_, c)| c as f64 / bucket.as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// Burstiness statistics of the trace: the coefficient of variation of
    /// inter-arrival gaps (1.0 for Poisson, > 1 for burstier processes)
    /// and the peak-to-mean rate ratio over `bucket`-wide windows.
    ///
    /// Returns `None` for traces with fewer than two arrivals.
    pub fn burstiness(&self, bucket: SimDuration) -> Option<Burstiness> {
        if self.arrivals.len() < 2 {
            return None;
        }
        let gaps: Vec<f64> = self
            .arrivals
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        if mean <= 0.0 {
            return None;
        }
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        Some(Burstiness {
            interarrival_cv: var.sqrt() / mean,
            peak_to_mean: self.peak_rate(bucket) / self.mean_rate(),
        })
    }

    /// Serializes to a two-line-header CSV (`name,duration_us` then one
    /// arrival per line in microseconds).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.arrivals.len() * 8 + 64);
        out.push_str(&format!(
            "# name={},duration_us={}\narrival_us\n",
            self.name,
            self.duration.as_micros()
        ));
        for a in &self.arrivals {
            out.push_str(&format!("{}\n", a.as_micros()));
        }
        out
    }

    /// Parses the format produced by [`WorkloadTrace::to_csv`].
    pub fn from_csv(text: &str) -> Result<Self, TraceParseError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or(TraceParseError::MissingHeader)?;
        let header = header
            .strip_prefix("# ")
            .ok_or(TraceParseError::MissingHeader)?;
        let mut name = None;
        let mut duration = None;
        for kv in header.split(',') {
            match kv.split_once('=') {
                Some(("name", v)) => name = Some(v.to_string()),
                Some(("duration_us", v)) => {
                    duration = Some(
                        v.parse::<u64>()
                            .map_err(|_| TraceParseError::BadField(v.to_string()))?,
                    )
                }
                _ => return Err(TraceParseError::BadField(kv.to_string())),
            }
        }
        let name = name.ok_or(TraceParseError::MissingHeader)?;
        let duration = SimDuration::from_micros(duration.ok_or(TraceParseError::MissingHeader)?);
        let mut arrivals = Vec::new();
        for line in lines {
            if line == "arrival_us" || line.is_empty() {
                continue;
            }
            arrivals.push(SimTime::from_micros(
                line.parse::<u64>()
                    .map_err(|_| TraceParseError::BadField(line.to_string()))?,
            ));
        }
        WorkloadTrace::try_new(name, duration, arrivals)
    }
}

/// How bursty a trace is (see [`WorkloadTrace::burstiness`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Burstiness {
    /// Coefficient of variation of inter-arrival gaps; 1.0 for a Poisson
    /// process, larger for burstier traffic.
    pub interarrival_cv: f64,
    /// Peak windowed rate divided by the mean rate.
    pub peak_to_mean: f64,
}

/// Errors parsing a CSV trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// No `# name=…,duration_us=…` header line.
    MissingHeader,
    /// A field or arrival line failed to parse.
    BadField(String),
    /// An arrival instant lies past the declared trace duration.
    ArrivalBeyondDuration {
        /// The offending (latest) arrival.
        arrival: SimTime,
        /// The declared trace duration.
        duration: SimDuration,
    },
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::MissingHeader => write!(f, "missing trace header"),
            TraceParseError::BadField(s) => write!(f, "unparseable trace field: {s:?}"),
            TraceParseError::ArrivalBeyondDuration { arrival, duration } => {
                write!(f, "arrival {arrival} beyond workload duration {duration}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn sample_trace() -> WorkloadTrace {
        WorkloadTrace::new(
            "test",
            SimDuration::from_secs(30),
            vec![t(5.0), t(1.0), t(25.0), t(9.0)],
        )
    }

    #[test]
    fn arrivals_are_sorted() {
        let tr = sample_trace();
        assert_eq!(tr.arrivals(), &[t(1.0), t(5.0), t(9.0), t(25.0)]);
        assert_eq!(tr.len(), 4);
    }

    #[test]
    #[should_panic(expected = "beyond workload duration")]
    fn rejects_out_of_range_arrival() {
        WorkloadTrace::new("bad", SimDuration::from_secs(10), vec![t(11.0)]);
    }

    #[test]
    fn mean_rate() {
        let tr = sample_trace();
        assert!((tr.mean_rate() - 4.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn rate_series_counts_per_bucket() {
        let tr = sample_trace();
        let series = tr.rate_series(SimDuration::from_secs(10));
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].1, 3);
        assert_eq!(series[1].1, 0);
        assert_eq!(series[2].1, 1);
    }

    #[test]
    fn peak_rate() {
        let tr = sample_trace();
        assert!((tr.peak_rate(SimDuration::from_secs(10)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn burstiness_of_tiny_trace_is_none() {
        let one = WorkloadTrace::new("one", SimDuration::from_secs(10), vec![t(1.0)]);
        assert!(one.burstiness(SimDuration::from_secs(1)).is_none());
    }

    #[test]
    fn csv_roundtrip() {
        let tr = sample_trace();
        let csv = tr.to_csv();
        let parsed = WorkloadTrace::from_csv(&csv).unwrap();
        assert_eq!(parsed, tr);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert_eq!(
            WorkloadTrace::from_csv(""),
            Err(TraceParseError::MissingHeader)
        );
        assert!(matches!(
            WorkloadTrace::from_csv("# name=a,duration_us=xyz\n"),
            Err(TraceParseError::BadField(_))
        ));
    }

    #[test]
    fn try_new_reports_out_of_range_arrival() {
        let err =
            WorkloadTrace::try_new("bad", SimDuration::from_secs(10), vec![t(11.0)]).unwrap_err();
        assert_eq!(
            err,
            TraceParseError::ArrivalBeyondDuration {
                arrival: t(11.0),
                duration: SimDuration::from_secs(10),
            }
        );
        assert!(err.to_string().contains("beyond workload duration"));
    }

    #[test]
    fn csv_with_out_of_range_arrival_is_an_error_not_a_panic() {
        let csv = "# name=bad,duration_us=1000\narrival_us\n2000\n";
        assert!(matches!(
            WorkloadTrace::from_csv(csv),
            Err(TraceParseError::ArrivalBeyondDuration { .. })
        ));
    }

    #[test]
    fn csv_truncated_mid_line_is_an_error() {
        // A download cut off mid-number: the partial final line must not
        // silently parse as a shorter trace.
        let csv = "# name=cut,duration_us=10000000\narrival_us\n1000\n20.";
        assert!(matches!(
            WorkloadTrace::from_csv(csv),
            Err(TraceParseError::BadField(_))
        ));
    }

    #[test]
    fn csv_header_only_is_an_empty_trace() {
        let tr = WorkloadTrace::from_csv("# name=none,duration_us=5000000\narrival_us\n").unwrap();
        assert!(tr.is_empty());
        assert_eq!(tr.name(), "none");
    }

    #[test]
    fn empty_trace_is_fine() {
        let tr = WorkloadTrace::new("empty", SimDuration::from_secs(10), vec![]);
        assert!(tr.is_empty());
        assert_eq!(tr.mean_rate(), 0.0);
        assert_eq!(tr.rate_series(SimDuration::from_secs(5)).len(), 2);
    }
}
