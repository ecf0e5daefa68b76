//! The compact settle target of a replay: what the analyzer reads of each
//! request and nothing else.
//!
//! A replay settles each request's fate into a table. [`RunResult`]'s
//! records (72 B per request) keep everything a request went through, for
//! callers that read records: the oracle, `run_metrics`, traces and SLO
//! samples. A caller that only wants an [`Analysis`], a platform bill or an
//! SLO attainment settles into an [`OutcomeTable`] instead, at 17 B per
//! request: an outcome byte with a cold bit, the latency and the predict
//! time. Cold-start breakdowns stay in the run's side table either way, and
//! the in-flight state both kinds of run need lives with the executor's
//! lanes, so the two runs share one event loop and differ only in the
//! table they fill.
//!
//! [`RunResult`]: crate::executor::RunResult
//! [`Analysis`]: crate::analyzer::Analysis

use crate::analyzer::FAILURE_REASONS;
use crate::plan::Deployment;
use slsb_platform::{ColdStartBreakdown, FailureReason, Outcome, PlatformReport};
use slsb_sim::{SimDuration, SimTime};
use slsb_workload::WorkloadTrace;

/// What the analyzer reads of one settled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fate {
    /// Final outcome after the client timeout.
    pub outcome: Outcome,
    /// Whether a cold start was on the request's path.
    pub cold: bool,
    /// End-to-end latency (successes only).
    pub latency: Option<SimDuration>,
    /// Server-side predict time of the carrying invocation.
    pub predict: SimDuration,
}

impl Fate {
    /// A request the client has not heard back about: a client timeout.
    pub(crate) const UNRESOLVED: Fate = Fate {
        outcome: Outcome::Failure(FailureReason::ClientTimeout),
        cold: false,
        latency: None,
        predict: SimDuration::ZERO,
    };
}

/// The cold bit of an outcome code.
const COLD: u8 = 0x80;

/// `fate` as its code (0 for a success, else one plus the failure
/// reason's position in [`FAILURE_REASONS`], with the cold bit) and its
/// latency and predict time in µs.
fn encode(fate: Fate) -> (u8, u64, u64) {
    let code = match fate.outcome {
        Outcome::Success => 0,
        Outcome::Failure(reason) => 1 + reason as u8,
    };
    let cold = if fate.cold { COLD } else { 0 };
    let latency_us = fate.latency.map_or(0, SimDuration::as_micros);
    (code | cold, latency_us, fate.predict.as_micros())
}

/// The fate [`encode`] gave `code`, `latency_us` and `predict_us`.
fn decode(code: u8, latency_us: u64, predict_us: u64) -> Fate {
    let outcome = match code & !COLD {
        0 => Outcome::Success,
        c => Outcome::Failure(FAILURE_REASONS[usize::from(c - 1)]),
    };
    Fate {
        outcome,
        cold: code & COLD != 0,
        latency: outcome
            .is_success()
            .then(|| SimDuration::from_micros(latency_us)),
        predict: SimDuration::from_micros(predict_us),
    }
}

/// The fates of a run's requests in trace order, 17 B each: an outcome
/// byte whose top bit marks a cold start, the latency and the predict time
/// in microseconds. Only a success has a latency: failures store zero and
/// read back `None`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeTable {
    codes: Vec<u8>,
    latency_us: Vec<u64>,
    predict_us: Vec<u64>,
}

impl OutcomeTable {
    /// `n` unresolved requests, filled column by column.
    pub(crate) fn unresolved(n: usize) -> OutcomeTable {
        let (code, latency_us, predict_us) = encode(Fate::UNRESOLVED);
        OutcomeTable {
            codes: vec![code; n],
            latency_us: vec![latency_us; n],
            predict_us: vec![predict_us; n],
        }
    }

    /// Requests in the table.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the table holds no request.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Requests that succeeded, counted off the outcome codes alone.
    pub fn successes(&self) -> usize {
        self.codes.iter().filter(|&&code| code & !COLD == 0).count()
    }

    /// Appends `fate`.
    #[cfg(test)]
    fn push(&mut self, fate: Fate) {
        let (code, latency_us, predict_us) = encode(fate);
        self.codes.push(code);
        self.latency_us.push(latency_us);
        self.predict_us.push(predict_us);
    }

    /// Overwrites request `i`'s fate.
    pub(crate) fn set(&mut self, i: usize, fate: Fate) {
        (self.codes[i], self.latency_us[i], self.predict_us[i]) = encode(fate);
    }

    /// Every fate, in table order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Fate> + '_ {
        let columns = self.latency_us.iter().zip(&self.predict_us);
        (self.codes.iter().zip(columns))
            .map(|(&code, (&latency_us, &predict_us))| decode(code, latency_us, predict_us))
    }

    /// Writes `part`'s fates to positions `first`, `first + stride`, … of
    /// this table: how a sharded run places a cell's share.
    pub(crate) fn place(&mut self, part: &OutcomeTable, first: usize, stride: usize) {
        for (k, i) in (first..).step_by(stride).take(part.len()).enumerate() {
            self.codes[i] = part.codes[k];
            self.latency_us[i] = part.latency_us[k];
            self.predict_us[i] = part.predict_us[k];
        }
    }
}

/// A replay settled into an [`OutcomeTable`]: everything an analysis
/// reads, with the trace it replayed standing in for the records' arrival
/// instants.
#[derive(Debug, Clone)]
pub struct OutcomeRun<'t> {
    /// The deployment that served the run.
    pub deployment: Deployment,
    /// The replayed trace.
    pub trace: &'t WorkloadTrace,
    /// One fate per request, trace order.
    pub outcomes: OutcomeTable,
    /// The cold-start breakdown of each request that waited on one, as
    /// `(trace index, breakdown)` sorted by index; see
    /// [`RunResult::cold_starts`](crate::executor::RunResult::cold_starts).
    pub cold_starts: Vec<(usize, ColdStartBreakdown)>,
    /// Platform-side accounting (cost, instances, cold starts).
    pub platform: PlatformReport,
    /// Discrete events the simulation kernel delivered during the run.
    pub engine_events: u64,
    /// Client-path faults injected.
    pub client_faults: u64,
    /// Re-sends beyond each invocation's first attempt.
    pub retries: u64,
}

impl OutcomeRun<'_> {
    /// Every request in trace order: its arrival, its fate and its
    /// cold-start breakdown.
    ///
    /// # Panics
    /// Panics on a cold request without an entry in the side table.
    pub fn settled(
        &self,
    ) -> impl Iterator<Item = (SimTime, Fate, Option<&ColdStartBreakdown>)> + '_ {
        let mut cold = self.cold_starts.iter();
        let arrivals = self.trace.arrivals();
        self.outcomes.iter().enumerate().map(move |(i, fate)| {
            let breakdown = fate.cold.then(|| {
                let (at, breakdown) = cold.next().expect("a cold request has a breakdown");
                debug_assert_eq!(*at, i, "the side table walks in trace order");
                breakdown
            });
            (arrivals[i], fate, breakdown)
        })
    }

    /// Fraction of *all* requests answered successfully within `slo`, as
    /// [`RunResult::slo_attainment`](crate::executor::RunResult::slo_attainment)
    /// reads it off the records.
    pub fn slo_attainment(&self, slo: SimDuration) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        let within = self
            .outcomes
            .iter()
            .filter(|f| f.latency.is_some_and(|l| l <= slo))
            .count();
        within as f64 / self.outcomes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fate_reads_back_as_written() {
        let mut table = OutcomeTable::default();
        let mut fates = vec![Fate::UNRESOLVED];
        for cold in [false, true] {
            fates.push(Fate {
                outcome: Outcome::Success,
                cold,
                latency: Some(SimDuration::from_micros(u64::MAX)),
                predict: SimDuration::from_micros(7),
            });
            fates.push(Fate {
                outcome: Outcome::Success,
                cold,
                latency: Some(SimDuration::ZERO),
                predict: SimDuration::ZERO,
            });
            for reason in FAILURE_REASONS {
                fates.push(Fate {
                    outcome: Outcome::Failure(reason),
                    cold,
                    latency: None,
                    predict: SimDuration::from_millis(3),
                });
            }
        }
        for &fate in &fates {
            table.push(fate);
        }
        assert_eq!(table.iter().collect::<Vec<_>>(), fates);
    }

    #[test]
    fn placing_a_share_fills_its_stride() {
        let ok = |us| Fate {
            outcome: Outcome::Success,
            cold: false,
            latency: Some(SimDuration::from_micros(us)),
            predict: SimDuration::ZERO,
        };
        let mut table = OutcomeTable::unresolved(8);
        let mut part = OutcomeTable::default();
        for us in [1, 2, 3] {
            part.push(ok(us));
        }
        table.place(&part, 1, 3);
        let got: Vec<_> = table.iter().collect();
        let u = Fate::UNRESOLVED;
        assert_eq!(got, [u, ok(1), u, u, ok(2), u, u, ok(3)]);
    }
}
