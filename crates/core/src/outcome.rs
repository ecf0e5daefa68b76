//! The compact settle target of a replay: what the analyzer reads of each
//! request and nothing else.
//!
//! A replay settles each request's fate into a table. [`RunResult`]'s
//! records (72 B per request) keep everything a request went through, for
//! callers that read records: the oracle, `run_metrics`, traces and SLO
//! samples. A caller that only wants an [`Analysis`], a platform bill or an
//! SLO attainment settles into an [`OutcomeTable`] instead, at 9 B per
//! request: an outcome byte with a cold bit, and the latency and the
//! predict time as 4-B microsecond counts. Cold-start breakdowns stay in
//! the run's side table either way, and the in-flight state both kinds of
//! run need lives with the executor's lanes, so the two runs share one
//! event loop and differ only in the table they fill.
//!
//! [`RunResult`]: crate::executor::RunResult
//! [`Analysis`]: crate::analyzer::Analysis

use crate::analyzer::FAILURE_REASONS;
use crate::plan::Deployment;
use slsb_platform::{ColdStartBreakdown, FailureReason, Outcome, PlatformReport};
use slsb_sim::stats::{nearest_rank, select_percentiles};
use slsb_sim::{SimDuration, SimTime};
use slsb_workload::WorkloadTrace;
use std::collections::BTreeMap;

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

/// `fate`'s outcome code: 0 for a success, else one plus the failure
/// reason's position in [`FAILURE_REASONS`], with the cold bit.
fn code(fate: Fate) -> u8 {
    let code = match fate.outcome {
        Outcome::Success => 0,
        Outcome::Failure(reason) => 1 + reason as u8,
    };
    code | if fate.cold { COLD } else { 0 }
}

/// The fate [`code`] gave `code`, with `latency_us` and `predict_us`.
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

/// The narrow entry that stands for a value kept in a column's side map.
const WIDE: u32 = u32::MAX;

/// A column of microsecond values, 4 B each: a value below `u32::MAX` µs
/// (about 71.6 min) is its own entry; a larger one is entered as
/// `u32::MAX` and keeps its exact value in a side map by index. Replays
/// almost never settle such a value, so the map is almost always empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Micros {
    narrow: Vec<u32>,
    wide: BTreeMap<usize, u64>,
}

impl Micros {
    /// An empty column with room for `n` values.
    pub(crate) fn with_capacity(n: usize) -> Micros {
        Micros {
            narrow: Vec::with_capacity(n),
            wide: BTreeMap::new(),
        }
    }

    /// `n` zeros.
    fn zeros(n: usize) -> Micros {
        Micros {
            narrow: vec![0; n],
            wide: BTreeMap::new(),
        }
    }

    /// Values in the column.
    pub(crate) fn len(&self) -> usize {
        self.narrow.len()
    }

    /// `us` as its narrow entry at `i`, moving it to the side map or
    /// clearing a stale one there as the value needs.
    fn enter(&mut self, i: usize, us: u64) -> u32 {
        match u32::try_from(us) {
            Ok(v) if v != WIDE => {
                if !self.wide.is_empty() {
                    self.wide.remove(&i);
                }
                v
            }
            _ => {
                self.wide.insert(i, us);
                WIDE
            }
        }
    }

    /// Appends `us`.
    pub(crate) fn push(&mut self, us: u64) {
        let v = self.enter(self.narrow.len(), us);
        self.narrow.push(v);
    }

    /// Overwrites value `i`.
    fn set(&mut self, i: usize, us: u64) {
        self.narrow[i] = self.enter(i, us);
    }

    /// Value `i`.
    pub(crate) fn get(&self, i: usize) -> u64 {
        match self.narrow[i] {
            WIDE => self.wide[&i],
            v => u64::from(v),
        }
    }

    /// Every value, in column order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The nearest-rank percentiles `qs` of the values (see
    /// [`select_percentiles`]), found by selection on the narrow entries
    /// alone, which reorders the column: afterwards only [`Micros::len`]
    /// reads it right. The wide values sort above every narrow entry, so a
    /// rank that lands on `u32::MAX` is read off the side map in order.
    pub(crate) fn percentiles<const N: usize>(&mut self, qs: [f64; N]) -> Option<[u64; N]> {
        let n = self.narrow.len();
        let narrow = select_percentiles(&mut self.narrow, qs)?;
        let mut wide: Vec<u64> = self.wide.values().copied().collect();
        wide.sort_unstable();
        let mut out = [0; N];
        for ((x, v), q) in out.iter_mut().zip(narrow).zip(qs) {
            *x = match v {
                WIDE => wide[nearest_rank(q, n) - (n - wide.len())],
                v => u64::from(v),
            };
        }
        Some(out)
    }
}

/// The fates of a run's requests in trace order, 9 B each: an outcome
/// byte whose top bit marks a cold start, the latency and the predict time
/// in microseconds, each a 4-B entry (a value of 2³² µs or more
/// keeps its exact `u64` in the column's side map). Only a success has a
/// latency: failures store zero and read back `None`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeTable {
    codes: Vec<u8>,
    latency_us: Micros,
    predict_us: Micros,
}

impl OutcomeTable {
    /// `n` unresolved requests, filled column by column.
    pub(crate) fn unresolved(n: usize) -> OutcomeTable {
        let unresolved = Fate::UNRESOLVED;
        debug_assert!(unresolved.latency.is_none() && unresolved.predict.is_zero());
        OutcomeTable {
            codes: vec![code(unresolved); n],
            latency_us: Micros::zeros(n),
            predict_us: Micros::zeros(n),
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
        self.codes.push(code(fate));
        self.latency_us
            .push(fate.latency.map_or(0, SimDuration::as_micros));
        self.predict_us.push(fate.predict.as_micros());
    }

    /// Overwrites request `i`'s fate.
    pub(crate) fn set(&mut self, i: usize, fate: Fate) {
        self.codes[i] = code(fate);
        self.latency_us
            .set(i, fate.latency.map_or(0, SimDuration::as_micros));
        self.predict_us.set(i, fate.predict.as_micros());
    }

    /// Request `i`'s fate.
    fn get(&self, i: usize) -> Fate {
        decode(
            self.codes[i],
            self.latency_us.get(i),
            self.predict_us.get(i),
        )
    }

    /// Every fate, in table order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Fate> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Writes `part`'s fates to positions `first`, `first + stride`, … of
    /// this table: how a sharded run places a cell's share.
    pub(crate) fn place(&mut self, part: &OutcomeTable, first: usize, stride: usize) {
        for (k, i) in (first..).step_by(stride).take(part.len()).enumerate() {
            self.codes[i] = part.codes[k];
            self.latency_us.set(i, part.latency_us.get(k));
            self.predict_us.set(i, part.predict_us.get(k));
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

    /// Microsecond counts at and around the 4-B entry's limit.
    const WIDE_US: [u64; 3] = [u32::MAX as u64 - 1, u32::MAX as u64, u64::MAX];

    /// A success for each pair of latency and predict time in `WIDE_US`,
    /// cold on every other one.
    fn wide_fates() -> Vec<Fate> {
        let mut fates = Vec::new();
        for latency in WIDE_US {
            for predict in WIDE_US {
                fates.push(Fate {
                    outcome: Outcome::Success,
                    cold: fates.len() % 2 == 1,
                    latency: Some(SimDuration::from_micros(latency)),
                    predict: SimDuration::from_micros(predict),
                });
            }
        }
        fates
    }

    #[test]
    fn wide_values_read_back_exactly_after_set_and_place() {
        let fates = wide_fates();
        let n = fates.len();
        let mut table = OutcomeTable::unresolved(n);
        for (i, &fate) in fates.iter().enumerate() {
            table.set(i, fate);
        }
        assert_eq!(table.iter().collect::<Vec<_>>(), fates);

        // A sharded run places a cell's share at a stride.
        let mut placed = OutcomeTable::unresolved(2 * n + 1);
        placed.place(&table, 1, 2);
        let got: Vec<_> = placed.iter().collect();
        for (i, fate) in got.iter().enumerate() {
            let want = if i % 2 == 1 {
                fates[i / 2]
            } else {
                Fate::UNRESOLVED
            };
            assert_eq!(*fate, want, "entry {i}");
        }

        // Overwriting a wide value with a narrow one leaves no stale side
        // entry behind: the table equals one that never held it.
        for i in 0..n {
            table.set(i, Fate::UNRESOLVED);
        }
        assert_eq!(table, OutcomeTable::unresolved(n));
    }

    #[test]
    fn percentiles_select_wide_values_in_order() {
        let mut values: Vec<u64> = vec![5, u64::MAX, 3, u32::MAX as u64, 9, u32::MAX as u64 + 7];
        values.extend((0..40).map(|k| (k * 7919) % 101));
        let mut column = Micros::with_capacity(values.len());
        for &us in &values {
            column.push(us);
        }
        assert_eq!(column.iter().collect::<Vec<_>>(), values);
        let qs = [0.0, 50.0, 90.0, 95.0, 97.0, 98.0, 100.0];
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let want = qs.map(|q| sorted[nearest_rank(q, sorted.len())]);
        assert_eq!(column.percentiles(qs), Some(want));
        assert_eq!(Micros::default().percentiles(qs), None);
    }
}
