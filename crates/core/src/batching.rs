//! Client-side request batching (paper Section 5.5).
//!
//! "Given a batch size, each client sends an invocation to the serverless
//! function only when the number of requests matches the batch size or
//! reaches the end of the workload." [`BatchPolicy::Fixed`] implements
//! exactly that; [`BatchPolicy::Adaptive`] implements the BATCH-style
//! alternative the paper's takeaway suggests — bounded extra waiting
//! instead of a bounded count.

use serde::{Deserialize, Serialize};
use slsb_sim::{SimDuration, SimTime};

/// How a client groups its requests into invocations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BatchPolicy {
    /// One invocation per request.
    None,
    /// Send when `n` requests have accumulated (or at workload end).
    Fixed(u32),
    /// Send when the *first* queued request has waited `max_wait`, or when
    /// `max_batch` requests have accumulated, whichever comes first.
    Adaptive {
        /// Bound on the extra client-side waiting of the oldest request.
        max_wait: SimDuration,
        /// Bound on the batch size.
        max_batch: u32,
    },
}

impl BatchPolicy {
    /// The batch a client sends next when its oldest unsent request is
    /// `start` of `len`: returns the end of the batch (exclusive) and when
    /// it is sent. `at(j)` is request `j`'s arrival; arrivals must not
    /// decrease. Batches come out in send order, so a client can form
    /// them one at a time as its requests come up.
    ///
    /// # Panics
    /// Panics if a fixed batch size or adaptive max batch is zero.
    pub fn next_batch(
        self,
        start: usize,
        len: usize,
        at: impl Fn(usize) -> SimTime,
    ) -> (usize, SimTime) {
        debug_assert!(start < len);
        match self {
            BatchPolicy::None => (start + 1, at(start)),
            BatchPolicy::Fixed(n) => {
                assert!(n > 0, "zero batch size");
                // The batch fires when its last member arrives (or at
                // workload end for the final partial batch — same
                // instant, since these are the last arrivals).
                let end = (start + n as usize).min(len);
                (end, at(end - 1))
            }
            BatchPolicy::Adaptive {
                max_wait,
                max_batch,
            } => {
                assert!(max_batch > 0, "zero max batch");
                let window_end = at(start) + max_wait;
                let mut end = start + 1;
                while end < len && at(end) <= window_end && end - start < max_batch as usize {
                    end += 1;
                }
                // Fire as soon as the batch is full; otherwise wait out
                // the window in case more requests show up.
                let send_at = if end - start == max_batch as usize {
                    at(end - 1)
                } else {
                    window_end
                };
                (end, send_at)
            }
        }
    }

    /// The members `start..end` of batch `k` over `len` requests, for the
    /// policies that fix batches by position alone; `None` for adaptive
    /// batching, whose batches depend on the arrival times.
    pub fn positional_batch(self, k: usize, len: usize) -> Option<(usize, usize)> {
        match self {
            BatchPolicy::None => Some((k, k + 1)),
            BatchPolicy::Fixed(n) => {
                let n = n as usize;
                Some((k * n, ((k + 1) * n).min(len)))
            }
            BatchPolicy::Adaptive { .. } => None,
        }
    }

    /// How many batches [`BatchPolicy::next_batch`] forms over `len`
    /// requests arriving at `at(0..len)`.
    pub fn batches(self, len: usize, at: impl Fn(usize) -> SimTime) -> usize {
        match self {
            BatchPolicy::None => len,
            BatchPolicy::Fixed(n) => {
                assert!(n > 0, "zero batch size");
                len.div_ceil(n as usize)
            }
            BatchPolicy::Adaptive { .. } => {
                let (mut start, mut count) = (0, 0);
                while start < len {
                    start = self.next_batch(start, len, &at).0;
                    count += 1;
                }
                count
            }
        }
    }
}

/// One function invocation carrying one or more logical requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation {
    /// When the client fires the invocation.
    pub send_at: SimTime,
    /// Indices (into the client's arrivals) of the carried requests.
    pub members: Vec<usize>,
}

/// Groups one client's arrivals (`(request index, arrival)` sorted by
/// arrival) into invocations under `policy`, all at once.
///
/// # Panics
/// Panics if a fixed batch size or adaptive max batch is zero.
pub fn plan_invocations(arrivals: &[(usize, SimTime)], policy: BatchPolicy) -> Vec<Invocation> {
    debug_assert!(arrivals.windows(2).all(|w| w[0].1 <= w[1].1));
    let mut out = Vec::with_capacity(policy.batches(arrivals.len(), |j| arrivals[j].1));
    let mut start = 0;
    while start < arrivals.len() {
        let (end, send_at) = policy.next_batch(start, arrivals.len(), |j| arrivals[j].1);
        out.push(Invocation {
            send_at,
            members: arrivals[start..end].iter().map(|&(idx, _)| idx).collect(),
        });
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn arrivals(times: &[f64]) -> Vec<(usize, SimTime)> {
        times.iter().enumerate().map(|(i, &s)| (i, t(s))).collect()
    }

    #[test]
    fn none_is_one_to_one() {
        let a = arrivals(&[1.0, 2.0, 3.0]);
        let inv = plan_invocations(&a, BatchPolicy::None);
        assert_eq!(inv.len(), 3);
        assert!(inv.iter().all(|i| i.members.len() == 1));
        assert_eq!(inv[1].send_at, t(2.0));
    }

    #[test]
    fn fixed_batches_fire_on_last_member() {
        let a = arrivals(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let inv = plan_invocations(&a, BatchPolicy::Fixed(2));
        assert_eq!(inv.len(), 3);
        assert_eq!(inv[0].members, vec![0, 1]);
        assert_eq!(inv[0].send_at, t(2.0));
        // Final partial batch carries the leftover request.
        assert_eq!(inv[2].members, vec![4]);
        assert_eq!(inv[2].send_at, t(5.0));
    }

    #[test]
    fn fixed_conserves_members() {
        let a = arrivals(&[0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]);
        for n in 1..=7 {
            let inv = plan_invocations(&a, BatchPolicy::Fixed(n));
            let total: usize = inv.iter().map(|i| i.members.len()).sum();
            assert_eq!(total, 7);
        }
    }

    #[test]
    fn adaptive_full_batch_fires_early() {
        let a = arrivals(&[0.0, 0.1, 0.2, 5.0]);
        let inv = plan_invocations(
            &a,
            BatchPolicy::Adaptive {
                max_wait: SimDuration::from_secs(1),
                max_batch: 3,
            },
        );
        assert_eq!(inv.len(), 2);
        // Full batch fires at its last member's arrival, not the window end.
        assert_eq!(inv[0].members, vec![0, 1, 2]);
        assert_eq!(inv[0].send_at, t(0.2));
    }

    #[test]
    fn adaptive_waits_out_window_when_sparse() {
        let a = arrivals(&[0.0, 10.0]);
        let inv = plan_invocations(
            &a,
            BatchPolicy::Adaptive {
                max_wait: SimDuration::from_secs(2),
                max_batch: 8,
            },
        );
        assert_eq!(inv.len(), 2);
        // A lone request is held until the window closes.
        assert_eq!(inv[0].send_at, t(2.0));
        assert_eq!(inv[1].send_at, t(12.0));
    }

    #[test]
    fn adaptive_bounds_oldest_wait() {
        let times: Vec<f64> = (0..100).map(|i| i as f64 * 0.05).collect();
        let a = arrivals(&times);
        let max_wait = SimDuration::from_millis(500);
        let inv = plan_invocations(
            &a,
            BatchPolicy::Adaptive {
                max_wait,
                max_batch: 64,
            },
        );
        for b in &inv {
            let first_arrival = a[b.members[0]].1;
            assert!(b.send_at.duration_since(first_arrival) <= max_wait);
        }
        let total: usize = inv.iter().map(|i| i.members.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn batch_counts_match_the_plans() {
        let mut times: Vec<f64> = (0..37)
            .map(|i| (i * i % 11) as f64 * 0.1 + i as f64 * 0.2)
            .collect();
        times.sort_by(f64::total_cmp);
        let a = arrivals(&times);
        for policy in [
            BatchPolicy::None,
            BatchPolicy::Fixed(4),
            BatchPolicy::Adaptive {
                max_wait: SimDuration::from_millis(300),
                max_batch: 5,
            },
        ] {
            let count = policy.batches(a.len(), |j| a[j].1);
            let plan = plan_invocations(&a, policy);
            assert_eq!(count, plan.len(), "{policy:?}");
            for (k, inv) in plan.iter().enumerate() {
                if let Some((start, end)) = policy.positional_batch(k, a.len()) {
                    assert_eq!(inv.members, (start..end).collect::<Vec<_>>(), "{policy:?}");
                }
            }
        }
    }

    #[test]
    fn empty_arrivals_yield_nothing() {
        assert!(plan_invocations(&[], BatchPolicy::Fixed(4)).is_empty());
        assert!(plan_invocations(&[], BatchPolicy::None).is_empty());
    }
}
