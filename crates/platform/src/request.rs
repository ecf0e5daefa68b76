//! Requests and responses as the serving platforms see them.

use serde::{Deserialize, Serialize};
use slsb_obs::SpanOutcome;
use slsb_sim::{SimDuration, SimTime};
use std::fmt;

/// Unique id of a request within one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// A request arriving at a serving endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServingRequest {
    /// Request id (assigned by the executor).
    pub id: RequestId,
    /// Instant the request reaches the platform edge.
    pub arrival: SimTime,
    /// Serialized payload size in bytes (drives network transfer).
    pub payload_bytes: u64,
    /// Number of inferences the handler must execute. Normally 1; the
    /// paper's Figure 12d sweeps this, and client-side batching (Figure 17)
    /// packs several logical requests into one invocation.
    pub inferences: u32,
}

/// Why a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureReason {
    /// The endpoint's backlog was full and the request was rejected
    /// immediately (HTTP 429/503-style).
    QueueFull,
    /// The client gave up waiting (enforced by the executor; the paper's
    /// clients use an HTTP timeout).
    ClientTimeout,
    /// The platform refused the request for a policy reason (e.g. payload
    /// too large).
    Rejected,
    /// Admission was refused by injected throttling (429-style token
    /// bucket) or a scheduled outage window.
    Throttled,
    /// The serving attempt crashed mid-execution (injected fault).
    Crashed,
    /// The client retried up to its policy limit and every attempt failed.
    RetriesExhausted,
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailureReason::QueueFull => "queue full",
            FailureReason::ClientTimeout => "client timeout",
            FailureReason::Rejected => "rejected",
            FailureReason::Throttled => "throttled",
            FailureReason::Crashed => "crashed",
            FailureReason::RetriesExhausted => "retries exhausted",
        };
        f.write_str(s)
    }
}

/// Timing of each cold-start sub-stage (the paper's Figure 10 breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ColdStartBreakdown {
    /// Provisioning the sandbox/container (plus any first-on-machine image
    /// pull).
    pub boot: SimDuration,
    /// Importing serving dependencies (e.g. the TF1.15 Python stack).
    pub import: SimDuration,
    /// Downloading the model artifact from cloud storage.
    pub download: SimDuration,
    /// Loading the model into the serving runtime.
    pub load: SimDuration,
}

impl ColdStartBreakdown {
    /// Total cold-start pipeline time (before the first prediction).
    pub fn total(&self) -> SimDuration {
        self.boot + self.import + self.download + self.load
    }
}

/// What happened to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Served successfully.
    Success,
    /// Failed with the given reason.
    Failure(FailureReason),
}

impl Outcome {
    /// True for [`Outcome::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Success)
    }
}

/// The outcome a request span records in a trace.
impl From<Outcome> for SpanOutcome {
    fn from(outcome: Outcome) -> SpanOutcome {
        match outcome {
            Outcome::Success => SpanOutcome::Success,
            Outcome::Failure(FailureReason::QueueFull) => SpanOutcome::QueueFull,
            Outcome::Failure(FailureReason::ClientTimeout) => SpanOutcome::ClientTimeout,
            Outcome::Failure(FailureReason::Rejected) => SpanOutcome::Rejected,
            Outcome::Failure(FailureReason::Throttled) => SpanOutcome::Throttled,
            Outcome::Failure(FailureReason::Crashed) => SpanOutcome::Crashed,
            Outcome::Failure(FailureReason::RetriesExhausted) => SpanOutcome::RetriesExhausted,
        }
    }
}

/// A platform's answer to one request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingResponse {
    /// Which request this answers.
    pub id: RequestId,
    /// Success or failure.
    pub outcome: Outcome,
    /// Instant the response leaves the platform (response network time
    /// already included).
    pub completed_at: SimTime,
    /// Whether a cold start was on this request's path.
    pub cold_start: Option<ColdStartBreakdown>,
    /// Time spent computing predictions (the paper's "predict" sub-stage;
    /// includes lazy-init on a first prediction).
    pub predict: SimDuration,
    /// Time spent waiting in a platform-side queue.
    pub queued: SimDuration,
}

/// Moves `responses` onto the back of `out`. Into an empty `out` — every
/// drain of an engine's hot loop — the two buffers trade places, so the
/// responses are read where the platform wrote them instead of being
/// copied, and each buffer keeps its capacity for the next burst.
pub(crate) fn hand_over<T>(responses: &mut Vec<T>, out: &mut Vec<T>) {
    if out.is_empty() {
        std::mem::swap(responses, out);
    } else {
        out.append(responses);
    }
}

impl ServingResponse {
    /// End-to-end latency as measured from the request's platform arrival.
    pub fn latency_from(&self, arrival: SimTime) -> SimDuration {
        self.completed_at.duration_since(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_sums_stages() {
        let b = ColdStartBreakdown {
            boot: SimDuration::from_secs(1),
            import: SimDuration::from_secs(4),
            download: SimDuration::from_secs(2),
            load: SimDuration::from_secs(3),
        };
        assert_eq!(b.total(), SimDuration::from_secs(10));
    }

    #[test]
    fn outcome_predicates() {
        assert!(Outcome::Success.is_success());
        assert!(!Outcome::Failure(FailureReason::QueueFull).is_success());
    }

    #[test]
    fn latency_from_arrival() {
        let r = ServingResponse {
            id: RequestId(1),
            outcome: Outcome::Success,
            completed_at: SimTime::from_secs_f64(12.5),
            cold_start: None,
            predict: SimDuration::from_millis(60),
            queued: SimDuration::ZERO,
        };
        assert_eq!(
            r.latency_from(SimTime::from_secs_f64(12.0)),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn display_impls() {
        assert_eq!(RequestId(7).to_string(), "req#7");
        assert_eq!(FailureReason::QueueFull.to_string(), "queue full");
    }
}
