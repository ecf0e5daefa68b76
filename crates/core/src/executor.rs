//! The executor (paper Figure 3): an open-loop client fleet replaying a
//! workload trace against one simulated serving system.
//!
//! Requests fire at their trace timestamps regardless of outstanding
//! responses (the paper's clients replay a pre-generated workload), each
//! client draws its payload from the shared request pool, and a per-request
//! HTTP timeout converts slow responses into failures — the mechanism
//! behind every success-ratio number in the evaluation.
//!
//! Requests go to clients round-robin and a run replays as cells (the
//! crate's private `cell` layer): unsharded, one cell holds every client
//! on the run seed and one platform; sharded
//! ([`ExecutorConfig::shards`] ≥ 1), each client is a cell of its own on
//! the seed's `("shard", client)` substream with its own platform. Both
//! modes run the same cell replay, fan-out and reassembly. On top of the
//! shared cell layer the executor adds its client layer: batching,
//! retries and client-path faults. Each client is a lane that sends its
//! batches as they come up, and a run holds its settled requests plus what
//! is in flight (see `Feed` and `Ring`).
//!
//! A run settles each request into one of two tables, its sink: the full
//! [`RequestRecord`]s of [`Executor::run`], or the compact
//! [`OutcomeTable`] of [`Executor::run_outcomes`] for callers that only
//! analyze. Both replay through the same event loop.

use crate::batching::BatchPolicy;
use crate::cell::{close_trace, fan_out, Cell, PlatformIo, RunEnd, ARRIVAL_BURST};
use crate::outcome::{Fate, OutcomeRun, OutcomeTable};
use crate::plan::{Deployment, PlanError};
use serde::{Deserialize, Serialize};
use slsb_model::ModelKind;
use slsb_obs::{EventKind, FaultKind, Recorder, TraceEvent};
use slsb_platform::{
    ColdStartBreakdown, FailureReason, FaultInjector, FaultPlan, NetworkProfile, Outcome, Platform,
    PlatformEvent, PlatformReport, RequestId, ServingRequest, ServingResponse,
};
use slsb_sim::{
    Engine, EventQueue, ProfGuard, Seed, SimDuration, SimRng, SimTime, StoreKind, System, Wheel,
};
use slsb_workload::{InputKind, RequestPool, WorkloadTrace};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// A year: the bound on every configured duration and on a payload's
/// network time, far below where instant arithmetic could overflow.
const MAX_CONFIG_SECS: f64 = 365.0 * 86_400.0;

/// Why an [`ExecutorConfig`] cannot run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// The retry policy allows no attempt at all.
    NoAttempts,
    /// Retry jitter outside `[0, 10]`.
    Jitter(f64),
    /// A duration longer than a year.
    Duration {
        /// The offending field.
        field: &'static str,
        /// Its value in seconds.
        secs: f64,
    },
    /// Network bandwidth that is not finite and positive.
    Bandwidth(f64),
    /// The largest pool payload's request-path network time is longer
    /// than a year.
    TransferTime {
        /// The payload's size.
        bytes: u64,
        /// Its network time in seconds.
        secs: f64,
    },
    /// A request pool that is empty or past `u32` payload ids.
    PoolSize(usize),
    /// A batching override that forms empty batches.
    EmptyBatch,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoAttempts => write!(f, "retry needs attempts >= 1"),
            ConfigError::Jitter(j) => write!(f, "retry jitter {j} out of range [0, 10]"),
            ConfigError::Duration { field, secs } => {
                write!(
                    f,
                    "{field} must be at most {MAX_CONFIG_SECS} s, got {secs} s"
                )
            }
            ConfigError::Bandwidth(bw) => write!(
                f,
                "network bandwidth_mb_per_sec must be finite and > 0, got {bw}"
            ),
            ConfigError::TransferTime { bytes, secs } => write!(
                f,
                "a {bytes}-byte payload takes {secs:.3e} s on the network, \
                 more than {MAX_CONFIG_SECS} s"
            ),
            ConfigError::PoolSize(n) => {
                write!(f, "pool_size must be in [1, {}], got {n}", u32::MAX)
            }
            ConfigError::EmptyBatch => write!(f, "batch_override must batch at least 1 request"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Checks that `value` is at most a year.
fn check_duration(field: &'static str, value: SimDuration) -> Result<(), ConfigError> {
    let secs = value.as_secs_f64();
    if secs <= MAX_CONFIG_SECS {
        Ok(())
    } else {
        Err(ConfigError::Duration { field, secs })
    }
}

/// Client retry policy: how an invocation is re-issued after a failed or
/// timed-out attempt. The default (`max_attempts = 1`) disables retries
/// entirely, and the disabled policy is guaranteed to leave the executor's
/// legacy single-attempt path byte-identical.
///
/// An attempt fails when the platform answers with any failure, or when no
/// response reaches the client within [`RetryPolicy::attempt_timeout`] of
/// the attempt being sent. Between attempts the client backs off
/// exponentially — `base_backoff · 2^(attempt-1)` capped at `max_backoff` —
/// plus a deterministic jitter drawn from the run seed's `"retry-backoff"`
/// substream. Retrying never extends the overall client deadline: an
/// attempt that could only fire after `arrival + timeout` is not sent, and
/// a fleet-wide [`RetryPolicy::budget`] bounds total re-sends.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per invocation, first send included (1 = disabled).
    #[serde(default = "default_one_attempt")]
    pub max_attempts: u32,
    /// Per-attempt client timeout, measured from the attempt's send.
    #[serde(default = "default_attempt_timeout")]
    pub attempt_timeout: SimDuration,
    /// Backoff before the second attempt; doubles each further attempt.
    #[serde(default = "default_base_backoff")]
    pub base_backoff: SimDuration,
    /// Upper bound on the (pre-jitter) backoff.
    #[serde(default = "default_max_backoff")]
    pub max_backoff: SimDuration,
    /// Jitter fraction: each backoff is stretched by up to this fraction,
    /// drawn deterministically from the run seed.
    #[serde(default = "default_retry_jitter")]
    pub jitter: f64,
    /// Fleet-wide budget of re-sends; once spent, failures resolve
    /// immediately. Guards against retry storms amplifying an outage.
    #[serde(default = "default_retry_budget")]
    pub budget: u64,
}

fn default_one_attempt() -> u32 {
    1
}

fn default_attempt_timeout() -> SimDuration {
    SimDuration::from_secs(10)
}

fn default_base_backoff() -> SimDuration {
    SimDuration::from_millis(500)
}

fn default_max_backoff() -> SimDuration {
    SimDuration::from_secs(8)
}

fn default_retry_jitter() -> f64 {
    0.25
}

fn default_retry_budget() -> u64 {
    u64::MAX
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::disabled()
    }
}

impl RetryPolicy {
    /// The no-retry policy: one attempt, legacy client behavior.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            attempt_timeout: default_attempt_timeout(),
            base_backoff: default_base_backoff(),
            max_backoff: default_max_backoff(),
            jitter: default_retry_jitter(),
            budget: default_retry_budget(),
        }
    }

    /// A sensible enabled policy: 3 attempts, 10 s per attempt, 0.5 s → 8 s
    /// exponential backoff with 25 % jitter, unbounded budget.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::disabled()
        }
    }

    /// Whether the retry machinery is active at all.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Parses a compact `key=value` spec, e.g.
    /// `"attempts=3,timeout=10,base=0.5,max=8,jitter=0.25,budget=1000"`
    /// (durations in seconds). Unspecified keys keep the
    /// [`RetryPolicy::standard`] values; `"off"` yields the disabled policy.
    ///
    /// # Errors
    /// Returns a description of the first malformed key or value.
    pub fn parse_spec(spec: &str) -> Result<RetryPolicy, String> {
        if spec.trim() == "off" {
            return Ok(RetryPolicy::disabled());
        }
        let mut p = RetryPolicy::standard();
        for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("retry spec item '{part}' is not key=value"))?;
            let key = key.trim();
            let value = value.trim();
            fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
                value
                    .parse()
                    .map_err(|_| format!("retry spec '{key}' has a malformed value '{value}'"))
            }
            fn secs(key: &str, value: &str) -> Result<SimDuration, String> {
                let s: f64 = num(key, value)?;
                (0.0..=MAX_CONFIG_SECS)
                    .contains(&s)
                    .then(|| SimDuration::from_secs_f64(s))
                    .ok_or_else(|| {
                        format!("retry spec '{key}' must be in [0, {MAX_CONFIG_SECS}] s")
                    })
            }
            match key {
                "attempts" => p.max_attempts = num(key, value)?,
                "timeout" => p.attempt_timeout = secs(key, value)?,
                "base" => p.base_backoff = secs(key, value)?,
                "max" => p.max_backoff = secs(key, value)?,
                "jitter" => p.jitter = num(key, value)?,
                "budget" => p.budget = num(key, value)?,
                other => return Err(format!("unknown retry spec key '{other}'")),
            }
        }
        p.validate().map_err(|e| e.to_string())?;
        Ok(p)
    }

    /// Checks what a run needs of the policy: at least one attempt, a
    /// jitter fraction in `[0, 10]` and durations of at most a year.
    ///
    /// # Errors
    /// The first field out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_attempts == 0 {
            return Err(ConfigError::NoAttempts);
        }
        if !(0.0..=10.0).contains(&self.jitter) {
            return Err(ConfigError::Jitter(self.jitter));
        }
        check_duration("retry.attempt_timeout", self.attempt_timeout)?;
        check_duration("retry.base_backoff", self.base_backoff)?;
        check_duration("retry.max_backoff", self.max_backoff)
    }
}

/// Client-fleet configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Number of client nodes (the paper uses 8).
    pub clients: usize,
    /// Request-pool size (the paper uses 200).
    pub pool_size: usize,
    /// Client HTTP timeout; a response slower than this counts as failed.
    pub timeout: SimDuration,
    /// Client↔endpoint network path.
    pub network: NetworkProfile,
    /// Batching override: `None` derives [`BatchPolicy::Fixed`] from the
    /// deployment's `batch_size`; `Some` replaces it (used by the adaptive-
    /// batching extension).
    pub batch_override: Option<BatchPolicy>,
    /// Client retry policy (disabled by default).
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Intra-run sharding worker budget. `0` (the default) = one cell of
    /// all clients on the run seed, sharing one platform. Any value ≥ 1
    /// switches to sharded mode: the run splits into one cell per client
    /// on the seed's `("shard", client)` substream (events never cross
    /// cells), cells execute on up to this many workers, and the merged
    /// result is byte-identical for *every* budget — `shards = 1` and
    /// `shards = 64` differ only in thread count. Sharded results differ
    /// from the one-cell run's by design (each cell owns a platform and
    /// draws its own RNG substreams).
    #[serde(default)]
    pub shards: usize,
}

impl ExecutorConfig {
    /// Checks that a run of `deployment` under this configuration cannot
    /// panic or overflow: the retry policy (see [`RetryPolicy::validate`]),
    /// a client timeout of at most a year, a pool of 1 to `u32::MAX`
    /// payloads, batches of at least one request formed within a year, a
    /// finite positive bandwidth, and a request-path network time of at
    /// most a year for the largest payload `deployment` can send.
    ///
    /// # Errors
    /// The first field out of range.
    pub fn validate(&self, deployment: &Deployment) -> Result<(), ConfigError> {
        self.retry.validate()?;
        check_duration("timeout", self.timeout)?;
        if self.pool_size == 0 || u32::try_from(self.pool_size).is_err() {
            return Err(ConfigError::PoolSize(self.pool_size));
        }
        match self.batch_override {
            Some(BatchPolicy::Fixed(0) | BatchPolicy::Adaptive { max_batch: 0, .. }) => {
                return Err(ConfigError::EmptyBatch);
            }
            Some(BatchPolicy::Adaptive { max_wait, .. }) => {
                check_duration("batch_override.max_wait", max_wait)?;
            }
            _ => {}
        }
        let bandwidth = self.network.bandwidth_mb_per_sec;
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            return Err(ConfigError::Bandwidth(bandwidth));
        }
        // No pool payload is larger than its kind's top size times the
        // samples it packs. Its network time is summed in `f64`, where
        // it cannot wrap as instant arithmetic would.
        let top = input_kind(deployment.model).size_range().1;
        let bytes = top.saturating_mul(u64::from(deployment.samples_per_request));
        let secs = self.network.one_way_latency.as_secs_f64() + bytes as f64 / (bandwidth * 1e6);
        if secs <= MAX_CONFIG_SECS {
            Ok(())
        } else {
            Err(ConfigError::TransferTime { bytes, secs })
        }
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            clients: 8,
            pool_size: RequestPool::DEFAULT_SIZE,
            timeout: SimDuration::from_secs(60),
            network: NetworkProfile::DEFAULT,
            batch_override: None,
            retry: RetryPolicy::disabled(),
            shards: 0,
        }
    }
}

/// The resolved fate of one logical request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Position in the workload trace.
    pub index: usize,
    /// Which client issued it.
    pub client: u32,
    /// Trace arrival instant (when the user "pressed send").
    pub arrival: SimTime,
    /// When the carrying invocation actually fired (later than `arrival`
    /// under batching).
    pub sent_at: SimTime,
    /// Payload bytes attributed to this request.
    pub payload_bytes: u64,
    /// Final outcome after applying the client timeout.
    pub outcome: Outcome,
    /// Whether a cold start was on this request's path; its breakdown is
    /// in [`RunResult::cold_starts`].
    pub cold: bool,
    /// End-to-end latency from `arrival` to client receive (present for
    /// successes).
    pub latency: Option<SimDuration>,
    /// Server-side predict time of the carrying invocation.
    pub predict: SimDuration,
    /// Platform-side queueing of the carrying invocation.
    pub queued: SimDuration,
}

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The deployment that served the run.
    pub deployment: Deployment,
    /// Workload name (e.g. `"workload-120"`), shared with the trace's
    /// interned name rather than cloned per run.
    pub workload: Arc<str>,
    /// Nominal workload duration.
    pub duration: SimDuration,
    /// One record per logical request, trace order.
    pub records: Vec<RequestRecord>,
    /// The cold-start breakdown of each record that waited on one, as
    /// `(record index, breakdown)` sorted by index: one entry per record
    /// whose [`RequestRecord::cold`] is set. Most requests run warm, so
    /// the records keep a flag and the breakdowns live here.
    pub cold_starts: Vec<(usize, ColdStartBreakdown)>,
    /// Platform-side accounting (cost, instances, cold starts).
    pub platform: PlatformReport,
    /// Discrete events the simulation kernel delivered during the run —
    /// cross-checkable against the trace's closing `run_closed` event.
    pub engine_events: u64,
    /// Client-path faults injected (request packets lost in flight).
    pub client_faults: u64,
    /// Re-sends the client fleet issued beyond each invocation's first
    /// attempt (0 whenever the retry policy is disabled).
    pub retries: u64,
}

impl RunResult {
    /// Record `index`'s cold-start breakdown, if one was on its path.
    pub fn cold_start(&self, index: usize) -> Option<&ColdStartBreakdown> {
        self.cold_starts
            .binary_search_by_key(&index, |&(i, _)| i)
            .ok()
            .map(|at| &self.cold_starts[at].1)
    }

    /// Every record, in record order, with its cold-start breakdown.
    /// Records in trace order, as a run returns them, walk the table in
    /// step; a record out of that order looks its entry up.
    ///
    /// # Panics
    /// Panics on a cold record without an entry in the table.
    pub fn records_with_cold_starts(
        &self,
    ) -> impl Iterator<Item = (&RequestRecord, Option<&ColdStartBreakdown>)> + '_ {
        let table = &self.cold_starts;
        let mut next = 0;
        self.records.iter().map(move |r| {
            if !r.cold {
                return (r, None);
            }
            let at = match table.get(next) {
                Some(&(i, _)) if i == r.index => next,
                _ => table
                    .binary_search_by_key(&r.index, |&(i, _)| i)
                    .expect("a cold record has a breakdown"),
            };
            next = at + 1;
            (r, Some(&table[at].1))
        })
    }

    /// Requests that succeeded.
    pub fn successes(&self) -> impl Iterator<Item = &RequestRecord> + '_ {
        self.records.iter().filter(|r| r.outcome.is_success())
    }

    /// Success ratio over all requests.
    pub fn success_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.successes().count() as f64 / self.records.len() as f64
    }

    /// Fraction of *all* requests answered successfully within `slo` —
    /// failures count against attainment, unlike percentile-of-successes
    /// metrics.
    pub fn slo_attainment(&self, slo: SimDuration) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        let within = self
            .successes()
            .filter(|r| r.latency.expect("success has latency") <= slo)
            .count();
        within as f64 / self.records.len() as f64
    }
}

/// Runs deployments against workload traces.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    cfg: ExecutorConfig,
    faults: FaultPlan,
}

enum ExecEvent {
    /// An invocation's payload reaches the platform, carrying what it
    /// submits: the bytes ([`u32::MAX`] stands for any size from there on,
    /// kept exactly in [`ExecSystem::large_payloads`]) and the inferences
    /// its members ask for. In retry mode the id encodes the attempt:
    /// `id = (attempt - 1) · n_invocations + inv`.
    Deliver {
        id: usize,
        bytes: u32,
        inferences: u32,
    },
    Platform(PlatformEvent),
    /// A platform response reaches the issuing client (retry mode only);
    /// carries a slot of the receipt table.
    ClientRecv(usize),
    /// An attempt's per-attempt timeout expired (retry mode only); carries
    /// the attempt-encoded invocation id.
    AttemptTimeout(usize),
}

/// Per-request span scratch: `(receive, net_in, exec, net_out)`.
type SpanParts = (SimTime, SimDuration, SimDuration, SimDuration);

/// What a traced run keeps per request until the trace's closing spans:
/// the carrying invocation and, once fixed, the span's phases.
#[derive(Clone, Copy, Default)]
struct Span {
    inv: u64,
    parts: Option<SpanParts>,
}

/// Memoized request pool: pools are pure functions of `(kind, size,
/// samples)`, so a run can reuse the previous run's pool whenever the key
/// matches instead of regenerating (and reallocating) it.
struct PoolMemo {
    kind: InputKind,
    size: usize,
    samples: u32,
    pool: RequestPool,
}

/// One client of a cell, replaying its share of the trace: requests
/// `arrivals[client + j · clients]` for `j` in `0..len`, batched under the
/// run's policy, with payloads drawn from its own `("client", id)`
/// stream in request order.
struct Lane {
    /// The client's global id.
    client: usize,
    /// How many requests the client has.
    len: usize,
    /// The client's oldest request not yet sent.
    next: usize,
    /// The end of the batch starting at `next`; its send instant is the
    /// lane's key in [`ExecSystem::sends`].
    batch_end: usize,
    payload_rng: SimRng,
}

/// A lane's invocations in flight: every one sent from the oldest its
/// client may still hear back about on, in one ring addressed by the
/// invocation's number within the lane. A ring keeps five bytes per
/// invocation (nine under adaptive batching); the send instant is not
/// kept, since the batching policy derives it from the members' arrivals.
#[derive(Default)]
struct Ring {
    /// The lane's invocations from `oldest` on, in order.
    slots: VecDeque<Slot>,
    /// Where each invocation's members start in the lane, slot for slot,
    /// kept only under adaptive batching: other policies fix batches by
    /// position.
    starts: VecDeque<u32>,
    adaptive: bool,
    /// The lane's oldest invocation kept.
    oldest: usize,
}

/// One invocation in a [`Ring`].
#[derive(Debug, Clone, Copy)]
#[repr(C, packed)]
struct Slot {
    /// The current attempt, 1-based, or 0 once the client stopped waiting;
    /// [`u8::MAX`] stands for any attempt from 255 on, kept exactly in
    /// [`ExecSystem::late_attempts`].
    attempt: u8,
    /// The payload bytes; [`u32::MAX`] stands for any size from there on,
    /// kept exactly in [`ExecSystem::large_payloads`].
    payload: u32,
}

impl Ring {
    /// The invocations a ring keeps room for between runs: enough for
    /// the steady state of any paper workload, so that a thread replaying
    /// many traces does not reallocate, while a run whose platform leaves
    /// thousands of requests unanswered (the CPU server at workload-200)
    /// does not leave its ring's size behind in the arena.
    const RETAINED: usize = 1024;

    /// Empties the ring after a run, keeping at most [`Ring::RETAINED`]
    /// invocations of room and no starts: only adaptive runs need them.
    fn release(&mut self) {
        self.oldest = 0;
        self.slots.clear();
        self.slots.shrink_to(Self::RETAINED);
        self.starts = VecDeque::new();
    }

    /// The lane's next invocation.
    fn next(&self) -> usize {
        self.oldest + self.slots.len()
    }

    /// Opens the lane's next invocation at attempt 1.
    fn push(&mut self, payload: u32, start: u32) {
        self.slots.push_back(Slot {
            attempt: 1,
            payload,
        });
        if self.adaptive {
            self.starts.push_back(start);
        }
    }

    /// Invocation `k`'s attempt; 0 once it has left the ring.
    fn attempt(&self, k: usize) -> u8 {
        k.checked_sub(self.oldest)
            .map_or(0, |i| self.slots[i].attempt)
    }

    fn set_attempt(&mut self, k: usize, attempt: u8) {
        self.slots[k - self.oldest].attempt = attempt;
    }

    /// Invocation `k`'s payload bytes.
    fn payload(&self, k: usize) -> u32 {
        self.slots[k - self.oldest].payload
    }

    /// Where invocation `k`'s members start (adaptive batching only).
    fn start(&self, k: usize) -> u32 {
        self.starts[k - self.oldest]
    }

    /// Drops the oldest invocation.
    fn pop(&mut self) {
        self.slots.pop_front();
        self.starts.pop_front();
        self.oldest += 1;
    }
}

/// Each lane's next send instant, as `(instant, lane)` pairs in ascending
/// order: the front is the lane that sends first, ties to the lowest lane.
/// A send refiles its lane from the back, where the lanes of clients that
/// take turns land after a comparison or two; a lane leaves once it has
/// sent everything.
#[derive(Default)]
struct SendOrder(VecDeque<(SimTime, u32)>);

impl SendOrder {
    /// Files `lane`, next sending at `at`.
    fn file(&mut self, at: SimTime, lane: u32) {
        let key = (at, lane);
        if self.0.back().is_some_and(|&last| last > key) {
            let pos = self.0.partition_point(|&e| e < key);
            self.0.insert(pos, key);
        } else {
            self.0.push_back(key);
        }
    }

    /// The lane that sends first, and when.
    fn first(&self) -> Option<(SimTime, u32)> {
        self.0.front().copied()
    }

    /// The first lane has sent; it sends next at `next`, if at all.
    fn refile_first(&mut self, next: Option<SimTime>) {
        let (_, lane) = self.0.pop_front().expect("a lane has sent");
        if let Some(at) = next {
            self.file(at, lane);
        }
    }
}

/// An invocation in flight, located in its lane's ring.
#[derive(Debug, Clone, Copy)]
struct Flight {
    lane: usize,
    /// Its number within the lane: its entry in the lane's ring.
    k: usize,
    /// Its members' positions in the lane: `first..end`.
    first: usize,
    end: usize,
    attempt: u32,
}

/// An invocation a lane has just sent: what its first delivery carries
/// (see [`ExecEvent::Deliver`]) and its request-path network time
/// (pre-jitter).
struct Sent {
    inv: usize,
    bytes: u32,
    inferences: u32,
    net_in: SimDuration,
}

/// How the lanes' invocations reach the kernel.
///
/// Each first delivery (and, under retries, the first attempt's timeout)
/// owns a sequence number reserved at the start of the run, numbered in
/// invocation order, so it ties against every other event exactly as if
/// the whole schedule had been queued up front, provided it is queued
/// before anything that sorts after it pops. Lanes send in send order and
/// a delivery never precedes its send, so nothing unsent fires before the
/// earliest unsent send instant, the watermark. A refill sends at least
/// [`ARRIVAL_BURST`] invocations, feeds their deliveries to the queue
/// (one that fires before an earlier send's goes into the store) and
/// schedules their timeouts, which fire a whole attempt timeout later, in
/// the store. It takes as its trigger the latest delivery in the queue's
/// feed that fires before the watermark: the kernel pops the trigger
/// before anything at or past the watermark, and popping it calls the
/// next refill.
struct Feed {
    /// The first reserved sequence number.
    first_seq: u64,
    /// Reserved numbers per invocation: 1, or 2 under retries.
    stride: u64,
    /// The invocation whose first delivery calls the next refill; `None`
    /// once every lane has sent everything.
    trigger: Option<usize>,
}

/// Run-lifetime buffers, recycled across runs on the same thread.
///
/// Everything a run holds besides its sink — the lanes, their
/// in-flight invocations, retry receipts, platform scratch — lives here
/// and is sized by what is in flight, never by the request count. Buffers are `clear()`ed (keeping capacity) instead of
/// dropped, so on a thread replaying many traces (replication, benches)
/// the steady-state request path performs no per-request heap
/// allocation. One arena per thread via [`ARENA`]; worker threads in a
/// sharded or replicated run each get their own.
#[derive(Default)]
struct RunArena {
    lanes: Vec<Lane>,
    first_inv: Vec<usize>,
    sends: SendOrder,
    jitters: Vec<FaultInjector>,
    rings: Vec<Ring>,
    /// Retry mode's responses on their way to the client, by
    /// [`ExecEvent::ClientRecv`] slot, and the free slots.
    receipts: Vec<(usize, ServingResponse)>,
    free_receipts: Vec<usize>,
    resp_scratch: Vec<ServingResponse>,
    dropped: Vec<RequestId>,
    buffer: Vec<(SimDuration, PlatformEvent)>,
    pool: Option<PoolMemo>,
    /// The run's [`transfer_table`].
    transfer: Vec<SimDuration>,
}

impl RunArena {
    /// Empties every buffer (keeping capacity) ahead of a run. The pool
    /// memo survives: pools are deterministic in their key, so reuse can
    /// never change results.
    fn begin(&mut self) {
        self.lanes.clear();
        self.sends.0.clear();
        self.first_inv.clear();
        self.jitters.clear();
        for ring in &mut self.rings {
            ring.release();
        }
        self.receipts.clear();
        self.free_receipts.clear();
        self.resp_scratch.clear();
        self.dropped.clear();
        self.buffer.clear();
    }
}

thread_local! {
    /// The calling thread's run arena. Runs borrow it for their whole
    /// duration; the executor never re-enters itself, so the `RefCell`
    /// borrow cannot conflict.
    static ARENA: RefCell<RunArena> = RefCell::new(RunArena::default());
}

/// The payload kind `model` consumes.
fn input_kind(model: ModelKind) -> InputKind {
    if model.profile().image_input {
        InputKind::Image
    } else {
        InputKind::Text
    }
}

/// Returns the memoized pool for the key, regenerating it on a miss.
fn pooled(memo: &mut Option<PoolMemo>, kind: InputKind, size: usize, samples: u32) -> &RequestPool {
    let hit = matches!(
        memo,
        Some(m) if m.kind == kind && m.size == size && m.samples == samples
    );
    if !hit {
        *memo = Some(PoolMemo {
            kind,
            size,
            samples,
            pool: RequestPool::generate(kind, size).with_samples_per_request(samples),
        });
    }
    &memo.as_ref().expect("memo just filled").pool
}

/// Fills `table` with the request-path network time of each of `pool`'s
/// payloads, by payload id: a single-payload invocation reads its own
/// instead of recomputing it.
fn transfer_table(table: &mut Vec<SimDuration>, pool: &RequestPool, network: &NetworkProfile) {
    table.clear();
    table.extend(
        pool.payloads()
            .iter()
            .map(|p| network.transfer_time(p.size_bytes)),
    );
}

/// A request the client has not yet heard back about: it times out
/// unless a response resolves it.
fn unresolved(index: usize, client: u32, arrival: SimTime) -> RequestRecord {
    RequestRecord {
        index,
        client,
        arrival,
        sent_at: arrival,
        payload_bytes: 0,
        outcome: Outcome::Failure(FailureReason::ClientTimeout),
        cold: false,
        latency: None,
        predict: SimDuration::ZERO,
        queued: SimDuration::ZERO,
    }
}

/// Where a cell settles its requests: one entry per request in the cell's
/// local order (lane `l`'s request `j` is entry `j · lanes + l`), every
/// one unresolved from the start. Records keep everything a request went
/// through; an [`OutcomeTable`] keeps what the analyzer reads.
trait Sink: Default + Send {
    /// A table of `n` unresolved requests, entry `m` being request
    /// `entry(m)`: its trace index, client and arrival.
    fn unresolved(n: usize, entry: impl Fn(usize) -> (usize, u32, SimTime)) -> Self;
    /// Requests in the table.
    fn count(&self) -> usize;
    /// Entry `m` went out at `at` carrying `bytes` of its invocation's
    /// payload.
    fn sent(&mut self, m: usize, at: SimTime, bytes: u64);
    /// Fixes entry `m`'s fate; `queued` is its invocation's platform-side
    /// queueing.
    fn settle(&mut self, m: usize, fate: Fate, queued: SimDuration);
    /// Writes this cell's entries to positions `first`, `first + stride`,
    /// … of the run's `table`.
    fn place_into(self, table: &mut Self, first: usize, stride: usize);
    /// Writes each entry's request span, with its scratch in `spans`, to
    /// `rec`; a request the platform never answered ends at `horizon`.
    fn record_spans(&self, spans: &[Span], rec: &mut dyn Recorder, horizon: SimTime);
}

impl Sink for Vec<RequestRecord> {
    fn unresolved(n: usize, entry: impl Fn(usize) -> (usize, u32, SimTime)) -> Self {
        (0..n)
            .map(|m| {
                let (index, client, arrival) = entry(m);
                unresolved(index, client, arrival)
            })
            .collect()
    }

    fn count(&self) -> usize {
        self.len()
    }

    fn sent(&mut self, m: usize, at: SimTime, bytes: u64) {
        let rec = &mut self[m];
        rec.payload_bytes = bytes;
        rec.sent_at = at;
    }

    fn settle(&mut self, m: usize, fate: Fate, queued: SimDuration) {
        let rec = &mut self[m];
        rec.outcome = fate.outcome;
        rec.cold = fate.cold;
        rec.latency = fate.latency;
        rec.predict = fate.predict;
        rec.queued = queued;
    }

    fn place_into(self, table: &mut Self, first: usize, stride: usize) {
        for (slot, r) in table[first..].iter_mut().step_by(stride).zip(self) {
            *slot = r;
        }
    }

    fn record_spans(&self, spans: &[Span], r: &mut dyn Recorder, horizon: SimTime) {
        for (rec, span) in self.iter().zip(spans) {
            // Without parts the platform never answered: the client's
            // timeout is the whole story, no server-side phases.
            let (at, net_in, exec, net_out) = span.parts.unwrap_or((
                horizon,
                SimDuration::ZERO,
                SimDuration::ZERO,
                SimDuration::ZERO,
            ));
            r.record(&TraceEvent {
                at,
                kind: EventKind::RequestSpan {
                    request: rec.index as u64,
                    client: rec.client,
                    invocation: span.inv,
                    arrival: rec.arrival,
                    batch: rec.sent_at.saturating_duration_since(rec.arrival),
                    net_in,
                    queued: rec.queued,
                    exec,
                    net_out,
                    cold: rec.cold,
                    outcome: rec.outcome.into(),
                },
            });
        }
    }
}

impl Sink for OutcomeTable {
    fn unresolved(n: usize, _: impl Fn(usize) -> (usize, u32, SimTime)) -> Self {
        OutcomeTable::unresolved(n)
    }

    fn count(&self) -> usize {
        self.len()
    }

    fn sent(&mut self, _: usize, _: SimTime, _: u64) {}

    fn settle(&mut self, m: usize, fate: Fate, _: SimDuration) {
        self.set(m, fate);
    }

    fn place_into(self, table: &mut Self, first: usize, stride: usize) {
        table.place(&self, first, stride);
    }

    fn record_spans(&self, _: &[Span], _: &mut dyn Recorder, _: SimTime) {
        unreachable!("an outcome run records no trace");
    }
}

/// What a replay produced besides its deployment and trace: the sink and
/// the run's tallies.
struct Replayed<S> {
    table: S,
    cold_starts: Vec<(usize, ColdStartBreakdown)>,
    platform: PlatformReport,
    engine_events: u64,
    client_faults: u64,
    retries: u64,
}

impl Replayed<Vec<RequestRecord>> {
    fn into_run(self, deployment: &Deployment, trace: &WorkloadTrace) -> RunResult {
        RunResult {
            deployment: *deployment,
            workload: trace.shared_name(),
            duration: trace.duration(),
            records: self.table,
            cold_starts: self.cold_starts,
            platform: self.platform,
            engine_events: self.engine_events,
            client_faults: self.client_faults,
            retries: self.retries,
        }
    }
}

impl Replayed<OutcomeTable> {
    fn into_outcomes<'t>(
        self,
        deployment: &Deployment,
        trace: &'t WorkloadTrace,
    ) -> OutcomeRun<'t> {
        OutcomeRun {
            deployment: *deployment,
            trace,
            outcomes: self.table,
            cold_starts: self.cold_starts,
            platform: self.platform,
            engine_events: self.engine_events,
            client_faults: self.client_faults,
            retries: self.retries,
        }
    }
}

struct ExecSystem<'r, S> {
    platform: Platform,
    /// The cell's settled requests.
    sink: S,
    /// The cell's cold-start table, in resolution order until the run
    /// ends; see [`RunResult::cold_starts`].
    cold_starts: Vec<(usize, ColdStartBreakdown)>,
    /// Per-request span scratch; sized only when a recorder wants spans.
    spans: Vec<Span>,
    /// The whole trace's arrivals, which the lanes read strided.
    arrivals: &'r [SimTime],
    /// Clients in the whole run: the lanes' stride through `arrivals`.
    all_clients: usize,
    lanes: &'r mut [Lane],
    /// Per lane, the global id of its first invocation: invocations are
    /// numbered consecutively in send order, lane after lane.
    first_inv: &'r [usize],
    /// Per lane, its share of the first-attempt client jitter.
    jitters: &'r mut [FaultInjector],
    /// When each lane sends next, and which lane sends first.
    sends: &'r mut SendOrder,
    rings: &'r mut [Ring],
    /// Exact attempts of invocations past attempt 254.
    late_attempts: BTreeMap<usize, u32>,
    /// Exact payloads of invocations carrying [`u32::MAX`] bytes or more.
    large_payloads: BTreeMap<usize, u64>,
    feed: Feed,
    pool: &'r RequestPool,
    /// Request-path network time per pool payload; see [`transfer_table`].
    transfer: &'r [SimDuration],
    policy: BatchPolicy,
    inference_repeats: u32,
    network: NetworkProfile,
    /// Retry mode's receipt table and its free slots.
    receipts: &'r mut Vec<(usize, ServingResponse)>,
    free_receipts: &'r mut Vec<usize>,
    /// Platform scheduling buffer, drain scratch and trace sink.
    io: PlatformIo<'r>,
    /// Ids of requests the platform dropped unanswered, drained from it.
    dropped: &'r mut Vec<RequestId>,
    /// Client-path fault injector (packet loss, retry jitter).
    client_faults: FaultInjector,
    /// Retry machinery; everything below is inert when it is disabled.
    retry: RetryPolicy,
    /// Invocation count, for decoding attempt-encoded request ids.
    n_inv: usize,
    /// Response-path network time.
    response_net: SimDuration,
    /// Client HTTP timeout: a success received later counts as failed,
    /// and no retry is sent later than this after the first send.
    timeout: SimDuration,
    /// Re-sends issued so far, bounded by the policy budget.
    retries_used: u64,
    /// Deterministic jitter source for retry backoffs.
    backoff_rng: SimRng,
}

impl<S: Sink> ExecSystem<'_, S> {
    /// Sends the next invocation of lane `l`, the first of
    /// [`ExecSystem::sends`] at `send_at`: draws its members' payloads,
    /// tells the sink and opens its entry in the lane's ring. Inlined, so
    /// that what it returns stays in registers.
    #[inline(always)]
    fn send(&mut self, l: usize, send_at: SimTime) -> Sent {
        let (arrivals, stride) = (self.arrivals, self.all_clients);
        let lanes = self.lanes.len();
        let lane = &mut self.lanes[l];
        let (first, end) = (lane.next, lane.batch_end);
        let ring = &mut self.rings[l];
        let inv = self.first_inv[l] + ring.next();
        let (mut payload_bytes, mut payload_net) = (0, SimDuration::ZERO);
        for j in first..end {
            let m = j * lanes + l;
            let payload = self.pool.pick(&mut lane.payload_rng);
            self.sink.sent(m, send_at, payload.size_bytes);
            payload_bytes += payload.size_bytes;
            payload_net = self.transfer[payload.id as usize];
            if let Some(span) = self.spans.get_mut(m) {
                span.inv = inv as u64;
            }
        }
        let net_in = if end - first == 1 {
            payload_net
        } else {
            self.network.transfer_time(payload_bytes)
        };
        lane.next = end;
        let next_send = (end < lane.len).then(|| {
            let client = lane.client;
            let at = |j: usize| arrivals[client + j * stride];
            let send_at;
            (lane.batch_end, send_at) = self.policy.next_batch(end, lane.len, at);
            send_at
        });
        self.sends.refile_first(next_send);
        let bytes = match u32::try_from(payload_bytes) {
            Ok(bytes) if bytes < u32::MAX => bytes,
            _ => {
                self.large_payloads.insert(inv, payload_bytes);
                u32::MAX
            }
        };
        ring.push(
            bytes,
            u32::try_from(first).expect("a lane's requests fit in u32"),
        );
        Sent {
            inv,
            bytes,
            inferences: (end - first) as u32 * self.inference_repeats,
            net_in,
        }
    }

    /// Sends the next burst of lane invocations (earliest send first) and
    /// hands their first deliveries, and first-attempt timeouts, to the
    /// kernel; see [`Feed`].
    fn refill<K: StoreKind>(&mut self, queue: &mut EventQueue<ExecEvent, K>) {
        let mut sent = 0;
        self.feed.trigger = loop {
            // The earliest unsent send bounds every unsent event.
            let Some((watermark, l)) = self.sends.first() else {
                break None;
            };
            if sent >= ARRIVAL_BURST {
                if let Some(&ExecEvent::Deliver { id, .. }) = queue.last_fed_before(watermark) {
                    break Some(id);
                }
            }
            let (l, s) = (l as usize, self.send(l as usize, watermark));
            let deliver_at = watermark + s.net_in + self.jitters[l].client_jitter();
            let seq = self.feed.first_seq + s.inv as u64 * self.feed.stride;
            let delivery = ExecEvent::Deliver {
                id: s.inv,
                bytes: s.bytes,
                inferences: s.inferences,
            };
            queue.feed(deliver_at, seq, delivery);
            if self.retry.enabled() {
                let timeout_at = watermark + self.retry.attempt_timeout;
                let timeout = ExecEvent::AttemptTimeout(s.inv);
                queue.schedule_reserved([(timeout_at, seq + 1, timeout)]);
            }
            sent += 1;
        };
    }

    /// The lane that sent invocation `inv`.
    fn lane_of(&self, inv: usize) -> usize {
        // Counting instead of a binary search: lanes are few, and ids in
        // event order hop between them unpredictably.
        self.first_inv.iter().filter(|&&first| first <= inv).count() - 1
    }

    /// Invocation `inv`, while its client waits on it. Inlined, so that
    /// what it returns stays in registers.
    #[inline(always)]
    fn flight(&self, inv: usize) -> Option<Flight> {
        let l = self.lane_of(inv);
        let (lane, ring) = (&self.lanes[l], &self.rings[l]);
        let k = inv - self.first_inv[l];
        let attempt = match ring.attempt(k) {
            0 => return None,
            u8::MAX => self.late_attempts[&inv],
            a => u32::from(a),
        };
        let (first, end) = self
            .policy
            .positional_batch(k, lane.len)
            .unwrap_or_else(|| {
                let end = if k + 1 < ring.next() {
                    ring.start(k + 1) as usize
                } else {
                    lane.next
                };
                (ring.start(k) as usize, end)
            });
        Some(Flight {
            lane: l,
            k,
            first,
            end,
            attempt,
        })
    }

    /// Invocation `f`'s global id.
    fn inv(&self, f: &Flight) -> usize {
        self.first_inv[f.lane] + f.k
    }

    /// The bytes invocation `f` carries, and its delivery's `bytes`.
    fn payload(&self, f: &Flight) -> (u64, u32) {
        match self.rings[f.lane].payload(f.k) {
            u32::MAX => (self.large_payloads[&self.inv(f)], u32::MAX),
            bytes => (u64::from(bytes), bytes),
        }
    }

    /// When invocation `f` was first sent: the instant the batching
    /// policy gives the batch starting at its first member.
    fn send_at(&self, f: &Flight) -> SimTime {
        let (arrivals, stride) = (self.arrivals, self.all_clients);
        let lane = &self.lanes[f.lane];
        let at = |j: usize| arrivals[lane.client + j * stride];
        self.policy.next_batch(f.first, lane.len, at).1
    }

    /// Network time on invocation `f`'s request path (pre-jitter).
    fn net_in(&self, f: &Flight) -> SimDuration {
        self.network.transfer_time(self.payload(f).0)
    }

    /// Moves invocation `f` to attempt `attempt`; 0 stops waiting on it
    /// and drops every closed invocation at the front of its ring.
    fn set_attempt(&mut self, f: &Flight, attempt: u32) {
        let (inv, first_inv) = (self.inv(f), self.first_inv[f.lane]);
        let ring = &mut self.rings[f.lane];
        let byte = match u8::try_from(attempt) {
            Ok(a) if a < u8::MAX => {
                if ring.attempt(f.k) == u8::MAX {
                    self.late_attempts.remove(&inv);
                }
                a
            }
            _ => {
                self.late_attempts.insert(inv, attempt);
                u8::MAX
            }
        };
        ring.set_attempt(f.k, byte);
        while ring.slots.front().is_some_and(|s| s.attempt == 0) {
            if ring.payload(ring.oldest) == u32::MAX {
                self.large_payloads.remove(&(first_inv + ring.oldest));
            }
            ring.pop();
        }
    }

    fn drain<K: StoreKind>(&mut self, queue: &mut EventQueue<ExecEvent, K>) {
        if self.platform.has_dropped() {
            self.close_dropped();
        }
        if self.io.drain(&mut self.platform) {
            self.settle_drained(Some(queue));
        }
    }

    /// Closes the flights of requests the platform dropped unanswered,
    /// tracked only without retries: no response can reach their clients
    /// any more, and their entries stay client timeouts. Under retries
    /// their attempt timeouts find them as before.
    fn close_dropped(&mut self) {
        let mut dropped = std::mem::take(self.dropped);
        self.platform.drain_dropped_into(&mut dropped);
        for id in dropped.drain(..) {
            let f = self
                .flight(id.0 as usize)
                .expect("a dropped invocation is in flight");
            self.set_attempt(&f, 0);
        }
        *self.dropped = dropped;
    }

    /// Handles drained responses, read where the platform wrote them. A
    /// single attempt's fate is its response, settled at once; its exec
    /// time, which only its spans read, is what remains of the platform's
    /// span after its own queueing. Under retries a response is held for
    /// its client's receipt, or dropped once the engine has stopped
    /// (`queue` is `None`).
    fn settle_drained<K: StoreKind>(&mut self, mut queue: Option<&mut EventQueue<ExecEvent, K>>) {
        // Take the scratch out so settling can borrow `self` freely;
        // capacity is preserved across calls either way.
        let mut drained = std::mem::take(self.io.resp_scratch);
        for resp in &drained {
            let received_at = resp.completed_at + self.response_net;
            let id = resp.id.0 as usize;
            if !self.retry.enabled() {
                let f = self
                    .flight(id)
                    .expect("a delivered invocation is in flight");
                let exec = if self.spans.is_empty() {
                    SimDuration::ZERO
                } else {
                    let delivered = self.send_at(&f) + self.net_in(&f);
                    resp.completed_at
                        .saturating_duration_since(delivered + resp.queued)
                };
                self.resolve(&f, resp, received_at, exec);
            } else if let Some(queue) = queue.as_deref_mut() {
                let slot = match self.free_receipts.pop() {
                    Some(slot) => {
                        self.receipts[slot] = (id, *resp);
                        slot
                    }
                    None => {
                        self.receipts.push((id, *resp));
                        self.receipts.len() - 1
                    }
                };
                queue.schedule_at(received_at, ExecEvent::ClientRecv(slot));
            }
        }
        drained.clear();
        *self.io.resp_scratch = drained;
    }

    /// Fixes invocation `f`'s fate as `resp` has it, received by its
    /// client at `received_at`: settles it, and the exec time its spans
    /// report, for its members, and closes its flight.
    fn resolve(
        &mut self,
        f: &Flight,
        resp: &ServingResponse,
        received_at: SimTime,
        exec: SimDuration,
    ) {
        // Spans are only kept when tracing.
        let net_in = if self.spans.is_empty() {
            SimDuration::ZERO
        } else {
            self.net_in(f)
        };
        let (lanes, client) = (self.lanes.len(), self.lanes[f.lane].client);
        for j in f.first..f.end {
            let m = j * lanes + f.lane;
            let index = client + j * self.all_clients;
            if let Some(breakdown) = resp.cold_start {
                self.cold_starts.push((index, breakdown));
            }
            let e2e = received_at.saturating_duration_since(self.arrivals[index]);
            let (outcome, latency) = match resp.outcome {
                Outcome::Success if e2e > self.timeout => {
                    (Outcome::Failure(FailureReason::ClientTimeout), None)
                }
                Outcome::Success => (Outcome::Success, Some(e2e)),
                failure => (failure, None),
            };
            let fate = Fate {
                outcome,
                cold: resp.cold_start.is_some(),
                latency,
                predict: resp.predict,
            };
            self.sink.settle(m, fate, resp.queued);
            if let Some(span) = self.spans.get_mut(m) {
                span.parts = Some((received_at, net_in, exec, self.response_net));
            }
        }
        self.set_attempt(f, 0);
    }

    fn decode(&self, id: usize) -> (usize, u32) {
        if id < self.n_inv {
            // A first attempt, and without retries every event's: no
            // division on the common path.
            return (id, 1);
        }
        (id % self.n_inv, (id / self.n_inv) as u32 + 1)
    }

    /// The invocation attempt-encoded as `id`, if its client still waits
    /// on exactly that attempt; events about resolved invocations or
    /// abandoned attempts are stale.
    fn current(&self, id: usize) -> Option<Flight> {
        let (inv, attempt) = self.decode(id);
        self.flight(inv).filter(|f| f.attempt == attempt)
    }

    fn emit_fault(&mut self, at: SimTime, kind: FaultKind) {
        if let Some(r) = self.io.rec.as_deref_mut() {
            if r.enabled() {
                r.record(&TraceEvent {
                    at,
                    kind: EventKind::Fault {
                        component: None,
                        kind,
                    },
                });
            }
        }
    }

    /// One attempt failed (platform failure or per-attempt timeout):
    /// schedule the next attempt if policy, budget, and the overall
    /// deadline allow, otherwise fix the invocation's failure.
    fn attempt_failed<K: StoreKind>(
        &mut self,
        queue: &mut EventQueue<ExecEvent, K>,
        f: Flight,
        reason: FailureReason,
    ) {
        let attempt = f.attempt;
        let now = queue.now();
        if attempt < self.retry.max_attempts && self.retries_used < self.retry.budget {
            let base = (self.retry.base_backoff.as_secs_f64()
                * f64::from(1u32 << (attempt - 1).min(20)))
            .min(self.retry.max_backoff.as_secs_f64());
            let jitter = if self.retry.jitter > 0.0 {
                base * self.retry.jitter * self.backoff_rng.uniform()
            } else {
                0.0
            };
            let send_at = now + SimDuration::from_secs_f64(base + jitter);
            if send_at <= self.send_at(&f) + self.timeout {
                self.retries_used += 1;
                self.set_attempt(&f, attempt + 1);
                let id = attempt as usize * self.n_inv + self.inv(&f);
                let delivery = ExecEvent::Deliver {
                    id,
                    bytes: self.payload(&f).1,
                    inferences: (f.end - f.first) as u32 * self.inference_repeats,
                };
                let deliver_at = send_at + self.net_in(&f) + self.client_faults.client_jitter();
                queue.schedule_at(deliver_at, delivery);
                queue.schedule_at(
                    send_at + self.retry.attempt_timeout,
                    ExecEvent::AttemptTimeout(id),
                );
                return;
            }
        }
        // No further attempt: exhausted attempts surface as their own
        // failure class; budget or deadline exhaustion keeps the last
        // attempt's own reason.
        let final_reason = if attempt >= self.retry.max_attempts {
            FailureReason::RetriesExhausted
        } else {
            reason
        };
        let failure = ServingResponse {
            id: RequestId(self.inv(&f) as u64),
            outcome: Outcome::Failure(final_reason),
            completed_at: now,
            cold_start: None,
            predict: SimDuration::ZERO,
            queued: SimDuration::ZERO,
        };
        self.resolve(&f, &failure, now, SimDuration::ZERO);
    }
}

impl<S: Sink> System for ExecSystem<'_, S> {
    type Ev = ExecEvent;
    fn handle<K: StoreKind>(
        &mut self,
        queue: &mut EventQueue<ExecEvent, K>,
        _at: SimTime,
        ev: ExecEvent,
    ) {
        let sys = self;
        match ev {
            ExecEvent::Deliver {
                id,
                bytes,
                inferences,
            } => {
                if sys.feed.trigger == Some(id) {
                    sys.refill(queue);
                }
                // Only an attempt's timeout stops a client waiting before
                // the attempt lands, and only retries set one: without
                // them every delivery is current and locates nothing.
                if sys.retry.enabled() && sys.current(id).is_none() {
                    return;
                }
                if sys.client_faults.drop_packet() {
                    // The platform never sees the request; the attempt
                    // timeout (retry mode) or the client timeout (legacy
                    // mode) is what the client eventually observes.
                    sys.emit_fault(queue.now(), FaultKind::PacketLoss);
                    if !sys.retry.enabled() {
                        let f = sys
                            .current(id)
                            .expect("a delivered invocation is in flight");
                        sys.set_attempt(&f, 0);
                    }
                    return;
                }
                let payload_bytes = match bytes {
                    u32::MAX => sys.large_payloads[&sys.decode(id).0],
                    bytes => u64::from(bytes),
                };
                let req = ServingRequest {
                    id: RequestId(id as u64),
                    arrival: queue.now(),
                    payload_bytes,
                    inferences,
                };
                sys.io
                    .drive(&mut sys.platform, queue, ExecEvent::Platform, |p, s| {
                        p.submit(s, req)
                    });
            }
            ExecEvent::Platform(e) => {
                sys.io
                    .drive(&mut sys.platform, queue, ExecEvent::Platform, |p, s| {
                        p.handle(s, e)
                    });
            }
            ExecEvent::ClientRecv(slot) => {
                let (id, resp) = sys.receipts[slot];
                sys.free_receipts.push(slot);
                let Some(f) = sys.current(id) else {
                    return;
                };
                match resp.outcome {
                    Outcome::Success => {
                        // The winning attempt's exec time is approximated
                        // by its predict time: the retransmission history
                        // makes the phase algebra of the single-shot path
                        // moot.
                        sys.resolve(&f, &resp, queue.now(), resp.predict);
                    }
                    Outcome::Failure(reason) => {
                        sys.attempt_failed(queue, f, reason);
                    }
                }
            }
            ExecEvent::AttemptTimeout(id) => {
                let Some(f) = sys.current(id) else {
                    return;
                };
                sys.attempt_failed(queue, f, FailureReason::ClientTimeout);
            }
        }
        sys.drain(queue);
    }
}

impl Executor {
    /// An executor with the given configuration.
    pub fn new(cfg: ExecutorConfig) -> Self {
        Executor {
            cfg,
            faults: FaultPlan::none(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.cfg
    }

    /// Installs a fault plan on every run this executor performs. The plan
    /// is threaded into the platform (crashes, storage faults, throttling,
    /// outages) and into the client path (jitter, packet loss); an empty
    /// plan is a byte-identical no-op.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The installed fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The request pool an executor builds for `model`.
    pub fn pool_for(&self, model: ModelKind, samples_per_request: u32) -> RequestPool {
        RequestPool::generate(input_kind(model), self.cfg.pool_size)
            .with_samples_per_request(samples_per_request)
    }

    /// Enables intra-run sharding with the given worker budget; see
    /// [`ExecutorConfig::shards`].
    #[must_use]
    pub fn with_shards(mut self, workers: usize) -> Self {
        self.cfg.shards = workers.max(1);
        self
    }

    /// The sharding worker budget, if sharded mode is on.
    pub fn shards(&self) -> Option<usize> {
        (self.cfg.shards > 0).then_some(self.cfg.shards)
    }

    /// Replays `trace` against `deployment`, returning per-request records
    /// and the platform report.
    ///
    /// # Errors
    /// Fails when the deployment is invalid.
    pub fn run(
        &self,
        deployment: &Deployment,
        trace: &WorkloadTrace,
        seed: Seed,
    ) -> Result<RunResult, PlanError> {
        let run = self.replay(deployment, None, trace, seed, None)?;
        Ok(run.into_run(deployment, trace))
    }

    /// Like [`Executor::run`] but settles each request into an
    /// [`OutcomeTable`] instead of a record: the same replay, holding 17 B
    /// per request instead of 72, for callers that only analyze it (see
    /// [`crate::analyzer::analyze_outcomes`]).
    ///
    /// # Errors
    /// Fails when the deployment is invalid.
    pub fn run_outcomes<'t>(
        &self,
        deployment: &Deployment,
        trace: &'t WorkloadTrace,
        seed: Seed,
    ) -> Result<OutcomeRun<'t>, PlanError> {
        let run = self.replay(deployment, None, trace, seed, None)?;
        Ok(run.into_outcomes(deployment, trace))
    }

    /// Like [`Executor::run`] but streams every trace event — platform
    /// lifecycle, per-request spans, and the closing summary — into `rec`.
    /// Recording is write-only: the returned [`RunResult`] is identical to
    /// the one an unrecorded run produces.
    ///
    /// # Errors
    /// Fails when the deployment is invalid.
    pub fn run_recorded(
        &self,
        deployment: &Deployment,
        trace: &WorkloadTrace,
        seed: Seed,
        rec: &mut dyn Recorder,
    ) -> Result<RunResult, PlanError> {
        let run = self.replay(deployment, None, trace, seed, Some(rec))?;
        Ok(run.into_run(deployment, trace))
    }

    /// Replays `trace` against an already-built platform. This is the
    /// ablation entry point: callers may hand-construct a platform whose
    /// knobs the [`Deployment`] surface does not expose (e.g. a custom
    /// over-provisioning factor); `deployment` is then only descriptive
    /// metadata for the records. Always one cell of every client on
    /// `seed`: a single pre-built platform cannot be split into per-client
    /// cells, so [`ExecutorConfig::shards`] is ignored here.
    pub fn run_built(
        &self,
        deployment: &Deployment,
        platform: Platform,
        trace: &WorkloadTrace,
        seed: Seed,
    ) -> RunResult {
        self.run_built_recorded(deployment, platform, trace, seed, None)
    }

    /// [`Executor::run_built`] settled into an [`OutcomeTable`]; see
    /// [`Executor::run_outcomes`].
    pub fn run_built_outcomes<'t>(
        &self,
        deployment: &Deployment,
        platform: Platform,
        trace: &'t WorkloadTrace,
        seed: Seed,
    ) -> OutcomeRun<'t> {
        self.replay(deployment, Some(platform), trace, seed, None)
            .expect("a pre-built platform needs no validation")
            .into_outcomes(deployment, trace)
    }

    /// [`Executor::run_built`] with an optional trace recorder attached.
    pub fn run_built_recorded(
        &self,
        deployment: &Deployment,
        platform: Platform,
        trace: &WorkloadTrace,
        seed: Seed,
        rec: Option<&mut dyn Recorder>,
    ) -> RunResult {
        self.replay(deployment, Some(platform), trace, seed, rec)
            .expect("a pre-built platform needs no validation")
            .into_run(deployment, trace)
    }

    /// Replays `trace` as cells and reassembles one result, settled into
    /// sink `S`. On a pre-built `platform`, or unsharded, the run is one
    /// cell of every client on `seed`: it runs inline, streams straight
    /// into `rec`, and its sink moves through uncopied. Sharded, each
    /// client is its own cell on the seed's `("shard", client)` substream
    /// with its own platform; cells run on up to [`ExecutorConfig::shards`]
    /// workers, their trace events reach `rec` in cell order as they
    /// finish (see [`fan_out`]), and each cell's entries go to their trace
    /// positions as soon as it finishes, so the run holds one table. The
    /// decomposition depends only on the client count, never on the
    /// worker budget.
    fn replay<S: Sink>(
        &self,
        deployment: &Deployment,
        platform: Option<Platform>,
        trace: &WorkloadTrace,
        seed: Seed,
        rec: Option<&mut dyn Recorder>,
    ) -> Result<Replayed<S>, PlanError> {
        let n_clients = self.cfg.clients.max(1);
        let clients = 0..n_clients as u32;
        let cells: Vec<Cell> = if platform.is_some() || self.cfg.shards == 0 {
            vec![Cell::new(seed, clients.collect())]
        } else {
            let shard = |c: u32| seed.substream_indexed("shard", u64::from(c));
            clients.map(|c| Cell::new(shard(c), vec![c])).collect()
        };
        if platform.is_none() {
            // Validate once up front so every cell can assume its platform
            // builds (building is deterministic in the seed).
            deployment.validate()?;
        }
        let mut rec = rec.filter(|r| r.enabled());
        let run = if let [cell] = cells.as_slice() {
            let cell_rec = rec.as_deref_mut().map(|r| r as &mut dyn Recorder);
            self.run_cell(deployment, platform, trace, cell, cell_rec)
        } else {
            let table = Mutex::new(S::unresolved(trace.arrivals().len(), |_| {
                (0, 0, SimTime::ZERO)
            }));
            let mut outs = fan_out(
                self.cfg.shards,
                &cells,
                rec.as_deref_mut().map(|r| r as &mut dyn Recorder),
                "executor/merge",
                |cell, cell_rec| {
                    let mut out: Replayed<S> =
                        self.run_cell(deployment, None, trace, cell, cell_rec);
                    let part = std::mem::take(&mut out.table);
                    let mut table = table.lock().unwrap_or_else(PoisonError::into_inner);
                    // A cell's client owns every `n_clients`-th request.
                    part.place_into(&mut table, cell.clients[0] as usize, n_clients);
                    out
                },
            );
            let reports: Vec<PlatformReport> = outs.iter().map(|o| o.platform.clone()).collect();
            // The run's cold-start table: every cell's, in cell order,
            // sorted by index.
            let mut cold_starts =
                Vec::with_capacity(outs.iter().map(|o| o.cold_starts.len()).sum());
            for out in &mut outs {
                cold_starts.append(&mut out.cold_starts);
            }
            cold_starts.sort_unstable_by_key(|&(i, _)| i);
            Replayed {
                table: table.into_inner().unwrap_or_else(PoisonError::into_inner),
                cold_starts,
                platform: PlatformReport::merge_shards(&reports),
                engine_events: outs.iter().map(|o| o.engine_events).sum(),
                client_faults: outs.iter().map(|o| o.client_faults).sum(),
                retries: outs.iter().map(|o| o.retries).sum(),
            }
        };
        if let Some(r) = rec {
            let end = RunEnd::new(trace.duration(), self.cfg.timeout);
            close_trace(r, end, run.engine_events, run.table.count() as u64);
        }
        Ok(run)
    }

    /// Replays one cell on this thread's run arena, on `platform` or, when
    /// none is given, on one built from the cell seed.
    fn run_cell<S: Sink>(
        &self,
        deployment: &Deployment,
        platform: Option<Platform>,
        trace: &WorkloadTrace,
        cell: &Cell,
        rec: Option<&mut dyn Recorder>,
    ) -> Replayed<S> {
        let platform = platform.unwrap_or_else(|| {
            deployment
                .build(cell.seed)
                .expect("deployment validated before the replay")
        });
        ARENA.with(|arena| {
            let (mut arena, rec) = (arena.borrow_mut(), rec.map(|r| r as &mut dyn Recorder));
            self.run_cell_in(deployment, platform, trace, cell, rec, &mut arena)
        })
    }

    /// Replays one cell against its platform. Its clients' requests
    /// (round-robin over all clients, the paper's splitter) in ascending
    /// global trace index form its local sink. Each client is a [`Lane`]
    /// drawing from its own `("client", id)` stream of the cell seed; the
    /// lanes send as their batches come up and the [`Feed`] hands their
    /// deliveries to the kernel. All run-lifetime state besides the sink
    /// lives in `arena`.
    #[allow(clippy::too_many_lines)]
    fn run_cell_in<'a, S: Sink>(
        &self,
        deployment: &Deployment,
        mut platform: Platform,
        trace: &'a WorkloadTrace,
        cell: &Cell,
        rec: Option<&'a mut dyn Recorder>,
        arena: &'a mut RunArena,
    ) -> Replayed<S> {
        // Root-attached on purpose: a cell runs inline under `--jobs 1`
        // but on a pool worker otherwise, and the profile tree must not
        // depend on which thread hosts it.
        let _cell = ProfGuard::enter_root("executor/cell");
        let tracing = rec.as_deref().is_some_and(|r| r.enabled());
        let retrying = self.cfg.retry.enabled();
        let seed = cell.seed;
        let end = RunEnd::new(trace.duration(), self.cfg.timeout);
        let all_clients = self.cfg.clients.max(1);
        let arrivals = trace.arrivals();
        // Request i belongs to client i % all_clients: full rounds give
        // every client one request, the last partial round only the
        // clients below the remainder.
        let lane_len =
            |c: usize| arrivals.len() / all_clients + usize::from(c < arrivals.len() % all_clients);
        let n: usize = cell.clients.iter().map(|&c| lane_len(c as usize)).sum();
        // An empty plan installs an injector that never draws, so this is
        // unconditional without costing byte-identity.
        platform.set_faults(&self.faults, seed);
        // A hint for the run's first few dozen in flight: the platform's
        // queues and slabs then grow to what the run really holds. Sized
        // for all `n` (capped at 4096), a W200 serverless replay reserved
        // about 450 KB of pending requests and instance slots it never used.
        platform.reserve(n.min(64));
        if !retrying {
            platform.track_dropped();
        }

        let arrivals_guard = ProfGuard::enter("executor/arrivals");
        arena.begin();
        let slots = cell.clients.len();
        if arena.rings.len() < slots {
            arena.rings.resize_with(slots, Ring::default);
        }
        let RunArena {
            lanes,
            first_inv,
            sends,
            jitters,
            rings,
            receipts,
            free_receipts,
            resp_scratch,
            dropped,
            buffer,
            pool: pool_memo,
            transfer,
        } = arena;

        let pool = pooled(
            pool_memo,
            input_kind(deployment.model),
            self.cfg.pool_size,
            deployment.samples_per_request,
        );
        transfer_table(transfer, pool, &self.cfg.network);
        let policy = self
            .cfg
            .batch_override
            .unwrap_or(if deployment.batch_size > 1 {
                BatchPolicy::Fixed(deployment.batch_size)
            } else {
                BatchPolicy::None
            });
        let rings = &mut rings[..slots];
        for ring in rings.iter_mut() {
            ring.adaptive = matches!(policy, BatchPolicy::Adaptive { .. });
        }

        // Invocations are numbered lane after lane, in send order within a
        // lane, so each lane counts its batches up front. First-attempt
        // client-path jitter is one sequence in that order, each lane
        // drawing its own share; retry-time draws then follow in event
        // order — both deterministic.
        let mut client_faults =
            FaultInjector::new(self.faults.clone(), seed.substream("client-faults"));
        let mut n_inv = 0;
        for (c_lane, &c) in (0..).zip(&cell.clients) {
            let (client, len) = (c as usize, lane_len(c as usize));
            let at = |j: usize| arrivals[client + j * all_clients];
            let batches = policy.batches(len, at);
            let mut batch_end = 0;
            if len > 0 {
                let send_at;
                (batch_end, send_at) = policy.next_batch(0, len, at);
                sends.file(send_at, c_lane);
            }
            first_inv.push(n_inv);
            jitters.push(client_faults.split_jitter(batches as u64));
            lanes.push(Lane {
                client,
                len,
                next: 0,
                batch_end,
                payload_rng: seed.substream_indexed("client", u64::from(c)).rng(),
            });
            n_inv += batches;
        }
        drop(arrivals_guard);

        let engine_guard = ProfGuard::enter("executor/engine");
        let queue = EventQueue::<ExecEvent>::with_store_capacity(1024);
        let spans = if tracing {
            vec![Span::default(); n]
        } else {
            Vec::new()
        };
        // Entry m is lane m % slots's request m / slots.
        let sink = S::unresolved(n, |m| {
            let client = lanes[m % slots].client;
            let index = m / slots * all_clients + client;
            (index, client as u32, arrivals[index])
        });
        let mut engine = Engine::with_queue(
            ExecSystem {
                platform,
                sink,
                cold_starts: Vec::new(),
                spans,
                arrivals,
                all_clients,
                lanes: lanes.as_mut_slice(),
                first_inv: first_inv.as_slice(),
                jitters: jitters.as_mut_slice(),
                sends,
                rings,
                late_attempts: BTreeMap::new(),
                large_payloads: BTreeMap::new(),
                feed: Feed {
                    first_seq: 0,
                    stride: if retrying { 2 } else { 1 },
                    trigger: None,
                },
                pool,
                transfer,
                policy,
                inference_repeats: deployment.inference_repeats,
                network: self.cfg.network,
                receipts,
                free_receipts,
                io: PlatformIo {
                    buffer,
                    resp_scratch,
                    rec,
                },
                dropped,
                client_faults,
                retry: self.cfg.retry,
                n_inv,
                response_net: self.cfg.network.response_time(),
                timeout: self.cfg.timeout,
                retries_used: 0,
                backoff_rng: seed.substream("retry-backoff").rng(),
            },
            queue,
        );

        // Platform startup at t = 0, then the first burst of deliveries,
        // under sequence numbers reserved for every first delivery (and,
        // under retries, first-attempt timeout) right after startup's.
        let sys = &mut engine.system;
        sys.io.drive(
            &mut sys.platform,
            &mut engine.queue,
            ExecEvent::Platform,
            |p, s| {
                p.start(s, end.workload_end);
            },
        );
        sys.feed.first_seq = engine.queue.reserve_seqs(sys.feed.stride * n_inv as u64);
        sys.refill(&mut engine.queue);

        engine.run_until(end.horizon);
        engine.queue.advance_to(end.horizon);
        // Responses drained at teardown settle like any other; under
        // retries no client can receive them any more.
        let sys = &mut engine.system;
        sys.io.finish(&mut sys.platform, end.teardown);
        sys.settle_drained::<Wheel>(None);
        drop(engine_guard);
        let _resolve = ProfGuard::enter("executor/resolve");

        // Batches that would only have been delivered past the horizon
        // still reach the sink.
        while let Some((send_at, l)) = sys.sends.first() {
            sys.send(l as usize, send_at);
        }
        let engine_events = engine.events_processed();
        let mut sys = engine.system;
        for ring in sys.rings.iter_mut() {
            ring.release();
        }
        sys.cold_starts.sort_unstable_by_key(|&(i, _)| i);
        let recorder = sys.io.rec.take();

        if let Some(r) = recorder {
            if r.enabled() {
                let _p = ProfGuard::enter("executor/spans");
                sys.sink.record_spans(&sys.spans, r, end.horizon);
            }
        }

        Replayed {
            table: sys.sink,
            cold_starts: sys.cold_starts,
            platform: sys.platform.report(),
            engine_events,
            client_faults: sys.client_faults.injected(),
            retries: sys.retries_used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slsb_model::RuntimeKind;
    use slsb_platform::PlatformKind;

    use slsb_workload::{MmppSpec, WorkloadTrace};

    fn small_trace(rate: f64, secs: u64) -> WorkloadTrace {
        MmppSpec {
            name: "test",
            rate_high: rate,
            rate_low: rate / 4.0,
            mean_high_dwell: SimDuration::from_secs(20),
            mean_low_dwell: SimDuration::from_secs(40),
            duration: SimDuration::from_secs(secs),
        }
        .generate(Seed(99))
    }

    fn deployment(platform: PlatformKind) -> Deployment {
        Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115)
    }

    #[test]
    fn every_request_is_resolved() {
        let exec = Executor::default();
        let trace = small_trace(10.0, 120);
        for platform in [
            PlatformKind::AwsServerless,
            PlatformKind::AwsManagedMl,
            PlatformKind::AwsCpu,
            PlatformKind::AwsGpu,
        ] {
            let run = exec.run(&deployment(platform), &trace, Seed(1)).unwrap();
            assert_eq!(run.records.len(), trace.len());
            // No unresolved successes-without-latency.
            for r in &run.records {
                if r.outcome.is_success() {
                    assert!(r.latency.is_some());
                }
            }
        }
    }

    #[test]
    fn a_record_is_72_bytes() {
        // A replay that keeps records holds one per request: a
        // cold-start breakdown inline would add 40 B to each.
        assert_eq!(std::mem::size_of::<RequestRecord>(), 72);
    }

    #[test]
    fn an_event_is_24_bytes() {
        // A delivery carries its payload size and inference count, packed
        // into the room the platform's own events take anyway.
        assert_eq!(std::mem::size_of::<ExecEvent>(), 24);
    }

    /// A ring whose window slides keeps every invocation's attempt,
    /// payload and start where its number finds it.
    #[test]
    fn a_ring_keeps_its_window_as_it_slides() {
        for adaptive in [false, true] {
            let mut ring = Ring {
                adaptive,
                ..Ring::default()
            };
            let payload = |k: usize| (k * 7) as u32;
            for k in 0..200 {
                ring.push(payload(k), (3 * k) as u32);
                // Close the oldest every third send.
                if k % 3 == 2 {
                    ring.set_attempt(ring.oldest, 0);
                    ring.pop();
                }
            }
            assert_eq!(ring.next(), 200);
            for k in 0..200 {
                if k < ring.oldest {
                    assert_eq!(ring.attempt(k), 0, "{k}");
                    continue;
                }
                assert_eq!(ring.attempt(k), 1, "{k}");
                assert_eq!(ring.payload(k), payload(k), "{k}");
                if adaptive {
                    assert_eq!(ring.start(k), (3 * k) as u32, "{k}");
                }
            }
            ring.release();
            assert!(ring.starts.is_empty() && ring.next() == 0);
        }
    }

    /// Lanes send in `(instant, lane)` order however they are filed.
    #[test]
    fn lanes_send_earliest_first_ties_to_the_lowest_lane() {
        let t = SimTime::from_micros;
        let mut order = SendOrder::default();
        for (at, lane) in [(5, 3), (2, 1), (5, 0), (9, 2), (2, 4)] {
            order.file(t(at), lane);
        }
        let mut sent = Vec::new();
        let mut next = [Some(t(5)), None, Some(t(11)), None, Some(t(5))].into_iter();
        while let Some((at, lane)) = order.first() {
            sent.push((at.as_micros(), lane));
            order.refile_first(next.next().flatten());
        }
        assert_eq!(
            sent,
            [
                (2, 1),
                (2, 4),
                (5, 0),
                (5, 1),
                (5, 3),
                (5, 3),
                (9, 2),
                (11, 0)
            ]
        );
    }

    #[test]
    fn serverless_succeeds_under_burst() {
        let exec = Executor::default();
        let trace = small_trace(30.0, 120);
        let run = exec
            .run(&deployment(PlatformKind::AwsServerless), &trace, Seed(2))
            .unwrap();
        assert!(run.success_ratio() > 0.99, "SR {}", run.success_ratio());
        assert!(run.platform.cold_started > 0);
    }

    #[test]
    fn warm_serverless_latency_is_small() {
        let exec = Executor::default();
        let trace = small_trace(10.0, 300);
        let run = exec
            .run(&deployment(PlatformKind::AwsServerless), &trace, Seed(3))
            .unwrap();
        // Average warm latency (excluding cold starts) well under a second.
        let warm: Vec<f64> = run
            .successes()
            .filter(|r| !r.cold)
            .filter_map(|r| r.latency.map(|l| l.as_secs_f64()))
            .collect();
        assert!(!warm.is_empty());
        let mean = warm.iter().sum::<f64>() / warm.len() as f64;
        assert!(mean < 0.3, "warm mean {mean}");
    }

    #[test]
    fn cpu_server_collapses_at_high_rate() {
        let exec = Executor::default();
        let trace = small_trace(120.0, 180);
        let run = exec
            .run(&deployment(PlatformKind::AwsCpu), &trace, Seed(4))
            .unwrap();
        assert!(
            run.success_ratio() < 0.8,
            "CPU server should drop requests: SR {}",
            run.success_ratio()
        );
    }

    #[test]
    fn batching_delays_requests_but_cuts_invocations() {
        let exec = Executor::default();
        let trace = small_trace(20.0, 120);
        let single = exec
            .run(&deployment(PlatformKind::AwsServerless), &trace, Seed(5))
            .unwrap();
        let batched_dep = deployment(PlatformKind::AwsServerless).with_batch_size(8);
        let batched = exec.run(&batched_dep, &trace, Seed(5)).unwrap();
        assert!(batched.platform.invocations * 4 < single.platform.invocations);
        let mean = |r: &RunResult| {
            let v: Vec<f64> = r
                .successes()
                .filter_map(|x| x.latency.map(|l| l.as_secs_f64()))
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(&batched) > mean(&single), "batching must add latency");
    }

    #[test]
    fn batched_records_share_invocation_but_keep_own_arrival() {
        let exec = Executor::default();
        let trace = small_trace(20.0, 60);
        let dep = deployment(PlatformKind::AwsServerless).with_batch_size(4);
        let run = exec.run(&dep, &trace, Seed(6)).unwrap();
        // sent_at ≥ arrival always; strictly greater for early batch members.
        assert!(run.records.iter().all(|r| r.sent_at >= r.arrival));
        assert!(run.records.iter().any(|r| r.sent_at > r.arrival));
    }

    #[test]
    fn invalid_deployment_is_rejected() {
        let exec = Executor::default();
        let trace = small_trace(5.0, 30);
        let dep = Deployment::new(
            PlatformKind::GcpManagedMl,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        assert!(exec.run(&dep, &trace, Seed(7)).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let exec = Executor::default();
        let trace = small_trace(15.0, 90);
        let dep = deployment(PlatformKind::AwsServerless);
        let a = exec.run(&dep, &trace, Seed(8)).unwrap();
        let b = exec.run(&dep, &trace, Seed(8)).unwrap();
        assert_eq!(a.records, b.records);
        let c = exec.run(&dep, &trace, Seed(9)).unwrap();
        assert_ne!(a.records, c.records);
    }

    /// A lane keeps attempts past 254 outside its one-byte window: an
    /// outage fails every attempt at once, each attempt's timeout goes
    /// stale, and every invocation still makes exactly its 300 attempts.
    #[test]
    fn attempts_past_a_byte_are_tracked_exactly() {
        let mut plan = FaultPlan::none();
        plan.outages.push(slsb_platform::OutageWindow {
            start_s: 0.0,
            duration_s: 1e6,
        });
        let exec = Executor::new(ExecutorConfig {
            retry: RetryPolicy {
                max_attempts: 300,
                base_backoff: SimDuration::ZERO,
                jitter: 0.0,
                ..RetryPolicy::standard()
            },
            ..ExecutorConfig::default()
        })
        .with_faults(plan);
        let trace = small_trace(2.0, 20);
        let run = exec
            .run(&deployment(PlatformKind::AwsServerless), &trace, Seed(11))
            .unwrap();
        assert!(!run.records.is_empty());
        assert_eq!(run.retries, 299 * run.records.len() as u64);
        assert!(run
            .records
            .iter()
            .all(|r| r.outcome == Outcome::Failure(FailureReason::RetriesExhausted)));
    }

    /// An invocation of 4 GiB or more keeps its exact size outside its
    /// four-byte window slot: every traced span's request-path network
    /// time is that of its own payload, first attempts and retries alike.
    #[test]
    fn payloads_past_four_gib_keep_their_size() {
        let network = NetworkProfile {
            bandwidth_mb_per_sec: 1e6,
            ..NetworkProfile::DEFAULT
        };
        let mut plan = FaultPlan::none();
        plan.packet_loss = 0.3;
        let exec = Executor::new(ExecutorConfig {
            network,
            retry: RetryPolicy {
                base_backoff: SimDuration::from_millis(50),
                ..RetryPolicy::standard()
            },
            ..ExecutorConfig::default()
        })
        .with_faults(plan);
        let dep = Deployment {
            samples_per_request: 100_000,
            ..deployment(PlatformKind::AwsServerless)
        };
        let trace = small_trace(5.0, 30);
        let mut rec = slsb_obs::MemoryRecorder::new();
        let run = exec.run_recorded(&dep, &trace, Seed(12), &mut rec).unwrap();
        assert!(run.retries > 0);
        assert!(run
            .records
            .iter()
            .all(|r| r.payload_bytes > u64::from(u32::MAX)));
        let mut answered = 0;
        for e in rec.events() {
            if let EventKind::RequestSpan {
                request, net_in, ..
            } = e.kind
            {
                let r = &run.records[request as usize];
                if r.outcome.is_success() {
                    answered += 1;
                    assert_eq!(net_in, network.transfer_time(r.payload_bytes), "{r:?}");
                }
            }
        }
        assert!(answered > run.records.len() / 2, "{answered} answered");
    }

    /// The transfer table holds, bit for bit, what `transfer_time` gives
    /// each payload of the image and text pools.
    #[test]
    fn transfer_table_matches_transfer_time() {
        let odd = NetworkProfile {
            one_way_latency: SimDuration::from_micros(3),
            bandwidth_mb_per_sec: 7.3,
        };
        let mut table = Vec::new();
        for network in [NetworkProfile::DEFAULT, odd] {
            for kind in [InputKind::Image, InputKind::Text] {
                for samples in [1, 3, 10, 64] {
                    let pool = RequestPool::default_for(kind).with_samples_per_request(samples);
                    transfer_table(&mut table, &pool, &network);
                    assert_eq!(table.len(), pool.len());
                    for p in pool.payloads() {
                        assert_eq!(
                            table[p.id as usize],
                            network.transfer_time(p.size_bytes),
                            "{kind:?} x{samples}, {} bytes",
                            p.size_bytes
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_trace_runs_cleanly() {
        let exec = Executor::default();
        let trace = WorkloadTrace::new("empty", SimDuration::from_secs(10), vec![]);
        let run = exec
            .run(&deployment(PlatformKind::AwsServerless), &trace, Seed(10))
            .unwrap();
        assert!(run.records.is_empty());
        assert_eq!(run.success_ratio(), 1.0);
    }
}
