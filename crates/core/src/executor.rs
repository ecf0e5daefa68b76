//! The executor (paper Figure 3): an open-loop client fleet replaying a
//! workload trace against one simulated serving system.
//!
//! Requests fire at their trace timestamps regardless of outstanding
//! responses (the paper's clients replay a pre-generated workload), each
//! client draws its payload from the shared request pool, and a per-request
//! HTTP timeout converts slow responses into failures — the mechanism
//! behind every success-ratio number in the evaluation.
//!
//! Requests go to clients round-robin and a run replays as
//! [cells](crate::cell): unsharded, one cell holds every client on the run
//! seed and one platform; sharded ([`ExecutorConfig::shards`] ≥ 1), each
//! client is a cell of its own on the seed's `("shard", client)`
//! substream with its own platform. Both modes run the same cell replay,
//! fan-out and reassembly. On top of the shared cell layer the executor
//! adds its client layer: batching, retries and client-path faults.

use crate::batching::{plan_invocations_into, BatchPolicy, InvocationPlan};
use crate::cell::{close_trace, fan_out, Cell, PlatformIo, RunEnd};
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
use std::sync::Arc;

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
                // A year bounds every backoff and timeout far below where
                // instant arithmetic could overflow.
                const MAX_SECS: f64 = 365.0 * 86_400.0;
                let s: f64 = num(key, value)?;
                (0.0..=MAX_SECS)
                    .contains(&s)
                    .then(|| SimDuration::from_secs_f64(s))
                    .ok_or_else(|| format!("retry spec '{key}' must be in [0, {MAX_SECS}] s"))
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
        if p.max_attempts == 0 {
            return Err("retry spec needs attempts >= 1".into());
        }
        if !(0.0..=10.0).contains(&p.jitter) {
            return Err(format!("retry jitter {} out of range [0, 10]", p.jitter));
        }
        Ok(p)
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
    /// End-to-end latency from `arrival` to client receive (present for
    /// successes).
    pub latency: Option<SimDuration>,
    /// Cold-start breakdown when one was on this request's path.
    pub cold_start: Option<ColdStartBreakdown>,
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
    /// An invocation's payload reaches the platform. In retry mode the id
    /// encodes the attempt: `id = (attempt - 1) · n_invocations + inv`.
    Deliver(usize),
    Platform(PlatformEvent),
    /// A platform response reaches the issuing client (retry mode only);
    /// carries an index into the response log.
    ClientRecv(usize),
    /// An attempt's per-attempt timeout expired (retry mode only); carries
    /// the attempt-encoded invocation id.
    AttemptTimeout(usize),
}

/// The client-side fate of one invocation, fixed the moment the issuing
/// client stops waiting (accepts a response, exhausts retries, or hits a
/// deadline).
#[derive(Debug, Clone, Copy)]
struct Resolution {
    outcome: Outcome,
    /// When the client received the resolving response (successes).
    received_at: SimTime,
    predict: SimDuration,
    queued: SimDuration,
    cold_start: Option<ColdStartBreakdown>,
}

impl Resolution {
    /// The fate `resp` fixes when its client receives it at `at`.
    fn received(resp: ServingResponse, at: SimTime) -> Resolution {
        Resolution {
            outcome: resp.outcome,
            received_at: at,
            predict: resp.predict,
            queued: resp.queued,
            cold_start: resp.cold_start,
        }
    }
}

/// Per-request span scratch: `(receive, net_in, exec, net_out)`.
type SpanParts = (SimTime, SimDuration, SimDuration, SimDuration);

/// Memoized request pool: pools are pure functions of `(kind, size,
/// samples)`, so a run can reuse the previous run's pool whenever the key
/// matches instead of regenerating (and reallocating) it.
struct PoolMemo {
    kind: InputKind,
    size: usize,
    samples: u32,
    pool: RequestPool,
}

/// Run-lifetime buffers, recycled across runs on the same thread.
///
/// Everything the executor used to allocate per run — per-client arrival
/// lists, the invocation plan, the per-invocation tables, retry state and
/// its response log (responses settle as they drain, as in the fleet, so
/// only retries log them), span scratch — lives here. Buffers are
/// `clear()`ed (keeping capacity) instead of dropped, so on a thread
/// replaying many traces (replication, benches) the steady-state request
/// path performs no per-request heap allocation. One arena per thread via
/// [`ARENA`]; worker threads in a sharded or replicated run each get their
/// own.
#[derive(Default)]
struct RunArena {
    client_rngs: Vec<SimRng>,
    per_client: Vec<Vec<(usize, SimTime)>>,
    plan: InvocationPlan,
    payload_per_invocation: Vec<u64>,
    inferences_per_invocation: Vec<u32>,
    net_in: Vec<SimDuration>,
    deliver_at: Vec<SimTime>,
    deadline: Vec<SimTime>,
    attempt: Vec<u32>,
    resolution: Vec<Option<Resolution>>,
    inv_of: Vec<u64>,
    spans: Vec<Option<SpanParts>>,
    responses: Vec<(usize, ServingResponse)>,
    resp_scratch: Vec<ServingResponse>,
    buffer: Vec<(SimDuration, PlatformEvent)>,
    pool: Option<PoolMemo>,
}

impl RunArena {
    /// Empties every buffer (keeping capacity) ahead of a run. The pool
    /// memo survives: pools are deterministic in their key, so reuse can
    /// never change results.
    fn begin(&mut self) {
        self.client_rngs.clear();
        for c in &mut self.per_client {
            c.clear();
        }
        self.plan.clear();
        self.payload_per_invocation.clear();
        self.inferences_per_invocation.clear();
        self.net_in.clear();
        self.deliver_at.clear();
        self.deadline.clear();
        self.attempt.clear();
        self.resolution.clear();
        self.inv_of.clear();
        self.spans.clear();
        self.responses.clear();
        self.resp_scratch.clear();
        self.buffer.clear();
    }
}

thread_local! {
    /// The calling thread's run arena. Runs borrow it for their whole
    /// duration; the executor never re-enters itself, so the `RefCell`
    /// borrow cannot conflict.
    static ARENA: RefCell<RunArena> = RefCell::new(RunArena::default());
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

/// A request the client has not yet heard back about: it times out
/// unless a response resolves it.
fn unresolved(index: usize, client: u32, arrival: SimTime, payload_bytes: u64) -> RequestRecord {
    RequestRecord {
        index,
        client,
        arrival,
        sent_at: arrival,
        payload_bytes,
        outcome: Outcome::Failure(FailureReason::ClientTimeout),
        latency: None,
        cold_start: None,
        predict: SimDuration::ZERO,
        queued: SimDuration::ZERO,
    }
}

struct ExecSystem<'r> {
    platform: Platform,
    /// The cell's local record table, settled as responses drain.
    records: Vec<RequestRecord>,
    /// Per-record span scratch; sized only when a recorder wants spans.
    spans: &'r mut [Option<SpanParts>],
    /// The run's invocations (send instants + member record indices).
    plan: &'r InvocationPlan,
    payload_per_invocation: &'r [u64],
    inferences_per_invocation: &'r [u32],
    /// Retry mode's response log (attempt-encoded invocation id →
    /// response), indexed by [`ExecEvent::ClientRecv`].
    responses: &'r mut Vec<(usize, ServingResponse)>,
    /// Platform scheduling buffer, drain scratch and trace sink.
    io: PlatformIo<'r>,
    /// Client-path fault injector (packet loss, request-path jitter).
    client_faults: FaultInjector,
    /// Retry machinery; everything below is inert when it is disabled.
    retry: RetryPolicy,
    /// Invocation count, for decoding attempt-encoded request ids.
    n_inv: usize,
    /// Network time on each invocation's request path (pre-jitter).
    net_in: &'r [SimDuration],
    /// Response-path network time.
    response_net: SimDuration,
    /// Client HTTP timeout: a success received later counts as failed.
    timeout: SimDuration,
    /// Per-invocation overall client deadline (`send_at + timeout`).
    deadline: &'r [SimTime],
    /// Current attempt per invocation, 1-based (retry mode only).
    attempt: &'r mut [u32],
    /// Client-side fate per invocation, once fixed (retry mode only).
    resolution: &'r mut [Option<Resolution>],
    /// Re-sends issued so far, bounded by the policy budget.
    retries_used: u64,
    /// Deterministic jitter source for retry backoffs.
    backoff_rng: SimRng,
}

impl ExecSystem<'_> {
    fn drain<K: StoreKind>(&mut self, queue: &mut EventQueue<ExecEvent, K>) {
        if self.io.drain(&mut self.platform) {
            self.settle_drained(Some(queue));
        }
    }

    /// Handles drained responses. A single attempt's fate is its response,
    /// settled at once; its exec time is what remains of the platform's
    /// span after its own queueing. Under retries a response is logged for
    /// its client's receipt, or dropped once the engine has stopped
    /// (`queue` is `None`).
    fn settle_drained<K: StoreKind>(&mut self, mut queue: Option<&mut EventQueue<ExecEvent, K>>) {
        // Swap the scratch out so settling can borrow `self` freely;
        // capacity is preserved across calls either way.
        let mut pending = std::mem::take(self.io.resp_scratch);
        for resp in pending.drain(..) {
            let received_at = resp.completed_at + self.response_net;
            let inv = resp.id.0 as usize;
            if !self.retry.enabled() {
                let delivered = self.plan.send_at(inv) + self.net_in[inv];
                let exec = resp
                    .completed_at
                    .saturating_duration_since(delivered + resp.queued);
                self.settle(inv, Resolution::received(resp, received_at), exec);
            } else if let Some(queue) = queue.as_deref_mut() {
                let idx = self.responses.len();
                self.responses.push((inv, resp));
                queue.schedule_at(received_at, ExecEvent::ClientRecv(idx));
            }
        }
        *self.io.resp_scratch = pending;
    }

    /// Applies an invocation's fate, and the exec time its spans report,
    /// to its member records.
    fn settle(&mut self, inv: usize, res: Resolution, exec: SimDuration) {
        for &m in self.plan.members(inv) {
            let rec = &mut self.records[m as usize];
            rec.predict = res.predict;
            rec.queued = res.queued;
            rec.cold_start = res.cold_start;
            let e2e = res.received_at.saturating_duration_since(rec.arrival);
            rec.outcome = match res.outcome {
                Outcome::Success if e2e > self.timeout => {
                    Outcome::Failure(FailureReason::ClientTimeout)
                }
                Outcome::Success => {
                    rec.latency = Some(e2e);
                    Outcome::Success
                }
                failure => failure,
            };
            if let Some(span) = self.spans.get_mut(m as usize) {
                *span = Some((res.received_at, self.net_in[inv], exec, self.response_net));
            }
        }
    }

    fn decode(&self, id: usize) -> (usize, u32) {
        let n = self.n_inv.max(1);
        (id % n, (id / n) as u32 + 1)
    }

    /// Whether an event about `inv`'s attempt `attempt` is stale: the
    /// invocation already resolved, or the client has moved on to a later
    /// attempt (late responses from abandoned attempts are dropped).
    fn stale(&self, inv: usize, attempt: u32) -> bool {
        self.resolution[inv].is_some() || self.attempt[inv] != attempt
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
        inv: usize,
        reason: FailureReason,
    ) {
        let attempt = self.attempt[inv];
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
            if send_at <= self.deadline[inv] {
                self.retries_used += 1;
                self.attempt[inv] = attempt + 1;
                let id = attempt as usize * self.n_inv + inv;
                let deliver_at = send_at + self.net_in[inv] + self.client_faults.client_jitter();
                queue.schedule_at(deliver_at, ExecEvent::Deliver(id));
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
        self.resolution[inv] = Some(Resolution {
            outcome: Outcome::Failure(final_reason),
            received_at: now,
            predict: SimDuration::ZERO,
            queued: SimDuration::ZERO,
            cold_start: None,
        });
    }
}

impl System for ExecSystem<'_> {
    type Ev = ExecEvent;
    fn handle<K: StoreKind>(
        &mut self,
        queue: &mut EventQueue<ExecEvent, K>,
        _at: SimTime,
        ev: ExecEvent,
    ) {
        let sys = self;
        match ev {
            ExecEvent::Deliver(id) => {
                let (inv, attempt) = sys.decode(id);
                if sys.retry.enabled() && sys.stale(inv, attempt) {
                    return;
                }
                if sys.client_faults.drop_packet() {
                    // The platform never sees the request; the attempt
                    // timeout (retry mode) or the client timeout (legacy
                    // mode) is what the client eventually observes.
                    sys.emit_fault(queue.now(), FaultKind::PacketLoss);
                    return;
                }
                let req = ServingRequest {
                    id: RequestId(id as u64),
                    arrival: queue.now(),
                    payload_bytes: sys.payload_per_invocation[inv],
                    inferences: sys.inferences_per_invocation[inv],
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
            ExecEvent::ClientRecv(idx) => {
                let (id, resp) = sys.responses[idx];
                let (inv, attempt) = sys.decode(id);
                if sys.stale(inv, attempt) {
                    return;
                }
                match resp.outcome {
                    Outcome::Success => {
                        sys.resolution[inv] = Some(Resolution::received(resp, queue.now()));
                    }
                    Outcome::Failure(reason) => {
                        sys.attempt_failed(queue, inv, reason);
                    }
                }
            }
            ExecEvent::AttemptTimeout(id) => {
                let (inv, attempt) = sys.decode(id);
                if sys.stale(inv, attempt) {
                    return;
                }
                sys.attempt_failed(queue, inv, FailureReason::ClientTimeout);
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
        let kind = if model.profile().image_input {
            InputKind::Image
        } else {
            InputKind::Text
        };
        RequestPool::generate(kind, self.cfg.pool_size)
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
        self.run_on::<Wheel>(deployment, trace, seed, None)
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
        self.run_on::<Wheel>(deployment, trace, seed, Some(rec))
    }

    /// [`Executor::run`] or [`Executor::run_recorded`] with every event
    /// queue on the pending store `K` instead of the timer wheel. Every
    /// store delivers the same `(time, sequence)` order, so the result and
    /// the trace are byte-identical; this exists so the differential tests
    /// and `slsb bench` can race the reference heap against the wheel on
    /// the real request path.
    ///
    /// # Errors
    /// Fails when the deployment is invalid.
    pub fn run_on<K: StoreKind>(
        &self,
        deployment: &Deployment,
        trace: &WorkloadTrace,
        seed: Seed,
        rec: Option<&mut dyn Recorder>,
    ) -> Result<RunResult, PlanError> {
        self.replay::<K>(deployment, None, trace, seed, rec)
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

    /// [`Executor::run_built`] with an optional trace recorder attached.
    pub fn run_built_recorded(
        &self,
        deployment: &Deployment,
        platform: Platform,
        trace: &WorkloadTrace,
        seed: Seed,
        rec: Option<&mut dyn Recorder>,
    ) -> RunResult {
        self.replay::<Wheel>(deployment, Some(platform), trace, seed, rec)
            .expect("a pre-built platform needs no validation")
    }

    /// Replays `trace` as cells and reassembles one result. On a pre-built
    /// `platform`, or unsharded, the run is one cell of every client on
    /// `seed`: it runs inline, streams straight into `rec`, and its records
    /// move through uncopied. Sharded, each client is its own cell on the
    /// seed's `("shard", client)` substream with its own platform; cells
    /// run on up to [`ExecutorConfig::shards`] workers, their trace events
    /// reach `rec` in cell order as they finish (see [`fan_out`]), and
    /// their records are placed back by global trace index. The
    /// decomposition depends only on the client count, never on the
    /// worker budget.
    fn replay<K: StoreKind>(
        &self,
        deployment: &Deployment,
        platform: Option<Platform>,
        trace: &WorkloadTrace,
        seed: Seed,
        rec: Option<&mut dyn Recorder>,
    ) -> Result<RunResult, PlanError> {
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
            self.run_cell::<K>(deployment, platform, trace, cell, cell_rec)
        } else {
            let outs = fan_out(
                self.cfg.shards,
                &cells,
                rec.as_deref_mut().map(|r| r as &mut dyn Recorder),
                "executor/merge",
                |cell, cell_rec| self.run_cell::<K>(deployment, None, trace, cell, cell_rec),
            );
            // Request i belongs to client i % n_clients and each cell's
            // records ascend by global index, so one pass over the trace
            // with a cursor per cell puts every record back in place.
            let mut cell_of = vec![0; n_clients];
            for (k, cell) in cells.iter().enumerate() {
                for &c in &cell.clients {
                    cell_of[c as usize] = k;
                }
            }
            let mut next = vec![0; cells.len()];
            let records = (0..trace.arrivals().len())
                .map(|i| {
                    let k = cell_of[i % n_clients];
                    next[k] += 1;
                    outs[k].records[next[k] - 1]
                })
                .collect();
            let reports: Vec<PlatformReport> = outs.iter().map(|o| o.platform.clone()).collect();
            RunResult {
                deployment: *deployment,
                workload: trace.shared_name(),
                duration: trace.duration(),
                records,
                platform: PlatformReport::merge_shards(&reports),
                engine_events: outs.iter().map(|o| o.engine_events).sum(),
                client_faults: outs.iter().map(|o| o.client_faults).sum(),
                retries: outs.iter().map(|o| o.retries).sum(),
            }
        };
        if let Some(r) = rec {
            let end = RunEnd::new(trace.duration(), self.cfg.timeout);
            close_trace(r, end, run.engine_events, run.records.len() as u64);
        }
        Ok(run)
    }

    /// Replays one cell on this thread's run arena, on `platform` or, when
    /// none is given, on one built from the cell seed.
    fn run_cell<K: StoreKind>(
        &self,
        deployment: &Deployment,
        platform: Option<Platform>,
        trace: &WorkloadTrace,
        cell: &Cell,
        rec: Option<&mut dyn Recorder>,
    ) -> RunResult {
        let platform = platform.unwrap_or_else(|| {
            deployment
                .build(cell.seed)
                .expect("deployment validated before the replay")
        });
        ARENA.with(|arena| {
            let (mut arena, rec) = (arena.borrow_mut(), rec.map(|r| r as &mut dyn Recorder));
            self.run_cell_in::<K>(deployment, platform, trace, cell, rec, &mut arena)
        })
    }

    /// Replays one cell against its platform: the cell's clients' requests
    /// (round-robin over all clients, the paper's splitter) in ascending
    /// global trace index form its local record table, which plan members
    /// index. Each client draws from its own `("client", id)` stream of
    /// the cell seed. All run-lifetime state lives in `arena`.
    #[allow(clippy::too_many_lines)]
    fn run_cell_in<'a, K: StoreKind>(
        &self,
        deployment: &Deployment,
        mut platform: Platform,
        trace: &WorkloadTrace,
        cell: &Cell,
        rec: Option<&'a mut dyn Recorder>,
        arena: &'a mut RunArena,
    ) -> RunResult {
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
        let slots = cell.clients.len();
        // Request i belongs to client i % all_clients: full rounds give
        // every slot one request, the last partial round only the clients
        // below the remainder.
        let n = arrivals.len() / all_clients * slots
            + cell
                .clients
                .iter()
                .filter(|&&c| (c as usize) < arrivals.len() % all_clients)
                .count();
        // An empty plan installs an injector that never draws, so this is
        // unconditional without costing byte-identity.
        platform.set_faults(&self.faults, seed);
        platform.reserve(n);

        let arrivals_guard = ProfGuard::enter("executor/arrivals");
        arena.begin();
        if arena.per_client.len() < slots {
            arena.per_client.resize_with(slots, Vec::new);
        }
        let RunArena {
            client_rngs,
            per_client,
            plan,
            payload_per_invocation,
            inferences_per_invocation,
            net_in,
            deliver_at,
            deadline,
            attempt,
            resolution,
            inv_of,
            spans,
            responses,
            resp_scratch,
            buffer,
            pool: pool_memo,
        } = arena;

        let input = if deployment.model.profile().image_input {
            InputKind::Image
        } else {
            InputKind::Text
        };
        let pool = pooled(
            pool_memo,
            input,
            self.cfg.pool_size,
            deployment.samples_per_request,
        );

        // Build the local record table and draw each request's payload from
        // its client's stream; per-client lists hold local indices.
        client_rngs.extend(
            cell.clients
                .iter()
                .map(|&c| seed.substream_indexed("client", u64::from(c)).rng()),
        );
        let mut records: Vec<RequestRecord> = Vec::with_capacity(n);
        {
            let _rng = ProfGuard::enter("rng");
            for (round, row) in arrivals.chunks(all_clients).enumerate() {
                for (slot, &c) in cell.clients.iter().enumerate() {
                    let Some(&arrival) = row.get(c as usize) else {
                        break;
                    };
                    let payload = pool.pick(&mut client_rngs[slot]);
                    per_client[slot].push((records.len(), arrival));
                    let global = round * all_clients + c as usize;
                    records.push(unresolved(global, c, arrival, payload.size_bytes));
                }
            }
        }

        // Group each client's requests into invocations.
        let policy = self
            .cfg
            .batch_override
            .unwrap_or(if deployment.batch_size > 1 {
                BatchPolicy::Fixed(deployment.batch_size)
            } else {
                BatchPolicy::None
            });
        for requests in per_client.iter().take(slots) {
            plan_invocations_into(requests, policy, plan);
        }
        let n_inv = plan.len();
        // Record when each request's invocation fired, and (when tracing)
        // which invocation carries each record — the join key to the
        // platform's per-invocation trace events.
        if tracing {
            inv_of.resize(n, 0);
        }
        for inv_idx in 0..n_inv {
            let send_at = plan.send_at(inv_idx);
            for &m in plan.members(inv_idx) {
                records[m as usize].sent_at = send_at;
                if tracing {
                    inv_of[m as usize] = inv_idx as u64;
                }
            }
        }
        payload_per_invocation.extend((0..n_inv).map(|i| {
            plan.members(i)
                .iter()
                .map(|&m| records[m as usize].payload_bytes)
                .sum::<u64>()
        }));
        inferences_per_invocation
            .extend((0..n_inv).map(|i| plan.members(i).len() as u32 * deployment.inference_repeats));

        // First-attempt client-path jitter is drawn here in invocation
        // order; retry-time draws then follow in event order — both
        // deterministic.
        let mut client_faults =
            FaultInjector::new(self.faults.clone(), seed.substream("client-faults"));
        net_in.extend(
            payload_per_invocation
                .iter()
                .map(|&bytes| self.cfg.network.transfer_time(bytes)),
        );
        deliver_at.extend(
            (0..n_inv).map(|i| plan.send_at(i) + net_in[i] + client_faults.client_jitter()),
        );
        if retrying {
            deadline.extend((0..n_inv).map(|i| plan.send_at(i) + self.cfg.timeout));
            attempt.resize(n_inv, 1);
            resolution.resize(n_inv, None);
        }
        // Deliveries (and in retry mode, their timeouts) are scheduled up
        // front, so the queue's high-water mark is about one entry per
        // invocation plus in-flight platform events.
        drop(arrivals_guard);
        let engine_guard = ProfGuard::enter("executor/engine");
        let queue_cap = if retrying { 2 * n + 64 } else { n + 64 };
        let queue = EventQueue::<ExecEvent, K>::with_store_capacity(queue_cap);
        if retrying {
            responses.reserve(n_inv);
        }
        if tracing {
            spans.resize(n, None);
        }
        let mut engine = Engine::with_queue(
            ExecSystem {
                platform,
                records,
                spans: spans.as_mut_slice(),
                plan: &*plan,
                payload_per_invocation: payload_per_invocation.as_slice(),
                inferences_per_invocation: inferences_per_invocation.as_slice(),
                responses,
                io: PlatformIo {
                    buffer,
                    resp_scratch,
                    rec,
                },
                client_faults,
                retry: self.cfg.retry,
                n_inv,
                net_in: net_in.as_slice(),
                response_net: self.cfg.network.response_time(),
                timeout: self.cfg.timeout,
                deadline: deadline.as_slice(),
                attempt: attempt.as_mut_slice(),
                resolution: resolution.as_mut_slice(),
                retries_used: 0,
                backoff_rng: seed.substream("retry-backoff").rng(),
            },
            queue,
        );

        // Platform startup at t = 0.
        let sys = &mut engine.system;
        sys.io.drive(
            &mut sys.platform,
            &mut engine.queue,
            ExecEvent::Platform,
            |p, s| {
                p.start(s, end.workload_end);
            },
        );

        // Invocation deliveries: network transfer happens on the way in.
        // In retry mode each first attempt also arms its attempt timeout.
        // One batched kernel call replaces per-event dispatch; iteration
        // order matches the legacy per-event loop, so sequence numbers —
        // and therefore same-instant FIFO ties — are unchanged.
        if retrying {
            let attempt_timeout = self.cfg.retry.attempt_timeout;
            engine.queue.schedule_many((0..n_inv).flat_map(|idx| {
                [
                    (deliver_at[idx], ExecEvent::Deliver(idx)),
                    (
                        plan.send_at(idx) + attempt_timeout,
                        ExecEvent::AttemptTimeout(idx),
                    ),
                ]
            }));
        } else {
            engine.queue.schedule_many(
                deliver_at
                    .iter()
                    .enumerate()
                    .map(|(idx, &at)| (at, ExecEvent::Deliver(idx))),
            );
        }

        engine.run_until(end.horizon);
        engine.queue.advance_to(end.horizon);
        // Responses drained at teardown settle like any other; under
        // retries no client can receive them any more.
        let sys = &mut engine.system;
        sys.io.finish(&mut sys.platform, end.teardown);
        sys.settle_drained::<K>(None);
        drop(engine_guard);
        let _resolve = ProfGuard::enter("executor/resolve");

        let engine_events = engine.events_processed();
        let mut sys = engine.system;
        let recorder = sys.io.rec.take();
        if retrying {
            // Fates were fixed online; invocations with none (still
            // waiting at the horizon) keep the default client timeout. The
            // winning attempt's exec time is approximated by its predict
            // time: the retransmission history makes the phase algebra of
            // the single-shot path moot.
            for inv_idx in 0..n_inv {
                if let Some(res) = sys.resolution[inv_idx] {
                    sys.settle(inv_idx, res, res.predict);
                }
            }
        }

        if let Some(r) = recorder {
            if r.enabled() {
                let _p = ProfGuard::enter("executor/spans");
                for (m, rec) in sys.records.iter().enumerate() {
                    let (at, net_in, exec, net_out) = match sys.spans[m] {
                        Some(s) => s,
                        // The platform never answered: the client's timeout
                        // is the whole story, no server-side phases.
                        None => (
                            end.horizon,
                            SimDuration::ZERO,
                            SimDuration::ZERO,
                            SimDuration::ZERO,
                        ),
                    };
                    r.record(&TraceEvent {
                        at,
                        kind: EventKind::RequestSpan {
                            request: rec.index as u64,
                            client: rec.client,
                            invocation: inv_of[m],
                            arrival: rec.arrival,
                            batch: rec.sent_at.saturating_duration_since(rec.arrival),
                            net_in,
                            queued: rec.queued,
                            exec,
                            net_out,
                            cold: rec.cold_start.is_some(),
                            outcome: rec.outcome.into(),
                        },
                    });
                }
            }
        }

        RunResult {
            deployment: *deployment,
            workload: trace.shared_name(),
            duration: trace.duration(),
            records: sys.records,
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
            .filter(|r| r.cold_start.is_none())
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
