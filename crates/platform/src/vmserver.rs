//! Self-rented VM serving simulator — EC2 / GCE CPU and GPU servers.
//!
//! A fixed-capacity server: one serving session (the deployed TF-serving
//! process) executes requests one at a time using the whole machine — all
//! vCPUs via intra-op parallelism on the CPU box, the Tesla T4 on the GPU
//! box — in front of a bounded backlog. Under the paper's bursty MMPP load
//! this reproduces the CPU server's collapsing success ratios (Section 4.3)
//! and the GPU server's three-phase latency dynamics (Section 4.4,
//! Figure 9b). Billing is wall-clock instance time at the hourly rate.

use crate::api::{PlatformEvent, PlatformReport, PlatformScheduler};
use crate::billing::{CostBreakdown, InstanceMeter, InstancePricing};
use crate::faults::{FaultInjector, FaultPlan};
use crate::policy::{PlacementPolicy, PolicySet};
use crate::provider::CloudProvider;
use crate::request::{FailureReason, Outcome, RequestId, ServingRequest, ServingResponse};
use slsb_model::{predict_time, ModelProfile, RuntimeProfile};
use slsb_obs::{Component, EventKind, FaultKind, SpawnCause};
use slsb_sim::{GaugeSeries, Seed, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// The component tag this simulator stamps on trace events.
const COMPONENT: Component = Component::Vm;

/// CPU box or GPU box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmKind {
    /// 8-vCPU general-purpose VM (m5.2xlarge / n1-standard-8).
    Cpu,
    /// Same VM plus a Tesla T4 (g4dn.2xlarge / n1-standard-8 + T4).
    Gpu,
}

/// A self-rented serving VM.
#[derive(Debug, Clone, PartialEq)]
pub struct VmServerConfig {
    /// Which cloud rents the box (affects only pricing here).
    pub provider: CloudProvider,
    /// CPU or GPU box.
    pub kind: VmKind,
    /// Price sheet.
    pub pricing: InstancePricing,
    /// vCPUs available to the serving session (8 on every evaluated VM).
    pub vcpus: f64,
    /// Concurrent serving sessions (1: a single TF-serving session that
    /// uses intra-op parallelism).
    pub workers: u32,
    /// Backlog bound; beyond it requests are rejected (the default is high
    /// enough that client staleness, not backlog, is the binding limit).
    pub queue_capacity: usize,
    /// Queued requests older than this are skipped: the client will hang up
    /// before the response could reach it, so the server stops wasting
    /// capacity on them. Set comfortably *below* the client timeout —
    /// otherwise the queue wait pins exactly at the timeout and served
    /// responses arrive just after the client gave up. This is what pins an
    /// overloaded server's success ratio at roughly capacity/arrival-rate,
    /// the paper's Section 4.3 pattern.
    pub stale_after: SimDuration,
    /// Per-request fixed overhead (HTTP stack, (de)serialization).
    pub request_overhead: SimDuration,
    /// The served model.
    pub model: ModelProfile,
    /// The serving runtime.
    pub runtime: RuntimeProfile,
    /// Log-normal σ on sampled service times.
    pub jitter_sigma: f64,
    /// Keep-alive / placement / scaling policies. Only placement applies
    /// here — a rented box has fixed capacity, so there is nothing to
    /// reclaim or scale; the other members are ignored.
    pub policy: PolicySet,
}

impl VmServerConfig {
    /// A default CPU server for a provider.
    pub fn cpu(provider: CloudProvider, model: ModelProfile, runtime: RuntimeProfile) -> Self {
        VmServerConfig {
            provider,
            kind: VmKind::Cpu,
            pricing: match provider {
                CloudProvider::Aws => InstancePricing::EC2_M5_2XLARGE,
                CloudProvider::Gcp => InstancePricing::GCE_N1_STANDARD_8,
            },
            vcpus: 8.0,
            workers: 1,
            queue_capacity: 100_000,
            stale_after: SimDuration::from_secs(45),
            request_overhead: SimDuration::from_millis(20),
            model,
            runtime,
            jitter_sigma: 0.15,
            policy: PolicySet::default(),
        }
    }

    /// A default GPU server for a provider.
    pub fn gpu(provider: CloudProvider, model: ModelProfile, runtime: RuntimeProfile) -> Self {
        VmServerConfig {
            provider,
            kind: VmKind::Gpu,
            pricing: match provider {
                CloudProvider::Aws => InstancePricing::EC2_G4DN_2XLARGE,
                CloudProvider::Gcp => InstancePricing::GCE_N1_STANDARD_8_T4,
            },
            vcpus: 8.0,
            workers: 1,
            queue_capacity: 100_000,
            stale_after: SimDuration::from_secs(45),
            request_overhead: SimDuration::from_millis(3),
            model,
            runtime,
            jitter_sigma: 0.15,
            policy: PolicySet::default(),
        }
    }

    /// Median service time for one request.
    pub fn service_median(&self) -> SimDuration {
        self.request_overhead + self.compute_median()
    }

    /// Median compute time of one inference on the box.
    fn compute_median(&self) -> SimDuration {
        match self.kind {
            VmKind::Cpu => predict_time(&self.model, &self.runtime, self.vcpus),
            VmKind::Gpu => self.model.gpu_predict,
        }
    }
}

/// Internal events of the VM simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmEvent {
    /// A worker finished a request.
    HandlerDone(u32),
}

/// The simulated self-rented serving VM.
pub struct VmServer {
    cfg: VmServerConfig,
    rng: SimRng,
    /// Median compute time of one inference, fixed by the deployment,
    /// hoisted out of the per-request path.
    compute_median: SimDuration,
    busy: Vec<bool>,
    /// Requests served per worker (least-loaded placement key).
    served: Vec<u64>,
    queue: VecDeque<Queued>,
    meter: InstanceMeter,
    gauge: GaugeSeries,
    responses: Vec<ServingResponse>,
    /// Requests skipped stale since the last drain, while a driver
    /// tracks them: no response will ever come for them.
    dropped: Vec<RequestId>,
    track_dropped: bool,
    rejected: u64,
    dropped_stale: u64,
    busy_seconds: f64,
    finalized: bool,
    faults: FaultInjector,
}

/// A request in the backlog: what dispatch reads of it, 24 B against the
/// 40 of the request and its enqueue instant. An overloaded server at
/// W200 holds ten thousand and more of them.
#[derive(Debug, Clone, Copy)]
struct Queued {
    id: RequestId,
    /// When the request joined the queue.
    enqueued: SimTime,
    inferences: u32,
}

impl VmServer {
    /// Builds the server; randomness comes from `seed`'s "vmserver"
    /// substream.
    pub fn new(cfg: VmServerConfig, seed: Seed) -> Self {
        assert!(cfg.workers > 0, "server needs at least one worker");
        let meter = InstanceMeter::new(cfg.pricing);
        let workers = cfg.workers as usize;
        VmServer {
            rng: seed.substream("vmserver").rng(),
            compute_median: cfg.compute_median(),
            cfg,
            busy: vec![false; workers],
            served: vec![0; workers],
            queue: VecDeque::new(),
            meter,
            gauge: GaugeSeries::new(),
            responses: Vec::new(),
            dropped: Vec::new(),
            track_dropped: false,
            rejected: 0,
            dropped_stale: 0,
            busy_seconds: 0.0,
            finalized: false,
            faults: FaultInjector::disabled(),
        }
    }

    /// Pre-sizes the request queue for a run expected to carry about
    /// `requests` invocations, capped at what can be in flight; responses
    /// are drained as they complete and need none.
    pub fn reserve(&mut self, requests: usize) {
        self.queue.reserve(requests.min(4096));
    }

    /// The server configuration.
    pub fn config(&self) -> &VmServerConfig {
        &self.cfg
    }

    /// Installs a fault plan; `seed` should be a dedicated substream so the
    /// injector's draws never perturb the server's own RNG.
    pub fn set_faults(&mut self, plan: FaultPlan, seed: Seed) {
        self.faults = FaultInjector::new(plan, seed);
    }

    /// Discrete faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.injected()
    }

    /// Starts billing the rented instance.
    pub fn start(&mut self, sched: &mut PlatformScheduler<'_>) {
        self.meter.open(0, sched.now());
        self.gauge.record(sched.now(), 1);
        sched.emit(|| EventKind::InstanceSpawn {
            component: COMPONENT,
            instance: 0,
            cause: SpawnCause::Provisioned,
        });
        sched.emit(|| EventKind::InstanceWarm {
            component: COMPONENT,
            instance: 0,
        });
    }

    /// Handles an arriving request.
    pub fn submit(&mut self, sched: &mut PlatformScheduler<'_>, req: ServingRequest) {
        sched.emit(|| EventKind::RequestArrival {
            component: COMPONENT,
            request: req.id.0,
        });
        if let Some(kind) = self.faults.admit(sched.now()) {
            sched.emit(|| EventKind::Fault {
                component: Some(COMPONENT),
                kind,
            });
            sched.emit(|| EventKind::RequestRejected {
                component: COMPONENT,
                request: req.id.0,
            });
            self.responses.push(ServingResponse {
                id: req.id,
                outcome: Outcome::Failure(FailureReason::Throttled),
                completed_at: sched.now(),
                cold_start: None,
                predict: SimDuration::ZERO,
                queued: SimDuration::ZERO,
            });
            return;
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            self.rejected += 1;
            sched.emit(|| EventKind::RequestRejected {
                component: COMPONENT,
                request: req.id.0,
            });
            self.responses.push(ServingResponse {
                id: req.id,
                outcome: Outcome::Failure(FailureReason::QueueFull),
                completed_at: sched.now(),
                cold_start: None,
                predict: SimDuration::ZERO,
                queued: SimDuration::ZERO,
            });
            return;
        }
        sched.emit(|| EventKind::RequestQueued {
            component: COMPONENT,
            request: req.id.0,
        });
        self.queue.push_back(Queued {
            id: req.id,
            enqueued: sched.now(),
            inferences: req.inferences,
        });
        self.dispatch(sched);
    }

    /// Handles one of this platform's internal events.
    pub fn handle(&mut self, sched: &mut PlatformScheduler<'_>, ev: VmEvent) {
        match ev {
            VmEvent::HandlerDone(worker) => {
                self.busy[worker as usize] = false;
                self.dispatch(sched);
            }
        }
    }

    /// The free worker the placement policy routes the next request to.
    fn pick_worker(&self) -> Option<usize> {
        match self.cfg.policy.placement {
            PlacementPolicy::Mru => self.busy.iter().position(|&b| !b),
            PlacementPolicy::LeastLoaded => self
                .busy
                .iter()
                .enumerate()
                .filter(|&(_, &b)| !b)
                .min_by_key(|&(w, _)| (self.served[w], w))
                .map(|(w, _)| w),
        }
    }

    fn dispatch(&mut self, sched: &mut PlatformScheduler<'_>) {
        while !self.queue.is_empty() {
            let Some(worker) = self.pick_worker() else {
                return;
            };
            // Skip requests whose client has already given up.
            let Queued {
                id,
                enqueued,
                inferences,
            } = self.queue.pop_front().expect("queue non-empty");
            if sched.now().saturating_duration_since(enqueued) > self.cfg.stale_after {
                self.dropped_stale += 1;
                if self.track_dropped {
                    self.dropped.push(id);
                }
                sched.emit(|| EventKind::RequestDropped {
                    component: COMPONENT,
                    request: id.0,
                });
                continue;
            }
            let compute_median = self.compute_median * u64::from(inferences.max(1));
            let predict = self.rng.lognormal(compute_median, self.cfg.jitter_sigma);
            let service = self.cfg.request_overhead + predict;
            self.busy_seconds += service.as_secs_f64();
            self.busy[worker] = true;
            self.served[worker] += 1;
            // A mid-execution crash kills the serving process for this
            // request; systemd-style supervision restarts it within the same
            // service window, so the worker stays busy and then recovers.
            let crashed = self.faults.crash_mid_exec();
            if crashed {
                sched.emit(|| EventKind::Fault {
                    component: Some(COMPONENT),
                    kind: FaultKind::ExecCrash,
                });
            }
            self.responses.push(ServingResponse {
                id,
                outcome: if crashed {
                    Outcome::Failure(FailureReason::Crashed)
                } else {
                    Outcome::Success
                },
                completed_at: sched.now() + service,
                cold_start: None,
                predict,
                queued: sched.now().duration_since(enqueued),
            });
            let done_at = sched.now() + service;
            sched.emit(|| EventKind::ExecStart {
                component: COMPONENT,
                request: id.0,
                instance: worker as u64,
                cold: false,
                done_at,
            });
            sched.schedule(
                service,
                PlatformEvent::Vm(VmEvent::HandlerDone(worker as u32)),
            );
        }
    }

    /// Moves completed responses onto `out`: into an empty `out` the two
    /// buffers trade places instead of the responses being copied.
    pub fn drain_responses_into(&mut self, out: &mut Vec<ServingResponse>) {
        crate::request::hand_over(&mut self.responses, out);
    }

    /// True when completed responses are waiting to be drained.
    pub fn has_responses(&self) -> bool {
        !self.responses.is_empty()
    }

    /// Keeps the id of each request skipped stale from now on, for
    /// [`VmServer::drain_dropped_into`]; untracked, none is kept.
    pub fn track_dropped(&mut self) {
        self.track_dropped = true;
    }

    /// Moves the ids of requests skipped stale since the last drain onto
    /// `out`, the same way as [`VmServer::drain_responses_into`].
    pub fn drain_dropped_into(&mut self, out: &mut Vec<RequestId>) {
        crate::request::hand_over(&mut self.dropped, out);
    }

    /// True when requests skipped stale are waiting to be drained.
    pub fn has_dropped(&self) -> bool {
        !self.dropped.is_empty()
    }

    /// Closes billing at the end of the run.
    pub fn finalize(&mut self, now: SimTime) {
        assert!(!self.finalized, "finalize called twice");
        self.finalized = true;
        self.meter.finalize(now);
    }

    /// Cost and instance accounting.
    pub fn report(&self) -> PlatformReport {
        PlatformReport {
            cost: self.cost(),
            instances: self.gauge.clone(),
            cold_started: 0,
            invocations: 0,
            busy_seconds: self.busy_seconds,
            instance_seconds: self.meter.billed_seconds() * f64::from(self.cfg.workers),
            faults: self.faults.injected(),
        }
    }

    /// Current cost breakdown.
    pub fn cost(&self) -> CostBreakdown {
        self.meter.breakdown()
    }

    /// Requests rejected for backlog overflow.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Requests skipped because the client had already timed out.
    pub fn dropped_stale(&self) -> u64 {
        self.dropped_stale
    }

    /// Current backlog depth (used by hybrid spillover routing).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_harness::PlatformHarness;
    use crate::request::RequestId;
    use slsb_model::{ModelKind, RuntimeKind};

    fn cpu_mobilenet() -> VmServerConfig {
        VmServerConfig::cpu(
            CloudProvider::Aws,
            ModelKind::MobileNet.profile(),
            RuntimeKind::Tf115.profile(),
        )
    }

    fn gpu_vgg() -> VmServerConfig {
        VmServerConfig::gpu(
            CloudProvider::Aws,
            ModelKind::Vgg.profile(),
            RuntimeKind::Tf115.profile(),
        )
    }

    fn request(id: u64, at_secs: f64) -> ServingRequest {
        ServingRequest {
            id: RequestId(id),
            arrival: SimTime::from_secs_f64(at_secs),
            payload_bytes: 120_000,
            inferences: 1,
        }
    }

    #[test]
    fn unloaded_latency_is_service_time() {
        let mut h = PlatformHarness::vm(cpu_mobilenet(), Seed(1));
        h.submit_at(0.0, request(0, 0.0));
        let rs = h.run();
        assert_eq!(rs.len(), 1);
        let lat = rs[0].latency_from(SimTime::ZERO).as_secs_f64();
        let median = cpu_mobilenet().service_median().as_secs_f64();
        assert!((lat - median).abs() < median, "latency {lat} vs {median}");
        assert!(rs[0].queued.is_zero());
    }

    #[test]
    fn queue_builds_under_burst() {
        let mut h = PlatformHarness::vm(cpu_mobilenet(), Seed(2));
        for i in 0..100 {
            h.submit_at(0.0, request(i, 0.0));
        }
        let rs = h.run();
        assert_eq!(rs.len(), 100);
        assert!(rs.iter().all(|r| r.outcome.is_success()));
        let max_q = rs
            .iter()
            .map(|r| r.queued.as_secs_f64())
            .fold(0.0, f64::max);
        assert!(max_q > 1.0, "tail of burst must queue: {max_q}");
    }

    #[test]
    fn backlog_overflow_rejects() {
        let mut cfg = cpu_mobilenet();
        cfg.queue_capacity = 10;
        let mut h = PlatformHarness::vm(cfg, Seed(3));
        for i in 0..50 {
            h.submit_at(0.0, request(i, 0.0));
        }
        let rs = h.run();
        let rejected = rs
            .iter()
            .filter(|r| r.outcome == Outcome::Failure(FailureReason::QueueFull))
            .count();
        // 10 queued + up to `workers` in flight succeed.
        assert!(rejected >= 35, "rejected {rejected}");
    }

    #[test]
    fn stale_drops_are_reported_once_and_never_answered() {
        let mut cfg = cpu_mobilenet();
        cfg.stale_after = SimDuration::from_secs(2);
        let mut h = PlatformHarness::vm(cfg, Seed(6));
        for i in 0..200 {
            h.submit_at(0.0, request(i, 0.0));
        }
        let rs = h.run();
        let dropped = h.dropped().to_vec();
        assert!(!dropped.is_empty(), "an overloaded backlog must go stale");
        assert_eq!(rs.len() + dropped.len(), 200);
        assert!(
            dropped.windows(2).all(|w| w[0].0 < w[1].0),
            "in queue order"
        );
        assert!(rs.iter().all(|r| !dropped.contains(&r.id)));
    }

    #[test]
    fn gpu_serves_vgg_in_tens_of_milliseconds() {
        // Section 4.4: "about 0.02 seconds per request".
        let mut h = PlatformHarness::vm(gpu_vgg(), Seed(4));
        h.submit_at(0.0, request(0, 0.0));
        let rs = h.run();
        let lat = rs[0].latency_from(SimTime::ZERO).as_secs_f64();
        assert!((0.01..=0.08).contains(&lat), "GPU VGG latency {lat}");
    }

    #[test]
    fn gpu_much_faster_than_cpu_for_vgg() {
        let cpu = VmServerConfig::cpu(
            CloudProvider::Aws,
            ModelKind::Vgg.profile(),
            RuntimeKind::Tf115.profile(),
        );
        assert!(
            gpu_vgg().service_median().as_secs_f64() * 5.0 < cpu.service_median().as_secs_f64()
        );
    }

    #[test]
    fn billing_is_wall_clock_rental() {
        let mut h = PlatformHarness::vm(cpu_mobilenet(), Seed(5));
        h.submit_at(0.0, request(0, 0.0));
        h.run_until(900.0);
        let report = h.finalize_report();
        // 900 s at $0.384/h = $0.096 — the Table 1 AWS-CPU ballpark.
        let d = report.cost.total().as_dollars();
        assert!((d - 900.0 / 3600.0 * 0.384).abs() < 1e-6, "cost {d}");
    }

    #[test]
    fn cpu_capacity_matches_calibration() {
        // Service median for MobileNet on the 8-vCPU box ⇒ capacity in the
        // mid-20s req/s, the anchor that reproduces the paper's success
        // ratios (44 % at workload-120, 27 % at workload-200).
        let cap = 1.0 / cpu_mobilenet().service_median().as_secs_f64();
        assert!((20.0..=35.0).contains(&cap), "capacity {cap}");
    }

    #[test]
    fn inferences_scale_service_time() {
        let mut h = PlatformHarness::vm(cpu_mobilenet(), Seed(6));
        let mut req = request(0, 0.0);
        req.inferences = 8;
        h.submit_at(0.0, req);
        let rs = h.run();
        let lat = rs[0].latency_from(SimTime::ZERO).as_secs_f64();
        let one = cpu_mobilenet().service_median().as_secs_f64();
        assert!(lat > one * 3.0, "batched latency {lat} vs single {one}");
    }
}
