//! Managed-ML serving endpoint simulator — SageMaker / AI Platform style.
//!
//! The paper (Section 4.2) explains every ManagedML result with two
//! mechanisms, both modeled here:
//!
//! * **Slow autoscaling**: a scaler evaluates load periodically and new
//!   instances take *minutes* to come into service (AWS wanted 5 instances
//!   at t = 7 min but had them serving at t = 11 min, Figure 7a; GCP
//!   reached 2 instances by t = 6 min, Figure 7b).
//! * **Bounded request queue**: while instances are saturated, requests
//!   queue; beyond the backlog bound they are rejected, which produces the
//!   low success ratios of Figures 5–6.
//!
//! Billing is instance-time from provisioning start — the paper notes
//! "most of the costs are spent on autoscaling instances rather than on
//! doing the prediction".

use crate::api::{PlatformEvent, PlatformReport, PlatformScheduler};
use crate::billing::{CostBreakdown, InstanceMeter, InstancePricing};
use crate::faults::{FaultInjector, FaultPlan};
use crate::idmap::IdMap;
use crate::policy::{KeepAliveTracker, PlacementPolicy, PolicySet};
use crate::provider::CloudProvider;
use crate::request::{FailureReason, Outcome, ServingRequest, ServingResponse};
use slsb_model::{predict_time, ModelProfile, RuntimeProfile};
use slsb_obs::{Component, EventKind, FaultKind, SpawnCause};
use slsb_sim::{GaugeSeries, Seed, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Trace-event component tag for this platform.
const COMPONENT: Component = Component::ManagedMl;

/// How the autoscaler computes its desired instance count from the load it
/// observed during the last evaluation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalerPolicy {
    /// SageMaker-style target tracking on invocations per instance:
    /// `desired = ceil(rate / per_instance_per_sec)`.
    InvocationsPerInstance {
        /// Target request rate per instance (requests/second).
        per_instance_per_sec: f64,
    },
    /// Utilization-style target tracking:
    /// `desired = ceil(rate · service / target)`.
    Utilization {
        /// Target busy fraction per instance.
        target: f64,
    },
}

/// Provider-specific managed-ML endpoint parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagedMlParams {
    /// Which cloud this parameterization models.
    pub provider: CloudProvider,
    /// Per-instance price sheet.
    pub pricing: InstancePricing,
    /// vCPUs per instance (both clouds' evaluated instances have 8).
    pub vcpus: f64,
    /// Delay from the scaler's decision to the instance serving traffic.
    pub provision_delay: SimDuration,
    /// Scaler evaluation period.
    pub eval_period: SimDuration,
    /// Cooldown before scale-in.
    pub scale_in_cooldown: SimDuration,
    /// Autoscaling bounds (min is 1 in the paper's experiments).
    pub min_instances: u32,
    /// Upper bound on instances.
    pub max_instances: u32,
    /// Backlog bound per in-service instance; beyond it requests are
    /// rejected.
    pub queue_capacity_per_instance: usize,
    /// Endpoint-side per-request overhead (routing, (de)serialization).
    pub request_overhead: SimDuration,
    /// How the scaler converts observed load into a desired instance count.
    pub scaler: ScalerPolicy,
    /// Log-normal σ on sampled durations.
    pub jitter_sigma: f64,
}

impl ManagedMlParams {
    /// AWS SageMaker (ml.m4.2xlarge endpoints, Figure 7a anchor: ~4 min
    /// from desired to in-service).
    pub fn aws() -> Self {
        ManagedMlParams {
            provider: CloudProvider::Aws,
            pricing: InstancePricing::SAGEMAKER_M4_2XLARGE,
            vcpus: 8.0,
            provision_delay: SimDuration::from_secs(300),
            eval_period: SimDuration::from_secs(120),
            scale_in_cooldown: SimDuration::from_secs(600),
            min_instances: 1,
            max_instances: 8,
            queue_capacity_per_instance: 150,
            // SageMaker's per-invocation overhead (HTTPS endpoint, auth,
            // (de)serialization) is substantial; ~80 ms reproduces the
            // heavily congested latencies of Figures 5–6.
            request_overhead: SimDuration::from_millis(80),
            // SageMaker's default metric: tracks invocations per instance
            // (~5 req/s per ml.m4.2xlarge) — this is what drives it to ~4-5
            // instances for MobileNet at workload-40 (Figure 7a).
            scaler: ScalerPolicy::InvocationsPerInstance {
                per_instance_per_sec: 5.0,
            },
            jitter_sigma: 0.15,
        }
    }

    /// Google AI Platform (n1-standard-8 nodes, Figure 7b anchor: second
    /// instance in service by t = 6 min).
    pub fn gcp() -> Self {
        ManagedMlParams {
            provider: CloudProvider::Gcp,
            pricing: InstancePricing::AI_PLATFORM_N1_STANDARD_8,
            vcpus: 8.0,
            provision_delay: SimDuration::from_secs(150),
            eval_period: SimDuration::from_secs(60),
            scale_in_cooldown: SimDuration::from_secs(600),
            min_instances: 1,
            max_instances: 4,
            queue_capacity_per_instance: 200,
            request_overhead: SimDuration::from_millis(30),
            // AI Platform tracks node utilization; it reached only 2
            // instances for MobileNet at workload-40 (Figure 7b).
            scaler: ScalerPolicy::Utilization { target: 0.7 },
            jitter_sigma: 0.15,
        }
    }

    /// The parameterization for a provider.
    pub fn for_provider(provider: CloudProvider) -> Self {
        match provider {
            CloudProvider::Aws => Self::aws(),
            CloudProvider::Gcp => Self::gcp(),
        }
    }
}

/// A deployed managed-ML endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagedMlConfig {
    /// Provider parameters.
    pub params: ManagedMlParams,
    /// The served model.
    pub model: ModelProfile,
    /// The serving runtime (the paper restricts ManagedML to TF1.15; the
    /// planner in `slsb-core` enforces that rule).
    pub runtime: RuntimeProfile,
    /// Keep-alive / placement / scaling policies. The keep-alive window
    /// maps onto the scale-in cooldown here (the endpoint's analogue of
    /// reclaiming idle capacity); scaling policies other than the default
    /// are ignored — the target-tracking scaler *is* this platform.
    pub policy: PolicySet,
}

impl ManagedMlConfig {
    /// A default endpoint.
    pub fn new(provider: CloudProvider, model: ModelProfile, runtime: RuntimeProfile) -> Self {
        ManagedMlConfig {
            params: ManagedMlParams::for_provider(provider),
            model,
            runtime,
            policy: PolicySet::default(),
        }
    }

    /// Median service time per request on one instance (a single serving
    /// session using all vCPUs, plus endpoint overhead).
    pub fn service_median(&self) -> SimDuration {
        self.params.request_overhead + predict_time(&self.model, &self.runtime, self.params.vcpus)
    }
}

/// Internal events of the managed-ML simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagedMlEvent {
    /// A provisioned instance came into service.
    InstanceUp(u64),
    /// An instance finished a request.
    HandlerDone(u64),
    /// Periodic autoscaler evaluation.
    ScalerTick,
}

#[derive(Debug, Clone, Copy)]
struct MmlInstance {
    busy: bool,
    /// Requests this instance has served (least-loaded placement key).
    served: u64,
}

/// The simulated managed-ML endpoint.
pub struct ManagedMlPlatform {
    cfg: ManagedMlConfig,
    rng: SimRng,
    /// Median predict time of one inference, fixed by the deployment,
    /// hoisted out of the per-request path.
    predict_base: SimDuration,
    /// Keep-alive policy state (inter-arrival histogram when adaptive).
    keep_alive: KeepAliveTracker,
    ready: IdMap<MmlInstance>,
    provisioning: IdMap<SimTime>,
    queue: VecDeque<(ServingRequest, SimTime)>,
    next_id: u64,
    window_arrivals: u64,
    last_scale_out: SimTime,
    meter: InstanceMeter,
    gauge: GaugeSeries,
    responses: Vec<ServingResponse>,
    rejected: u64,
    busy_seconds: f64,
    horizon: Option<SimTime>,
    finalized: bool,
    faults: FaultInjector,
}

impl ManagedMlPlatform {
    /// Builds the endpoint; randomness comes from `seed`'s "managedml"
    /// substream.
    pub fn new(cfg: ManagedMlConfig, seed: Seed) -> Self {
        let meter = InstanceMeter::new(cfg.params.pricing);
        ManagedMlPlatform {
            rng: seed.substream("managedml").rng(),
            predict_base: predict_time(&cfg.model, &cfg.runtime, cfg.params.vcpus),
            keep_alive: KeepAliveTracker::new(cfg.policy.keep_alive),
            cfg,
            ready: IdMap::new(),
            provisioning: IdMap::new(),
            queue: VecDeque::new(),
            next_id: 0,
            window_arrivals: 0,
            last_scale_out: SimTime::ZERO,
            meter,
            gauge: GaugeSeries::new(),
            responses: Vec::new(),
            rejected: 0,
            busy_seconds: 0.0,
            horizon: None,
            finalized: false,
            faults: FaultInjector::disabled(),
        }
    }

    /// Pre-sizes the request queue and instance slabs for a run expected
    /// to carry about `requests` invocations, capped at what can be in
    /// flight; responses are drained as they complete and need none.
    pub fn reserve(&mut self, requests: usize) {
        let concurrent = requests.min(4096);
        self.queue.reserve(concurrent);
        self.ready.reserve(concurrent.min(256));
        self.provisioning.reserve(concurrent.min(256));
    }

    /// The endpoint configuration.
    pub fn config(&self) -> &ManagedMlConfig {
        &self.cfg
    }

    /// Installs a fault plan; `seed` should be a dedicated substream so the
    /// injector's draws never perturb the platform's own RNG.
    pub fn set_faults(&mut self, plan: FaultPlan, seed: Seed) {
        self.faults = FaultInjector::new(plan, seed);
    }

    /// Discrete faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.injected()
    }

    /// Starts the minimum fleet and the scaler loop. `horizon` bounds the
    /// self-perpetuating scaler ticks so a run terminates.
    pub fn start(&mut self, sched: &mut PlatformScheduler<'_>, horizon: SimTime) {
        self.horizon = Some(horizon);
        for _ in 0..self.cfg.params.min_instances.max(1) {
            let id = self.alloc_id();
            self.meter.open(id, sched.now());
            self.ready.insert(
                id,
                MmlInstance {
                    busy: false,
                    served: 0,
                },
            );
            self.gauge.record_delta(sched.now(), 1);
            sched.emit(|| EventKind::InstanceSpawn {
                component: COMPONENT,
                instance: id,
                cause: SpawnCause::Provisioned,
            });
            sched.emit(|| EventKind::InstanceWarm {
                component: COMPONENT,
                instance: id,
            });
        }
        if sched.now() + self.cfg.params.eval_period <= horizon {
            sched.schedule(
                self.cfg.params.eval_period,
                PlatformEvent::ManagedMl(ManagedMlEvent::ScalerTick),
            );
        }
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Handles an arriving request.
    pub fn submit(&mut self, sched: &mut PlatformScheduler<'_>, req: ServingRequest) {
        sched.emit(|| EventKind::RequestArrival {
            component: COMPONENT,
            request: req.id.0,
        });
        self.keep_alive.observe_arrival(sched.now());
        self.window_arrivals += 1;
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
        let capacity = self.cfg.params.queue_capacity_per_instance * self.ready.len().max(1);
        if self.queue.len() >= capacity {
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
        self.queue.push_back((req, sched.now()));
        self.dispatch(sched);
    }

    /// Handles one of this platform's internal events.
    pub fn handle(&mut self, sched: &mut PlatformScheduler<'_>, ev: ManagedMlEvent) {
        match ev {
            ManagedMlEvent::InstanceUp(id) => {
                if let Some(_ready_at) = self.provisioning.remove(id) {
                    self.ready.insert(
                        id,
                        MmlInstance {
                            busy: false,
                            served: 0,
                        },
                    );
                    self.gauge.record_delta(sched.now(), 1);
                    sched.emit(|| EventKind::InstanceWarm {
                        component: COMPONENT,
                        instance: id,
                    });
                    self.dispatch(sched);
                }
            }
            ManagedMlEvent::HandlerDone(id) => {
                if let Some(inst) = self.ready.get_mut(id) {
                    inst.busy = false;
                }
                self.dispatch(sched);
            }
            ManagedMlEvent::ScalerTick => self.scaler_tick(sched),
        }
    }

    /// The free instance the placement policy routes the next request to.
    fn pick_free(&self) -> Option<u64> {
        match self.cfg.policy.placement {
            PlacementPolicy::Mru => self.ready.iter().find(|(_, i)| !i.busy).map(|(id, _)| id),
            PlacementPolicy::LeastLoaded => self
                .ready
                .iter()
                .filter(|(_, i)| !i.busy)
                .min_by_key(|&(id, i)| (i.served, id))
                .map(|(id, _)| id),
        }
    }

    fn dispatch(&mut self, sched: &mut PlatformScheduler<'_>) {
        while !self.queue.is_empty() {
            let Some(id) = self.pick_free() else {
                return;
            };
            let (req, enqueued) = self.queue.pop_front().expect("queue non-empty");
            let predict = self.rng.lognormal(
                self.predict_base * u64::from(req.inferences.max(1)),
                self.cfg.params.jitter_sigma,
            );
            let service = self.cfg.params.request_overhead + predict;
            self.busy_seconds += service.as_secs_f64();
            let inst = self.ready.get_mut(id).expect("instance exists");
            inst.busy = true;
            inst.served += 1;
            let done_at = sched.now() + service;
            // A mid-execution crash on a managed endpoint fails the request
            // but not the instance: the provider's health check restarts the
            // serving process transparently, so the worker is busy for the
            // full service time and then returns to the pool.
            let crashed = self.faults.crash_mid_exec();
            if crashed {
                sched.emit(|| EventKind::Fault {
                    component: Some(COMPONENT),
                    kind: FaultKind::ExecCrash,
                });
            }
            sched.emit(|| EventKind::ExecStart {
                component: COMPONENT,
                request: req.id.0,
                instance: id,
                cold: false,
                done_at,
            });
            self.responses.push(ServingResponse {
                id: req.id,
                outcome: if crashed {
                    Outcome::Failure(FailureReason::Crashed)
                } else {
                    Outcome::Success
                },
                completed_at: done_at,
                cold_start: None,
                predict,
                queued: sched.now().duration_since(enqueued),
            });
            sched.schedule(
                service,
                PlatformEvent::ManagedMl(ManagedMlEvent::HandlerDone(id)),
            );
        }
    }

    fn scaler_tick(&mut self, sched: &mut PlatformScheduler<'_>) {
        let p = self.cfg.params.clone();
        let rate = self.window_arrivals as f64 / p.eval_period.as_secs_f64();
        self.window_arrivals = 0;

        let service = self.cfg.service_median().as_secs_f64();
        let raw_desired = match p.scaler {
            ScalerPolicy::InvocationsPerInstance {
                per_instance_per_sec,
            } => (rate / per_instance_per_sec).ceil() as u32,
            ScalerPolicy::Utilization { target } => (rate * service / target).ceil() as u32,
        };
        let mut desired = raw_desired.clamp(p.min_instances, p.max_instances);
        // Queue pressure forces at least one more instance even when the
        // rate estimate lags the burst.
        let in_flight = (self.ready.len() + self.provisioning.len()) as u32;
        if self.queue.len() > p.queue_capacity_per_instance / 2 {
            desired = desired.max((in_flight + 1).min(p.max_instances));
        }

        if desired > in_flight {
            for _ in 0..(desired - in_flight) {
                let id = self.alloc_id();
                // Billing starts when provisioning starts — the effect the
                // paper blames for ManagedML's cost.
                self.meter.open(id, sched.now());
                let base = self.rng.lognormal(p.provision_delay, p.jitter_sigma);
                // Provisioning pulls the model image from object storage, so
                // storage degradation stretches the scale-out path.
                let (extra, stalled) = self.faults.storage_penalty(base);
                if stalled {
                    sched.emit(|| EventKind::Fault {
                        component: Some(COMPONENT),
                        kind: FaultKind::StorageStall,
                    });
                }
                let delay = base + extra;
                self.provisioning.insert(id, sched.now() + delay);
                sched.emit(|| EventKind::InstanceSpawn {
                    component: COMPONENT,
                    instance: id,
                    cause: SpawnCause::Demand,
                });
                sched.schedule(
                    delay,
                    PlatformEvent::ManagedMl(ManagedMlEvent::InstanceUp(id)),
                );
            }
            self.last_scale_out = sched.now();
        } else if desired < self.ready.len() as u32
            // The keep-alive policy maps onto the scale-in cooldown: how
            // long recently-needed capacity lingers before retirement.
            && sched.now().saturating_duration_since(self.last_scale_out)
                >= self.keep_alive.window(p.scale_in_cooldown)
            && self.ready.len() as u32 > p.min_instances
        {
            // Retire one idle instance per tick.
            let idle = self.ready.iter().find(|(_, i)| !i.busy).map(|(id, _)| id);
            if let Some(id) = idle {
                self.ready.remove(id);
                self.meter.close(id, sched.now());
                self.gauge.record_delta(sched.now(), -1);
                sched.emit(|| EventKind::InstanceReclaim {
                    component: COMPONENT,
                    instance: id,
                });
            }
        }

        if let Some(h) = self.horizon {
            if sched.now() + p.eval_period <= h {
                sched.schedule(
                    p.eval_period,
                    PlatformEvent::ManagedMl(ManagedMlEvent::ScalerTick),
                );
            }
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
            // Instance-seconds are what the meter bills (provisioning
            // included — the paper's cost complaint in one number).
            instance_seconds: self.meter.billed_seconds(),
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

    /// In-service instance count.
    pub fn ready_instances(&self) -> usize {
        self.ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_harness::PlatformHarness;
    use crate::request::RequestId;
    use slsb_model::{ModelKind, RuntimeKind};

    fn mobilenet_aws() -> ManagedMlConfig {
        ManagedMlConfig::new(
            CloudProvider::Aws,
            ModelKind::MobileNet.profile(),
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
    fn single_request_served_quickly() {
        let mut h = PlatformHarness::managedml(mobilenet_aws(), Seed(1));
        h.submit_at(1.0, request(0, 1.0));
        let rs = h.run_until(900.0);
        assert_eq!(rs.len(), 1);
        assert!(rs[0].outcome.is_success());
        let lat = rs[0]
            .latency_from(SimTime::from_secs_f64(1.0))
            .as_secs_f64();
        assert!(lat < 0.2, "unloaded latency {lat}");
    }

    #[test]
    fn sustained_overload_rejects_requests() {
        let mut h = PlatformHarness::managedml(mobilenet_aws(), Seed(2));
        // 100 req/s for 120 s: one instance (capacity ~25/s) cannot keep up
        // and the scaler's new instances take 4 minutes.
        for id in 0..12_000u64 {
            let t = id as f64 * 0.01;
            h.submit_at(t, request(id, t));
        }
        let rs = h.run_until(600.0);
        let ok = rs.iter().filter(|r| r.outcome.is_success()).count();
        let rejected = rs
            .iter()
            .filter(|r| r.outcome == Outcome::Failure(FailureReason::QueueFull))
            .count();
        assert_eq!(ok + rejected, 12_000);
        assert!(rejected > 3_000, "rejected {rejected}");
    }

    #[test]
    fn autoscaler_adds_instances_after_provision_delay() {
        let mut h = PlatformHarness::managedml(mobilenet_aws(), Seed(3));
        // 60 req/s sustained for 10 minutes.
        for id in 0..36_000u64 {
            let t = id as f64 / 60.0;
            h.submit_at(t, request(id, t));
        }
        h.run_until(900.0);
        let report = h.finalize_report();
        assert!(
            report.instances.peak() >= 2,
            "scaler never scaled out: peak {}",
            report.instances.peak()
        );
        // No instance can be in service before eval_period + provision
        // delay (~5 min on AWS).
        let first_scale_out = report
            .instances
            .points()
            .iter()
            .find(|&&(_, v)| v >= 2)
            .map(|&(t, _)| t.as_secs_f64())
            .expect("scaled out");
        // Earliest possible: one eval period plus a (jittered) provision
        // delay.
        assert!(
            first_scale_out > 180.0,
            "instance in service too early: {first_scale_out}"
        );
    }

    #[test]
    fn gcp_scales_faster_than_aws() {
        assert!(ManagedMlParams::gcp().provision_delay < ManagedMlParams::aws().provision_delay);
    }

    #[test]
    fn billing_counts_provisioning_time() {
        let mut h = PlatformHarness::managedml(mobilenet_aws(), Seed(4));
        for id in 0..30_000u64 {
            let t = id as f64 / 50.0;
            h.submit_at(t, request(id, t));
        }
        h.run_until(900.0);
        let report = h.finalize_report();
        // With ≥ 2 instances for part of a 15-minute run at $0.538/h the
        // cost must exceed the single-instance floor.
        let floor = 900.0 / 3600.0 * 0.538;
        assert!(
            report.cost.total().as_dollars() > floor * 1.1,
            "cost {} vs floor {floor}",
            report.cost.total()
        );
    }

    #[test]
    fn queue_wait_is_reported() {
        let mut h = PlatformHarness::managedml(mobilenet_aws(), Seed(5));
        for i in 0..50 {
            h.submit_at(1.0, request(i, 1.0));
        }
        let rs = h.run_until(300.0);
        let max_queued = rs
            .iter()
            .map(|r| r.queued.as_secs_f64())
            .fold(0.0, f64::max);
        assert!(max_queued > 0.5, "back of burst must queue: {max_queued}");
    }

    #[test]
    fn scale_in_retires_idle_instances() {
        let mut h = PlatformHarness::managedml(mobilenet_aws(), Seed(6));
        // Heavy for 5 minutes, then silence for 20.
        for id in 0..18_000u64 {
            let t = id as f64 / 60.0;
            h.submit_at(t, request(id, t));
        }
        h.run_until(1500.0);
        let report = h.finalize_report();
        assert!(report.instances.peak() >= 2);
        assert!(
            report.instances.current() < report.instances.peak(),
            "no scale-in happened"
        );
    }
}
