//! The uniform interface the executor drives every platform through.

use crate::billing::CostBreakdown;
use crate::hybrid::{HybridConfig, HybridPlatform};
use crate::managedml::{ManagedMlConfig, ManagedMlEvent, ManagedMlPlatform};
use crate::request::{RequestId, ServingRequest, ServingResponse};
use crate::serverless::{ServerlessConfig, ServerlessEvent, ServerlessPlatform};
use crate::vmserver::{VmEvent, VmServer, VmServerConfig};
use slsb_obs::{EventKind, Recorder, TraceEvent};
use slsb_sim::{GaugeSeries, Seed, SimDuration, SimTime};

/// Union of every platform family's internal events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformEvent {
    /// Serverless platform event.
    Serverless(ServerlessEvent),
    /// Managed-ML endpoint event.
    ManagedMl(ManagedMlEvent),
    /// VM server event.
    Vm(VmEvent),
    /// VM-side event of a hybrid deployment.
    HybridVm(VmEvent),
    /// Serverless-side event of a hybrid deployment.
    HybridServerless(ServerlessEvent),
}

/// Write-side of the event queue handed to a platform while it handles an
/// arrival or one of its own events. Collects `(delay, event)` pairs; the
/// caller transfers them onto its real queue afterwards.
///
/// The scheduler also carries the run's optional [`Recorder`], which is the
/// platforms' only window to the observability layer: [`PlatformScheduler::emit`]
/// stamps events with the current virtual time. Recording is write-only —
/// nothing a recorder does can flow back into scheduling decisions — so a
/// run's behaviour is identical with recording on, off, or absent.
pub struct PlatformScheduler<'a> {
    now: SimTime,
    out: &'a mut Vec<(SimDuration, PlatformEvent)>,
    rec: Option<&'a mut dyn Recorder>,
}

impl<'a> PlatformScheduler<'a> {
    /// A scheduler at virtual time `now` writing into `out`, not recording.
    pub fn new(now: SimTime, out: &'a mut Vec<(SimDuration, PlatformEvent)>) -> Self {
        PlatformScheduler {
            now,
            out,
            rec: None,
        }
    }

    /// A scheduler that additionally forwards trace events to `rec`.
    pub fn with_recorder(
        now: SimTime,
        out: &'a mut Vec<(SimDuration, PlatformEvent)>,
        rec: Option<&'a mut dyn Recorder>,
    ) -> Self {
        PlatformScheduler { now, out, rec }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `ev` to fire `delay` from now.
    pub fn schedule(&mut self, delay: SimDuration, ev: PlatformEvent) {
        self.out.push((delay, ev));
    }

    /// Records a trace event stamped `now`. The closure only runs when a
    /// recorder is attached and enabled, so instrumentation sites cost one
    /// branch when recording is off.
    pub fn emit(&mut self, f: impl FnOnce() -> EventKind) {
        if let Some(rec) = self.rec.as_deref_mut() {
            if rec.enabled() {
                let ev = TraceEvent {
                    at: self.now,
                    kind: f(),
                };
                rec.record(&ev);
            }
        }
    }

    /// Reborrows the attached recorder, for building a nested scheduler
    /// (the hybrid platform hands one to each of its children).
    pub fn recorder(&mut self) -> Option<&mut dyn Recorder> {
        match self.rec.as_deref_mut() {
            Some(rec) => Some(rec as &mut dyn Recorder),
            None => None,
        }
    }
}

/// End-of-run accounting a platform hands to the analyzer.
#[derive(Debug, Clone)]
pub struct PlatformReport {
    /// Total cost, split into components.
    pub cost: CostBreakdown,
    /// Instance-count gauge over the run (the paper's Figures 7 and 11).
    pub instances: GaugeSeries,
    /// Instances that went through a cold-start pipeline (serverless only).
    pub cold_started: u64,
    /// Billed invocations (serverless only).
    pub invocations: u64,
    /// Seconds instances spent executing handlers/requests.
    pub busy_seconds: f64,
    /// Seconds of instance existence (provisioning and idle included).
    pub instance_seconds: f64,
    /// Discrete faults the platform's [`crate::FaultInjector`] fired
    /// (zero without an active [`crate::FaultPlan`]).
    pub faults: u64,
}

impl PlatformReport {
    /// Fraction of instance lifetime spent doing useful work — the inverse
    /// of the over-provisioning waste the paper's Section 6 first research
    /// challenge targets. `None` when no instance time was recorded.
    pub fn utilization(&self) -> Option<f64> {
        (self.instance_seconds > 0.0).then(|| (self.busy_seconds / self.instance_seconds).min(1.0))
    }

    /// Folds per-shard reports into one fleet report, in slice order.
    ///
    /// Costs and counters sum exactly (money is integer micro-dollars, so
    /// the fold is order-independent); the instance gauges merge through
    /// [`GaugeSeries::merge_summed`] in canonical shard order. Called by the
    /// sharded executor after all shards complete, so the result depends
    /// only on the shard results themselves, never on execution order.
    pub fn merge_shards(parts: &[PlatformReport]) -> PlatformReport {
        let mut cost = CostBreakdown::default();
        let mut cold_started = 0;
        let mut invocations = 0;
        let mut busy_seconds = 0.0;
        let mut instance_seconds = 0.0;
        let mut faults = 0;
        for p in parts {
            cost.compute += p.cost.compute;
            cost.invocations += p.cost.invocations;
            cost.provisioned += p.cost.provisioned;
            cold_started += p.cold_started;
            invocations += p.invocations;
            busy_seconds += p.busy_seconds;
            instance_seconds += p.instance_seconds;
            faults += p.faults;
        }
        PlatformReport {
            cost,
            instances: GaugeSeries::merge_summed(parts.iter().map(|p| &p.instances)),
            cold_started,
            invocations,
            busy_seconds,
            instance_seconds,
            faults,
        }
    }
}

/// Any of the simulated serving systems, behind one dispatching interface.
pub enum Platform {
    /// Lambda / Cloud Functions.
    Serverless(Box<ServerlessPlatform>),
    /// SageMaker / AI Platform.
    ManagedMl(Box<ManagedMlPlatform>),
    /// EC2 / GCE CPU or GPU box.
    Vm(Box<VmServer>),
    /// MArk-style hybrid: rented VM plus serverless spillover.
    Hybrid(Box<HybridPlatform>),
}

impl Platform {
    /// Builds a serverless platform.
    pub fn serverless(cfg: ServerlessConfig, seed: Seed) -> Platform {
        Platform::Serverless(Box::new(ServerlessPlatform::new(cfg, seed)))
    }

    /// The profiler scope label for this platform's submit/handle/drain
    /// work (`"platform/<name>"`, a `'static` string as the profiler
    /// requires).
    pub fn prof_label(&self) -> &'static str {
        match self {
            Platform::Serverless(_) => "platform/serverless",
            Platform::ManagedMl(_) => "platform/managedml",
            Platform::Vm(_) => "platform/vm",
            Platform::Hybrid(_) => "platform/hybrid",
        }
    }

    /// Builds a managed-ML endpoint.
    pub fn managedml(cfg: ManagedMlConfig, seed: Seed) -> Platform {
        Platform::ManagedMl(Box::new(ManagedMlPlatform::new(cfg, seed)))
    }

    /// Builds a VM server.
    pub fn vm(cfg: VmServerConfig, seed: Seed) -> Platform {
        Platform::Vm(Box::new(VmServer::new(cfg, seed)))
    }

    /// Builds a hybrid (VM + serverless spillover) deployment.
    pub fn hybrid(cfg: HybridConfig, seed: Seed) -> Platform {
        Platform::Hybrid(Box::new(HybridPlatform::new(cfg, seed)))
    }

    /// Arms fault injection: installs `plan` on every simulator in this
    /// platform, each drawing from its own substream of `seed`. Installing
    /// an empty plan is a guaranteed no-op (no RNG draws, no behaviour
    /// change), so callers may do this unconditionally.
    pub fn set_faults(&mut self, plan: &crate::FaultPlan, seed: Seed) {
        match self {
            Platform::Serverless(p) => {
                p.set_faults(plan.clone(), seed.substream("faults-serverless"))
            }
            Platform::ManagedMl(p) => {
                p.set_faults(plan.clone(), seed.substream("faults-managedml"))
            }
            Platform::Vm(p) => p.set_faults(plan.clone(), seed.substream("faults-vm")),
            Platform::Hybrid(p) => p.set_faults(plan, seed),
        }
    }

    /// Pre-sizes request queues, instance slabs and idle pools for a run
    /// expected to carry about `requests` invocations, each capped at what
    /// can be in flight. Responses are drained as they complete, so no
    /// per-request buffer is reserved. Purely a capacity hint: reserving
    /// never changes behaviour, only removes reallocation from the serving
    /// hot path.
    pub fn reserve(&mut self, requests: usize) {
        match self {
            Platform::Serverless(p) => p.reserve(requests),
            Platform::ManagedMl(p) => p.reserve(requests),
            Platform::Vm(p) => p.reserve(requests),
            Platform::Hybrid(p) => p.reserve(requests),
        }
    }

    /// One-time startup (pre-warming, billing spans, scaler loops).
    /// `horizon` is the end of the workload; platforms with periodic
    /// internal events stop self-scheduling past it.
    pub fn start(&mut self, sched: &mut PlatformScheduler<'_>, horizon: SimTime) {
        match self {
            Platform::Serverless(p) => p.start(sched),
            Platform::ManagedMl(p) => p.start(sched, horizon),
            Platform::Vm(p) => p.start(sched),
            Platform::Hybrid(p) => p.start(sched),
        }
    }

    /// Delivers an arriving request.
    pub fn submit(&mut self, sched: &mut PlatformScheduler<'_>, req: ServingRequest) {
        match self {
            Platform::Serverless(p) => p.submit(sched, req),
            Platform::ManagedMl(p) => p.submit(sched, req),
            Platform::Vm(p) => p.submit(sched, req),
            Platform::Hybrid(p) => p.submit(sched, req),
        }
    }

    /// Delivers one of the platform's own events.
    ///
    /// # Panics
    /// Panics if the event belongs to a different platform family — that is
    /// a wiring bug in the executor.
    pub fn handle(&mut self, sched: &mut PlatformScheduler<'_>, ev: PlatformEvent) {
        match (self, ev) {
            (Platform::Serverless(p), PlatformEvent::Serverless(e)) => p.handle(sched, e),
            (Platform::ManagedMl(p), PlatformEvent::ManagedMl(e)) => p.handle(sched, e),
            (Platform::Vm(p), PlatformEvent::Vm(e)) => p.handle(sched, e),
            (Platform::Hybrid(p), PlatformEvent::HybridVm(e)) => p.handle_vm(sched, e),
            (Platform::Hybrid(p), PlatformEvent::HybridServerless(e)) => {
                p.handle_serverless(sched, e)
            }
            _ => panic!("platform event routed to the wrong platform"),
        }
    }

    /// Moves responses completed since the last drain onto the back of
    /// `out`, a caller-owned buffer. Into an empty `out` the platform's
    /// buffer and `out` trade places, so the responses are not copied and
    /// both buffers keep their capacity: the per-event drain in the
    /// engines' hot loops allocates nothing in steady state.
    pub fn drain_responses_into(&mut self, out: &mut Vec<ServingResponse>) {
        match self {
            Platform::Serverless(p) => p.drain_responses_into(out),
            Platform::ManagedMl(p) => p.drain_responses_into(out),
            Platform::Vm(p) => p.drain_responses_into(out),
            Platform::Hybrid(p) => p.drain_responses_into(out),
        }
    }

    /// True when completed responses are waiting to be drained — a
    /// branch-only probe that lets per-event drain loops skip the scope
    /// guards and buffer plumbing on the (common) response-free events.
    pub fn has_responses(&self) -> bool {
        match self {
            Platform::Serverless(p) => p.has_responses(),
            Platform::ManagedMl(p) => p.has_responses(),
            Platform::Vm(p) => p.has_responses(),
            Platform::Hybrid(p) => p.has_responses(),
        }
    }

    /// Makes the platform keep the id of each request it drops without a
    /// response from now on (a VM server's stale backlog), for
    /// [`Platform::drain_dropped_into`]. Only a driver that drains them
    /// should ask: an untracked platform keeps none.
    pub fn track_dropped(&mut self) {
        match self {
            Platform::Serverless(_) | Platform::ManagedMl(_) => {}
            Platform::Vm(p) => p.track_dropped(),
            Platform::Hybrid(p) => p.track_dropped(),
        }
    }

    /// Moves the ids of requests dropped without a response since the
    /// last drain onto the back of `out`, the way
    /// [`Platform::drain_responses_into`] moves responses; see
    /// [`Platform::track_dropped`]. No response will ever come for them.
    pub fn drain_dropped_into(&mut self, out: &mut Vec<RequestId>) {
        match self {
            Platform::Serverless(_) | Platform::ManagedMl(_) => {}
            Platform::Vm(p) => p.drain_dropped_into(out),
            Platform::Hybrid(p) => p.drain_dropped_into(out),
        }
    }

    /// True when dropped request ids are waiting to be drained; a
    /// branch-only probe like [`Platform::has_responses`].
    pub fn has_dropped(&self) -> bool {
        match self {
            Platform::Serverless(_) | Platform::ManagedMl(_) => false,
            Platform::Vm(p) => p.has_dropped(),
            Platform::Hybrid(p) => p.has_dropped(),
        }
    }

    /// Closes billing at the end of the run.
    pub fn finalize(&mut self, now: SimTime) {
        match self {
            Platform::Serverless(p) => p.finalize(now),
            Platform::ManagedMl(p) => p.finalize(now),
            Platform::Vm(p) => p.finalize(now),
            Platform::Hybrid(p) => p.finalize(now),
        }
    }

    /// Cost and instance accounting.
    pub fn report(&self) -> PlatformReport {
        match self {
            Platform::Serverless(p) => p.report(),
            Platform::ManagedMl(p) => p.report(),
            Platform::Vm(p) => p.report(),
            Platform::Hybrid(p) => p.report(),
        }
    }
}

/// A minimal single-platform driver used by unit tests (the production
/// executor lives in `slsb-core` and adds clients, network, timeouts, and
/// analysis).
pub mod test_harness {
    use super::*;
    use slsb_sim::{Engine, EventQueue, StoreKind, System};

    enum HarnessEvent {
        Start,
        Arrival(ServingRequest),
        Platform(PlatformEvent),
    }

    struct HarnessSystem {
        platform: Platform,
        started: bool,
        horizon: SimTime,
        responses: Vec<ServingResponse>,
        dropped: Vec<RequestId>,
        buffer: Vec<(SimDuration, PlatformEvent)>,
    }

    impl HarnessSystem {
        fn with_platform<K: StoreKind, R>(
            &mut self,
            queue: &mut EventQueue<HarnessEvent, K>,
            f: impl FnOnce(&mut Platform, &mut PlatformScheduler<'_>) -> R,
        ) -> R {
            let mut sched = PlatformScheduler::new(queue.now(), &mut self.buffer);
            let r = f(&mut self.platform, &mut sched);
            for (d, e) in self.buffer.drain(..) {
                queue.schedule_after(d, HarnessEvent::Platform(e));
            }
            self.platform.drain_responses_into(&mut self.responses);
            self.platform.drain_dropped_into(&mut self.dropped);
            r
        }
    }

    impl System for HarnessSystem {
        type Ev = HarnessEvent;
        fn handle<K: StoreKind>(
            &mut self,
            queue: &mut EventQueue<HarnessEvent, K>,
            _at: SimTime,
            ev: HarnessEvent,
        ) {
            if !self.started {
                self.started = true;
                let horizon = self.horizon;
                self.with_platform(queue, |p, s| p.start(s, horizon));
            }
            match ev {
                HarnessEvent::Start => {}
                HarnessEvent::Arrival(req) => {
                    self.with_platform(queue, |p, s| p.submit(s, req));
                }
                HarnessEvent::Platform(e) => {
                    self.with_platform(queue, |p, s| p.handle(s, e));
                }
            }
        }
    }

    /// Drives one platform with hand-placed arrivals.
    pub struct PlatformHarness {
        engine: Engine<HarnessSystem>,
    }

    impl PlatformHarness {
        fn new(mut platform: Platform) -> Self {
            platform.track_dropped();
            let mut engine = Engine::new(HarnessSystem {
                platform,
                started: false,
                horizon: SimTime::from_secs_f64(3600.0),
                responses: Vec::new(),
                dropped: Vec::new(),
                buffer: Vec::new(),
            });
            // Start the platform at the epoch so billing spans and scaler
            // loops begin at t = 0 regardless of the first arrival's time.
            engine.queue.schedule_at(SimTime::ZERO, HarnessEvent::Start);
            PlatformHarness { engine }
        }

        /// Harness around a serverless platform.
        pub fn serverless(cfg: ServerlessConfig, seed: Seed) -> Self {
            Self::new(Platform::serverless(cfg, seed))
        }

        /// Harness around a managed-ML endpoint.
        pub fn managedml(cfg: ManagedMlConfig, seed: Seed) -> Self {
            Self::new(Platform::managedml(cfg, seed))
        }

        /// Harness around a VM server.
        pub fn vm(cfg: VmServerConfig, seed: Seed) -> Self {
            Self::new(Platform::vm(cfg, seed))
        }

        /// Harness around a hybrid deployment.
        pub fn hybrid(cfg: HybridConfig, seed: Seed) -> Self {
            Self::new(Platform::hybrid(cfg, seed))
        }

        /// Installs a fault plan on the wrapped platform (call before the
        /// first arrival).
        pub fn set_faults(&mut self, plan: &crate::FaultPlan, seed: Seed) {
            self.engine.system.platform.set_faults(plan, seed);
        }

        /// Queues an arrival at `at_secs`.
        pub fn submit_at(&mut self, at_secs: f64, req: ServingRequest) {
            self.engine
                .queue
                .schedule_at(SimTime::from_secs_f64(at_secs), HarnessEvent::Arrival(req));
        }

        /// Runs until the queue drains; returns all responses so far.
        pub fn run(&mut self) -> Vec<ServingResponse> {
            self.engine.run_to_completion();
            self.engine.system.responses.clone()
        }

        /// Ids of the requests dropped without a response so far.
        pub fn dropped(&self) -> &[RequestId] {
            &self.engine.system.dropped
        }

        /// Runs until `horizon_secs` and advances the clock there; returns
        /// all responses so far.
        pub fn run_until(&mut self, horizon_secs: f64) -> Vec<ServingResponse> {
            let horizon = SimTime::from_secs_f64(horizon_secs);
            self.engine.run_until(horizon);
            self.engine.queue.advance_to(horizon);
            self.engine.system.responses.clone()
        }

        /// Finalizes billing at the current virtual time and reports.
        pub fn finalize_report(&mut self) -> PlatformReport {
            let now = self.engine.now();
            self.engine.system.platform.finalize(now);
            self.engine.system.platform.report()
        }

        /// The wrapped serverless platform.
        ///
        /// # Panics
        /// Panics when the harness wraps a different family.
        pub fn platform_serverless(&self) -> &ServerlessPlatform {
            match &self.engine.system.platform {
                Platform::Serverless(p) => p,
                _ => panic!("not a serverless harness"),
            }
        }

        /// The wrapped managed-ML platform.
        ///
        /// # Panics
        /// Panics when the harness wraps a different family.
        pub fn platform_managedml(&self) -> &ManagedMlPlatform {
            match &self.engine.system.platform {
                Platform::ManagedMl(p) => p,
                _ => panic!("not a managed-ML harness"),
            }
        }

        /// The wrapped hybrid platform.
        ///
        /// # Panics
        /// Panics when the harness wraps a different family.
        pub fn platform_hybrid(&self) -> &HybridPlatform {
            match &self.engine.system.platform {
                Platform::Hybrid(p) => p,
                _ => panic!("not a hybrid harness"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slsb_model::{ModelKind, RuntimeKind};
    use slsb_sim::Seed;

    #[test]
    #[should_panic(expected = "wrong platform")]
    fn cross_family_event_panics() {
        let cfg = VmServerConfig::cpu(
            crate::provider::CloudProvider::Aws,
            ModelKind::MobileNet.profile(),
            RuntimeKind::Tf115.profile(),
        );
        let mut p = Platform::vm(cfg, Seed(1));
        let mut buf = Vec::new();
        let mut sched = PlatformScheduler::new(SimTime::ZERO, &mut buf);
        p.handle(
            &mut sched,
            PlatformEvent::Serverless(ServerlessEvent::InstanceReady(0)),
        );
    }

    #[test]
    fn scheduler_collects_events() {
        let mut buf = Vec::new();
        let mut sched = PlatformScheduler::new(SimTime::from_secs_f64(5.0), &mut buf);
        assert_eq!(sched.now(), SimTime::from_secs_f64(5.0));
        sched.schedule(
            SimDuration::from_secs(1),
            PlatformEvent::Vm(VmEvent::HandlerDone(0)),
        );
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn scheduler_emit_stamps_current_time() {
        use slsb_obs::{Component, MemoryRecorder};

        let mut buf = Vec::new();
        let mut rec = MemoryRecorder::new();
        let now = SimTime::from_secs_f64(2.5);
        {
            let mut sched = PlatformScheduler::with_recorder(now, &mut buf, Some(&mut rec));
            sched.emit(|| EventKind::RequestArrival {
                component: Component::Vm,
                request: 7,
            });
        }
        assert_eq!(rec.events().len(), 1);
        assert_eq!(rec.events()[0].at, now);

        // Without a recorder the closure must not even run.
        let mut sched = PlatformScheduler::new(now, &mut buf);
        sched.emit(|| unreachable!("emit closure ran with recording off"));
    }
}
