//! Serverless (FaaS) platform simulator — Lambda / Cloud Functions style.
//!
//! Mechanisms, each of which the paper identifies as causally responsible
//! for a result:
//!
//! * **One request per instance** (Section 2.3): an arrival either lands on
//!   an idle warm instance or triggers a new instance; the platform never
//!   queues requests, which is why serverless success ratios stay ≈ 100 %
//!   while every other system drops requests.
//! * **Cold-start pipeline** (Figure 10): boot → import → download → load →
//!   first predict, with per-provider factors calibrated to the paper's
//!   sub-stage breakdown.
//! * **Keep-alive pool**: instances stay warm for a provider-specific idle
//!   window, then are reclaimed.
//! * **Over-provisioning** (Section 5.1 / Figure 11): while instances are
//!   still starting the platform keeps spawning, so more instances are
//!   created than needed; GCP does this more aggressively.
//! * **Provisioned concurrency** (Section 5.4): pre-warmed instances that
//!   bill a reservation fee, plus the more aggressive scaling policy the
//!   paper infers from its cold-start counts.
//! * **Billing** (Table 1): per-invocation fee plus quantized GB-seconds of
//!   handler time; Cloud Functions additionally bills in-first-request
//!   imports.

use crate::api::{PlatformEvent, PlatformReport, PlatformScheduler};
use crate::billing::{CostBreakdown, ServerlessMeter, ServerlessPricing};
use crate::faults::{FaultInjector, FaultPlan};
use crate::idmap::IdMap;
use crate::policy::{KeepAliveTracker, PlacementPolicy, PolicySet, ScalingPolicy};
use crate::provider::CloudProvider;
use crate::request::{ColdStartBreakdown, FailureReason, Outcome, ServingRequest, ServingResponse};
use crate::storage::StorageProfile;
use slsb_model::{first_predict_time, predict_time, CpuAllocation, ModelProfile, RuntimeProfile};
use slsb_obs::{Component, EventKind, FaultKind, SpawnCause};
use slsb_sim::{GaugeSeries, Seed, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// The component tag this simulator stamps on trace events.
const COMPONENT: Component = Component::Serverless;

/// Provider-specific behavior knobs for a serverless platform.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerlessParams {
    /// Which cloud this parameterization models.
    pub provider: CloudProvider,
    /// Memory→vCPU allocation curve.
    pub cpu: CpuAllocation,
    /// Price sheet.
    pub pricing: ServerlessPricing,
    /// Artifact store reachable from instances.
    pub storage: StorageProfile,
    /// Sandbox/container boot time, excluding image size effects.
    pub boot_base: SimDuration,
    /// Additional boot time per GB of container image (Figure 12a finds
    /// this small: ~0.1–0.2 s per extra 0.5–1.5 GB).
    pub boot_per_image_gb: SimDuration,
    /// Probability a cold start is the first on its physical host and must
    /// pull the image from registry storage (the paper measures 1–2 % of
    /// cold starts taking > 20 s, Section 5.1).
    pub first_pull_chance: f64,
    /// Extra boot time for a first-on-host image pull.
    pub first_pull_time: SimDuration,
    /// Platform share of the container image in MB (paper: TF images are
    /// 1238 MB on AWS vs 920 MB on GCP; the runtime contributes ~900 MB).
    pub image_base_mb: f64,
    /// Multiplier on the runtime's dependency-import time.
    pub import_factor: f64,
    /// Multiplier on the runtime's model-load time.
    pub load_factor: f64,
    /// Multiplier on warm predict time (captures per-provider CPU
    /// generation/efficiency differences at equal nominal vCPUs).
    pub predict_factor: f64,
    /// Fixed handler overhead per invocation (request parsing, response
    /// serialization).
    pub handler_overhead: SimDuration,
    /// Idle window before a warm instance is reclaimed.
    pub keep_alive: SimDuration,
    /// How many pending invocations the router lets wait per instance that
    /// is already starting before it spawns another instance. 1 models
    /// strict one-environment-per-concurrent-request scaling; higher values
    /// model routers that coalesce the cold-start wave onto the
    /// environments already booting.
    pub pending_per_starting: u32,
    /// Over-provisioning aggressiveness: expected instances spawned per
    /// instance actually needed (≥ 1).
    pub spawn_factor: f64,
    /// Spawn factor once provisioned concurrency is enabled (the paper
    /// infers a *more* aggressive policy from its Figure 16 cold-start
    /// counts).
    pub spawn_factor_provisioned: f64,
    /// Whether instance-initialization work (imports) is billed (GCP bills
    /// it inside the first request; Lambda's init phase is free).
    pub bill_init: bool,
    /// Fault-injection knob: probability that a starting instance crashes
    /// at the end of its boot pipeline and must be replaced (0 in the
    /// calibrated presets; used by robustness tests).
    pub crash_on_start_chance: f64,
    /// Log-normal σ applied to every sampled stage duration.
    pub jitter_sigma: f64,
}

impl ServerlessParams {
    /// AWS Lambda parameterization (anchors: Figure 10 cold-start
    /// breakdown, Figure 12 micro-benchmarks, Table 1 costs).
    pub fn aws() -> Self {
        ServerlessParams {
            provider: CloudProvider::Aws,
            cpu: CpuAllocation::AWS_LAMBDA,
            pricing: ServerlessPricing::AWS_LAMBDA,
            storage: StorageProfile::AWS,
            boot_base: SimDuration::from_millis(900),
            boot_per_image_gb: SimDuration::from_millis(120),
            first_pull_chance: 0.015,
            first_pull_time: SimDuration::from_secs(15),
            image_base_mb: 338.0,
            import_factor: 1.0,
            load_factor: 1.0,
            predict_factor: 0.85,
            handler_overhead: SimDuration::from_millis(8),
            keep_alive: SimDuration::from_secs(600),
            pending_per_starting: 2,
            spawn_factor: 1.05,
            spawn_factor_provisioned: 1.45,
            bill_init: false,
            crash_on_start_chance: 0.0,
            jitter_sigma: 0.12,
        }
    }

    /// Google Cloud Functions parameterization.
    pub fn gcp() -> Self {
        ServerlessParams {
            provider: CloudProvider::Gcp,
            cpu: CpuAllocation::GCP_FUNCTIONS,
            pricing: ServerlessPricing::GCP_FUNCTIONS,
            storage: StorageProfile::GCP,
            boot_base: SimDuration::from_millis(1_300),
            boot_per_image_gb: SimDuration::from_millis(150),
            first_pull_chance: 0.015,
            first_pull_time: SimDuration::from_secs(18),
            image_base_mb: 20.0,
            import_factor: 1.15,
            load_factor: 1.9,
            predict_factor: 1.0,
            handler_overhead: SimDuration::from_millis(15),
            keep_alive: SimDuration::from_secs(900),
            pending_per_starting: 1,
            spawn_factor: 1.25,
            spawn_factor_provisioned: 1.25,
            bill_init: true,
            crash_on_start_chance: 0.0,
            jitter_sigma: 0.12,
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

/// A deployed serverless function.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerlessConfig {
    /// Provider behavior knobs.
    pub params: ServerlessParams,
    /// The served model.
    pub model: ModelProfile,
    /// The serving runtime baked into the image.
    pub runtime: RuntimeProfile,
    /// Configured function memory (the paper's default is 2 GB).
    pub memory_mb: f64,
    /// Pre-warmed instances (Lambda provisioned concurrency; Section 5.4).
    pub provisioned_concurrency: u32,
    /// Whether the model artifact is baked into the container image instead
    /// of downloaded from storage — required for VGG on Lambda because the
    /// 548 MB artifact exceeds the 512 MB `/tmp` quota (Section 3).
    pub bake_model_in_image: bool,
    /// Extra dummy MB injected into the image (Figure 12a sweep).
    pub extra_container_mb: f64,
    /// Extra dummy MB downloaded beside the model (Figure 12b sweep).
    pub extra_download_mb: f64,
    /// Keep-alive / placement / scaling policies. The default reproduces
    /// the provider behavior above exactly (pinned by the policy goldens).
    pub policy: PolicySet,
}

impl ServerlessConfig {
    /// A default 2 GB deployment of `model` × `runtime` on `provider`.
    pub fn new(provider: CloudProvider, model: ModelProfile, runtime: RuntimeProfile) -> Self {
        ServerlessConfig {
            params: ServerlessParams::for_provider(provider),
            model,
            runtime,
            memory_mb: 2048.0,
            provisioned_concurrency: 0,
            bake_model_in_image: false,
            extra_container_mb: 0.0,
            extra_download_mb: 0.0,
            policy: PolicySet::default(),
        }
    }

    /// Total container image size in MB.
    pub fn image_mb(&self) -> f64 {
        self.params.image_base_mb
            + self.runtime.image_mb
            + self.extra_container_mb
            + if self.bake_model_in_image {
                self.model.artifact_mb
            } else {
                0.0
            }
    }

    /// MB downloaded from storage during a cold start.
    pub fn download_mb(&self) -> f64 {
        self.extra_download_mb
            + if self.bake_model_in_image {
                0.0
            } else {
                self.model.artifact_mb
            }
    }

    /// Allocated vCPUs at the configured memory.
    pub fn vcpus(&self) -> f64 {
        self.params.cpu.vcpus(self.memory_mb)
    }
}

/// The medians of a deployment's cold-start stages, before jitter.
#[derive(Debug, Clone, Copy)]
struct ColdStartMedians {
    /// Sandbox boot, image size included.
    boot: SimDuration,
    /// What a first-on-host image pull adds to the boot.
    first_pull: SimDuration,
    /// Dependency import on the instance's CPU share.
    import: SimDuration,
    /// Artifact download from storage.
    download: SimDuration,
    /// Model load on the instance's CPU share.
    load: SimDuration,
}

impl ColdStartMedians {
    fn new(cfg: &ServerlessConfig) -> Self {
        let p = &cfg.params;
        let image_gb = cfg.image_mb() / 1024.0;
        // Initialization work (imports, model load) runs on the instance's
        // CPU share, so larger memory sizes shorten it (Figure 15's lever).
        let init_slowdown = 1.0 / slsb_model::init_speedup(cfg.vcpus());
        ColdStartMedians {
            boot: p.boot_base + p.boot_per_image_gb.mul_f64(image_gb),
            first_pull: p.first_pull_time.mul_f64(0.5 + image_gb),
            import: cfg
                .runtime
                .import_time
                .mul_f64(p.import_factor * init_slowdown),
            download: p.storage.download_time(cfg.download_mb()),
            load: cfg
                .runtime
                .load_time(cfg.model.artifact_mb)
                .mul_f64(p.load_factor * init_slowdown),
        }
    }
}

/// Internal events of the serverless simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerlessEvent {
    /// An instance finished its boot+import pipeline.
    InstanceReady(u64),
    /// An instance finished executing a request's handler.
    HandlerDone(u64),
    /// Keep-alive check for a possibly idle instance.
    ReclaimCheck(u64),
}

#[derive(Debug, Clone)]
enum InstanceState {
    /// Boot + import in progress.
    Starting { breakdown: ColdStartBreakdown },
    /// Executing a handler (or eager warm-up).
    Busy,
    /// Warm and free.
    Idle,
}

#[derive(Debug, Clone)]
struct Instance {
    state: InstanceState,
    provisioned: bool,
    /// Whether this instance was spawned for observed demand (pending
    /// backlog) as opposed to speculatively (over-provisioning).
    demanded: bool,
    /// Set when the model is loaded into the runtime (after the first
    /// handler, or eagerly for pre-warmed instances).
    warm: bool,
    /// Set when an injected mid-execution crash killed the running
    /// handler: the instance dies when the handler would have completed.
    poisoned: bool,
    last_used: SimTime,
    /// Handlers this instance has executed (least-loaded placement key).
    served: u64,
    /// The keep-alive window in force when this instance last went idle;
    /// its pending reclaim check compares against this, so an adaptive
    /// policy can't retroactively shorten a window already granted.
    idle_window: SimDuration,
    /// Fire time of this instance's one *current* pending
    /// [`ServerlessEvent::ReclaimCheck`], or [`SimTime::MAX`] when none is
    /// outstanding. Reclaim checks are coalesced: instead of scheduling a
    /// check per idle transition (one per request under warm reuse, each
    /// landing minutes out in the kernel's far overflow), the platform keeps
    /// at most one live check and lets it re-arm itself at the current
    /// expiry. A firing check whose time differs from this field is stale
    /// and ignored, which is what makes reclaim instants exactly match the
    /// uncoalesced schedule even when an adaptive policy shrinks windows.
    check_at: SimTime,
}

/// The simulated serverless platform.
pub struct ServerlessPlatform {
    cfg: ServerlessConfig,
    rng: SimRng,
    faults: FaultInjector,
    /// Keep-alive policy state (inter-arrival histogram when adaptive).
    keep_alive: KeepAliveTracker,
    instances: IdMap<Instance>,
    /// Idle on-demand instance ids, most-recently-used last (we pop from
    /// the back, so the pool shrinks naturally and keep-alive reclaims the
    /// cold tail).
    idle: Vec<u64>,
    /// Idle provisioned instance ids, same discipline. Kept apart from the
    /// on-demand pool so routing to provisioned capacity first is a pop
    /// instead of a scan over every idle instance per request.
    idle_provisioned: Vec<u64>,
    /// Warm predict time including the configured predict factor, fixed by
    /// the deployment, hoisted out of the per-request path.
    warm_predict_base: SimDuration,
    /// First (lazy-init) predict time including the predict factor.
    first_predict_base: SimDuration,
    /// Cold-start stage medians, fixed by the deployment, hoisted out of
    /// [`ServerlessPlatform::spawn`].
    cold: ColdStartMedians,
    /// Invocations waiting for an execution environment (the router holds
    /// them while instances boot, exactly as Lambda/Cloud Functions hold
    /// pending invocations).
    pending: VecDeque<ServingRequest>,
    /// Demand-driven instances currently in the boot+import pipeline.
    /// Speculative (over-provisioned) instances are *not* counted here, so
    /// they add capacity on top of demand instead of displacing it.
    starting_demanded: u64,
    next_id: u64,
    meter: ServerlessMeter,
    gauge: GaugeSeries,
    cold_started: u64,
    responses: Vec<ServingResponse>,
    started_at: Option<SimTime>,
    busy_seconds: f64,
    finalized_at: Option<SimTime>,
    finalized: bool,
}

impl ServerlessPlatform {
    /// Builds the platform; randomness comes from `seed`'s "serverless"
    /// substream.
    pub fn new(cfg: ServerlessConfig, seed: Seed) -> Self {
        let meter = ServerlessMeter::new(cfg.params.pricing, cfg.memory_mb / 1024.0);
        let vcpus = cfg.vcpus();
        let warm_predict_base =
            predict_time(&cfg.model, &cfg.runtime, vcpus).mul_f64(cfg.params.predict_factor);
        let first_predict_base =
            first_predict_time(&cfg.model, &cfg.runtime, vcpus).mul_f64(cfg.params.predict_factor);
        let cold = ColdStartMedians::new(&cfg);
        ServerlessPlatform {
            rng: seed.substream("serverless").rng(),
            faults: FaultInjector::disabled(),
            keep_alive: KeepAliveTracker::new(cfg.policy.keep_alive),
            cfg,
            instances: IdMap::new(),
            idle: Vec::new(),
            idle_provisioned: Vec::new(),
            warm_predict_base,
            first_predict_base,
            cold,
            pending: VecDeque::new(),
            starting_demanded: 0,
            next_id: 0,
            meter,
            gauge: GaugeSeries::new(),
            cold_started: 0,
            responses: Vec::new(),
            started_at: None,
            busy_seconds: 0.0,
            finalized_at: None,
            finalized: false,
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &ServerlessConfig {
        &self.cfg
    }

    /// Pre-sizes the pending queue, instance slab and idle pool for a run
    /// expected to carry about `requests` invocations. All three track
    /// concurrency rather than total volume, so the reservations are
    /// capped; responses are drained as they complete and need none.
    pub fn reserve(&mut self, requests: usize) {
        let concurrent = requests.min(4096);
        self.pending.reserve(concurrent);
        self.instances.reserve(concurrent);
        self.idle.reserve(concurrent);
    }

    /// Installs a fault plan, replacing any previous one. An empty plan
    /// never draws from `seed` and changes nothing.
    pub fn set_faults(&mut self, plan: FaultPlan, seed: Seed) {
        self.faults = FaultInjector::new(plan, seed);
    }

    /// Discrete faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.injected()
    }

    /// Called once at the beginning of the run; pre-warms provisioned
    /// concurrency.
    pub fn start(&mut self, sched: &mut PlatformScheduler<'_>) {
        self.started_at = Some(sched.now());
        for _ in 0..self.cfg.provisioned_concurrency {
            let id = self.next_id;
            self.next_id += 1;
            // Provisioned instances are warmed before the workload begins:
            // ready immediately, model loaded, lazy init already absorbed.
            self.instances.insert(
                id,
                Instance {
                    state: InstanceState::Idle,
                    provisioned: true,
                    demanded: false,
                    warm: true,
                    poisoned: false,
                    last_used: sched.now(),
                    served: 0,
                    idle_window: self.cfg.params.keep_alive,
                    check_at: SimTime::MAX,
                },
            );
            self.idle_provisioned.push(id);
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
    }

    fn jitter(&mut self, median: SimDuration) -> SimDuration {
        self.rng.lognormal(median, self.cfg.params.jitter_sigma)
    }

    fn warm_predict(&mut self, inferences: u32) -> SimDuration {
        self.jitter(self.warm_predict_base * u64::from(inferences.max(1)))
    }

    fn first_predict(&mut self, inferences: u32) -> SimDuration {
        // Lazy init applies once; extra inferences run warm.
        self.jitter(
            self.first_predict_base + self.warm_predict_base * u64::from(inferences.max(1) - 1),
        )
    }

    /// Handles an arriving request.
    pub fn submit(&mut self, sched: &mut PlatformScheduler<'_>, req: ServingRequest) {
        sched.emit(|| EventKind::RequestArrival {
            component: COMPONENT,
            request: req.id.0,
        });
        self.keep_alive.observe_arrival(sched.now());
        if let Some(kind) = self.faults.admit(sched.now()) {
            // Injected throttle / outage: refused at the front door, like
            // a 429 before any environment is involved.
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
        if let Some(id) = self.pick_idle() {
            self.execute_warm(sched, id, req, SimDuration::ZERO);
        } else {
            sched.emit(|| EventKind::RequestQueued {
                component: COMPONENT,
                request: req.id.0,
            });
            self.pending.push_back(req);
            // Spawn when the backlog outgrows what the already-booting
            // demand-driven instances can be expected to absorb.
            if self.pending.len() as u64
                > self.starting_demanded * u64::from(self.cfg.params.pending_per_starting.max(1))
            {
                self.spawn(sched, true);
                self.maybe_overprovision(sched);
            }
        }
    }

    /// Handles one of this platform's internal events.
    pub fn handle(&mut self, sched: &mut PlatformScheduler<'_>, ev: ServerlessEvent) {
        match ev {
            ServerlessEvent::InstanceReady(id) => self.on_ready(sched, id),
            ServerlessEvent::HandlerDone(id) => self.on_done(sched, id),
            ServerlessEvent::ReclaimCheck(id) => self.on_reclaim_check(sched, id),
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
        self.finalized_at = Some(now);
        if self.cfg.provisioned_concurrency > 0 {
            let started = self.started_at.unwrap_or(SimTime::ZERO);
            self.meter.record_reservation(
                self.cfg.provisioned_concurrency,
                now.saturating_duration_since(started),
            );
        }
    }

    /// Cost and instance accounting.
    pub fn report(&self) -> PlatformReport {
        // Instance-seconds = time-integral of the live-instance gauge up to
        // the end of the run (or the last gauge change before finalize).
        let end = self
            .finalized_at
            .or_else(|| self.gauge.points().last().map(|&(t, _)| t))
            .unwrap_or(SimTime::ZERO);
        let instance_seconds = self.gauge.time_weighted_mean(end) * end.as_secs_f64();
        PlatformReport {
            cost: self.cost(),
            instances: self.gauge.clone(),
            cold_started: self.cold_started,
            invocations: self.meter.invocations(),
            busy_seconds: self.busy_seconds,
            instance_seconds,
            faults: self.faults.injected(),
        }
    }

    /// Current cost breakdown.
    pub fn cost(&self) -> CostBreakdown {
        self.meter.breakdown()
    }

    /// Number of instances that went through the cold-start pipeline.
    pub fn cold_started(&self) -> u64 {
        self.cold_started
    }

    /// Live instances (any state).
    pub fn live_instances(&self) -> usize {
        self.instances.len()
    }

    fn pick_idle(&mut self) -> Option<u64> {
        // Provisioned capacity is always routed to first (Lambda's rule),
        // whatever the placement policy.
        match self.cfg.policy.placement {
            PlacementPolicy::Mru => {
                // Both pools are most-recently-used last, so popping picks
                // exactly the instance a scan over one mixed pool would.
                self.idle_provisioned.pop().or_else(|| self.idle.pop())
            }
            PlacementPolicy::LeastLoaded => self
                .pick_least_loaded_from_provisioned_pool(true)
                .or_else(|| self.pick_least_loaded_from_provisioned_pool(false)),
        }
    }

    /// Removes and returns the idle instance with the fewest served
    /// handlers (ties to the lowest id) from one of the two idle pools.
    fn pick_least_loaded_from_provisioned_pool(&mut self, provisioned: bool) -> Option<u64> {
        let instances = &self.instances;
        let pool = if provisioned {
            &mut self.idle_provisioned
        } else {
            &mut self.idle
        };
        let best = pool
            .iter()
            .enumerate()
            .min_by_key(|&(_, &id)| (instances[id].served, id))
            .map(|(slot, _)| slot)?;
        Some(pool.swap_remove(best))
    }

    fn execute_warm(
        &mut self,
        sched: &mut PlatformScheduler<'_>,
        id: u64,
        req: ServingRequest,
        queued: SimDuration,
    ) {
        let predict = self.warm_predict(req.inferences);
        let handler = self.cfg.params.handler_overhead + predict;
        let provisioned = self.instances[id].provisioned;
        // An injected mid-execution crash kills the handler after its
        // would-be service time: the work (and billing) happens, the
        // response never leaves, and the environment dies with it.
        let crashed = self.faults.crash_mid_exec();
        self.meter.record_invocation(handler, provisioned);
        self.busy_seconds += handler.as_secs_f64();
        let inst = self.instances.get_mut(id).expect("warm instance exists");
        inst.state = InstanceState::Busy;
        inst.poisoned = crashed;
        inst.served += 1;
        if crashed {
            sched.emit(|| EventKind::Fault {
                component: Some(COMPONENT),
                kind: FaultKind::ExecCrash,
            });
        }
        self.responses.push(ServingResponse {
            id: req.id,
            outcome: if crashed {
                Outcome::Failure(FailureReason::Crashed)
            } else {
                Outcome::Success
            },
            completed_at: sched.now() + handler,
            cold_start: None,
            predict,
            queued,
        });
        let done_at = sched.now() + handler;
        sched.emit(|| EventKind::ExecStart {
            component: COMPONENT,
            request: req.id.0,
            instance: id,
            cold: false,
            done_at,
        });
        sched.emit(|| EventKind::BillingTick {
            component: COMPONENT,
            billed: handler,
        });
        sched.schedule(
            handler,
            PlatformEvent::Serverless(ServerlessEvent::HandlerDone(id)),
        );
    }

    fn spawn(&mut self, sched: &mut PlatformScheduler<'_>, demanded: bool) {
        let id = self.next_id;
        self.next_id += 1;
        self.cold_started += 1;
        if demanded {
            self.starting_demanded += 1;
        }

        let cold = self.cold;
        let mut boot_median = cold.boot;
        if self.rng.chance(self.cfg.params.first_pull_chance) {
            boot_median += cold.first_pull;
        }
        let boot = self.jitter(boot_median);
        let import = self.jitter(cold.import);
        let download = {
            let base = self.jitter(cold.download);
            let (extra, stalled) = self.faults.storage_penalty(base);
            if stalled {
                sched.emit(|| EventKind::Fault {
                    component: Some(COMPONENT),
                    kind: FaultKind::StorageStall,
                });
            }
            base + extra
        };
        let load = self.jitter(cold.load);

        let breakdown = ColdStartBreakdown {
            boot,
            import,
            download,
            load,
        };
        self.instances.insert(
            id,
            Instance {
                state: InstanceState::Starting { breakdown },
                provisioned: false,
                demanded,
                warm: false,
                poisoned: false,
                last_used: sched.now(),
                served: 0,
                idle_window: self.cfg.params.keep_alive,
                check_at: SimTime::MAX,
            },
        );
        self.gauge.record_delta(sched.now(), 1);
        sched.emit(|| EventKind::InstanceSpawn {
            component: COMPONENT,
            instance: id,
            cause: if demanded {
                SpawnCause::Demand
            } else {
                SpawnCause::Overprovision
            },
        });
        // The sandbox is ready (able to run the handler) after boot+import;
        // download/load/first-predict happen inside the first handler call.
        sched.schedule(
            boot + import,
            PlatformEvent::Serverless(ServerlessEvent::InstanceReady(id)),
        );
    }

    fn maybe_overprovision(&mut self, sched: &mut PlatformScheduler<'_>) {
        // Gated before any RNG draw so disabling it cannot perturb the
        // other sampled quantities of a run.
        if self.cfg.policy.scaling == ScalingPolicy::NoOverprovision {
            return;
        }
        let factor = if self.cfg.provisioned_concurrency > 0 {
            self.cfg.params.spawn_factor_provisioned
        } else {
            self.cfg.params.spawn_factor
        };
        let mut extra = factor - 1.0;
        while extra > 0.0 {
            if self.rng.chance(extra.min(1.0)) {
                self.spawn(sched, false);
            }
            extra -= 1.0;
        }
    }

    fn on_ready(&mut self, sched: &mut PlatformScheduler<'_>, id: u64) {
        let inst = self
            .instances
            .get_mut(id)
            .expect("starting instance exists");
        let demanded = inst.demanded;
        let InstanceState::Starting { breakdown } =
            std::mem::replace(&mut inst.state, InstanceState::Busy)
        else {
            unreachable!("InstanceReady on non-starting instance");
        };
        if demanded {
            self.starting_demanded -= 1;
        }
        let p = self.cfg.params.clone();
        let param_crash = self.rng.chance(p.crash_on_start_chance);
        let fault_crash = !param_crash && self.faults.crash_on_boot();
        if param_crash || fault_crash {
            // The sandbox died during initialization; the platform replaces
            // it. Nothing is billed (the handler never ran) and any pending
            // invocation keeps waiting for the replacement.
            self.instances.remove(id);
            self.gauge.record_delta(sched.now(), -1);
            if fault_crash {
                sched.emit(|| EventKind::Fault {
                    component: Some(COMPONENT),
                    kind: FaultKind::BootCrash,
                });
            }
            sched.emit(|| EventKind::InstanceCrash {
                component: COMPONENT,
                instance: id,
            });
            self.spawn(sched, demanded);
            return;
        }
        sched.emit(|| EventKind::InstanceReady {
            component: COMPONENT,
            instance: id,
            boot: breakdown.boot,
            import: breakdown.import,
            download: breakdown.download,
            load: breakdown.load,
        });
        if p.bill_init {
            self.meter.record_init(breakdown.import);
        }
        match self.pending.pop_front() {
            Some(req) => {
                // First handler: download + load + lazy first predict. The
                // request waited for this environment since its arrival.
                let predict = self.first_predict(req.inferences);
                let handler = p.handler_overhead + breakdown.download + breakdown.load + predict;
                let crashed = self.faults.crash_mid_exec();
                self.meter.record_invocation(handler, false);
                self.busy_seconds += handler.as_secs_f64();
                let inst = self.instances.get_mut(id).expect("instance exists");
                inst.warm = true;
                inst.poisoned = crashed;
                inst.served += 1;
                if crashed {
                    sched.emit(|| EventKind::Fault {
                        component: Some(COMPONENT),
                        kind: FaultKind::ExecCrash,
                    });
                }
                self.responses.push(ServingResponse {
                    id: req.id,
                    outcome: if crashed {
                        Outcome::Failure(FailureReason::Crashed)
                    } else {
                        Outcome::Success
                    },
                    completed_at: sched.now() + handler,
                    cold_start: Some(breakdown),
                    predict,
                    queued: sched.now().saturating_duration_since(req.arrival),
                });
                let done_at = sched.now() + handler;
                sched.emit(|| EventKind::InstanceWarm {
                    component: COMPONENT,
                    instance: id,
                });
                sched.emit(|| EventKind::ExecStart {
                    component: COMPONENT,
                    request: req.id.0,
                    instance: id,
                    cold: true,
                    done_at,
                });
                sched.emit(|| EventKind::BillingTick {
                    component: COMPONENT,
                    billed: handler,
                });
                sched.schedule(
                    handler,
                    PlatformEvent::Serverless(ServerlessEvent::HandlerDone(id)),
                );
            }
            None => {
                // No invocation is waiting anymore (over-provisioned or the
                // wave drained): warm up eagerly — download + load + lazy
                // init. Neither provider bills instances that never served
                // a request, so this time costs wall-clock only.
                let warmup = breakdown.download + breakdown.load + self.first_predict_base;
                let inst = self.instances.get_mut(id).expect("instance exists");
                inst.warm = true;
                sched.emit(|| EventKind::InstanceWarm {
                    component: COMPONENT,
                    instance: id,
                });
                sched.schedule(
                    warmup,
                    PlatformEvent::Serverless(ServerlessEvent::HandlerDone(id)),
                );
            }
        }
    }

    fn on_done(&mut self, sched: &mut PlatformScheduler<'_>, id: u64) {
        let now = sched.now();
        let inst = self.instances.get_mut(id).expect("busy instance exists");
        debug_assert!(matches!(inst.state, InstanceState::Busy));
        if inst.poisoned {
            // The handler crashed mid-execution: the environment is gone.
            // If demand is still waiting, replace it like a boot crash.
            self.instances.remove(id);
            self.gauge.record_delta(now, -1);
            sched.emit(|| EventKind::InstanceCrash {
                component: COMPONENT,
                instance: id,
            });
            if !self.pending.is_empty() {
                self.spawn(sched, true);
            }
            return;
        }
        inst.state = InstanceState::Idle;
        inst.last_used = now;
        let provisioned = inst.provisioned;
        // A freed environment immediately takes the oldest pending
        // invocation, if any.
        if let Some(req) = self.pending.pop_front() {
            let queued = now.saturating_duration_since(req.arrival);
            self.execute_warm(sched, id, req, queued);
            return;
        }
        if provisioned {
            // Provisioned capacity is never reclaimed, so it gets no check.
            self.idle_provisioned.push(id);
            return;
        }
        self.idle.push(id);
        let window = self.keep_alive.window(self.cfg.params.keep_alive);
        let expiry = now + window;
        let inst = self.instances.get_mut(id).expect("idle instance exists");
        inst.idle_window = window;
        // Re-arm only when no current check covers the new expiry. Under
        // warm reuse the outstanding check already fires at or before
        // `expiry` and will re-arm itself, so the common case schedules
        // nothing — that check would land `window` (minutes) out, in the
        // timer wheel's far overflow, once per request.
        if inst.check_at > expiry {
            inst.check_at = expiry;
            sched.schedule(
                window,
                PlatformEvent::Serverless(ServerlessEvent::ReclaimCheck(id)),
            );
        }
    }

    fn on_reclaim_check(&mut self, sched: &mut PlatformScheduler<'_>, id: u64) {
        let now = sched.now();
        let Some(inst) = self.instances.get_mut(id) else {
            return; // already reclaimed
        };
        if now != inst.check_at {
            return; // stale: a newer check owns this instance
        }
        inst.check_at = SimTime::MAX;
        if inst.provisioned || !matches!(inst.state, InstanceState::Idle) {
            // Busy or starting: the next idle transition re-arms.
            return;
        }
        let expiry = inst.last_used + inst.idle_window;
        if now >= expiry {
            self.instances.remove(id);
            self.idle.retain(|&i| i != id);
            self.gauge.record_delta(now, -1);
            sched.emit(|| EventKind::InstanceReclaim {
                component: COMPONENT,
                instance: id,
            });
        } else {
            // Reused since this check was armed: chase the current expiry.
            inst.check_at = expiry;
            sched.schedule(
                expiry.saturating_duration_since(now),
                PlatformEvent::Serverless(ServerlessEvent::ReclaimCheck(id)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_harness::PlatformHarness;
    use crate::request::RequestId;
    use slsb_model::{ModelKind, RuntimeKind};

    fn mobilenet_aws() -> ServerlessConfig {
        ServerlessConfig::new(
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
    fn first_request_cold_starts() {
        let mut h = PlatformHarness::serverless(mobilenet_aws(), Seed(1));
        h.submit_at(0.0, request(0, 0.0));
        let rs = h.run();
        assert_eq!(rs.len(), 1);
        let r = rs[0];
        assert!(r.outcome.is_success());
        let bd = r.cold_start.expect("cold start expected");
        // Figure 10: AWS MobileNet TF cold start ≈ 9.08 s end to end.
        let e2e = r.latency_from(SimTime::ZERO).as_secs_f64();
        assert!((6.0..=13.0).contains(&e2e), "cold E2E {e2e}");
        // Import dominates (4–5 s nominal).
        assert!(bd.import > bd.boot && bd.import > bd.download && bd.import > bd.load);
    }

    #[test]
    fn second_request_reuses_warm_instance() {
        let mut h = PlatformHarness::serverless(mobilenet_aws(), Seed(2));
        h.submit_at(0.0, request(0, 0.0));
        h.submit_at(30.0, request(1, 30.0));
        let rs = h.run();
        assert_eq!(rs.len(), 2);
        let warm = rs.iter().find(|r| r.id == RequestId(1)).unwrap();
        assert!(warm.cold_start.is_none());
        let lat = warm
            .latency_from(SimTime::from_secs_f64(30.0))
            .as_secs_f64();
        assert!(lat < 0.2, "warm latency {lat}");
    }

    #[test]
    fn concurrent_requests_spawn_concurrent_instances() {
        let mut h = PlatformHarness::serverless(mobilenet_aws(), Seed(3));
        for i in 0..20 {
            h.submit_at(0.0, request(i, 0.0));
        }
        let rs = h.run();
        assert_eq!(rs.len(), 20);
        assert!(rs.iter().all(|r| r.outcome.is_success()));
        // The router coalesces the wave: roughly one instance per
        // `pending_per_starting` simultaneous invocations, each serving its
        // first request cold and the follow-up from the pending queue.
        let cold = rs.iter().filter(|r| r.cold_start.is_some()).count();
        let spawned = h.platform_serverless().cold_started();
        assert!((8..=14).contains(&(spawned as usize)), "spawned {spawned}");
        assert!(cold >= 8, "cold-attributed {cold}");
        // The queued half waited for the cold pipeline.
        assert!(rs
            .iter()
            .filter(|r| r.cold_start.is_none())
            .all(|r| !r.queued.is_zero()));
    }

    #[test]
    fn gcp_overprovisions_more_than_aws() {
        let aws = mobilenet_aws();
        let gcp = ServerlessConfig::new(
            CloudProvider::Gcp,
            ModelKind::MobileNet.profile(),
            RuntimeKind::Tf115.profile(),
        );
        let run = |cfg: ServerlessConfig| {
            let mut h = PlatformHarness::serverless(cfg, Seed(4));
            // A burst that forces cold scaling, then a quiet period.
            for i in 0..200 {
                h.submit_at(i as f64 * 0.02, request(i, i as f64 * 0.02));
            }
            h.run();
            h.platform_serverless().cold_started()
        };
        let aws_cold = run(aws);
        let gcp_cold = run(gcp);
        assert!(
            gcp_cold as f64 > aws_cold as f64 * 1.2,
            "GCP {gcp_cold} vs AWS {aws_cold}"
        );
    }

    #[test]
    fn ort_cold_start_much_faster_than_tf() {
        let tf = mobilenet_aws();
        let mut ort = mobilenet_aws();
        ort.runtime = RuntimeKind::Ort14.profile();
        let cold_e2e = |cfg: ServerlessConfig| {
            let mut h = PlatformHarness::serverless(cfg, Seed(5));
            h.submit_at(0.0, request(0, 0.0));
            let rs = h.run();
            rs[0].latency_from(SimTime::ZERO).as_secs_f64()
        };
        let tf_e2e = cold_e2e(tf);
        let ort_e2e = cold_e2e(ort);
        // Figure 14: 9.08 s → 2.775 s on AWS.
        assert!(
            ort_e2e * 2.0 < tf_e2e,
            "ORT {ort_e2e} should be ≪ TF {tf_e2e}"
        );
        assert!((1.5..=4.5).contains(&ort_e2e), "ORT cold E2E {ort_e2e}");
    }

    #[test]
    fn provisioned_concurrency_serves_first_request_warm() {
        let mut cfg = mobilenet_aws();
        cfg.provisioned_concurrency = 2;
        let mut h = PlatformHarness::serverless(cfg, Seed(6));
        h.submit_at(0.0, request(0, 0.0));
        h.submit_at(0.0, request(1, 0.0));
        let rs = h.run();
        assert!(rs.iter().all(|r| r.cold_start.is_none()));
        // Reservation fee accrues.
        let report = h.finalize_report();
        assert!(report.cost.provisioned > crate::billing::Money::ZERO);
    }

    #[test]
    fn keep_alive_reclaims_idle_instances() {
        let mut h = PlatformHarness::serverless(mobilenet_aws(), Seed(7));
        h.submit_at(0.0, request(0, 0.0));
        let _ = h.run_until(2000.0);
        let report = h.finalize_report();
        // The one instance must be gone after keep-alive (600 s).
        assert_eq!(report.instances.current(), 0);
        assert_eq!(report.instances.peak(), 1);
    }

    #[test]
    fn vgg_baked_image_skips_download() {
        let mut cfg = ServerlessConfig::new(
            CloudProvider::Aws,
            ModelKind::Vgg.profile(),
            RuntimeKind::Tf115.profile(),
        );
        cfg.bake_model_in_image = true;
        assert_eq!(cfg.download_mb(), 0.0);
        assert!(cfg.image_mb() > 1700.0); // base + TF + 548 MB model
        let mut h = PlatformHarness::serverless(cfg, Seed(8));
        h.submit_at(0.0, request(0, 0.0));
        let rs = h.run();
        let bd = rs[0].cold_start.unwrap();
        assert!(bd.download.is_zero());
        assert!(!bd.load.is_zero());
    }

    #[test]
    fn billing_scales_with_invocations() {
        let costs: Vec<f64> = [20u64, 2000]
            .iter()
            .map(|&n| {
                let mut h = PlatformHarness::serverless(mobilenet_aws(), Seed(9));
                for i in 0..n {
                    h.submit_at(i as f64 * 0.2, request(i, i as f64 * 0.2));
                }
                h.run();
                h.finalize_report().cost.total().as_dollars()
            })
            .collect();
        // Every request in the first cold-start window cold-starts its own
        // instance, so the small run is cold-dominated; the large run still
        // has to cost meaningfully more.
        assert!(costs[1] > costs[0] * 2.0, "{costs:?}");
    }

    #[test]
    fn extra_download_slows_cold_start() {
        let base = mobilenet_aws();
        let mut heavy = mobilenet_aws();
        heavy.extra_download_mb = 300.0;
        let cold = |cfg: ServerlessConfig| {
            let mut h = PlatformHarness::serverless(cfg, Seed(10));
            h.submit_at(0.0, request(0, 0.0));
            h.run()[0].cold_start.unwrap().download.as_secs_f64()
        };
        let d0 = cold(base);
        let d1 = cold(heavy);
        // Figure 12b: +300 MB adds ≈ 2.39 s on AWS.
        assert!(
            (d1 - d0 - 2.39).abs() < 1.0,
            "marginal download {}",
            d1 - d0
        );
    }

    #[test]
    fn success_ratio_is_total_under_burst() {
        // Serverless never rejects: every submitted request completes.
        let mut h = PlatformHarness::serverless(mobilenet_aws(), Seed(11));
        for i in 0..500 {
            h.submit_at(i as f64 * 0.01, request(i, i as f64 * 0.01));
        }
        let rs = h.run();
        assert_eq!(rs.len(), 500);
        assert!(rs.iter().all(|r| r.outcome.is_success()));
    }
}
