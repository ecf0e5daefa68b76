//! Hybrid serving: a provisioned server with serverless spillover.
//!
//! The paper's related work (MArk, USENIX ATC'19 \[57\]) proposes combining
//! self-rented servers with serverless to get the server's low unit cost
//! *and* serverless elasticity; the paper's Section 5.4 frames provisioned
//! concurrency as exactly such a hybrid. This module implements the
//! composition: requests go to the provisioned VM while its backlog is
//! shallow and spill to a serverless function once it exceeds a bound.

use crate::api::{PlatformEvent, PlatformReport, PlatformScheduler};
use crate::billing::CostBreakdown;
use crate::faults::FaultPlan;
use crate::request::{RequestId, ServingRequest, ServingResponse};
use crate::serverless::{ServerlessConfig, ServerlessPlatform};
use crate::vmserver::{VmServer, VmServerConfig};
use slsb_sim::{Seed, SimDuration, SimTime};

/// When to divert a request to the serverless pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpilloverPolicy {
    /// Spill when the VM backlog (queued requests) exceeds this depth —
    /// i.e. when the expected VM wait exceeds `depth × service`.
    QueueDepth(usize),
}

/// A hybrid deployment: one rented VM plus a serverless function.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// The provisioned base capacity.
    pub vm: VmServerConfig,
    /// The elastic spillover pool.
    pub serverless: ServerlessConfig,
    /// Diversion rule.
    pub policy: SpilloverPolicy,
}

impl HybridConfig {
    /// Installs one [`crate::policy::PolicySet`] on both children — the
    /// hybrid has no policy machinery of its own beyond the spillover rule;
    /// keep-alive, placement, and scaling live in the VM and serverless
    /// halves it composes.
    pub fn with_policy_set(mut self, policy: crate::policy::PolicySet) -> Self {
        self.vm.policy = policy;
        self.serverless.policy = policy;
        self
    }
}

/// The composed platform.
pub struct HybridPlatform {
    cfg: HybridConfig,
    vm: VmServer,
    serverless: ServerlessPlatform,
    spilled: u64,
    buf: Vec<(SimDuration, PlatformEvent)>,
}

impl HybridPlatform {
    /// Builds the hybrid; children derive independent RNG substreams.
    pub fn new(cfg: HybridConfig, seed: Seed) -> Self {
        HybridPlatform {
            vm: VmServer::new(cfg.vm.clone(), seed.substream("hybrid-vm")),
            serverless: ServerlessPlatform::new(
                cfg.serverless.clone(),
                seed.substream("hybrid-sls"),
            ),
            cfg,
            spilled: 0,
            buf: Vec::new(),
        }
    }

    /// Pre-sizes both children for a run expected to carry about
    /// `requests` invocations (each may see any share of the spillover).
    pub fn reserve(&mut self, requests: usize) {
        self.vm.reserve(requests);
        self.serverless.reserve(requests);
    }

    /// The configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.cfg
    }

    /// Requests diverted to the serverless pool so far.
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Installs the same fault plan on both children, each with its own
    /// RNG substream so their draws stay independent.
    pub fn set_faults(&mut self, plan: &FaultPlan, seed: Seed) {
        self.vm
            .set_faults(plan.clone(), seed.substream("faults-hybrid-vm"));
        self.serverless
            .set_faults(plan.clone(), seed.substream("faults-hybrid-sls"));
    }

    /// Runs `f` against a child with a private scheduler, then re-tags the
    /// child's scheduled events as hybrid events on the outer scheduler.
    fn with_child<R>(
        &mut self,
        sched: &mut PlatformScheduler<'_>,
        f: impl FnOnce(&mut VmServer, &mut ServerlessPlatform, &mut PlatformScheduler<'_>) -> R,
    ) -> R {
        let mut inner =
            PlatformScheduler::with_recorder(sched.now(), &mut self.buf, sched.recorder());
        let r = f(&mut self.vm, &mut self.serverless, &mut inner);
        for (d, ev) in self.buf.drain(..) {
            let wrapped = match ev {
                PlatformEvent::Vm(e) => PlatformEvent::HybridVm(e),
                PlatformEvent::Serverless(e) => PlatformEvent::HybridServerless(e),
                other => other,
            };
            sched.schedule(d, wrapped);
        }
        r
    }

    /// Starts both children.
    pub fn start(&mut self, sched: &mut PlatformScheduler<'_>) {
        self.with_child(sched, |vm, sls, s| {
            vm.start(s);
            sls.start(s);
        });
    }

    /// Routes an arriving request per the spillover policy.
    pub fn submit(&mut self, sched: &mut PlatformScheduler<'_>, req: ServingRequest) {
        let SpilloverPolicy::QueueDepth(depth) = self.cfg.policy;
        let spill = self.vm.queue_len() > depth;
        if spill {
            self.spilled += 1;
        }
        self.with_child(sched, |vm, sls, s| {
            if spill {
                sls.submit(s, req);
            } else {
                vm.submit(s, req);
            }
        });
    }

    /// Dispatches a child's event.
    pub fn handle_vm(&mut self, sched: &mut PlatformScheduler<'_>, ev: crate::vmserver::VmEvent) {
        self.with_child(sched, |vm, _, s| vm.handle(s, ev));
    }

    /// Dispatches a child's event.
    pub fn handle_serverless(
        &mut self,
        sched: &mut PlatformScheduler<'_>,
        ev: crate::serverless::ServerlessEvent,
    ) {
        self.with_child(sched, |_, sls, s| sls.handle(s, ev));
    }

    /// Moves completed responses from both children onto `out` (VM first),
    /// keeping each child's buffer capacity.
    pub fn drain_responses_into(&mut self, out: &mut Vec<ServingResponse>) {
        self.vm.drain_responses_into(out);
        self.serverless.drain_responses_into(out);
    }

    /// True when either child has responses waiting to be drained.
    pub fn has_responses(&self) -> bool {
        self.vm.has_responses() || self.serverless.has_responses()
    }

    /// Makes the VM keep the ids of requests it skips stale.
    pub fn track_dropped(&mut self) {
        self.vm.track_dropped();
    }

    /// Moves the ids of requests the VM skipped stale onto `out`; the
    /// serverless child drops nothing.
    pub fn drain_dropped_into(&mut self, out: &mut Vec<RequestId>) {
        self.vm.drain_dropped_into(out);
    }

    /// True when the VM has skipped requests waiting to be drained.
    pub fn has_dropped(&self) -> bool {
        self.vm.has_dropped()
    }

    /// Closes billing on both children.
    pub fn finalize(&mut self, now: SimTime) {
        self.vm.finalize(now);
        self.serverless.finalize(now);
    }

    /// Combined accounting: summed cost, the serverless instance gauge
    /// (the VM contributes a constant 1), serverless cold starts.
    pub fn report(&self) -> PlatformReport {
        let vm = self.vm.report();
        let sls = self.serverless.report();
        PlatformReport {
            cost: CostBreakdown {
                compute: vm.cost.compute + sls.cost.compute,
                invocations: vm.cost.invocations + sls.cost.invocations,
                provisioned: vm.cost.provisioned + sls.cost.provisioned,
            },
            instances: sls.instances,
            cold_started: sls.cold_started,
            invocations: sls.invocations,
            busy_seconds: vm.busy_seconds + sls.busy_seconds,
            instance_seconds: vm.instance_seconds + sls.instance_seconds,
            faults: vm.faults + sls.faults,
        }
    }

    /// Current combined cost.
    pub fn cost(&self) -> CostBreakdown {
        let vm = self.vm.cost();
        let sls = self.serverless.cost();
        CostBreakdown {
            compute: vm.compute + sls.compute,
            invocations: vm.invocations + sls.invocations,
            provisioned: vm.provisioned + sls.provisioned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_harness::PlatformHarness;
    use crate::provider::CloudProvider;
    use crate::request::RequestId;
    use slsb_model::{ModelKind, RuntimeKind};

    fn config(depth: usize) -> HybridConfig {
        HybridConfig {
            vm: VmServerConfig::gpu(
                CloudProvider::Aws,
                ModelKind::MobileNet.profile(),
                RuntimeKind::Tf115.profile(),
            ),
            serverless: ServerlessConfig::new(
                CloudProvider::Aws,
                ModelKind::MobileNet.profile(),
                RuntimeKind::Ort14.profile(),
            ),
            policy: SpilloverPolicy::QueueDepth(depth),
        }
    }

    fn request(id: u64, at: f64) -> ServingRequest {
        ServingRequest {
            id: RequestId(id),
            arrival: SimTime::from_secs_f64(at),
            payload_bytes: 100_000,
            inferences: 1,
        }
    }

    #[test]
    fn light_load_stays_on_the_vm() {
        let mut h = PlatformHarness::hybrid(config(16), Seed(1));
        for i in 0..20 {
            h.submit_at(i as f64, request(i, i as f64));
        }
        let rs = h.run();
        assert_eq!(rs.len(), 20);
        assert!(rs.iter().all(|r| r.outcome.is_success()));
        assert_eq!(h.platform_hybrid().spilled(), 0);
    }

    #[test]
    fn burst_spills_to_serverless() {
        let mut h = PlatformHarness::hybrid(config(8), Seed(2));
        for i in 0..300 {
            h.submit_at(0.0, request(i, 0.0));
        }
        let rs = h.run();
        assert_eq!(rs.len(), 300);
        assert!(rs.iter().all(|r| r.outcome.is_success()));
        let spilled = h.platform_hybrid().spilled();
        assert!(spilled > 200, "most of the burst should spill: {spilled}");
    }

    #[test]
    fn hybrid_cost_includes_both_components() {
        let mut h = PlatformHarness::hybrid(config(4), Seed(3));
        for i in 0..200 {
            h.submit_at((i / 10) as f64 * 0.1, request(i, (i / 10) as f64 * 0.1));
        }
        h.run_until(600.0);
        let report = h.finalize_report();
        // Rental floor: 600 s of g4dn.2xlarge.
        let floor = 600.0 / 3600.0 * 0.752;
        assert!(report.cost.total().as_dollars() > floor);
        // Spillover billed some invocations too.
        assert!(report.invocations > 0);
    }
}
