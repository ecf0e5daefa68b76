//! The trace event taxonomy: everything the simulators can tell an
//! observer about a run, stamped with virtual time.
//!
//! Events fall into three families:
//!
//! - **request-path events** emitted by the platform simulators as a
//!   request moves through them (`RequestArrival` → `RequestQueued` →
//!   `ExecStart`, or a terminal `RequestRejected` / `RequestDropped`);
//! - **instance lifecycle events** (`InstanceSpawn` → `InstanceReady` →
//!   `InstanceWarm` → `InstanceReclaim`, plus `InstanceCrash`) and
//!   `BillingTick`s as billable handler time accrues;
//! - **run-level events** emitted by the executor after the simulation
//!   drains: one `RequestSpan` per logical client request with the full
//!   phase breakdown, and a final `RunClosed` carrying the engine's
//!   processed-event count;
//! - **fault events** (`Fault`): one per discrete injected fault from a
//!   `FaultPlan` — boot/mid-execution crashes, storage stalls, throttle
//!   and outage-window rejections, client-path packet drops — so the
//!   explorer can attribute degradation to its injected cause.
//!   (Continuous degradations — storage slowdown multipliers and network
//!   jitter — shift durations rather than emitting events.)
//!
//! Fault-classified terminal outcomes surface in [`SpanOutcome`] as
//! `Throttled` (admission refused by throttle or outage), `Crashed`
//! (the serving attempt died mid-execution), and `RetriesExhausted`
//! (the client retry budget ran out without a success).
//!
//! Platform-side events identify requests by *invocation* index (the
//! platform never sees individual batched requests); `RequestSpan.invocation`
//! joins the two views.

use slsb_sim::{SimDuration, SimTime};
use std::fmt;

/// Which simulated component emitted a platform-side event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// A FaaS-style serverless platform (Lambda / Cloud Functions model).
    Serverless,
    /// A managed ML endpoint (SageMaker / AI Platform model).
    ManagedMl,
    /// A self-rented VM server pool.
    Vm,
}

impl Component {
    /// The component's interned label — a `&'static str`, so hot paths
    /// (metric keys, attribution tables) never allocate to name a
    /// component.
    pub fn label(self) -> &'static str {
        match self {
            Component::Serverless => "serverless",
            Component::ManagedMl => "managed-ml",
            Component::Vm => "vm",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why an instance was spawned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpawnCause {
    /// Spawned because queued demand required it.
    Demand,
    /// Spawned speculatively ahead of demand.
    Overprovision,
    /// Part of the provisioned-concurrency / minimum-instance floor.
    Provisioned,
}

/// Terminal outcome of a request span, mirroring the executor's
/// success/failure classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The response arrived within the client timeout.
    Success,
    /// The platform's admission queue was full.
    QueueFull,
    /// No response (or a late one) within the client timeout.
    ClientTimeout,
    /// The platform rejected the request outright.
    Rejected,
    /// Admission was refused by injected throttling or an outage window.
    Throttled,
    /// The serving attempt crashed mid-execution.
    Crashed,
    /// Every client retry attempt failed.
    RetriesExhausted,
}

impl SpanOutcome {
    /// Whether the request ultimately succeeded.
    pub fn is_success(self) -> bool {
        matches!(self, SpanOutcome::Success)
    }
}

impl fmt::Display for SpanOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SpanOutcome::Success => "ok",
            SpanOutcome::QueueFull => "queue-full",
            SpanOutcome::ClientTimeout => "timeout",
            SpanOutcome::Rejected => "rejected",
            SpanOutcome::Throttled => "throttled",
            SpanOutcome::Crashed => "crashed",
            SpanOutcome::RetriesExhausted => "retries-exhausted",
        })
    }
}

/// The class of an injected fault, distinguishing the mechanisms a
/// `FaultPlan` can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// An instance died during cold start and will be replaced.
    BootCrash,
    /// A handler execution crashed after dispatch.
    ExecCrash,
    /// A storage download stalled for an injected extra delay.
    StorageStall,
    /// Admission was refused by the injected token-bucket throttle.
    Throttled,
    /// Admission was refused inside a scheduled outage window.
    Outage,
    /// A client request was lost on the network path to the platform.
    PacketLoss,
}

impl FaultKind {
    /// The fault kind's interned label (see [`Component::label`]).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::BootCrash => "boot-crash",
            FaultKind::ExecCrash => "exec-crash",
            FaultKind::StorageStall => "storage-stall",
            FaultKind::Throttled => "throttled",
            FaultKind::Outage => "outage",
            FaultKind::PacketLoss => "packet-loss",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One observable fact about a run. Tagged as `"event"` on the wire (see
/// [`crate::wire`]) so a JSONL trace stays self-describing and greppable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// An invocation reached the platform's front door.
    RequestArrival {
        /// Emitting component.
        component: Component,
        /// Platform-side request (invocation) id.
        request: u64,
    },
    /// The invocation had to wait (no warm capacity / free worker).
    RequestQueued {
        /// Emitting component.
        component: Component,
        /// Platform-side request (invocation) id.
        request: u64,
    },
    /// The platform refused admission (queue at capacity).
    RequestRejected {
        /// Emitting component.
        component: Component,
        /// Platform-side request (invocation) id.
        request: u64,
    },
    /// A queued invocation went stale and was dropped before dispatch.
    RequestDropped {
        /// Emitting component.
        component: Component,
        /// Platform-side request (invocation) id.
        request: u64,
    },
    /// Handler execution began on an instance.
    ExecStart {
        /// Emitting component.
        component: Component,
        /// Platform-side request (invocation) id.
        request: u64,
        /// Instance (or worker slot) executing the handler.
        instance: u64,
        /// Whether this execution pays a cold start.
        cold: bool,
        /// Virtual time at which the handler completes.
        done_at: SimTime,
    },
    /// A new instance began provisioning (or was pre-provisioned).
    InstanceSpawn {
        /// Emitting component.
        component: Component,
        /// Instance id.
        instance: u64,
        /// Why it was spawned.
        cause: SpawnCause,
    },
    /// A cold-started instance finished boot+import and can take work;
    /// carries the sampled cold-start sub-phase durations.
    InstanceReady {
        /// Emitting component.
        component: Component,
        /// Instance id.
        instance: u64,
        /// Sandbox/container boot time.
        boot: SimDuration,
        /// Framework import time.
        import: SimDuration,
        /// Model artifact download time.
        download: SimDuration,
        /// Model load/initialization time.
        load: SimDuration,
    },
    /// The instance holds a loaded model; subsequent requests are warm.
    InstanceWarm {
        /// Emitting component.
        component: Component,
        /// Instance id.
        instance: u64,
    },
    /// The instance crashed during startup and will be replaced.
    InstanceCrash {
        /// Emitting component.
        component: Component,
        /// Instance id.
        instance: u64,
    },
    /// The keep-alive expired (or the autoscaler scaled in) and the
    /// instance was reaped.
    InstanceReclaim {
        /// Emitting component.
        component: Component,
        /// Instance id.
        instance: u64,
    },
    /// Billable handler time accrued.
    BillingTick {
        /// Emitting component.
        component: Component,
        /// Billed duration for this handler execution.
        billed: SimDuration,
    },
    /// A discrete fault from the active `FaultPlan` fired.
    Fault {
        /// Emitting component, if the fault fired platform-side;
        /// `None` for client-path faults (packet loss).
        component: Option<Component>,
        /// What kind of fault fired.
        kind: FaultKind,
    },
    /// Executor-level per-request phase breakdown, emitted once per
    /// logical client request after the run drains. For successful
    /// requests `batch + net_in + queued + exec + net_out` equals the
    /// end-to-end latency exactly (integer microseconds).
    RequestSpan {
        /// Logical request index (position in the workload trace).
        request: u64,
        /// Client that issued the request.
        client: u32,
        /// Invocation the request was batched into — joins the span to
        /// platform-side events carrying the same `request` id.
        invocation: u64,
        /// Virtual arrival time at the client.
        arrival: SimTime,
        /// Wait for the batch window to close.
        batch: SimDuration,
        /// Request network transfer time.
        net_in: SimDuration,
        /// Platform queueing delay.
        queued: SimDuration,
        /// Handler execution (includes cold-start work on cold paths).
        exec: SimDuration,
        /// Response network transfer time.
        net_out: SimDuration,
        /// Whether the serving invocation paid a cold start.
        cold: bool,
        /// Terminal outcome.
        outcome: SpanOutcome,
    },
    /// Fleet runs: one app's closing summary, emitted per tenant before
    /// `RunClosed`. Joins to spans via the span `client` label, which fleet
    /// runs set to the global app index.
    AppClosed {
        /// Global app index.
        app: u32,
        /// Requests the app received.
        requests: u64,
        /// The app's total serving cost, integer micro-dollars.
        cost_micro_dollars: i64,
    },
    /// End of trace: engine bookkeeping for cross-checking.
    RunClosed {
        /// Events the simulation engine processed.
        engine_events: u64,
        /// Logical client requests in the run.
        requests: u64,
    },
}

impl EventKind {
    /// Stable short name of the variant: its wire tag (see [`crate::wire`]).
    pub fn name(&self) -> &'static str {
        crate::wire::tag(self)
    }
}

/// A trace event: what happened, and when in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Virtual timestamp (microseconds since run start on the wire).
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{parse_event, write_event};

    fn line(ev: &TraceEvent) -> String {
        let mut out = Vec::new();
        write_event(ev, &mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn wire_format_is_internally_tagged() {
        let ev = TraceEvent {
            at: SimTime::ZERO + SimDuration::from_micros(17),
            kind: EventKind::RequestQueued {
                component: Component::Vm,
                request: 9,
            },
        };
        let json = line(&ev);
        assert!(json.contains("\"event\":\"request_queued\""), "{json}");
        assert!(json.contains("\"component\":\"vm\""), "{json}");
        assert!(json.contains("\"at\":17"), "{json}");
        assert_eq!(parse_event(json.as_bytes()), Ok(ev));
    }

    #[test]
    fn fault_events_are_greppable_by_kind() {
        let ev = TraceEvent {
            at: SimTime::ZERO,
            kind: EventKind::Fault {
                component: Some(Component::ManagedMl),
                kind: FaultKind::Throttled,
            },
        };
        assert_eq!(ev.kind.name(), "fault");
        let json = line(&ev);
        assert!(json.contains("\"event\":\"fault\""), "{json}");
        assert!(json.contains("\"kind\":\"throttled\""), "{json}");
        for fk in [
            FaultKind::BootCrash,
            FaultKind::ExecCrash,
            FaultKind::StorageStall,
            FaultKind::Throttled,
            FaultKind::Outage,
            FaultKind::PacketLoss,
        ] {
            assert!(!fk.to_string().is_empty());
        }
    }
}
