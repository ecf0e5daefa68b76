//! The cell layer both run engines sit on.
//!
//! A run splits into **cells**: a seed plus the clients it replays (the
//! executor's client nodes, or the fleet's apps). No event, RNG draw or
//! platform state crosses a cell boundary, so cells run on any number of
//! workers and merge back in cell order with byte-identical results. This
//! module holds what both engines do with a cell: the run's end
//! ([`RunEnd`]), platform driving ([`PlatformIo`]), the worker fan-out
//! ([`fan_out`]) and the trace close ([`close_trace`]).

use crate::runner::{parallel_map, Jobs};
use slsb_obs::{EventKind, MemoryRecorder, Recorder, TraceEvent};
use slsb_platform::{Platform, PlatformEvent, PlatformScheduler, ServingResponse};
use slsb_sim::{EventQueue, ProfGuard, Seed, SimDuration, SimTime, StoreKind};

/// One unit of a run: a seed plus the clients it replays.
#[derive(Debug)]
pub(crate) struct Cell {
    /// The seed every RNG stream in the cell derives from.
    pub seed: Seed,
    /// Executor client ids or fleet app indices, ascending.
    pub clients: Vec<u32>,
}

impl Cell {
    /// A cell replaying `clients`, which must ascend.
    pub fn new(seed: Seed, clients: Vec<u32>) -> Cell {
        debug_assert!(clients.windows(2).all(|w| w[0] < w[1]), "clients ascend");
        Cell { seed, clients }
    }
}

/// The instants that bound a run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunEnd {
    /// End of the workload: the end platforms are started with.
    pub workload_end: SimTime,
    /// When rented capacity is torn down: 30 s after the workload (the
    /// paper bills hourly systems by actual execution time), capped at
    /// the horizon.
    pub teardown: SimTime,
    /// When the engine stops: every client timeout has expired, with a
    /// drain window for late responses.
    pub horizon: SimTime,
}

impl RunEnd {
    /// The end of a run of `duration` whose clients time out after
    /// `timeout`.
    pub fn new(duration: SimDuration, timeout: SimDuration) -> RunEnd {
        const GRACE: SimDuration = SimDuration::from_secs(30);
        let workload_end = SimTime::ZERO + duration;
        let horizon = workload_end + timeout + GRACE;
        RunEnd {
            workload_end,
            teardown: (workload_end + GRACE).min(horizon),
            horizon,
        }
    }
}

/// A cell's platform plumbing: the scheduler's event buffer, the response
/// drain scratch and the trace sink, all reused for the whole run.
pub(crate) struct PlatformIo<'r> {
    /// Events a platform scheduled in one call, on their way to the queue.
    pub buffer: &'r mut Vec<(SimDuration, PlatformEvent)>,
    /// Responses drained from a platform.
    pub resp_scratch: &'r mut Vec<ServingResponse>,
    /// Trace sink threaded into every platform scheduler, if recording.
    pub rec: Option<&'r mut dyn Recorder>,
}

impl PlatformIo<'_> {
    /// Runs `f` on `platform` under the platform's profiler scope with a
    /// scheduler at the queue's current instant, then hands whatever the
    /// platform scheduled to `queue`, each event wrapped by `wrap`.
    #[inline]
    pub fn drive<E, K: StoreKind, R>(
        &mut self,
        platform: &mut Platform,
        queue: &mut EventQueue<E, K>,
        wrap: impl FnMut(PlatformEvent) -> E,
        f: impl FnOnce(&mut Platform, &mut PlatformScheduler<'_>) -> R,
    ) -> R {
        let r = {
            let _p = ProfGuard::enter(platform.prof_label());
            let rec = self.rec.as_deref_mut().map(|r| r as &mut dyn Recorder);
            let mut sched = PlatformScheduler::with_recorder(queue.now(), self.buffer, rec);
            f(platform, &mut sched)
        };
        if !self.buffer.is_empty() {
            let mut wrap = wrap;
            queue.schedule_many_after(self.buffer.drain(..).map(|(d, e)| (d, wrap(e))));
        }
        r
    }

    /// Moves `platform`'s completed responses into
    /// [`PlatformIo::resp_scratch`]; returns whether any arrived. Most
    /// events complete nothing, so the platform is probed before paying
    /// for its profiler scope.
    #[inline]
    pub fn drain(&mut self, platform: &mut Platform) -> bool {
        if !platform.has_responses() {
            return false;
        }
        let _p = ProfGuard::enter(platform.prof_label());
        platform.drain_responses_into(self.resp_scratch);
        !self.resp_scratch.is_empty()
    }

    /// Tears `platform` down at `teardown` and moves its last responses
    /// into [`PlatformIo::resp_scratch`].
    pub fn finish(&mut self, platform: &mut Platform, teardown: SimTime) {
        let _p = ProfGuard::enter(platform.prof_label());
        platform.finalize(teardown);
        platform.drain_responses_into(self.resp_scratch);
    }
}

/// Runs every cell on up to `workers` threads. When `tracing`, each cell
/// records into its own buffer, returned beside its output. Outputs and
/// buffers come back in cell order, whatever the worker count.
pub(crate) fn fan_out<O: Send>(
    workers: usize,
    cells: &[Cell],
    tracing: bool,
    run: impl Fn(&Cell, Option<&mut dyn Recorder>) -> O + Sync,
) -> (Vec<O>, Vec<Vec<TraceEvent>>) {
    parallel_map(Jobs::new(workers), cells, |_, cell| {
        let mut buf = tracing.then(MemoryRecorder::new);
        let out = run(cell, buf.as_mut().map(|r| r as &mut dyn Recorder));
        (
            out,
            buf.map(MemoryRecorder::into_events).unwrap_or_default(),
        )
    })
    .into_iter()
    .unzip()
}

/// Closes a run's trace. Replays the cells' buffered events in cell order
/// under the profiler label `merge_label` — a fixed order, so the merged
/// trace is byte-identical for any worker budget — then records the run's
/// single [`EventKind::RunClosed`] at the horizon. A run whose one cell
/// streamed straight into `rec` passes no buffers.
pub(crate) fn close_trace(
    rec: &mut dyn Recorder,
    merge_label: &'static str,
    buffers: &[Vec<TraceEvent>],
    end: RunEnd,
    engine_events: u64,
    requests: u64,
) {
    let _merge = (!buffers.is_empty()).then(|| ProfGuard::enter(merge_label));
    for ev in buffers.iter().flatten() {
        rec.record(ev);
    }
    rec.record(&TraceEvent {
        at: end.horizon,
        kind: EventKind::RunClosed {
            engine_events,
            requests,
        },
    });
}
