//! The cell layer both run engines sit on.
//!
//! A run splits into **cells**: a seed plus the clients it replays (the
//! executor's client nodes, or the fleet's apps). No event, RNG draw or
//! platform state crosses a cell boundary, so cells run on any number of
//! workers and merge back in cell order with byte-identical results. This
//! module holds what both engines do with a cell: the run's end
//! ([`RunEnd`]), platform driving ([`PlatformIo`]), the worker fan-out
//! ([`fan_out`]), which hands every cell's trace events to the caller's
//! recorder in cell order as cells finish, and the trace close
//! ([`close_trace`]).

use crate::runner::{parallel_map, Jobs};
use slsb_obs::{EventKind, MemoryRecorder, Recorder, TraceEvent};
use slsb_platform::{Platform, PlatformEvent, PlatformScheduler, ServingResponse};
use slsb_sim::{EventQueue, ProfGuard, Seed, SimDuration, SimTime, StoreKind};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// How many arrivals (fleet) or deliveries (executor) one refill feeds
/// the kernel at least. Refilling once per burst instead of once per
/// event keeps the refill's bookkeeping off most events, and what an
/// engine holds of its arrivals stays O(clients + burst).
pub(crate) const ARRIVAL_BURST: usize = 64;

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

/// How many cells per worker a traced fan-out's helpers may run ahead of
/// the last cell delivered to the recorder.
const LOOK_AHEAD_PER_WORKER: usize = 2;

/// Runs every cell on up to `workers` threads and returns the outputs in
/// cell order, whatever the worker count.
///
/// When `rec` is given, every cell's trace events reach it in cell order,
/// a fixed order, so the trace is byte-identical for any worker budget:
///
/// - On one worker every cell runs on the calling thread straight into
///   `rec`; nothing is buffered.
/// - On several, the calling thread runs cell 0 straight into `rec` while
///   helper threads run later cells into buffers. It then replays each
///   finished cell into `rec` under the profiler label `merge_label` as
///   soon as every earlier cell is in, and frees the buffer; when no
///   helper has claimed the next cell, it runs that cell itself,
///   streaming. Helpers claim no cell more than [`LOOK_AHEAD_PER_WORKER`]
///   × `workers` past the last one delivered, which bounds the buffers
///   held at once.
///
/// Which thread runs a cell decides where its `recorder` profiler scope
/// lands (under the cell, or under `merge_label`), never a byte of the
/// trace. Untraced, cells run on the plain work-stealing map.
pub(crate) fn fan_out<O: Send>(
    workers: usize,
    cells: &[Cell],
    rec: Option<&mut dyn Recorder>,
    merge_label: &'static str,
    run: impl Fn(&Cell, Option<&mut dyn Recorder>) -> O + Sync,
) -> Vec<O> {
    let Some(rec) = rec else {
        return parallel_map(Jobs::new(workers), cells, |_, cell| run(cell, None));
    };
    let handoff = Handoff::new(cells.len(), LOOK_AHEAD_PER_WORKER * workers);
    thread::scope(|s| {
        for _ in 1..workers.min(cells.len()) {
            s.spawn(|| handoff.help(cells, &run));
        }
        handoff.deliver(cells, rec, merge_label, &run)
    })
}

/// The hand-off between the calling thread of a traced multi-worker
/// [`fan_out`], which delivers cells to the recorder in order, and the
/// helpers that run cells ahead of it.
struct Handoff<O> {
    state: Mutex<HandoffState<O>>,
    changed: Condvar,
    window: usize,
}

struct HandoffState<O> {
    /// The first cell no thread has claimed; claims go in cell order.
    /// Cell 0 is the calling thread's from the start: it must reach the
    /// recorder first anyway, and streaming it saves the buffer of what,
    /// in a Zipf fleet, is the heaviest cell.
    next: usize,
    /// How many cells, a prefix, are in the recorder.
    delivered: usize,
    /// Outputs and buffered events of cells a helper finished, waiting
    /// for delivery.
    done: Vec<Option<(O, Vec<TraceEvent>)>>,
    /// Set when a thread unwinds, so that no other waits on it forever.
    aborted: bool,
}

impl<O> Handoff<O> {
    fn new(cells: usize, window: usize) -> Self {
        Handoff {
            state: Mutex::new(HandoffState {
                next: 1,
                delivered: 0,
                done: std::iter::repeat_with(|| None).take(cells).collect(),
                aborted: false,
            }),
            changed: Condvar::new(),
            window,
        }
    }

    /// Locks the state, poisoned or not: every critical section is a single
    /// field write, a `take` or a check, so a thread that panicked holding
    /// the lock left the state valid.
    fn lock(&self) -> MutexGuard<'_, HandoffState<O>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, g: MutexGuard<'g, HandoffState<O>>) -> MutexGuard<'g, HandoffState<O>> {
        self.changed.wait(g).unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper: claims the next cell while it is inside the look-ahead
    /// window, runs it into a buffer and leaves both for the caller.
    fn help(&self, cells: &[Cell], run: &impl Fn(&Cell, Option<&mut dyn Recorder>) -> O) {
        let _abort = AbortOnUnwind(self);
        loop {
            let k = {
                let mut st = self.lock();
                while !st.aborted && st.next < cells.len() && st.next >= st.delivered + self.window
                {
                    st = self.wait(st);
                }
                if st.aborted || st.next == cells.len() {
                    return;
                }
                st.next += 1;
                st.next - 1
            };
            let mut buf = MemoryRecorder::new();
            let out = run(&cells[k], Some(&mut buf));
            self.lock().done[k] = Some((out, buf.into_events()));
            self.changed.notify_all();
        }
    }

    /// The calling thread: delivers every cell to `rec` in order, running
    /// cell 0 and each later one no helper has claimed.
    fn deliver(
        &self,
        cells: &[Cell],
        rec: &mut dyn Recorder,
        merge_label: &'static str,
        run: &impl Fn(&Cell, Option<&mut dyn Recorder>) -> O,
    ) -> Vec<O> {
        let _abort = AbortOnUnwind(self);
        let Some((first, rest)) = cells.split_first() else {
            return Vec::new();
        };
        let mut outs = Vec::with_capacity(cells.len());
        outs.push(run(first, Some(&mut *rec)));
        self.delivered(1);
        for (k, cell) in (1..).zip(rest) {
            let mut st = self.lock();
            let out = if st.next == k {
                st.next += 1;
                drop(st);
                run(cell, Some(&mut *rec))
            } else {
                let (out, events) = loop {
                    if let Some(done) = st.done[k].take() {
                        break done;
                    }
                    assert!(!st.aborted, "a fan-out helper panicked");
                    st = self.wait(st);
                };
                drop(st);
                let _merge = ProfGuard::enter(merge_label);
                for ev in &events {
                    rec.record(ev);
                }
                out
            };
            outs.push(out);
            self.delivered(k + 1);
        }
        outs
    }

    /// Records that the first `cells` cells are in the recorder, opening
    /// the look-ahead window that far.
    fn delivered(&self, cells: usize) {
        self.lock().delivered = cells;
        self.changed.notify_all();
    }
}

/// Marks the hand-off aborted if its thread unwinds, waking every waiter.
struct AbortOnUnwind<'h, O>(&'h Handoff<O>);

impl<O> Drop for AbortOnUnwind<'_, O> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.lock().aborted = true;
            self.0.changed.notify_all();
        }
    }
}

/// Closes a run's trace: records the run's single
/// [`EventKind::RunClosed`] at the horizon, after every cell's events
/// have reached `rec` through [`fan_out`] or a one-cell run.
pub(crate) fn close_trace(rec: &mut dyn Recorder, end: RunEnd, engine_events: u64, requests: u64) {
    rec.record(&TraceEvent {
        at: end.horizon,
        kind: EventKind::RunClosed {
            engine_events,
            requests,
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    const EVENTS_PER_CELL: u64 = 3;

    fn cells(n: u64) -> Vec<Cell> {
        (0..n).map(|i| Cell::new(Seed(i), vec![i as u32])).collect()
    }

    /// Records `EVENTS_PER_CELL` events naming the cell (its seed) and
    /// their rank, and returns the seed.
    fn mark(cell: &Cell, rec: Option<&mut dyn Recorder>) -> u64 {
        let rec = rec.expect("a traced fan-out hands every cell a recorder");
        for rank in 0..EVENTS_PER_CELL {
            rec.record(&TraceEvent {
                at: SimTime::ZERO,
                kind: EventKind::RunClosed {
                    engine_events: cell.seed.0,
                    requests: rank,
                },
            });
        }
        cell.seed.0
    }

    fn marks(rec: &MemoryRecorder) -> Vec<(u64, u64)> {
        rec.events()
            .iter()
            .map(|ev| match ev.kind {
                EventKind::RunClosed {
                    engine_events,
                    requests,
                } => (engine_events, requests),
                _ => unreachable!("only marks are recorded"),
            })
            .collect()
    }

    /// Spins until `done()` or a generous deadline.
    fn wait_for(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() && Instant::now() < deadline {
            thread::yield_now();
        }
    }

    #[test]
    fn traced_fan_out_delivers_in_cell_order_when_helpers_run_ahead() {
        let n = 20;
        let cells = cells(n);
        let expected: Vec<(u64, u64)> = (0..n)
            .flat_map(|c| (0..EVENTS_PER_CELL).map(move |r| (c, r)))
            .collect();
        for workers in [1, 2, 4] {
            let window = LOOK_AHEAD_PER_WORKER * workers;
            let ahead = AtomicUsize::new(0);
            let furthest = AtomicUsize::new(0);
            let first_done = AtomicBool::new(false);
            let mut rec = MemoryRecorder::new();
            let outs = fan_out(workers, &cells, Some(&mut rec), "test/merge", |cell, r| {
                let k = cell.seed.0 as usize;
                if k == 0 && workers > 1 {
                    // Hold cell 0 until the helpers have run every cell the
                    // window lets them, then give them time to overrun it.
                    wait_for(|| ahead.load(Ordering::SeqCst) >= window - 1);
                    thread::sleep(Duration::from_millis(20));
                }
                let out = mark(cell, r);
                if k == 0 {
                    first_done.store(true, Ordering::SeqCst);
                } else if !first_done.load(Ordering::SeqCst) {
                    ahead.fetch_add(1, Ordering::SeqCst);
                    furthest.fetch_max(k, Ordering::SeqCst);
                }
                out
            });
            assert_eq!(outs, (0..n).collect::<Vec<_>>(), "workers={workers}");
            assert_eq!(marks(&rec), expected, "workers={workers}");
            if workers > 1 {
                assert_eq!(ahead.into_inner(), window - 1, "workers={workers}");
                assert_eq!(furthest.into_inner(), window - 1, "workers={workers}");
            }
        }
    }

    #[test]
    fn fan_out_returns_outputs_in_cell_order_traced_or_not() {
        for n in [0, 1, 9] {
            let cells = cells(n);
            for workers in [1, 3] {
                let untraced = fan_out(workers, &cells, None, "test/merge", |cell, rec| {
                    assert!(rec.is_none());
                    cell.seed.0
                });
                let mut rec = MemoryRecorder::new();
                let traced = fan_out(workers, &cells, Some(&mut rec), "test/merge", mark);
                let expected: Vec<u64> = (0..n).collect();
                assert_eq!(untraced, expected, "untraced, {n} cells, workers={workers}");
                assert_eq!(traced, expected, "traced, {n} cells, workers={workers}");
                assert_eq!(rec.events().len() as u64, n * EVENTS_PER_CELL);
            }
        }
    }

    #[test]
    fn a_panicking_cell_fails_a_traced_fan_out_instead_of_hanging() {
        let cells = cells(12);
        // Cell 0 runs on the calling thread; cell 7 on a helper, or on the
        // calling thread if no helper claimed it first.
        for bad in [0, 7] {
            let mut rec = MemoryRecorder::new();
            let result = catch_unwind(AssertUnwindSafe(|| {
                fan_out(2, &cells, Some(&mut rec), "test/merge", |cell, r| {
                    assert!(cell.seed.0 != bad, "cell {bad} fails");
                    mark(cell, r)
                })
            }));
            assert!(
                result.is_err(),
                "cell {bad}: the panic must reach the caller"
            );
        }
    }
}
