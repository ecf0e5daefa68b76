//! Generic discrete-event queue and drive loop.
//!
//! The kernel is deliberately small: a [`System`] owns all domain state and
//! handles its own event alphabet `System::Ev`; the [`Engine`] owns the
//! clock and the pending-event queue and repeatedly hands the earliest event
//! back to the system. Ties in time are broken by insertion order (FIFO),
//! which both matches physical intuition and keeps runs deterministic.
//!
//! Two interchangeable kernels implement the queue (see [`Kernel`]): the
//! default hierarchical timer wheel ([`crate::wheel`]) with O(1) amortized
//! schedule/pop for near-future events, and the original binary heap, kept
//! as the reference model for differential tests and the perf baseline.
//! Both deliver the exact same `(time, sequence)` order, so switching
//! kernels never changes a simulation's results, only its speed.

use crate::prof::ProfGuard;
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimerWheel;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event: fire `ev` at instant `at`.
pub(crate) struct Scheduled<E> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event on
        // top. Sequence number breaks ties FIFO.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Which scheduler implementation backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Kernel {
    /// Hierarchical timer wheel: O(1) amortized schedule/pop (the default).
    #[default]
    Wheel,
    /// The original `BinaryHeap`: O(log n) per operation. Retained as the
    /// reference model for equivalence tests and as the benchmark baseline.
    Heap,
}

impl Kernel {
    /// Stable lowercase name, used in benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Wheel => "wheel",
            Kernel::Heap => "heap",
        }
    }
}

// The wheel is boxed: its inline footprint (ring pointer, occupancy
// bitmap, cursors) dwarfs the heap variant's, and `EventQueue` lives
// inside `Engine` values that move around.
enum Store<E> {
    Wheel(Box<TimerWheel<E>>),
    Heap(BinaryHeap<Scheduled<E>>),
}

/// Priority queue of future events plus the current virtual time.
///
/// Systems receive `&mut EventQueue` while handling an event so they can
/// schedule follow-ups; scheduling into the past is a causality violation
/// and panics.
pub struct EventQueue<E> {
    store: Store<E>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at the epoch.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::Wheel)
    }

    /// An empty queue pre-sized for roughly `cap` concurrently pending
    /// events (e.g. a scenario's expected request count).
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_kernel_and_capacity(Kernel::Wheel, cap)
    }

    /// An empty queue backed by the chosen [`Kernel`].
    pub fn with_kernel(kernel: Kernel) -> Self {
        Self::with_kernel_and_capacity(kernel, 0)
    }

    /// [`EventQueue::with_kernel`] with a capacity hint.
    pub fn with_kernel_and_capacity(kernel: Kernel, cap: usize) -> Self {
        let store = match kernel {
            Kernel::Wheel => Store::Wheel(Box::new(TimerWheel::with_capacity(cap))),
            Kernel::Heap => Store::Heap(BinaryHeap::with_capacity(cap)),
        };
        EventQueue {
            store,
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Which kernel backs this queue.
    pub fn kernel(&self) -> Kernel {
        match self.store {
            Store::Wheel(_) => Kernel::Wheel,
            Store::Heap(_) => Kernel::Heap,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Wheel(w) => w.len(),
            Store::Heap(h) => h.len(),
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `ev` to fire at absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time.
    pub fn schedule_at(&mut self, at: SimTime, ev: E) {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {at} but now is {now}",
            now = self.now
        );
        let _p = ProfGuard::enter("kernel/schedule");
        let s = Scheduled {
            at,
            seq: self.seq,
            ev,
        };
        self.seq += 1;
        match &mut self.store {
            Store::Wheel(w) => w.insert(s),
            Store::Heap(h) => h.push(s),
        }
    }

    /// Schedules a batch of events in iteration order.
    ///
    /// Exactly equivalent to calling [`EventQueue::schedule_at`] once per
    /// item — sequence numbers are assigned in iteration order, so
    /// same-instant events pop FIFO in batch order — but the kernel dispatch
    /// and causality check setup are paid once per batch instead of once per
    /// event. This is the entry point platforms and the executor use for
    /// bursts: initial deliveries, batch dispatch, retry storms,
    /// outage-window re-queues.
    ///
    /// # Panics
    /// Panics if any event's instant is before the current time.
    pub fn schedule_many<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        let _p = ProfGuard::enter("kernel/schedule");
        let now = self.now;
        match &mut self.store {
            Store::Wheel(w) => {
                for (at, ev) in events {
                    assert!(at >= now, "causality violation: scheduling at {at} but now is {now}");
                    let s = Scheduled {
                        at,
                        seq: self.seq,
                        ev,
                    };
                    self.seq += 1;
                    w.insert(s);
                }
            }
            Store::Heap(h) => {
                for (at, ev) in events {
                    assert!(at >= now, "causality violation: scheduling at {at} but now is {now}");
                    let s = Scheduled {
                        at,
                        seq: self.seq,
                        ev,
                    };
                    self.seq += 1;
                    h.push(s);
                }
            }
        }
    }

    /// [`EventQueue::schedule_many`] with per-event delays relative to the
    /// current time.
    pub fn schedule_many_after<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimDuration, E)>,
    {
        let now = self.now;
        self.schedule_many(events.into_iter().map(|(delay, ev)| (now + delay, ev)));
    }

    /// Schedules `ev` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, ev: E) {
        let at = self.now + delay;
        self.schedule_at(at, ev);
    }

    /// Schedules `ev` to fire immediately (at the current time, after any
    /// event already scheduled for this instant).
    pub fn schedule_now(&mut self, ev: E) {
        self.schedule_at(self.now, ev);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let _p = ProfGuard::enter("kernel/pop");
        let s = match &mut self.store {
            Store::Wheel(w) => w.pop()?,
            Store::Heap(h) => h.pop()?,
        };
        debug_assert!(s.at >= self.now, "event queue went back in time");
        self.now = s.at;
        Some((s.at, s.ev))
    }

    /// Pops the earliest event if it fires at or before `horizon`,
    /// advancing the clock to its timestamp; returns `None` (clock
    /// untouched) when the queue is empty or the next event is later.
    /// One kernel operation per delivered event — this is the hot path of
    /// [`Engine::run_until`].
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let _p = ProfGuard::enter("kernel/pop");
        let s = match &mut self.store {
            Store::Wheel(w) => w.pop_at_or_before(horizon)?,
            Store::Heap(h) => {
                // The heap keeps the historical peek-then-pop shape.
                if h.peek().is_none_or(|s| s.at > horizon) {
                    return None;
                }
                h.pop().expect("peeked event vanished")
            }
        };
        debug_assert!(s.at >= self.now, "event queue went back in time");
        self.now = s.at;
        Some((s.at, s.ev))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.store {
            Store::Wheel(w) => w.peek(),
            Store::Heap(h) => h.peek().map(|s| s.at),
        }
    }

    /// Advances the clock to `t` without delivering events — used to close
    /// out a run at a horizon after the last event.
    ///
    /// # Panics
    /// Panics if `t` is in the past or if an undelivered event precedes it.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "advance_to would rewind the clock");
        if let Some(at) = self.peek_time() {
            assert!(at >= t, "advance_to would skip a pending event");
        }
        self.now = t;
    }
}

/// A simulated system: domain state plus an event handler.
pub trait System {
    /// The system's event alphabet.
    type Ev;

    /// Handles one event; may schedule follow-up events on `queue`.
    fn handle(&mut self, queue: &mut EventQueue<Self::Ev>, at: SimTime, ev: Self::Ev);
}

/// Drives a [`System`] by repeatedly delivering the earliest pending event.
pub struct Engine<S: System> {
    /// The pending-event queue and clock. Public so callers can seed the
    /// initial events before running.
    pub queue: EventQueue<S::Ev>,
    /// The domain state under simulation.
    pub system: S,
    events_processed: u64,
}

impl<S: System> Engine<S> {
    /// Wraps `system` with an empty queue at the epoch.
    pub fn new(system: S) -> Self {
        Self::with_queue(system, EventQueue::new())
    }

    /// Wraps `system` around a caller-built queue — the way to pick a
    /// [`Kernel`] or a capacity hint for the run.
    pub fn with_queue(system: S, queue: EventQueue<S::Ev>) -> Self {
        Engine {
            queue,
            system,
            events_processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Runs until the queue drains. Returns the number of events delivered
    /// by this call.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the queue drains or the next event would be strictly after
    /// `horizon`. Events at exactly `horizon` are delivered. Returns the
    /// number of events delivered by this call.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let mut delivered = 0;
        while let Some((at, ev)) = self.queue.pop_at_or_before(horizon) {
            self.system.handle(&mut self.queue, at, ev);
            delivered += 1;
            self.events_processed += 1;
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: [Kernel; 2] = [Kernel::Wheel, Kernel::Heap];

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        chain_until: u32,
    }

    impl System for Recorder {
        type Ev = u32;
        fn handle(&mut self, queue: &mut EventQueue<u32>, at: SimTime, ev: u32) {
            self.seen.push((at, ev));
            if ev < self.chain_until {
                queue.schedule_after(SimDuration::from_secs(1), ev + 1);
            }
        }
    }

    fn recorder() -> Recorder {
        Recorder {
            seen: Vec::new(),
            chain_until: 0,
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        for kernel in KERNELS {
            let mut eng = Engine::with_queue(recorder(), EventQueue::with_kernel(kernel));
            eng.queue.schedule_at(SimTime::from_secs_f64(3.0), 3);
            eng.queue.schedule_at(SimTime::from_secs_f64(1.0), 1);
            eng.queue.schedule_at(SimTime::from_secs_f64(2.0), 2);
            assert_eq!(eng.run_to_completion(), 3);
            let order: Vec<u32> = eng.system.seen.iter().map(|&(_, e)| e).collect();
            assert_eq!(order, vec![1, 2, 3], "{}", kernel.name());
        }
    }

    #[test]
    fn ties_pop_fifo() {
        for kernel in KERNELS {
            let mut eng = Engine::with_queue(recorder(), EventQueue::with_kernel(kernel));
            let t = SimTime::from_secs_f64(1.0);
            for i in 0..100 {
                eng.queue.schedule_at(t, i);
            }
            eng.run_to_completion();
            let order: Vec<u32> = eng.system.seen.iter().map(|&(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{}", kernel.name());
        }
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut eng = Engine::new(Recorder {
            seen: Vec::new(),
            chain_until: 5,
        });
        eng.queue.schedule_at(SimTime::ZERO, 0);
        eng.run_to_completion();
        assert_eq!(eng.system.seen.len(), 6);
        assert_eq!(eng.now(), SimTime::from_secs_f64(5.0));
    }

    #[test]
    fn run_until_delivers_events_at_horizon_inclusive() {
        for kernel in KERNELS {
            let mut eng = Engine::with_queue(recorder(), EventQueue::with_kernel(kernel));
            eng.queue.schedule_at(SimTime::from_secs_f64(1.0), 1);
            eng.queue.schedule_at(SimTime::from_secs_f64(2.0), 2);
            eng.queue.schedule_at(SimTime::from_secs_f64(3.0), 3);
            assert_eq!(eng.run_until(SimTime::from_secs_f64(2.0)), 2);
            assert_eq!(eng.queue.len(), 1);
            assert_eq!(eng.now(), SimTime::from_secs_f64(2.0));
        }
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn scheduling_in_the_past_panics() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_secs_f64(5.0), 0);
        q.pop();
        q.schedule_at(SimTime::from_secs_f64(1.0), 1);
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn scheduling_in_the_past_panics_on_heap_kernel() {
        let mut q: EventQueue<u32> = EventQueue::with_kernel(Kernel::Heap);
        q.schedule_at(SimTime::from_secs_f64(5.0), 0);
        q.pop();
        q.schedule_at(SimTime::from_secs_f64(1.0), 1);
    }

    #[test]
    fn schedule_now_runs_after_already_queued_same_instant_events() {
        struct Inject {
            seen: Vec<u32>,
        }
        impl System for Inject {
            type Ev = u32;
            fn handle(&mut self, queue: &mut EventQueue<u32>, _at: SimTime, ev: u32) {
                self.seen.push(ev);
                if ev == 0 {
                    queue.schedule_now(99);
                }
            }
        }
        for kernel in KERNELS {
            let mut eng =
                Engine::with_queue(Inject { seen: Vec::new() }, EventQueue::with_kernel(kernel));
            eng.queue.schedule_at(SimTime::ZERO, 0);
            eng.queue.schedule_at(SimTime::ZERO, 1);
            eng.run_to_completion();
            assert_eq!(eng.system.seen, vec![0, 1, 99], "{}", kernel.name());
        }
    }

    #[test]
    fn empty_queue_reports_empty() {
        let q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.kernel(), Kernel::Wheel);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(10_000);
        q.schedule_at(SimTime::from_micros(5), 1);
        q.schedule_at(SimTime::from_micros(3), 0);
        assert_eq!(q.pop(), Some((SimTime::from_micros(3), 0)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), 1)));
        assert_eq!(q.pop(), None);
    }

    // ----------------------------------------------------- wheel-specific

    /// One block of the wheel spans 2^22 µs; events past that go through
    /// the far overflow. Exercise both sides plus the exact boundary.
    #[test]
    fn far_future_events_interleave_with_near_ones() {
        let block = 1u64 << 22;
        let times = [
            0,
            1,
            1023,
            1024,
            block - 1,
            block,
            block + 1,
            3 * block,
            3 * block + 512,
            600_000_000, // a keep-alive-style reclaim, many blocks out
        ];
        let mut q: EventQueue<usize> = EventQueue::new();
        // Schedule in a scrambled order.
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule_at(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some((at, i)) = q.pop() {
            popped.push((at.as_micros(), i));
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        // Scheduled in reverse order, so equal times pop in reverse index
        // order (FIFO by insertion).
        expect.sort_by_key(|&(t, i)| (t, std::cmp::Reverse(i)));
        assert_eq!(popped, expect);
    }

    /// After the cursor drains a bucket, scheduling back into that bucket
    /// (legal while `now` sits inside it) must still deliver in order.
    #[test]
    fn rescheduling_into_a_drained_bucket_keeps_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_micros(5_000_000), 0);
        assert_eq!(q.pop(), Some((SimTime::from_micros(5_000_000), 0)));
        // Same 1.024 ms bucket as the popped event: the cursor has moved
        // past it, so this lands in the ready spill.
        q.schedule_at(SimTime::from_micros(5_000_400), 2);
        q.schedule_at(SimTime::from_micros(5_000_300), 1);
        q.schedule_at(SimTime::from_micros(5_500_000), 3);
        assert_eq!(q.pop(), Some((SimTime::from_micros(5_000_300), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(5_000_400), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(5_500_000), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_at_or_before_respects_the_horizon() {
        for kernel in KERNELS {
            let mut q: EventQueue<u32> = EventQueue::with_kernel(kernel);
            q.schedule_at(SimTime::from_micros(10), 0);
            q.schedule_at(SimTime::from_micros(20), 1);
            let h = SimTime::from_micros(15);
            assert_eq!(q.pop_at_or_before(h), Some((SimTime::from_micros(10), 0)));
            assert_eq!(q.pop_at_or_before(h), None, "{}", kernel.name());
            assert_eq!(q.now(), SimTime::from_micros(10));
            assert_eq!(q.len(), 1);
            // A later horizon releases the held event.
            assert_eq!(
                q.pop_at_or_before(SimTime::from_micros(20)),
                Some((SimTime::from_micros(20), 1))
            );
        }
    }

    #[test]
    fn advance_to_works_after_a_refused_pop() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_micros(10), 0);
        q.schedule_at(SimTime::from_secs_f64(700.0), 1);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_micros(50)),
            Some((SimTime::from_micros(10), 0))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(50)), None);
        q.advance_to(SimTime::from_micros(50));
        assert_eq!(q.now(), SimTime::from_micros(50));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(700.0)));
    }

    /// `schedule_many` must be observationally identical to calling
    /// `schedule` once per item — including sequence assignment, so
    /// same-instant ties pop FIFO in batch order, interleaved correctly
    /// with singly-scheduled events before and after the batch.
    #[test]
    fn schedule_many_matches_repeated_schedule() {
        let t = |us: u64| SimTime::from_micros(us);
        // Mix of ties (three events at 50), out-of-order times, a
        // behind-the-batch instant, and far-future outliers.
        let batch: Vec<(SimTime, u32)> = vec![
            (t(50), 10),
            (t(20), 11),
            (t(50), 12),
            (t(5_000_000), 13),
            (t(50), 14),
            (t(7), 15),
        ];
        for kernel in KERNELS {
            let mut one: EventQueue<u32> = EventQueue::with_kernel(kernel);
            let mut many: EventQueue<u32> = EventQueue::with_kernel(kernel);
            for q in [&mut one, &mut many] {
                q.schedule_at(t(50), 0); // pre-existing tie at the batch instant
                q.schedule_at(t(3), 1);
            }
            for &(at, ev) in &batch {
                one.schedule_at(at, ev);
            }
            many.schedule_many(batch.iter().copied());
            for q in [&mut one, &mut many] {
                q.schedule_at(t(50), 2); // post-batch tie must pop after the batch's
            }
            let drain = |q: &mut EventQueue<u32>| {
                let mut out = Vec::new();
                while let Some(p) = q.pop() {
                    out.push(p);
                }
                out
            };
            let a = drain(&mut one);
            let b = drain(&mut many);
            assert_eq!(a, b, "{}", kernel.name());
            // And the tie order itself is pinned: batch order 10, 12, 14
            // between the pre- and post-batch events at t=50.
            let ties: Vec<u32> = b
                .iter()
                .filter(|&&(at, _)| at == t(50))
                .map(|&(_, e)| e)
                .collect();
            assert_eq!(ties, vec![0, 10, 12, 14, 2], "{}", kernel.name());
        }
    }

    /// `schedule_many_after` offsets every delay from the same `now`.
    #[test]
    fn schedule_many_after_offsets_from_now() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_micros(10), 0);
        q.pop();
        q.schedule_many_after([
            (SimDuration::from_micros(5), 1),
            (SimDuration::ZERO, 2),
        ]);
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(15), 1)));
        assert_eq!(q.pop(), None);
    }

    /// Deterministic pseudo-random stress: the wheel and the heap must
    /// deliver identical sequences, block boundaries and all.
    #[test]
    fn wheel_matches_heap_on_scrambled_schedules() {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: EventQueue<u32> = EventQueue::with_kernel(Kernel::Heap);
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut pending = 0u32;
        for i in 0..5_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mix of same-instant, near, block-scale, and far deltas.
            let delta = match x % 4 {
                0 => 0,
                1 => x % 1_024,
                2 => x % (1 << 22),
                _ => x % (1 << 24),
            };
            let at = wheel.now() + SimDuration::from_micros(delta);
            wheel.schedule_at(at, i);
            heap.schedule_at(at, i);
            pending += 1;
            if x.is_multiple_of(3) {
                while pending > x as u32 % 8 {
                    assert_eq!(wheel.pop(), heap.pop());
                    pending -= 1;
                }
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
