//! Generic discrete-event queue and drive loop.
//!
//! The kernel is deliberately small: a [`System`] owns all domain state and
//! handles its own event alphabet `System::Ev`; the [`Engine`] owns the
//! clock and the pending-event queue and repeatedly hands the earliest event
//! back to the system. Ties in time are broken by insertion order (FIFO),
//! which both matches physical intuition and keeps runs deterministic.
//!
//! [`EventQueue`] holds the clock, the sequence counter and the causality
//! checks; a [`PendingStore`] holds the events, picked by type through the
//! queue's [`StoreKind`] parameter. The default, [`Wheel`], is the
//! hierarchical timer wheel (the crate's private `wheel` module) with
//! O(1) amortized schedule/pop for near-future events. [`ReferenceHeap`] is the original
//! binary heap, kept as the reference model that the kernel differential
//! tests check the wheel against, operation for operation, and that the
//! release-only `kernel_ratio` test races it against; only code that
//! names it gets it. Both deliver the exact same `(time, sequence)` order, so the store
//! never changes a simulation's results, only its speed, and no queue
//! operation branches on which one it is.

use crate::prof::ProfGuard;
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimerWheel;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event: fire `ev` at instant `at`. Its fields are private to
/// this crate; stores outside it can only order and hand back events.
pub struct Scheduled<E> {
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

/// Where an [`EventQueue`] keeps its pending events. A store only orders
/// them by `(time, sequence)`; the queue assigns sequence numbers and
/// enforces causality.
pub trait PendingStore<E> {
    /// An empty store pre-sized for roughly `cap` pending events.
    fn with_capacity(cap: usize) -> Self;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True when no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Adds one event.
    fn insert(&mut self, s: Scheduled<E>);
    /// Removes the earliest event.
    fn pop(&mut self) -> Option<Scheduled<E>>;
    /// Removes the earliest event only if it fires at or before `horizon`.
    fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<Scheduled<E>>;
    /// Timestamp of the earliest event, without removing it.
    fn peek(&self) -> Option<SimTime>;
}

/// A family of [`PendingStore`]s, one per event type: the type parameter
/// that picks an [`EventQueue`]'s store, so [`System::handle`] and the
/// engine code it calls can be generic over it.
pub trait StoreKind {
    /// The store for events of type `E`.
    type Store<E>: PendingStore<E>;
}

/// The hierarchical timer wheel: O(1) amortized schedule/pop, the
/// production store and [`EventQueue`]'s default.
pub enum Wheel {}

impl StoreKind for Wheel {
    type Store<E> = TimerWheel<E>;
}

/// The original `BinaryHeap`: O(log n) per operation. Retained as the
/// reference model for the differential tests and as the yardstick of
/// the wheel's speed test.
pub enum ReferenceHeap {}

impl StoreKind for ReferenceHeap {
    type Store<E> = BinaryHeap<Scheduled<E>>;
}

impl<E> PendingStore<E> for BinaryHeap<Scheduled<E>> {
    fn with_capacity(cap: usize) -> Self {
        BinaryHeap::with_capacity(cap)
    }

    fn len(&self) -> usize {
        BinaryHeap::len(self)
    }

    fn insert(&mut self, s: Scheduled<E>) {
        self.push(s);
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        BinaryHeap::pop(self)
    }

    fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<Scheduled<E>> {
        // The heap keeps the historical peek-then-pop shape.
        if BinaryHeap::peek(self).is_none_or(|s| s.at > horizon) {
            return None;
        }
        BinaryHeap::pop(self)
    }

    fn peek(&self) -> Option<SimTime> {
        BinaryHeap::peek(self).map(|s| s.at)
    }
}

/// Priority queue of future events plus the current virtual time, on the
/// pending store `K` (the timer wheel unless a caller names another).
///
/// Systems receive `&mut EventQueue` while handling an event so they can
/// schedule follow-ups; scheduling into the past is a causality violation
/// and panics.
pub struct EventQueue<E, K: StoreKind = Wheel> {
    store: K::Store<E>,
    seq: u64,
    now: SimTime,
}

impl<E, K: StoreKind> Default for EventQueue<E, K> {
    fn default() -> Self {
        Self::with_store_capacity(0)
    }
}

impl<E> EventQueue<E> {
    /// An empty timer-wheel queue with the clock at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty timer-wheel queue pre-sized for roughly `cap` concurrently
    /// pending events (e.g. a scenario's expected request count).
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_store_capacity(cap)
    }
}

impl<E, K: StoreKind> EventQueue<E, K> {
    /// An empty queue on the store `K`, pre-sized for roughly `cap`
    /// pending events.
    pub fn with_store_capacity(cap: usize) -> Self {
        EventQueue {
            store: K::Store::with_capacity(cap),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
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
        self.store.insert(s);
    }

    /// Schedules a batch of events in iteration order.
    ///
    /// Exactly equivalent to calling [`EventQueue::schedule_at`] once per
    /// item — sequence numbers are assigned in iteration order, so
    /// same-instant events pop FIFO in batch order — but the profiler
    /// scope and causality check setup are paid once per batch instead of
    /// once per event. This is the entry point platforms and the fleet
    /// use for bursts: arrivals, batch dispatch, retry storms,
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
        for (at, ev) in events {
            assert!(
                at >= now,
                "causality violation: scheduling at {at} but now is {now}"
            );
            let s = Scheduled {
                at,
                seq: self.seq,
                ev,
            };
            self.seq += 1;
            self.store.insert(s);
        }
    }

    /// Reserves the next `n` sequence numbers and returns the first. Events
    /// scheduled later under them with [`EventQueue::schedule_reserved`]
    /// order among all others as if they had been scheduled now, so a
    /// caller can feed a long, known schedule to the kernel in bursts
    /// instead of holding all of it in the store.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Schedules a batch of `(instant, reserved sequence number, event)`
    /// triples. Each event pops exactly where it would have popped had it
    /// been scheduled when its number was reserved, provided it is
    /// scheduled before any event that would follow it pops.
    ///
    /// # Panics
    /// Panics if any event's instant is before the current time or its
    /// sequence number was never reserved.
    pub fn schedule_reserved<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimTime, u64, E)>,
    {
        let _p = ProfGuard::enter("kernel/schedule");
        let now = self.now;
        for (at, seq, ev) in events {
            assert!(
                at >= now,
                "causality violation: scheduling at {at} but now is {now}"
            );
            assert!(seq < self.seq, "sequence number {seq} was never reserved");
            self.store.insert(Scheduled { at, seq, ev });
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
        let s = self.store.pop()?;
        debug_assert!(s.at >= self.now, "event queue went back in time");
        self.now = s.at;
        Some((s.at, s.ev))
    }

    /// Pops the earliest event if it fires at or before `horizon`,
    /// advancing the clock to its timestamp; returns `None` (clock
    /// untouched) when the queue is empty or the next event is later.
    /// One store operation per delivered event — this is the hot path of
    /// [`Engine::run_until`].
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let _p = ProfGuard::enter("kernel/pop");
        let s = self.store.pop_at_or_before(horizon)?;
        debug_assert!(s.at >= self.now, "event queue went back in time");
        self.now = s.at;
        Some((s.at, s.ev))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.store.peek()
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

    /// Handles one event; may schedule follow-up events on `queue`,
    /// whichever store backs it.
    fn handle<K: StoreKind>(
        &mut self,
        queue: &mut EventQueue<Self::Ev, K>,
        at: SimTime,
        ev: Self::Ev,
    );
}

/// Drives a [`System`] by repeatedly delivering the earliest pending event.
pub struct Engine<S: System, K: StoreKind = Wheel> {
    /// The pending-event queue and clock. Public so callers can seed the
    /// initial events before running.
    pub queue: EventQueue<S::Ev, K>,
    /// The domain state under simulation.
    pub system: S,
    events_processed: u64,
}

impl<S: System> Engine<S> {
    /// Wraps `system` with an empty timer-wheel queue at the epoch.
    pub fn new(system: S) -> Self {
        Self::with_queue(system, EventQueue::new())
    }
}

impl<S: System, K: StoreKind> Engine<S, K> {
    /// Wraps `system` around a caller-built queue — the way to pick a
    /// store or a capacity hint for the run.
    pub fn with_queue(system: S, queue: EventQueue<S::Ev, K>) -> Self {
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
    use std::any::type_name;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        chain_until: u32,
    }

    impl System for Recorder {
        type Ev = u32;
        fn handle<K: StoreKind>(&mut self, queue: &mut EventQueue<u32, K>, at: SimTime, ev: u32) {
            self.seen.push((at, ev));
            if ev < self.chain_until {
                queue.schedule_after(SimDuration::from_secs(1), ev + 1);
            }
        }
    }

    fn recorder<K: StoreKind>() -> Engine<Recorder, K> {
        let system = Recorder {
            seen: Vec::new(),
            chain_until: 0,
        };
        Engine::with_queue(system, EventQueue::default())
    }

    #[test]
    fn events_fire_in_time_order() {
        fn check<K: StoreKind>() {
            let mut eng = recorder::<K>();
            eng.queue.schedule_at(SimTime::from_secs_f64(3.0), 3);
            eng.queue.schedule_at(SimTime::from_secs_f64(1.0), 1);
            eng.queue.schedule_at(SimTime::from_secs_f64(2.0), 2);
            assert_eq!(eng.run_to_completion(), 3);
            let order: Vec<u32> = eng.system.seen.iter().map(|&(_, e)| e).collect();
            assert_eq!(order, vec![1, 2, 3], "{}", type_name::<K>());
        }
        check::<Wheel>();
        check::<ReferenceHeap>();
    }

    #[test]
    fn ties_pop_fifo() {
        fn check<K: StoreKind>() {
            let mut eng = recorder::<K>();
            let t = SimTime::from_secs_f64(1.0);
            for i in 0..100 {
                eng.queue.schedule_at(t, i);
            }
            eng.run_to_completion();
            let order: Vec<u32> = eng.system.seen.iter().map(|&(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{}", type_name::<K>());
        }
        check::<Wheel>();
        check::<ReferenceHeap>();
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
        fn check<K: StoreKind>() {
            let mut eng = recorder::<K>();
            eng.queue.schedule_at(SimTime::from_secs_f64(1.0), 1);
            eng.queue.schedule_at(SimTime::from_secs_f64(2.0), 2);
            eng.queue.schedule_at(SimTime::from_secs_f64(3.0), 3);
            assert_eq!(
                eng.run_until(SimTime::from_secs_f64(2.0)),
                2,
                "{}",
                type_name::<K>()
            );
            assert_eq!(eng.queue.len(), 1);
            assert_eq!(eng.now(), SimTime::from_secs_f64(2.0));
        }
        check::<Wheel>();
        check::<ReferenceHeap>();
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
        let mut q: EventQueue<u32, ReferenceHeap> = EventQueue::default();
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
            fn handle<K: StoreKind>(
                &mut self,
                queue: &mut EventQueue<u32, K>,
                _at: SimTime,
                ev: u32,
            ) {
                self.seen.push(ev);
                if ev == 0 {
                    queue.schedule_now(99);
                }
            }
        }
        fn check<K: StoreKind>() {
            let queue = EventQueue::<u32, K>::default();
            let mut eng = Engine::with_queue(Inject { seen: Vec::new() }, queue);
            eng.queue.schedule_at(SimTime::ZERO, 0);
            eng.queue.schedule_at(SimTime::ZERO, 1);
            eng.run_to_completion();
            assert_eq!(eng.system.seen, vec![0, 1, 99], "{}", type_name::<K>());
        }
        check::<Wheel>();
        check::<ReferenceHeap>();
    }

    #[test]
    fn empty_queue_reports_empty() {
        let q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
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
        fn check<K: StoreKind>() {
            let mut q = EventQueue::<u32, K>::default();
            q.schedule_at(SimTime::from_micros(10), 0);
            q.schedule_at(SimTime::from_micros(20), 1);
            let h = SimTime::from_micros(15);
            assert_eq!(q.pop_at_or_before(h), Some((SimTime::from_micros(10), 0)));
            assert_eq!(q.pop_at_or_before(h), None, "{}", type_name::<K>());
            assert_eq!(q.now(), SimTime::from_micros(10));
            assert_eq!(q.len(), 1);
            // A later horizon releases the held event.
            assert_eq!(
                q.pop_at_or_before(SimTime::from_micros(20)),
                Some((SimTime::from_micros(20), 1))
            );
        }
        check::<Wheel>();
        check::<ReferenceHeap>();
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
        fn check<K: StoreKind>() {
            let t = SimTime::from_micros;
            // Mix of ties (three events at 50), out-of-order times, a
            // behind-the-batch instant, and far-future outliers.
            let batch = [
                (t(50), 10),
                (t(20), 11),
                (t(50), 12),
                (t(5_000_000), 13),
                (t(50), 14),
                (t(7), 15),
            ];
            let mut one = EventQueue::<u32, K>::default();
            let mut many = EventQueue::<u32, K>::default();
            for q in [&mut one, &mut many] {
                q.schedule_at(t(50), 0); // pre-existing tie at the batch instant
                q.schedule_at(t(3), 1);
            }
            for (at, ev) in batch {
                one.schedule_at(at, ev);
            }
            many.schedule_many(batch);
            for q in [&mut one, &mut many] {
                q.schedule_at(t(50), 2); // post-batch tie must pop after the batch's
            }
            let a: Vec<_> = std::iter::from_fn(|| one.pop()).collect();
            let b: Vec<_> = std::iter::from_fn(|| many.pop()).collect();
            assert_eq!(a, b, "{}", type_name::<K>());
            // And the tie order itself is pinned: batch order 10, 12, 14
            // between the pre- and post-batch events at t=50.
            let ties: Vec<u32> = b
                .iter()
                .filter(|&&(at, _)| at == t(50))
                .map(|&(_, e)| e)
                .collect();
            assert_eq!(ties, vec![0, 10, 12, 14, 2], "{}", type_name::<K>());
        }
        check::<Wheel>();
        check::<ReferenceHeap>();
    }

    /// Events fed late under reserved sequence numbers pop exactly as they
    /// would had they been scheduled up front: same-instant ties against
    /// earlier and later events, events behind the wheel's cursor (its
    /// ready spill) and far-future ones included.
    #[test]
    fn reserved_sequences_pop_as_if_scheduled_up_front() {
        fn check<K: StoreKind>() {
            let t = SimTime::from_micros;
            // A long schedule, fed in small bursts below, with ties at 50
            // and at 9_000 and a far-future outlier.
            let late = [
                (t(50), 10),
                (t(9_000), 11),
                (t(50), 12),
                (t(5_000_000), 13),
                (t(9_000), 14),
                (t(9_100), 15),
            ];
            let mut up_front = EventQueue::<u32, K>::default();
            let mut fed = EventQueue::<u32, K>::default();
            up_front.schedule_at(t(50), 0);
            up_front.schedule_many(late);
            fed.schedule_at(t(50), 0);
            let first = fed.reserve_seqs(late.len() as u64);
            let reserved: Vec<(SimTime, u64, u32)> = (first..)
                .zip(late)
                .map(|(seq, (at, ev))| (at, seq, ev))
                .collect();
            // Sorted release one event at a time, the next fed when the
            // previous one pops: 12 lands behind the wheel's cursor, at
            // the instant 10 just popped at.
            let mut order = reserved;
            order.sort_by_key(|&(at, seq, _)| (at, seq));
            let mut bursts = order.chunks(1);
            fed.schedule_reserved(bursts.next().unwrap().iter().copied());
            let mut outstanding = 1;
            // Both queues also schedule the same follow-ups while they run:
            // a tie at the popped instant (behind the wheel's cursor) and
            // one at 9_000, after the reserved block in sequence order.
            let mut a = Vec::new();
            let mut b = Vec::new();
            let follow = |q: &mut EventQueue<u32, K>, ev: u32| {
                if ev == 10 {
                    q.schedule_now(100);
                    q.schedule_at(t(9_000), 101);
                }
            };
            while let Some((at, ev)) = up_front.pop() {
                follow(&mut up_front, ev);
                a.push((at, ev));
            }
            while let Some((at, ev)) = fed.pop() {
                if (10..=15).contains(&ev) {
                    outstanding -= 1;
                    if outstanding == 0 {
                        if let Some(next) = bursts.next() {
                            fed.schedule_reserved(next.iter().copied());
                            outstanding = next.len();
                        }
                    }
                }
                follow(&mut fed, ev);
                b.push((at, ev));
            }
            assert_eq!(a, b, "{}", type_name::<K>());
            let ties = |at| -> Vec<u32> { b.iter().filter(|e| e.0 == at).map(|e| e.1).collect() };
            assert_eq!(ties(t(50)), [0, 10, 12, 100], "{}", type_name::<K>());
            assert_eq!(ties(t(9_000)), [11, 14, 101], "{}", type_name::<K>());
        }
        check::<Wheel>();
        check::<ReferenceHeap>();
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn an_unreserved_sequence_number_panics() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let first = q.reserve_seqs(1);
        q.schedule_reserved([(SimTime::ZERO, first + 1, 0)]);
    }

    /// `schedule_many_after` offsets every delay from the same `now`.
    #[test]
    fn schedule_many_after_offsets_from_now() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_micros(10), 0);
        q.pop();
        q.schedule_many_after([(SimDuration::from_micros(5), 1), (SimDuration::ZERO, 2)]);
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(15), 1)));
        assert_eq!(q.pop(), None);
    }

    /// Deterministic pseudo-random stress: the wheel and the heap must
    /// deliver identical sequences, block boundaries and all.
    #[test]
    fn wheel_matches_heap_on_scrambled_schedules() {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: EventQueue<u32, ReferenceHeap> = EventQueue::default();
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
