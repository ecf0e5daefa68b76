//! Property-based tests for the simulation kernel's invariants.

use proptest::prelude::*;
use slsb_sim::event::{Engine, EventQueue, ReferenceHeap, StoreKind, System, Wheel};
use slsb_sim::stats::{Accumulator, GaugeSeries, SampleSet};
use slsb_sim::time::{SimDuration, SimTime};
use slsb_sim::Seed;

/// A system that records delivery order and timestamps.
struct Collector {
    delivered: Vec<(SimTime, u64)>,
}

impl System for Collector {
    type Ev = u64;
    fn handle<K: StoreKind>(&mut self, _q: &mut EventQueue<u64, K>, at: SimTime, ev: u64) {
        self.delivered.push((at, ev));
    }
}

/// A system that schedules deterministic follow-up events, including
/// `schedule_now` chains, so kernel differential tests exercise feedback
/// scheduling (events inserted behind or at the wheel cursor) and not
/// just pre-loaded schedules.
struct Chainer {
    seen: Vec<(SimTime, u64)>,
    budget: u32,
}

impl System for Chainer {
    type Ev = u64;
    fn handle<K: StoreKind>(&mut self, q: &mut EventQueue<u64, K>, at: SimTime, ev: u64) {
        self.seen.push((at, ev));
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let next = ev.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        match ev % 4 {
            // Same-instant chain: must run after already-queued events at
            // this timestamp, identically on both kernels.
            0 => q.schedule_now(next),
            // Short hop, usually within the current wheel bucket.
            1 => q.schedule_after(SimDuration::from_micros(next % 1_024), next),
            // Far hop that crosses wheel blocks into the overflow map.
            2 => q.schedule_after(SimDuration::from_micros(next % (1 << 23)), next),
            _ => {}
        }
    }
}

/// Shapes a raw generated value into a delay that stresses every wheel
/// path: same-instant ties, intra-bucket, block-boundary, far overflow.
fn shape_delay(raw: u64) -> u64 {
    match raw % 4 {
        0 => 0,
        1 => raw % 1_024,
        2 => raw % (1 << 22),
        _ => raw,
    }
}

/// Wheel geometry the far-tier tests aim at: one block spans 2^22 µs
/// (≈ 4.19 s), and blocks 2^16 or more ahead of the cursor's block go to
/// the sparse map instead of the indexed deque.
const BLOCK_US: u64 = 1 << 22;
const FAR_SPAN_BLOCKS: u64 = 1 << 16;

/// One step of a kernel differential script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Schedule the next event this many µs after the current time.
    After(u64),
    /// Pop this many events.
    Pop(usize),
    /// Schedule this many events in one `schedule_many` call, the k-th
    /// (from 0) `delay / (k + 1)` µs after the current time: a burst out
    /// of time order, all ties when `delay` is 0.
    Burst { delay: u64, n: usize },
    /// Reserve this many sequence numbers with `reserve_seqs`.
    Reserve(usize),
    /// Schedule up to this many of the oldest reserved, not yet scheduled
    /// numbers in one `schedule_reserved` call, `delay` µs after the
    /// current time.
    Feed { delay: u64, n: usize },
}

/// Runs `steps` on a wheel and a heap queue side by side, then drains
/// both; panics at the first pop on which they differ. Every scheduling
/// operation the engines use is covered: `schedule_at`, `schedule_many`
/// bursts, and sequence numbers reserved up front and scheduled later in
/// `schedule_reserved` bursts, the way the executor feeds deliveries.
fn assert_kernels_agree(steps: &[Step]) {
    let mut wheel = EventQueue::new();
    let mut heap = EventQueue::<_, ReferenceHeap>::default();
    let mut id = 0u64;
    // Reserved numbers not yet scheduled, oldest first.
    let mut reserved = std::collections::VecDeque::new();
    for (i, &step) in steps.iter().enumerate() {
        match step {
            Step::After(delay) => {
                let at = wheel.now() + SimDuration::from_micros(delay);
                wheel.schedule_at(at, id);
                heap.schedule_at(at, id);
                id += 1;
            }
            Step::Pop(n) => {
                for _ in 0..n {
                    assert_eq!(wheel.pop(), heap.pop(), "step {i} of {steps:?}");
                }
            }
            Step::Burst { delay, n } => {
                let now = wheel.now();
                let burst: Vec<(SimTime, u64)> = (0..n as u64)
                    .map(|k| (now + SimDuration::from_micros(delay / (k + 1)), id + k))
                    .collect();
                wheel.schedule_many(burst.iter().copied());
                heap.schedule_many(burst);
                id += n as u64;
            }
            Step::Reserve(n) => {
                let first = wheel.reserve_seqs(n as u64);
                assert_eq!(heap.reserve_seqs(n as u64), first, "step {i}");
                reserved.extend(first..first + n as u64);
            }
            Step::Feed { delay, n } => {
                let at = wheel.now() + SimDuration::from_micros(delay);
                let take = n.min(reserved.len());
                let feed: Vec<(SimTime, u64, u64)> = reserved
                    .drain(..take)
                    .map(|seq| {
                        id += 1;
                        (at, seq, id - 1)
                    })
                    .collect();
                wheel.schedule_reserved(feed.iter().copied());
                heap.schedule_reserved(feed);
            }
        }
        assert_eq!(wheel.len(), heap.len(), "step {i}");
        assert_eq!(wheel.peek_time(), heap.peek_time(), "step {i}");
    }
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b, "drain of {steps:?}");
        if a.is_none() {
            break;
        }
    }
}

/// Shapes a generated `(kind, raw)` pair into a step of any kind, with
/// delays that stress every wheel path (see [`shape_delay`]).
fn shape_step(kind: u64, raw: u64) -> Step {
    let delay = shape_delay(raw);
    let n = (raw % 17) as usize;
    match kind % 5 {
        0 => Step::After(delay),
        1 => Step::Pop(n % 5),
        2 => Step::Burst { delay, n },
        3 => Step::Reserve(n),
        _ => Step::Feed { delay, n },
    }
}

/// One step of a feed differential script.
#[derive(Debug, Clone, Copy)]
enum FeedStep {
    /// Schedule one event this many µs after the current time, into the
    /// store of both queues.
    After(u64),
    /// Pop this many events.
    Pop(usize),
    /// Reserve this many sequence numbers.
    Reserve(usize),
    /// Hand over up to `n` of the reserved, not yet handed over numbers,
    /// newest first when `newest_first`: the k-th fires
    /// `delay * ((k * stride) % n) / n` µs after the current time, so a
    /// burst is out of time order, and all ties when `delay` is 0.
    Feed {
        delay: u64,
        n: usize,
        stride: usize,
        newest_first: bool,
    },
}

/// Runs `steps` on a wheel queue that takes every reserved event through
/// its feed and on a reference heap queue that holds every event in its
/// store, then drains both; panics at the first pop on which they differ.
fn assert_feed_matches_store(steps: &[FeedStep]) {
    let mut fed = EventQueue::new();
    let mut reference = EventQueue::<_, ReferenceHeap>::default();
    let mut id = 0u64;
    let mut reserved = std::collections::VecDeque::new();
    for (i, &step) in steps.iter().enumerate() {
        match step {
            FeedStep::After(delay) => {
                let at = fed.now() + SimDuration::from_micros(delay);
                fed.schedule_at(at, id);
                reference.schedule_at(at, id);
                id += 1;
            }
            FeedStep::Pop(n) => {
                for _ in 0..n {
                    assert_eq!(fed.pop(), reference.pop(), "step {i} of {steps:?}");
                }
            }
            FeedStep::Reserve(n) => {
                let first = fed.reserve_seqs(n as u64);
                assert_eq!(reference.reserve_seqs(n as u64), first, "step {i}");
                reserved.extend(first..first + n as u64);
            }
            FeedStep::Feed {
                delay,
                n,
                stride,
                newest_first,
            } => {
                let take = n.min(reserved.len());
                let mut seqs: Vec<u64> = reserved.drain(..take).collect();
                if newest_first {
                    seqs.reverse();
                }
                for (k, seq) in seqs.into_iter().enumerate() {
                    let offset = delay * ((k * stride) % take) as u64 / take as u64;
                    let at = fed.now() + SimDuration::from_micros(offset);
                    fed.feed(at, seq, id);
                    reference.schedule_reserved([(at, seq, id)]);
                    id += 1;
                }
            }
        }
        assert_eq!(fed.len(), reference.len(), "step {i}");
        assert_eq!(fed.peek_time(), reference.peek_time(), "step {i}");
    }
    loop {
        let (a, b) = (fed.pop(), reference.pop());
        assert_eq!(a, b, "drain of {steps:?}");
        if a.is_none() {
            break;
        }
    }
}

/// Shapes a raw value into a delay for the far-tier tests: near the
/// cursor, a run of empty deque blocks away, straddling the deque/sparse
/// boundary, or anywhere up to 2^50 µs.
fn shape_far_delay(raw: u64) -> u64 {
    match raw % 4 {
        0 => raw % BLOCK_US,
        1 => raw % (1_000 * BLOCK_US),
        2 => (FAR_SPAN_BLOCKS - 8) * BLOCK_US + raw % (16 * BLOCK_US),
        _ => raw % (1 << 50),
    }
}

proptest! {
    /// The clock never goes backwards, regardless of scheduling order.
    #[test]
    fn clock_is_monotone(times in prop::collection::vec(0u64..10_000_000, 1..200)) {
        let mut eng = Engine::new(Collector { delivered: Vec::new() });
        for (i, &t) in times.iter().enumerate() {
            eng.queue.schedule_at(SimTime::from_micros(t), i as u64);
        }
        eng.run_to_completion();
        let stamps: Vec<SimTime> = eng.system.delivered.iter().map(|&(t, _)| t).collect();
        prop_assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(stamps.len(), times.len());
    }

    /// Events sharing a timestamp are delivered in insertion (FIFO) order.
    #[test]
    fn equal_timestamps_are_fifo(n in 1usize..100, t in 0u64..1_000_000) {
        let mut eng = Engine::new(Collector { delivered: Vec::new() });
        for i in 0..n {
            eng.queue.schedule_at(SimTime::from_micros(t), i as u64);
        }
        eng.run_to_completion();
        let ids: Vec<u64> = eng.system.delivered.iter().map(|&(_, e)| e).collect();
        prop_assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());
    }

    /// run_until(h) then run_to_completion delivers the same multiset of
    /// events as a single run_to_completion.
    #[test]
    fn horizon_split_is_transparent(
        times in prop::collection::vec(0u64..1_000_000, 1..100),
        h in 0u64..1_000_000,
    ) {
        let mut a = Engine::new(Collector { delivered: Vec::new() });
        let mut b = Engine::new(Collector { delivered: Vec::new() });
        for (i, &t) in times.iter().enumerate() {
            a.queue.schedule_at(SimTime::from_micros(t), i as u64);
            b.queue.schedule_at(SimTime::from_micros(t), i as u64);
        }
        a.run_to_completion();
        b.run_until(SimTime::from_micros(h));
        b.run_to_completion();
        prop_assert_eq!(a.system.delivered, b.system.delivered);
    }

    /// Accumulator mean always lies between min and max.
    #[test]
    fn accumulator_mean_bounded(xs in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut acc = Accumulator::new();
        for &x in &xs {
            acc.add(x);
        }
        let mean = acc.mean().unwrap();
        prop_assert!(acc.min().unwrap() <= mean + 1e-9);
        prop_assert!(mean <= acc.max().unwrap() + 1e-9);
        prop_assert!(acc.variance().unwrap() >= -1e-9);
    }

    /// Merging accumulators in any split equals sequential accumulation.
    #[test]
    fn accumulator_merge_associative(
        xs in prop::collection::vec(-1e3f64..1e3, 2..200),
        split in 1usize..199,
    ) {
        let split = split.min(xs.len() - 1);
        let mut whole = Accumulator::new();
        for &x in &xs { whole.add(x); }
        let (l, r) = xs.split_at(split);
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        for &x in l { a.add(x); }
        for &x in r { b.add(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-6);
        prop_assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-4);
    }

    /// Percentiles are monotone in q and bounded by the extremes.
    #[test]
    fn percentiles_monotone(xs in prop::collection::vec(0f64..1e6, 1..200)) {
        let mut s = SampleSet::new();
        for &x in &xs { s.push(x); }
        let qs = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0];
        let vals: Vec<f64> = qs.iter().map(|&q| s.percentile(q).unwrap()).collect();
        prop_assert!(vals.windows(2).all(|w| w[0] <= w[1] + 1e-9));
        let mean = s.mean().unwrap();
        prop_assert!(vals[0] <= mean + 1e-9 && mean <= vals[qs.len() - 1] + 1e-9);
    }

    /// Gauge deltas conserve: final value equals the sum of deltas.
    #[test]
    fn gauge_conserves_deltas(deltas in prop::collection::vec(-5i64..=5, 1..200)) {
        let mut g = GaugeSeries::new();
        let mut t = 0u64;
        for &d in &deltas {
            t += 7;
            g.record_delta(SimTime::from_micros(t), d);
        }
        prop_assert_eq!(g.current(), deltas.iter().sum::<i64>());
        prop_assert!(g.peak() >= g.current());
        prop_assert!(g.peak() >= 0);
    }

    /// Substream derivation is injective enough: distinct labels rarely
    /// collide (we require none over a small generated set).
    #[test]
    fn substreams_distinct(labels in prop::collection::hash_set("[a-z]{1,8}", 2..20)) {
        let seed = Seed(0xDEADBEEF);
        let derived: std::collections::HashSet<u64> =
            labels.iter().map(|l| seed.substream(l).0).collect();
        prop_assert_eq!(derived.len(), labels.len());
    }

    /// Exponential samples are nonnegative and rate-ordered in the mean.
    #[test]
    fn exp_samples_positive(seed in 0u64..1000, rate in 0.1f64..100.0) {
        let mut rng = Seed(seed).rng();
        for _ in 0..50 {
            let d = rng.exp_interval(rate);
            prop_assert!(d >= SimDuration::ZERO);
        }
    }

    /// The timer wheel and the reference binary heap agree pop-for-pop on
    /// arbitrary schedules, including same-instant FIFO ties, interleaved
    /// pops, and far-future overflow deltas.
    #[test]
    fn wheel_and_heap_agree_pop_for_pop(
        raws in prop::collection::vec(0u64..16_777_216, 1..250),
        pops in prop::collection::vec(0u64..4, 1..250),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::<_, ReferenceHeap>::default();
        for (i, &raw) in raws.iter().enumerate() {
            let at = wheel.now() + SimDuration::from_micros(shape_delay(raw));
            wheel.schedule_at(at, i as u64);
            heap.schedule_at(at, i as u64);
            // Interleave pops with inserts so the wheel's cursor advances
            // mid-schedule and later inserts land behind or at it.
            for _ in 0..pops[i % pops.len()] {
                prop_assert_eq!(wheel.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }

    /// Full engine runs with feedback scheduling (schedule_now chains,
    /// short and block-crossing follow-ups) deliver identical sequences
    /// on both kernels.
    #[test]
    fn kernels_agree_under_chained_scheduling(
        times in prop::collection::vec(0u64..8_000_000, 1..60),
    ) {
        fn run<K: StoreKind>(times: &[u64]) -> Vec<(SimTime, u64)> {
            let mut eng = Engine::with_queue(
                Chainer { seen: Vec::new(), budget: 300 },
                EventQueue::<_, K>::default(),
            );
            for (i, &t) in times.iter().enumerate() {
                eng.queue.schedule_at(SimTime::from_micros(t), i as u64);
            }
            eng.run_to_completion();
            eng.system.seen
        }
        prop_assert_eq!(run::<Wheel>(&times), run::<ReferenceHeap>(&times));
    }

    /// Horizon-bounded draining agrees across kernels: popping with a
    /// moving horizon yields the same events and leaves both queues in
    /// the same state.
    #[test]
    fn kernels_agree_on_horizon_pops(
        raws in prop::collection::vec(0u64..16_777_216, 1..200),
        h in 1u64..4_194_304,
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::<_, ReferenceHeap>::default();
        for (i, &raw) in raws.iter().enumerate() {
            let at = SimTime::from_micros(shape_delay(raw));
            wheel.schedule_at(at, i as u64);
            heap.schedule_at(at, i as u64);
        }
        let mut horizon = SimTime::ZERO;
        while !wheel.is_empty() || !heap.is_empty() {
            horizon += SimDuration::from_micros(h);
            loop {
                let (a, b) = (wheel.pop_at_or_before(horizon), heap.pop_at_or_before(horizon));
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
    }

    /// The retry executor's schedule: for every request, at t = 0, a
    /// delivery at its arrival and an attempt timeout 10 s later. The two
    /// nondecreasing streams interleave over ≥ 6000 s (≈ 1400 blocks),
    /// and the drain adds short follow-ups the way retries do.
    #[test]
    fn kernels_agree_on_deliver_and_timeout_streams(
        gaps in prop::collection::vec(0u64..8_000_000, 1_500..2_500),
        hops in prop::collection::vec(0u64..3_000_000, 1..64),
    ) {
        let mut arrival = 0u64;
        let mut arrivals = Vec::with_capacity(gaps.len() + 1);
        for &g in &gaps {
            arrival += match g % 3 {
                0 => 0,
                1 => g % 8 * 1_000_000,
                _ => g,
            };
            arrivals.push(arrival);
        }
        arrivals.push(arrival.max(6_000_000_000));
        let mut steps = Vec::new();
        for &a in &arrivals {
            steps.push(Step::After(a));
            steps.push(Step::After(a + 10_000_000));
        }
        for i in 0..2 * arrivals.len() {
            steps.push(Step::Pop(1));
            if i % 3 == 0 {
                steps.push(Step::After(hops[i % hops.len()]));
            }
        }
        assert_kernels_agree(&steps);
    }

    /// Inserts that land nearer than the current far front: each new
    /// event precedes every far event scheduled before it, then the drain
    /// keeps scheduling into the blocks just ahead of the cursor.
    #[test]
    fn kernels_agree_on_inserts_before_the_far_front(
        front in 2u64..3_000,
        raws in prop::collection::vec(0u64..u64::MAX, 1..200),
    ) {
        let mut steps = vec![Step::After(front * BLOCK_US)];
        let mut delay = front * BLOCK_US;
        for &raw in &raws {
            delay -= raw % (delay / 8).max(1);
            steps.push(Step::After(delay.max(BLOCK_US)));
        }
        for &raw in &raws {
            steps.push(Step::Pop(1));
            steps.push(Step::After(BLOCK_US + raw % (40 * BLOCK_US)));
        }
        assert_kernels_agree(&steps);
    }

    /// Far schedules across runs of empty blocks, over the deque/sparse
    /// boundary and into the sparse map, with pops interleaved so later
    /// inserts land in blocks that already hold events in either tier.
    #[test]
    fn kernels_agree_across_empty_blocks_and_the_sparse_tier(
        raws in prop::collection::vec(0u64..u64::MAX, 1..150),
        pops in prop::collection::vec(0usize..4, 1..150),
    ) {
        let mut steps = Vec::new();
        for (i, &raw) in raws.iter().enumerate() {
            steps.push(Step::After(shape_far_delay(raw)));
            steps.push(Step::Pop(pops[i % pops.len()]));
        }
        assert_kernels_agree(&steps);
    }

    /// Scripts mixing every queue operation the engines use: single
    /// schedules, `schedule_many` bursts, reserved sequence numbers fed
    /// later through `schedule_reserved`, and interleaved pops.
    #[test]
    fn kernels_agree_on_bursts_and_reserved_sequence_numbers(
        kinds in prop::collection::vec(0u64..5, 1..200),
        raws in prop::collection::vec(0u64..16_777_216, 1..200),
    ) {
        let steps: Vec<Step> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| shape_step(kind, raws[i % raws.len()]))
            .collect();
        assert_kernels_agree(&steps);
    }

    /// Reserved events handed over through the feed, in bursts out of
    /// time order, with equal instants whose ties fall to sequence
    /// numbers handed over newest first, interleaved with stored events
    /// and pops, pop exactly as they do from the reference heap's store.
    #[test]
    fn fed_events_pop_as_if_stored(
        kinds in prop::collection::vec(0u64..4, 1..200),
        raws in prop::collection::vec(0u64..16_777_216, 1..200),
    ) {
        let steps: Vec<FeedStep> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let raw = raws[i % raws.len()];
                // Instants collide often: a burst of ties, or a few
                // microseconds or a bucket apart, sometimes a block.
                let delay = match raw % 4 {
                    0 => 0,
                    1 => raw % 8,
                    2 => raw % 8_192,
                    _ => raw % (1 << 23),
                };
                let n = (raw % 17) as usize;
                match kind {
                    0 => FeedStep::After(delay),
                    1 => FeedStep::Pop(n % 6),
                    2 => FeedStep::Reserve(n),
                    _ => FeedStep::Feed {
                        delay,
                        n,
                        stride: 1 + (raw >> 5) as usize % 7,
                        newest_first: raw & 16 != 0,
                    },
                }
            })
            .collect();
        assert_feed_matches_store(&steps);
    }

    /// Instants at and beyond 2^40 µs (≈ 12.7 days) schedule and pop
    /// exactly as near zero.
    #[test]
    fn kernels_agree_beyond_2_pow_40_us(
        start in (1u64 << 40)..(1u64 << 52),
        raws in prop::collection::vec(0u64..16_777_216, 1..200),
        pops in prop::collection::vec(0usize..4, 1..200),
    ) {
        let mut steps = vec![Step::After(start), Step::Pop(1)];
        for (i, &raw) in raws.iter().enumerate() {
            steps.push(Step::After(shape_delay(raw)));
            steps.push(Step::Pop(pops[i % pops.len()]));
        }
        assert_kernels_agree(&steps);
    }
}

/// One block holding events in both far tiers: the first event goes to
/// the sparse map, the cursor then moves a few blocks, and the second
/// event for the same block lands in the indexed deque.
#[test]
fn kernels_agree_on_a_block_split_across_far_tiers() {
    let target = (FAR_SPAN_BLOCKS + 3) * BLOCK_US;
    let hop = 5 * BLOCK_US;
    assert_kernels_agree(&[
        Step::After(target + 77),
        Step::After(hop),
        Step::Pop(1),
        Step::After(target - hop + 11),
        Step::After(target - hop + 77),
        Step::After(FAR_SPAN_BLOCKS * BLOCK_US),
    ]);
}
