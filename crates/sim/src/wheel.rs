//! Hierarchical timer wheel (calendar queue) — the pending store behind
//! every production [`EventQueue`](crate::event::EventQueue).
//!
//! Serving simulations schedule almost everything into the near future
//! (service completions, network hops, scaler ticks), with a thin tail of
//! far-future events (keep-alive reclaims, outage windows). A binary heap
//! pays O(log n) and a cache miss per operation regardless; the wheel makes
//! the common case O(1) amortized:
//!
//! - **Near ring**: one block of [`BUCKETS`] buckets, each
//!   2^[`BUCKET_SHIFT`] µs wide (4.096 ms), covering ~4.19 s ahead of the
//!   drain cursor. Scheduling is an index computation plus a `Vec::push`.
//!   The ring is deliberately shallow (1024 buckets ≈ 24 KB of `Vec`
//!   headers) so the randomly-indexed bucket metadata stays cache-resident;
//!   bucket width never affects delivery order, which is always the full
//!   `(time, sequence)` sort within a drained bucket.
//! - **Far tier**: events beyond the current block land in a deque of
//!   per-block `Vec`s indexed by distance from the cursor's block, grown
//!   lazily to the furthest block scheduled, so scheduling is an index
//!   computation plus a `Vec::push` here too. Blocks [`FAR_SPAN`] or more
//!   ahead (2^16 blocks, ≈ 76 h) go to a sparse `BTreeMap` instead, so a
//!   lone far-off event never grows the deque. Whole blocks are pulled
//!   from both and scattered into the ring when the cursor reaches them.
//! - **Ready spill**: the next non-empty bucket is drained into a single
//!   sorted buffer (`ready`, newest-first so popping from the back is
//!   oldest-first). Events scheduled behind the cursor — `schedule_now`
//!   and short follow-ups inside an already-drained bucket — are
//!   order-inserted here, which is what preserves the exact
//!   `(time, sequence)` FIFO contract a heap provides.
//!
//! Bucket `Vec`s are recycled rather than freed: draining swaps a bucket
//! with the (empty) ready buffer, and far blocks return to a spare pool
//! after scattering, so steady-state operation allocates nothing.

use crate::event::{PendingStore, Scheduled};
use crate::time::SimTime;
use std::cmp;
use std::collections::{BTreeMap, VecDeque};
use std::mem;

/// log2 of the bucket width in microseconds (4.096 ms per bucket).
pub(crate) const BUCKET_SHIFT: u32 = 12;
/// log2 of the bucket count per block.
const BLOCK_BITS: u32 = 10;
/// Buckets per block; one block spans ~4.19 s.
pub(crate) const BUCKETS: usize = 1 << BLOCK_BITS;
const SLOT_MASK: u64 = (BUCKETS as u64) - 1;
const WORDS: usize = BUCKETS / 64;
/// Blocks ahead of the cursor's block that the far deque indexes; blocks
/// at least this far ahead (≈ 76 h) go to the sparse map.
const FAR_SPAN: u64 = 1 << 16;

/// The [`Wheel`](crate::event::Wheel) store; see the module docs.
pub struct TimerWheel<E> {
    /// Drained-but-undelivered events, sorted descending by `(at, seq)` so
    /// the earliest is at the back. Also absorbs behind-cursor inserts.
    ready: Vec<Scheduled<E>>,
    /// The current block of near-future buckets, indexed by `bucket & mask`.
    ring: Box<[Vec<Scheduled<E>>]>,
    /// Occupancy bitmap over `ring` (one bit per bucket).
    occ: [u64; WORDS],
    /// Absolute index of the next bucket the drain cursor will visit.
    /// Invariant: every far and sparse block is strictly after
    /// `cur >> BLOCK_BITS`, and every ring bucket holds only events of the
    /// cursor's block at slots `>= cur & mask`.
    cur: u64,
    /// Far-future events, one unsorted `Vec` per block: `far[i]` holds
    /// block `(cur >> BLOCK_BITS) + 1 + i`. Blocks between occupied ones
    /// are empty `Vec`s that own no memory.
    far: VecDeque<Vec<Scheduled<E>>>,
    /// Far-future events of blocks [`FAR_SPAN`] or more ahead of the
    /// cursor's block when they were scheduled, keyed by block, each group
    /// unsorted. A block can hold events here and in `far` at once.
    sparse: BTreeMap<u64, Vec<Scheduled<E>>>,
    /// Recycled block vectors (capacity retained across reuse).
    spare: Vec<Vec<Scheduled<E>>>,
    /// A bucket no event in the ring or the far tiers precedes: raised
    /// when the cursor finds the next occupied bucket, lowered by inserts.
    /// A pop bounded before it with `ready` empty returns at once.
    next: u64,
    len: usize,
}

impl<E> PendingStore<E> for TimerWheel<E> {
    fn with_capacity(cap: usize) -> Self {
        TimerWheel {
            // `ready` cycles capacity with the ring buckets, so seeding it
            // covers the largest burst bucket; simultaneous occupancy is far
            // below total request count, hence the cap.
            ready: Vec::with_capacity(cap.min(1024)),
            ring: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occ: [0; WORDS],
            cur: 0,
            far: VecDeque::new(),
            sparse: BTreeMap::new(),
            spare: Vec::new(),
            next: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Events for the cursor's block take the inlined ring push, so the
    /// caller's event is written straight into its bucket; the rest take
    /// [`TimerWheel::insert_off_ring`].
    #[inline(always)]
    fn insert(&mut self, at: SimTime, seq: u64, ev: E) {
        let b = Self::bucket(at);
        if b < self.cur || b >> BLOCK_BITS != self.cur >> BLOCK_BITS {
            self.insert_off_ring(at, seq, ev);
            return;
        }
        self.len += 1;
        self.next = self.next.min(b);
        let slot = (b & SLOT_MASK) as usize;
        self.ring[slot].push(Scheduled { at, seq, ev });
        self.occ[slot >> 6] |= 1 << (slot & 63);
    }

    /// Pops the earliest event only if it sorts at or before `(at, seq)`.
    /// The cursor never moves past the bucket of `at`, so events scheduled
    /// next to `now` keep landing in ring buckets rather than in the ready
    /// spill.
    #[inline(always)]
    fn pop_through(&mut self, at: SimTime, seq: u64) -> Option<Scheduled<E>> {
        let Some(s) = self.ready.last() else {
            if Self::bucket(at) < self.next {
                return None;
            }
            return self.pop_through_advancing(at, seq);
        };
        if (s.at, s.seq) > (at, seq) {
            return None;
        }
        self.len -= 1;
        self.ready.pop()
    }

    /// Timestamp of the earliest pending event without disturbing anything.
    fn peek(&self) -> Option<SimTime> {
        if let Some(s) = self.ready.last() {
            return Some(s.at);
        }
        if self.len == 0 {
            return None;
        }
        let start = (self.cur & SLOT_MASK) as usize;
        if let Some(slot) = self.next_occupied(start) {
            return self.ring[slot].iter().map(|s| s.at).min();
        }
        // The earliest far event sits in the first occupied block of the
        // deque or in the first sparse block, whichever comes first.
        let near = self.far.iter().find(|v| !v.is_empty());
        near.into_iter()
            .chain(self.sparse.values().next())
            .flatten()
            .map(|s| s.at)
            .min()
    }
}

impl<E> TimerWheel<E> {
    fn bucket(at: SimTime) -> u64 {
        at.as_micros() >> BUCKET_SHIFT
    }

    /// [`PendingStore::insert`] for an event behind the cursor (into the
    /// ready spill, in order, so time order and FIFO ties survive) or
    /// past the cursor's block (into the far tiers).
    #[inline(never)]
    fn insert_off_ring(&mut self, at: SimTime, seq: u64, ev: E) {
        let b = Self::bucket(at);
        self.len += 1;
        if b < self.cur {
            let pos = self.ready.partition_point(|e| (e.at, e.seq) > (at, seq));
            self.ready.insert(pos, Scheduled { at, seq, ev });
            return;
        }
        self.next = self.next.min(b);
        let blk = b >> BLOCK_BITS;
        let ahead = blk - (self.cur >> BLOCK_BITS) - 1;
        let v = if ahead < FAR_SPAN {
            let i = ahead as usize;
            if i >= self.far.len() {
                self.far.resize_with(i + 1, Vec::new);
            }
            let v = &mut self.far[i];
            if v.capacity() == 0 {
                if let Some(spare) = self.spare.pop() {
                    *v = spare;
                }
            }
            v
        } else {
            self.sparse
                .entry(blk)
                .or_insert_with(|| self.spare.pop().unwrap_or_default())
        };
        v.push(Scheduled { at, seq, ev });
    }

    /// [`PendingStore::pop_through`] once `ready` has run dry: advances
    /// toward the bucket of `at` until `ready` holds an event.
    #[inline(never)]
    fn pop_through_advancing(&mut self, at: SimTime, seq: u64) -> Option<Scheduled<E>> {
        let limit = Self::bucket(at);
        while self.ready.is_empty() {
            if self.len == 0 || !self.advance(limit) {
                return None;
            }
        }
        self.pop_through(at, seq)
    }

    /// Moves the next non-empty bucket toward `ready`, or the cursor to
    /// the next far block, unless either lies past bucket `limit`; returns
    /// whether anything moved. Precondition: `ready` is empty and
    /// `len > 0`.
    fn advance(&mut self, limit: u64) -> bool {
        let start = (self.cur & SLOT_MASK) as usize;
        if let Some(slot) = self.next_occupied(start) {
            let bucket = (self.cur & !SLOT_MASK) | slot as u64;
            if bucket > limit {
                self.next = bucket;
                return false;
            }
            self.occ[slot >> 6] &= !(1 << (slot & 63));
            // Swap instead of take: the bucket inherits `ready`'s old
            // capacity, so allocations circulate instead of repeating.
            mem::swap(&mut self.ring[slot], &mut self.ready);
            self.ready
                .sort_unstable_by_key(|s| cmp::Reverse((s.at, s.seq)));
            let next = bucket + 1;
            if next & SLOT_MASK == 0 {
                // Crossed into the next block: its far events (if any) are
                // now near-future and must be reachable through the ring.
                self.enter_block(next >> BLOCK_BITS);
            } else {
                self.cur = next;
                self.next = next;
            }
            return true;
        }
        // Block exhausted with nothing in the ring: jump the cursor to the
        // earliest far block, or only as far as the (empty) block of
        // `limit` when that comes first, so that the next call with the
        // same limit returns at once.
        let (cur_blk, limit_blk) = (self.cur >> BLOCK_BITS, limit >> BLOCK_BITS);
        if limit_blk == cur_blk {
            self.next = (cur_blk + 1) << BLOCK_BITS;
            return false;
        }
        let near = self
            .far
            .iter()
            .position(|v| !v.is_empty())
            .map(|i| cur_blk + 1 + i as u64);
        let blk = near
            .into_iter()
            .chain(self.sparse.keys().next().copied())
            .min()
            .expect("len > 0 but nothing pending");
        self.enter_block(blk.min(limit_blk));
        true
    }

    /// Moves the cursor to the start of block `blk` and scatters that
    /// block's far events into the ring. Every block between the cursor's
    /// and `blk` must be empty.
    fn enter_block(&mut self, blk: u64) {
        let ahead = blk - (self.cur >> BLOCK_BITS) - 1;
        self.cur = blk << BLOCK_BITS;
        self.next = self.cur;
        if ahead < self.far.len() as u64 {
            self.far.drain(..ahead as usize);
            let v = self.far.pop_front().expect("index checked");
            self.scatter(v);
        } else {
            self.far.clear();
        }
        if self.sparse.keys().next() == Some(&blk) {
            let v = self.sparse.pop_first().expect("first key checked").1;
            self.scatter(v);
        }
    }

    /// Distributes one far block's events into the ring. The cursor must
    /// sit at the start of that block.
    fn scatter(&mut self, mut v: Vec<Scheduled<E>>) {
        for s in v.drain(..) {
            let b = Self::bucket(s.at);
            debug_assert_eq!(b >> BLOCK_BITS, self.cur >> BLOCK_BITS);
            debug_assert!(b >= self.cur);
            let slot = (b & SLOT_MASK) as usize;
            self.ring[slot].push(s);
            self.occ[slot >> 6] |= 1 << (slot & 63);
        }
        if v.capacity() > 0 {
            self.spare.push(v);
        }
    }

    fn next_occupied(&self, start: usize) -> Option<usize> {
        let mut w = start >> 6;
        let mut word = self.occ[w] & (!0u64 << (start & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == WORDS {
                return None;
            }
            word = self.occ[w];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_far_off_event_takes_constant_memory() {
        let mut w = TimerWheel::with_capacity(0);
        // 10^9 s is ~2.4e8 blocks ahead: one sparse entry, no deque slots.
        let far_off = SimTime::from_micros(1_000_000_000 * 1_000_000);
        w.insert(far_off, 0, ());
        assert_eq!(w.far.capacity(), 0);
        assert_eq!(w.sparse.len(), 1);
        // The last block inside the span is indexed; the next one is not.
        let block_us = 1u64 << (BUCKET_SHIFT + BLOCK_BITS);
        let last_indexed = SimTime::from_micros(FAR_SPAN * block_us);
        w.insert(last_indexed, 1, ());
        assert_eq!(w.far.len(), FAR_SPAN as usize);
        w.insert(SimTime::from_micros((FAR_SPAN + 1) * block_us), 2, ());
        assert_eq!((w.far.len(), w.sparse.len()), (FAR_SPAN as usize, 2));
        let order: Vec<u64> =
            std::iter::from_fn(|| w.pop_through(SimTime::MAX, u64::MAX).map(|s| s.seq)).collect();
        assert_eq!(order, [1, 2, 0]);
        assert_eq!(w.len(), 0);
    }
}
