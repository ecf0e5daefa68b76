//! Hierarchical timer wheel (calendar queue) — the default kernel behind
//! [`EventQueue`](crate::event::EventQueue).
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

use crate::event::Scheduled;
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

pub(crate) struct TimerWheel<E> {
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
    len: usize,
}

impl<E> TimerWheel<E> {
    pub(crate) fn with_capacity(cap: usize) -> Self {
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
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn bucket(at: SimTime) -> u64 {
        at.as_micros() >> BUCKET_SHIFT
    }

    pub(crate) fn insert(&mut self, s: Scheduled<E>) {
        let b = Self::bucket(s.at);
        self.len += 1;
        if b < self.cur {
            // The cursor already passed this bucket (the event lands at or
            // just after `now`): order-insert into the ready spill so time
            // order and FIFO ties survive.
            let key = (s.at, s.seq);
            let pos = self.ready.partition_point(|e| (e.at, e.seq) > key);
            self.ready.insert(pos, s);
        } else if b >> BLOCK_BITS == self.cur >> BLOCK_BITS {
            let slot = (b & SLOT_MASK) as usize;
            self.ring[slot].push(s);
            self.occ[slot >> 6] |= 1 << (slot & 63);
        } else {
            let blk = b >> BLOCK_BITS;
            let ahead = blk - (self.cur >> BLOCK_BITS) - 1;
            if ahead < FAR_SPAN {
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
                v.push(s);
            } else {
                self.sparse
                    .entry(blk)
                    .or_insert_with(|| self.spare.pop().unwrap_or_default())
                    .push(s);
            }
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        loop {
            if let Some(s) = self.ready.pop() {
                self.len -= 1;
                return Some(s);
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Pops the earliest event only if it fires at or before `horizon`.
    pub(crate) fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<Scheduled<E>> {
        loop {
            if let Some(s) = self.ready.last() {
                if s.at > horizon {
                    return None;
                }
                self.len -= 1;
                return self.ready.pop();
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Timestamp of the earliest pending event without disturbing anything.
    pub(crate) fn peek(&self) -> Option<SimTime> {
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

    /// Moves the next non-empty bucket (or far block) toward `ready`.
    /// Precondition: `ready` is empty and `len > 0`.
    fn advance(&mut self) {
        let start = (self.cur & SLOT_MASK) as usize;
        if let Some(slot) = self.next_occupied(start) {
            self.occ[slot >> 6] &= !(1 << (slot & 63));
            // Swap instead of take: the bucket inherits `ready`'s old
            // capacity, so allocations circulate instead of repeating.
            mem::swap(&mut self.ring[slot], &mut self.ready);
            self.ready
                .sort_unstable_by_key(|s| cmp::Reverse((s.at, s.seq)));
            let next = ((self.cur & !SLOT_MASK) | slot as u64) + 1;
            if next & SLOT_MASK == 0 {
                // Crossed into the next block: its far events (if any) are
                // now near-future and must be reachable through the ring.
                self.enter_block(next >> BLOCK_BITS);
            } else {
                self.cur = next;
            }
        } else {
            // Block exhausted with nothing in the ring: jump the cursor to
            // the earliest far block.
            let cur_blk = self.cur >> BLOCK_BITS;
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
            self.enter_block(blk);
        }
    }

    /// Moves the cursor to the start of block `blk` and scatters that
    /// block's far events into the ring. Every block between the cursor's
    /// and `blk` must be empty.
    fn enter_block(&mut self, blk: u64) {
        let ahead = blk - (self.cur >> BLOCK_BITS) - 1;
        self.cur = blk << BLOCK_BITS;
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

    fn event(at: SimTime, seq: u64) -> Scheduled<()> {
        Scheduled { at, seq, ev: () }
    }

    #[test]
    fn a_far_off_event_takes_constant_memory() {
        let mut w = TimerWheel::with_capacity(0);
        // 10^9 s is ~2.4e8 blocks ahead: one sparse entry, no deque slots.
        let far_off = SimTime::from_micros(1_000_000_000 * 1_000_000);
        w.insert(event(far_off, 0));
        assert_eq!(w.far.capacity(), 0);
        assert_eq!(w.sparse.len(), 1);
        // The last block inside the span is indexed; the next one is not.
        let block_us = 1u64 << (BUCKET_SHIFT + BLOCK_BITS);
        let last_indexed = SimTime::from_micros(FAR_SPAN * block_us);
        w.insert(event(last_indexed, 1));
        assert_eq!(w.far.len(), FAR_SPAN as usize);
        w.insert(event(SimTime::from_micros((FAR_SPAN + 1) * block_us), 2));
        assert_eq!((w.far.len(), w.sparse.len()), (FAR_SPAN as usize, 2));
        let order: Vec<u64> = std::iter::from_fn(|| w.pop().map(|s| s.seq)).collect();
        assert_eq!(order, [1, 2, 0]);
        assert_eq!(w.len(), 0);
    }
}
