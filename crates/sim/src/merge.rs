//! K-way merge of sorted sources: the one merge primitive behind the fleet
//! arrival stream and summed gauges.
//!
//! The frontier is a binary min-heap holding each live source's next key.
//! Taking an element replaces the heap's top in place with the same
//! source's next key and sifts once; a pop followed by a push would sift
//! twice. The top is removed only when its source runs dry.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// A merge frontier over sources numbered `0..k`, each yielding
/// nondecreasing keys.
///
/// Elements come out in strict `(key, source)` order: among equal keys the
/// lower source index goes first. Entries are unique (one per live
/// source), so that order depends only on the sources' keys, never on the
/// heap's layout.
#[derive(Debug, Clone)]
pub struct KWayMerge<K> {
    heap: BinaryHeap<Reverse<(K, u32)>>,
}

impl<K: Ord + Copy> KWayMerge<K> {
    /// Builds the frontier from each source's first key, in source order
    /// (`None` for a source that is empty from the start). O(k).
    ///
    /// # Panics
    /// Panics if there are more than `u32::MAX` sources.
    pub fn new(firsts: impl IntoIterator<Item = Option<K>>) -> Self {
        let entries: Vec<Reverse<(K, u32)>> = firsts
            .into_iter()
            .enumerate()
            .filter_map(|(source, key)| {
                let source = u32::try_from(source).expect("more than u32::MAX merge sources");
                key.map(|key| Reverse((key, source)))
            })
            .collect();
        KWayMerge {
            heap: BinaryHeap::from(entries),
        }
    }

    /// Takes the smallest `(key, source)` pair and refills its place with
    /// `advance(source)`, that source's next key; the source leaves the
    /// merge when `advance` returns `None`. One sift either way. `None`
    /// once every source has run dry.
    #[inline]
    pub fn next_with(&mut self, advance: impl FnOnce(u32) -> Option<K>) -> Option<(K, u32)> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((key, source)) = *top;
        match advance(source) {
            Some(next) => {
                debug_assert!(next >= key, "merge source {source} went backwards");
                *top = Reverse((next, source));
            }
            None => {
                PeekMut::pop(top);
            }
        }
        Some((key, source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merges `sources` and returns the `(key, source)` sequence.
    fn merged(sources: &[Vec<u64>]) -> Vec<(u64, u32)> {
        let mut cursors = vec![1usize; sources.len()];
        let mut merge = KWayMerge::new(sources.iter().map(|s| s.first().copied()));
        let mut out = Vec::new();
        while let Some(pair) = merge.next_with(|src| {
            let s = src as usize;
            let next = sources[s].get(cursors[s]).copied();
            cursors[s] += 1;
            next
        }) {
            out.push(pair);
        }
        out
    }

    /// The reference: every element tagged with its source, sorted.
    fn sorted(sources: &[Vec<u64>]) -> Vec<(u64, u32)> {
        let mut all: Vec<(u64, u32)> = sources
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |&k| (k, i as u32)))
            .collect();
        all.sort();
        all
    }

    #[test]
    fn pops_in_key_then_source_order() {
        let sources = vec![
            vec![3, 3, 9],
            vec![],
            vec![1, 3, 3, 12],
            vec![3],
            vec![0, 0, 0],
        ];
        assert_eq!(merged(&sources), sorted(&sources));
    }

    #[test]
    fn matches_a_sort_for_many_sources_with_ties() {
        for k in [1usize, 2, 7, 64, 65, 300] {
            let sources: Vec<Vec<u64>> = (0..k)
                .map(|i| {
                    // Coarse keys force ties across sources; some sources
                    // run dry early, some are empty.
                    let len = (i * 7) % 11;
                    let mut acc = (i % 3) as u64;
                    (0..len)
                        .map(|j| {
                            acc += ((i + j) % 4) as u64;
                            acc
                        })
                        .collect()
                })
                .collect();
            assert_eq!(merged(&sources), sorted(&sources), "k = {k}");
        }
    }

    #[test]
    fn sources_leave_when_they_run_dry() {
        let mut merge = KWayMerge::new([Some(1u64), None, Some(2)]);
        assert_eq!(merge.next_with(|_| None), Some((1, 0)));
        assert_eq!(merge.next_with(|_| Some(5)), Some((2, 2)));
        assert_eq!(merge.next_with(|_| None), Some((5, 2)));
        assert_eq!(merge.next_with(|_| unreachable!()), None);
        assert!(KWayMerge::<u64>::new([]).next_with(|_| None).is_none());
    }
}
