//! The optimizer's work queues: sets of group ids drained in id order.
//!
//! Group ids are bottom-up ([`crate::Memo::build`] numbers groups in
//! topological order: every child has a smaller id than its parent), so
//! draining the lowest id first visits children before parents, and
//! draining the highest first visits parents before children — the two
//! orders the cost and bound queues need. A set holds each id once
//! (queuing a queued group is a no-op), and an id below the last one
//! popped may be inserted while the set drains: it comes out next, as
//! it would from a binary heap.

/// A set of ids below a fixed capacity, one bit each.
pub(crate) struct IdSet {
    words: Vec<u64>,
    /// Every set bit lies in `words[lo..hi]`; the set is empty when
    /// `lo >= hi`.
    lo: usize,
    hi: usize,
}

impl IdSet {
    /// An empty set for the ids `0..n`.
    pub(crate) fn new(n: usize) -> IdSet {
        IdSet {
            words: vec![0; n.div_ceil(64)],
            lo: 0,
            hi: 0,
        }
    }

    /// Adds `id`; a no-op when it is present.
    pub(crate) fn insert(&mut self, id: u32) {
        let w = (id / 64) as usize;
        self.words[w] |= 1u64 << (id % 64);
        if self.lo >= self.hi {
            (self.lo, self.hi) = (w, w + 1);
        } else {
            self.lo = self.lo.min(w);
            self.hi = self.hi.max(w + 1);
        }
    }

    /// Removes and returns the lowest id.
    pub(crate) fn pop_min(&mut self) -> Option<u32> {
        while self.lo < self.hi {
            let word = &mut self.words[self.lo];
            if *word != 0 {
                let bit = word.trailing_zeros();
                *word &= *word - 1;
                return Some(self.lo as u32 * 64 + bit);
            }
            self.lo += 1;
        }
        None
    }

    /// Removes and returns the highest id.
    pub(crate) fn pop_max(&mut self) -> Option<u32> {
        while self.lo < self.hi {
            let word = &mut self.words[self.hi - 1];
            if *word != 0 {
                let bit = 63 - word.leading_zeros();
                *word &= !(1u64 << bit);
                return Some((self.hi - 1) as u32 * 64 + bit);
            }
            self.hi -= 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::IdSet;

    /// What the two sets replaced: a heap plus an in-queue flag per id.
    struct FlaggedHeap<T: Ord> {
        heap: BinaryHeap<T>,
        queued: Vec<bool>,
    }

    impl<T: Ord> FlaggedHeap<T> {
        fn new(n: usize) -> Self {
            FlaggedHeap {
                heap: BinaryHeap::new(),
                queued: vec![false; n],
            }
        }

        fn push(&mut self, id: u32, key: T) {
            if !self.queued[id as usize] {
                self.queued[id as usize] = true;
                self.heap.push(key);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Interleaved inserts and pops — fresh ids, duplicates of the
        /// last insert, ids below the last pop — come out of the set in
        /// the order the min-heap (cost queue) and the max-heap (bound
        /// queue) popped them.
        #[test]
        fn the_id_set_pops_as_the_flagged_heaps_did(
            n in 1usize..=200,
            ops in proptest::collection::vec((0u8..4, any::<u16>()), 0..400),
        ) {
            let mut min_set = IdSet::new(n);
            let mut max_set = IdSet::new(n);
            let mut min_heap = FlaggedHeap::new(n);
            let mut max_heap = FlaggedHeap::new(n);
            let (mut last_insert, mut last_pop) = (0u32, 0u32);
            for (kind, raw) in ops {
                let id = match kind {
                    // A pop from both pairs.
                    0 => {
                        let want = min_heap.heap.pop().map(|Reverse(g)| g);
                        if let Some(g) = want {
                            min_heap.queued[g as usize] = false;
                            last_pop = g;
                        }
                        prop_assert_eq!(min_set.pop_min(), want);
                        let want = max_heap.heap.pop();
                        if let Some(g) = want {
                            max_heap.queued[g as usize] = false;
                        }
                        prop_assert_eq!(max_set.pop_max(), want);
                        continue;
                    }
                    1 => raw as u32 % n as u32,
                    2 => last_insert,
                    _ => last_pop.saturating_sub(raw as u32 % 8),
                };
                last_insert = id;
                min_set.insert(id);
                min_heap.push(id, Reverse(id));
                max_set.insert(id);
                max_heap.push(id, id);
            }
            // Drained, the sets hold what the heaps held, in their order.
            loop {
                let want = min_heap.heap.pop().map(|Reverse(g)| g);
                prop_assert_eq!(min_set.pop_min(), want);
                let also = max_heap.heap.pop();
                prop_assert_eq!(max_set.pop_max(), also);
                if want.is_none() && also.is_none() {
                    break;
                }
            }
        }
    }
}
