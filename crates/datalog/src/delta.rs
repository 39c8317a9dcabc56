//! Delta tuples: changes flowing between operators.
//!
//! Following §4 of the paper, "a delta tuple of a relation R may be an
//! insertion (R[+x]), deletion (R[-x]), or update (R[x→x'])". We encode
//! insertion/deletion as signed multiplicities (an update is a deletion
//! plus an insertion, which is how the engine's stateful operators emit
//! it) — the standard counting encoding of Gupta–Mumick–Subrahmanian.

use crate::value::Tuple;

/// A signed change to a relation's multiset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delta {
    pub tuple: Tuple,
    /// Positive = insertions, negative = deletions. Usually ±1, but
    /// bilinear operators (joins) multiply multiplicities.
    pub count: i64,
}

impl Delta {
    pub fn insert(tuple: Tuple) -> Delta {
        Delta { tuple, count: 1 }
    }

    pub fn delete(tuple: Tuple) -> Delta {
        Delta { tuple, count: -1 }
    }

    pub fn with_count(tuple: Tuple, count: i64) -> Delta {
        Delta { tuple, count }
    }

    pub fn is_insert(&self) -> bool {
        self.count > 0
    }

    /// The same change with multiplicity scaled (bilinear operators).
    pub fn scaled(&self, by: i64) -> Delta {
        Delta {
            tuple: self.tuple.clone(),
            count: self.count * by,
        }
    }
}

/// Reusable state for [`coalesce`]: an open-addressed hash index of the
/// batch being coalesced. Each call clears and uses only the slots its
/// own batch needs (twice the batch length, rounded up to a power of
/// two), so a call costs O(batch) whatever the table has seen before,
/// and [`CoalesceScratch::trim`] gives memory a one-off huge batch
/// inflated back.
#[derive(Debug, Default)]
pub struct CoalesceScratch {
    /// `hash & TAG | (kept position + 1)`; 0 marks an empty slot.
    slots: Vec<u64>,
    /// Slots the largest call since the last [`CoalesceScratch::trim`]
    /// used.
    peak: usize,
    /// Distinct tuples the last call indexed.
    entries: usize,
}

/// What the consolidator holds right now (see
/// [`CoalesceScratch::footprint`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConsolidatorFootprint {
    /// Distinct tuples the last coalesced batch indexed.
    pub entries: usize,
    /// Table slots allocated (8 bytes each).
    pub capacity: usize,
}

/// The slot bits holding a tuple's hash; the rest hold its position.
const TAG: u64 = !(u32::MAX as u64);

/// The table is never trimmed below this many slots, so runs of tiny
/// batches do not allocate and free it over and over.
const MIN_SLOTS: usize = 64;

impl CoalesceScratch {
    /// Entries and allocated slots — a diagnostic: both are bounded by
    /// the batches of the current epoch, not by history.
    pub fn footprint(&self) -> ConsolidatorFootprint {
        ConsolidatorFootprint {
            entries: self.entries,
            capacity: self.slots.capacity(),
        }
    }

    /// Shrinks the table to what the largest batch since the previous
    /// trim needed, if it holds more than four times that. The
    /// scheduler calls this once per epoch.
    pub fn trim(&mut self) {
        let keep = self.peak.max(MIN_SLOTS);
        if self.slots.capacity() > 4 * keep {
            self.slots.clear();
            self.slots.shrink_to(keep);
        }
        self.peak = 0;
    }
}

/// Coalesces a batch in place: deltas on the same tuple are merged into
/// the first occurrence (summing signed counts), and tuples whose counts
/// cancel to zero are dropped entirely. First-occurrence order is
/// preserved, so coalescing is deterministic.
///
/// All operators are linear or bilinear in their input deltas (and the
/// stateful ones converge to the same fixpoint either way), so merging
/// `+t`/`-t` pairs before they fan out through a join shrinks cascades
/// without changing observable results.
///
/// The scratch index keys on tuple *hashes*, never cloning a tuple: a
/// slot whose hash bits match is confirmed by comparing the tuples, and
/// a mismatch (two distinct tuples colliding) just probes on, so
/// distinct tuples are never merged.
pub fn coalesce(batch: &mut Vec<Delta>, scratch: &mut CoalesceScratch) {
    if batch.len() <= 1 {
        batch.retain(|d| d.count != 0);
        return;
    }
    let slots_needed = (2 * batch.len()).next_power_of_two();
    scratch.peak = scratch.peak.max(slots_needed);
    scratch.slots.clear();
    scratch.slots.resize(slots_needed, 0);
    let slots = &mut scratch.slots[..];
    // FxHash mixes upwards: the top bits choose the slot.
    let shift = 64 - slots_needed.trailing_zeros();
    let mask = slots_needed - 1;
    let mut keep = 0usize;
    for i in 0..batch.len() {
        let h = batch[i].tuple.fx_hash();
        let mut s = (h >> shift) as usize;
        let merged = loop {
            let slot = slots[s];
            if slot == 0 {
                let at = u32::try_from(keep + 1).expect("a batch holds fewer than 2^32 deltas");
                slots[s] = (h & TAG) | u64::from(at);
                break false;
            }
            let at = (slot & !TAG) as usize - 1;
            if (slot ^ h) & TAG == 0 && batch[at].tuple == batch[i].tuple {
                let c = batch[i].count;
                batch[at].count += c;
                break true;
            }
            s = (s + 1) & mask;
        };
        if !merged {
            batch.swap(keep, i);
            keep += 1;
        }
    }
    scratch.entries = keep;
    batch.truncate(keep);
    batch.retain(|d| d.count != 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ints;

    #[test]
    fn constructors() {
        assert_eq!(Delta::insert(ints(&[1])).count, 1);
        assert_eq!(Delta::delete(ints(&[1])).count, -1);
        assert!(Delta::insert(ints(&[1])).is_insert());
        assert!(!Delta::delete(ints(&[1])).is_insert());
    }

    #[test]
    fn scaling_multiplies_counts() {
        let d = Delta::with_count(ints(&[7]), -2);
        assert_eq!(d.scaled(3).count, -6);
        assert_eq!(d.scaled(3).tuple, ints(&[7]));
    }

    #[test]
    fn coalesce_merges_and_cancels() {
        let mut batch = vec![
            Delta::insert(ints(&[1])),
            Delta::insert(ints(&[2])),
            Delta::delete(ints(&[1])),
            Delta::with_count(ints(&[2]), 2),
            Delta::with_count(ints(&[3]), 0),
        ];
        let mut scratch = CoalesceScratch::default();
        coalesce(&mut batch, &mut scratch);
        // (1): +1-1 cancels; (2): 1+2 merges; (3): zero dropped.
        assert_eq!(batch, vec![Delta::with_count(ints(&[2]), 3)]);
    }

    #[test]
    fn coalesce_preserves_first_occurrence_order() {
        let mut batch = vec![
            Delta::insert(ints(&[3])),
            Delta::insert(ints(&[1])),
            Delta::insert(ints(&[3])),
            Delta::insert(ints(&[2])),
        ];
        let mut scratch = CoalesceScratch::default();
        coalesce(&mut batch, &mut scratch);
        assert_eq!(
            batch,
            vec![
                Delta::with_count(ints(&[3]), 2),
                Delta::insert(ints(&[1])),
                Delta::insert(ints(&[2])),
            ]
        );
    }

    #[test]
    fn coalesce_singleton_drops_only_zeros() {
        let mut scratch = CoalesceScratch::default();
        let mut one = vec![Delta::insert(ints(&[1]))];
        coalesce(&mut one, &mut scratch);
        assert_eq!(one.len(), 1);
        let mut zero = vec![Delta::with_count(ints(&[1]), 0)];
        coalesce(&mut zero, &mut scratch);
        assert!(zero.is_empty());
    }

    /// The merge-by-map definition of coalescing, in first-occurrence
    /// order.
    fn reference(batch: &[Delta]) -> Vec<Delta> {
        let mut out: Vec<Delta> = Vec::new();
        for d in batch {
            match out.iter_mut().find(|o| o.tuple == d.tuple) {
                Some(o) => o.count += d.count,
                None => out.push(d.clone()),
            }
        }
        out.retain(|d| d.count != 0);
        out
    }

    #[test]
    fn coalesce_matches_the_reference_at_every_table_size() {
        // One scratch across growing and shrinking batches: stale slots
        // of an earlier, larger batch must never be seen.
        let mut scratch = CoalesceScratch::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in [2usize, 3, 700, 5, 64, 65, 1, 1500, 4] {
            let mut batch: Vec<Delta> = (0..len)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // Few distinct tuples: plenty of merges and cancellations.
                    let t = ints(&[((x >> 33) % (len as u64 / 2 + 1)) as i64, 7]);
                    Delta::with_count(t, ((x >> 20) % 5) as i64 - 2)
                })
                .collect();
            let want = reference(&batch);
            coalesce(&mut batch, &mut scratch);
            assert_eq!(batch, want, "batch of {len}");
        }
    }

    #[test]
    fn trim_returns_what_a_one_off_huge_batch_inflated() {
        let mut scratch = CoalesceScratch::default();
        let mut huge: Vec<Delta> = (0..10_000).map(|i| Delta::insert(ints(&[i]))).collect();
        coalesce(&mut huge, &mut scratch);
        scratch.trim();
        // The epoch that needed the table keeps it.
        assert_eq!(scratch.footprint().entries, 10_000);
        assert!(scratch.footprint().capacity >= 20_000);
        let mut small: Vec<Delta> = (0..10).map(|i| Delta::insert(ints(&[i]))).collect();
        coalesce(&mut small, &mut scratch);
        scratch.trim();
        let after = scratch.footprint();
        assert_eq!(after.entries, 10);
        assert!(after.capacity <= MIN_SLOTS, "{after:?}");
    }
}
