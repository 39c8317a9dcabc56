//! Materialized relation state: multisets with (possibly transiently
//! negative) counts, and key-indexed variants for joins.
//!
//! Paper §4: "for stateful operators, we maintain for each encountered
//! tuple value a (possibly temporarily negative) count ... A tuple only
//! affects the output of a stateful operator if its count is positive."

use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

use reopt_common::FxHashMap;

use crate::delta::Delta;
use crate::value::Tuple;

/// A counted multiset of tuples. Visible (positive-count) and
/// negative-count entry totals are maintained incrementally, so
/// [`Multiset::len`], [`Multiset::is_empty`] and
/// [`Multiset::has_negative_counts`] are O(1).
#[derive(Clone, Debug, Default)]
pub struct Multiset {
    counts: FxHashMap<Tuple, i64>,
    /// Entries with count > 0.
    visible: usize,
    /// Entries with count < 0 (out-of-order deletions in flight).
    negative: usize,
}

/// How applying a delta changed a tuple's *visibility* (positivity of its
/// count) — the unit of downstream propagation for set-semantics
/// operators such as `Distinct`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Visibility {
    /// Count went from ≤ 0 to > 0.
    Appeared,
    /// Count went from > 0 to ≤ 0.
    Disappeared,
    /// No change in positivity.
    Unchanged,
}

impl Multiset {
    pub fn new() -> Multiset {
        Multiset::default()
    }

    /// Applies a delta, returning the visibility transition.
    pub fn apply(&mut self, delta: &Delta) -> Visibility {
        if delta.count == 0 {
            return Visibility::Unchanged;
        }
        let entry = self.counts.entry(delta.tuple.clone()).or_default();
        let before = *entry;
        *entry += delta.count;
        let after = *entry;
        if after == 0 {
            self.counts.remove(&delta.tuple);
        }
        if (before > 0) != (after > 0) {
            if after > 0 {
                self.visible += 1;
            } else {
                self.visible -= 1;
            }
        }
        if (before < 0) != (after < 0) {
            if after < 0 {
                self.negative += 1;
            } else {
                self.negative -= 1;
            }
        }
        match (before > 0, after > 0) {
            (false, true) => Visibility::Appeared,
            (true, false) => Visibility::Disappeared,
            _ => Visibility::Unchanged,
        }
    }

    pub fn count(&self, tuple: &Tuple) -> i64 {
        self.counts.get(tuple).copied().unwrap_or(0)
    }

    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.count(tuple) > 0
    }

    /// Iterates tuples with positive counts.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.counts.iter().filter(|(_, &c)| c > 0).map(|(t, &c)| (t, c))
    }

    /// Number of distinct visible tuples. O(1).
    pub fn len(&self) -> usize {
        self.visible
    }

    pub fn is_empty(&self) -> bool {
        self.visible == 0
    }

    /// True if any count is negative (an out-of-order deletion is in
    /// flight; fixpoints must end with none). O(1).
    pub fn has_negative_counts(&self) -> bool {
        self.negative > 0
    }

    /// Visible tuples, sorted (deterministic test output).
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().map(|(t, _)| t.clone()).collect();
        v.sort();
        v
    }
}

/// Buckets up to this many entries are scanned linearly on update;
/// larger ones maintain a tuple→position index.
const LINEAR_BUCKET_MAX: usize = 8;

/// One key's entries. Both layouts keep the tuples in a flat vector so
/// probes — the join's inner loop — iterate densely; they differ only
/// in how updates locate an entry.
#[derive(Clone, Debug)]
enum Bucket {
    /// Few entries: linear scan.
    Small(Vec<(Tuple, i64)>),
    /// Many entries (e.g. a transitive-closure node with many
    /// ancestors): positions held in a side index, `swap_remove` keeps
    /// it consistent.
    Large {
        entries: Vec<(Tuple, i64)>,
        index: FxHashMap<Tuple, u32>,
    },
}

impl Bucket {
    #[inline]
    fn entries(&self) -> &[(Tuple, i64)] {
        match self {
            Bucket::Small(v) => v,
            Bucket::Large { entries, .. } => entries,
        }
    }

    /// Applies one delta, maintaining the index's `total`; true if the
    /// bucket is left empty.
    fn apply(&mut self, delta: &Delta, total: &mut usize) -> bool {
        match self {
            Bucket::Small(v) => match v.iter().position(|(t, _)| *t == delta.tuple) {
                Some(i) => {
                    v[i].1 += delta.count;
                    if v[i].1 == 0 {
                        v.swap_remove(i);
                        *total -= 1;
                        return v.is_empty();
                    }
                }
                None => {
                    v.push((delta.tuple.clone(), delta.count));
                    *total += 1;
                    if v.len() > LINEAR_BUCKET_MAX {
                        let entries = std::mem::take(v);
                        let index = entries
                            .iter()
                            .enumerate()
                            .map(|(i, (t, _))| (t.clone(), i as u32))
                            .collect();
                        *self = Bucket::Large { entries, index };
                    }
                }
            },
            Bucket::Large { entries, index } => match index.get(&delta.tuple) {
                Some(&i) => {
                    let i = i as usize;
                    entries[i].1 += delta.count;
                    if entries[i].1 == 0 {
                        index.remove(&delta.tuple);
                        entries.swap_remove(i);
                        if i < entries.len() {
                            // The moved entry's position changed.
                            *index
                                .get_mut(&entries[i].0)
                                .expect("indexed entry present") = i as u32;
                        }
                        *total -= 1;
                        return entries.is_empty();
                    }
                }
                None => {
                    index.insert(delta.tuple.clone(), entries.len() as u32);
                    entries.push((delta.tuple.clone(), delta.count));
                    *total += 1;
                }
            },
        }
        false
    }
}

/// A multiset indexed by a key projection — join-side state.
///
/// The index is keyed by the *hash of the key columns*, computed
/// directly from each tuple ([`Tuple::hash_cols`]) — no key tuple is
/// ever materialized. Hash buckets store full tuples in flat vectors
/// (`Bucket`): probes iterate densely, updates scan linearly while
/// the bucket is small and through a position index once it grows.
/// Probes re-check key-column equality, so colliding keys sharing a
/// bucket stay correct.
#[derive(Clone, Debug, Default)]
pub struct IndexedMultiset {
    key_cols: Vec<usize>,
    by_key: FxHashMap<u64, Bucket>,
    total: usize,
}

impl IndexedMultiset {
    pub fn new(key_cols: Vec<usize>) -> IndexedMultiset {
        IndexedMultiset {
            key_cols,
            by_key: FxHashMap::default(),
            total: 0,
        }
    }

    /// The columns this side is keyed on.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Applies a delta to the indexed state.
    pub fn apply(&mut self, delta: &Delta) {
        self.apply_hashed(delta, delta.tuple.hash_cols(&self.key_cols));
    }

    /// [`IndexedMultiset::apply`] with the key hash already computed
    /// (must equal `delta.tuple.hash_cols(self.key_cols())`) — the join
    /// hashes each delta once for the update and the probe.
    pub fn apply_hashed(&mut self, delta: &Delta, h: u64) {
        if delta.count == 0 {
            return;
        }
        debug_assert_eq!(h, delta.tuple.hash_cols(&self.key_cols));
        let bucket = self
            .by_key
            .entry(h)
            .or_insert_with(|| Bucket::Small(Vec::new()));
        if bucket.apply(delta, &mut self.total) {
            self.by_key.remove(&h);
        }
    }

    /// Tuples whose key columns equal `probe[probe_cols]` (with counts,
    /// including transiently negative ones — the bilinear join form
    /// needs raw counts). The probe is a tuple from the *other* side
    /// together with that side's key columns; no key tuple is built.
    /// `h` is the probe's key hash, computed once by the caller (must
    /// equal `probe.hash_cols(probe_cols)`).
    pub fn matches_hashed<'a>(
        &'a self,
        h: u64,
        probe: &'a Tuple,
        probe_cols: &'a [usize],
    ) -> impl Iterator<Item = (&'a Tuple, i64)> + 'a {
        debug_assert_eq!(h, probe.hash_cols(probe_cols));
        self.by_key
            .get(&h)
            .map_or(&[][..], Bucket::entries)
            .iter()
            .filter(move |(t, _)| t.cols_eq(&self.key_cols, probe, probe_cols))
            .map(|(t, c)| (t, *c))
    }

    /// Distinct tuples currently stored (any count sign). O(1).
    pub fn total_tuples(&self) -> usize {
        self.total
    }
}

/// A shared, keyed index over one relation — differential dataflow's
/// *arrangement*. The index is maintained exactly once per epoch by a
/// single [`crate::ops::Arrange`] operator (the sole writer) and probed
/// read-only by every [`crate::ops::HashJoin`] attached to it via
/// `share_left`/`share_right`, replacing the per-join [`IndexedMultiset`]
/// copies that would otherwise each re-apply the same deltas. Attached
/// joins treat the handle as immutable state and never open a mutable
/// borrow.
#[derive(Clone, Debug)]
pub struct ArrangementHandle {
    inner: Rc<RefCell<IndexedMultiset>>,
}

impl ArrangementHandle {
    pub fn new(key_cols: Vec<usize>) -> ArrangementHandle {
        ArrangementHandle {
            inner: Rc::new(RefCell::new(IndexedMultiset::new(key_cols))),
        }
    }

    /// Read-only access for probing. Panics if the owning `Arrange` is
    /// mid-mutation — impossible under the scheduler's dispatch
    /// discipline (the writer's borrow ends before its output fans
    /// out).
    pub fn read(&self) -> Ref<'_, IndexedMultiset> {
        self.inner.borrow()
    }

    /// Mutable access for the owning [`crate::ops::Arrange`] only.
    pub fn write(&self) -> RefMut<'_, IndexedMultiset> {
        self.inner.borrow_mut()
    }

    /// The key columns the arrangement is indexed on.
    pub fn key_cols(&self) -> Vec<usize> {
        self.read().key_cols().to_vec()
    }

    /// True if both handles alias the *same* index. A join must never
    /// attach one arrangement to both of its ports (the bilinear form
    /// would double-count Δ²); builders use this to detect that.
    pub fn same_index(&self, other: &ArrangementHandle) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ints;

    impl IndexedMultiset {
        /// `matches_hashed`, hashing the probe here.
        fn matches<'a>(
            &'a self,
            probe: &'a Tuple,
            probe_cols: &'a [usize],
        ) -> impl Iterator<Item = (&'a Tuple, i64)> + 'a {
            self.matches_hashed(probe.hash_cols(probe_cols), probe, probe_cols)
        }
    }

    #[test]
    fn visibility_transitions() {
        let mut m = Multiset::new();
        let t = ints(&[1]);
        assert_eq!(m.apply(&Delta::insert(t.clone())), Visibility::Appeared);
        assert_eq!(m.apply(&Delta::insert(t.clone())), Visibility::Unchanged);
        assert_eq!(m.apply(&Delta::delete(t.clone())), Visibility::Unchanged);
        assert_eq!(m.apply(&Delta::delete(t.clone())), Visibility::Disappeared);
        assert_eq!(m.count(&t), 0);
    }

    #[test]
    fn out_of_order_deletion_goes_negative_then_converges() {
        let mut m = Multiset::new();
        let t = ints(&[5]);
        assert_eq!(m.apply(&Delta::delete(t.clone())), Visibility::Unchanged);
        assert!(m.has_negative_counts());
        assert!(!m.contains(&t));
        assert_eq!(m.apply(&Delta::insert(t.clone())), Visibility::Unchanged);
        assert!(!m.has_negative_counts());
        assert_eq!(m.count(&t), 0);
    }

    #[test]
    fn iter_skips_invisible() {
        let mut m = Multiset::new();
        m.apply(&Delta::insert(ints(&[1])));
        m.apply(&Delta::delete(ints(&[2]))); // negative count
        assert_eq!(m.len(), 1);
        assert_eq!(m.sorted(), vec![ints(&[1])]);
    }

    #[test]
    fn running_len_tracks_multi_count_transitions() {
        let mut m = Multiset::new();
        let t = ints(&[9]);
        m.apply(&Delta::with_count(t.clone(), 3));
        assert_eq!(m.len(), 1);
        m.apply(&Delta::with_count(t.clone(), -5)); // 3 -> -2: visible and negative
        assert_eq!(m.len(), 0);
        assert!(m.has_negative_counts());
        m.apply(&Delta::with_count(t.clone(), 2)); // -2 -> 0: entry gone
        assert_eq!(m.len(), 0);
        assert!(!m.has_negative_counts());
        assert_eq!(m.count(&t), 0);
    }

    #[test]
    fn zero_count_delta_is_a_no_op() {
        let mut m = Multiset::new();
        assert_eq!(
            m.apply(&Delta::with_count(ints(&[1]), 0)),
            Visibility::Unchanged
        );
        assert_eq!(m.len(), 0);
        assert_eq!(m.count(&ints(&[1])), 0);
    }

    #[test]
    fn indexed_multiset_matches_by_key() {
        let mut m = IndexedMultiset::new(vec![0]);
        m.apply(&Delta::insert(ints(&[1, 10])));
        m.apply(&Delta::insert(ints(&[1, 11])));
        m.apply(&Delta::insert(ints(&[2, 20])));
        // Probe as the "other side" would: key in column 0 of the probe.
        let matches: Vec<i64> = m
            .matches(&ints(&[1, 99]), &[0])
            .map(|(t, _)| t.get(1).as_int())
            .collect();
        assert_eq!(matches.len(), 2);
        assert!(matches.contains(&10) && matches.contains(&11));
        assert_eq!(m.matches(&ints(&[3, 0]), &[0]).count(), 0);
    }

    #[test]
    fn indexed_multiset_probes_with_differing_columns() {
        // Left keyed on col 1; probe tuples carry the key in col 0.
        let mut m = IndexedMultiset::new(vec![1]);
        m.apply(&Delta::insert(ints(&[10, 7])));
        m.apply(&Delta::insert(ints(&[11, 7])));
        let hits: Vec<i64> = m
            .matches(&ints(&[7, 0]), &[0])
            .map(|(t, _)| t.get(0).as_int())
            .collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&10) && hits.contains(&11));
    }

    #[test]
    fn indexed_multiset_cleans_up_empty_groups() {
        let mut m = IndexedMultiset::new(vec![0]);
        m.apply(&Delta::insert(ints(&[1, 10])));
        m.apply(&Delta::delete(ints(&[1, 10])));
        assert_eq!(m.total_tuples(), 0);
    }

    #[test]
    fn buckets_promote_to_indexed_layout_and_stay_consistent() {
        // Push one key well past LINEAR_BUCKET_MAX, then delete through
        // the promoted layout: totals, matches and cleanup must agree
        // with the linear regime.
        let mut m = IndexedMultiset::new(vec![0]);
        let n = (LINEAR_BUCKET_MAX * 3) as i64;
        for v in 0..n {
            m.apply(&Delta::insert(ints(&[7, v])));
        }
        assert_eq!(m.total_tuples(), n as usize);
        assert_eq!(m.matches(&ints(&[7, 0]), &[0]).count(), n as usize);
        // Delete from the middle (exercises swap_remove + index fixup).
        for v in (0..n).step_by(2) {
            m.apply(&Delta::delete(ints(&[7, v])));
        }
        assert_eq!(m.total_tuples(), (n / 2) as usize);
        let mut hits: Vec<i64> = m
            .matches(&ints(&[7, 0]), &[0])
            .map(|(t, _)| t.get(1).as_int())
            .collect();
        hits.sort();
        assert_eq!(hits, (0..n).filter(|v| v % 2 == 1).collect::<Vec<_>>());
        for v in (0..n).filter(|v| v % 2 == 1) {
            m.apply(&Delta::delete(ints(&[7, v])));
        }
        assert_eq!(m.total_tuples(), 0);
        assert_eq!(m.matches(&ints(&[7, 0]), &[0]).count(), 0);
    }

    #[test]
    fn apply_run_shares_one_bucket_lookup() {
        // An update pair (−old, +new on one key) run through
        // `apply_hashed` with one shared key hash lands in one bucket and
        // leaves exactly the new tuple.
        let mut m = IndexedMultiset::new(vec![0]);
        m.apply(&Delta::insert(ints(&[5, 1])));
        let h = ints(&[5, 2]).hash_cols(&[0]);
        m.apply_hashed(&Delta::delete(ints(&[5, 1])), h);
        m.apply_hashed(&Delta::insert(ints(&[5, 2])), h);
        assert_eq!(m.total_tuples(), 1);
        let hits: Vec<i64> = m
            .matches_hashed(h, &ints(&[5, 0]), &[0])
            .map(|(t, _)| t.get(1).as_int())
            .collect();
        assert_eq!(hits, vec![2]);
        // Emptying the key removes its bucket entirely.
        m.apply_hashed(&Delta::delete(ints(&[5, 2])), h);
        assert_eq!(m.total_tuples(), 0);
        assert!(m.by_key.is_empty());
    }
}
