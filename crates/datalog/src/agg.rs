//! Aggregation state with "next-best" recovery.
//!
//! Paper §4.1: "the aggregate operator preserves all the computed, even
//! pruned PlanCost tuples ..., so it can find the 'next best' value even
//! if the minimum is removed. In our implementation we use a priority
//! queue to store the sorted tuples." [`OrderedMultiset`] is that
//! priority queue: an ordered multiset of values with counted
//! multiplicities (negative counts tolerated, invisible).

use std::collections::BTreeMap;

use crate::value::Val;

/// Which aggregate a `GroupAgg` computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggKind {
    Min,
    Max,
    Sum,
    Count,
}

/// An ordered, counted multiset of values.
#[derive(Clone, Debug, Default)]
pub struct OrderedMultiset {
    values: BTreeMap<Val, i64>,
    /// Σ value·count for Sum, maintained incrementally (Int only).
    sum: i64,
    /// Σ count (visible multiplicity total, may transiently dip below 0).
    total: i64,
}

impl OrderedMultiset {
    pub fn new() -> OrderedMultiset {
        OrderedMultiset::default()
    }

    /// Adds `count` occurrences of `v` (negative = deletions).
    pub fn update(&mut self, v: Val, count: i64) {
        if let Val::Int(i) = v {
            self.sum += i * count;
        }
        self.total += count;
        let entry = self.values.entry(v).or_insert(0);
        *entry += count;
        if *entry == 0 {
            self.values.remove(&v);
        }
    }

    /// Smallest visible value — the current MIN aggregate.
    pub fn min(&self) -> Option<&Val> {
        self.values.iter().find(|(_, &c)| c > 0).map(|(v, _)| v)
    }

    /// Largest visible value — the current MAX aggregate.
    pub fn max(&self) -> Option<&Val> {
        self.values
            .iter()
            .rev()
            .find(|(_, &c)| c > 0)
            .map(|(v, _)| v)
    }

    /// The smallest visible value strictly greater than `v` — the
    /// "second-from-minimum" retrieval of §4.1.
    pub fn next_above(&self, v: &Val) -> Option<&Val> {
        use std::ops::Bound;
        self.values
            .range((Bound::Excluded(*v), Bound::Unbounded))
            .find(|(_, &c)| c > 0)
            .map(|(val, _)| val)
    }

    pub fn count_of(&self, v: &Val) -> i64 {
        self.values.get(v).copied().unwrap_or(0)
    }

    /// Distinct values stored (any count sign). O(1).
    pub fn distinct(&self) -> usize {
        self.values.len()
    }

    /// Total visible multiplicity (COUNT aggregate).
    pub fn total(&self) -> i64 {
        self.total
    }

    /// Integer sum (SUM aggregate).
    pub fn sum(&self) -> i64 {
        self.sum
    }

    pub fn is_visible_empty(&self) -> bool {
        self.min().is_none()
    }

    /// Current aggregate value for `kind`, if defined.
    pub fn aggregate(&self, kind: AggKind) -> Option<Val> {
        match kind {
            AggKind::Min => self.min().cloned(),
            AggKind::Max => self.max().cloned(),
            AggKind::Sum => (self.total > 0).then_some(Val::Int(self.sum)),
            AggKind::Count => (self.total > 0).then_some(Val::Int(self.total)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_with_next_best_recovery() {
        let mut m = OrderedMultiset::new();
        m.update(Val::cost(3.0), 1);
        m.update(Val::cost(1.0), 1);
        m.update(Val::cost(2.0), 1);
        assert_eq!(m.min(), Some(&Val::cost(1.0)));
        // Delete the minimum: the second-from-minimum takes over.
        m.update(Val::cost(1.0), -1);
        assert_eq!(m.min(), Some(&Val::cost(2.0)));
        assert_eq!(m.next_above(&Val::cost(2.0)), Some(&Val::cost(3.0)));
    }

    #[test]
    fn duplicate_multiplicities() {
        let mut m = OrderedMultiset::new();
        m.update(Val::Int(5), 2);
        m.update(Val::Int(5), -1);
        assert_eq!(m.min(), Some(&Val::Int(5)));
        m.update(Val::Int(5), -1);
        assert_eq!(m.min(), None);
    }

    #[test]
    fn negative_counts_are_invisible() {
        let mut m = OrderedMultiset::new();
        m.update(Val::Int(1), -1); // out-of-order deletion
        m.update(Val::Int(2), 1);
        assert_eq!(m.min(), Some(&Val::Int(2)));
        m.update(Val::Int(1), 1); // matching insertion arrives
        assert_eq!(m.min(), Some(&Val::Int(2))); // 1 netted out to zero
    }

    #[test]
    fn sum_and_count() {
        let mut m = OrderedMultiset::new();
        m.update(Val::Int(10), 1);
        m.update(Val::Int(5), 2);
        assert_eq!(m.aggregate(AggKind::Sum), Some(Val::Int(20)));
        assert_eq!(m.aggregate(AggKind::Count), Some(Val::Int(3)));
        m.update(Val::Int(5), -2);
        m.update(Val::Int(10), -1);
        assert_eq!(m.aggregate(AggKind::Sum), None);
        assert_eq!(m.aggregate(AggKind::Count), None);
    }

    #[test]
    fn max_mirrors_min() {
        let mut m = OrderedMultiset::new();
        for v in [4, 9, 7] {
            m.update(Val::Int(v), 1);
        }
        assert_eq!(m.max(), Some(&Val::Int(9)));
        m.update(Val::Int(9), -1);
        assert_eq!(m.max(), Some(&Val::Int(7)));
    }
}
