//! Mutable optimizer state attached to the memo: per-alternative costs
//! (`PlanCost`), per-group aggregates (`BestCost`), liveness
//! (`SearchSpace` membership under suppression), reference counts (§3.2)
//! and bounds (§3.3).

use reopt_common::Cost;

use crate::memo::AltId;

/// State of one alternative ("AND" node / `PlanCost` tuple).
#[derive(Clone, Copy, Debug)]
pub struct AltState {
    /// `Fn_scancost` / `Fn_nonscancost` output for this root operator.
    pub local: Cost,
    /// `Fn_sum(local, lBest, rBest)` — the `PlanCost` value, current
    /// whether or not the alternative, its group or a child is pruned.
    pub total: Cost,
    /// Present in the live `SearchSpace` / `PlanCost` views. Suppressed
    /// alternatives (live = false) keep maintained costs — they sit in
    /// the aggregate's internal priority queue (§4.1) — but contribute
    /// no reference counts when source suppression is on.
    pub live: bool,
    /// Local cost must be recomputed: a scan-cost change reached this
    /// alternative alone. (A cardinality or selectivity change marks
    /// the whole group seeded instead.)
    pub local_dirty: bool,
}

impl Default for AltState {
    fn default() -> AltState {
        AltState {
            local: Cost::INFINITY,
            total: Cost::INFINITY,
            live: true,
            local_dirty: false,
        }
    }
}

/// State of one group ("OR" node / `BestCost` + `Bound` entries).
#[derive(Clone, Copy, Debug)]
pub struct GroupState {
    /// Member of the live plan table. `false` = tombstoned by reference
    /// counting: the group holds no references to its children, derives
    /// no bounds for them and is counted pruned, but its costs are
    /// retained and kept current ("the aggregate operator preserves all
    /// the computed, even pruned tuples").
    pub live: bool,
    /// Number of live parent alternatives referencing this group (plus
    /// one pin for the root). Only meaningful with source suppression.
    pub refs: u32,
    /// `BestCost`: minimum over the alternatives' retained totals.
    pub best: Cost,
    pub best_alt: Option<AltId>,
    /// `MaxBound` (rule r3): the loosest allowance any live parent plan
    /// grants; `+inf` when unconstrained (the root, or no live parents).
    pub mpb: Cost,
    /// `Bound` (rule r4): `min(best, mpb)` under recursive bounding,
    /// otherwise `best`.
    pub bound: Cost,
}

impl Default for GroupState {
    fn default() -> GroupState {
        GroupState {
            live: true,
            refs: 0,
            best: Cost::INFINITY,
            best_alt: None,
            mpb: Cost::INFINITY,
            bound: Cost::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = AltState::default();
        assert!(a.live && !a.local_dirty);
        assert_eq!(a.total, Cost::INFINITY);
        let g = GroupState::default();
        assert!(g.live);
        assert_eq!(g.bound, Cost::INFINITY);
    }
}
