//! Optimizer metrics: the quantities the paper's figures report.

/// Snapshot of optimizer *state* after a fixpoint: live vs pruned
/// entries. Pruning ratios (Figs 4b/4c, 7b/7c) are derived from these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateMetrics {
    /// Total "OR" nodes (plan-table entries) in the full space.
    pub total_groups: u64,
    /// Total "AND" nodes (plan alternatives) in the full space.
    pub total_alts: u64,
    /// Groups whose state was reclaimed (reference count zero).
    pub pruned_groups: u64,
    /// Alternatives suppressed by aggregate selection / bounding.
    pub pruned_alts: u64,
}

impl StateMetrics {
    /// Fig 4(b) / 7(b): fraction of plan-table entries pruned.
    pub fn group_pruning_ratio(&self) -> f64 {
        if self.total_groups == 0 {
            0.0
        } else {
            self.pruned_groups as f64 / self.total_groups as f64
        }
    }

    /// Fig 4(c) / 7(c): fraction of plan alternatives pruned.
    pub fn alt_pruning_ratio(&self) -> f64 {
        if self.total_alts == 0 {
            0.0
        } else {
            self.pruned_alts as f64 / self.total_alts as f64
        }
    }
}

/// Work performed by one (re)optimization run: the "update ratio"
/// numerators of Figs 5(b,c)/6(b,c) and the effort proxy behind the
/// running-time plots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Groups whose state (best cost, bound, liveness) was recomputed.
    pub touched_groups: u64,
    /// Alternatives whose cost was recomputed.
    pub touched_alts: u64,
    /// Groups revived from tombstoned state (§4.2 count 0→1).
    pub revived_groups: u64,
    /// Groups newly tombstoned (§4.2 count 1→0).
    pub tombstoned_groups: u64,
    /// Work-queue pops (total propagation effort).
    pub queue_pops: u64,
    /// Alternatives seeding the epoch from the parameter index marked
    /// for re-costing (every one of a seeded group, each scan-cost
    /// one) — at most the lengths of the lists it read.
    pub seeded_alts: u64,
}

impl RunMetrics {
    /// Fig 5(b)/6(b): fraction of plan-table entries updated.
    pub fn group_update_ratio(&self, total_groups: u64) -> f64 {
        if total_groups == 0 {
            0.0
        } else {
            self.touched_groups as f64 / total_groups as f64
        }
    }

    /// Fig 5(c)/6(c): fraction of plan alternatives updated.
    pub fn alt_update_ratio(&self, total_alts: u64) -> f64 {
        if total_alts == 0 {
            0.0
        } else {
            self.touched_alts as f64 / total_alts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = StateMetrics {
            total_groups: 100,
            total_alts: 400,
            pruned_groups: 40,
            pruned_alts: 300,
        };
        assert!((s.group_pruning_ratio() - 0.4).abs() < 1e-12);
        assert!((s.alt_pruning_ratio() - 0.75).abs() < 1e-12);
        let r = RunMetrics {
            touched_groups: 10,
            touched_alts: 20,
            ..Default::default()
        };
        assert!((r.group_update_ratio(100) - 0.1).abs() < 1e-12);
        assert!((r.alt_update_ratio(400) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn empty_denominators_do_not_divide_by_zero() {
        assert_eq!(StateMetrics::default().group_pruning_ratio(), 0.0);
        assert_eq!(RunMetrics::default().alt_update_ratio(0), 0.0);
    }
}
