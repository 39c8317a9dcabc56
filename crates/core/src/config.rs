//! Pruning-strategy configuration — the experimental knobs of the
//! paper's §5.3 ablation ("we systematically considered all techniques
//! individually and in combination").
//!
//! Every configuration is exact. Pruning decides what is *live* — which
//! alternatives hold references, which groups derive bounds and count
//! as unpruned — never which costs are current: a reclaimed group's
//! costs are maintained like any other (§4.1: the aggregate keeps "all
//! the computed, even pruned" tuples), so a cost decrease landing
//! inside a reclaimed region is seen.

/// Which pruning strategies the optimizer runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruningConfig {
    /// §3.1 aggregate selection: suppress `PlanCost` tuples that cannot
    /// beat the group's current best.
    pub aggregate_selection: bool,
    /// §3.1 tuple source suppression: cascade aggregate-selection prunes
    /// into `SearchSpace` deletions (which is what lets reference counts
    /// drop). The Evita-Raced comparison point keeps aggregate selection
    /// but not source suppression — it "never prunes plan table entries"
    /// (Fig 4b).
    pub source_suppression: bool,
    /// §3.2 reference counting: reclaim groups no live parent references.
    pub ref_counting: bool,
    /// §3.3 recursive bounding: the `Bound` relation of rules r1–r4;
    /// suppression then tests against `Bound` instead of `BestCost`.
    pub recursive_bounding: bool,
}

impl PruningConfig {
    /// No pruning at all (the paper's omitted-from-graphs baseline whose
    /// "running times were over 2 minutes").
    pub fn none() -> PruningConfig {
        PruningConfig {
            aggregate_selection: false,
            source_suppression: false,
            ref_counting: false,
            recursive_bounding: false,
        }
    }

    /// The Evita Raced \[8\] pruning level: "pruning is only done against
    /// logically equivalent plans for the same output properties".
    pub fn evita_raced() -> PruningConfig {
        PruningConfig {
            aggregate_selection: true,
            ..PruningConfig::none()
        }
    }

    /// `AggSel` in Figs 7/8: aggregate selection with source suppression.
    pub fn aggsel() -> PruningConfig {
        PruningConfig {
            aggregate_selection: true,
            source_suppression: true,
            ..PruningConfig::none()
        }
    }

    /// `AggSel+RefCount` in Figs 7/8.
    pub fn aggsel_refcount() -> PruningConfig {
        PruningConfig {
            ref_counting: true,
            ..PruningConfig::aggsel()
        }
    }

    /// `AggSel+Branch&Bounding` in Figs 7/8.
    pub fn aggsel_bounding() -> PruningConfig {
        PruningConfig {
            recursive_bounding: true,
            ..PruningConfig::aggsel()
        }
    }

    /// All three techniques (the paper's `Declarative` / `All` bars).
    pub fn all() -> PruningConfig {
        PruningConfig {
            aggregate_selection: true,
            source_suppression: true,
            ref_counting: true,
            recursive_bounding: true,
        }
    }

    /// The same configuration as [`PruningConfig::all`], under the name
    /// it had while `all()` froze reclaimed costs.
    pub fn all_strict() -> PruningConfig {
        PruningConfig::all()
    }

    /// Human-readable label used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match (
            self.aggregate_selection,
            self.source_suppression,
            self.ref_counting,
            self.recursive_bounding,
        ) {
            (false, _, _, _) => "NoPruning",
            (true, false, _, _) => "Evita-Raced",
            (true, true, false, false) => "AggSel",
            (true, true, true, false) => "AggSel+RefCount",
            (true, true, false, true) => "AggSel+Branch&Bounding",
            (true, true, true, true) => "All",
        }
    }
}

/// The shipped optimizer runs every pruning technique.
impl Default for PruningConfig {
    fn default() -> PruningConfig {
        PruningConfig::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_matrix() {
        assert!(!PruningConfig::evita_raced().source_suppression);
        assert!(PruningConfig::aggsel().source_suppression);
        assert!(!PruningConfig::aggsel().ref_counting);
        assert!(PruningConfig::aggsel_refcount().ref_counting);
        assert!(PruningConfig::aggsel_bounding().recursive_bounding);
        let all = PruningConfig::all();
        assert!(all.aggregate_selection && all.ref_counting && all.recursive_bounding);
    }

    #[test]
    fn labels() {
        assert_eq!(PruningConfig::none().label(), "NoPruning");
        assert_eq!(PruningConfig::evita_raced().label(), "Evita-Raced");
        assert_eq!(PruningConfig::all().label(), "All");
        assert_eq!(
            PruningConfig::aggsel_bounding().label(),
            "AggSel+Branch&Bounding"
        );
    }
}
