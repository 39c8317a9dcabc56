//! Fixpoint invariant checking — used throughout the test suite to make
//! sure every converged state is internally consistent, whatever the
//! update sequence and pruning configuration.

use reopt_common::Cost;

use crate::memo::{AltId, GroupId};
use crate::optimizer::IncrementalOptimizer;
use crate::state::le_with_slack;

impl IncrementalOptimizer {
    /// Checks all state invariants at a (supposed) fixpoint. Returns a
    /// description of the first violation, if any.
    pub fn check_invariants(&mut self) -> Result<(), String> {
        self.check_refcounts()?;
        self.check_costs()?;
        self.check_liveness()?;
        self.check_bounds()?;
        self.check_state_counters()?;
        Ok(())
    }

    /// `state_metrics()` reads counters adjusted wherever a `live` flag
    /// flips; they must agree with a sweep over the flags.
    fn check_state_counters(&self) -> Result<(), String> {
        let memo = self.memo();
        let live_groups = (0..memo.n_groups() as u32)
            .filter(|&gi| self.group_state(GroupId(gi)).live)
            .count() as u64;
        let live_alts = (0..memo.n_alts() as u32)
            .map(AltId)
            .filter(|&a| self.group_state(memo.alt(a).group).live && self.alt_state(a).live)
            .count() as u64;
        let state = self.state_metrics();
        let got_groups = state.total_groups - state.pruned_groups;
        if got_groups != live_groups {
            return Err(format!(
                "live-group counter {got_groups}, a sweep counts {live_groups}"
            ));
        }
        let got_alts = state.total_alts - state.pruned_alts;
        if got_alts != live_alts {
            return Err(format!(
                "live-alternative counter {got_alts}, a sweep counts {live_alts}"
            ));
        }
        Ok(())
    }

    /// §3.2: a group's reference count equals the number of live parent
    /// alternatives in live groups (plus the root pin); with source
    /// suppression off, every parent alternative keeps its reference.
    fn check_refcounts(&mut self) -> Result<(), String> {
        let suppression = self.config().source_suppression;
        for gi in 0..self.memo().n_groups() as u32 {
            let g = GroupId(gi);
            let mut expected: u32 = 0;
            for &pa in self.memo().parents_of(g) {
                let pg = self.memo().alt(pa).group;
                let counts = if suppression {
                    self.group_state(pg).live && self.alt_state(pa).live
                } else {
                    true
                };
                if counts {
                    expected += 1;
                }
            }
            if g == self.memo().root {
                expected += 1;
            }
            let got = self.group_state(g).refs;
            if got != expected {
                return Err(format!(
                    "refcount mismatch on {g:?}: stored {got}, recomputed {expected}"
                ));
            }
        }
        Ok(())
    }

    /// R6–R9: alternatives have exact local and total costs, and the
    /// group best is the minimum of its totals. Costs are maintained
    /// through tombstones, so every alternative of every group — dead
    /// or live — is held to it.
    fn check_costs(&mut self) -> Result<(), String> {
        let q = self.query().clone();
        for gi in 0..self.memo().n_groups() as u32 {
            let g = GroupId(gi);
            let (expr, prop) = {
                let d = self.memo().group(g);
                (d.expr, d.prop)
            };
            let mut best = Cost::INFINITY;
            for a in self.memo().alts_of(g) {
                let spec = self.memo().alt(a).spec;
                let expect_local = self.recompute_local(&q, g, &spec);
                let got_local = self.alt_state(a).local;
                if got_local != expect_local {
                    return Err(format!(
                        "stale local cost on alt {a:?} of {expr:?}/{prop}: {got_local:?} vs {expect_local:?}"
                    ));
                }
                let mut expect_total = expect_local;
                for c in self.memo().alt(a).children() {
                    expect_total += self.group_state(c).best;
                }
                let got_total = self.alt_state(a).total;
                if got_total != expect_total {
                    return Err(format!(
                        "stale total on alt {a:?} of {expr:?}/{prop}: {got_total:?} vs {expect_total:?}"
                    ));
                }
                best = best.min(expect_total);
            }
            if self.group_state(g).best != best {
                return Err(format!(
                    "best mismatch on {g:?}: stored {:?}, recomputed {best:?}",
                    self.group_state(g).best
                ));
            }
        }
        Ok(())
    }

    /// §3.1/§3.3: alternative liveness agrees with the suppression
    /// threshold; an alternative over a tombstoned child is never live
    /// (it would hold a reference the child does not count).
    fn check_liveness(&mut self) -> Result<(), String> {
        if !self.config().aggregate_selection {
            return Ok(());
        }
        for gi in 0..self.memo().n_groups() as u32 {
            let g = GroupId(gi);
            if !self.group_state(g).live {
                continue;
            }
            let threshold = if self.config().recursive_bounding {
                self.group_state(g).bound
            } else {
                self.group_state(g).best
            };
            let alts: Vec<AltId> = self.memo().alts_of(g).collect();
            for a in alts {
                let over_dead = (self.memo().alt(a).children()).any(|c| !self.group_state(c).live);
                let live = self.alt_state(a).live;
                if over_dead {
                    if live {
                        return Err(format!("alternative {a:?} over a tombstoned child is live"));
                    }
                    continue;
                }
                let should = le_with_slack(self.alt_state(a).total, threshold);
                if live != should {
                    return Err(format!(
                        "liveness mismatch on alt {a:?}: live={live}, total={:?}, threshold={threshold:?}",
                        self.alt_state(a).total
                    ));
                }
            }
        }
        Ok(())
    }

    /// r1–r4: bound values are consistent with parents and bests.
    fn check_bounds(&mut self) -> Result<(), String> {
        if !self.config().recursive_bounding {
            return Ok(());
        }
        for gi in 0..self.memo().n_groups() as u32 {
            let g = GroupId(gi);
            if !self.group_state(g).live {
                continue;
            }
            let expect_mpb = self.recompute_mpb(g);
            let got = self.group_state(g).mpb;
            if got != expect_mpb {
                return Err(format!(
                    "mpb mismatch on {g:?}: stored {got:?}, recomputed {expect_mpb:?}"
                ));
            }
            let expect_bound = self.group_state(g).best.min(expect_mpb);
            if self.group_state(g).bound != expect_bound {
                return Err(format!(
                    "bound mismatch on {g:?}: stored {:?}, recomputed {expect_bound:?}",
                    self.group_state(g).bound
                ));
            }
        }
        Ok(())
    }

    fn recompute_mpb(&self, g: GroupId) -> Cost {
        if g == self.memo().root {
            return Cost::INFINITY;
        }
        let mut any = false;
        let mut m = Cost::ZERO;
        for &pa in self.memo().parents_of(g) {
            let pg = self.memo().alt(pa).group;
            if !self.group_state(pg).live || !self.alt_state(pa).live {
                continue;
            }
            let sibling_best = self
                .memo()
                .alt(pa)
                .sibling(g)
                .map_or(Cost::ZERO, |s| self.group_state(s).best);
            let allowance =
                self.group_state(pg).bound - sibling_best - self.alt_state(pa).local;
            if !any || allowance > m {
                m = allowance;
                any = true;
            }
        }
        if any {
            m.max(Cost::ZERO)
        } else {
            Cost::INFINITY
        }
    }
}

/// Each invariant checker must actually be able to fire: converge a
/// fixpoint, hand-corrupt exactly one piece of state, and assert the
/// checker reports that corruption (and nothing masked it). These are
/// the same checks the bridge's audit mode surfaces as
/// `DataflowError::InvariantViolation`.
#[cfg(test)]
mod tests {
    use reopt_common::Cost;

    use crate::fixtures::{chain_query, fixture_catalog};
    use crate::memo::{AltId, GroupId};
    use crate::optimizer::IncrementalOptimizer;
    use crate::PruningConfig;

    fn converged(cfg: PruningConfig) -> IncrementalOptimizer {
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let mut o = IncrementalOptimizer::new(&c, q, cfg);
        o.optimize();
        o.check_invariants()
            .expect("clean fixpoint before corruption");
        o
    }

    #[test]
    fn clean_fixpoints_pass_under_every_config() {
        for cfg in [
            PruningConfig::none(),
            PruningConfig::evita_raced(),
            PruningConfig::aggsel(),
            PruningConfig::aggsel_refcount(),
            PruningConfig::aggsel_bounding(),
            PruningConfig::all(),
        ] {
            converged(cfg);
        }
    }

    #[test]
    fn corrupted_refcount_is_caught() {
        let mut o = converged(PruningConfig::aggsel());
        o.group_state_mut(GroupId(0)).refs += 1;
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains("refcount mismatch"), "{msg}");
    }

    #[test]
    fn stale_local_cost_is_caught() {
        let mut o = converged(PruningConfig::none());
        let bad = o.alt_state(AltId(0)).local + Cost::new(1.0);
        o.alt_state_mut(AltId(0)).local = bad;
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains("stale local cost"), "{msg}");
    }

    #[test]
    fn stale_total_is_caught() {
        let mut o = converged(PruningConfig::none());
        let bad = o.alt_state(AltId(0)).total + Cost::new(1.0);
        o.alt_state_mut(AltId(0)).total = bad;
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains("stale total"), "{msg}");
    }

    #[test]
    fn corrupted_group_best_is_caught() {
        let mut o = converged(PruningConfig::none());
        // The root is nobody's child, so only its own check can fire.
        let root = o.memo().root;
        let bad = o.group_state(root).best + Cost::new(1.0);
        o.group_state_mut(root).best = bad;
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains("best mismatch"), "{msg}");
    }

    #[test]
    fn corrupted_alt_liveness_is_caught() {
        // Aggregate selection without source suppression: liveness is
        // checked but never feeds the refcount recompute, so flipping a
        // childless (leaf) alternative trips exactly one checker.
        let mut o = converged(PruningConfig::evita_raced());
        let victim = (0..o.memo().n_groups() as u32)
            .flat_map(|gi| o.memo().alts_of(GroupId(gi)).collect::<Vec<_>>())
            .find(|&a| o.memo().alt(a).children().next().is_none() && o.alt_state(a).live)
            .expect("fixture has a live scan alternative");
        o.alt_state_mut(victim).live = false;
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains("liveness mismatch"), "{msg}");
    }

    #[test]
    fn live_frozen_alternative_is_caught() {
        // Killing a group takes the references of every parent
        // alternative over it; a parent left live must be reported.
        let mut o = converged(PruningConfig::evita_raced());
        let victim = (0..o.memo().n_groups() as u32)
            .map(GroupId)
            .find(|&g| {
                g != o.memo().root
                    && o.memo()
                        .parents_of(g)
                        .iter()
                        .any(|&pa| o.alt_state(pa).live)
            })
            .expect("fixture has a referenced group with a live parent");
        o.group_state_mut(victim).live = false;
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains("over a tombstoned child is live"), "{msg}");
    }

    #[test]
    fn corrupted_mpb_is_caught() {
        let mut o = converged(PruningConfig::aggsel_bounding());
        let victim = (0..o.memo().n_groups() as u32)
            .map(GroupId)
            .find(|&g| g != o.memo().root && o.group_state(g).live)
            .expect("fixture has a live non-root group");
        let cur = o.group_state(victim).mpb;
        o.group_state_mut(victim).mpb = if cur == Cost::INFINITY {
            Cost::new(7.0)
        } else {
            Cost::INFINITY
        };
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains("mpb mismatch"), "{msg}");
    }

    #[test]
    fn corrupted_bound_is_caught() {
        // A leaf group's bound constrains no other group's mpb, and if
        // all its alternatives are live, *raising* the bound cannot flip
        // a liveness verdict — so only the bound check can fire.
        let mut o = converged(PruningConfig::aggsel_bounding());
        let victim = (0..o.memo().n_groups() as u32)
            .map(GroupId)
            .find(|&g| {
                o.group_state(g).live
                    && o.group_state(g).bound != Cost::INFINITY
                    && o.memo().alts_of(g).collect::<Vec<_>>().iter().all(|&a| {
                        o.alt_state(a).live && o.memo().alt(a).children().next().is_none()
                    })
            })
            .expect("fixture has a fully-live leaf group with a finite bound");
        let bad = o.group_state(victim).bound + Cost::new(1000.0);
        o.group_state_mut(victim).bound = bad;
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains("bound mismatch"), "{msg}");
    }
    /// A tombstoned group of a converged `all()` fixpoint that
    /// has alternatives with children (a reclaimed join group).
    fn dead_join_group(o: &IncrementalOptimizer) -> GroupId {
        (0..o.memo().n_groups() as u32)
            .map(GroupId)
            .find(|&g| {
                !o.group_state(g).live
                    && o.memo()
                        .alts_of(g)
                        .any(|a| o.memo().alt(a).children().next().is_some())
            })
            .expect("full pruning reclaims a join group of chain-4")
    }

    #[test]
    fn stale_total_in_a_tombstoned_group_is_caught_under_strict() {
        // A reclaimed group's costs are maintained, so the check
        // reaches them.
        let mut o = converged(PruningConfig::all());
        let a = o.memo().alts_of(dead_join_group(&o)).next().unwrap();
        let bad = o.alt_state(a).total + Cost::new(1.0);
        o.alt_state_mut(a).total = bad;
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains("stale total"), "{msg}");
    }

    #[test]
    fn stale_best_of_a_tombstoned_group_is_caught_under_strict() {
        let mut o = converged(PruningConfig::all());
        let g = dead_join_group(&o);
        let bad = o.group_state(g).best + Cost::new(1.0);
        o.group_state_mut(g).best = bad;
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains(&format!("best mismatch on {g:?}")), "{msg}");
    }

    #[test]
    fn stale_total_over_a_tombstoned_child_is_caught_under_strict() {
        // An alternative of a *live* group whose child is reclaimed is
        // maintained too.
        let mut o = converged(PruningConfig::all());
        let dead = dead_join_group(&o);
        let a = *o
            .memo()
            .parents_of(dead)
            .iter()
            .find(|&&pa| o.group_state(o.memo().alt(pa).group).live)
            .expect("a live group has an alternative over the reclaimed one");
        let bad = o.alt_state(a).total + Cost::new(1.0);
        o.alt_state_mut(a).total = bad;
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains(&format!("stale total on alt {a:?}")), "{msg}");
    }

    #[test]
    fn drifted_live_group_counter_is_caught() {
        // With nothing pruned no other check reads a group's `live`
        // flag, so clearing one leaves only the counter disagreeing.
        let mut o = converged(PruningConfig::none());
        o.group_state_mut(GroupId(0)).live = false;
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains("live-group counter"), "{msg}");
    }

    #[test]
    fn drifted_live_alternative_counter_is_caught() {
        let mut o = converged(PruningConfig::none());
        o.alt_state_mut(AltId(0)).live = false;
        let msg = o.check_invariants().unwrap_err();
        assert!(msg.contains("live-alternative counter"), "{msg}");
    }
}
