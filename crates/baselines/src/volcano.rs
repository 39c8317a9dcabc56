//! Volcano-style top-down optimization (Graefe & McKenna \[12\]):
//! goal-driven memoized search with branch-and-bound pruning. The cost
//! limit flows down the single recursive descent — the execution-order
//! restriction §3.3 of the paper contrasts with its order-independent
//! recursive bounding.

use reopt_catalog::Catalog;
use reopt_common::{Cost, FxHashMap};
use reopt_core::Reoptimizer;
use reopt_cost::{CostContext, ParamDelta};
use reopt_expr::{AltSpec, ExprId, JoinGraph, PhysProp, PlanNode, QuerySpec, SplitCache};

use crate::result::{BaselineMetrics, OptResult};

/// Memo entry. `best` is the cheapest plan found with cost strictly
/// below the largest limit this group has been explored under
/// (`explored_limit`). Invariant: if `best` is `Some((c, _))` then `c`
/// is the group's true optimum (branch-and-bound only discards plans
/// that cannot beat an already-found one); if `best` is `None`, no plan
/// costs less than `explored_limit`.
#[derive(Clone, Debug)]
struct Entry {
    best: Option<(Cost, AltSpec)>,
    explored_limit: Cost,
}

struct Volcano<'a> {
    q: &'a QuerySpec,
    g: &'a JoinGraph,
    ctx: &'a mut CostContext,
    cache: SplitCache,
    memo: FxHashMap<(ExprId, PhysProp), Entry>,
    metrics: BaselineMetrics,
}

/// Runs top-down branch-and-bound optimization from the query root.
pub fn optimize_volcano(q: &QuerySpec, g: &JoinGraph, ctx: &mut CostContext) -> OptResult {
    let mut v = Volcano {
        q,
        g,
        ctx,
        cache: SplitCache::new(),
        memo: FxHashMap::default(),
        metrics: BaselineMetrics::default(),
    };
    let root = (q.root_expr(), PhysProp::Any);
    let cost = v
        .optimize_group(root.0, root.1, Cost::INFINITY)
        .unwrap_or_else(|| panic!("query `{}` has no feasible plan", q.name));
    v.metrics.groups_created = v.memo.len() as u64;
    let plan = v.extract(root.0, root.1);
    OptResult {
        cost,
        plan,
        metrics: v.metrics,
    }
}

/// The from-scratch re-optimizer (the paper's "Tukwila's Non-Inc
/// Re-Opt"): every epoch applies the deltas to its estimates and runs
/// [`optimize_volcano`] over the whole space again.
pub struct FromScratch {
    q: QuerySpec,
    graph: JoinGraph,
    ctx: CostContext,
}

impl FromScratch {
    pub fn new(catalog: &Catalog, q: QuerySpec) -> FromScratch {
        FromScratch {
            graph: JoinGraph::new(&q),
            ctx: CostContext::new(catalog, &q),
            q,
        }
    }
}

impl Reoptimizer for FromScratch {
    type Outcome = OptResult;

    fn query(&self) -> &QuerySpec {
        &self.q
    }

    fn cost_context(&self) -> &CostContext {
        &self.ctx
    }

    fn optimize(&mut self) -> OptResult {
        optimize_volcano(&self.q, &self.graph, &mut self.ctx)
    }

    fn reoptimize(&mut self, deltas: &[ParamDelta]) -> OptResult {
        self.ctx.apply(deltas);
        self.optimize()
    }

    fn plan(outcome: &OptResult) -> &PlanNode {
        &outcome.plan
    }
}

impl Volcano<'_> {
    /// Returns the optimal cost for the group if it is below `limit`.
    fn optimize_group(&mut self, expr: ExprId, prop: PhysProp, limit: Cost) -> Option<Cost> {
        let first_visit = match self.memo.get(&(expr, prop)) {
            Some(e) => {
                match &e.best {
                    // A recorded best is the exact optimum.
                    Some((c, _)) => return (*c < limit).then_some(*c),
                    // Proven: nothing below explored_limit.
                    None if limit <= e.explored_limit => return None,
                    None => {} // must re-explore with the larger limit
                }
                false
            }
            None => true,
        };
        let alts = self.cache.get(self.q, self.g, expr, prop).to_vec();
        // Cost local operators first and explore cheapest-first: the
        // sooner a good plan is found, the tighter the bound (the paper's
        // observation that exploration order drives pruning quality).
        let mut ordered: Vec<(Cost, AltSpec)> = alts
            .iter()
            .map(|a| {
                if first_visit {
                    self.metrics.alts_costed += 1;
                }
                (self.ctx.local_cost(self.q, expr, prop, a), *a)
            })
            .collect();
        ordered.sort_by_key(|(c, _)| *c);
        let mut running = limit;
        let mut best: Option<(Cost, AltSpec)> = None;
        for (local, alt) in ordered {
            if local >= running {
                // Every remaining alternative is at least this expensive
                // locally; they could still win via cheaper children, so
                // prune only this one.
                if first_visit {
                    self.metrics.alts_pruned += 1;
                }
                continue;
            }
            let mut total = local;
            let mut feasible = true;
            for child in alt.children() {
                let budget = running - total;
                match self.optimize_group(child.expr, child.prop, budget) {
                    Some(c) => total += c,
                    None => {
                        feasible = false;
                        if first_visit {
                            self.metrics.alts_pruned += 1;
                        }
                        break;
                    }
                }
            }
            if feasible && total < running {
                running = total;
                best = Some((total, alt));
            }
        }
        let result = best.as_ref().map(|(c, _)| *c);
        let entry = self
            .memo
            .entry((expr, prop))
            .or_insert_with(|| Entry {
                best: None,
                explored_limit: Cost::ZERO,
            });
        entry.explored_limit = entry.explored_limit.max(limit);
        if best.is_some() {
            entry.best = best;
        }
        result
    }

    fn extract(&self, expr: ExprId, prop: PhysProp) -> PlanNode {
        let entry = &self.memo[&(expr, prop)];
        let (_, alt) = entry
            .best
            .as_ref()
            .expect("extracting group without a plan");
        let children = alt
            .children()
            .map(|c| self.extract(c.expr, c.prop))
            .collect();
        PlanNode {
            expr,
            prop,
            op: alt.op,
            children,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system_r::{full_space_size, optimize_system_r};
    use reopt_catalog::{ColumnStats, TableBuilder, TableStats};
    use reopt_expr::EdgeId;

    fn chain_fixture(rows: &[f64]) -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        for (i, &r) in rows.iter().enumerate() {
            let name = format!("t{i}");
            c.add_table(
                |id| {
                    TableBuilder::new(&name)
                        .int_col("a")
                        .int_col("b")
                        .index_on("a")
                        .build(id)
                },
                TableStats {
                    row_count: r,
                    columns: vec![ColumnStats::uniform_key(r); 2],
                },
            );
        }
        let mut b = QuerySpec::builder("chain");
        let leaves: Vec<_> = (0..rows.len())
            .map(|i| b.leaf(&c, &format!("t{i}")))
            .collect();
        for w in leaves.windows(2) {
            b.join(&c, w[0], "b", w[1], "a");
        }
        (c, b.build())
    }

    #[test]
    fn volcano_matches_dp_across_sizes() {
        for rows in [
            vec![10.0, 10_000.0],
            vec![100.0, 50.0, 20_000.0],
            vec![5.0, 500.0, 50.0, 5_000.0],
            vec![1000.0, 10.0, 10.0, 1000.0, 100.0],
        ] {
            let (c, q) = chain_fixture(&rows);
            let g = JoinGraph::new(&q);
            let mut ctx = CostContext::new(&c, &q);
            let dp = optimize_system_r(&q, &g, &mut ctx);
            let vol = optimize_volcano(&q, &g, &mut ctx);
            assert!(
                dp.cost.approx_eq(vol.cost),
                "rows={rows:?}: dp={:?} volcano={:?}\ndp plan:\n{}\nvolcano plan:\n{}",
                dp.cost,
                vol.cost,
                dp.plan,
                vol.plan
            );
        }
    }

    #[test]
    fn volcano_explores_no_more_than_the_full_space() {
        let (c, q) = chain_fixture(&[100.0, 1000.0, 10.0, 10_000.0]);
        let g = JoinGraph::new(&q);
        let mut ctx = CostContext::new(&c, &q);
        let vol = optimize_volcano(&q, &g, &mut ctx);
        let (groups, _) = full_space_size(&q, &g);
        assert!(vol.metrics.groups_created <= groups);
        assert!(vol.metrics.alts_pruned > 0, "B&B never pruned anything");
    }

    #[test]
    fn volcano_plan_cost_matches_reported_cost() {
        let (c, q) = chain_fixture(&[100.0, 1000.0, 10.0]);
        let g = JoinGraph::new(&q);
        let mut ctx = CostContext::new(&c, &q);
        let vol = optimize_volcano(&q, &g, &mut ctx);
        let recomputed = ctx.plan_cost(&q, &vol.plan);
        assert!(vol.cost.approx_eq(recomputed));
    }

    #[test]
    fn rerun_after_param_change_still_optimal() {
        let (c, q) = chain_fixture(&[100.0, 1000.0, 10.0, 500.0]);
        let g = JoinGraph::new(&q);
        let mut ctx = CostContext::new(&c, &q);
        let before = optimize_volcano(&q, &g, &mut ctx);
        ctx.apply(&[ParamDelta::EdgeSelectivity(EdgeId(1), 8.0)]);
        let vol = optimize_volcano(&q, &g, &mut ctx);
        let dp = optimize_system_r(&q, &g, &mut ctx);
        assert!(vol.cost.approx_eq(dp.cost));
        // The update made the middle join more expensive; cost rises.
        assert!(vol.cost > before.cost);
    }
}
