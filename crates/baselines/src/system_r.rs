//! System-R-style bottom-up dynamic programming (Selinger et al. \[23\]):
//! optimize every reachable `(expression, property)` group in ascending
//! expression-size order, keeping the best plan per group — interesting
//! orders included. Exact by the principle of optimality (paper
//! Proposition 5), so this doubles as the ground-truth reference the
//! other optimizers are validated against.

use reopt_common::Cost;
use reopt_cost::CostContext;
use reopt_expr::{AltSpec, GroupIdx, JoinGraph, PlanNode, QuerySpec, Space};

use crate::result::{BaselineMetrics, OptResult};

/// Runs bottom-up DP over the full reachable space.
pub fn optimize_system_r(q: &QuerySpec, g: &JoinGraph, ctx: &mut CostContext) -> OptResult {
    let space = Space::explore(q, g);
    let mut best: Vec<Option<(Cost, AltSpec)>> = vec![None; space.n_groups()];
    let mut metrics = BaselineMetrics::default();
    for &gi in space.topo_order() {
        let def = space.group(gi).clone();
        let mut group_best: Option<(Cost, AltSpec)> = None;
        for alt in &def.alts {
            metrics.alts_costed += 1;
            let local = ctx.local_cost(q, def.expr, def.prop, alt);
            let mut total = local;
            let mut feasible = true;
            for child in alt.children() {
                let ci = space
                    .lookup(child.expr, child.prop)
                    .expect("child group exists in reachable space");
                match &best[ci.0 as usize] {
                    Some((c, _)) => total += *c,
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if feasible && group_best.as_ref().is_none_or(|(c, _)| total < *c) {
                group_best = Some((total, *alt));
            }
        }
        best[gi.0 as usize] = group_best;
    }
    metrics.groups_created = space.n_groups() as u64;
    let root = space.root();
    let (cost, _) = *best[root.0 as usize]
        .as_ref()
        .unwrap_or_else(|| panic!("query `{}` has no feasible plan", q.name));
    let plan = extract(&space, &best, root);
    OptResult {
        cost,
        plan,
        metrics,
    }
}

fn extract(space: &Space, best: &[Option<(Cost, AltSpec)>], gi: GroupIdx) -> PlanNode {
    let def = space.group(gi);
    let (_, alt) = best[gi.0 as usize]
        .as_ref()
        .expect("extracting a group with no plan");
    let children = alt
        .children()
        .map(|c| {
            let ci = space.lookup(c.expr, c.prop).expect("child group");
            extract(space, best, ci)
        })
        .collect();
    PlanNode {
        expr: def.expr,
        prop: def.prop,
        op: alt.op,
        children,
    }
}

/// Space-size denominators for the pruning-ratio metrics (Figs 4b/4c).
pub fn full_space_size(q: &QuerySpec, g: &JoinGraph) -> (u64, u64) {
    let space = Space::explore(q, g);
    (space.n_groups() as u64, space.n_alts() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volcano::optimize_volcano;
    use reopt_catalog::{Catalog, CmpOp, ColumnStats, Datum, TableBuilder, TableStats};

    pub(crate) fn star_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mk_stats = |rows: f64, cols: usize| TableStats {
            row_count: rows,
            columns: (0..cols).map(|_| ColumnStats::uniform_key(rows)).collect(),
        };
        c.add_table(
            |id| {
                TableBuilder::new("fact")
                    .int_col("f_d1")
                    .int_col("f_d2")
                    .int_col("f_d3")
                    .int_col("f_val")
                    .build(id)
            },
            mk_stats(50_000.0, 4),
        );
        for (i, rows) in [(1u32, 100.0), (2, 1000.0), (3, 10.0)] {
            let name = format!("dim{i}");
            c.add_table(
                |id| {
                    TableBuilder::new(&name)
                        .int_col("d_key")
                        .int_col("d_attr")
                        .index_on("d_key")
                        .build(id)
                },
                mk_stats(rows, 2),
            );
        }
        c
    }

    pub(crate) fn star_query(c: &Catalog) -> QuerySpec {
        let mut b = QuerySpec::builder("star");
        let f = b.leaf(c, "fact");
        let d1 = b.leaf(c, "dim1");
        let d2 = b.leaf(c, "dim2");
        let d3 = b.leaf(c, "dim3");
        b.join(c, f, "f_d1", d1, "d_key");
        b.join(c, f, "f_d2", d2, "d_key");
        b.join(c, f, "f_d3", d3, "d_key");
        b.filter(c, d2, "d_attr", CmpOp::Lt, Datum::Int(100));
        b.build()
    }

    #[test]
    fn dp_produces_finite_optimal_plan() {
        let c = star_catalog();
        let q = star_query(&c);
        let g = JoinGraph::new(&q);
        let mut ctx = CostContext::new(&c, &q);
        let r = optimize_system_r(&q, &g, &mut ctx);
        assert!(r.cost.is_finite());
        assert_eq!(r.plan.expr, q.root_expr());
        // Plan cost recomputed from the tree matches the DP cost.
        let recomputed = ctx.plan_cost(&q, &r.plan);
        assert!(r.cost.approx_eq(recomputed), "{:?} vs {recomputed:?}", r.cost);
    }

    #[test]
    fn dp_covers_whole_space() {
        let c = star_catalog();
        let q = star_query(&c);
        let g = JoinGraph::new(&q);
        let mut ctx = CostContext::new(&c, &q);
        let r = optimize_system_r(&q, &g, &mut ctx);
        let (groups, alts) = full_space_size(&q, &g);
        assert_eq!(r.metrics.groups_created, groups);
        assert_eq!(r.metrics.alts_costed, alts);
    }

    #[test]
    fn volcano_and_system_r_agree_on_cost() {
        let c = star_catalog();
        let q = star_query(&c);
        let g = JoinGraph::new(&q);
        let mut ctx = CostContext::new(&c, &q);
        let dp = optimize_system_r(&q, &g, &mut ctx);
        let vol = optimize_volcano(&q, &g, &mut ctx);
        assert!(
            dp.cost.approx_eq(vol.cost),
            "dp={:?} volcano={:?}",
            dp.cost,
            vol.cost
        );
    }
}
