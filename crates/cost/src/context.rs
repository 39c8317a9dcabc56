//! The cost estimation context: cardinality summaries and per-operator
//! local costs.
//!
//! This is the Rust rendition of the paper's external functions:
//! `Fn_scansummary` (base-table summaries), `Fn_nonscansummary` (operator
//! output summaries, memoized as §2.3 prescribes), `Fn_scancost`,
//! `Fn_nonscancost`, and `Fn_sum` (children + local cost). Estimates use
//! the textbook independence assumptions: leaf output = raw rows ×
//! filter selectivities; join output = product of child rows × product of
//! the selectivities of every edge *internal* to the result set.
//!
//! The summaries are memoized twice. This context keeps a lazy cache per
//! leaf set, which [`CostContext::apply`] invalidates where a delta can
//! move it. An incremental engine keeps one estimate per group as its
//! own maintained state and refreshes it only for the groups a changed
//! parameter reaches. So [`CostContext::local_cost`] is a lookup of the
//! output and child estimates followed by the one formula,
//! [`CostContext::local_cost_of`], which such an engine calls directly
//! with its own estimates.

use reopt_catalog::Catalog;
use reopt_common::{Cost, FxHashMap};
use reopt_expr::{
    AltSpec, EdgeId, ExprId, LeafId, PhysOp, PhysProp, PlanNode, QuerySpec, RelSet, WindowSpec,
};

use crate::params::{AffectedSet, Factors, ParamDelta, UnitCosts};

/// Per-leaf base statistics derived from the catalog once at build time.
#[derive(Clone, Debug)]
struct LeafBase {
    /// Rows visible to a scan (window-adjusted for stream leaves).
    raw_rows: f64,
    /// Product of local predicate selectivities.
    filter_sel: f64,
    /// Number of local predicates.
    n_filters: u32,
    /// Selectivity of the predicate on an indexed column, per column
    /// (drives index-scan costing).
    index_filter_sel: FxHashMap<u32, f64>,
}

/// Cost estimation context for one query.
#[derive(Clone, Debug)]
pub struct CostContext {
    unit: UnitCosts,
    factors: Factors,
    leaves: Vec<LeafBase>,
    edge_base_sel: Vec<f64>,
    /// Estimated number of groups produced by the aggregate, if any.
    group_count: f64,
    rows_cache: RowsCache,
    /// `edge_rels[e]` = the two-leaf set of edge `e`.
    edge_rels: Vec<RelSet>,
}

/// Memo of [`CostContext::rows`] per leaf set. A query of at most
/// [`DENSE_LEAVES`] leaves indexes a table by the set's bits (`NaN` =
/// not computed; a cardinality is never `NaN`); a wider one falls back
/// to a map.
#[derive(Clone, Debug)]
enum RowsCache {
    Dense(Vec<f64>),
    Sparse(FxHashMap<RelSet, f64>),
}

const DENSE_LEAVES: usize = 16;

impl RowsCache {
    fn new(n_leaves: usize) -> RowsCache {
        if n_leaves <= DENSE_LEAVES {
            RowsCache::Dense(vec![f64::NAN; 1 << n_leaves])
        } else {
            RowsCache::Sparse(FxHashMap::default())
        }
    }

    fn get(&self, rel: RelSet) -> Option<f64> {
        match self {
            RowsCache::Dense(t) => t.get(rel.0 as usize).copied().filter(|r| !r.is_nan()),
            RowsCache::Sparse(m) => m.get(&rel).copied(),
        }
    }

    fn insert(&mut self, rel: RelSet, rows: f64) {
        match self {
            // A set naming a leaf the query does not have is not cached.
            RowsCache::Dense(t) => {
                if let Some(slot) = t.get_mut(rel.0 as usize) {
                    *slot = rows;
                }
            }
            RowsCache::Sparse(m) => {
                m.insert(rel, rows);
            }
        }
    }

    /// Forgets every set that contains all of `part` — the sets whose
    /// cardinality a change to `part` (one leaf, or the two ends of an
    /// edge) can move.
    fn invalidate_supersets(&mut self, part: RelSet) {
        match self {
            RowsCache::Dense(t) => {
                if part.0 as usize >= t.len() {
                    return;
                }
                // Every submask of the other leaves, joined to `part`.
                let free = (t.len() - 1) as u32 & !part.0;
                let mut sub = free;
                loop {
                    t[(part.0 | sub) as usize] = f64::NAN;
                    if sub == 0 {
                        break;
                    }
                    sub = (sub - 1) & free;
                }
            }
            RowsCache::Sparse(m) => m.retain(|rel, _| !part.is_subset_of(*rel)),
        }
    }
}

impl CostContext {
    /// Builds the context from catalog statistics (`Fn_scansummary`).
    pub fn new(catalog: &Catalog, q: &QuerySpec) -> CostContext {
        let leaves = q
            .leaves
            .iter()
            .map(|leaf| {
                let stats = catalog.stats(leaf.table);
                let raw_rows = match &leaf.window {
                    None => stats.row_count,
                    // For stream leaves the catalog row count is the
                    // arrival rate (tuples/sec).
                    Some(WindowSpec::Time { seconds }) => stats.row_count * seconds,
                    Some(WindowSpec::Tuples { count }) => *count as f64,
                    Some(WindowSpec::PartitionedTuples { cols, count }) => {
                        let partitions: f64 = cols
                            .iter()
                            .map(|c| stats.col(c.0).ndv.max(1.0))
                            .product();
                        (*count as f64 * partitions).min(stats.row_count * 60.0)
                    }
                };
                let mut filter_sel = 1.0;
                let mut index_filter_sel = FxHashMap::default();
                for f in &leaf.filters {
                    let sel = stats.col(f.col.0).pred_selectivity(f.op, &f.value);
                    filter_sel *= sel;
                    if leaf.indexed_cols.contains(&f.col) {
                        let e = index_filter_sel.entry(f.col.0).or_insert(1.0);
                        *e *= sel;
                    }
                }
                LeafBase {
                    raw_rows: raw_rows.max(1.0),
                    filter_sel: filter_sel.clamp(0.0, 1.0),
                    n_filters: leaf.filters.len() as u32,
                    index_filter_sel,
                }
            })
            .collect();
        let edge_base_sel = q
            .edges
            .iter()
            .map(|e| {
                let ls = catalog.stats(q.leaf(e.l.leaf).table);
                let rs = catalog.stats(q.leaf(e.r.leaf).table);
                ls.col(e.l.col.0)
                    .join_selectivity(rs.col(e.r.col.0))
                    .clamp(1e-12, 1.0)
            })
            .collect();
        let group_count = match &q.aggregate {
            None => 1.0,
            Some(agg) => agg
                .group_by
                .iter()
                .map(|c| catalog.stats(q.leaf(c.leaf).table).col(c.col.0).ndv.max(1.0))
                .product(),
        };
        let edge_rels = q.edges.iter().map(|e| e.rels()).collect();
        CostContext {
            unit: UnitCosts::default(),
            factors: Factors::default(),
            leaves,
            edge_base_sel,
            group_count,
            rows_cache: RowsCache::new(q.leaves.len()),
            edge_rels,
        }
    }

    /// Applies a batch of parameter deltas (§4), returning the affected
    /// parameters so callers can seed their dirty sets.
    pub fn apply(&mut self, deltas: &[ParamDelta]) -> AffectedSet {
        let affected = self.factors.apply(deltas);
        // A cardinality is a product over the set's leaves and internal
        // edges: only sets holding a changed leaf, or both ends of a
        // changed edge, are recomputed. Ids the query does not have
        // change no set.
        for l in &affected.leaves_card {
            if (l.0 as usize) < self.leaves.len() {
                self.rows_cache.invalidate_supersets(RelSet::singleton(l.0));
            }
        }
        for e in &affected.edges {
            if let Some(&ends) = self.edge_rels.get(e.0 as usize) {
                self.rows_cache.invalidate_supersets(ends);
            }
        }
        affected
    }

    pub fn factors(&self) -> &Factors {
        &self.factors
    }

    /// Current selectivity of a join edge (base × runtime factor).
    pub fn edge_selectivity(&self, e: EdgeId) -> f64 {
        (self.edge_base_sel[e.0 as usize] * self.factors.edge_sel(e)).clamp(0.0, 1.0)
    }

    /// Raw (pre-filter) rows of a leaf under the current factors.
    pub fn leaf_raw_rows(&self, l: LeafId) -> f64 {
        self.leaves[l.0 as usize].raw_rows * self.factors.leaf_card(l)
    }

    /// Output rows of a leaf after filters.
    pub fn leaf_out_rows(&self, l: LeafId) -> f64 {
        let base = &self.leaves[l.0 as usize];
        (self.leaf_raw_rows(l) * base.filter_sel).max(1e-9)
    }

    /// Estimated output cardinality of a join expression
    /// (`Fn_nonscansummary`, memoized).
    pub fn rows(&mut self, _q: &QuerySpec, rel: RelSet) -> f64 {
        if let Some(r) = self.rows_cache.get(rel) {
            return r;
        }
        let mut rows: f64 = rel.iter().map(|l| self.leaf_out_rows(LeafId(l))).product();
        for (e, ends) in self.edge_rels.iter().enumerate() {
            if ends.is_subset_of(rel) {
                rows *= self.edge_selectivity(EdgeId(e as u32));
            }
        }
        let rows = rows.max(1e-9);
        self.rows_cache.insert(rel, rows);
        rows
    }

    /// Output cardinality of a memo expression (aggregates collapse to
    /// their group count).
    pub fn expr_rows(&mut self, q: &QuerySpec, expr: ExprId) -> f64 {
        let base = self.rows(q, expr.rel);
        if expr.agg {
            self.group_count.min(base).max(1.0)
        } else {
            base
        }
    }

    /// Local (root operator) cost of an alternative — `Fn_scancost` /
    /// `Fn_nonscancost`. `expr`/`prop` identify the group the alternative
    /// belongs to. A lookup of the output and child row estimates, then
    /// [`Self::local_cost_of`].
    pub fn local_cost(
        &mut self,
        q: &QuerySpec,
        expr: ExprId,
        prop: PhysProp,
        alt: &AltSpec,
    ) -> Cost {
        let out = self.expr_rows(q, expr);
        let l = alt.left.map_or(0.0, |c| self.expr_rows(q, c.expr));
        let r = alt.right.map_or(0.0, |c| self.expr_rows(q, c.expr));
        self.local_cost_of(expr, prop, alt, out, l, r)
    }

    /// The one local-cost formula, given the row estimates it reads:
    /// `out` of `expr`, `l`/`r` of the alternative's left/right child
    /// (ignored where it has none). An engine that keeps the estimates
    /// per group calls this directly.
    pub fn local_cost_of(
        &self,
        expr: ExprId,
        prop: PhysProp,
        alt: &AltSpec,
        out: f64,
        l: f64,
        r: f64,
    ) -> Cost {
        let u = &self.unit;
        let cost = match alt.op {
            PhysOp::FullScan => {
                let leaf = LeafId(expr.rel.leaf());
                let base = &self.leaves[leaf.0 as usize];
                let n_filters = base.n_filters as f64;
                self.leaf_raw_rows(leaf)
                    * (u.seq_scan * self.factors.leaf_scan(leaf) + u.predicate * n_filters)
                    + out * u.output
            }
            PhysOp::IndexScan { col } => {
                let leaf = LeafId(expr.rel.leaf());
                if prop == PhysProp::Indexed(col) {
                    // Access-path opening only: per-probe work is costed
                    // at the indexed nested-loop join that consumes it.
                    u.index_base
                } else {
                    let base = &self.leaves[leaf.0 as usize];
                    let n_filters = base.n_filters as f64;
                    // If the index covers a local predicate, only the
                    // matching fraction is probed; otherwise the index
                    // sweeps every row (in key order).
                    let frac = base
                        .index_filter_sel
                        .get(&col.col.0)
                        .copied()
                        .unwrap_or(1.0);
                    let probes = self.leaf_raw_rows(leaf) * frac;
                    let residual = (n_filters - 1.0).max(0.0);
                    u.index_base
                        + probes
                            * (u.index_probe * self.factors.leaf_scan(leaf)
                                + u.predicate * residual)
                        + out * u.output
                }
            }
            PhysOp::Sort { .. } => l * (l + 2.0).log2() * u.sort + out * u.output,
            PhysOp::HashJoin => l * u.hash_build + r * u.hash_probe + out * u.output,
            PhysOp::SortMergeJoin { edge } => {
                // The merge enumerates the cross product of equal-key
                // blocks: on a low-cardinality merge key (e.g. 4
                // expressways) that is far more work than l + r. Any
                // remaining cross edges are residual predicates applied
                // per pair.
                let pairs = l * r * self.edge_selectivity(edge);
                (l + r) * u.merge + pairs * u.merge + out * u.output
            }
            PhysOp::IndexNLJoin { edge } => {
                // The left child is the indexed inner, the right the
                // outer that probes it.
                let inner = alt.left.expect("INLJ has an inner").expr.rel;
                let inner_leaf = LeafId(inner.leaf());
                let (inner_rows, outer) = (l, r);
                // Index matches on the probe edge; residual cross edges
                // filter the matched pairs.
                let pairs = outer * inner_rows * self.edge_selectivity(edge);
                outer * u.index_probe * self.factors.leaf_scan(inner_leaf)
                    + pairs * u.predicate
                    + out * u.output
            }
            PhysOp::HashAgg => l * u.agg_hash + out * u.output,
            PhysOp::SortAgg => l * u.agg_sorted + out * u.output,
        };
        Cost::new(cost)
    }

    /// Recursively costs a fully resolved plan tree (used by the
    /// executor-facing layers to compare plan candidates).
    pub fn plan_cost(&mut self, q: &QuerySpec, plan: &PlanNode) -> Cost {
        let alt = AltSpec {
            op: plan.op,
            left: plan
                .children
                .first()
                .map(|c| reopt_expr::ChildRef::new(c.expr, c.prop)),
            right: plan
                .children
                .get(1)
                .map(|c| reopt_expr::ChildRef::new(c.expr, c.prop)),
        };
        let local = self.local_cost(q, plan.expr, plan.prop, &alt);
        plan.children
            .iter()
            .fold(local, |acc, c| acc + self.plan_cost(q, c))
    }

    /// Whether an alternative's local cost may have changed under the
    /// given affected set — the seed predicate for incremental
    /// re-optimization dirty marking.
    pub fn alt_affected(&self, expr: ExprId, alt: &AltSpec, affected: &AffectedSet) -> bool {
        // Any contained cardinality change alters output/child rows.
        if affected
            .leaves_card
            .iter()
            .any(|l| expr.rel.contains(l.0))
        {
            return true;
        }
        // An edge selectivity change matters once both endpoints are in
        // the result set (an edge the query does not have touches none).
        if affected.edges.iter().any(|e| {
            self.edge_rels
                .get(e.0 as usize)
                .is_some_and(|ends| ends.is_subset_of(expr.rel))
        }) {
            return true;
        }
        // Scan-cost changes hit the leaf's own access paths and INLJ
        // probes into it.
        affected.leaves_scan.iter().any(|l| match alt.op {
            PhysOp::FullScan | PhysOp::IndexScan { .. } => expr.rel == RelSet::singleton(l.0),
            PhysOp::IndexNLJoin { .. } => {
                alt.left.map(|c| c.expr.rel) == Some(RelSet::singleton(l.0))
            }
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_catalog::{CmpOp, ColumnStats, Datum, TableBuilder, TableStats};
    use reopt_expr::{enumerate_alts, ChildRef, JoinGraph};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let stats = |rows: f64, cols: usize| TableStats {
            row_count: rows,
            columns: (0..cols).map(|_| ColumnStats::uniform_key(rows)).collect(),
        };
        // `small` (100 rows), `big` (10k rows, indexed on k).
        c.add_table(
            |id| TableBuilder::new("small").int_col("k").build(id),
            stats(100.0, 1),
        );
        c.add_table(
            |id| {
                TableBuilder::new("big")
                    .int_col("k")
                    .int_col("v")
                    .index_on("k")
                    .build(id)
            },
            stats(10_000.0, 2),
        );
        c
    }

    fn query(c: &Catalog) -> QuerySpec {
        let mut b = QuerySpec::builder("q");
        let s = b.leaf(c, "small");
        let g = b.leaf(c, "big");
        b.join(c, s, "k", g, "k");
        b.filter(c, g, "v", CmpOp::Lt, Datum::Int(5000));
        b.build()
    }

    fn fixture() -> (QuerySpec, CostContext) {
        let c = catalog();
        let q = query(&c);
        let ctx = CostContext::new(&c, &q);
        (q, ctx)
    }

    #[test]
    fn leaf_rows_respect_filters() {
        let (q, mut ctx) = fixture();
        assert_eq!(ctx.leaf_out_rows(LeafId(0)), 100.0);
        // v < 5000 on a uniform 0..10k column: ~50%.
        let big = ctx.rows(&q, RelSet::singleton(1));
        assert!((big - 5000.0).abs() / 5000.0 < 0.05, "got {big}");
    }

    #[test]
    fn join_rows_use_edge_selectivity() {
        let (q, mut ctx) = fixture();
        // Keys both uniform over overlapping domains; small.k over 0..100,
        // big.k over 0..10000 — histogram overlap sel ≈ 1/10000 over the
        // shared range... just check the estimate is sane: out <= l*r and
        // out > 0.
        let l = ctx.rows(&q, RelSet::singleton(0));
        let r = ctx.rows(&q, RelSet::singleton(1));
        let out = ctx.rows(&q, RelSet(0b11));
        assert!(out > 0.0 && out <= l * r);
    }

    #[test]
    fn rows_cache_invalidated_by_deltas() {
        let (q, mut ctx) = fixture();
        let before = ctx.rows(&q, RelSet(0b11));
        let affected = ctx.apply(&[ParamDelta::EdgeSelectivity(EdgeId(0), 4.0)]);
        assert_eq!(affected.edges, vec![EdgeId(0)]);
        let after = ctx.rows(&q, RelSet(0b11));
        assert!((after / before - 4.0).abs() < 1e-6, "{before} -> {after}");
    }

    #[test]
    fn leaf_cardinality_factor_scales_rows() {
        let (q, mut ctx) = fixture();
        let before = ctx.rows(&q, RelSet::singleton(0));
        ctx.apply(&[ParamDelta::LeafCardinality(LeafId(0), 2.5)]);
        let after = ctx.rows(&q, RelSet::singleton(0));
        assert!((after / before - 2.5).abs() < 1e-9);
    }

    #[test]
    fn scan_cost_factor_scales_scan_only() {
        let (q, mut ctx) = fixture();
        let expr = ExprId::rel(RelSet::singleton(1));
        let g = JoinGraph::new(&q);
        let alts = enumerate_alts(&q, &g, expr, PhysProp::Any);
        let full = alts.iter().find(|a| a.op == PhysOp::FullScan).unwrap();
        let before = ctx.local_cost(&q, expr, PhysProp::Any, full);
        ctx.apply(&[ParamDelta::LeafScanCost(LeafId(1), 3.0)]);
        let after = ctx.local_cost(&q, expr, PhysProp::Any, full);
        assert!(after > before);
        // The other leaf's scan is untouched.
        let e0 = ExprId::rel(RelSet::singleton(0));
        let alts0 = enumerate_alts(&q, &g, e0, PhysProp::Any);
        let c0 = ctx.local_cost(&q, e0, PhysProp::Any, &alts0[0]);
        ctx.apply(&[ParamDelta::LeafScanCost(LeafId(1), 1.0)]);
        let c0_back = ctx.local_cost(&q, e0, PhysProp::Any, &alts0[0]);
        assert_eq!(c0, c0_back);
    }

    #[test]
    fn index_scan_with_covering_filter_beats_full_scan_when_selective() {
        let c = catalog();
        let mut b = QuerySpec::builder("sel");
        let g = b.leaf(&c, "big");
        b.filter(&c, g, "k", CmpOp::Lt, Datum::Int(100)); // ~1% match
        let q = b.build();
        let mut ctx = CostContext::new(&c, &q);
        let expr = ExprId::rel(RelSet::singleton(0));
        let graph = JoinGraph::new(&q);
        let alts = enumerate_alts(&q, &graph, expr, PhysProp::Any);
        let full = alts.iter().find(|a| a.op == PhysOp::FullScan).unwrap();
        let idx = alts
            .iter()
            .find(|a| matches!(a.op, PhysOp::IndexScan { .. }))
            .unwrap();
        let cf = ctx.local_cost(&q, expr, PhysProp::Any, full);
        let ci = ctx.local_cost(&q, expr, PhysProp::Any, idx);
        assert!(ci < cf, "index {ci:?} vs full {cf:?}");
    }

    #[test]
    fn indexed_prop_access_path_is_cheap() {
        let (q, mut ctx) = fixture();
        let expr = ExprId::rel(RelSet::singleton(1));
        let col = reopt_expr::LeafCol::new(1, 0);
        let alt = AltSpec {
            op: PhysOp::IndexScan { col },
            left: None,
            right: None,
        };
        let c = ctx.local_cost(&q, expr, PhysProp::Indexed(col), &alt);
        assert_eq!(c, Cost::new(UnitCosts::default().index_base));
    }

    #[test]
    fn alt_affected_predicates() {
        let (q, ctx) = fixture();
        let join_expr = ExprId::rel(RelSet(0b11));
        let join_alt = AltSpec {
            op: PhysOp::HashJoin,
            left: Some(ChildRef::new(
                ExprId::rel(RelSet::singleton(0)),
                PhysProp::Any,
            )),
            right: Some(ChildRef::new(
                ExprId::rel(RelSet::singleton(1)),
                PhysProp::Any,
            )),
        };
        let scan_expr = ExprId::rel(RelSet::singleton(0));
        let scan_alt = AltSpec {
            op: PhysOp::FullScan,
            left: None,
            right: None,
        };
        let edge_change = AffectedSet {
            edges: vec![EdgeId(0)],
            ..Default::default()
        };
        assert!(ctx.alt_affected(join_expr, &join_alt, &edge_change));
        assert!(!ctx.alt_affected(scan_expr, &scan_alt, &edge_change));
        let scan_change = AffectedSet {
            leaves_scan: vec![LeafId(0)],
            ..Default::default()
        };
        assert!(ctx.alt_affected(scan_expr, &scan_alt, &scan_change));
        assert!(!ctx.alt_affected(join_expr, &join_alt, &scan_change));
        let card_change = AffectedSet {
            leaves_card: vec![LeafId(1)],
            ..Default::default()
        };
        assert!(ctx.alt_affected(join_expr, &join_alt, &card_change));
        assert!(!ctx.alt_affected(scan_expr, &scan_alt, &card_change));
        let _ = q;
    }

    /// A hash join of two full scans.
    fn join_plan() -> PlanNode {
        let leaf = |i: u32| PlanNode {
            expr: ExprId::rel(RelSet::singleton(i)),
            prop: PhysProp::Any,
            op: PhysOp::FullScan,
            children: vec![],
        };
        PlanNode {
            expr: ExprId::rel(RelSet(0b11)),
            prop: PhysProp::Any,
            op: PhysOp::HashJoin,
            children: vec![leaf(0), leaf(1)],
        }
    }

    #[test]
    fn plan_cost_sums_tree() {
        let (q, mut ctx) = fixture();
        let plan = join_plan();
        let total = ctx.plan_cost(&q, &plan);
        let l0 = ctx.plan_cost(&q, &plan.children[0]);
        let l1 = ctx.plan_cost(&q, &plan.children[1]);
        assert!(total > l0 + l1);
        assert!(total.is_finite());
    }

    /// `Fn_sum` (rules R6–R8) as `plan_cost` applies it: a plan costs its
    /// local cost plus its children's costs, in that order, and an
    /// infinite term makes the sum infinite.
    #[test]
    fn sum_matches_fn_sum_semantics() {
        let (q, mut ctx) = fixture();
        let plan = join_plan();
        let child = |i: usize| Some(ChildRef::new(plan.children[i].expr, plan.children[i].prop));
        let alt = AltSpec {
            op: plan.op,
            left: child(0),
            right: child(1),
        };
        let local = ctx.local_cost(&q, plan.expr, plan.prop, &alt);
        let l = ctx.plan_cost(&q, &plan.children[0]);
        let r = ctx.plan_cost(&q, &plan.children[1]);
        assert_eq!(ctx.plan_cost(&q, &plan), local + l + r);
        assert_eq!(local + Cost::INFINITY + Cost::ZERO, Cost::INFINITY);
    }
}
