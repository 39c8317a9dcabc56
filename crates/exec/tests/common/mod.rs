//! The row-materialising plan interpreter `reopt-exec` shipped before
//! its late-materialising one, kept as the reference the differential
//! and stream-equivalence suites compare against: every operator clones
//! its input rows into fresh output rows and resolves columns through a
//! per-node [`Layout`].
//!
//! The operator bodies are the old ones, verbatim. The one difference:
//! a leaf's width is passed in. The old code guessed it from the leaf's
//! first row and so could not run over an empty input — the defect the
//! regression tests pin, not behaviour to compare against.
#![allow(dead_code)]

pub mod plans;

use reopt_catalog::{CmpOp, Datum};
use reopt_common::FxHashMap;
use reopt_exec::database::Row;
use reopt_exec::{ExecStats, Layout};
use reopt_expr::{AggFunc, ExprId, JoinEdge, LeafCol, LeafId, PhysOp, PlanNode, QuerySpec, RelSet};

fn record(stats: &mut ExecStats, expr: ExprId, count: usize) {
    stats.rows.insert(expr, count as f64);
}

/// A batch executor over fixed per-leaf inputs.
pub struct RefExecutor<'a> {
    q: &'a QuerySpec,
    inputs: Vec<Vec<Row>>,
    widths: Vec<usize>,
    pub stats: ExecStats,
}

impl<'a> RefExecutor<'a> {
    /// Executes over explicit per-leaf inputs, `widths[leaf]` columns
    /// wide.
    pub fn with_inputs(
        q: &'a QuerySpec,
        inputs: Vec<Vec<Row>>,
        widths: Vec<usize>,
    ) -> RefExecutor<'a> {
        assert_eq!(inputs.len(), q.leaves.len(), "one input per leaf");
        assert_eq!(widths.len(), q.leaves.len(), "one width per leaf");
        RefExecutor {
            q,
            inputs,
            widths,
            stats: ExecStats::default(),
        }
    }

    /// Runs the plan, returning output rows and their column layout.
    pub fn run(&mut self, plan: &PlanNode) -> (Vec<Row>, Layout) {
        self.eval(plan)
    }

    fn eval(&mut self, node: &PlanNode) -> (Vec<Row>, Layout) {
        let (rows, layout) = match node.op {
            PhysOp::FullScan | PhysOp::IndexScan { .. } => self.eval_scan(node),
            PhysOp::Sort { col } => {
                let (mut rows, layout) = self.eval(&node.children[0]);
                let pos = layout.pos(col);
                rows.sort_by(|a, b| a[pos].cmp(&b[pos]));
                (rows, layout)
            }
            PhysOp::HashJoin => self.eval_hash_join(node),
            PhysOp::SortMergeJoin { edge } => self.eval_merge_join(node, edge),
            PhysOp::IndexNLJoin { edge } => self.eval_index_join(node, edge),
            PhysOp::HashAgg | PhysOp::SortAgg => self.eval_agg(node),
        };
        record(&mut self.stats, node.expr, rows.len());
        (rows, layout)
    }

    fn eval_scan(&mut self, node: &PlanNode) -> (Vec<Row>, Layout) {
        let leaf_id = LeafId(node.expr.rel.leaf());
        let leaf = self.q.leaf(leaf_id);
        let rows: Vec<Row> = self.inputs[leaf_id.0 as usize]
            .iter()
            .filter(|r| {
                leaf.filters
                    .iter()
                    .all(|f| cmp_matches(&r[f.col.0 as usize], f.op, &f.value))
            })
            .cloned()
            .collect();
        let layout = Layout::for_leaf(self.q, leaf_id, self.widths[leaf_id.0 as usize]);
        let mut rows = rows;
        // Honour a sorted output property (index scans return key order;
        // a clustered scan is already sorted — sorting is then a no-op
        // pass over sorted data).
        if let reopt_expr::PhysProp::Sorted(c) = node.prop {
            let pos = layout.pos(c);
            rows.sort_by(|a, b| a[pos].cmp(&b[pos]));
        }
        (rows, layout)
    }

    /// All join edges crossing the two children, resolved as
    /// `(left column, right column)`.
    fn cross_edges(&self, l: RelSet, r: RelSet) -> Vec<(LeafCol, LeafCol)> {
        self.q.edges.iter().filter_map(|e| e.across(l, r)).collect()
    }

    fn eval_hash_join(&mut self, node: &PlanNode) -> (Vec<Row>, Layout) {
        let (lrows, llay) = self.eval(&node.children[0]);
        let (rrows, rlay) = self.eval(&node.children[1]);
        let keys = self.cross_edges(node.children[0].expr.rel, node.children[1].expr.rel);
        assert!(!keys.is_empty(), "hash join without a key (cross product)");
        let lpos: Vec<usize> = keys.iter().map(|(lc, _)| llay.pos(*lc)).collect();
        let rpos: Vec<usize> = keys.iter().map(|(_, rc)| rlay.pos(*rc)).collect();
        let mut table: FxHashMap<Vec<Datum>, Vec<usize>> = FxHashMap::default();
        for (i, row) in lrows.iter().enumerate() {
            let key: Vec<Datum> = lpos.iter().map(|&p| row[p].clone()).collect();
            table.entry(key).or_default().push(i);
        }
        let mut out = Vec::new();
        for rrow in &rrows {
            let key: Vec<Datum> = rpos.iter().map(|&p| rrow[p].clone()).collect();
            if let Some(matches) = table.get(&key) {
                for &li in matches {
                    let mut row = lrows[li].clone();
                    row.extend(rrow.iter().cloned());
                    out.push(row);
                }
            }
        }
        (out, llay.concat(&rlay))
    }

    fn eval_merge_join(&mut self, node: &PlanNode, edge: reopt_expr::EdgeId) -> (Vec<Row>, Layout) {
        let (mut lrows, llay) = self.eval(&node.children[0]);
        let (mut rrows, rlay) = self.eval(&node.children[1]);
        let lrel = node.children[0].expr.rel;
        let rrel = node.children[1].expr.rel;
        let e: &JoinEdge = self.q.edge(edge);
        let (lc, rc) = e.across(lrel, rrel).expect("merge edge crosses children");
        let lp = llay.pos(lc);
        let rp = rlay.pos(rc);
        // Children carry Sorted properties; re-sorting sorted data is a
        // cheap linear pass and keeps the operator robust.
        lrows.sort_by(|a, b| a[lp].cmp(&b[lp]));
        rrows.sort_by(|a, b| a[rp].cmp(&b[rp]));
        // Residual predicates: the other edges crossing this cut.
        let residual: Vec<(usize, usize)> = self
            .cross_edges(lrel, rrel)
            .into_iter()
            .filter(|&(a, b)| !(a == lc && b == rc))
            .map(|(a, b)| (llay.pos(a), rlay.pos(b)))
            .collect();
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < lrows.len() && j < rrows.len() {
            match lrows[i][lp].cmp(&rrows[j][rp]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // Delimit the equal blocks on both sides.
                    let key = lrows[i][lp].clone();
                    let i_end = (i..lrows.len())
                        .find(|&x| lrows[x][lp] != key)
                        .unwrap_or(lrows.len());
                    let j_end = (j..rrows.len())
                        .find(|&x| rrows[x][rp] != key)
                        .unwrap_or(rrows.len());
                    for lrow in &lrows[i..i_end] {
                        for rrow in &rrows[j..j_end] {
                            if residual.iter().all(|&(a, b)| lrow[a] == rrow[b]) {
                                let mut row = lrow.clone();
                                row.extend(rrow.iter().cloned());
                                out.push(row);
                            }
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        let layout = llay.concat(&rlay);
        // The output order is the left merge column — matches the plan's
        // Sorted property when one was required.
        (out, layout)
    }

    fn eval_index_join(&mut self, node: &PlanNode, edge: reopt_expr::EdgeId) -> (Vec<Row>, Layout) {
        // Left child is the indexed inner (paper Table 1).
        let (irows, ilay) = self.eval(&node.children[0]);
        let (orows, olay) = self.eval(&node.children[1]);
        let irel = node.children[0].expr.rel;
        let orel = node.children[1].expr.rel;
        let e = self.q.edge(edge);
        let (ic, oc) = e.across(irel, orel).expect("index edge crosses children");
        let ip = ilay.pos(ic);
        let op = olay.pos(oc);
        let residual: Vec<(usize, usize)> = self
            .cross_edges(irel, orel)
            .into_iter()
            .filter(|&(a, b)| !(a == ic && b == oc))
            .map(|(a, b)| (ilay.pos(a), olay.pos(b)))
            .collect();
        // Simulated index: hash map over the inner key.
        let mut index: FxHashMap<Datum, Vec<usize>> = FxHashMap::default();
        for (i, row) in irows.iter().enumerate() {
            index.entry(row[ip].clone()).or_default().push(i);
        }
        let mut out = Vec::new();
        for orow in &orows {
            if let Some(matches) = index.get(&orow[op]) {
                for &ii in matches {
                    if residual.iter().all(|&(a, b)| irows[ii][a] == orow[b]) {
                        let mut row = irows[ii].clone();
                        row.extend(orow.iter().cloned());
                        out.push(row);
                    }
                }
            }
        }
        (out, ilay.concat(&olay))
    }

    fn eval_agg(&mut self, node: &PlanNode) -> (Vec<Row>, Layout) {
        let (rows, layout) = self.eval(&node.children[0]);
        let agg = self
            .q
            .aggregate
            .as_ref()
            .expect("aggregate node requires an aggregate spec");
        let group_pos: Vec<usize> = agg.group_by.iter().map(|c| layout.pos(*c)).collect();
        let mut groups: FxHashMap<Vec<Datum>, Vec<AggAcc>> = FxHashMap::default();
        for row in &rows {
            let key: Vec<Datum> = group_pos.iter().map(|&p| row[p].clone()).collect();
            let accs = groups
                .entry(key)
                .or_insert_with(|| agg.aggs.iter().map(AggAcc::new).collect());
            for (acc, f) in accs.iter_mut().zip(&agg.aggs) {
                acc.update(f, row, &layout);
            }
        }
        let mut out: Vec<Row> = groups
            .into_iter()
            .map(|(key, accs)| {
                let mut row = key;
                row.extend(accs.into_iter().map(AggAcc::finish));
                row
            })
            .collect();
        // Deterministic output order for tests and diffing.
        out.sort();
        (out, Layout::from_cols(agg.group_by.clone()))
    }
}

/// Aggregate accumulator.
enum AggAcc {
    Count(i64),
    Distinct(std::collections::BTreeSet<Datum>),
    Sum(i64),
    Min(Option<Datum>),
    Max(Option<Datum>),
}

impl AggAcc {
    fn new(f: &AggFunc) -> AggAcc {
        match f {
            AggFunc::CountStar | AggFunc::Count(_) => AggAcc::Count(0),
            AggFunc::CountDistinct(_) => AggAcc::Distinct(Default::default()),
            AggFunc::Sum(_) => AggAcc::Sum(0),
            AggFunc::Min(_) => AggAcc::Min(None),
            AggFunc::Max(_) => AggAcc::Max(None),
        }
    }

    fn update(&mut self, f: &AggFunc, row: &Row, layout: &Layout) {
        let val = |c: &LeafCol| row[layout.pos(*c)].clone();
        match (self, f) {
            (AggAcc::Count(n), AggFunc::CountStar) => *n += 1,
            (AggAcc::Count(n), AggFunc::Count(_)) => *n += 1,
            (AggAcc::Distinct(s), AggFunc::CountDistinct(c)) => {
                s.insert(val(c));
            }
            (AggAcc::Sum(s), AggFunc::Sum(c)) => *s += val(c).as_int(),
            (AggAcc::Min(m), AggFunc::Min(c)) => {
                let v = val(c);
                if m.as_ref().is_none_or(|cur| v < *cur) {
                    *m = Some(v);
                }
            }
            (AggAcc::Max(m), AggFunc::Max(c)) => {
                let v = val(c);
                if m.as_ref().is_none_or(|cur| v > *cur) {
                    *m = Some(v);
                }
            }
            _ => unreachable!("accumulator/function mismatch"),
        }
    }

    fn finish(self) -> Datum {
        match self {
            AggAcc::Count(n) => Datum::Int(n),
            AggAcc::Distinct(s) => Datum::Int(s.len() as i64),
            AggAcc::Sum(s) => Datum::Int(s),
            AggAcc::Min(m) | AggAcc::Max(m) => m.unwrap_or(Datum::Int(0)),
        }
    }
}

/// Predicate evaluation.
pub fn cmp_matches(v: &Datum, op: CmpOp, lit: &Datum) -> bool {
    match op {
        CmpOp::Eq => v == lit,
        CmpOp::Ne => v != lit,
        CmpOp::Lt => v < lit,
        CmpOp::Le => v <= lit,
        CmpOp::Gt => v > lit,
        CmpOp::Ge => v >= lit,
    }
}
