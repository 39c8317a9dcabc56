//! Late-materialising plan interpreter with runtime cardinality
//! collection.
//!
//! Executes the physical plan trees produced by any of the optimizers
//! over per-leaf input relations (stored tables, data partitions, or
//! stream window contents). Leaf inputs are borrowed, never copied: an
//! intermediate result is a flat vector of row ids, one slot per leaf it
//! covers, and a column `(leaf, col)` is read through its slot. Rows are
//! built once, at the plan root, and only for callers that ask for them
//! ([`Executor::run`]); the stream executor wants a count and the
//! cardinalities and materialises nothing.
//!
//! Under an aggregate most of what a plan produces is copies, as far as
//! the plan can tell: rows that agree on every column an operator above
//! still reads. Each tuple therefore carries a *weight* — the number of
//! source-row combinations it stands for. A scan emits one representative
//! per distinct projection onto the columns read above it, a join
//! multiplies weights, and once nothing above reads a leaf its slot is
//! dropped and the tuples that became equal are merged, weights summed.
//! The aggregate folds weights (`count += w`, `sum += w·v`). A
//! cardinality is the sum of the weights, so every operator still
//! records its exact output cardinality into [`ExecStats`] — the
//! feedback that drives re-optimization in §5.2.2/§5.4. Merging is an
//! economy, never a condition: a scan whose leaf shows no duplicates
//! stops looking for them, and when the root does not aggregate every
//! column is read — each row is its own representative and every weight
//! is 1.
//!
//! A leaf input may come grouped already ([`Grouped`]): the stream
//! executor keeps each window filtered and grouped on everything any
//! plan reads of its leaf, so a window scan hands representatives and
//! weights on as they are. A stored table is read row by row.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use reopt_catalog::{Catalog, CmpOp, ColId, Datum};
use reopt_common::{FxHashMap, FxHashSet, FxHasher};
use reopt_expr::{
    AggFunc, AggSpec, ExprId, LeafCol, LeafFilter, LeafId, PhysOp, PhysProp, PlanNode, QuerySpec,
};

use crate::database::{Database, Row};
use crate::layout::Layout;

/// Observed cardinalities per plan expression.
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    pub rows: FxHashMap<ExprId, f64>,
    /// The tuples the interpreter held for the expression: `rows` of
    /// them at most, fewer where one tuple stood for several.
    pub carried: FxHashMap<ExprId, f64>,
    /// Input rows the plan's scans read, whether or not they passed a
    /// filter or were merged away: the work below `carried`.
    pub scanned: u64,
}

impl ExecStats {
    fn record(&mut self, expr: ExprId, rows: u64, carried: usize) {
        self.rows.insert(expr, rows as f64);
        self.carried.insert(expr, carried as f64);
    }

    pub fn rows_of(&self, expr: ExprId) -> Option<f64> {
        self.rows.get(&expr).copied()
    }

    /// Physical tuples carried for `expr` — the work behind `rows_of`.
    pub fn carried_of(&self, expr: ExprId) -> Option<f64> {
        self.carried.get(&expr).copied()
    }
}

/// A batch executor over fixed per-leaf inputs.
pub struct Executor<'a> {
    q: &'a QuerySpec,
    inputs: Vec<Cow<'a, [Row]>>,
    /// Columns per leaf: the root layout lists them all, whether or not
    /// the leaf has a row to show for them.
    widths: Vec<usize>,
    pub stats: ExecStats,
}

impl<'a> Executor<'a> {
    /// Executes over stored tables: each leaf reads its table in full,
    /// in place.
    pub fn from_database(q: &'a QuerySpec, catalog: &Catalog, db: &'a Database) -> Executor<'a> {
        Executor {
            q,
            inputs: q
                .leaves
                .iter()
                .map(|leaf| Cow::Borrowed(&db.table(leaf.table).rows[..]))
                .collect(),
            widths: q
                .leaves
                .iter()
                .map(|leaf| catalog.table(leaf.table).columns.len())
                .collect(),
            stats: ExecStats::default(),
        }
    }

    /// Executes over explicit per-leaf inputs (data partitions, window
    /// snapshots). Without a catalog a leaf is as wide as its first row;
    /// an empty input contributes no columns to the root layout.
    pub fn with_inputs(q: &'a QuerySpec, inputs: Vec<Vec<Row>>) -> Executor<'a> {
        assert_eq!(inputs.len(), q.leaves.len(), "one input per leaf");
        Executor {
            q,
            widths: inputs
                .iter()
                .map(|rows| rows.first().map_or(0, Vec::len))
                .collect(),
            inputs: inputs.into_iter().map(Cow::Owned).collect(),
            stats: ExecStats::default(),
        }
    }

    /// Runs the plan, returning output rows and their column layout.
    pub fn run(&mut self, plan: &PlanNode) -> (Vec<Row>, Layout) {
        let inputs: Vec<LeafInput> = self
            .inputs
            .iter()
            .map(|rows| LeafInput {
                rows: rows.iter().collect(),
                grouped: None,
            })
            .collect();
        let mut interp = Interp {
            q: self.q,
            inputs: &inputs,
            stats: &mut self.stats,
        };
        match interp.run(plan) {
            Output::Tuples(rel) => {
                // No aggregate above: nothing was merged or dropped.
                debug_assert!(rel.weights.iter().all(|&w| w == 1));
                let cols: Vec<LeafCol> = rel
                    .leaves
                    .iter()
                    .flat_map(|&leaf| {
                        (0..self.widths[leaf.0 as usize] as u32).map(move |c| LeafCol {
                            leaf,
                            col: ColId(c),
                        })
                    })
                    .collect();
                let rows = rel
                    .tuples()
                    .map(|t| {
                        let mut row = Vec::with_capacity(cols.len());
                        for (leaf, &id) in rel.leaves.iter().zip(t) {
                            row.extend_from_slice(inputs[leaf.0 as usize].rows[id as usize]);
                        }
                        row
                    })
                    .collect();
                (rows, Layout::from_cols(cols))
            }
            Output::Groups(groups) => {
                let agg = self
                    .q
                    .aggregate
                    .as_ref()
                    .expect("groups come from an aggregate");
                (
                    groups.into_rows(agg),
                    Layout::from_cols(agg.group_by.clone()),
                )
            }
        }
    }
}

/// What a scan reads of one leaf: borrowed rows, by id.
pub(crate) struct LeafInput<'r> {
    pub rows: Vec<&'r Row>,
    /// Unset, the rows are the leaf's input as it lies: unfiltered, one
    /// row each.
    pub grouped: Option<Grouped<'r>>,
}

/// Rows that passed their leaf's filters and were grouped since:
/// `rows[i]` stands for `weights[i]` of them, and no two rows agree on
/// all the columns `on` (sorted; `None` for every column).
pub(crate) struct Grouped<'r> {
    pub weights: &'r [u64],
    pub on: Option<&'r [usize]>,
}

/// Runs `plan` over borrowed leaf inputs for its output cardinality and
/// the per-operator cardinalities alone.
pub(crate) fn count_rows(
    q: &QuerySpec,
    inputs: &[LeafInput],
    plan: &PlanNode,
) -> (usize, ExecStats) {
    let mut stats = ExecStats::default();
    let out = Interp {
        q,
        inputs,
        stats: &mut stats,
    }
    .run(plan);
    let n = match out {
        Output::Tuples(rel) => rel.rows() as usize,
        Output::Groups(groups) => groups.len,
    };
    (n, stats)
}

/// An intermediate result: distinct tuples of row ids into the leaf
/// inputs, each with the number of row combinations it stands for.
struct Rel {
    /// The leaves still read above, in slot order (join output = the
    /// left slots that stay, then the right ones).
    leaves: Vec<LeafId>,
    /// `leaves.len()` ids per tuple, tuple after tuple.
    ids: Vec<u32>,
    /// One weight per tuple.
    weights: Vec<u64>,
}

impl Rel {
    /// Tuples carried.
    fn len(&self) -> usize {
        self.weights.len()
    }

    /// The cardinality the tuples stand for.
    fn rows(&self) -> u64 {
        self.weights.iter().sum()
    }

    fn tuple(&self, i: usize) -> &[u32] {
        let k = self.leaves.len();
        &self.ids[i * k..(i + 1) * k]
    }

    /// A tuple may be empty (every slot dropped), so they are counted by
    /// weight, not cut out of `ids`.
    fn tuples(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(|i| self.tuple(i))
    }
}

/// The columns the operators above a node read of its output. `None`
/// when the plan root is not an aggregate: the caller is given whole
/// rows, so every column of every leaf is read.
type Reads<'a> = Option<&'a [LeafCol]>;

/// `reads` and the columns the node itself reads: what its inputs must
/// supply.
fn reading(reads: Reads, own: impl IntoIterator<Item = LeafCol>) -> Option<Vec<LeafCol>> {
    reads.map(|cols| cols.iter().copied().chain(own).collect())
}

/// A column of an intermediate result, resolved to its slot once per
/// operator.
#[derive(Clone, Copy)]
struct ColRef<'i, 'r> {
    rows: &'i [&'r Row],
    slot: usize,
    col: usize,
}

impl<'r> ColRef<'_, 'r> {
    #[inline]
    fn get(&self, tuple: &[u32]) -> &'r Datum {
        &self.rows[tuple[self.slot] as usize][self.col]
    }
}

/// The root of a plan yields tuples, or groups when it aggregates.
enum Output<'r> {
    Tuples(Rel),
    Groups(Groups<'r>),
}

struct Interp<'i, 'r> {
    q: &'i QuerySpec,
    inputs: &'i [LeafInput<'r>],
    stats: &'i mut ExecStats,
}

impl<'i, 'r> Interp<'i, 'r> {
    fn run(&mut self, plan: &PlanNode) -> Output<'r> {
        match plan.op {
            // The aggregate applies at the root only (`ExprId::agg`).
            PhysOp::HashAgg | PhysOp::SortAgg => {
                let agg = self
                    .q
                    .aggregate
                    .as_ref()
                    .expect("aggregate node requires an aggregate spec");
                let reads: Vec<LeafCol> = agg_reads(agg).collect();
                let input = self.eval(&plan.children[0], Some(&reads));
                let groups = self.aggregate(&input, agg);
                self.stats.record(plan.expr, groups.len as u64, groups.len);
                Output::Groups(groups)
            }
            _ => Output::Tuples(self.eval(plan, None)),
        }
    }

    fn eval(&mut self, node: &PlanNode, reads: Reads) -> Rel {
        let rel = match node.op {
            PhysOp::FullScan | PhysOp::IndexScan { .. } => self.scan(node, reads),
            PhysOp::Sort { col } => {
                let below = reading(reads, [col]);
                let input = self.eval(&node.children[0], below.as_deref());
                self.sort(input, col)
            }
            PhysOp::HashJoin | PhysOp::SortMergeJoin { .. } | PhysOp::IndexNLJoin { .. } => {
                self.join(node, reads)
            }
            PhysOp::HashAgg | PhysOp::SortAgg => panic!("aggregate below the plan root"),
        };
        self.stats.record(node.expr, rel.rows(), rel.len());
        rel
    }

    /// The slot a column is read through; panics if the result does not
    /// cover its leaf (planner bug).
    fn col(&self, rel: &Rel, c: LeafCol) -> ColRef<'i, 'r> {
        let slot = rel
            .leaves
            .iter()
            .position(|&l| l == c.leaf)
            .unwrap_or_else(|| panic!("column {c:?} not in layout {:?}", rel.leaves));
        ColRef {
            rows: &self.inputs[c.leaf.0 as usize].rows,
            slot,
            col: c.col.0 as usize,
        }
    }

    /// The rows passing the leaf's filters: one by one when the leaf is
    /// read in full, else one representative per distinct projection
    /// onto the columns read above, weighted by the rows it stands for.
    /// (A column only the filters read does not tell representatives
    /// apart.) An input grouped on no more than those columns is that
    /// already, and goes up as it is.
    fn scan(&mut self, node: &PlanNode, reads: Reads) -> Rel {
        let leaf_id = LeafId(node.expr.rel.leaf());
        let inputs = self.inputs;
        let LeafInput { rows, grouped } = &inputs[leaf_id.0 as usize];
        assert!(rows.len() <= u32::MAX as usize, "row ids are 32 bits wide");
        self.stats.scanned += rows.len() as u64;
        let filters = match grouped {
            Some(_) => &[][..],
            None => &self.q.leaf(leaf_id).filters[..],
        };
        let mut passing = (0u32..)
            .zip(rows)
            .filter(|(_, r)| passes(filters, r))
            .map(|(id, _)| (id, grouped.as_ref().map_or(1, |g| g.weights[id as usize])));
        let sorted = match node.prop {
            PhysProp::Sorted(c) => Some(c),
            _ => None,
        };
        let mut rel = Rel {
            leaves: vec![leaf_id],
            ids: Vec::new(),
            weights: Vec::new(),
        };
        let key = reading(reads, sorted).map(|cols| cols_of(leaf_id, cols));
        // Rows told apart by columns of the key alone stay apart on it.
        let distinct = |key: &[usize]| {
            grouped
                .as_ref()
                .and_then(|g| g.on)
                .is_some_and(|on| on.iter().all(|c| key.contains(c)))
        };
        if let Some(cols) = key.filter(|key| !distinct(key)) {
            // Looking for duplicates costs more per row than carrying
            // it, so a leaf has a trial to show some: uniform draws
            // that would shrink `n` rows by a fifth put 16 repeats among
            // the first `8·√n`. Stopping leaves later copies unmerged,
            // and every count as it was.
            let trial = (8.0 * (rows.len() as f64).sqrt()) as usize;
            let mut seen = HashChains::new(0);
            for (offered, (id, weight)) in (1..).zip(passing.by_ref()) {
                let row = rows[id as usize];
                let h = hash_datums(cols.iter().map(|&c| &row[c]));
                let found = seen.probe(h).find(|&e| {
                    let rep = rows[rel.ids[e] as usize];
                    cols.iter().all(|&c| rep[c] == row[c])
                });
                match found {
                    Some(e) => rel.weights[e] += weight,
                    None => {
                        seen.push(h);
                        rel.ids.push(id);
                        rel.weights.push(weight);
                    }
                }
                if offered == trial && offered - rel.len() < 16 {
                    break;
                }
            }
        }
        // Read in full, distinct as handed over, or past a failed trial:
        // each row for itself.
        if filters.is_empty() {
            // All that is left passes.
            let rest = passing.size_hint().1.unwrap_or(0);
            rel.ids.reserve(rest);
            rel.weights.reserve(rest);
        }
        for (id, weight) in passing {
            rel.ids.push(id);
            rel.weights.push(weight);
        }
        // Honour a sorted output property (index scans return key order;
        // a clustered scan is already sorted — sorting is then a no-op
        // pass over sorted data).
        match sorted {
            Some(c) => self.sort(rel, c),
            None => rel,
        }
    }

    /// Stable sort of the tuples by one column.
    fn sort(&self, rel: Rel, by: LeafCol) -> Rel {
        let key = self.col(&rel, by);
        let mut keyed: Vec<(&Datum, usize)> = rel.tuples().map(|t| key.get(t)).zip(0..).collect();
        keyed.sort_by(|a, b| a.0.cmp(b.0));
        let mut ids = Vec::with_capacity(rel.ids.len());
        let mut weights = Vec::with_capacity(rel.len());
        for (_, i) in keyed {
            ids.extend_from_slice(rel.tuple(i));
            weights.push(rel.weights[i]);
        }
        Rel {
            leaves: rel.leaves,
            ids,
            weights,
        }
    }

    fn join(&mut self, node: &PlanNode, reads: Reads) -> Rel {
        let (lrel, rrel) = (node.children[0].expr.rel, node.children[1].expr.rel);
        // All join edges crossing the two children, as `(left column,
        // right column)`.
        let cross: Vec<(LeafCol, LeafCol)> = self
            .q
            .edges
            .iter()
            .filter_map(|e| e.across(lrel, rrel))
            .collect();
        let below = reading(reads, cross.iter().flat_map(|&(a, b)| [a, b]));
        let l = self.eval(&node.children[0], below.as_deref());
        let r = self.eval(&node.children[1], below.as_deref());
        // The operator's own edge leads; the other edges crossing this
        // cut follow as residual predicates.
        let own_first = |edge| {
            let own = self
                .q
                .edge(edge)
                .across(lrel, rrel)
                .expect("join edge crosses children");
            let mut preds = vec![own];
            preds.extend(cross.iter().copied().filter(|p| *p != own));
            preds
        };
        let out = Collector::new(&l.leaves, &r.leaves, reads);
        match node.op {
            PhysOp::HashJoin => {
                assert!(!cross.is_empty(), "hash join without a key (cross product)");
                self.hash_probe(&l, &r, &cross, cross.len(), out)
            }
            PhysOp::SortMergeJoin { edge } => self.merge(l, r, &own_first(edge), out),
            // Left child is the indexed inner (paper Table 1); the index
            // is simulated by a hash directory over the inner key.
            PhysOp::IndexNLJoin { edge } => self.hash_probe(&l, &r, &own_first(edge), 1, out),
            _ => unreachable!("not a join: {:?}", node.op),
        }
    }

    fn resolve(
        &self,
        l: &Rel,
        r: &Rel,
        preds: &[(LeafCol, LeafCol)],
    ) -> Vec<(ColRef<'i, 'r>, ColRef<'i, 'r>)> {
        preds
            .iter()
            .map(|&(a, b)| (self.col(l, a), self.col(r, b)))
            .collect()
    }

    /// Equi-join by hashing: a chained directory over `l`, probed once
    /// per tuple of `r`. The first `key_len` predicates form the hash
    /// key; the rest are residual, checked on every key match.
    fn hash_probe(
        &self,
        l: &Rel,
        r: &Rel,
        preds: &[(LeafCol, LeafCol)],
        key_len: usize,
        mut out: Collector,
    ) -> Rel {
        let preds = self.resolve(l, r, preds);
        let key = &preds[..key_len];
        let mut table = HashChains::new(l.len());
        for lt in l.tuples() {
            table.push(hash_datums(key.iter().map(|(a, _)| a.get(lt))));
        }
        for (rt, &rw) in r.tuples().zip(&r.weights) {
            let h = hash_datums(key.iter().map(|(_, b)| b.get(rt)));
            for entry in table.probe(h) {
                let lt = l.tuple(entry);
                if preds.iter().all(|(a, b)| a.get(lt) == b.get(rt)) {
                    out.push(lt, rt, l.weights[entry] * rw);
                }
            }
        }
        out.rel
    }

    /// Sort-merge join on `preds[0]`, the rest residual. The output
    /// order is the left merge column — matches the plan's `Sorted`
    /// property when one was required.
    fn merge(&self, l: Rel, r: Rel, preds: &[(LeafCol, LeafCol)], mut out: Collector) -> Rel {
        let (lc, rc) = preds[0];
        // Children carry Sorted properties; re-sorting sorted data is a
        // cheap linear pass and keeps the operator robust.
        let l = self.sort(l, lc);
        let r = self.sort(r, rc);
        let preds = self.resolve(&l, &r, preds);
        let (lkey, rkey) = preds[0];
        let residual = &preds[1..];
        let lkeys: Vec<&Datum> = l.tuples().map(|t| lkey.get(t)).collect();
        let rkeys: Vec<&Datum> = r.tuples().map(|t| rkey.get(t)).collect();
        let (mut i, mut j) = (0usize, 0usize);
        while i < lkeys.len() && j < rkeys.len() {
            match lkeys[i].cmp(rkeys[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    // Delimit the equal blocks on both sides.
                    let key = lkeys[i];
                    let i_end = i + lkeys[i..].iter().take_while(|k| **k == key).count();
                    let j_end = j + rkeys[j..].iter().take_while(|k| **k == key).count();
                    for x in i..i_end {
                        let lt = l.tuple(x);
                        for y in j..j_end {
                            let rt = r.tuple(y);
                            if residual.iter().all(|(a, b)| a.get(lt) == b.get(rt)) {
                                out.push(lt, rt, l.weights[x] * r.weights[y]);
                            }
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        out.rel
    }

    fn aggregate(&self, rel: &Rel, agg: &AggSpec) -> Groups<'r> {
        let group_cols: Vec<ColRef> = agg.group_by.iter().map(|c| self.col(rel, *c)).collect();
        let args: Vec<Option<ColRef>> = agg
            .aggs
            .iter()
            .map(|f| agg_arg(f).map(|c| self.col(rel, c)))
            .collect();
        let mut table = HashChains::new(0);
        let mut groups = Groups {
            len: 0,
            keys: Vec::new(),
            accs: Vec::new(),
        };
        let (k, a) = (group_cols.len(), args.len());
        for (t, &w) in rel.tuples().zip(&rel.weights) {
            let h = hash_datums(group_cols.iter().map(|c| c.get(t)));
            let found = table.probe(h).find(|&g| {
                group_cols
                    .iter()
                    .zip(&groups.keys[g * k..(g + 1) * k])
                    .all(|(c, key)| c.get(t) == *key)
            });
            let g = found.unwrap_or_else(|| {
                groups.keys.extend(group_cols.iter().map(|c| c.get(t)));
                groups.accs.extend(agg.aggs.iter().map(AggAcc::new));
                groups.len += 1;
                table.push(h)
            });
            for (acc, arg) in groups.accs[g * a..(g + 1) * a].iter_mut().zip(&args) {
                acc.update(arg.map(|c| c.get(t)), w);
            }
        }
        groups
    }
}

/// Collects a join's output. Each `(left, right)` match is cut down to
/// the slots of leaves still read above the join; once a slot is
/// dropped, a tuple equal to one collected before is merged into it,
/// weights summed. With every slot kept nothing can merge: distinct
/// inputs pair into distinct outputs.
struct Collector {
    rel: Rel,
    /// The left and the right slots that stay.
    keep: [Vec<usize>; 2],
    /// A directory over `rel`'s tuples, from the first dropped slot on.
    seen: Option<HashChains>,
}

impl Collector {
    fn new(left: &[LeafId], right: &[LeafId], reads: Reads) -> Collector {
        let stay = |leaves: &[LeafId]| -> Vec<usize> {
            (0..leaves.len())
                .filter(|&s| reads.is_none_or(|cols| cols.iter().any(|c| c.leaf == leaves[s])))
                .collect()
        };
        let keep = [stay(left), stay(right)];
        let dropped = keep[0].len() + keep[1].len() < left.len() + right.len();
        Collector {
            rel: Rel {
                leaves: keep[0]
                    .iter()
                    .map(|&s| left[s])
                    .chain(keep[1].iter().map(|&s| right[s]))
                    .collect(),
                ids: Vec::new(),
                weights: Vec::new(),
            },
            keep,
            seen: dropped.then(|| HashChains::new(0)),
        }
    }

    fn push(&mut self, lt: &[u32], rt: &[u32], weight: u64) {
        let Rel {
            leaves,
            ids,
            weights,
        } = &mut self.rel;
        let start = ids.len();
        ids.extend(self.keep[0].iter().map(|&s| lt[s]));
        ids.extend(self.keep[1].iter().map(|&s| rt[s]));
        if let Some(seen) = &mut self.seen {
            let mut h = FxHasher::default();
            for &id in &ids[start..] {
                h.write_u32(id);
            }
            let h = h.finish();
            let k = leaves.len();
            let found = seen
                .probe(h)
                .find(|&e| ids[e * k..(e + 1) * k] == ids[start..]);
            if let Some(e) = found {
                // Collected before: the copy comes out again.
                ids.truncate(start);
                weights[e] += weight;
                return;
            }
            seen.push(h);
        }
        weights.push(weight);
    }
}

/// Aggregate output: per group, its key datums (borrowed from the first
/// tuple of the group) and one accumulator per aggregate function.
struct Groups<'r> {
    len: usize,
    keys: Vec<&'r Datum>,
    accs: Vec<AggAcc<'r>>,
}

impl Groups<'_> {
    /// Key columns then aggregate values, one row per group.
    fn into_rows(self, agg: &AggSpec) -> Vec<Row> {
        let (k, a) = (agg.group_by.len(), agg.aggs.len());
        let mut accs = self.accs.into_iter();
        let mut out: Vec<Row> = (0..self.len)
            .map(|g| {
                let mut row: Row = self.keys[g * k..(g + 1) * k]
                    .iter()
                    .map(|d| (*d).clone())
                    .collect();
                row.extend(accs.by_ref().take(a).map(AggAcc::finish));
                row
            })
            .collect();
        // Deterministic output order for tests and diffing.
        out.sort();
        out
    }
}

const NIL: u32 = u32::MAX;

/// A hash directory over entries numbered densely, in insertion order
/// until one is removed: `heads` holds the newest entry of each bucket,
/// `next` links it to the older ones. The keys stay with the caller,
/// which compares them on a hit. The directory doubles when its entries
/// outgrow half its buckets.
pub(crate) struct HashChains {
    shift: u32,
    heads: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
}

impl HashChains {
    /// A directory that holds `expected` entries before it first grows.
    pub(crate) fn new(expected: usize) -> HashChains {
        let buckets = (expected * 2).next_power_of_two().max(16);
        HashChains {
            // The last step of FxHash is a multiplication: the high bits
            // are the well-mixed ones.
            shift: 64 - buckets.trailing_zeros(),
            heads: vec![NIL; buckets],
            next: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Adds the next entry under `hash` and returns its number.
    pub(crate) fn push(&mut self, hash: u64) -> usize {
        let entry = self.next.len();
        assert!(entry < NIL as usize, "entry numbers are 32 bits wide");
        if (entry + 1) * 2 > self.heads.len() {
            self.grow();
        }
        let head = &mut self.heads[(hash >> self.shift) as usize];
        self.next.push(*head);
        self.hashes.push(hash);
        *head = entry as u32;
        entry
    }

    /// Twice the buckets, every chain relinked from the stored hashes in
    /// insertion order (so each stays newest first).
    fn grow(&mut self) {
        self.shift -= 1;
        let buckets = self.heads.len() * 2;
        self.heads.clear();
        self.heads.resize(buckets, NIL);
        for (entry, &hash) in self.hashes.iter().enumerate() {
            let head = &mut self.heads[(hash >> self.shift) as usize];
            self.next[entry] = *head;
            *head = entry as u32;
        }
    }

    /// Removes `entry`; the last entry takes its number, as in
    /// `Vec::swap_remove`, which the caller does to its keys.
    pub(crate) fn swap_remove(&mut self, entry: usize) {
        let last = self.next.len() - 1;
        self.relink(entry, self.next[entry]);
        if entry != last {
            self.relink(last, entry as u32);
        }
        self.next.swap_remove(entry);
        self.hashes.swap_remove(entry);
    }

    /// Points the link that leads to `entry` at `to`.
    fn relink(&mut self, entry: usize, to: u32) {
        let head = &mut self.heads[(self.hashes[entry] >> self.shift) as usize];
        if *head == entry as u32 {
            *head = to;
            return;
        }
        let mut at = *head as usize;
        while self.next[at] != entry as u32 {
            at = self.next[at] as usize;
        }
        self.next[at] = to;
    }

    /// The entries under `hash`, newest first.
    pub(crate) fn probe(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut e = self.heads[(hash >> self.shift) as usize];
        std::iter::from_fn(move || {
            while e != NIL {
                let cur = e as usize;
                e = self.next[cur];
                if self.hashes[cur] == hash {
                    return Some(cur);
                }
            }
            None
        })
    }
}

/// Hashes key datums where they lie.
pub(crate) fn hash_datums<'d>(key: impl Iterator<Item = &'d Datum>) -> u64 {
    let mut h = FxHasher::default();
    for d in key {
        d.hash(&mut h);
    }
    h.finish()
}

/// The columns of `leaf` among `cols`, sorted, each once.
pub(crate) fn cols_of(leaf: LeafId, cols: impl IntoIterator<Item = LeafCol>) -> Vec<usize> {
    let mut cols: Vec<usize> = cols
        .into_iter()
        .filter(|c| c.leaf == leaf)
        .map(|c| c.col.0 as usize)
        .collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// The columns an aggregate reads of its input.
pub(crate) fn agg_reads(agg: &AggSpec) -> impl Iterator<Item = LeafCol> + '_ {
    let args = agg.aggs.iter().filter_map(agg_arg);
    agg.group_by.iter().copied().chain(args)
}

fn agg_arg(f: &AggFunc) -> Option<LeafCol> {
    match f {
        AggFunc::CountStar => None,
        AggFunc::Count(c)
        | AggFunc::CountDistinct(c)
        | AggFunc::Sum(c)
        | AggFunc::Min(c)
        | AggFunc::Max(c) => Some(*c),
    }
}

/// Aggregate accumulator over borrowed values.
enum AggAcc<'r> {
    Count(i64),
    Distinct(FxHashSet<&'r Datum>),
    Sum(i64),
    Min(Option<&'r Datum>),
    Max(Option<&'r Datum>),
}

impl<'r> AggAcc<'r> {
    fn new(f: &AggFunc) -> AggAcc<'r> {
        match f {
            AggFunc::CountStar | AggFunc::Count(_) => AggAcc::Count(0),
            AggFunc::CountDistinct(_) => AggAcc::Distinct(FxHashSet::default()),
            AggFunc::Sum(_) => AggAcc::Sum(0),
            AggFunc::Min(_) => AggAcc::Min(None),
            AggFunc::Max(_) => AggAcc::Max(None),
        }
    }

    /// Folds in the argument (`None` for `count(*)`) of a tuple standing
    /// for `weight` rows; copies change neither the distinct values nor
    /// the extremes.
    fn update(&mut self, arg: Option<&'r Datum>, weight: u64) {
        let val = || arg.expect("aggregate function takes a column");
        match self {
            AggAcc::Count(n) => *n += weight as i64,
            AggAcc::Distinct(s) => {
                s.insert(val());
            }
            AggAcc::Sum(s) => *s += weight as i64 * val().as_int(),
            AggAcc::Min(m) => {
                if m.is_none_or(|cur| val() < cur) {
                    *m = Some(val());
                }
            }
            AggAcc::Max(m) => {
                if m.is_none_or(|cur| val() > cur) {
                    *m = Some(val());
                }
            }
        }
    }

    fn finish(self) -> Datum {
        match self {
            AggAcc::Count(n) => Datum::Int(n),
            AggAcc::Distinct(s) => Datum::Int(s.len() as i64),
            AggAcc::Sum(s) => Datum::Int(s),
            AggAcc::Min(m) | AggAcc::Max(m) => m.cloned().unwrap_or(Datum::Int(0)),
        }
    }
}

/// Whether `row` passes every filter of its leaf.
pub(crate) fn passes(filters: &[LeafFilter], row: &Row) -> bool {
    filters
        .iter()
        .all(|f| cmp_matches(&row[f.col.0 as usize], f.op, &f.value))
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

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_baselines::{optimize_system_r, optimize_volcano};
    use reopt_catalog::{Catalog, ColumnStats, TableBuilder, TableStats};
    use reopt_cost::CostContext;
    use reopt_expr::{AggSpec, JoinGraph, RelSet};

    /// Small three-table instance with deterministic synthetic data.
    fn fixture() -> (Catalog, Database) {
        let mut c = Catalog::new();
        let mut db = Database::new();
        // r(k, v): 40 rows, k = 0..40
        // s(k, j): 60 rows, k = i % 40, j = i % 10; indexed on k
        // t(j, w): 25 rows, j = i % 10
        type RowGen = fn(usize) -> Row;
        let defs: [(&str, &[&str], usize, RowGen); 3] = [
            ("r", &["k", "v"], 40, |i| {
                vec![Datum::Int(i as i64), Datum::Int((i * 7) as i64)]
            }),
            ("s", &["k", "j"], 60, |i| {
                vec![Datum::Int((i % 40) as i64), Datum::Int((i % 10) as i64)]
            }),
            ("t", &["j", "w"], 25, |i| {
                vec![Datum::Int((i % 10) as i64), Datum::Int((i * 3) as i64)]
            }),
        ];
        for (name, cols, n, gen) in defs {
            let rows: Vec<Row> = (0..n).map(gen).collect();
            let id = c.add_table(
                |id| {
                    let mut b = TableBuilder::new(name);
                    for col in cols {
                        b = b.int_col(col);
                    }
                    if name == "s" {
                        b = b.index_on("k");
                    }
                    b.build(id)
                },
                TableStats {
                    row_count: n as f64,
                    columns: vec![ColumnStats::uniform_key(n as f64); cols.len()],
                },
            );
            db.set_table(id, crate::database::TableData::new(rows));
        }
        (c, db)
    }

    fn three_way(c: &Catalog) -> QuerySpec {
        let mut b = QuerySpec::builder("rst");
        let r = b.leaf(c, "r");
        let s = b.leaf(c, "s");
        let t = b.leaf(c, "t");
        b.join(c, r, "k", s, "k");
        b.join(c, s, "j", t, "j");
        b.filter(c, r, "v", CmpOp::Lt, Datum::Int(200));
        b.build()
    }

    /// Brute-force reference: filtered cartesian product.
    fn naive(q: &QuerySpec, db: &Database, c: &Catalog) -> usize {
        let inputs: Vec<Vec<Row>> = q
            .leaves
            .iter()
            .map(|l| db.table(l.table).rows.clone())
            .collect();
        let _ = c;
        let mut count = 0usize;
        let mut idx = vec![0usize; inputs.len()];
        'outer: loop {
            let rows: Vec<&Row> = idx.iter().enumerate().map(|(l, &i)| &inputs[l][i]).collect();
            let filters_ok = q.leaves.iter().enumerate().all(|(l, leaf)| {
                leaf.filters
                    .iter()
                    .all(|f| cmp_matches(&rows[l][f.col.0 as usize], f.op, &f.value))
            });
            let edges_ok = q.edges.iter().all(|e| {
                rows[e.l.leaf.0 as usize][e.l.col.0 as usize]
                    == rows[e.r.leaf.0 as usize][e.r.col.0 as usize]
            });
            if filters_ok && edges_ok {
                count += 1;
            }
            // Odometer increment.
            for l in (0..idx.len()).rev() {
                idx[l] += 1;
                if idx[l] < inputs[l].len() {
                    continue 'outer;
                }
                idx[l] = 0;
                if l == 0 {
                    break 'outer;
                }
            }
        }
        count
    }

    #[test]
    fn optimized_plans_match_brute_force() {
        let (c, db) = fixture();
        let q = three_way(&c);
        let want = naive(&q, &db, &c);
        assert!(want > 0, "fixture produces results");
        let g = JoinGraph::new(&q);
        let mut ctx = CostContext::new(&c, &q);
        for plan in [
            optimize_system_r(&q, &g, &mut ctx).plan,
            optimize_volcano(&q, &g, &mut ctx).plan,
        ] {
            let mut exec = Executor::from_database(&q, &c, &db);
            let (rows, layout) = exec.run(&plan);
            assert_eq!(rows.len(), want, "plan:\n{plan}");
            assert_eq!(layout.width(), 6);
        }
    }

    #[test]
    fn stats_record_actual_cardinalities() {
        let (c, db) = fixture();
        let q = three_way(&c);
        let g = JoinGraph::new(&q);
        let mut ctx = CostContext::new(&c, &q);
        let plan = optimize_system_r(&q, &g, &mut ctx).plan;
        let mut exec = Executor::from_database(&q, &c, &db);
        let (rows, _) = exec.run(&plan);
        assert_eq!(
            exec.stats.rows_of(q.root_expr()),
            Some(rows.len() as f64)
        );
        // Leaf observations exist for every leaf in the plan.
        for l in 0..q.n_leaves() {
            let e = ExprId::rel(RelSet::singleton(l));
            assert!(exec.stats.rows_of(e).is_some(), "no stats for leaf {l}");
        }
    }

    #[test]
    fn aggregate_execution_groups_and_counts() {
        let (c, db) = fixture();
        let mut b = QuerySpec::builder("agg");
        let r = b.leaf(&c, "r");
        let s = b.leaf(&c, "s");
        b.join(&c, r, "k", s, "k");
        b.aggregate(AggSpec {
            group_by: vec![LeafCol::new(1, 1)], // s.j
            aggs: vec![
                AggFunc::CountStar,
                AggFunc::Sum(LeafCol::new(0, 1)),      // sum(r.v)
                AggFunc::CountDistinct(LeafCol::new(0, 0)), // count(distinct r.k)
                AggFunc::Min(LeafCol::new(0, 1)),
                AggFunc::Max(LeafCol::new(0, 1)),
            ],
        });
        let q = b.build();
        let g = JoinGraph::new(&q);
        let mut ctx = CostContext::new(&c, &q);
        let plan = optimize_system_r(&q, &g, &mut ctx).plan;
        let mut exec = Executor::from_database(&q, &c, &db);
        let (rows, _) = exec.run(&plan);
        // s.j has 10 distinct values, all of which join.
        assert_eq!(rows.len(), 10);
        for row in &rows {
            let count = row[1].as_int();
            let min = row[4].as_int();
            let max = row[5].as_int();
            assert!(count > 0);
            assert!(min <= max);
        }
        // Total count across groups equals the join size.
        let total: i64 = rows.iter().map(|r| r[1].as_int()).sum();
        let mut b2 = QuerySpec::builder("plain");
        let r2 = b2.leaf(&c, "r");
        let s2 = b2.leaf(&c, "s");
        b2.join(&c, r2, "k", s2, "k");
        let q2 = b2.build();
        assert_eq!(total as usize, naive(&q2, &db, &c));
    }

    /// `s(k, j)` — 60 rows, 40 distinct `k`, 10 distinct `j` — scanned
    /// under `count(*) group by s.j`, or under no aggregate at all.
    fn scan_s(filter_on_k: bool, aggregate: bool) -> (f64, f64) {
        let (c, db) = fixture();
        let mut b = QuerySpec::builder("scan");
        let s = b.leaf(&c, "s");
        if filter_on_k {
            b.filter(&c, s, "k", CmpOp::Lt, Datum::Int(20));
        }
        if aggregate {
            b.aggregate(AggSpec {
                group_by: vec![LeafCol::new(0, 1)],
                aggs: vec![AggFunc::CountStar],
            });
        }
        let q = b.build();
        let leaf = ExprId::rel(RelSet::singleton(0));
        let scan = PlanNode {
            expr: leaf,
            prop: PhysProp::Any,
            op: PhysOp::FullScan,
            children: vec![],
        };
        let plan = if aggregate {
            PlanNode {
                expr: q.root_expr(),
                prop: PhysProp::Any,
                op: PhysOp::HashAgg,
                children: vec![scan],
            }
        } else {
            scan
        };
        let mut exec = Executor::from_database(&q, &c, &db);
        let (rows, _) = exec.run(&plan);
        if aggregate {
            // Ten groups, and the counts add up to the rows scanned.
            assert_eq!(rows.len(), 10);
            let total: i64 = rows.iter().map(|r| r[1].as_int()).sum();
            assert_eq!(Some(total as f64), exec.stats.rows_of(leaf));
        }
        (
            exec.stats.rows_of(leaf).unwrap(),
            exec.stats.carried_of(leaf).unwrap(),
        )
    }

    #[test]
    fn scan_merges_duplicates_on_the_columns_read_above() {
        assert_eq!(scan_s(false, true), (60.0, 10.0));
    }

    #[test]
    fn scan_of_a_leaf_read_in_full_carries_every_row() {
        assert_eq!(scan_s(false, false), (60.0, 60.0));
        assert_eq!(scan_s(true, false), (40.0, 40.0));
    }

    #[test]
    fn a_column_only_the_filter_reads_does_not_split_representatives() {
        // `k < 20` passes 40 rows with 20 distinct `k`; `j` alone is
        // read above, and has 10 values among them.
        assert_eq!(scan_s(true, true), (40.0, 10.0));
    }

    #[test]
    fn a_scan_that_meets_no_duplicates_stops_looking_and_counts_stay_exact() {
        // 500 distinct keys, then 500 copies of key 0: the trial (the
        // first 8·√1000 = 252 rows) sees no repeat, so the copies are
        // carried one by one — and still counted.
        let mut c = Catalog::new();
        let mut db = Database::new();
        let id = c.add_table(
            |id| TableBuilder::new("u").int_col("k").build(id),
            TableStats {
                row_count: 1000.0,
                columns: vec![ColumnStats::uniform_key(500.0)],
            },
        );
        let key = |i: i64| if i < 500 { i } else { 0 };
        let rows = (0..1000).map(|i| vec![Datum::Int(key(i))]).collect();
        db.set_table(id, crate::database::TableData::new(rows));
        let mut b = QuerySpec::builder("late-copies");
        b.leaf(&c, "u");
        b.aggregate(AggSpec {
            group_by: vec![LeafCol::new(0, 0)],
            aggs: vec![AggFunc::CountStar],
        });
        let q = b.build();
        let leaf = ExprId::rel(RelSet::singleton(0));
        let plan = PlanNode {
            expr: q.root_expr(),
            prop: PhysProp::Any,
            op: PhysOp::HashAgg,
            children: vec![PlanNode {
                expr: leaf,
                prop: PhysProp::Any,
                op: PhysOp::FullScan,
                children: vec![],
            }],
        };
        let mut exec = Executor::from_database(&q, &c, &db);
        let (rows, _) = exec.run(&plan);
        assert_eq!(rows.len(), 500);
        assert_eq!(rows[0], vec![Datum::Int(0), Datum::Int(501)]);
        assert!(rows[1..].iter().all(|r| r[1] == Datum::Int(1)));
        assert_eq!(exec.stats.rows_of(leaf), Some(1000.0));
        assert_eq!(exec.stats.carried_of(leaf), Some(1000.0));
    }

    #[test]
    fn a_grouped_input_is_merged_again_only_below_its_own_key() {
        // `s(k, j)` under `count(*) group by s.j`, handed over as 40
        // weighted rows: told apart by `j` alone they go up as they are;
        // told apart by `(k, j)` the scan merges them on `j`. Either way
        // the weights add up and no filter is applied twice.
        let (c, _) = fixture();
        let mut b = QuerySpec::builder("grouped");
        let s = b.leaf(&c, "s");
        b.filter(&c, s, "k", CmpOp::Lt, Datum::Int(0));
        b.aggregate(AggSpec {
            group_by: vec![LeafCol::new(0, 1)],
            aggs: vec![AggFunc::CountStar],
        });
        let q = b.build();
        let leaf = ExprId::rel(RelSet::singleton(0));
        let plan = PlanNode {
            expr: q.root_expr(),
            prop: PhysProp::Any,
            op: PhysOp::HashAgg,
            children: vec![PlanNode {
                expr: leaf,
                prop: PhysProp::Any,
                op: PhysOp::FullScan,
                children: vec![],
            }],
        };
        let rows: Vec<Row> = (0..40)
            .map(|i| vec![Datum::Int(i), Datum::Int(i % 10)])
            .collect();
        let weights: Vec<u64> = (1..=40).collect();
        for (on, carried) in [(&[1][..], 40.0), (&[0, 1], 10.0)] {
            let input = LeafInput {
                rows: rows.iter().collect(),
                grouped: Some(Grouped {
                    weights: &weights,
                    on: Some(on),
                }),
            };
            let (groups, stats) = count_rows(&q, &[input], &plan);
            assert_eq!(groups, 10);
            assert_eq!(stats.rows_of(leaf), Some(820.0));
            assert_eq!(stats.carried_of(leaf), Some(carried));
            assert_eq!(stats.scanned, 40);
        }
    }

    #[test]
    fn a_directory_with_removals_finds_what_a_list_of_hashes_does() {
        // Few distinct hashes over few buckets: long chains, and a
        // removed entry is often the neighbour of the one that takes its
        // number.
        let mut dir = HashChains::new(0);
        let mut model: Vec<u64> = Vec::new();
        let mut x = 1u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let hash = (((x >> 33) % 7) << 60) | ((x >> 40) % 3);
            if (x >> 20) % 5 < 3 || model.is_empty() {
                assert_eq!(dir.push(hash), model.len());
                model.push(hash);
            } else {
                let entry = (x >> 7) as usize % model.len();
                dir.swap_remove(entry);
                model.swap_remove(entry);
            }
            let mut found: Vec<usize> = dir.probe(hash).collect();
            found.sort_unstable();
            let want: Vec<usize> = (0..model.len()).filter(|&e| model[e] == hash).collect();
            assert_eq!(found, want);
        }
    }

    #[test]
    fn sorted_scan_orders_output() {
        let (c, db) = fixture();
        let mut b = QuerySpec::builder("sorted");
        let s = b.leaf(&c, "s");
        let _ = s;
        let q = b.build();
        let plan = PlanNode {
            expr: ExprId::rel(RelSet::singleton(0)),
            prop: reopt_expr::PhysProp::Sorted(LeafCol::new(0, 0)),
            op: PhysOp::IndexScan {
                col: LeafCol::new(0, 0),
            },
            children: vec![],
        };
        let mut exec = Executor::from_database(&q, &c, &db);
        let (rows, layout) = exec.run(&plan);
        let pos = layout.pos(LeafCol::new(0, 0));
        assert!(rows.windows(2).all(|w| w[0][pos] <= w[1][pos]));
    }

    #[test]
    fn merge_join_handles_duplicate_blocks() {
        // s has duplicate keys (60 rows over 40 distinct k): the merge
        // join must produce every pairing within equal blocks.
        let (c, db) = fixture();
        let mut b = QuerySpec::builder("dup");
        let r = b.leaf(&c, "r");
        let s = b.leaf(&c, "s");
        b.join(&c, r, "k", s, "k");
        let q = b.build();
        let want = naive(&q, &db, &c);
        // Force a sort-merge plan.
        let plan = PlanNode {
            expr: ExprId::rel(RelSet(0b11)),
            prop: reopt_expr::PhysProp::Any,
            op: PhysOp::SortMergeJoin {
                edge: reopt_expr::EdgeId(0),
            },
            children: vec![
                PlanNode {
                    expr: ExprId::rel(RelSet::singleton(0)),
                    prop: reopt_expr::PhysProp::Sorted(LeafCol::new(0, 0)),
                    op: PhysOp::Sort {
                        col: LeafCol::new(0, 0),
                    },
                    children: vec![PlanNode {
                        expr: ExprId::rel(RelSet::singleton(0)),
                        prop: reopt_expr::PhysProp::Any,
                        op: PhysOp::FullScan,
                        children: vec![],
                    }],
                },
                PlanNode {
                    expr: ExprId::rel(RelSet::singleton(1)),
                    prop: reopt_expr::PhysProp::Sorted(LeafCol::new(1, 0)),
                    op: PhysOp::IndexScan {
                        col: LeafCol::new(1, 0),
                    },
                    children: vec![],
                },
            ],
        };
        let mut exec = Executor::from_database(&q, &c, &db);
        let (rows, _) = exec.run(&plan);
        assert_eq!(rows.len(), want);
    }
}
