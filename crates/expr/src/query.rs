//! Query specifications: the optimizer's input.
//!
//! A [`QuerySpec`] is a single-block select-project-join-aggregate query
//! over a set of *leaves*. A leaf is a base table or a windowed stream
//! alias (self-joins, as in the Linear Road `SegTollS` query, are
//! expressed as multiple leaves over the same table). Join predicates are
//! equi-join *edges* between leaf columns; local predicates are attached
//! to leaves; an optional aggregate caps the query.

use reopt_catalog::{Catalog, CmpOp, ColId, Datum, TableId};

use crate::relset::RelSet;

/// Index of a leaf within a query (0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeafId(pub u32);

/// Index of a join edge within a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// A column of a specific query leaf: `(leaf, column)` rather than
/// `(table, column)`, so it is unambiguous under self-joins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeafCol {
    pub leaf: LeafId,
    pub col: ColId,
}

impl LeafCol {
    pub fn new(leaf: u32, col: u32) -> LeafCol {
        LeafCol {
            leaf: LeafId(leaf),
            col: ColId(col),
        }
    }
}

/// A local (selection) predicate on a leaf: `col <op> literal`.
#[derive(Clone, Debug)]
pub struct LeafFilter {
    pub col: ColId,
    pub op: CmpOp,
    pub value: Datum,
}

/// Stream window specification (paper §5 `SegTollS`, e.g.
/// `CarLocStr [size 300 time]`, `[size 1 tuple partition by carid]`).
#[derive(Clone, Debug, PartialEq)]
pub enum WindowSpec {
    /// `[size N time]`: all tuples in the last N time units.
    Time { seconds: f64 },
    /// `[size N tuple]`: the last N tuples.
    Tuples { count: u64 },
    /// `[size N tuple partition by cols]`: the last N tuples per group.
    PartitionedTuples { cols: Vec<ColId>, count: u64 },
}

/// A query leaf.
#[derive(Clone, Debug)]
pub struct Leaf {
    pub table: TableId,
    pub alias: String,
    pub filters: Vec<LeafFilter>,
    pub window: Option<WindowSpec>,
    /// Columns of the underlying table with a secondary index
    /// (denormalized from the catalog at build time so enumeration does
    /// not need catalog access).
    pub indexed_cols: Vec<ColId>,
    /// Physical sort column of the underlying table, if any.
    pub clustered_on: Option<ColId>,
}

/// An equi-join edge `l = r` between two leaf columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JoinEdge {
    pub l: LeafCol,
    pub r: LeafCol,
}

impl JoinEdge {
    /// Leaf-set containing both endpoints.
    pub fn rels(&self) -> RelSet {
        RelSet::singleton(self.l.leaf.0).union(RelSet::singleton(self.r.leaf.0))
    }

    /// Returns `(endpoint in side, endpoint in other)` if the edge crosses
    /// the `(side, other)` cut, else `None`.
    pub fn across(&self, side: RelSet, other: RelSet) -> Option<(LeafCol, LeafCol)> {
        if side.contains(self.l.leaf.0) && other.contains(self.r.leaf.0) {
            Some((self.l, self.r))
        } else if side.contains(self.r.leaf.0) && other.contains(self.l.leaf.0) {
            Some((self.r, self.l))
        } else {
            None
        }
    }
}

/// Aggregate functions supported by the executor and costed uniformly by
/// the optimizer.
#[derive(Clone, Debug, PartialEq)]
pub enum AggFunc {
    CountStar,
    Count(LeafCol),
    CountDistinct(LeafCol),
    Sum(LeafCol),
    Min(LeafCol),
    Max(LeafCol),
}

/// A `GROUP BY` + aggregate list.
#[derive(Clone, Debug, Default)]
pub struct AggSpec {
    pub group_by: Vec<LeafCol>,
    pub aggs: Vec<AggFunc>,
}

/// Identifies a memo expression: a leaf set plus whether the (single,
/// top-level) aggregate has been applied. `Q5` and `Q5S` (aggregate
/// removed) differ exactly in whether an `agg` root group exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId {
    pub rel: RelSet,
    pub agg: bool,
}

impl ExprId {
    pub fn rel(rel: RelSet) -> ExprId {
        ExprId { rel, agg: false }
    }
}

/// A single-block query.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    pub name: String,
    pub leaves: Vec<Leaf>,
    pub edges: Vec<JoinEdge>,
    pub aggregate: Option<AggSpec>,
    /// Output columns (ignored by the optimizer, used by the executor).
    pub projection: Vec<LeafCol>,
}

impl QuerySpec {
    /// The most leaves a query may hold: [`RelSet`] is a `u32` mask.
    pub const MAX_LEAVES: u32 = 32;

    pub fn leaf(&self, id: LeafId) -> &Leaf {
        &self.leaves[id.0 as usize]
    }

    pub fn edge(&self, id: EdgeId) -> &JoinEdge {
        &self.edges[id.0 as usize]
    }

    pub fn n_leaves(&self) -> u32 {
        self.leaves.len() as u32
    }

    /// The full leaf set.
    pub fn all_rels(&self) -> RelSet {
        RelSet::full(self.n_leaves())
    }

    /// The root memo expression.
    pub fn root_expr(&self) -> ExprId {
        ExprId {
            rel: self.all_rels(),
            agg: self.aggregate.is_some(),
        }
    }

    /// Edge ids crossing the `(l, r)` cut.
    pub fn edges_across(&self, l: RelSet, r: RelSet) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.iter().enumerate().filter_map(move |(i, e)| {
            e.across(l, r).map(|_| EdgeId(i as u32))
        })
    }

    /// Builder entry point.
    pub fn builder(name: impl Into<String>) -> QueryBuilder {
        QueryBuilder {
            name: name.into(),
            leaves: Vec::new(),
            edges: Vec::new(),
            aggregate: None,
            projection: Vec::new(),
        }
    }
}

/// Fluent builder resolving table/column names against a [`Catalog`].
pub struct QueryBuilder {
    name: String,
    leaves: Vec<Leaf>,
    edges: Vec<JoinEdge>,
    aggregate: Option<AggSpec>,
    projection: Vec<LeafCol>,
}

impl QueryBuilder {
    /// Adds a leaf over `table_name`, returning its [`LeafId`].
    pub fn leaf(&mut self, catalog: &Catalog, table_name: &str) -> LeafId {
        self.leaf_aliased(catalog, table_name, table_name)
    }

    /// Adds an aliased leaf (needed for self-joins). Panics past
    /// [`QuerySpec::MAX_LEAVES`].
    pub fn leaf_aliased(&mut self, catalog: &Catalog, table_name: &str, alias: &str) -> LeafId {
        let table = catalog
            .table_by_name(table_name)
            .unwrap_or_else(|| panic!("unknown table `{table_name}`"));
        assert!(
            self.leaves.len() < QuerySpec::MAX_LEAVES as usize,
            "leaf `{alias}` would be leaf {}: a query holds at most {} leaves (a leaf set is a \
             32-bit mask)",
            self.leaves.len() + 1,
            QuerySpec::MAX_LEAVES
        );
        let id = LeafId(self.leaves.len() as u32);
        self.leaves.push(Leaf {
            table: table.id,
            alias: alias.to_string(),
            filters: Vec::new(),
            window: None,
            indexed_cols: table.indexed.clone(),
            clustered_on: table.clustered_on,
        });
        id
    }

    /// Attaches a window to the most recently added leaf.
    pub fn window(&mut self, leaf: LeafId, window: WindowSpec) -> &mut Self {
        self.leaves[leaf.0 as usize].window = Some(window);
        self
    }

    /// Adds a local predicate `leaf.col <op> value`.
    pub fn filter(
        &mut self,
        catalog: &Catalog,
        leaf: LeafId,
        col: &str,
        op: CmpOp,
        value: Datum,
    ) -> &mut Self {
        let table = catalog.table(self.leaves[leaf.0 as usize].table);
        let col = table
            .col(col)
            .unwrap_or_else(|| panic!("unknown column `{col}` on `{}`", table.name));
        self.leaves[leaf.0 as usize]
            .filters
            .push(LeafFilter { col, op, value });
        self
    }

    /// Adds an equi-join edge `a.ca = b.cb`.
    pub fn join(
        &mut self,
        catalog: &Catalog,
        a: LeafId,
        ca: &str,
        b: LeafId,
        cb: &str,
    ) -> EdgeId {
        let resolve = |leaf: LeafId, col: &str| -> LeafCol {
            let table = catalog.table(self.leaves[leaf.0 as usize].table);
            let col = table
                .col(col)
                .unwrap_or_else(|| panic!("unknown column `{col}` on `{}`", table.name));
            LeafCol { leaf, col }
        };
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(JoinEdge {
            l: resolve(a, ca),
            r: resolve(b, cb),
        });
        id
    }

    pub fn aggregate(&mut self, agg: AggSpec) -> &mut Self {
        self.aggregate = Some(agg);
        self
    }

    pub fn build(self) -> QuerySpec {
        assert!(!self.leaves.is_empty(), "query needs at least one leaf");
        QuerySpec {
            name: self.name,
            leaves: self.leaves,
            edges: self.edges,
            aggregate: self.aggregate,
            projection: self.projection,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_catalog::{ColumnStats, TableBuilder, TableStats};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, cols) in [("r", vec!["rk"]), ("s", vec!["rk", "sk"]), ("t", vec!["sk"])] {
            let n = cols.len();
            c.add_table(
                |id| {
                    let mut b = TableBuilder::new(name);
                    for col in &cols {
                        b = b.int_col(col);
                    }
                    b.build(id)
                },
                TableStats {
                    row_count: 100.0,
                    columns: (0..n).map(|_| ColumnStats::uniform_key(100.0)).collect(),
                },
            );
        }
        c
    }

    fn chain_query() -> QuerySpec {
        let c = catalog();
        let mut b = QuerySpec::builder("chain");
        let r = b.leaf(&c, "r");
        let s = b.leaf(&c, "s");
        let t = b.leaf(&c, "t");
        b.join(&c, r, "rk", s, "rk");
        b.join(&c, s, "sk", t, "sk");
        b.filter(&c, r, "rk", CmpOp::Lt, Datum::Int(50));
        b.build()
    }

    #[test]
    fn builder_resolves_names() {
        let q = chain_query();
        assert_eq!(q.n_leaves(), 3);
        assert_eq!(q.edges.len(), 2);
        assert_eq!(q.edges[0].l, LeafCol::new(0, 0));
        assert_eq!(q.edges[0].r, LeafCol::new(1, 0));
        assert_eq!(q.leaves[0].filters.len(), 1);
    }

    #[test]
    fn edge_across_detects_cuts() {
        let q = chain_query();
        let e0 = q.edges[0];
        let l = RelSet::singleton(0);
        let r = RelSet::singleton(1).union(RelSet::singleton(2));
        let (a, b) = e0.across(l, r).unwrap();
        assert_eq!(a.leaf, LeafId(0));
        assert_eq!(b.leaf, LeafId(1));
        // Reversed cut flips the endpoints.
        let (a2, _) = e0.across(r, l).unwrap();
        assert_eq!(a2.leaf, LeafId(1));
        // Edge 1 (s-t) does not cross the {r} | {s,t} cut.
        assert!(q.edges[1].across(l, r).is_none());
    }

    #[test]
    fn edges_across_enumerates_ids() {
        let q = chain_query();
        let l = RelSet::singleton(1); // {s}
        let r = RelSet::singleton(0).union(RelSet::singleton(2)); // {r,t}
        let ids: Vec<EdgeId> = q.edges_across(l, r).collect();
        assert_eq!(ids, vec![EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn root_expr_reflects_aggregate() {
        let mut q = chain_query();
        assert!(!q.root_expr().agg);
        q.aggregate = Some(AggSpec::default());
        assert!(q.root_expr().agg);
        assert_eq!(q.root_expr().rel, RelSet::full(3));
    }

    #[test]
    #[should_panic(expected = "unknown table")]
    fn unknown_table_panics() {
        let c = catalog();
        QuerySpec::builder("bad").leaf(&c, "nope");
    }

    #[test]
    fn a_query_holds_32_leaves() {
        let c = catalog();
        let mut b = QuerySpec::builder("wide");
        for _ in 0..32 {
            b.leaf(&c, "r");
        }
        assert_eq!(b.build().all_rels(), RelSet(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "at most 32 leaves")]
    fn a_33rd_leaf_panics() {
        let c = catalog();
        let mut b = QuerySpec::builder("too wide");
        for _ in 0..33 {
            b.leaf(&c, "r");
        }
    }
}
