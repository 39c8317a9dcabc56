//! Small synthetic catalogs and queries shared by the unit tests and
//! property tests of this crate and the crates above it. (The realistic
//! TPC-H / Linear Road suite lives in `reopt-workloads`; keeping these
//! here avoids a dependency cycle, since `reopt-workloads` sits above
//! this crate.)

use reopt_catalog::{Catalog, CmpOp, ColumnStats, Datum, TableBuilder, TableStats};
use reopt_cost::ParamDelta;
use reopt_expr::{AggFunc, AggSpec, EdgeId, LeafCol, LeafId, QuerySpec};

use crate::config::PruningConfig;

/// Eight tables `t0..t7` with varied cardinalities; even-numbered tables
/// are indexed on `a`, `t1` is clustered on `a`.
pub fn fixture_catalog() -> Catalog {
    let mut c = Catalog::new();
    let rows = [100.0, 2_000.0, 50.0, 40_000.0, 500.0, 10.0, 8_000.0, 300.0];
    for (i, &r) in rows.iter().enumerate() {
        let name = format!("t{i}");
        c.add_table(
            |id| {
                let mut b = TableBuilder::new(&name).int_col("a").int_col("b").int_col("c");
                if i % 2 == 0 {
                    b = b.index_on("a");
                }
                if i == 1 {
                    b = b.clustered_on("a");
                }
                b.build(id)
            },
            TableStats {
                row_count: r,
                columns: vec![ColumnStats::uniform_key(r); 3],
            },
        );
    }
    c
}

/// Chain query `t0 ⋈ t1 ⋈ … ⋈ t{n-1}` joining `b = a`.
pub fn chain_query(c: &Catalog, n: usize) -> QuerySpec {
    assert!(n <= 8);
    let mut b = QuerySpec::builder(format!("chain{n}"));
    let leaves: Vec<_> = (0..n).map(|i| b.leaf(c, &format!("t{i}"))).collect();
    for w in leaves.windows(2) {
        b.join(c, w[0], "b", w[1], "a");
    }
    b.build()
}

/// Chain query with a filter on the last leaf and a group-by aggregate —
/// exercises interesting orders and the aggregate root.
pub fn agg_chain_query(c: &Catalog, n: usize) -> QuerySpec {
    let mut b = QuerySpec::builder(format!("aggchain{n}"));
    let leaves: Vec<_> = (0..n).map(|i| b.leaf(c, &format!("t{i}"))).collect();
    for w in leaves.windows(2) {
        b.join(c, w[0], "b", w[1], "a");
    }
    b.filter(
        c,
        *leaves.last().unwrap(),
        "c",
        CmpOp::Lt,
        Datum::Int((c.stats(reopt_catalog::TableId(n as u32 - 1)).row_count / 2.0) as i64),
    );
    b.aggregate(AggSpec {
        group_by: vec![LeafCol::new(0, 0)],
        aggs: vec![AggFunc::CountStar, AggFunc::Sum(LeafCol::new(n as u32 - 1, 2))],
    });
    b.build()
}

/// A cyclic join graph (4-cycle) — exercises multiple parents per group,
/// the interesting case for reference counting and bounds.
pub fn cycle_query(c: &Catalog) -> QuerySpec {
    let mut b = QuerySpec::builder("cycle4");
    let l: Vec<_> = (0..4).map(|i| b.leaf(c, &format!("t{i}"))).collect();
    b.join(c, l[0], "b", l[1], "a");
    b.join(c, l[1], "b", l[2], "a");
    b.join(c, l[2], "b", l[3], "a");
    b.join(c, l[3], "b", l[0], "a");
    b.build()
}

/// Star query: `t3` (fact) joined to three dimensions.
pub fn star_query(c: &Catalog) -> QuerySpec {
    let mut b = QuerySpec::builder("star");
    let f = b.leaf(c, "t3");
    let d: Vec<_> = [0, 2, 5]
        .iter()
        .map(|&i| b.leaf(c, &format!("t{i}")))
        .collect();
    b.join(c, f, "a", d[0], "a");
    b.join(c, f, "b", d[1], "a");
    b.join(c, f, "c", d[2], "a");
    b.build()
}

/// `n` relations joined as a `"chain"`, a `"star"` around `t0`, or (any
/// other name) a clique. Leaf `i` scans table `t{i % 8}` under the alias
/// `t{i}`, so past eight relations the fixture's tables repeat.
pub fn shaped_query(c: &Catalog, shape: &str, n: usize) -> QuerySpec {
    let mut b = QuerySpec::builder(format!("{shape}{n}"));
    let l: Vec<_> = (0..n)
        .map(|i| b.leaf_aliased(c, &format!("t{}", i % 8), &format!("t{i}")))
        .collect();
    for i in 0..n {
        for j in i + 1..n {
            let joined = match shape {
                "chain" => j == i + 1,
                "star" => i == 0,
                _ => true,
            };
            if joined {
                b.join(c, l[i], ["a", "b", "c"][j % 3], l[j], "a");
            }
        }
    }
    b.build()
}

/// The parameter updates a property test draws for `q`, one per
/// `(kind, index, magnitude)`: kind 0 is an edge selectivity (a leaf
/// scan cost on a query without edges), 1 a leaf cardinality, 2 a leaf
/// scan cost. The magnitude maps to a factor in 1.0 ..= 8.0 with
/// `increase_only`, else to a power of two in 0.125 ..= 8.0.
pub fn deltas_for(q: &QuerySpec, raw: &[(u8, u8, u8)], increase_only: bool) -> Vec<ParamDelta> {
    raw.iter()
        .map(|&(kind, idx, mag)| {
            let factor = if increase_only {
                1.0 + (mag as f64 % 8.0)
            } else {
                2f64.powi((mag as i32 % 7) - 3)
            };
            match kind % 3 {
                0 if !q.edges.is_empty() => {
                    ParamDelta::EdgeSelectivity(EdgeId(idx as u32 % q.edges.len() as u32), factor)
                }
                1 => ParamDelta::LeafCardinality(LeafId(idx as u32 % q.n_leaves()), factor),
                _ => ParamDelta::LeafScanCost(LeafId(idx as u32 % q.n_leaves()), factor),
            }
        })
        .collect()
}

/// Deterministic description of a random query instance: what the
/// property suites' `query_gen` strategies draw and [`build`] turns
/// into a catalog and a query.
#[derive(Clone, Debug)]
pub struct QueryGen {
    /// Per-leaf row counts (log scale: `10^rows[i]` rows).
    pub rows: Vec<u8>,
    /// Per-leaf: has an index on column `a`.
    pub indexed: Vec<bool>,
    /// For leaf i>0: joins to leaf `parent[i-1] % i` (random tree).
    pub parent: Vec<u8>,
    /// Close a cycle between leaf 0 and the last leaf.
    pub cycle: bool,
}

/// The catalog (tables `t0..`, columns `a`, `b`) and the tree- or
/// cycle-shaped query joining `b = a` that `gen` describes.
pub fn build(gen: &QueryGen) -> (Catalog, QuerySpec) {
    let n = gen.rows.len();
    let mut c = Catalog::new();
    for i in 0..n {
        let rows = 10f64.powi(gen.rows[i] as i32);
        let name = format!("t{i}");
        let indexed = gen.indexed[i];
        c.add_table(
            |id| {
                let mut b = TableBuilder::new(&name).int_col("a").int_col("b");
                if indexed {
                    b = b.index_on("a");
                }
                b.build(id)
            },
            TableStats {
                row_count: rows,
                columns: vec![ColumnStats::uniform_key(rows); 2],
            },
        );
    }
    let mut b = QuerySpec::builder("gen");
    let leaves: Vec<_> = (0..n).map(|i| b.leaf(&c, &format!("t{i}"))).collect();
    for i in 1..n {
        let p = (gen.parent[i - 1] as usize) % i;
        b.join(&c, leaves[p], "b", leaves[i], "a");
    }
    if gen.cycle && n > 2 {
        b.join(&c, leaves[n - 1], "b", leaves[0], "a");
    }
    (c, b.build())
}

/// Every pruning preset, `none()` included.
pub fn all_configs() -> Vec<PruningConfig> {
    vec![
        PruningConfig::none(),
        PruningConfig::evita_raced(),
        PruningConfig::aggsel(),
        PruningConfig::aggsel_refcount(),
        PruningConfig::aggsel_bounding(),
        PruningConfig::all(),
    ]
}
