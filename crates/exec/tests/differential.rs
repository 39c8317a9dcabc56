//! Differential test: the late-materialising interpreter against the
//! row-materialising one it replaced (`common::RefExecutor`).
//!
//! Random 3–5-leaf instances — self-joins on one table, `Int` and `Str`
//! key columns, empty tables, leaf filters, cuts crossed by up to three
//! edges — run under hand-forced plans: every physical join operator at
//! every join node, sorted scans and sort enforcers, and an aggregate
//! with every `AggFunc` on top. Both interpreters must return the same
//! rows (as a multiset; in order where the plan promises one, and for
//! aggregates), the same root layout and the same cardinality for every
//! plan node. The aggregate also runs over a wide instance — three
//! leaves of 40–60 rows over the same 2–4-value domains — where nearly
//! every tuple the interpreter carries stands for many rows; it may
//! never carry more tuples than a node has rows, and carries exactly
//! that many when the root does not aggregate.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reopt_catalog::{Catalog, CmpOp, ColumnStats, Datum, TableBuilder, TableStats};
use reopt_exec::database::Row;
use reopt_exec::{Database, Executor, TableData};
use reopt_expr::{
    AggFunc, AggSpec, JoinGraph, LeafCol, LeafId, PhysOp, PhysProp, PlanNode, QuerySpec,
};

use common::plans::{exprs, PlanGen, JOIN_KINDS};
use common::RefExecutor;

/// Every table: `k`, `j`, `v` are `Int`, `s` and `u` are `Str`, all over
/// small overlapping domains; an edge joins two columns of one type.
const COLS: [&str; 5] = ["k", "j", "s", "v", "u"];
const INT_COLS: [usize; 3] = [0, 1, 3];
const STR_COLS: [usize; 2] = [2, 4];

struct Instance {
    catalog: Catalog,
    db: Database,
    q: QuerySpec,
}

fn row(rng: &mut StdRng) -> Row {
    vec![
        Datum::Int(rng.gen_range(0..3)),
        Datum::Int(rng.gen_range(0..2)),
        Datum::str(["a", "b", "c"][rng.gen_range(0..3)]),
        Datum::Int(rng.gen_range(0..4)),
        Datum::str(["a", "b"][rng.gen_range(0..2)]),
    ]
}

fn filter(rng: &mut StdRng) -> (&'static str, CmpOp, Datum) {
    match rng.gen_range(0..6) {
        0 => ("v", CmpOp::Lt, Datum::Int(rng.gen_range(1..=4))),
        1 => ("v", CmpOp::Ge, Datum::Int(rng.gen_range(0..4))),
        2 => ("k", CmpOp::Le, Datum::Int(rng.gen_range(0..3))),
        3 => ("k", CmpOp::Gt, Datum::Int(rng.gen_range(0..2))),
        4 => ("s", CmpOp::Eq, Datum::str("a")),
        _ => ("s", CmpOp::Ne, Datum::str("b")),
    }
}

/// `wide`: three leaves over tables of 40–60 rows; else 3–5 leaves
/// over tables of 3–12.
fn instance(rng: &mut StdRng, wide: bool) -> Instance {
    let mut catalog = Catalog::new();
    let mut db = Database::new();
    let n_tables = rng.gen_range(1..=3);
    for t in 0..n_tables {
        let n_rows = if rng.gen_bool(0.08) {
            0
        } else if wide {
            rng.gen_range(40..=60)
        } else {
            rng.gen_range(3..=12)
        };
        let id = catalog.add_table(
            |id| {
                TableBuilder::new(format!("t{t}"))
                    .int_col("k")
                    .int_col("j")
                    .str_col("s")
                    .int_col("v")
                    .str_col("u")
                    .index_on("k")
                    .build(id)
            },
            TableStats {
                row_count: n_rows.max(1) as f64,
                columns: vec![ColumnStats::uniform_key(4.0); COLS.len()],
            },
        );
        db.set_table(id, TableData::new((0..n_rows).map(|_| row(rng)).collect()));
    }
    let mut b = QuerySpec::builder("diff");
    let n_leaves = if wide { 3 } else { rng.gen_range(3..=5) };
    let leaves: Vec<LeafId> = (0..n_leaves)
        .map(|i| {
            let t = rng.gen_range(0..n_tables);
            b.leaf_aliased(&catalog, &format!("t{t}"), &format!("l{i}"))
        })
        .collect();
    // A spanning tree, up to three edges per joined pair, and sometimes
    // one more edge closing a cycle.
    let mut pairs: Vec<(usize, usize)> = (1..n_leaves).map(|i| (rng.gen_range(0..i), i)).collect();
    if rng.gen_bool(0.4) {
        pairs.push((0, n_leaves - 1));
    }
    for (a, z) in pairs {
        let mut used = Vec::new();
        for _ in 0..[1, 1, 1, 2, 3][rng.gen_range(0..5)] {
            let class: &[usize] = if rng.gen_bool(0.7) {
                &INT_COLS
            } else {
                &STR_COLS
            };
            let cols = (
                class[rng.gen_range(0..class.len())],
                class[rng.gen_range(0..class.len())],
            );
            if !used.contains(&cols) {
                used.push(cols);
                b.join(&catalog, leaves[a], COLS[cols.0], leaves[z], COLS[cols.1]);
            }
        }
    }
    for &leaf in &leaves {
        if rng.gen_bool(0.3) {
            let (col, op, value) = filter(rng);
            b.filter(&catalog, leaf, col, op, value);
        }
    }
    Instance {
        catalog,
        db,
        q: b.build(),
    }
}

/// Up to two grouping columns and every aggregate function.
fn agg_spec(rng: &mut StdRng, n_leaves: u32) -> AggSpec {
    let any_col = |rng: &mut StdRng| {
        LeafCol::new(
            rng.gen_range(0..n_leaves),
            rng.gen_range(0..COLS.len() as u32),
        )
    };
    let int_col = |rng: &mut StdRng| {
        LeafCol::new(
            rng.gen_range(0..n_leaves),
            INT_COLS[rng.gen_range(0..INT_COLS.len())] as u32,
        )
    };
    AggSpec {
        group_by: (0..rng.gen_range(0..=2)).map(|_| any_col(rng)).collect(),
        aggs: vec![
            AggFunc::CountStar,
            AggFunc::Count(any_col(rng)),
            AggFunc::CountDistinct(any_col(rng)),
            AggFunc::Sum(int_col(rng)),
            AggFunc::Min(any_col(rng)),
            AggFunc::Max(any_col(rng)),
        ],
    }
}

fn check(inst: &Instance, q: &QuerySpec, plan: &PlanNode) {
    let mut new = Executor::from_database(q, &inst.catalog, &inst.db);
    let (mut rows, layout) = new.run(plan);
    let inputs = q
        .leaves
        .iter()
        .map(|l| inst.db.table(l.table).rows.clone())
        .collect();
    let mut old = RefExecutor::with_inputs(q, inputs, vec![COLS.len(); q.leaves.len()]);
    let (mut want, want_layout) = old.run(plan);
    assert_eq!(layout.cols(), want_layout.cols(), "plan:\n{plan}");
    assert_eq!(new.stats.rows, old.stats.rows, "plan:\n{plan}");
    for expr in exprs(plan) {
        let (rows, carried) = (new.stats.rows_of(expr), new.stats.carried_of(expr));
        if q.root_expr().agg {
            assert!(
                carried <= rows,
                "{expr:?}: {carried:?} > {rows:?}, plan:\n{plan}"
            );
        } else {
            assert_eq!(carried, rows, "{expr:?} of plan:\n{plan}");
        }
    }
    // A sort-merge join emits in the order of its left merge column
    // whether or not the plan asked for it.
    let order = match (plan.prop, plan.op) {
        (PhysProp::Sorted(c), _) => Some(c),
        (_, PhysOp::SortMergeJoin { edge }) => {
            let (l, r) = (plan.children[0].expr.rel, plan.children[1].expr.rel);
            q.edge(edge).across(l, r).map(|(lc, _)| lc)
        }
        _ => None,
    };
    if let Some(c) = order {
        let pos = layout.pos(c);
        assert!(
            rows.windows(2).all(|w| w[0][pos] <= w[1][pos]),
            "not sorted on {c:?}, plan:\n{plan}"
        );
    }
    if !plan.expr.agg {
        rows.sort();
        want.sort();
    }
    assert_eq!(rows, want, "plan:\n{plan}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn every_operator_at_every_node_matches_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = instance(&mut rng, false);
        let g = JoinGraph::new(&inst.q);
        let mut q_agg = inst.q.clone();
        q_agg.aggregate = Some(agg_spec(&mut rng, inst.q.n_leaves()));
        let mut wide = instance(&mut rng, true);
        let wide_g = JoinGraph::new(&wide.q);
        wide.q.aggregate = Some(agg_spec(&mut rng, wide.q.n_leaves()));
        let sort_col = LeafCol::new(
            rng.gen_range(0..inst.q.n_leaves()),
            rng.gen_range(0..COLS.len() as u32),
        );
        // Each operator everywhere, then a drawn mix.
        for force in JOIN_KINDS.into_iter().map(Some).chain([None]) {
            let mut plans = PlanGen { q: &inst.q, g: &g, rng: &mut rng, force };
            let plain = plans.tree(inst.q.all_rels());
            let sorted = plans.sorted(inst.q.all_rels(), sort_col);
            check(&inst, &inst.q, &plain);
            check(&inst, &inst.q, &sorted);
            let mut plans = PlanGen { q: &q_agg, g: &g, rng: &mut rng, force };
            check(&inst, &q_agg, &plans.aggregated());
            let mut plans = PlanGen { q: &wide.q, g: &wide_g, rng: &mut rng, force };
            check(&wide, &wide.q, &plans.aggregated());
        }
    }
}

#[test]
fn an_empty_table_yields_no_rows_and_a_full_width_layout() {
    // t1 is empty and joined on its second and fourth columns: the old
    // interpreter took a leaf's width from its first row and died
    // resolving them.
    let mut catalog = Catalog::new();
    let mut db = Database::new();
    for (name, n_rows) in [("t0", 4), ("t1", 0)] {
        let id = catalog.add_table(
            |id| {
                TableBuilder::new(name)
                    .int_col("k")
                    .int_col("j")
                    .str_col("s")
                    .int_col("v")
                    .build(id)
            },
            TableStats {
                row_count: 1.0,
                columns: vec![ColumnStats::uniform_key(4.0); 4],
            },
        );
        let rows = (0..n_rows)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    Datum::Int(i % 2),
                    Datum::str("a"),
                    Datum::Int(i),
                ]
            })
            .collect();
        db.set_table(id, TableData::new(rows));
    }
    let mut b = QuerySpec::builder("empty");
    let l0 = b.leaf(&catalog, "t0");
    let l1 = b.leaf(&catalog, "t1");
    b.join(&catalog, l0, "j", l1, "j");
    b.join(&catalog, l0, "v", l1, "v");
    let q = b.build();
    let g = JoinGraph::new(&q);
    let mut rng = StdRng::seed_from_u64(1);
    for force in JOIN_KINDS {
        let plan = PlanGen {
            q: &q,
            g: &g,
            rng: &mut rng,
            force: Some(force),
        }
        .tree(q.all_rels());
        let mut exec = Executor::from_database(&q, &catalog, &db);
        let (rows, layout) = exec.run(&plan);
        assert!(rows.is_empty());
        assert_eq!(layout.cols().len(), 8, "plan:\n{plan}");
        for expr in exprs(&plan) {
            assert!(
                exec.stats.rows_of(expr).is_some(),
                "no cardinality for {expr:?}"
            );
        }
        assert_eq!(exec.stats.rows_of(q.root_expr()), Some(0.0));
    }
}
