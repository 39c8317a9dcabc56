//! Stream execution over borrowed windows: slice results against the
//! row-materialising reference run over copies of the windows, the
//! empty-window cases the old interpreter could not execute, and the
//! groups each window is kept in against a regrouping of its rows.

mod common;

use std::collections::{BTreeMap, HashMap, VecDeque};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reopt_baselines::{optimize_system_r, optimize_volcano};
use reopt_catalog::{Catalog, CmpOp, ColId, ColumnStats, Datum, TableBuilder, TableStats};
use reopt_cost::CostContext;
use reopt_exec::database::Row;
use reopt_exec::executor::cmp_matches;
use reopt_exec::{SliceResult, StreamExecutor, StreamTuple};
use reopt_expr::{AggFunc, AggSpec, JoinGraph, LeafCol, LeafId, PlanNode, QuerySpec, WindowSpec};
use reopt_workloads::{seg_toll_query, LinearRoadGen};

use common::plans::{exprs, PlanGen, JOIN_KINDS};
use common::RefExecutor;

/// `CarLocStr(carid, expway, dir, seg, xpos)`.
const WIDTH: usize = 5;

fn seg_toll(gen: &LinearRoadGen) -> (Catalog, QuerySpec) {
    let mut c = Catalog::new();
    gen.register(&mut c);
    let q = seg_toll_query(&c);
    (c, q)
}

/// Optimizer-chosen and hand-forced plans for a stream query (the
/// forced ones put residual predicates and sort enforcers over every
/// window), under its aggregate if it has one.
fn candidate_plans(c: &Catalog, q: &QuerySpec, rng: &mut StdRng) -> Vec<PlanNode> {
    let g = JoinGraph::new(q);
    let mut ctx = CostContext::new(c, q);
    let mut plans = vec![
        optimize_system_r(q, &g, &mut ctx).plan,
        optimize_volcano(q, &g, &mut ctx).plan,
    ];
    for force in JOIN_KINDS.into_iter().map(Some).chain([None]) {
        let mut gen = PlanGen {
            q,
            g: &g,
            rng,
            force,
        };
        plans.push(match q.aggregate {
            Some(_) => gen.aggregated(),
            None => gen.tree(q.all_rels()),
        });
    }
    plans
}

/// The slice result the reference computes from copies of the windows
/// — handed over in reverse, since no count may depend on the order in
/// which a window (or its partition map) yields its rows.
fn assert_matches_reference(
    q: &QuerySpec,
    se: &StreamExecutor,
    plan: &PlanNode,
    got: &SliceResult,
) {
    let mut inputs = se.window_rows();
    for rows in &mut inputs {
        rows.reverse();
    }
    let mut reference = RefExecutor::with_inputs(q, inputs, vec![WIDTH; q.leaves.len()]);
    let (rows, _) = reference.run(plan);
    assert_eq!(got.out_rows, rows.len(), "plan:\n{plan}");
    assert_eq!(got.stats.rows, reference.stats.rows, "plan:\n{plan}");
}

#[test]
fn empty_windows_execute_and_record_every_node() {
    let (c, q) = seg_toll(&LinearRoadGen::new(3));
    for plan in candidate_plans(&c, &q, &mut StdRng::seed_from_u64(7)) {
        let r = StreamExecutor::new(&q).execute(&plan);
        assert_eq!(r.out_rows, 0);
        assert_eq!(r.window_sizes, vec![0; 5]);
        for expr in exprs(&plan) {
            assert_eq!(
                r.stats.rows_of(expr),
                Some(0.0),
                "{expr:?} of plan:\n{plan}"
            );
        }
    }
}

#[test]
fn a_gap_longer_than_every_window_keeps_executing() {
    let mut gen = LinearRoadGen::new(5);
    gen.rate = 20.0;
    gen.n_cars = 60;
    gen.n_segments = 10;
    let (c, q) = seg_toll(&gen);
    let plans = candidate_plans(&c, &q, &mut StdRng::seed_from_u64(9));
    let mut se = StreamExecutor::new(&q);
    for i in 0..4 {
        se.ingest(&gen.slice(i as f64 * 5.0, 5.0));
        let r = se.execute(&plans[0]);
        assert_matches_reference(&q, &se, &plans[0], &r);
    }
    assert!(se.window_sizes().iter().all(|&n| n > 1));
    // 400 s later one new car reports, in the direction r2 and r3 filter
    // out: every time window has expired, every partition has hit its
    // TTL, and two scans pass nothing up to multi-column joins.
    let lone = StreamTuple {
        ts: 420.0,
        row: [999, 0, 1, 3, 3 * 5280].map(Datum::Int).to_vec(),
    };
    se.ingest(std::slice::from_ref(&lone));
    assert_eq!(se.window_sizes(), vec![1; 5]);
    for plan in &plans {
        let r = se.execute(plan);
        assert_eq!(r.out_rows, 0);
        assert_matches_reference(&q, &se, plan, &r);
    }
    // And the stream resumes.
    for i in 0..3 {
        se.ingest(&gen.slice(425.0 + i as f64 * 5.0, 5.0));
        let r = se.execute(&plans[1]);
        assert_matches_reference(&q, &se, &plans[1], &r);
    }
}

/// `SegTollS`, or its five-way join alone (`aggregate` unset: the plan
/// root is a join, every column of every leaf is read and each window
/// is grouped on whole rows), over one random stream under random plan
/// switches: every slice against the reference over window copies.
fn check_every_slice_against_the_reference(
    seed: u64,
    aggregate: bool,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = LinearRoadGen::new(rng.gen_range(0..1000));
    gen.rate = rng.gen_range(4.0..20.0);
    gen.burstiness = rng.gen_range(0.0..1.0);
    gen.n_cars = rng.gen_range(10..300);
    gen.n_segments = rng.gen_range(4..30);
    let (c, mut q) = seg_toll(&gen);
    if !aggregate {
        q.aggregate = None;
        // Keeps the root join, which the reference builds row by row,
        // in the thousands.
        gen.rate = gen.rate.min(10.0);
        gen.n_cars = gen.n_cars.max(50);
    }
    let plans = candidate_plans(&c, &q, &mut rng);
    // Two executors over one stream: same inputs, same reports.
    let mut se = StreamExecutor::new(&q);
    let mut twin = StreamExecutor::new(&q);
    let mut plan = &plans[0];
    let mut start = 0.0;
    let mut last_fingerprint = None;
    for _ in 0..rng.gen_range(6..12) {
        // The plan may switch at any slice boundary, and the stream
        // may pause for longer than the windows reach.
        if rng.gen_bool(0.4) {
            plan = &plans[rng.gen_range(0..plans.len())];
        }
        if rng.gen_bool(0.1) {
            start += rng.gen_range(40.0..400.0);
        }
        let tuples = gen.slice(start, 5.0);
        start += 5.0;
        se.ingest(&tuples);
        twin.ingest(&tuples);
        let r = se.execute(plan);
        assert_matches_reference(&q, &se, plan, &r);
        // Window sizes are the windows', and a changed plan
        // migrates all of them.
        let sizes: Vec<usize> = se.window_rows().iter().map(Vec::len).collect();
        prop_assert_eq!(&r.window_sizes, &sizes);
        let fp = plan.fingerprint();
        let switched = last_fingerprint.is_some_and(|prev| prev != fp);
        last_fingerprint = Some(fp);
        let migrated = if switched { sizes.iter().sum() } else { 0 };
        prop_assert_eq!(r.migrated_rows, migrated);
        let t = twin.execute(plan);
        prop_assert_eq!(
            (t.out_rows, &t.stats.rows, &t.window_sizes, t.migrated_rows),
            (r.out_rows, &r.stats.rows, &r.window_sizes, r.migrated_rows)
        );
    }
    Ok(())
}

// ------------------------------------------------- the windows, regrouped

/// A stream `s(a, b, c, d)` of small integers.
fn abcd_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        |id| {
            let b = TableBuilder::new("s");
            b.int_col("a")
                .int_col("b")
                .int_col("c")
                .int_col("d")
                .build(id)
        },
        TableStats {
            row_count: 10.0,
            columns: vec![ColumnStats::uniform_key(8.0); 4],
        },
    );
    c
}

/// Three aliases of `s`, one per window kind, joined `t.a = n.a` and
/// `n.b = p.b`, some of them filtered; under `sum(p.d) group by t.c`,
/// or under no aggregate at all.
fn three_window_query(c: &Catalog, rng: &mut StdRng) -> QuerySpec {
    let mut b = QuerySpec::builder("three-windows");
    let t = b.leaf_aliased(c, "s", "t");
    let n = b.leaf_aliased(c, "s", "n");
    let p = b.leaf_aliased(c, "s", "p");
    b.window(
        t,
        WindowSpec::Time {
            seconds: rng.gen_range(3.0..40.0),
        },
    );
    b.window(
        n,
        WindowSpec::Tuples {
            count: rng.gen_range(0..60),
        },
    );
    let by: &[u32] = [&[0][..], &[1, 2], &[3, 0, 1]][rng.gen_range(0..3)];
    b.window(
        p,
        WindowSpec::PartitionedTuples {
            cols: by.iter().map(|&col| ColId(col)).collect(),
            count: rng.gen_range(0..4),
        },
    );
    b.join(c, t, "a", n, "a");
    b.join(c, n, "b", p, "b");
    for leaf in [t, n, p] {
        if rng.gen_bool(0.5) {
            let col = ["a", "b", "c", "d"][rng.gen_range(0..4)];
            let op = [CmpOp::Lt, CmpOp::Ne, CmpOp::Ge][rng.gen_range(0..3)];
            b.filter(c, leaf, col, op, Datum::Int(rng.gen_range(0..6)));
        }
    }
    if rng.gen_bool(0.7) {
        b.aggregate(AggSpec {
            group_by: vec![LeafCol::new(0, 2)],
            aggs: vec![AggFunc::Sum(LeafCol::new(2, 3))],
        });
    }
    b.build()
}

/// What a plan can read of `leaf`, worked out from the query alone: its
/// columns under a join edge, the group-by or an aggregate argument, or
/// all four without an aggregate.
fn read_set(q: &QuerySpec, leaf: LeafId) -> Vec<usize> {
    let Some(agg) = &q.aggregate else {
        return (0..4).collect();
    };
    let mut cols = agg.group_by.clone();
    for f in &agg.aggs {
        match f {
            AggFunc::Sum(col) => cols.push(*col),
            other => panic!("not in these queries: {other:?}"),
        }
    }
    cols.extend(q.edges.iter().flat_map(|e| [e.l, e.r]));
    cols.retain(|col| col.leaf == leaf);
    cols.into_iter().map(|col| col.col.0 as usize).collect()
}

/// The windows as `reopt-exec` kept them before it grouped anything:
/// a queue of row copies per leaf, a map of queues for a partitioned
/// one.
struct NaiveWindow {
    spec: WindowSpec,
    rows: VecDeque<(f64, Row)>,
    partitions: HashMap<Row, (f64, VecDeque<Row>)>,
    ttl: f64,
}

impl NaiveWindow {
    fn ingest(&mut self, t: &StreamTuple) {
        match &self.spec {
            WindowSpec::PartitionedTuples { cols, count } => {
                let key = cols
                    .iter()
                    .map(|col| t.row[col.0 as usize].clone())
                    .collect();
                let (last, rows) = self.partitions.entry(key).or_default();
                *last = t.ts;
                rows.push_back(t.row.clone());
                while rows.len() > *count as usize {
                    rows.pop_front();
                }
            }
            WindowSpec::Tuples { count } => {
                self.rows.push_back((t.ts, t.row.clone()));
                while self.rows.len() > *count as usize {
                    self.rows.pop_front();
                }
            }
            WindowSpec::Time { .. } => self.rows.push_back((t.ts, t.row.clone())),
        }
    }

    fn expire(&mut self, now: f64) {
        match &self.spec {
            WindowSpec::Time { seconds } => self.rows.retain(|(ts, _)| *ts > now - seconds),
            WindowSpec::PartitionedTuples { .. } => self
                .partitions
                .retain(|_, (last, _)| *last > now - self.ttl),
            WindowSpec::Tuples { .. } => {}
        }
    }

    fn sorted_rows(&self) -> Vec<Row> {
        let partitioned = self.partitions.values().flat_map(|(_, rows)| rows);
        let mut rows: Vec<Row> = (self.rows.iter().map(|(_, row)| row))
            .chain(partitioned)
            .cloned()
            .collect();
        rows.sort();
        rows
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_slice_matches_the_reference_over_window_copies(seed in any::<u64>()) {
        check_every_slice_against_the_reference(seed, true)?;
    }

    /// Time, tuple and partitioned windows over one stream of bursts,
    /// empty slices, repeating keys and pauses no window outlasts
    /// (every partition hits its TTL): after every slice each window
    /// holds what a queue of copies would, its groups are those rows
    /// filtered and regrouped, and executing — under whichever plan —
    /// leaves them alone.
    #[test]
    fn every_window_is_kept_as_its_rows_regrouped(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = abcd_catalog();
        let q = three_window_query(&c, &mut rng);
        let plans = candidate_plans(&c, &q, &mut rng);
        let ttl = match q.leaves[0].window {
            Some(WindowSpec::Time { seconds }) => seconds,
            _ => unreachable!(),
        };
        let mut naive: Vec<NaiveWindow> = (q.leaves.iter())
            .map(|leaf| NaiveWindow {
                spec: leaf.window.clone().expect("every leaf is windowed"),
                rows: VecDeque::new(),
                partitions: HashMap::new(),
                ttl,
            })
            .collect();
        let mut se = StreamExecutor::new(&q);
        let mut now = 0.0;
        for _ in 0..rng.gen_range(8..30) {
            if rng.gen_bool(0.15) {
                now += 50.0;
            }
            let arrivals = match rng.gen_range(0..10) {
                0 => 0,
                1 => rng.gen_range(100..300),
                _ => rng.gen_range(1..25),
            };
            // A narrow domain one slice, a wide one the next: keys come
            // back after their groups have emptied.
            let domain = [3, 8][rng.gen_range(0..2)];
            let tuples: Vec<StreamTuple> = (0..arrivals)
                .map(|_| {
                    now += rng.gen_range(0.0..0.5);
                    StreamTuple {
                        ts: now,
                        row: (0..4).map(|_| Datum::Int(rng.gen_range(0..domain))).collect(),
                    }
                })
                .collect();
            se.ingest(&tuples);
            for w in &mut naive {
                tuples.iter().for_each(|t| w.ingest(t));
                w.expire(se.now());
            }
            let windows = se.window_rows();
            let groups = se.window_groups();
            for (l, leaf) in q.leaves.iter().enumerate() {
                let mut rows = windows[l].clone();
                rows.sort();
                prop_assert_eq!(&rows, &naive[l].sorted_rows(), "leaf {}", l);
                prop_assert_eq!(se.window_sizes()[l], rows.len());
                let cols = read_set(&q, LeafId(l as u32));
                let project = |row: &Row| -> Row { cols.iter().map(|&col| row[col].clone()).collect() };
                let mut want: BTreeMap<Row, u64> = BTreeMap::new();
                for row in &rows {
                    let passes = (leaf.filters.iter())
                        .all(|f| cmp_matches(&row[f.col.0 as usize], f.op, &f.value));
                    if passes {
                        *want.entry(project(row)).or_default() += 1;
                    }
                }
                let mut got: BTreeMap<Row, u64> = BTreeMap::new();
                for (rep, weight) in &groups[l] {
                    prop_assert!(*weight > 0);
                    let twice = got.insert(project(rep), *weight);
                    prop_assert!(twice.is_none(), "two groups for {:?}", project(rep));
                }
                prop_assert_eq!(got, want, "leaf {}", l);
            }
            let a = se.execute(&plans[rng.gen_range(0..plans.len())]);
            let b = se.execute(&plans[rng.gen_range(0..plans.len())]);
            prop_assert_eq!(a.out_rows, b.out_rows);
            prop_assert_eq!(&groups, &se.window_groups());
        }
    }
}

proptest! {
    // A third of the cases: the reference builds every row of the root
    // join.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// With every column read above the scans, a window's groups are
    /// its distinct rows.
    #[test]
    fn every_slice_of_the_bare_join_matches_the_reference(seed in any::<u64>()) {
        check_every_slice_against_the_reference(seed, false)?;
    }
}
