//! Stream execution over borrowed windows: slice results against the
//! row-materialising reference run over copies of the windows, and the
//! empty-window cases the old interpreter could not execute.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reopt_baselines::{optimize_system_r, optimize_volcano};
use reopt_catalog::{Catalog, Datum};
use reopt_cost::CostContext;
use reopt_exec::{SliceResult, StreamExecutor, StreamTuple};
use reopt_expr::{JoinGraph, PlanNode, QuerySpec};
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

/// Optimizer-chosen and hand-forced `SegTollS` plans (the forced ones
/// put residual predicates and sort enforcers over every window).
fn candidate_plans(c: &Catalog, q: &QuerySpec, rng: &mut StdRng) -> Vec<PlanNode> {
    let g = JoinGraph::new(q);
    let mut ctx = CostContext::new(c, q);
    let mut plans = vec![
        optimize_system_r(q, &g, &mut ctx).plan,
        optimize_volcano(q, &g, &mut ctx).plan,
    ];
    for force in JOIN_KINDS.into_iter().map(Some).chain([None]) {
        plans.push(
            PlanGen {
                q,
                g: &g,
                rng,
                force,
            }
            .aggregated(),
        );
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_slice_matches_the_reference_over_window_copies(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = LinearRoadGen::new(rng.gen_range(0..1000));
        gen.rate = rng.gen_range(4.0..20.0);
        gen.burstiness = rng.gen_range(0.0..1.0);
        gen.n_cars = rng.gen_range(10..300);
        gen.n_segments = rng.gen_range(4..30);
        let (c, q) = seg_toll(&gen);
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
    }
}
