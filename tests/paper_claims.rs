//! Assertions encoding the paper's qualitative claims, checked on every
//! run of the test suite (the quantitative shapes live in the benchmark
//! harness: the `figures` binary and `benchmark/`).

use reopt::baselines::FromScratch;
use reopt::bridge::DataflowOptimizer;
use reopt::common::Cost;
use reopt::core::{IncrementalOptimizer, ParamIndex, PruningConfig, Reoptimizer};
use reopt::cost::ParamDelta;
use reopt::expr::{EdgeId, LeafId};
use reopt::workloads::{QueryId, TpchGen};

#[test]
fn claim_evita_raced_never_prunes_plan_table_entries() {
    // Fig 4(b): "[Evita Raced] never prunes plan table entries".
    let (catalog, _db) = TpchGen::default().generate();
    for qid in QueryId::figure4_suite() {
        let q = qid.build(&catalog);
        let mut opt = IncrementalOptimizer::new(&catalog, q, PruningConfig::evita_raced());
        let out = opt.optimize();
        assert_eq!(out.state.pruned_groups, 0, "{}", qid.name());
    }
}

#[test]
fn claim_declarative_prunes_a_large_fraction_of_plan_table_entries() {
    // Fig 4(b): "pruning of approximately 35-80% of the plan table
    // entries".
    let (catalog, _db) = TpchGen::default().generate();
    for qid in QueryId::figure4_suite() {
        let q = qid.build(&catalog);
        let mut opt = IncrementalOptimizer::new(&catalog, q, PruningConfig::default());
        let out = opt.optimize();
        let ratio = out.state.group_pruning_ratio();
        assert!(
            ratio > 0.35,
            "{}: plan-table pruning ratio only {ratio:.2}",
            qid.name()
        );
    }
}

#[test]
fn claim_declarative_prunes_more_alternatives_than_evita_raced() {
    // Fig 4(c): "[our declarative implementation] exceeds the pruning
    // ratios obtained by the Evita Raced strategies".
    let (catalog, _db) = TpchGen::default().generate();
    for qid in QueryId::figure4_suite() {
        let q = qid.build(&catalog);
        let mut er = IncrementalOptimizer::new(&catalog, q.clone(), PruningConfig::evita_raced());
        let er_ratio = er.optimize().state.alt_pruning_ratio();
        let mut all = IncrementalOptimizer::new(&catalog, q, PruningConfig::default());
        let all_ratio = all.optimize().state.alt_pruning_ratio();
        assert!(
            all_ratio >= er_ratio,
            "{}: All {all_ratio:.3} < Evita-Raced {er_ratio:.3}",
            qid.name()
        );
    }
}

/// Q5 re-optimized after one selectivity change on `edge` by the
/// shipped (exact) optimizer: the alternatives it touched, those of the
/// groups covering the edge (the edge's `ParamIndex` cone), how many
/// groups that is, and the size of the space.
fn q5_selectivity_update(edge: u32) -> (u64, u64, usize, u64) {
    let (catalog, _db) = TpchGen::default().generate();
    let q = QueryId::Q5.build(&catalog);
    let mut opt = IncrementalOptimizer::new(&catalog, q.clone(), PruningConfig::default());
    opt.optimize();
    let covering = ParamIndex::build(opt.memo(), &q)
        .groups_covering_edge(EdgeId(edge))
        .to_vec();
    let cone: u64 = (covering.iter())
        .map(|&g| opt.memo().alts_of(g).count() as u64)
        .sum();
    let out = opt.reoptimize(&[ParamDelta::EdgeSelectivity(EdgeId(edge), 0.5)]);
    (
        out.run.touched_alts,
        cone,
        covering.len(),
        out.state.total_alts,
    )
}

#[test]
fn claim_incremental_updates_recompute_a_small_portion_of_the_space() {
    // §5.2.1: "we recompute only a small portion of the search space".
    // For an exact optimizer that portion is the changed parameter's
    // cone: the groups whose expression covers the edge (and so every
    // parent above them). Nothing outside it is touched, and the cone is
    // a strict part of the space — 44–63% of Q5's 515 alternatives;
    // freezing reclaimed groups' costs, as the paper's rules do, touches
    // less by leaving them stale.
    for edge in 0..5 {
        let (touched, cone, _, total) = q5_selectivity_update(edge);
        println!(
            "edge {edge}: touched {touched} of {total} alternatives ({:.1}%), cone {cone}",
            100.0 * touched as f64 / total as f64
        );
        assert!(
            0 < touched && touched <= cone,
            "edge {edge}: {touched} > {cone}"
        );
        assert!(cone < total, "edge {edge}: the cone is the whole space");
    }
}

#[test]
fn claim_larger_expressions_are_cheaper_to_update() {
    // §5.2.1: "changes to smaller subplans will take longer to
    // re-optimize, and changes to larger subplans will take less time
    // (due to the number of recursive propagation steps involved)". An
    // update costs what the groups covering the changed expression hold
    // — the fewer groups contain it, the cheaper — which on Q5's cycle
    // is not a matter of where the edge sits (SUPPLIER⋈D is covered by
    // more groups than REGION⋈NATION).
    for edge in 0..5 {
        let (touched, cone, groups, total) = q5_selectivity_update(edge);
        println!(
            "edge {edge}: {groups} covering groups, {cone} alternatives ({:.1}% of {total})",
            100.0 * cone as f64 / total as f64
        );
        assert_eq!(
            touched, cone,
            "edge {edge}: work is the covering groups' alternatives"
        );
    }
}

#[test]
fn claim_state_converges_so_repeated_reoptimization_is_free() {
    // Fig 9: "the incremental re-optimization time drops off rapidly,
    // going to nearly zero … the system has essentially converged".
    let (catalog, _db) = TpchGen::default().generate();
    let q = QueryId::Q5.build(&catalog);
    let delta = [ParamDelta::EdgeSelectivity(EdgeId(2), 3.0)];
    let mut opt = IncrementalOptimizer::new(&catalog, q.clone(), PruningConfig::default());
    opt.optimize();
    opt.reoptimize(&delta);
    // Statistics stopped changing: successive re-optimizations do no
    // propagation work at all ...
    for _ in 0..3 {
        let out = opt.reoptimize(&delta);
        assert_eq!(out.run.queue_pops, 0);
        assert_eq!(out.run.touched_alts, 0);
    }
    // ... and the declarative engine feeds its network nothing.
    let mut decl = DataflowOptimizer::new(&catalog, q);
    decl.optimize();
    assert!(decl.reoptimize(&delta).stats.deltas_processed > 0);
    for _ in 0..3 {
        assert_eq!(decl.reoptimize(&delta).stats.deltas_processed, 0);
    }
}

/// The parameter walk [`claim_optimal_plan_is_unchanged_by_pruning`]
/// takes after `optimize` (valid on every query it names).
const WALK: [&[ParamDelta]; 3] = [
    &[ParamDelta::LeafCardinality(LeafId(1), 0.125)],
    &[ParamDelta::EdgeSelectivity(EdgeId(1), 4.0)],
    &[
        ParamDelta::LeafScanCost(LeafId(2), 8.0),
        ParamDelta::EdgeSelectivity(EdgeId(0), 0.25),
    ],
];

/// The best cost `engine` reports after `optimize` and after each step
/// of [`WALK`].
fn cost_walk<R: Reoptimizer>(mut engine: R, cost: impl Fn(&R::Outcome) -> Cost) -> Vec<Cost> {
    let mut costs = vec![cost(&engine.optimize())];
    costs.extend(WALK.iter().map(|step| cost(&engine.reoptimize(step))));
    costs
}

#[test]
fn claim_optimal_plan_is_unchanged_by_pruning() {
    // §3.2: "the optimal plan computed by the query optimizer is
    // unchanged, but more tuples in SearchSpace and PlanCost are
    // pruned." Every preset of the hand-rolled engine, the declarative
    // engine (driver-side bounding) and a from-scratch Volcano run agree
    // on the optimum, initially and after each step of a walk.
    let (catalog, _db) = TpchGen::default().generate();
    for qid in [QueryId::Q5, QueryId::Q10, QueryId::Q8JoinS] {
        let q = qid.build(&catalog);
        let mut walks = Vec::new();
        for cfg in [
            PruningConfig::none(),
            PruningConfig::aggsel(),
            PruningConfig::aggsel_refcount(),
            PruningConfig::aggsel_bounding(),
            PruningConfig::all(),
            PruningConfig::default(),
        ] {
            let opt = IncrementalOptimizer::new(&catalog, q.clone(), cfg);
            walks.push(cost_walk(opt, |o| o.cost));
        }
        let decl = DataflowOptimizer::new(&catalog, q.clone());
        walks.push(cost_walk(decl, |o| o.cost));
        walks.push(cost_walk(FromScratch::new(&catalog, q), |o| o.cost));
        assert!(
            walks[0].windows(2).all(|w| !w[0].approx_eq(w[1])),
            "{}: a step of the walk left the optimum where it was: {:?}",
            qid.name(),
            walks[0]
        );
        for step in 0..=WALK.len() {
            let costs: Vec<Cost> = walks.iter().map(|w| w[step]).collect();
            assert!(
                costs.windows(2).all(|w| w[0].approx_eq(w[1])),
                "{} step {step}: costs diverge across engines and pruning configs: {costs:?}",
                qid.name()
            );
        }
    }
}

#[test]
fn claim_total_state_stays_bounded() {
    // §5.3: "even for the largest query (Q8Join), the total optimizer
    // state was under 100MB" — our dense-array state is far smaller;
    // assert a conservative bound scaled to our representation.
    let (catalog, _db) = TpchGen::default().generate();
    let q = QueryId::Q8Join.build(&catalog);
    let opt = IncrementalOptimizer::new(&catalog, q, PruningConfig::default());
    let groups = opt.memo().n_groups();
    let alts = opt.memo().n_alts();
    // Group + alt state structs are tens of bytes each.
    let approx_bytes = groups * 128 + alts * 64;
    assert!(
        approx_bytes < 100 * 1024 * 1024,
        "state estimate {approx_bytes} bytes exceeds 100MB"
    );
}
