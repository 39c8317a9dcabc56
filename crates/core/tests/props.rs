//! Property-based tests: random join topologies, random statistics, and
//! random update sequences, cross-checked against the System-R dynamic
//! programming reference (exact by the principle of optimality).

use proptest::prelude::*;

use reopt_baselines::optimize_system_r;
use reopt_catalog::Catalog;
use reopt_core::fixtures::{all_configs, build, deltas_for, QueryGen};
use reopt_core::{IncrementalOptimizer, PruningConfig};
use reopt_cost::{CostContext, ParamDelta};
use reopt_expr::{JoinGraph, QuerySpec};

fn query_gen(max_leaves: usize) -> impl Strategy<Value = QueryGen> {
    (2..=max_leaves).prop_flat_map(|n| {
        (
            proptest::collection::vec(1u8..=5, n),
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(any::<u8>(), n - 1),
            any::<bool>(),
        )
            .prop_map(|(rows, indexed, parent, cycle)| QueryGen {
                rows,
                indexed,
                parent,
                cycle,
            })
    })
}

fn reference(c: &Catalog, q: &QuerySpec, deltas: &[ParamDelta]) -> reopt_common::Cost {
    let g = JoinGraph::new(q);
    let mut ctx = CostContext::new(c, q);
    ctx.apply(deltas);
    optimize_system_r(q, &g, &mut ctx).cost
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Initial optimization is exact under every pruning configuration.
    #[test]
    fn initial_matches_dp(gen in query_gen(6)) {
        let (c, q) = build(&gen);
        let want = reference(&c, &q, &[]);
        for cfg in all_configs() {
            let mut opt = IncrementalOptimizer::new(&c, q.clone(), cfg);
            let out = opt.optimize();
            prop_assert!(out.cost.approx_eq(want),
                "{}: got {:?} want {:?}", cfg.label(), out.cost, want);
            opt.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("{}: {e}", cfg.label()))
            })?;
        }
    }

    /// Increase-only update batches keep full pruning exact.
    #[test]
    fn increases_stay_exact_under_full_pruning(
        gen in query_gen(5),
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
    ) {
        let (c, q) = build(&gen);
        let mut opt = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::all());
        opt.optimize();
        let deltas = deltas_for(&q, &raw, true);
        let out = opt.reoptimize(&deltas);
        let want = reference(&c, &q, &deltas);
        prop_assert!(out.cost.approx_eq(want), "got {:?} want {:?}", out.cost, want);
        opt.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// Arbitrary (mixed-direction) update sequences stay exact when
    /// state is never reclaimed (no reference counting) …
    #[test]
    fn arbitrary_updates_exact_without_refcounting(
        gen in query_gen(5),
        seq in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..3), 1..4),
    ) {
        let (c, q) = build(&gen);
        for cfg in [PruningConfig::aggsel(), PruningConfig::aggsel_bounding()] {
            let mut opt = IncrementalOptimizer::new(&c, q.clone(), cfg);
            opt.optimize();
            let mut ctx = CostContext::new(&c, &q);
            for raw in &seq {
                let deltas = deltas_for(&q, raw, false);
                let out = opt.reoptimize(&deltas);
                ctx.apply(&deltas);
                let g = JoinGraph::new(&q);
                let want = optimize_system_r(&q, &g, &mut ctx).cost;
                prop_assert!(out.cost.approx_eq(want),
                    "{}: got {:?} want {:?}", cfg.label(), out.cost, want);
                opt.check_invariants().map_err(|e| {
                    TestCaseError::fail(format!("{}: {e}", cfg.label()))
                })?;
            }
        }
    }

    /// … and under every preset, reclaiming or not: pruning keeps every
    /// reclaimed group's costs current, so step for step each preset
    /// holds the very costs `none()` holds (bit-equal — they run the
    /// same cost arithmetic over the same maintained bests), seeds the
    /// same alternatives and, breaking ties by the same
    /// lowest-alternative rule, returns the same plan.
    #[test]
    fn arbitrary_updates_exact_with_strict_revalidation(
        gen in query_gen(5),
        seq in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..3), 8),
    ) {
        let (c, q) = build(&gen);
        let mut unpruned = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::none());
        let first = unpruned.optimize().cost;
        let mut opts: Vec<IncrementalOptimizer> = all_configs()
            .into_iter()
            .map(|cfg| IncrementalOptimizer::new(&c, q.clone(), cfg))
            .collect();
        for opt in &mut opts {
            prop_assert_eq!(opt.optimize().cost, first, "{}", opt.config().label());
        }
        let mut ctx = CostContext::new(&c, &q);
        for raw in &seq {
            let deltas = deltas_for(&q, raw, false);
            ctx.apply(&deltas);
            let g = JoinGraph::new(&q);
            let want = optimize_system_r(&q, &g, &mut ctx).cost;
            let reference = unpruned.reoptimize(&deltas);
            prop_assert!(reference.cost.approx_eq(want),
                "got {:?} want {:?}", reference.cost, want);
            for opt in &mut opts {
                let label = opt.config().label();
                let out = opt.reoptimize(&deltas);
                prop_assert_eq!(out.cost, reference.cost, "{}", label);
                prop_assert_eq!(out.plan.fingerprint(), reference.plan.fingerprint(), "{}", label);
                prop_assert_eq!(out.run.seeded_alts, reference.run.seeded_alts, "{}", label);
                opt.check_invariants().map_err(|e| {
                    TestCaseError::fail(format!("{label}: {e}"))
                })?;
            }
        }
    }

    /// The cost context forgets only the cardinalities a delta can move
    /// and keeps the rest: after any walk, every cardinality and every
    /// local cost it answers is bit-for-bit what a context built fresh
    /// on the same parameters answers.
    #[test]
    fn a_walked_cost_context_answers_as_a_fresh_one(
        gen in query_gen(6),
        seq in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4), 1..8),
    ) {
        let (c, q) = build(&gen);
        let memo = reopt_core::Memo::build(&q, &JoinGraph::new(&q));
        let mut walked = CostContext::new(&c, &q);
        let mut applied: Vec<ParamDelta> = Vec::new();
        for raw in &seq {
            let deltas = deltas_for(&q, raw, false);
            walked.apply(&deltas);
            applied.extend(deltas);
            let mut fresh = CostContext::new(&c, &q);
            fresh.apply(&applied);
            for bits in 1..(1u32 << q.n_leaves()) {
                let rel = reopt_expr::RelSet(bits);
                prop_assert_eq!(
                    walked.rows(&q, rel).to_bits(), fresh.rows(&q, rel).to_bits(),
                    "rows of {:?} after {:?}", rel, applied);
            }
            for a in (0..memo.n_alts() as u32).map(reopt_core::AltId) {
                let (def, spec) = (memo.group(memo.alt(a).group), memo.spec(a));
                prop_assert_eq!(
                    walked.local_cost(&q, def.expr, def.prop, &spec),
                    fresh.local_cost(&q, def.expr, def.prop, &spec));
            }
        }
    }

    /// Under full pruning, mixed updates always produce a *valid*
    /// (exactly costed) plan.
    #[test]
    fn arbitrary_updates_yield_valid_plans_under_full_pruning(
        gen in query_gen(5),
        seq in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..3), 1..4),
    ) {
        let (c, q) = build(&gen);
        let mut opt = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::all());
        opt.optimize();
        let mut cumulative: Vec<ParamDelta> = Vec::new();
        for raw in &seq {
            let deltas = deltas_for(&q, raw, false);
            cumulative.extend(deltas.iter().copied());
            let out = opt.reoptimize(&deltas);
            // The reported cost is the plan's exact cost under current
            // parameters.
            let mut ctx = CostContext::new(&c, &q);
            ctx.apply(&cumulative);
            let recomputed = ctx.plan_cost(&q, &out.plan);
            prop_assert!(out.cost.approx_eq(recomputed),
                "reported {:?} but plan costs {:?}", out.cost, recomputed);
            opt.check_invariants().map_err(TestCaseError::fail)?;
        }
    }
}
