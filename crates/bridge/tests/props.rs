//! Differential property tests: the compiled-rule-network optimizer
//! ([`DataflowOptimizer`]) against the hand-rolled delta-propagation
//! engine ([`IncrementalOptimizer`]) over random join topologies,
//! random statistics, random pruning configurations and random
//! [`ParamDelta`] sequences.
//!
//! Both engines execute the same declarative specification (the
//! R1–R10 rule program), and both are exact under every pruning
//! configuration, so their best-plan costs must agree within
//! floating-point slack after any update sequence.

use proptest::prelude::*;

use reopt_bridge::compile::null_value;
use reopt_bridge::{
    AuditMode, AuditOutcome, DataflowOptimizer, DataflowOutcome, NetworkBuilder, RuleNetwork,
    BEST_PLAN_RULE, DATAFLOW_RULES,
};
use reopt_catalog::{Catalog, ColumnStats, TableBuilder, TableStats};
use reopt_core::memo::{AltId, GroupId, Memo};
use reopt_core::{IncrementalOptimizer, PruningConfig};
use reopt_cost::{CostContext, ParamDelta};
use reopt_datalog::{FaultPlan, Multiset, Tuple, Val};
use reopt_expr::{EdgeId, LeafId, PlanNode, QuerySpec};

/// Deterministic description of a random query instance (same shape as
/// the `reopt-core` property suite).
#[derive(Clone, Debug)]
struct QueryGen {
    /// Per-leaf row counts (log scale 1..=5 → 10^x rows).
    rows: Vec<u8>,
    /// Per-leaf: has an index on column `a`.
    indexed: Vec<bool>,
    /// For leaf i>0: joins to leaf `parent[i-1] % i` (random tree).
    parent: Vec<u8>,
    /// Close a cycle between leaf 0 and the last leaf.
    cycle: bool,
}

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

fn build(gen: &QueryGen) -> (Catalog, QuerySpec) {
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
    let mut b = QuerySpec::builder("prop");
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

/// One random update: kind 0 = edge selectivity, 1 = leaf cardinality,
/// 2 = leaf scan cost. `mag` maps to a factor.
fn deltas_for(q: &QuerySpec, raw: &[(u8, u8, u8)], increase_only: bool) -> Vec<ParamDelta> {
    raw.iter()
        .map(|&(kind, idx, mag)| {
            let factor = if increase_only {
                1.0 + (mag as f64 % 8.0)
            } else {
                // 0.125 .. 8.0 in powers of two.
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

/// Raises every delta to the highest factor its parameter has been
/// given so far (`highest`, one entry per parameter). Factors are
/// absolute, so a sequence of factors ≥ 1 is increase-only only if no
/// parameter is later written a smaller one.
fn never_lowering(highest: &mut Vec<ParamDelta>, deltas: Vec<ParamDelta>) -> Vec<ParamDelta> {
    fn parts(d: &mut ParamDelta) -> ((u8, u32), &mut f64) {
        match d {
            ParamDelta::EdgeSelectivity(e, f) => ((0, e.0), f),
            ParamDelta::LeafCardinality(l, f) => ((1, l.0), f),
            ParamDelta::LeafScanCost(l, f) => ((2, l.0), f),
        }
    }
    deltas
        .into_iter()
        .map(|mut d| {
            let (key, f) = parts(&mut d);
            match highest.iter_mut().map(parts).find(|(k, _)| *k == key) {
                Some((_, top)) => {
                    *top = top.max(*f);
                    *f = *top;
                }
                None => highest.push(d),
            }
            d
        })
        .collect()
}

/// Fails if the outcome's sampled audit flagged drift. With `REOPT_AUDIT`
/// unset the audit never runs (`NotSampled`) and this is vacuous; CI runs
/// this suite once with `REOPT_AUDIT=1` so every epoch is cross-checked.
fn audit_ok(out: &DataflowOutcome) -> Result<(), String> {
    match &out.recovery.audit {
        AuditOutcome::Failed(e) => Err(format!("audit failed: {e}")),
        _ => Ok(()),
    }
}

/// A sink's contents with multiplicities, sorted for comparison.
fn sink_sorted(sink: &Multiset) -> Vec<(Tuple, i64)> {
    let mut v: Vec<(Tuple, i64)> = sink.iter().map(|(t, c)| (t.clone(), c)).collect();
    v.sort();
    v
}

/// Rule D10 the way the network maintained it before `best_plan`
/// answered it on demand: the unchanged rule text compiled behind the
/// cost rules D6–D9 into a network of its own, with a `BestPlan` sink,
/// fed the `SearchSpace` the optimizer derived and — step by step, as
/// deltas — the `LocalCost` rows the optimizer's own network holds.
struct MaintainedD10 {
    net: RuleNetwork,
    fed: Vec<Tuple>,
}

impl MaintainedD10 {
    fn new(df: &DataflowOptimizer) -> MaintainedD10 {
        let cost_rules = DATAFLOW_RULES
            .into_iter()
            .filter(|r| ["D6:", "D7:", "D8:", "D9:"].iter().any(|l| r.starts_with(l)));
        let mut net = NetworkBuilder::new()
            .input("SearchSpace", 9)
            .input("LocalCost", 4)
            .rule_texts(cost_rules.chain([BEST_PLAN_RULE]))
            .expect("the rule texts parse")
            .external("Fn_present", 1, |args, emit| {
                if args[0] != null_value() {
                    emit(&[]);
                }
            })
            // The optimizer's `Fn_sum`: local, then left, then right.
            .external("Fn_sum", 3, |args, emit| {
                let mut total = args[2].as_cost();
                for child in &args[..2] {
                    if let Val::Cost(c) = child {
                        total += *c;
                    }
                }
                emit(&[Val::Cost(total)]);
            })
            .sink("BestPlan")
            .build()
            .expect("D6–D10 compile");
        for (row, _) in df.sink("SearchSpace").unwrap().iter() {
            net.insert("SearchSpace", row.clone());
        }
        let mut reference = MaintainedD10 { net, fed: Vec::new() };
        reference.follow(df);
        reference
    }

    /// Feeds the difference between what was fed and what `df`'s
    /// network holds now, and runs to fixpoint.
    fn follow(&mut self, df: &DataflowOptimizer) {
        let now = df.local_cost_rows();
        for gone in self.fed.iter().filter(|t| !now.contains(t)) {
            self.net.delete("LocalCost", gone.clone());
        }
        for new in now.iter().filter(|t| !self.fed.contains(t)) {
            self.net.insert("LocalCost", new.clone());
        }
        self.fed = now;
        self.net.run().expect("the reference network converges");
    }

    fn rows(&self) -> Vec<Tuple> {
        let sink = self.net.sink("BestPlan").unwrap();
        assert!(!sink.has_negative_counts());
        sink.sorted()
    }

    /// The plan the maintained sink (`rows`, sorted) used to be read
    /// into: per group the lowest alternative id among its rows, from
    /// the root down.
    fn plan(rows: &[Tuple], memo: &Memo) -> PlanNode {
        let mut chosen: Vec<Option<AltId>> = vec![None; memo.n_groups()];
        for row in rows.iter().rev() {
            let a = AltId(row.get(2).as_int() as u32);
            chosen[memo.alt(a).group.0 as usize] = Some(a);
        }
        fn extract(memo: &Memo, chosen: &[Option<AltId>], g: GroupId) -> PlanNode {
            let alt = memo.alt(chosen[g.0 as usize].expect("a `BestPlan` row per chosen group"));
            PlanNode {
                expr: memo.group(g).expr,
                prop: memo.group(g).prop,
                op: alt.op,
                children: alt.children().map(|c| extract(memo, chosen, c)).collect(),
            }
        }
        extract(memo, &chosen, memo.root)
    }

    /// Follows `df` one step and holds the on-demand read to the rule:
    /// the full relation against the sink, `best_plan()` against the
    /// tie-broken sink. Returns how many `BestPlan` rows are exact cost
    /// ties (rows beyond one per group).
    fn check(&mut self, df: &DataflowOptimizer) -> Result<usize, String> {
        self.follow(df);
        let (want, got) = (self.rows(), df.best_plan_rows());
        if want != got {
            return Err(format!(
                "on-demand BestPlan has {} rows, maintained D10 has {}",
                got.len(),
                want.len()
            ));
        }
        if df.best_plan() != MaintainedD10::plan(&want, df.memo()) {
            return Err("best_plan() is not the tie-broken maintained BestPlan".into());
        }
        let mut groups: Vec<(Val, Val)> = want.iter().map(|t| (t.get(0), t.get(1))).collect();
        groups.dedup();
        Ok(want.len() - groups.len())
    }
}

/// What a [`check_stepwise`] walk exercised of the D10 differential.
#[derive(Debug, Default)]
struct Walked {
    /// `BestPlan` rows that were exact cost ties, summed over steps.
    ties: usize,
    /// Steps after which the prune set had a different size.
    prune_flips: usize,
}

/// Replays a delta sequence step by step with fresh engines, checking
/// `BestPlan` equivalence after *every* step: both engines' best costs
/// must agree, and the dataflow's extracted plan must re-price to that
/// cost under an independent cost context (so a stale `BestPlan` view
/// can't hide behind a correct scalar) — and, against [`MaintainedD10`],
/// that the on-demand `BestPlan` is the relation rule D10 derives.
/// Returns the first failing step.
fn check_stepwise(c: &Catalog, q: &QuerySpec, seq: &[(u8, u8, u8)]) -> Result<Walked, String> {
    let mut df = DataflowOptimizer::new(c, q.clone());
    let mut hand = IncrementalOptimizer::new(c, q.clone(), PruningConfig::none());
    let mut pricer = CostContext::new(c, q);
    audit_ok(&df.optimize()).map_err(|e| format!("initial: {e}"))?;
    hand.optimize();
    let mut d10 = MaintainedD10::new(&df);
    let mut walked = Walked {
        ties: d10.check(&df).map_err(|e| format!("initial: {e}"))?,
        prune_flips: 0,
    };
    for (i, raw) in seq.iter().enumerate() {
        let deltas = deltas_for(q, std::slice::from_ref(raw), false);
        let pruned_before = df.pruned_alternatives();
        let got = df.reoptimize(&deltas);
        let want = hand.reoptimize(&deltas);
        pricer.apply(&deltas);
        audit_ok(&got).map_err(|e| format!("step {i} ({deltas:?}): {e}"))?;
        walked.ties += d10.check(&df).map_err(|e| format!("step {i} ({deltas:?}): {e}"))?;
        walked.prune_flips += usize::from(df.pruned_alternatives() != pruned_before);
        if !got.cost.approx_eq(want.cost) {
            return Err(format!(
                "step {i} ({deltas:?}): dataflow {:?} vs hand-rolled {:?}",
                got.cost, want.cost
            ));
        }
        let repriced = pricer.plan_cost(q, &got.plan);
        if !repriced.approx_eq(got.cost) {
            return Err(format!(
                "step {i} ({deltas:?}): BestPlan re-prices to {repriced:?}, claimed {:?}",
                got.cost
            ));
        }
        let hand_repriced = pricer.plan_cost(q, &want.plan);
        if !hand_repriced.approx_eq(got.cost) {
            return Err(format!(
                "step {i} ({deltas:?}): hand-rolled plan re-prices to {hand_repriced:?}, \
                 dataflow claimed {:?}",
                got.cost
            ));
        }
    }
    Ok(walked)
}

/// The D10 differential where it is hardest: five identical relations
/// joined as a star, so symmetric subplans tie exactly (several
/// `BestPlan` rows per group, the lowest id wins), walked through
/// updates and reverts that move alternatives in and out of the prune
/// set. The walk must really contain both.
#[test]
fn on_demand_best_plan_is_rule_d10_under_exact_ties_and_prune_flips() {
    let (c, q) = build(&QueryGen {
        rows: vec![3; 5],
        indexed: vec![false; 5],
        parent: vec![0; 4],
        cycle: false,
    });
    // (kind, index, magnitude): `deltas_for` maps magnitude 3 to the
    // factor 1.0, so every third step reverts the one before it.
    let seq: Vec<(u8, u8, u8)> = (0..24u8)
        .map(|i| (i / 3, i / 3 + i % 2, if i % 3 == 2 { 3 } else { i % 7 }))
        .collect();
    let walked = check_stepwise(&c, &q, &seq).unwrap();
    assert!(walked.ties > 0 && walked.prune_flips > 0, "{walked:?}");
}

/// `best_plan()` costs what the plan costs: it probes `PlanCost` at
/// most once per alternative of the groups on the tree it returns —
/// never the memo's other groups — on chains and stars of 3–10
/// relations, initially and after updates.
#[test]
fn plan_extraction_probes_only_the_alternatives_of_the_chosen_groups() {
    fn alternatives_on(plan: &PlanNode, memo: &Memo) -> u64 {
        let g = memo.lookup(plan.expr, plan.prop).expect("a plan node is a memo group");
        let below: u64 = plan.children.iter().map(|c| alternatives_on(c, memo)).sum();
        memo.alts_of(g).count() as u64 + below
    }
    for star in [false, true] {
        for n in 3..=10usize {
            let (c, q) = build(&QueryGen {
                rows: (0..n).map(|i| 1 + (i * 3 % 5) as u8).collect(),
                indexed: (0..n).map(|i| i % 2 == 0).collect(),
                parent: (0..n - 1).map(|i| if star { 0 } else { i as u8 }).collect(),
                cycle: false,
            });
            let mut df = DataflowOptimizer::new(&c, q.clone());
            df.set_audit_mode(AuditMode::Off);
            df.optimize();
            for step in 0..4u8 {
                if step > 0 {
                    df.reoptimize(&deltas_for(&q, &[(step, step * 5, step * 2)], false));
                }
                let before = df.plan_cost_probes();
                let plan = df.best_plan();
                let probes = df.plan_cost_probes() - before;
                let bound = alternatives_on(&plan, df.memo());
                assert!(
                    plan.size() as u64 <= probes && probes <= bound,
                    "star={star} n={n} step {step}: {probes} probes for a {}-node plan over \
                     groups with {bound} alternatives (memo: {})",
                    plan.size(),
                    df.memo().n_alts()
                );
            }
        }
    }
}

fn all_configs() -> Vec<PruningConfig> {
    vec![
        PruningConfig::none(),
        PruningConfig::evita_raced(),
        PruningConfig::aggsel(),
        PruningConfig::aggsel_refcount(),
        PruningConfig::aggsel_bounding(),
        PruningConfig::all(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Initial evaluation of the compiled network agrees with the
    /// hand-rolled engine under every pruning configuration, and the
    /// network derives exactly the memo's SearchSpace.
    #[test]
    fn initial_costs_agree_across_configs(gen in query_gen(5)) {
        let (c, q) = build(&gen);
        let mut df = DataflowOptimizer::new(&c, q.clone());
        let got = df.optimize();
        prop_assert_eq!(df.search_space_size(), df.memo().n_alts());
        for cfg in all_configs() {
            let mut hand = IncrementalOptimizer::new(&c, q.clone(), cfg);
            let want = hand.optimize();
            prop_assert!(got.cost.approx_eq(want.cost),
                "{}: dataflow {:?} vs hand-rolled {:?}", cfg.label(), got.cost, want.cost);
        }
    }

    /// Increase-only delta sequences under full pruning: every step can
    /// only make the chosen plan worse, so each one exercises revival
    /// of reclaimed groups, and the view must stay in lockstep with it.
    #[test]
    fn increase_sequences_agree_under_full_pruning(
        gen in query_gen(5),
        seq in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..3), 1..4),
    ) {
        let (c, q) = build(&gen);
        let mut df = DataflowOptimizer::new(&c, q.clone());
        let mut hand = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::all());
        df.optimize();
        hand.optimize();
        let mut highest = Vec::new();
        for raw in &seq {
            let deltas = never_lowering(&mut highest, deltas_for(&q, raw, true));
            let got = df.reoptimize(&deltas);
            let want = hand.reoptimize(&deltas);
            prop_assert!(got.cost.approx_eq(want.cost),
                "after {deltas:?}: dataflow {:?} vs hand-rolled {:?}", got.cost, want.cost);
        }
    }

    /// Arbitrary (mixed-direction) sequences: every configuration is
    /// exact, so every configuration must stay in lockstep with the view.
    #[test]
    fn arbitrary_sequences_agree_with_exact_configs(
        gen in query_gen(5),
        seq in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..3), 1..4),
    ) {
        let (c, q) = build(&gen);
        let mut df = DataflowOptimizer::new(&c, q.clone());
        df.optimize();
        let mut hands: Vec<IncrementalOptimizer> = all_configs()
            .into_iter()
            .map(|cfg| {
                let mut h = IncrementalOptimizer::new(&c, q.clone(), cfg);
                h.optimize();
                h
            })
            .collect();
        for raw in &seq {
            let deltas = deltas_for(&q, raw, false);
            let got = df.reoptimize(&deltas);
            for hand in &mut hands {
                let cfg = hand.config();
                let want = hand.reoptimize(&deltas);
                prop_assert!(got.cost.approx_eq(want.cost),
                    "{} after {deltas:?}: dataflow {:?} vs hand-rolled {:?}",
                    cfg.label(), got.cost, want.cost);
            }
        }
    }

    /// Interleaved cardinality / scan-cost / selectivity updates on
    /// random join graphs, with `BestPlan` checked after *every* step
    /// (not just the final state). On failure, the shortest failing
    /// prefix of the sequence is located by replay and reported — the
    /// stand-in proptest has no shrinking, so the test shrinks the one
    /// dimension that matters for delta-sequence bugs itself.
    #[test]
    fn best_plans_stay_in_lockstep_after_every_step(
        gen in query_gen(5),
        seq in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..10),
    ) {
        let (c, q) = build(&gen);
        if let Err(failure) = check_stepwise(&c, &q, &seq) {
            for n in 1..=seq.len() {
                if let Err(first) = check_stepwise(&c, &q, &seq[..n]) {
                    prop_assert!(
                        false,
                        "shortest failing prefix has {n} of {} steps ({:?}): {first}",
                        seq.len(), &seq[..n]
                    );
                }
            }
            prop_assert!(false, "full sequence failed, no prefix did: {failure}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Chaos: a fault armed at a random step of a random delta sequence
    /// on a random query. The optimizer must absorb it internally
    /// (rollback → budget-raised retry → from-scratch rebuild) and stay
    /// byte-identical to a fault-free oracle — best cost, extracted
    /// plan, and every materialized sink, counts included — with zero
    /// residual negative counts. `shots` = 2 kills the retry too and
    /// drives the rebuild rung.
    #[test]
    fn faulted_reoptimization_matches_the_fault_free_oracle(
        gen in query_gen(5),
        seq in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
        fault_run in any::<u8>(),
        fault_step in 1u64..60,
        shots in 1u32..3,
    ) {
        let (c, q) = build(&gen);
        let mut oracle = DataflowOptimizer::new(&c, q.clone());
        let mut victim = DataflowOptimizer::new(&c, q.clone());
        // Audits off: chaos measures recovery, not the (much slower)
        // shadow cross-check, and `REOPT_AUDIT` must not leak in.
        oracle.set_audit_mode(AuditMode::Off);
        victim.set_audit_mode(AuditMode::Off);
        oracle.optimize();
        victim.optimize();
        let fault_at = fault_run as usize % seq.len();
        for (i, raw) in seq.iter().enumerate() {
            let deltas = deltas_for(&q, std::slice::from_ref(raw), false);
            if i == fault_at {
                victim.inject_fault(FaultPlan::with_shots(fault_step, shots));
            }
            let want = oracle.reoptimize(&deltas);
            let got = victim.reoptimize(&deltas);
            prop_assert!(
                got.cost.approx_eq(want.cost),
                "step {i} ({deltas:?}), {} absorbed ({:?}): victim {:?} vs oracle {:?}",
                got.recovery.errors.len(), got.recovery.path, got.cost, want.cost
            );
            prop_assert_eq!(
                &got.plan, &want.plan,
                "step {} : recovered BestPlan diverged ({:?})", i, got.recovery.path
            );
        }
        for name in ["SearchSpace", "BestCost"] {
            prop_assert!(
                !victim.sink(name).unwrap().has_negative_counts(),
                "residual negative counts in {name} after recovery"
            );
            prop_assert_eq!(
                sink_sorted(victim.sink(name).unwrap()),
                sink_sorted(oracle.sink(name).unwrap()),
                "sink {} diverged from the fault-free oracle", name
            );
        }
        prop_assert_eq!(
            victim.best_plan_rows(), oracle.best_plan_rows(),
            "BestPlan diverged from the fault-free oracle"
        );
    }
}
