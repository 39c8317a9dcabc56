//! Runtime feedback: turning observed cardinalities into cost-parameter
//! deltas for the re-optimizer (the §5.2.2 loop: "we re-optimized given
//! the cumulatively observed statistics").

use reopt_common::FxHashSet;
use reopt_cost::{CostContext, ParamDelta};
use reopt_expr::{EdgeId, ExprId, LeafId, QuerySpec};

use crate::executor::ExecStats;

/// The re-optimization trigger: an estimate is corrected only when the
/// observation is more than `Q`× off it, in either direction — its
/// q-error `max(r, 1/r)` of the ratio `r` of observed to estimated rows
/// exceeds `Q` (Perron et al. 2019). A count that merely moves feeds
/// nothing back, so a stationary stream re-optimizes nothing.
pub const Q: f64 = 2.0;

/// Derives parameter deltas from observed cardinalities whose estimate
/// is more than [`Q`]× off.
///
/// Leaf discrepancies become `LeafCardinality` factors. Join
/// discrepancies are attributed to the edges *completed* at the smallest
/// observed expression containing them, splitting the ratio evenly when
/// one node completes several edges (the standard mid-query
/// re-estimation heuristic). A join is judged by its whole expression,
/// before the split; one within tolerance still claims its edges, so a
/// larger expression does not re-attribute them.
pub fn observed_deltas(
    q: &QuerySpec,
    ctx: &CostContext,
    stats: &ExecStats,
    damping: f64,
) -> Vec<ParamDelta> {
    let mut scratch = ctx.clone();
    let mut out = Vec::new();
    // Leaves first.
    for leaf in 0..q.n_leaves() {
        let l = LeafId(leaf);
        let expr = ExprId::rel(reopt_expr::RelSet::singleton(leaf));
        let Some(obs) = stats.rows_of(expr) else {
            continue;
        };
        let ratio = obs.max(1e-3) / scratch.leaf_out_rows(l).max(1e-9);
        if q_error(ratio) <= Q {
            continue;
        }
        let current = scratch.factors().leaf_card(l);
        let factor = damped(current, current * ratio, damping);
        // Held by the clamp (or by damping 0): nothing to feed back.
        if factor != current {
            out.push(ParamDelta::LeafCardinality(l, factor));
        }
    }
    scratch.apply(&out);
    // Joins, ascending by expression size.
    let mut observed: Vec<(ExprId, f64)> = stats
        .rows
        .iter()
        .filter(|(e, _)| !e.agg && e.rel.len() >= 2)
        .map(|(e, r)| (*e, *r))
        .collect();
    observed.sort_by_key(|(e, _)| e.rel.len());
    let mut attributed: FxHashSet<EdgeId> = FxHashSet::default();
    for (expr, obs) in observed {
        let new_edges: Vec<EdgeId> = q
            .edges
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                e.rels().is_subset_of(expr.rel) && !attributed.contains(&EdgeId(*i as u32))
            })
            .map(|(i, _)| EdgeId(i as u32))
            .collect();
        if new_edges.is_empty() {
            continue;
        }
        attributed.extend(&new_edges);
        let ratio = obs.max(1e-3) / scratch.rows(q, expr.rel).max(1e-9);
        if q_error(ratio) <= Q {
            continue;
        }
        let per_edge = ratio.powf(1.0 / new_edges.len() as f64);
        let mut batch = Vec::new();
        for e in new_edges {
            let current = scratch.factors().edge_sel(e);
            let factor = damped(current, current * per_edge, damping);
            if factor != current {
                batch.push(ParamDelta::EdgeSelectivity(e, factor));
            }
        }
        scratch.apply(&batch);
        out.extend(batch);
    }
    out
}

/// How far apart an observation and its estimate are, as a factor ≥ 1.
fn q_error(ratio: f64) -> f64 {
    ratio.max(1.0 / ratio)
}

/// Exponential damping between the current and the raw new factor:
/// `damping = 1` jumps straight to the observation (non-cumulative mode),
/// smaller values blend (cumulative mode of Fig 10).
fn damped(current: f64, raw: f64, damping: f64) -> f64 {
    let clamped = raw.clamp(1e-3, 1e3);
    if damping >= 1.0 {
        clamped
    } else {
        current * (clamped / current).powf(damping.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_catalog::{Catalog, ColumnStats, TableBuilder, TableStats};
    use reopt_expr::RelSet;

    /// A chain `t0 ⋈ t1 ⋈ …` on `k`, one table per entry of `rows`.
    fn chain(rows: &[f64]) -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        for (i, &n) in rows.iter().enumerate() {
            c.add_table(
                |id| {
                    TableBuilder::new(format!("t{i}"))
                        .int_col("k")
                        .int_col("v")
                        .build(id)
                },
                TableStats {
                    row_count: n,
                    columns: vec![ColumnStats::uniform_key(n); 2],
                },
            );
        }
        let mut b = QuerySpec::builder("q");
        let leaves: Vec<LeafId> = (0..rows.len())
            .map(|i| b.leaf(&c, &format!("t{i}")))
            .collect();
        for w in leaves.windows(2) {
            b.join(&c, w[0], "k", w[1], "k");
        }
        (c, b.build())
    }

    fn fixture() -> (Catalog, QuerySpec) {
        chain(&[100.0, 1000.0])
    }

    #[test]
    fn leaf_discrepancy_becomes_cardinality_factor() {
        let (c, q) = fixture();
        let ctx = CostContext::new(&c, &q);
        let mut stats = ExecStats::default();
        stats.rows.insert(ExprId::rel(RelSet::singleton(0)), 400.0); // 4× estimate
        let deltas = observed_deltas(&q, &ctx, &stats, 1.0);
        assert_eq!(deltas.len(), 1);
        match deltas[0] {
            ParamDelta::LeafCardinality(l, f) => {
                assert_eq!(l, LeafId(0));
                assert!((f - 4.0).abs() < 1e-6, "factor {f}");
            }
            other => panic!("unexpected delta {other:?}"),
        }
    }

    #[test]
    fn join_discrepancy_becomes_edge_factor() {
        let (c, q) = fixture();
        let mut ctx = CostContext::new(&c, &q);
        let est = ctx.rows(&q, RelSet(0b11));
        let mut stats = ExecStats::default();
        stats.rows.insert(ExprId::rel(RelSet(0b11)), est * 8.0);
        let deltas = observed_deltas(&q, &ctx, &stats, 1.0);
        assert!(deltas
            .iter()
            .any(|d| matches!(d, ParamDelta::EdgeSelectivity(EdgeId(0), f) if (f - 8.0).abs() < 0.01)));
    }

    #[test]
    fn accurate_estimates_produce_no_deltas() {
        let (c, q) = fixture();
        let mut ctx = CostContext::new(&c, &q);
        let mut stats = ExecStats::default();
        stats
            .rows
            .insert(ExprId::rel(RelSet::singleton(0)), ctx.leaf_out_rows(LeafId(0)));
        stats
            .rows
            .insert(ExprId::rel(RelSet(0b11)), ctx.rows(&q, RelSet(0b11)));
        let deltas = observed_deltas(&q, &ctx, &stats, 1.0);
        assert!(deltas.is_empty(), "{deltas:?}");
    }

    #[test]
    fn damping_blends_toward_observation() {
        let (c, q) = fixture();
        let ctx = CostContext::new(&c, &q);
        let mut stats = ExecStats::default();
        stats.rows.insert(ExprId::rel(RelSet::singleton(0)), 400.0);
        let full = observed_deltas(&q, &ctx, &stats, 1.0);
        let half = observed_deltas(&q, &ctx, &stats, 0.5);
        let f = |d: &ParamDelta| match d {
            ParamDelta::LeafCardinality(_, f) => *f,
            _ => unreachable!(),
        };
        assert!((f(&full[0]) - 4.0).abs() < 1e-6);
        assert!((f(&half[0]) - 2.0).abs() < 1e-6); // sqrt(4) via pow(0.5)
    }

    /// Observed rows per relation set.
    fn observe(rows: &[(RelSet, f64)]) -> ExecStats {
        let mut stats = ExecStats::default();
        for &(rel, n) in rows {
            stats.rows.insert(ExprId::rel(rel), n);
        }
        stats
    }

    #[test]
    fn an_observation_within_q_of_its_estimate_feeds_nothing_back() {
        let (c, q) = fixture();
        let mut ctx = CostContext::new(&c, &q);
        let leaf = ctx.leaf_out_rows(LeafId(0));
        let join = ctx.rows(&q, RelSet(0b11));
        for off in [1.01, 1.5, 1.99, Q] {
            for skew in [off, 1.0 / off] {
                let stats = observe(&[
                    (RelSet::singleton(0), leaf * skew),
                    (RelSet(0b11), join * skew),
                ]);
                for damping in [0.5, 1.0] {
                    let deltas = observed_deltas(&q, &ctx, &stats, damping);
                    assert!(deltas.is_empty(), "{skew}× off: {deltas:?}");
                }
            }
        }
    }

    #[test]
    fn beyond_q_the_delta_is_the_damped_correction() {
        let (c, q) = fixture();
        let mut ctx = CostContext::new(&c, &q);
        ctx.apply(&[ParamDelta::LeafCardinality(LeafId(1), 3.0)]);
        let leaf = ctx.leaf_out_rows(LeafId(1));
        for skew in [2.5, 1.0 / 2.5, 40.0, 1.0 / 40.0] {
            for damping in [0.5, 1.0] {
                let stats = observe(&[(RelSet::singleton(1), leaf * skew)]);
                // What every observation used to feed back, bit for bit.
                let want = damped(3.0, 3.0 * (leaf * skew / leaf), damping);
                assert!((want / 3.0 - skew.powf(damping)).abs() < 1e-9);
                assert_eq!(
                    observed_deltas(&q, &ctx, &stats, damping),
                    [ParamDelta::LeafCardinality(LeafId(1), want)],
                    "{skew}× off, damping {damping}"
                );
            }
        }
        // A join: the whole expression's ratio, on its one edge.
        let stats = observe(&[(RelSet(0b11), ctx.rows(&q, RelSet(0b11)) / 3.0)]);
        let deltas = observed_deltas(&q, &ctx, &stats, 0.5);
        match deltas[..] {
            [ParamDelta::EdgeSelectivity(EdgeId(0), f)] => {
                assert!((f - (1.0f64 / 3.0).sqrt()).abs() < 1e-12, "factor {f}")
            }
            _ => panic!("{deltas:?}"),
        }
    }

    #[test]
    fn a_join_within_tolerance_claims_its_edges() {
        // t0 ⋈ t1 is 1.9× off: within tolerance, so edge 0 stays as it
        // is — and the three-way join, 3× off, charges all of it to the
        // one edge it completes, not half to edge 0.
        let (c, q) = chain(&[100.0, 1000.0, 50.0]);
        let mut ctx = CostContext::new(&c, &q);
        let (pair, all) = (RelSet(0b011), RelSet(0b111));
        let stats = observe(&[
            (pair, ctx.rows(&q, pair) * 1.9),
            (all, ctx.rows(&q, all) * 3.0),
        ]);
        let deltas = observed_deltas(&q, &ctx, &stats, 1.0);
        match deltas[..] {
            [ParamDelta::EdgeSelectivity(EdgeId(1), f)] => {
                assert!((f - 3.0).abs() < 1e-9, "factor {f}")
            }
            _ => panic!("{deltas:?}"),
        }
    }

    #[test]
    fn a_factor_held_at_its_clamp_is_not_fed_back() {
        // Empty windows: every slice observes nothing, far more than Q×
        // under an estimate the clamp already holds at its floor.
        let (c, q) = fixture();
        let mut ctx = CostContext::new(&c, &q);
        ctx.apply(&[ParamDelta::LeafCardinality(LeafId(0), 1e-3)]);
        let stats = observe(&[(RelSet::singleton(0), 0.0)]);
        assert_eq!(observed_deltas(&q, &ctx, &stats, 1.0), []);
    }

    #[test]
    fn with_damping_one_the_factor_jumps_only_beyond_q() {
        // An observation creeping away from the estimate moves nothing
        // until it is more than Q× off, then jumps straight to it.
        let (c, q) = fixture();
        let mut ctx = CostContext::new(&c, &q);
        let base = ctx.leaf_out_rows(LeafId(0));
        let mut factors = Vec::new();
        for skew in [1.0, 1.3, 1.7, 2.0, 2.2, 2.6, 3.5, 4.3, 5.0] {
            let stats = observe(&[(RelSet::singleton(0), base * skew)]);
            ctx.apply(&observed_deltas(&q, &ctx, &stats, 1.0));
            factors.push(ctx.factors().leaf_card(LeafId(0)));
        }
        let want = [1.0, 1.0, 1.0, 1.0, 2.2, 2.2, 2.2, 2.2, 5.0];
        for (got, want) in factors.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{factors:?}");
        }
    }
}
