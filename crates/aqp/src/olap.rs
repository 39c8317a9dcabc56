//! Repeated OLAP execution with per-iteration feedback — the paper's
//! §5.2.2 experiment: "we ran the resulting query over different
//! partitions of skewed data …; at the end we re-optimized given the
//! cumulatively observed statistics".

use std::time::{Duration, Instant};

use reopt_baselines::FromScratch;
use reopt_catalog::Catalog;
use reopt_core::{Outcome, Reoptimizer};
use reopt_exec::{observed_deltas, Database, Executor};

/// Measurements for one partition round (one x-position of Fig 6). `O`
/// is the engine's report type.
#[derive(Clone, Debug)]
pub struct PartitionReport<O = Outcome> {
    pub round: usize,
    /// The engine's re-optimization time after executing this partition.
    pub reopt_time: Duration,
    /// From-scratch (Volcano) re-optimization time on the same deltas.
    pub scratch_time: Duration,
    /// The engine's report of that re-optimization.
    pub outcome: O,
    pub plan_changed: bool,
    pub observed_rows: usize,
}

/// Optimizes once with `engine`, then executes each partition in turn,
/// feeding observed cardinalities back and re-optimizing (with a
/// [`FromScratch`] run timed on identical deltas for comparison).
pub fn run_partitions<R: Reoptimizer>(
    catalog: &Catalog,
    mut engine: R,
    partitions: &[Database],
    damping: f64,
) -> Vec<PartitionReport<R::Outcome>> {
    let q = engine.query().clone();
    let mut scratch = FromScratch::new(catalog, q.clone());
    let mut plan = R::plan(&engine.optimize()).clone();
    let mut reports = Vec::with_capacity(partitions.len());
    for (round, db) in partitions.iter().enumerate() {
        let mut exec = Executor::from_database(&q, catalog, db);
        let (rows, _) = exec.run(&plan);
        let deltas = observed_deltas(&q, engine.cost_context(), &exec.stats, damping);
        let t0 = Instant::now();
        let outcome = engine.reoptimize(&deltas);
        let reopt_time = t0.elapsed();
        let t1 = Instant::now();
        scratch.reoptimize(&deltas);
        let scratch_time = t1.elapsed();
        let new_plan = R::plan(&outcome);
        let plan_changed = new_plan.fingerprint() != plan.fingerprint();
        plan = new_plan.clone();
        reports.push(PartitionReport {
            round,
            reopt_time,
            scratch_time,
            outcome,
            plan_changed,
            observed_rows: rows.len(),
        });
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_core::{IncrementalOptimizer, PruningConfig};
    use reopt_workloads::{QueryId, TpchGen};

    #[test]
    fn skewed_partitions_drive_incremental_reoptimization() {
        let gen = TpchGen {
            sf: 0.001,
            zipf_theta: 0.5,
            ..Default::default()
        };
        let (catalog, db) = gen.generate();
        let q = QueryId::Q5.build(&catalog);
        let parts = gen.partition(&db, &catalog, 5);
        let engine = IncrementalOptimizer::new(&catalog, q, PruningConfig::default());
        let reports = run_partitions(&catalog, engine, &parts, 0.5);
        assert_eq!(reports.len(), 5);
        // Feedback produced real work at least once, and the update
        // ratio stays a strict subset of the space.
        assert!(reports.iter().any(|r| r.outcome.run.touched_groups > 0));
        for r in &reports {
            assert!(r.outcome.run.touched_groups <= r.outcome.state.total_groups);
        }
    }

    #[test]
    fn stable_statistics_converge_to_no_work() {
        // Uniform partitions: after the first rounds of feedback the
        // estimates match observations and re-optimization goes idle.
        let gen = TpchGen {
            sf: 0.001,
            zipf_theta: 0.0,
            ..Default::default()
        };
        let (catalog, db) = gen.generate();
        let q = QueryId::Q10.build(&catalog);
        let parts: Vec<Database> = vec![db.clone(), db.clone(), db.clone(), db];
        let engine = IncrementalOptimizer::new(&catalog, q, PruningConfig::default());
        let reports = run_partitions(&catalog, engine, &parts, 1.0);
        let touched: Vec<u64> = reports.iter().map(|r| r.outcome.run.touched_alts).collect();
        assert!(touched.last() <= touched.first(), "{touched:?}");
    }
}
