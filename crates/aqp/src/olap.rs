//! Repeated OLAP execution with per-iteration feedback — the paper's
//! §5.2.2 experiment: "we ran the resulting query over different
//! partitions of skewed data …; at the end we re-optimized given the
//! cumulatively observed statistics".

use std::time::{Duration, Instant};

use reopt_baselines::optimize_volcano;
use reopt_catalog::Catalog;
use reopt_core::{IncrementalOptimizer, PruningConfig, RunMetrics, StateMetrics};
use reopt_cost::CostContext;
use reopt_exec::{observed_deltas, Database, Executor};
use reopt_expr::{JoinGraph, QuerySpec};

/// Measurements for one partition round (one x-position of Fig 6).
#[derive(Clone, Debug)]
pub struct PartitionReport {
    pub round: usize,
    /// Incremental re-optimization time after executing this partition.
    pub incremental_reopt: Duration,
    /// From-scratch (Volcano) re-optimization time on the same deltas.
    pub volcano_reopt: Duration,
    pub run: RunMetrics,
    pub state: StateMetrics,
    pub plan_changed: bool,
    pub observed_rows: usize,
}

/// Optimizes once on the first partition's statistics, then executes
/// each partition in turn, feeding observed cardinalities back and
/// re-optimizing incrementally (with a from-scratch Volcano run timed on
/// identical inputs for comparison).
pub fn run_partitions(
    catalog: &Catalog,
    q: &QuerySpec,
    partitions: &[Database],
    pruning: PruningConfig,
    damping: f64,
) -> Vec<PartitionReport> {
    let graph = JoinGraph::new(q);
    let mut optimizer = IncrementalOptimizer::new(catalog, q.clone(), pruning);
    let mut current = optimizer.optimize();
    let mut scratch_ctx = CostContext::new(catalog, q);
    let mut reports = Vec::with_capacity(partitions.len());
    for (round, db) in partitions.iter().enumerate() {
        let mut exec = Executor::from_database(q, catalog, db);
        let (rows, _) = exec.run(&current.plan);
        let deltas = observed_deltas(q, optimizer.cost_context(), &exec.stats, damping);
        let t0 = Instant::now();
        let out = optimizer.reoptimize(&deltas);
        let incremental_reopt = t0.elapsed();
        let t1 = Instant::now();
        scratch_ctx.apply(&deltas);
        let _ = optimize_volcano(q, &graph, &mut scratch_ctx);
        let volcano_reopt = t1.elapsed();
        let plan_changed = out.plan.fingerprint() != current.plan.fingerprint();
        reports.push(PartitionReport {
            round,
            incremental_reopt,
            volcano_reopt,
            run: out.run,
            state: out.state,
            plan_changed,
            observed_rows: rows.len(),
        });
        current = out;
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let reports = run_partitions(&catalog, &q, &parts, PruningConfig::default(), 0.5);
        assert_eq!(reports.len(), 5);
        // Feedback produced real work at least once, and the update
        // ratio stays a strict subset of the space.
        assert!(reports.iter().any(|r| r.run.touched_groups > 0));
        for r in &reports {
            assert!(r.run.touched_groups <= r.state.total_groups);
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
        let reports = run_partitions(&catalog, &q, &parts, PruningConfig::default(), 1.0);
        let last = reports.last().unwrap();
        let first = reports.first().unwrap();
        assert!(
            last.run.touched_alts <= first.run.touched_alts,
            "{:?}",
            reports
                .iter()
                .map(|r| r.run.touched_alts)
                .collect::<Vec<_>>()
        );
    }
}
