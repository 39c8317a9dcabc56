//! Helpers shared by the bridge's property, crash, growth and sync-helper
//! suites: the random-query strategy (over `reopt_core::fixtures`'
//! `QueryGen`), the chain-5 fixture, the two durable engines behind
//! one trait, and scratch durable directories.
#![allow(dead_code)] // each suite uses its own subset

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use reopt_bridge::durable::WriteReport;
use reopt_bridge::{AuditMode, DataflowEngine, DataflowOptimizer, Durable, Restart};
use reopt_catalog::Catalog;
use reopt_common::Cost;
use reopt_core::fixtures::deltas_for;
use reopt_core::memo::AltId;
use reopt_core::{IncrementalOptimizer, PruningConfig, Reoptimizer};
use reopt_cost::ParamDelta;
use reopt_datalog::{Multiset, Tuple};
use reopt_expr::{PlanNode, QuerySpec};

pub use reopt_core::fixtures::{build, QueryGen};

/// A random query of 2..=`max_leaves` leaves.
pub fn query_gen(max_leaves: usize) -> impl Strategy<Value = QueryGen> {
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

/// A durable engine the crash suites run: the hand-rolled engine
/// (`hr`) and the declarative one (`decl`), each behind [`Durable`].
pub trait Engine: Reoptimizer<Outcome: WriteReport> + Sized {
    const NAME: &'static str;
    /// A fresh engine, durable and unarmed, its audit off.
    fn fresh(c: &Catalog, q: &QuerySpec) -> Durable<Self>;
    /// A restart from `dir`, its audit off, and what it found there.
    fn restart(c: &Catalog, q: &QuerySpec, dir: &Path) -> (Durable<Self>, Restart);
    /// The current best cost and plan.
    fn best(d: &Durable<Self>) -> (Cost, PlanNode);
    /// Asserts that `a` holds exactly what `b` holds.
    fn assert_same(a: &Durable<Self>, b: &Durable<Self>, what: &str);
    /// The engine's own full consistency check.
    fn audit(d: &mut Durable<Self>) -> Result<(), String>;
}

impl Engine for IncrementalOptimizer {
    const NAME: &'static str = "hr";

    fn fresh(c: &Catalog, q: &QuerySpec) -> Durable<Self> {
        Durable::from(IncrementalOptimizer::new(c, q.clone(), PruningConfig::default()))
    }

    fn restart(c: &Catalog, q: &QuerySpec, dir: &Path) -> (Durable<Self>, Restart) {
        let build = |log: &[ParamDelta]| {
            let mut engine = IncrementalOptimizer::new(c, q.clone(), PruningConfig::default());
            engine.preload(log);
            engine
        };
        let (opt, _, restart) = Durable::restart(dir, q, build).unwrap();
        (opt, restart)
    }

    fn best(d: &Durable<Self>) -> (Cost, PlanNode) {
        (d.best_cost(), d.best_plan())
    }

    /// Cost, plan and the held set — what the declarative engine's
    /// network would be fed.
    fn assert_same(a: &Durable<Self>, b: &Durable<Self>, what: &str) {
        let held = |d: &Durable<Self>| {
            let alts = (0..d.memo().n_alts() as u32).map(AltId);
            alts.map(|alt| d.held(alt)).collect::<Vec<_>>()
        };
        assert_eq!(Self::best(a), Self::best(b), "hr {what}: best cost or plan diverged");
        assert_eq!(held(a), held(b), "hr {what}: held set diverged");
    }

    fn audit(d: &mut Durable<Self>) -> Result<(), String> {
        d.check_invariants()
    }
}

impl Engine for DataflowEngine {
    const NAME: &'static str = "decl";

    fn fresh(c: &Catalog, q: &QuerySpec) -> Durable<Self> {
        let mut opt = DataflowOptimizer::new(c, q.clone());
        opt.set_audit_mode(AuditMode::Off);
        opt
    }

    /// Through `DataflowOptimizer::recover`, which reports the restart
    /// in its outcome.
    fn restart(c: &Catalog, q: &QuerySpec, dir: &Path) -> (Durable<Self>, Restart) {
        let (mut opt, out) = DataflowOptimizer::recover(c, q.clone(), dir).unwrap();
        opt.set_audit_mode(AuditMode::Off);
        let restart = Restart {
            path: out.recovery.path,
            errors: out.recovery.errors,
        };
        (opt, restart)
    }

    fn best(d: &Durable<Self>) -> (Cost, PlanNode) {
        (d.best_cost(), d.best_plan())
    }

    /// Cost, plan, the `SearchSpace` and `BestCost` views with counts,
    /// and `BestPlan` as answered on demand.
    fn assert_same(a: &Durable<Self>, b: &Durable<Self>, what: &str) {
        assert_eq!(Self::best(a), Self::best(b), "decl {what}: best cost or plan diverged");
        for name in ["SearchSpace", "BestCost"] {
            assert!(
                !a.view(name).unwrap().has_negative_counts(),
                "decl {what}: residual negative counts in {name}"
            );
            assert_eq!(
                sink_sorted(a.view(name).unwrap()),
                sink_sorted(b.view(name).unwrap()),
                "decl {what}: view {name} diverged"
            );
        }
        assert_eq!(a.best_plan_rows(), b.best_plan_rows(), "decl {what}: BestPlan diverged");
    }

    fn audit(d: &mut Durable<Self>) -> Result<(), String> {
        d.audit().map_err(|e| e.to_string())
    }
}

pub fn sink_sorted(sink: &Multiset) -> Vec<(Tuple, i64)> {
    let mut v: Vec<(Tuple, i64)> = sink.iter().map(|(t, c)| (t.clone(), c)).collect();
    v.sort();
    v
}

/// A fresh, unique durable directory under the system temp dir.
pub fn fresh_dir(label: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "reopt-bridge-crash-{label}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deterministic 5-leaf chain the benches use, with a fixed delta
/// schedule — the fixture behind the plain (non-property) tests.
pub fn chain5() -> (Catalog, QuerySpec) {
    build(&QueryGen {
        rows: vec![2, 4, 3, 5, 1],
        indexed: vec![true, false, true, false, true],
        parent: vec![0, 1, 2, 3],
        cycle: false,
    })
}

pub fn chain5_batches(q: &QuerySpec) -> Vec<Vec<ParamDelta>> {
    [(0, 1, 6), (1, 3, 1), (2, 0, 5), (0, 2, 2)]
        .into_iter()
        .map(|raw| deltas_for(q, &[raw], false))
        .collect()
}

/// An engine that has applied `batches` and never crashed.
pub fn oracle_after<E: Engine>(
    c: &Catalog,
    q: &QuerySpec,
    batches: &[Vec<ParamDelta>],
) -> Durable<E> {
    let mut oracle = E::fresh(c, q);
    oracle.optimize();
    for batch in batches {
        oracle.reoptimize(batch);
    }
    oracle
}

/// A durable victim that applied `batches` — each that changed a
/// parameter wrote its image — and crashed; returns its directory.
pub fn crashed_victim<E: Engine>(
    c: &Catalog,
    q: &QuerySpec,
    label: &str,
    batches: &[Vec<ParamDelta>],
) -> std::path::PathBuf {
    let dir = fresh_dir(label);
    let mut victim = E::fresh(c, q);
    victim.set_durable_dir(&dir).unwrap();
    victim.optimize();
    for batch in batches {
        victim.reoptimize(batch);
    }
    drop(victim); // the crash
    dir
}
