//! Helpers shared by the bridge's crash and growth suites: random query
//! instances, the chain-5 fixture, sink comparison, scratch durable
//! directories, and the record-by-record restart that `recover` is
//! checked against.
#![allow(dead_code)] // each suite uses its own subset

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use reopt_bridge::{AuditMode, DataflowOptimizer, RecoveryPath};
use reopt_catalog::{Catalog, ColumnStats, TableBuilder, TableStats};
use reopt_cost::ParamDelta;
use reopt_datalog::{Multiset, Tuple};
use reopt_expr::{EdgeId, LeafId, QuerySpec};

/// Deterministic description of a random query instance (same shape as
/// the differential property suite in `props.rs`).
#[derive(Clone, Debug)]
pub struct QueryGen {
    pub rows: Vec<u8>,
    pub indexed: Vec<bool>,
    pub parent: Vec<u8>,
    pub cycle: bool,
}

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

pub fn build(gen: &QueryGen) -> (Catalog, QuerySpec) {
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
    let mut b = QuerySpec::builder("crash");
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

pub fn deltas_for(q: &QuerySpec, raw: (u8, u8, u8)) -> Vec<ParamDelta> {
    let (kind, idx, mag) = raw;
    let factor = 2f64.powi((mag as i32 % 7) - 3);
    vec![match kind % 3 {
        0 if !q.edges.is_empty() => {
            ParamDelta::EdgeSelectivity(EdgeId(idx as u32 % q.edges.len() as u32), factor)
        }
        1 => ParamDelta::LeafCardinality(LeafId(idx as u32 % q.n_leaves()), factor),
        _ => ParamDelta::LeafScanCost(LeafId(idx as u32 % q.n_leaves()), factor),
    }]
}

pub fn sink_sorted(sink: &Multiset) -> Vec<(Tuple, i64)> {
    let mut v: Vec<(Tuple, i64)> = sink.iter().map(|(t, c)| (t.clone(), c)).collect();
    v.sort();
    v
}

/// The materialized sinks, and `BestPlan` as answered on demand.
pub fn assert_sinks_match(a: &DataflowOptimizer, b: &DataflowOptimizer, what: &str) {
    for name in ["SearchSpace", "BestCost"] {
        assert!(
            !a.sink(name).unwrap().has_negative_counts(),
            "{what}: residual negative counts in {name}"
        );
        assert_eq!(
            sink_sorted(a.sink(name).unwrap()),
            sink_sorted(b.sink(name).unwrap()),
            "{what}: sink {name} diverged"
        );
    }
    assert_eq!(a.best_plan_rows(), b.best_plan_rows(), "{what}: BestPlan diverged");
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
    vec![
        deltas_for(q, (0, 1, 6)),
        deltas_for(q, (1, 3, 1)),
        deltas_for(q, (2, 0, 5)),
        deltas_for(q, (0, 2, 2)),
    ]
}

/// A victim that applied `before`, cut a checkpoint, applied `tail` and
/// crashed; returns its durable directory.
pub fn crashed_victim(
    c: &Catalog,
    q: &QuerySpec,
    label: &str,
    before: &[Vec<ParamDelta>],
    tail: &[Vec<ParamDelta>],
) -> std::path::PathBuf {
    let dir = fresh_dir(label);
    let mut victim = DataflowOptimizer::new(c, q.clone());
    victim.set_audit_mode(AuditMode::Off);
    victim.set_durable_dir(&dir).unwrap();
    victim.optimize();
    for record in before {
        victim.reoptimize(record);
    }
    victim.checkpoint_durable().unwrap();
    for record in tail {
        victim.reoptimize(record);
    }
    drop(victim); // the crash
    dir
}

/// A restart that replays the WAL one `reoptimize` per record — built
/// from public calls only and kept as the reference for `recover`,
/// which loads the records' net effect and optimizes once. The crashed
/// engine applied `before`, then (if `from_checkpoint`) cut a
/// checkpoint, then applied `tail`.
///
/// With a checkpoint, a twin that crashed right after cutting its
/// checkpoint is recovered (no tail, so nothing is folded) and fed the
/// tail record by record; without one, a fresh engine is fed the whole
/// history record by record.
pub fn record_by_record_restart(
    c: &Catalog,
    q: &QuerySpec,
    before: &[Vec<ParamDelta>],
    tail: &[Vec<ParamDelta>],
    from_checkpoint: bool,
) -> DataflowOptimizer {
    if !from_checkpoint {
        let mut opt = DataflowOptimizer::new(c, q.clone());
        opt.set_audit_mode(AuditMode::Off);
        opt.optimize();
        for record in before.iter().chain(tail) {
            opt.reoptimize(record);
        }
        return opt;
    }
    let dir = crashed_victim(c, q, "reference", before, &[]);
    let (mut opt, out) = DataflowOptimizer::recover(c, q.clone(), &dir).unwrap();
    assert_eq!(out.recovery.path, RecoveryPath::RestoredFromCheckpoint);
    opt.set_audit_mode(AuditMode::Off);
    for record in tail {
        opt.reoptimize(record);
    }
    let _ = std::fs::remove_dir_all(&dir);
    opt
}
