//! Durability benchmarks: what a checkpoint costs to cut and what a
//! restart costs. A checkpoint holds the parameters (the state is a
//! function of them), so a restart is a first boot on the recovered
//! parameters plus the file reads: `restore_replay` must stay within
//! the gate's tolerance of `optimizer_dataflow/initial_chain5/
//! declarative` and under `from_scratch_initial`, which replays the
//! history one epoch per batch; `checkpoint_write` is one positioned
//! write of a 4 KiB checkpoint slot and its `sync_data`;
//! `durable_epoch` is one re-optimization with its WAL append, whose
//! fsync runs beside the epoch. The `_hr`
//! entries run the same restart and epoch on the hand-rolled engine,
//! made durable by the same wrapper. Gated in CI by `check_bench`
//! against the committed baseline.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use reopt_bridge::{AuditMode, DataflowOptimizer, Durable};
use reopt_catalog::Catalog;
use reopt_core::fixtures::{chain_query, fixture_catalog};
use reopt_core::{IncrementalOptimizer, PruningConfig};
use reopt_cost::ParamDelta;
use reopt_expr::{EdgeId, LeafId, QuerySpec};

fn fresh_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("reopt-bench-ckpt-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn warm_batches() -> Vec<Vec<ParamDelta>> {
    vec![
        vec![ParamDelta::EdgeSelectivity(EdgeId(1), 2.0)],
        vec![ParamDelta::LeafCardinality(LeafId(2), 2.0)],
        vec![ParamDelta::EdgeSelectivity(EdgeId(3), 0.5)],
        vec![ParamDelta::LeafScanCost(LeafId(4), 4.0)],
    ]
}

/// The hand-rolled engine as the benchmark runs it, holding `log`.
fn hr(catalog: &Catalog, q: &QuerySpec, log: &[ParamDelta]) -> IncrementalOptimizer {
    let mut opt = IncrementalOptimizer::new(catalog, q.clone(), PruningConfig::all_strict());
    opt.preload(log);
    opt
}

fn checkpoint_restore(c: &mut Criterion) {
    let catalog = fixture_catalog();
    let q = chain_query(&catalog, 5);
    let batches = warm_batches();
    let mut group = c.benchmark_group("checkpoint_restore");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));

    // Cutting a durable checkpoint of a warmed chain-5 optimizer:
    // encode the parameter log + write the free slot + `sync_data`.
    group.bench_function("checkpoint_write/chain5", |b| {
        let dir = fresh_dir("write");
        let mut opt = DataflowOptimizer::new(&catalog, q.clone());
        opt.set_audit_mode(AuditMode::Off);
        opt.set_durable_dir(&dir).unwrap();
        opt.optimize();
        for batch in &batches {
            opt.reoptimize(batch);
        }
        b.iter(|| opt.checkpoint_durable().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    });

    // Full restart: open and scan the WAL, decode the checkpoint, load
    // its log and the WAL record past its watermark, optimize once.
    group.bench_function("restore_replay/chain5", |b| {
        let dir = fresh_dir("restore");
        {
            let mut victim = DataflowOptimizer::new(&catalog, q.clone());
            victim.set_audit_mode(AuditMode::Off);
            victim.set_durable_dir(&dir).unwrap();
            victim.optimize();
            victim.reoptimize(&batches[0]);
            victim.reoptimize(&batches[1]);
            victim.reoptimize(&batches[2]);
            victim.checkpoint_durable().unwrap();
            victim.reoptimize(&batches[3]);
        }
        b.iter(|| {
            let (_opt, out) = DataflowOptimizer::recover(&catalog, q.clone(), &dir).unwrap();
            assert!(out.recovery.errors.is_empty());
            out.cost
        });
        let _ = std::fs::remove_dir_all(&dir);
    });

    // One durable epoch, a selectivity flip: the WAL record is written,
    // its fsync overlaps the epoch, and the call returns once both are
    // done.
    group.bench_function("durable_epoch/chain5", |b| {
        let dir = fresh_dir("epoch");
        let mut opt = DataflowOptimizer::new(&catalog, q.clone());
        opt.set_audit_mode(AuditMode::Off);
        opt.set_durable_dir(&dir).unwrap();
        opt.optimize();
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let factor = if flip { 2.0 } else { 1.0 };
            opt.reoptimize(&[ParamDelta::EdgeSelectivity(EdgeId(1), factor)]).cost
        });
        drop(opt);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // The same restart on the hand-rolled engine.
    group.bench_function("restore_replay_hr/chain5", |b| {
        let dir = fresh_dir("restore-hr");
        {
            let mut victim = Durable::from(hr(&catalog, &q, &[]));
            victim.set_durable_dir(&dir).unwrap();
            victim.optimize();
            victim.reoptimize(&batches[0]);
            victim.reoptimize(&batches[1]);
            victim.reoptimize(&batches[2]);
            victim.checkpoint_durable().unwrap();
            victim.reoptimize(&batches[3]);
        }
        b.iter(|| {
            let build = |log: &[ParamDelta]| hr(&catalog, &q, log);
            let (_opt, out, restart) = Durable::restart(&dir, &q, build).unwrap();
            assert!(restart.errors.is_empty());
            out.cost
        });
        let _ = std::fs::remove_dir_all(&dir);
    });

    // The same durable epoch on the hand-rolled engine.
    group.bench_function("durable_epoch_hr/chain5", |b| {
        let dir = fresh_dir("epoch-hr");
        let mut opt = Durable::from(hr(&catalog, &q, &[]));
        opt.set_durable_dir(&dir).unwrap();
        opt.optimize();
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let factor = if flip { 2.0 } else { 1.0 };
            opt.reoptimize(&[ParamDelta::EdgeSelectivity(EdgeId(1), factor)]).cost
        });
        drop(opt);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // What a restart would pay without folding the history: build and
    // evaluate the network from nothing, then one epoch per batch.
    group.bench_function("from_scratch_initial/chain5", |b| {
        b.iter(|| {
            let mut opt = DataflowOptimizer::new(&catalog, q.clone());
            opt.set_audit_mode(AuditMode::Off);
            opt.optimize();
            for batch in &batches {
                opt.reoptimize(batch);
            }
            opt.best_cost()
        })
    });

    group.finish();
}

criterion_group!(benches, checkpoint_restore);
criterion_main!(benches);
