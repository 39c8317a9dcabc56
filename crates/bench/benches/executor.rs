//! Criterion micro-benchmarks for the execution engine: Q5 over stored
//! TPC-H data and one `SegTollS` stream slice, over empty and over warm
//! windows — executed alone, and ingested then executed (the windows
//! are regrouped in `ingest`, which `execute` alone would not show).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use reopt_baselines::optimize_system_r;
use reopt_bench::harness::{default_stream, default_tpch};
use reopt_cost::CostContext;
use reopt_exec::{Executor, StreamExecutor};
use reopt_expr::JoinGraph;
use reopt_workloads::QueryId;

fn executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    // Stored: Q5 over the default TPC-H instance.
    let (catalog, db) = default_tpch().generate();
    let q5 = QueryId::Q5.build(&catalog);
    let g = JoinGraph::new(&q5);
    let mut ctx = CostContext::new(&catalog, &q5);
    let plan = optimize_system_r(&q5, &g, &mut ctx).plan;
    group.bench_function("q5_stored_optimal_plan", |b| {
        b.iter(|| {
            let mut exec = Executor::from_database(&q5, &catalog, &db);
            exec.run(&plan).0.len()
        })
    });
    // Streaming: one SegTollS slice over warm windows.
    let (sc, sq, mut gen) = default_stream();
    let sg = JoinGraph::new(&sq);
    let mut sctx = CostContext::new(&sc, &sq);
    let splan = optimize_system_r(&sq, &sg, &mut sctx).plan;
    // Before the first tuple: every window empty, every operator run.
    let mut fresh = StreamExecutor::new(&sq);
    group.bench_function("segtolls_slice_empty_windows", |b| {
        b.iter(|| fresh.execute(&splan).out_rows)
    });
    let mut se = StreamExecutor::new(&sq);
    for i in 0..10 {
        se.ingest(&gen.slice(i as f64 * 5.0, 5.0));
    }
    group.bench_function("segtolls_slice_warm_windows", |b| {
        b.iter(|| se.execute(&splan).out_rows)
    });
    // The stream goes on: every iteration ingests the next 5 s slice
    // into the warm windows (as many tuples leave as enter, give or
    // take the bursts) and executes over them. The slices are drawn
    // beforehand and come round again a lap of stream time later.
    let mut ring: Vec<_> = (10..74).map(|i| gen.slice(i as f64 * 5.0, 5.0)).collect();
    let ring_len = ring.len();
    let lap_secs = ring_len as f64 * 5.0;
    let mut turn = 0;
    group.bench_function("segtolls_slice_ingest_and_execute", |b| {
        b.iter(|| {
            let slice = &mut ring[turn % ring_len];
            turn += 1;
            se.ingest(slice);
            slice.iter_mut().for_each(|t| t.ts += lap_secs);
            se.execute(&splan).out_rows
        })
    });
    group.finish();
}

criterion_group!(benches, executor);
criterion_main!(benches);
