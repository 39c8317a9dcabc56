//! The plan space's construction: `Memo::build` alone, the part of
//! every first `optimize()` — every boot, restart and rebuild of either
//! engine — that lists each join expression's splits once and
//! elaborates its property groups from them. TPC-H Q5, and a star-8,
//! a chain-12 and a clique-6 from `reopt_core::fixtures::shaped_query`
//! (450, 212 and 391 groups). Gated in CI by `check_bench` against the
//! committed baseline.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reopt_bench::harness::default_tpch;
use reopt_core::fixtures::{fixture_catalog, shaped_query};
use reopt_core::Memo;
use reopt_expr::JoinGraph;
use reopt_workloads::QueryId;

fn memo_build(c: &mut Criterion) {
    let (tpch, _db) = default_tpch().generate();
    let fixtures = fixture_catalog();
    let queries = [
        ("Q5", QueryId::Q5.build(&tpch)),
        ("star8", shaped_query(&fixtures, "star", 8)),
        ("chain12", shaped_query(&fixtures, "chain", 12)),
        ("clique6", shaped_query(&fixtures, "clique", 6)),
    ];
    let mut group = c.benchmark_group("memo_build");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    for (name, q) in &queries {
        let g = JoinGraph::new(q);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| Memo::build(q, &g).n_alts())
        });
    }
    group.finish();
}

criterion_group!(benches, memo_build);
criterion_main!(benches);
