//! Head-to-head benchmark of the two executions of the same declarative
//! optimizer specification:
//!
//! - `declarative`: the rule network compiled onto the generic batched
//!   dataflow substrate (`reopt_bridge::DataflowOptimizer`) — the §4
//!   "optimizer maintained as a view" story, executed literally;
//! - `hand_rolled`: the typed delta-propagation engine
//!   (`reopt_core::IncrementalOptimizer`) with no pruning — the same
//!   semantics the dataflow network computes;
//! - `hand_rolled_strict`: the engine under every pruning strategy
//!   (`all()`, reclaimed costs kept current) — the paper's §5
//!   comparison point, and the one `BENCHMARK.json` times as `hr`.
//!
//! Scenarios: initial optimization (network construction + evaluation)
//! and one incremental flip per §4 update kind (scan cost, join
//! selectivity, leaf cardinality). Results land in the committed
//! `BENCH_<pr>.json` baseline via `REOPT_BENCH_JSON`; CI gates
//! regressions against it with `check_bench`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use reopt_bridge::DataflowOptimizer;
use reopt_core::fixtures::{chain_query, fixture_catalog};
use reopt_core::{IncrementalOptimizer, PruningConfig};
use reopt_cost::ParamDelta;
use reopt_expr::{EdgeId, LeafId};

fn optimizer_dataflow(c: &mut Criterion) {
    let catalog = fixture_catalog();
    let q = chain_query(&catalog, 5);
    let mut group = c.benchmark_group("optimizer_dataflow");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));

    group.bench_function("initial_chain5/declarative", |b| {
        b.iter(|| {
            let mut opt = DataflowOptimizer::new(&catalog, q.clone());
            opt.optimize().cost
        })
    });
    let hand_rolled = [
        ("hand_rolled", PruningConfig::none()),
        ("hand_rolled_strict", PruningConfig::all()),
    ];
    for (column, cfg) in hand_rolled {
        group.bench_function(format!("initial_chain5/{column}"), |b| {
            b.iter(|| {
                let mut opt = IncrementalOptimizer::new(&catalog, q.clone(), cfg);
                opt.optimize().cost
            })
        });
    }

    // One flip per §4 update kind: alternating between two factor
    // values so every reoptimize performs real propagation.
    type DeltaFor = fn(bool) -> ParamDelta;
    let scenarios: [(&str, DeltaFor); 3] = [
        ("reopt_scan_cost", |flip| {
            ParamDelta::LeafScanCost(LeafId(4), if flip { 4.0 } else { 1.0 })
        }),
        ("reopt_selectivity", |flip| {
            ParamDelta::EdgeSelectivity(EdgeId(1), if flip { 2.0 } else { 1.0 })
        }),
        ("reopt_cardinality", |flip| {
            ParamDelta::LeafCardinality(LeafId(2), if flip { 2.0 } else { 1.0 })
        }),
    ];
    for (name, delta) in scenarios {
        group.bench_function(format!("{name}/declarative"), |b| {
            let mut opt = DataflowOptimizer::new(&catalog, q.clone());
            opt.optimize();
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                opt.reoptimize(&[delta(flip)]).cost
            })
        });
        for (column, cfg) in hand_rolled {
            group.bench_function(format!("{name}/{column}"), |b| {
                let mut opt = IncrementalOptimizer::new(&catalog, q.clone(), cfg);
                opt.optimize();
                let mut flip = false;
                b.iter(|| {
                    flip = !flip;
                    opt.reoptimize(&[delta(flip)]).cost
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, optimizer_dataflow);
criterion_main!(benches);
