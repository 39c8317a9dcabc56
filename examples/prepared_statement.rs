//! Repeated OLAP execution (the paper's second target domain): a
//! prepared statement executed over successive skewed data partitions,
//! re-optimized after every execution from observed statistics.
//!
//! ```sh
//! cargo run --release --example prepared_statement
//! ```

use reopt::aqp::run_partitions;
use reopt::core::{IncrementalOptimizer, PruningConfig};
use reopt::workloads::{QueryId, TpchGen};

fn main() {
    let gen = TpchGen {
        sf: 0.002,
        zipf_theta: 0.5, // the skewed TPC-D setting of paper §5.2.2
        seed: 13,
        buckets: 32,
    };
    let (catalog, db) = gen.generate();
    let q5 = QueryId::Q5.build(&catalog);
    let partitions = gen.partition(&db, &catalog, 8);
    println!("executing Q5 over {} skewed partitions…\n", partitions.len());
    let engine = IncrementalOptimizer::new(&catalog, q5, PruningConfig::default());
    let reports = run_partitions(&catalog, engine, &partitions, 0.5);
    println!(
        "{:<6} {:>12} {:>12} {:>9} {:>12} {:>8}",
        "round", "inc-reopt", "volcano", "speedup", "touched", "plan?"
    );
    for r in &reports {
        println!(
            "{:<6} {:>10.1}us {:>10.1}us {:>8.1}x {:>12} {:>8}",
            r.round + 1,
            r.reopt_time.as_secs_f64() * 1e6,
            r.scratch_time.as_secs_f64() * 1e6,
            r.scratch_time.as_secs_f64() / r.reopt_time.as_secs_f64().max(1e-12),
            format!(
                "{}g/{}a",
                r.outcome.run.touched_groups, r.outcome.run.touched_alts
            ),
            if r.plan_changed { "changed" } else { "kept" },
        );
    }
    let total_inc: f64 = reports.iter().map(|r| r.reopt_time.as_secs_f64()).sum();
    let total_vol: f64 = reports.iter().map(|r| r.scratch_time.as_secs_f64()).sum();
    println!(
        "\ntotal re-optimization time: incremental {:.1}us vs from-scratch {:.1}us ({:.1}x)",
        total_inc * 1e6,
        total_vol * 1e6,
        total_vol / total_inc.max(1e-12)
    );
}
