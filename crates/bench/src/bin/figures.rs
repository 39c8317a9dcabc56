//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! Usage: `cargo run --release -p reopt-bench --bin figures -- [exp...]`
//! where `exp` is any of `fig4 fig5 fig6 fig7 fig8 fig9 fig10 table3 all`
//! (default: `all`).

use reopt_bench::harness::{self, RATIOS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| {
        args.is_empty() || args.iter().any(|a| a == name || a == "all")
    };
    let (catalog, _db) = harness::tpch_catalog();
    if want("fig4") {
        fig4(&catalog);
    }
    if want("fig5") {
        fig5(&catalog);
    }
    if want("fig6") {
        fig6();
    }
    if want("fig7") {
        fig7(&catalog);
    }
    if want("fig8") {
        fig8(&catalog);
    }
    if want("fig9") {
        fig9();
    }
    if want("fig10") {
        fig10();
    }
    if want("table3") {
        table3();
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn fig4(catalog: &reopt_catalog::Catalog) {
    header("Figure 4: initial query optimization across optimizer architectures");
    println!(
        "{:<8} {:>12} {:>10} {:>11} {:>11} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "query",
        "volcano(us)",
        "sysR/volc",
        "evita/volc",
        "decl/volc",
        "prunG:vol",
        "prunG:ER",
        "prunG:dec",
        "prunA:vol",
        "prunA:ER",
        "prunA:dec"
    );
    for r in harness::fig4(catalog) {
        let v = r.volcano.as_secs_f64();
        println!(
            "{:<8} {:>12.0} {:>10.2} {:>11.2} {:>11.2} | {:>9.2} {:>9.2} {:>9.2} | {:>9.2} {:>9.2} {:>9.2}",
            r.query,
            v * 1e6,
            r.system_r.as_secs_f64() / v,
            r.evita_raced.as_secs_f64() / v,
            r.declarative.as_secs_f64() / v,
            r.volcano_pruning.0,
            r.evita_pruning.0,
            r.declarative_pruning.0,
            r.volcano_pruning.1,
            r.evita_pruning.1,
            r.declarative_pruning.1,
        );
    }
}

fn fig5(catalog: &reopt_catalog::Catalog) {
    header("Figure 5: incremental re-optimization of Q5 — join selectivity changes");
    println!(
        "{:<18} {}",
        "series",
        RATIOS
            .iter()
            .map(|r| format!("{r:>8}"))
            .collect::<String>()
    );
    let points = harness::fig5(catalog);
    for metric in ["time/volcano", "updG", "updA"] {
        println!("-- {metric}");
        for (label, _) in reopt_workloads::fig5_edge_labels() {
            let series: String = points
                .iter()
                .filter(|p| p.label == label)
                .map(|p| {
                    let v = match metric {
                        "time/volcano" => p.time_vs_volcano,
                        "updG" => p.group_update_ratio,
                        _ => p.alt_update_ratio,
                    };
                    format!("{v:>8.3}")
                })
                .collect();
            println!("{label:<18} {series}");
        }
    }
}

fn fig6() {
    header("Figure 6: incremental re-optimization of Q5 — real execution over skewed data");
    println!(
        "{:<6} {:>14} {:>10} {:>10}",
        "round", "time/volcano", "updG", "updA"
    );
    for p in harness::fig6() {
        println!(
            "{:<6} {:>14.3} {:>10.3} {:>10.3}",
            p.round, p.time_vs_volcano, p.group_update_ratio, p.alt_update_ratio
        );
    }
}

fn fig7(catalog: &reopt_catalog::Catalog) {
    header("Figure 7: pruning-strategy ablation at initial optimization");
    println!(
        "{:<8} {:<24} {:>12} {:>8} {:>8}",
        "query", "config", "time/volcano", "prunG", "prunA"
    );
    for r in harness::fig7(catalog) {
        println!(
            "{:<8} {:<24} {:>12.2} {:>8.2} {:>8.2}",
            r.query, r.config, r.time_vs_volcano, r.group_pruning_ratio, r.alt_pruning_ratio
        );
    }
}

fn fig8(catalog: &reopt_catalog::Catalog) {
    header("Figure 8: ablation during incremental re-optimization (Orders scan cost)");
    println!(
        "{:<24} {:>8} {:>14} {:>8} {:>8}",
        "config", "ratio", "time/volcano", "prunG", "prunA"
    );
    for p in harness::fig8(catalog) {
        println!(
            "{:<24} {:>8} {:>14.3} {:>8.2} {:>8.2}",
            p.config, p.ratio, p.time_vs_volcano, p.group_pruning_ratio, p.alt_pruning_ratio
        );
    }
}

fn fig9() {
    header("Figure 9: per-slice re-optimization time (ms), every engine behind one loop");
    // One column per engine behind the same loop: hand-rolled
    // incremental, declarative incremental, from-scratch Volcano.
    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>8}",
        "slice", "incremental", "decl", "non-inc", "deltas"
    );
    let points = harness::fig9(60, 2.0);
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    for p in &points {
        if p.slice % 5 == 0 || p.slice <= 5 {
            println!(
                "{:<6} {:>14.3} {:>14.3} {:>14.3} {:>8}",
                p.slice,
                ms(p.incremental),
                ms(p.declarative),
                ms(p.from_scratch),
                p.deltas
            );
        }
    }
    println!(
        "{:<6} {:>14.3} {:>14.3} {:>14.3} {:>8}",
        "TOTAL",
        points.iter().map(|p| ms(p.incremental)).sum::<f64>(),
        points.iter().map(|p| ms(p.declarative)).sum::<f64>(),
        points.iter().map(|p| ms(p.from_scratch)).sum::<f64>(),
        points.iter().map(|p| p.deltas).sum::<usize>()
    );
}

fn fig10() {
    header("Figure 10: per-slice execution time (ms), window ingest included");
    // `Δ`: parameters each adaptive run fed back after the slice.
    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>14} {:>7} {:>7}",
        "slice", "bad", "good", "aqp-cumul", "aqp-noncumul", "Δcumul", "Δnoncum"
    );
    let points = harness::fig10(40, 3.0);
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    for p in &points {
        if p.slice % 4 == 0 || p.slice <= 4 {
            println!(
                "{:<6} {:>10.2} {:>10.2} {:>12.2} {:>14.2} {:>7} {:>7}",
                p.slice,
                ms(p.bad_plan),
                ms(p.good_plan),
                ms(p.aqp_cumulative),
                ms(p.aqp_non_cumulative),
                p.deltas[2],
                p.deltas[3]
            );
        }
    }
    let sum = |f: fn(&harness::Fig10Point) -> std::time::Duration| -> f64 {
        points.iter().map(|p| f(p).as_secs_f64() * 1e3).sum()
    };
    let deltas = |s: usize| points.iter().map(|p| p.deltas[s]).sum::<usize>();
    println!(
        "{:<6} {:>10.1} {:>10.1} {:>12.1} {:>14.1} {:>7} {:>7}",
        "TOTAL",
        sum(|p| p.bad_plan),
        sum(|p| p.good_plan),
        sum(|p| p.aqp_cumulative),
        sum(|p| p.aqp_non_cumulative),
        deltas(2),
        deltas(3)
    );
    // What the plans produced, and what the interpreter held for it.
    type Series = fn(&harness::Fig10Point) -> [f64; 4];
    for (label, f) in [("Σrows", (|p| p.rows) as Series), ("Σcarr", |p| p.carried)] {
        let [bad, good, cumul, noncumul]: [f64; 4] =
            std::array::from_fn(|s| points.iter().map(|p| f(p)[s]).sum());
        println!("{label:<6} {bad:>10.0} {good:>10.0} {cumul:>12.0} {noncumul:>14.0}");
    }
}

fn table3() {
    header("Table 3: frequency of adaptation (stream of 20 virtual seconds)");
    println!(
        "{:<10} {:>14} {:>16} {:>14}",
        "per-slice", "reopt(ms)", "ingest+exec(ms)", "total(ms)"
    );
    for r in harness::table3(20.0, &[1.0, 5.0, 10.0]) {
        println!(
            "{:<10} {:>14.2} {:>16.2} {:>14.2}",
            format!("{}s", r.per_slice),
            r.reopt_time.as_secs_f64() * 1e3,
            r.exec_time.as_secs_f64() * 1e3,
            r.total_time.as_secs_f64() * 1e3
        );
    }
}
