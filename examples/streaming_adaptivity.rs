//! Adaptive stream processing (the paper's first target domain): the
//! Linear Road `SegTollS` query executed slice-at-a-time with
//! incremental re-optimization at every split point (paper §5.4).
//!
//! ```sh
//! cargo run --release --example streaming_adaptivity
//! ```

use reopt::aqp::{AqpConfig, AqpDriver};
use reopt::catalog::Catalog;
use reopt::workloads::{seg_toll_query, LinearRoadGen};

fn main() {
    let mut catalog = Catalog::new();
    let mut gen = LinearRoadGen::new(42);
    gen.rate = 40.0;
    gen.n_cars = 400;
    gen.n_segments = 25;
    gen.register(&mut catalog);
    let query = seg_toll_query(&catalog);
    println!(
        "SegTollS: {} windowed self-join leaves, {} join edges\n",
        query.n_leaves(),
        query.edges.len()
    );
    let mut driver = AqpDriver::new(&catalog, query, AqpConfig::default());
    println!("initial plan:\n{}", driver.current_plan());
    println!(
        "{:<6} {:>8} {:>10} {:>10} {:>9} {:>8}",
        "slice", "windows", "exec(ms)", "reopt(us)", "touched", "plan?"
    );
    let slice_dur = 5.0;
    let mut changes = 0;
    for i in 0..24 {
        let tuples = gen.slice(i as f64 * slice_dur, slice_dur);
        let r = driver.run_slice(&tuples);
        if r.plan_changed {
            changes += 1;
        }
        let touched = r.outcome.as_ref().map_or(0, |o| o.run.touched_groups);
        println!(
            "{:<6} {:>8} {:>10.2} {:>10.1} {:>9} {:>8}",
            r.slice,
            r.window_rows,
            r.exec_time.as_secs_f64() * 1e3,
            r.reopt_time.as_secs_f64() * 1e6,
            touched,
            if r.plan_changed { "CHANGED" } else { "-" },
        );
    }
    println!("\n{changes} plan changes over 24 slices; final plan:");
    println!("{}", driver.current_plan());
}
