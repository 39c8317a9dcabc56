//! Quickstart: optimize TPC-H Q5, perturb a selectivity estimate, and
//! re-optimize incrementally.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use reopt::core::{IncrementalOptimizer, PruningConfig};
use reopt::cost::ParamDelta;
use reopt::expr::EdgeId;
use reopt::workloads::{QueryId, TpchGen};

fn main() {
    // 1. Generate a small TPC-H instance; the catalog carries statistics
    //    (histograms) computed from the data.
    let (catalog, _db) = TpchGen::default().generate();

    // 2. Build Q5 (6-way join) and run initial optimization with all
    //    three pruning strategies of the paper enabled.
    let q5 = QueryId::Q5.build(&catalog);
    let mut optimizer = IncrementalOptimizer::new(&catalog, q5, PruningConfig::default());
    let initial = optimizer.optimize();
    println!("== initial optimization ==");
    println!("best cost: {}", initial.cost);
    println!("plan:\n{}", initial.plan);
    println!(
        "state: {}/{} groups live, {}/{} alternatives live",
        initial.state.total_groups - initial.state.pruned_groups,
        initial.state.total_groups,
        initial.state.total_alts - initial.state.pruned_alts,
        initial.state.total_alts,
    );

    // 3. Runtime feedback arrives: the LINEITEM ⋈ ORDERS join produces
    //    4x the estimated rows. Re-optimize incrementally — only the
    //    affected cone of the memo is recomputed.
    let out = optimizer.reoptimize(&[ParamDelta::EdgeSelectivity(EdgeId(3), 4.0)]);
    println!("\n== after ×4 selectivity on LINEITEM ⋈ ORDERS ==");
    println!("best cost: {}", out.cost);
    println!(
        "touched {} of {} groups ({:.1}%), {} of {} alternatives ({:.1}%)",
        out.run.touched_groups,
        out.state.total_groups,
        100.0 * out.run.group_update_ratio(out.state.total_groups),
        out.run.touched_alts,
        out.state.total_alts,
        100.0 * out.run.alt_update_ratio(out.state.total_alts),
    );
    if out.plan.fingerprint() != initial.plan.fingerprint() {
        println!("the plan changed:\n{}", out.plan);
    } else {
        println!("the plan is unchanged (still optimal).");
    }

    // 4. Reverting the estimate converges back with minimal work.
    let back = optimizer.reoptimize(&[ParamDelta::EdgeSelectivity(EdgeId(3), 1.0)]);
    println!("\n== after reverting the estimate ==");
    println!(
        "best cost: {} (initial was {}), touched {} groups",
        back.cost, initial.cost, back.run.touched_groups
    );
}
