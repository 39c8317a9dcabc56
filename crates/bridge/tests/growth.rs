//! History must not show in the declarative engine: driven round a
//! cyclic parameter walk, an epoch costs and holds exactly what the same
//! epoch of the previous lap cost and held.

mod common;

use reopt_bridge::{AuditMode, DataflowOptimizer};
use reopt_cost::ParamDelta;
use reopt_expr::{EdgeId, LeafId};

use common::{build, QueryGen};

/// What one epoch did and what the engine holds after it.
#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    deltas_processed: u64,
    state_rows: u64,
    consolidator_entries: usize,
    consolidator_capacity: usize,
}

/// A star-5 engine walks the same ten batches forty times. Factors are
/// absolute, so from the second lap on epoch `k` starts from the state
/// epoch `k - 10` started from: the work it does, the rows every node
/// holds after it and the consolidator's footprint must all repeat
/// exactly. Anything that accumulates per epoch — a table that is never
/// cleared, a zero-count row left behind — breaks the equality.
#[test]
fn a_cyclic_walk_costs_and_holds_the_same_every_lap() {
    const PERIOD: usize = 10;
    const EPOCHS: usize = 400;
    let (c, q) = build(&QueryGen {
        rows: vec![5, 2, 3, 4, 1],
        indexed: vec![false, true, false, true, true],
        parent: vec![0, 0, 0, 0],
        cycle: false,
    });
    let lap: Vec<Vec<ParamDelta>> = (0..PERIOD as u32)
        .map(|i| {
            let factor = [0.125, 4.0, 0.5, 8.0, 2.0][i as usize % 5];
            vec![
                ParamDelta::LeafCardinality(LeafId(i % 5), factor),
                ParamDelta::EdgeSelectivity(EdgeId((i + 1) % 4), 1.0 / factor),
                ParamDelta::LeafScanCost(LeafId((i + 2) % 5), factor * 3.0),
            ]
        })
        .collect();

    let mut opt = DataflowOptimizer::new(&c, q);
    opt.set_audit_mode(AuditMode::Off);
    opt.optimize();
    let mut seen: Vec<Footprint> = Vec::with_capacity(EPOCHS);
    for k in 0..EPOCHS {
        let out = opt.reoptimize(&lap[k % PERIOD]);
        assert!(out.recovery.is_clean(), "epoch {k}: {:?}", out.recovery);
        let consolidator = opt.consolidator_footprint();
        seen.push(Footprint {
            deltas_processed: out.stats.deltas_processed,
            state_rows: opt.node_stats().iter().map(|n| n.state_rows).sum(),
            consolidator_entries: consolidator.entries,
            consolidator_capacity: consolidator.capacity,
        });
    }
    assert!(
        seen.iter()
            .all(|f| f.deltas_processed > 0 && f.state_rows > 0),
        "every batch of the lap is a real change"
    );
    for k in PERIOD..EPOCHS - PERIOD {
        assert_eq!(
            seen[k],
            seen[k + PERIOD],
            "epoch {k} vs epoch {}",
            k + PERIOD
        );
    }
}
