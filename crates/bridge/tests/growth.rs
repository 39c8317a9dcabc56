//! History must not show in the declarative engine: driven round a
//! cyclic parameter walk, an epoch costs and holds exactly what the same
//! epoch of the previous lap cost and held.

mod common;

use reopt_bridge::{AuditMode, DataflowOptimizer};
use reopt_core::{IncrementalOptimizer, PruningConfig};
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

/// The fixed parameter walks the counter gates run: four-parameter
/// bursts (two leaf cardinalities, two join selectivities) on an
/// 8-relation star, single points on a 6-relation Q5-shaped cycle.
fn pinned_walks() -> [(&'static str, QueryGen, Vec<Vec<ParamDelta>>); 2] {
    const EPOCHS: u32 = 60;
    const FACTORS: [f64; 6] = [0.125, 0.5, 2.0, 4.0, 8.0, 3.0];
    let star = QueryGen {
        rows: vec![6, 1, 2, 3, 4, 5, 2, 4],
        indexed: vec![false, true, false, true, false, true, false, true],
        parent: vec![0; 7],
        cycle: false,
    };
    let q5 = QueryGen {
        rows: vec![4, 5, 6, 3, 1, 1],
        indexed: vec![true, true, false, true, false, false],
        parent: vec![0, 1, 2, 3, 4],
        cycle: true,
    };
    [("star-8 bursts", star, true), ("q5 points", q5, false)].map(|(name, gen, burst)| {
        let q = build(&gen).1;
        let (leaves, edges) = (q.n_leaves(), q.edges.len() as u32);
        let walk = (0..EPOCHS)
            .map(|i| {
                let f = FACTORS[(i as usize * 5 + 1) % FACTORS.len()];
                if burst {
                    vec![
                        ParamDelta::LeafCardinality(LeafId(i % leaves), f),
                        ParamDelta::LeafCardinality(LeafId((i * 3 + 1) % leaves), 1.0 / f),
                        ParamDelta::EdgeSelectivity(EdgeId(i % edges), 1.0 / f),
                        ParamDelta::EdgeSelectivity(EdgeId((i * 5 + 2) % edges), f),
                    ]
                } else {
                    vec![match i % 10 {
                        0..=6 => ParamDelta::LeafScanCost(LeafId(i % leaves), f),
                        7 | 8 => ParamDelta::EdgeSelectivity(EdgeId(i % edges), f),
                        _ => ParamDelta::LeafCardinality(LeafId(i % leaves), f),
                    }]
                }
            })
            .collect();
        (name, gen, walk)
    })
}

/// The deterministic counter gate on the recursive cost loop: total
/// deltas and batches the substrate services over [`pinned_walks`] may
/// not exceed what landed with D10 answered on demand (no `BestPlan`
/// arrangements, join or sink to service), plus 2%. The
/// counts are exact and repeat on every machine; wall-clock is judged
/// by `BENCHMARK.json`'s alternating pairs, never here.
#[test]
fn cost_loop_counters_stay_within_two_percent_of_their_pins() {
    // (pinned deltas, pinned batches); with D10 maintained in the
    // network: 487 960 / 7 616 and 18 239 / 1 336.
    let pins = [
        (PIN_STAR_DELTAS, PIN_STAR_BATCHES),
        (PIN_Q5_DELTAS, PIN_Q5_BATCHES),
    ];
    for ((name, gen, walk), (pin_deltas, pin_batches)) in pinned_walks().into_iter().zip(pins) {
        let (c, q) = build(&gen);
        let mut opt = DataflowOptimizer::new(&c, q);
        opt.set_audit_mode(AuditMode::Off);
        opt.optimize();
        let (mut deltas, mut batches) = (0, 0);
        for (i, batch) in walk.iter().enumerate() {
            let out = opt.reoptimize(batch);
            assert!(out.recovery.is_clean(), "epoch {i}: {:?}", out.recovery);
            deltas += out.stats.deltas_processed;
            batches += out.stats.batches_processed;
        }
        assert!(deltas > 0 && batches > 0);
        assert!(
            deltas * 100 <= pin_deltas * 102 && batches * 100 <= pin_batches * 102,
            "{name}: {deltas} deltas / {batches} batches over {} epochs \
             against pins of {pin_deltas} / {pin_batches}",
            walk.len()
        );
    }
}

const PIN_STAR_DELTAS: u64 = 377_310;
const PIN_STAR_BATCHES: u64 = 7_376;
const PIN_Q5_DELTAS: u64 = 13_439;
const PIN_Q5_BATCHES: u64 = 1_276;

/// The same kind of gate on the boot: what the first `optimize()` — and
/// so every restart and every from-scratch rebuild — services on the
/// [`pinned_walks`] queries, and how many rows `Fn_split` emits to
/// derive `SearchSpace` (its size exactly, since each group is
/// enumerated once behind the demand set), may not exceed their pins
/// plus 2%. While D2 and D3 re-ran the expansion for every parent row
/// the same boots serviced 53 918 deltas in 156 batches with 26 914
/// rows out of `Fn_split` for a 2 643-row `SearchSpace`, and 7 662 /
/// 110 / 2 846 for 420 (the demand set's own waves are the batches
/// that came on top). `PIN_STAR_*`/`PIN_Q5_*` above did not move: no
/// epoch after the first visits a demand node.
#[test]
fn boot_counters_stay_within_two_percent_of_their_pins() {
    for ((name, gen, _), pin) in pinned_walks().into_iter().zip([PIN_STAR_BOOT, PIN_Q5_BOOT]) {
        let (c, q) = build(&gen);
        let mut opt = DataflowOptimizer::new(&c, q);
        opt.set_audit_mode(AuditMode::Off);
        let out = opt.optimize();
        assert!(out.recovery.is_clean(), "{name}: {:?}", out.recovery);
        let split_rows = (opt.node_stats().iter())
            .filter(|n| n.label.starts_with("Fn_split"))
            .map(|n| n.emitted)
            .sum();
        let got = [out.stats.deltas_processed, out.stats.batches_processed, split_rows];
        assert_eq!(split_rows, opt.search_space_size() as u64, "{name}");
        assert!(
            got.iter().zip(pin).all(|(&n, p)| n > 0 && n * 100 <= p * 102),
            "{name}: deltas / batches / Fn_split rows {got:?} against pins of {pin:?}"
        );
    }
}

/// `[deltas_processed, batches_processed, rows out of Fn_split]`.
const PIN_STAR_BOOT: [u64; 3] = [31_204, 177, 2_643];
const PIN_Q5_BOOT: [u64; 3] = [5_797, 114, 420];

/// The same gate on the hand-rolled engine under full pruning over
/// the same walks: queue pops, alternatives whose cost or liveness
/// changed, and alternatives marked while seeding from the parameter
/// index may not exceed their pins plus 2%. While the changed cone was
/// revived, re-priced and tombstoned again every epoch the walks took
/// 41 820 / 2 155 pops for the same 145 184 / 4 058 touched
/// alternatives (`none()`, which never prunes: 13 803 / 605 pops), and
/// seeding asked all 2 643 / 420 alternatives twice an epoch.
#[test]
fn hand_rolled_strict_counters_stay_within_two_percent_of_their_pins() {
    let pins = [PIN_STAR_CORE, PIN_Q5_CORE];
    for ((name, gen, walk), pin) in pinned_walks().into_iter().zip(pins) {
        let (c, q) = build(&gen);
        let mut opt = IncrementalOptimizer::new(&c, q, PruningConfig::all());
        opt.optimize();
        let mut got = [0u64; 3];
        for batch in &walk {
            let run = opt.reoptimize(batch).run;
            got[0] += run.queue_pops;
            got[1] += run.touched_alts;
            got[2] += run.seeded_alts;
        }
        assert!(got.iter().all(|&n| n > 0));
        assert!(
            got.iter().zip(pin).all(|(&n, p)| n * 100 <= p * 102),
            "{name}: pops / touched / seeded {got:?} over {} epochs against pins of {pin:?}",
            walk.len()
        );
    }
}

/// `[queue_pops, touched_alts, seeded_alts]`.
const PIN_STAR_CORE: [u64; 3] = [17_683, 145_188, 145_833];
const PIN_Q5_CORE: [u64; 3] = [793, 4_058, 2_338];
