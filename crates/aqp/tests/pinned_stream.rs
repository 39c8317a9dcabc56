//! The benchmark's default stream through the shipped driver, pinned.
//!
//! The plan interpreter reports cardinalities; everything the loop does
//! next — feedback, re-optimization, the plan installed for the next
//! slice, the rows migrated on a switch — follows from them. The vector
//! below was recorded with the row-materialising interpreter (PR 13):
//! an interpreter that observes the same cardinalities reproduces it
//! slice for slice.

use reopt_aqp::{AqpConfig, AqpDriver};
use reopt_catalog::Catalog;
use reopt_expr::{ExprId, RelSet};
use reopt_workloads::{seg_toll_query, LinearRoadGen};

/// Per slice: `(out_rows, plan_changed, migrated_rows)`.
const EXPECTED: [(usize, bool, usize); 60] = [
    (22, true, 0),
    (37, false, 484),
    (49, true, 0),
    (54, true, 1047),
    (59, false, 1347),
    (61, false, 0),
    (65, true, 0),
    (65, true, 2047),
    (77, false, 2185),
    (76, false, 0),
    (74, false, 0),
    (69, false, 0),
    (62, false, 0),
    (52, true, 0),
    (44, false, 2264),
    (40, false, 0),
    (35, false, 0),
    (30, true, 0),
    (31, false, 2160),
    (35, false, 0),
    (40, false, 0),
    (45, false, 0),
    (50, false, 0),
    (54, true, 0),
    (60, false, 2987),
    (60, false, 0),
    (65, false, 0),
    (66, false, 0),
    (67, false, 0),
    (71, false, 0),
    (65, false, 0),
    (60, false, 0),
    (58, false, 0),
    (58, false, 0),
    (58, false, 0),
    (47, false, 0),
    (43, true, 0),
    (37, false, 4086),
    (29, false, 0),
    (24, false, 0),
    (26, false, 0),
    (36, false, 0),
    (42, false, 0),
    (51, false, 0),
    (56, false, 0),
    (58, false, 0),
    (57, false, 0),
    (68, true, 0),
    (68, false, 5142),
    (69, false, 0),
    (72, false, 0),
    (69, false, 0),
    (72, false, 0),
    (67, false, 0),
    (66, false, 0),
    (63, false, 0),
    (60, false, 0),
    (58, false, 0),
    (48, true, 0),
    (32, false, 5337),
];

/// Sums over the pinned stream.
#[derive(Default)]
struct Totals {
    /// The root joins' cardinalities, and the tuples carried for them.
    root_rows: f64,
    root_carried: f64,
    /// The tuples the five scans carried, the input rows they read, and
    /// the rows the windows held.
    leaf_carried: f64,
    scanned: u64,
    window_rows: usize,
}

/// Runs `aqp_segtoll`'s traffic (benchmark/src/layers.rs `seg_toll`),
/// before the per-seed relabelling of car ids, through the shipped
/// driver and checks every slice against [`EXPECTED`].
fn run_pinned_stream() -> Totals {
    let mut gen = LinearRoadGen::new(11);
    gen.rate = 10.0;
    gen.n_cars = 400;
    gen.n_segments = 25;
    let mut c = Catalog::new();
    gen.register(&mut c);
    let q = seg_toll_query(&c);
    let root_join = ExprId::rel(q.all_rels());
    let leaves: Vec<ExprId> = (0..q.n_leaves())
        .map(|l| ExprId::rel(RelSet::singleton(l)))
        .collect();
    let mut driver = AqpDriver::new(&c, q, AqpConfig::default());
    let mut t = Totals::default();
    for (i, want) in EXPECTED.iter().enumerate() {
        let r = driver.run_slice(&gen.slice(i as f64 * 5.0, 5.0));
        assert_eq!(
            (r.out_rows, r.plan_changed, r.migrated_rows),
            *want,
            "slice {i}"
        );
        t.root_rows += r.stats.rows_of(root_join).expect("a plan joins every leaf");
        t.root_carried += r.stats.carried_of(root_join).expect("carried beside rows");
        for &leaf in &leaves {
            t.leaf_carried += r.stats.carried_of(leaf).expect("a plan scans every leaf");
        }
        t.scanned += r.stats.scanned;
        t.window_rows += r.window_rows;
    }
    t
}

#[test]
fn benchmark_stream_reproduces_the_recorded_slice_sequence() {
    run_pinned_stream();
}

/// The work bound: whatever plan is installed, the root join's output
/// is read for `r1.(expway, dir, seg)` and `r5.xpos` alone, so the
/// interpreter holds one tuple per distinct `(r1, r5)` representative
/// pair — under a fifth of the tuples the join stands for — while every
/// count that reaches the optimizer stays the recorded one.
#[test]
fn root_join_carries_under_a_fifth_of_its_cardinality_on_the_pinned_stream() {
    let t = run_pinned_stream();
    assert_eq!(
        t.root_rows, 671_085.0,
        "the root joins' recorded cardinalities"
    );
    assert!(
        t.root_carried <= t.root_rows / 5.0,
        "carried {} tuples for {} rows",
        t.root_carried,
        t.root_rows
    );
}

/// The windows are grouped as tuples enter and leave them, not by the
/// scans: a slice's scans read one row per representative they carry —
/// none that a filter drops, none that merges into another — which is
/// under half the rows the windows hold.
#[test]
fn scans_read_one_row_per_representative_on_the_pinned_stream() {
    let t = run_pinned_stream();
    assert_eq!(t.scanned, 100_202);
    assert_eq!(t.scanned as f64, t.leaf_carried);
    assert_eq!(t.window_rows, 209_765);
    assert!(t.scanned as usize * 2 < t.window_rows);
}
