//! What the substrate owes a crash: rollback. (Durable files — the WAL
//! and the parameter checkpoint — belong to `reopt-bridge`, whose
//! `tests/crash.rs` holds the crash-point and corruption suites.)

use reopt_datalog::value::ints;
use reopt_datalog::{Delta, HashJoin, Map, Operator};

/// A join's post-stage (the stateless tail `Dataflow::fuse` moves into
/// it) is not state: the join rolls back exactly what it would without
/// one, and what it emits afterwards shows the rolled-back row gone.
#[test]
fn a_join_post_stage_adds_nothing_to_rollback() {
    let mut plain = HashJoin::new(vec![0], vec![0]);
    let mut tailed = HashJoin::new(vec![0], vec![0]);
    tailed.absorb_tail(Map::project(vec![1, 3]).take_fuse_stages().unwrap());
    let feed = |join: &mut HashJoin, port: usize, row: [i64; 2]| {
        let mut out = Vec::new();
        join.on_batch(port, &[Delta::insert(ints(&row))], &mut out).unwrap();
        out
    };
    for join in [&mut plain, &mut tailed] {
        feed(join, 0, [1, 10]);
        feed(join, 1, [1, 20]);
    }
    assert_eq!(feed(&mut plain, 0, [1, 11]), [Delta::insert(ints(&[1, 11, 1, 20]))]);
    assert_eq!(feed(&mut tailed, 0, [1, 11]), [Delta::insert(ints(&[11, 20]))]);
    for join in [&mut plain, &mut tailed] {
        let committed = join.state_rows();
        join.begin_epoch();
        feed(join, 1, [1, 21]);
        assert_eq!(join.state_rows(), committed + 1);
        join.rollback_epoch();
        assert_eq!(join.state_rows(), committed);
    }
    // The right side holds `[1, 20]` alone again.
    assert_eq!(feed(&mut plain, 0, [1, 12]), [Delta::insert(ints(&[1, 12, 1, 20]))]);
    assert_eq!(feed(&mut tailed, 0, [1, 12]), [Delta::insert(ints(&[12, 20]))]);
}
