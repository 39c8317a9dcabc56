//! The WAL's fsync helper thread belongs to its durable engine: made by
//! the first durable append, joined when the engine drops. A suite of
//! its own, so no other test's threads come and go while it counts.

mod common;

use reopt_bridge::DataflowEngine;
use reopt_core::IncrementalOptimizer;

use common::{chain5, chain5_batches, fresh_dir, Engine};

#[cfg(target_os = "linux")]
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The thread count once it reads `want` — a joined thread can stay
/// listed for a moment after `join` returns — or after a second.
#[cfg(target_os = "linux")]
fn threads_settled_at(want: usize) -> usize {
    for _ in 0..1000 {
        if threads() == want {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    threads()
}

#[cfg(target_os = "linux")]
#[test]
fn dropping_durable_optimizers_leaves_no_threads_behind() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batch = &chain5_batches(&q)[0];
        let before = threads();
        for i in 0..100 {
            // A directory of its own: each engine's history is its own.
            let dir = fresh_dir("threads");
            let mut opt = E::fresh(&c, &q);
            opt.set_durable_dir(&dir).unwrap();
            assert_eq!(threads_settled_at(before), before, "{}: arming made a thread", E::NAME);
            opt.reoptimize(batch);
            let name = E::NAME;
            assert_eq!(threads_settled_at(before + 1), before + 1, "{name} {i}: no helper");
            drop(opt);
            assert_eq!(threads_settled_at(before), before, "{name} {i}: its helper outlived it");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    check::<IncrementalOptimizer>();
    check::<DataflowEngine>();
}
