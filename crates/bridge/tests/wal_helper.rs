//! The WAL's fsync helper thread belongs to its optimizer: made by the
//! first durable append, joined when the optimizer drops. A suite of its
//! own, so no other test's threads come and go while it counts.

mod common;

use reopt_bridge::{AuditMode, DataflowOptimizer};

use common::{chain5, chain5_batches, fresh_dir};

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
    let (c, q) = chain5();
    let batch = &chain5_batches(&q)[0];
    let dir = fresh_dir("threads");
    let before = threads();
    for i in 0..100 {
        let mut opt = DataflowOptimizer::new(&c, q.clone());
        opt.set_audit_mode(AuditMode::Off);
        opt.set_durable_dir(&dir).unwrap();
        assert_eq!(threads_settled_at(before), before, "arming made a thread");
        opt.reoptimize(batch);
        assert_eq!(threads_settled_at(before + 1), before + 1, "optimizer {i}: no helper");
        drop(opt);
        assert_eq!(threads_settled_at(before), before, "optimizer {i}: its helper outlived it");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
