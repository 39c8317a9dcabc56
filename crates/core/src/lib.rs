//! The paper's contribution: a declarative, incrementally maintained,
//! pruning query re-optimizer.
//!
//! The optimizer is specified by the ten datalog rules R1–R10 (plan
//! enumeration, cost estimation, plan selection — [`rules`]) plus the
//! four recursive bound rules r1–r4 (§3.3). This crate executes those
//! rules as typed delta propagation over the and-or graph — the same
//! specialization the authors performed when they extended the ASPEN
//! engine with ~10K lines of pruning/propagation support (§5) — while
//! `reopt-datalog` demonstrates the generic engine mechanics the rules
//! rely on (counted multisets, min-aggregates with next-best recovery,
//! pipelined fixpoints).
//!
//! Pruning strategies (all order-independent, §3):
//! - aggregate selection with tuple source suppression (§3.1),
//! - reference counting of parent plans (§3.2),
//! - recursive branch-and-bound via the `Bound` relation (§3.3),
//!
//! each incrementally maintained under cost/cardinality updates (§4).

pub mod config;
pub mod explain;
pub mod fixtures;
mod id_set;
pub mod memo;
pub mod metrics;
pub mod optimizer;
pub mod param_index;
pub mod reoptimizer;
pub mod rules;
pub mod rules_ir;
pub mod state;
pub mod verify;

pub use config::PruningConfig;
pub use memo::{AltId, GroupId, Memo};
pub use metrics::{RunMetrics, StateMetrics};
pub use optimizer::{IncrementalOptimizer, Outcome};
pub use param_index::ParamIndex;
pub use reoptimizer::Reoptimizer;
