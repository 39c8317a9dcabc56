//! Bridge between the declarative rule specification (`reopt-core`'s
//! rule IR) and the delta-processing dataflow substrate
//! (`reopt-datalog`): a generic rule-program compiler, the
//! [`DataflowEngine`], the optimizer-as-a-materialized-view the paper's
//! §2/§4 describe, and [`Durable`], which makes any re-optimizer
//! durable.
//!
//! Two engines, one spec:
//! - `reopt_core::IncrementalOptimizer` executes rules R1–R10 as
//!   hand-rolled typed delta propagation (the authors' ~10K-line engine
//!   specialization, §5);
//! - [`DataflowEngine`] compiles the same program onto the generic
//!   batched dataflow engine and maintains it as a view, feeding §4's
//!   parameter updates in as base-relation deltas.
//!
//! Both are differentially tested to produce the same best-plan cost;
//! the `optimizer_dataflow` bench compares them head-to-head. Both
//! implement `reopt_core::Reoptimizer`, so `reopt-aqp`'s adaptive loop
//! runs either, and [`Durable`] wraps either behind the same seam: the
//! WAL, the checkpoints and the restart are its, and hold parameters
//! only. [`DataflowOptimizer`] is the declarative engine wrapped.

pub mod compile;
pub mod durable;
pub mod optimizer;

pub use compile::{CompileError, NetworkBuilder, RuleNetwork};
pub use durable::{Durable, Restart, WalEpoch};
pub use optimizer::{
    dataflow_program, AuditMode, AuditOutcome, DataflowEngine, DataflowOptimizer, DataflowOutcome,
    RecoveryPath, RecoveryReport, BEST_PLAN_RULE, DATAFLOW_RULES,
};
