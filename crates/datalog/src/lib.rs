//! A pipelined, delta-processing dataflow engine for recursive datalog —
//! the substrate the paper runs its declarative optimizer on (the ASPEN
//! engine of \[18\], extended per §4: "instead of processing standard
//! tuples, each operator in the query processor must be extended to
//! process delta tuples encoding changes").
//!
//! Key reproduced mechanics:
//! - **Delta tuples** with signed multiplicities; insertions increment a
//!   per-tuple count, deletions decrement it, and "counts may temporarily
//!   become negative if a deletion is processed out of order with its
//!   corresponding insertion" (§4) — a tuple affects downstream state
//!   only while its count is positive.
//! - **Incremental joins** following the delta rules of Gupta et al.
//!   \[14\]: a delta on one input joins the other input's current state.
//! - **Min/max aggregation with next-best recovery** (§4.1): the
//!   aggregate retains *all* input values in an ordered multiset so that
//!   deleting the current minimum emits an update to the
//!   second-from-minimum.
//! - **Fixpoint execution over cyclic dataflows** (recursion) driven by a
//!   work queue, with no constraint on delta arrival order.
//! - **Batched, coalescing delta propagation**: the scheduler services
//!   one destination port per step with every delta queued for it,
//!   merging opposite-sign changes to the same tuple before they fan out
//!   — per-delta FIFO execution survives as [`SchedulerMode::PerDelta`]
//!   and is property-tested equivalent.
//! - **Allocation-lean tuples**: value sequences up to
//!   [`value::INLINE_CAP`] long live inline in the [`Tuple`] (no heap
//!   traffic on the projection/join/key hot path); longer ones spill to
//!   a shared, single-threaded `Rc<[Val]>` (tuples never cross a
//!   thread, so sharing one costs no atomic operation). Strings are interned ([`intern::Sym`]) so
//!   string-bearing tuples pack inline too and `Val` is 16 bytes.
//! - **External functions as operators** ([`ops::ExternalFn`]): the
//!   paper's `Fn_*` predicates run inside the dataflow, processing delta
//!   tuples like every other operator.
//! - **Fail-stop epochs**: a failed run poisons the dataflow — it keeps
//!   the first [`DataflowError`] and returns it from every later run
//!   without dispatching anything. No state is kept to undo a run; a
//!   caller recovers by building a fresh dataflow, which is what the
//!   optimizer's rebuild and its restarts both do.

pub mod agg;
pub mod dataflow;
pub mod delta;
pub mod error;
pub mod intern;
pub mod ops;
pub mod relation;
pub mod value;

pub use agg::{AggKind, OrderedMultiset};
pub use dataflow::{Dataflow, NodeId, NodeStats, RunStats, SchedulerMode, SinkId};
pub use error::{DataflowError, FaultPlan};
pub use delta::{coalesce, CoalesceScratch, ConsolidatorFootprint, Delta};
pub use intern::{set_intern_capacity, Sym};
pub use ops::{
    Arrange, Distinct, ExternalFn, GroupAgg, HashJoin, Map, OpCounters, Operator, Union,
};
pub use relation::{ArrangementHandle, IndexedMultiset, Multiset};
pub use value::{Tuple, Val};
