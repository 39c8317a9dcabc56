//! Adaptive query processing driver (paper §5.4): data-partitioned
//! adaptation in the style of Tukwila [15] — execution pauses at slice
//! boundaries ("split points"), statistics observed so far feed the
//! re-optimizer, and a new plan may be installed for the next slice,
//! with CAPS-style state migration [26] carrying window state across.
//!
//! The re-optimizer is chosen by type: [`AqpDriver`] and
//! [`run_partitions`] are generic over `reopt_core::Reoptimizer`, which
//! three engines implement — the hand-rolled incremental optimizer
//! (`reopt_core::IncrementalOptimizer`, the default), the declarative one
//! on the dataflow substrate (`reopt_bridge::DataflowOptimizer`), and a
//! from-scratch Volcano run per slice (`reopt_baselines::FromScratch`,
//! the paper's "Tukwila's Non-Inc Re-Opt" line of Fig 9). Statistics
//! can be cumulative (damped blending) or non-cumulative (jump to the
//! latest observation) for the Fig 10 comparison.

pub mod olap;
pub mod stream_driver;

pub use olap::{run_partitions, PartitionReport};
pub use stream_driver::{AqpConfig, AqpDriver, SliceReport, StatsMode};
