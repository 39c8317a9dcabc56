//! Catalog substrate: table schemas, indexes, and the base statistics
//! (cardinalities, distinct counts, equi-width histograms) consumed by the
//! optimizer's `Fn_scansummary` / `Fn_nonscansummary` functions (paper
//! §2.2: "cost estimation requires a set of summaries (statistics) on the
//! input relations and indexes, e.g., cardinality of a (indexed) relation,
//! selectivity of operators, data distribution").

pub mod catalog;
pub mod datum;
pub mod histogram;
pub mod schema;
pub mod stats;

pub use catalog::Catalog;
pub use datum::{DataType, Datum};
pub use histogram::Histogram;
pub use schema::{ColId, Column, Table, TableBuilder, TableId};
pub use stats::{CmpOp, ColumnStats, TableStats};
