//! Experimental workloads (paper §5): a deterministic TPC-H data
//! generator with optional Zipfian skew (standing in for dbgen and the
//! Microsoft skewed TPC-D generator \[22\]), the paper's query suite
//! (Q1, Q3/Q3S, Q5/Q5S, Q6, Q10, Q8Join/Q8JoinS — Table 2), and a
//! Linear Road stream generator \[3\] with the modified `SegTollS` query.

pub mod linear_road;
pub mod queries;
pub mod tpch;
pub mod zipf;

pub use linear_road::{seg_toll_query, LinearRoadGen};
pub use queries::{fig5_edge_labels, QueryId};
pub use tpch::TpchGen;
pub use zipf::Zipf;
