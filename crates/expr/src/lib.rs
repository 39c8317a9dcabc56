//! Relational algebra layer: query specifications (join graph +
//! predicates + windows + aggregation), logical expressions as leaf-set
//! bitmasks, physical properties ("interesting orders" / index access,
//! paper §2.1), physical operators, and the `Fn_split` plan enumeration
//! that merges logical and physical enumeration in a single recursion
//! (paper §2.3 "Merging of logical and physical plan enumeration").

pub mod enumerate;
pub mod graph;
pub mod ops;
pub mod plan;
pub mod props;
pub mod query;
pub mod relset;

pub use enumerate::{enumerate_alts, AltSpec, ChildRef};
pub use graph::JoinGraph;
pub use ops::PhysOp;
pub use plan::PlanNode;
pub use props::PhysProp;
pub use query::{
    AggFunc, AggSpec, EdgeId, ExprId, JoinEdge, Leaf, LeafCol, LeafFilter, LeafId, QuerySpec,
    WindowSpec,
};
pub use relset::RelSet;
