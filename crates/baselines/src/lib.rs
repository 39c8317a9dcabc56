//! Procedural baseline optimizers, mirroring the paper's comparison
//! implementations (§5: "we implemented in Java a Volcano-style top-down
//! query optimizer and a System-R-style dynamic programming optimizer,
//! which reuse the histogram, cost estimation, and other core components
//! as our declarative optimizer").
//!
//! Both baselines here share `reopt-expr`'s enumeration (`Fn_split`) and
//! `reopt-cost`'s estimation with the declarative optimizer; only search
//! strategy, dataflow and pruning differ — which is exactly what the
//! paper's experiments compare. [`FromScratch`] puts Volcano behind
//! `reopt_core::Reoptimizer`: the from-scratch engine of the adaptive
//! loop and of every figure's comparator.

pub mod result;
pub mod system_r;
pub mod volcano;

pub use result::{BaselineMetrics, OptResult};
pub use system_r::optimize_system_r;
pub use volcano::{optimize_volcano, FromScratch};
