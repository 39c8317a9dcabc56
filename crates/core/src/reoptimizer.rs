//! The seam every re-optimizer sits behind: the adaptive loop (ingest a
//! slice, fold feedback into the estimates, re-optimize, install the
//! plan — paper §5.4) is written once against [`Reoptimizer`], and the
//! engine it runs is the implementor.

use reopt_cost::{CostContext, ParamDelta};
use reopt_expr::{PlanNode, QuerySpec};

use crate::optimizer::{IncrementalOptimizer, Outcome};

/// An optimizer that can be re-run under parameter deltas. Each engine
/// keeps its own report type; the trait reads the chosen plan off it.
pub trait Reoptimizer {
    /// What one (re)optimization reports.
    type Outcome;

    /// The query being optimized.
    fn query(&self) -> &QuerySpec;

    /// The estimates the engine currently optimizes under — what
    /// executor feedback is judged against.
    fn cost_context(&self) -> &CostContext;

    /// Initial optimization on the current estimates.
    fn optimize(&mut self) -> Self::Outcome;

    /// Applies `deltas` to the estimates and re-optimizes.
    fn reoptimize(&mut self, deltas: &[ParamDelta]) -> Self::Outcome;

    /// The plan an outcome chose.
    fn plan(outcome: &Self::Outcome) -> &PlanNode;
}

impl Reoptimizer for IncrementalOptimizer {
    type Outcome = Outcome;

    fn query(&self) -> &QuerySpec {
        IncrementalOptimizer::query(self)
    }

    fn cost_context(&self) -> &CostContext {
        IncrementalOptimizer::cost_context(self)
    }

    fn optimize(&mut self) -> Outcome {
        IncrementalOptimizer::optimize(self)
    }

    fn reoptimize(&mut self, deltas: &[ParamDelta]) -> Outcome {
        IncrementalOptimizer::reoptimize(self, deltas)
    }

    fn plan(outcome: &Outcome) -> &PlanNode {
        &outcome.plan
    }
}
