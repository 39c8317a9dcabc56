//! Typed failure taxonomy for the dataflow substrate, plus the seeded
//! fault injector used by the chaos differential suite.
//!
//! Every way a [`Dataflow::run`](crate::dataflow::Dataflow::run) epoch
//! can fail is a [`DataflowError`] variant. The first error poisons the
//! dataflow: it is kept, and every later run returns it without
//! dispatching anything, so nothing is ever computed on the partial
//! state the failure left behind. Recovery is a fresh dataflow.

use std::fmt;

/// A failed dataflow epoch. The dataflow that returned one is poisoned
/// (see [`Dataflow::run`](crate::dataflow::Dataflow::run)): its state is
/// whatever the failure left, and it will not run again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataflowError {
    /// The fixpoint did not converge within the step budget — either
    /// genuine non-termination (a cyclic network amplifying counts) or
    /// a budget set too low for the delta volume.
    FixpointOverrun {
        /// The step budget that was exhausted.
        steps: u64,
    },
    /// A user-registered external function reported failure.
    ExternalFn {
        /// The function's registered name.
        name: String,
        /// The error it reported.
        detail: String,
    },
    /// A fault injected by an armed [`FaultPlan`] (chaos testing only).
    InjectedFault {
        /// The delta-processing step at which the fault fired.
        step: u64,
    },
    /// A cross-check (audit mode, negative-count scan) found the state
    /// inconsistent. Carries a human-readable description.
    InvariantViolation(String),
    /// A structural misuse of the graph API: pushing to a non-input
    /// node.
    InvalidWiring(String),
    /// Durable state (the bridge's checkpoint or WAL) failed validation
    /// on recovery: bad magic/version, a per-record CRC mismatch (bit
    /// flip), a torn or truncated file, or a parameter the query lacks.
    /// Carries a human-readable description of what failed; callers are
    /// expected to degrade to a from-scratch rebuild, never to panic.
    StateCorruption(String),
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::FixpointOverrun { steps } => {
                write!(f, "fixpoint did not converge within {steps} steps")
            }
            DataflowError::ExternalFn { name, detail } => {
                write!(f, "external function {name:?} failed: {detail}")
            }
            DataflowError::InjectedFault { step } => {
                write!(f, "injected fault fired at step {step}")
            }
            DataflowError::InvariantViolation(msg) => {
                write!(f, "invariant violation: {msg}")
            }
            DataflowError::InvalidWiring(msg) => write!(f, "invalid wiring: {msg}"),
            DataflowError::StateCorruption(msg) => {
                write!(f, "durable state corrupted: {msg}")
            }
        }
    }
}

impl std::error::Error for DataflowError {}

/// A deterministic fault injector: fails the epoch once the scheduler
/// has processed `at_step` deltas, `shots` times in total. Armed via
/// [`Dataflow::set_fault_plan`](crate::dataflow::Dataflow::set_fault_plan);
/// a runtime value rather than a cargo feature so the chaos suite runs
/// under a plain `cargo test`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    at_step: u64,
    shots: u32,
}

impl FaultPlan {
    /// Fail the next epoch that reaches `at_step` processed deltas,
    /// then disarm.
    pub fn one_shot(at_step: u64) -> FaultPlan {
        FaultPlan::with_shots(at_step, 1)
    }

    /// Fail `shots` epochs that reach `at_step` processed deltas. A
    /// failed run poisons its dataflow, so within one dataflow only the
    /// first shot can fire; the rest die with it.
    pub fn with_shots(at_step: u64, shots: u32) -> FaultPlan {
        FaultPlan { at_step, shots }
    }

    /// Checks the trigger at `step` processed deltas; consumes a shot
    /// when it fires.
    pub(crate) fn fire(&mut self, step: u64) -> bool {
        if self.shots > 0 && step >= self.at_step {
            self.shots -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_fires_once_per_shot() {
        let mut fp = FaultPlan::with_shots(3, 2);
        assert!(!fp.fire(1));
        assert!(!fp.fire(2));
        assert!(fp.fire(3));
        assert!(fp.fire(5)); // second shot, past the trigger
        assert!(!fp.fire(100));
    }

    #[test]
    fn errors_render_usefully() {
        let e = DataflowError::ExternalFn {
            name: "Fn_split".into(),
            detail: "bad arity".into(),
        };
        assert!(e.to_string().contains("Fn_split"));
        assert!(DataflowError::FixpointOverrun { steps: 7 }
            .to_string()
            .contains('7'));
    }
}
