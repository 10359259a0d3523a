//! Whole-flow errors.

use mfb_model::prelude::BudgetExceeded;
use mfb_place::prelude::PlaceError;
use mfb_route::prelude::RouteError;
use mfb_sched::prelude::SchedError;
use std::fmt;

/// Errors produced by the synthesis flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SynthesisError {
    /// Binding and scheduling failed.
    Sched(SchedError),
    /// Placement failed.
    Place(PlaceError),
    /// Routing failed on every placement attempt; the payload is the last
    /// routing error.
    Route {
        /// The final routing error.
        last: RouteError,
        /// The driver's 1-based number of the attempt that failed: in the
        /// flat flow, how many placements were tried; in the recovery
        /// ladder, the attempt number counted across all rungs.
        attempts: u32,
    },
    /// A pipeline stage panicked. Produced only by the resilient driver,
    /// which contains stage panics at rung boundaries instead of unwinding
    /// through the caller.
    StagePanic {
        /// Which stage panicked (`"schedule"`, `"place"`, `"route"`, …).
        stage: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The job's execution [`Budget`](mfb_model::budget::Budget) deadline
    /// passed before synthesis finished; the run stopped at the next stage
    /// or inner-loop checkpoint.
    DeadlineExceeded,
    /// The job was cancelled through its
    /// [`CancelToken`](mfb_model::budget::CancelToken); the run stopped at
    /// the next stage or inner-loop checkpoint.
    Cancelled,
}

impl SynthesisError {
    /// True when the error is a deterministic property of the *inputs*
    /// (assay, allocation, defect map, `t_c`) rather than of one particular
    /// placement or annealing seed — retrying the same rung reproduces it
    /// bit-for-bit, so the only useful reactions are escalating to a
    /// different rung or giving up.
    pub fn is_deterministic(&self) -> bool {
        match self {
            // Scheduling never looks at the layout; its failures are
            // infeasibility proofs for the given allocation.
            SynthesisError::Sched(_) => true,
            // An interrupted stage says nothing about the inputs — only
            // about the budget it ran under.
            SynthesisError::Place(PlaceError::Interrupted(_)) => false,
            // Placement failures depend on the grid, not the seed: both
            // `GridTooSmall` and `DefectBlocked` certify that no layout
            // exists, by area or by exhaustive scan.
            SynthesisError::Place(_) => true,
            SynthesisError::Route { last, .. } => route_error_is_placement_independent(last),
            SynthesisError::StagePanic { .. } => false,
            SynthesisError::DeadlineExceeded | SynthesisError::Cancelled => false,
        }
    }

    /// The budget interrupt behind this error, if it is one (in any of its
    /// shapes: the flow-level variants, or a stage-level `Interrupted`
    /// that has not been normalized yet).
    pub fn interrupt(&self) -> Option<BudgetExceeded> {
        match self {
            SynthesisError::DeadlineExceeded => Some(BudgetExceeded::DeadlineExceeded),
            SynthesisError::Cancelled => Some(BudgetExceeded::Cancelled),
            SynthesisError::Place(PlaceError::Interrupted(why)) => Some(*why),
            SynthesisError::Route {
                last: RouteError::Interrupted(why),
                ..
            } => Some(*why),
            _ => None,
        }
    }
}

/// True when another attempt of the same retry cannot fix `e`: the error
/// is deterministic, or the budget tripped (every further attempt would
/// stop at its first checkpoint). The retry loop of both drivers stops
/// on it.
pub(crate) fn ends_retry(e: &SynthesisError) -> bool {
    e.is_deterministic() || e.interrupt().is_some()
}

/// True when no rung of the recovery ladder can change the outcome: the
/// error is an infeasibility proof for the inputs themselves, or the
/// budget tripped.
pub(crate) fn globally_fatal(e: &SynthesisError) -> bool {
    match e {
        // Scheduling failures are about the allocation: no grid, seed, or
        // t_c adds components, and rebinding only removes them.
        SynthesisError::Sched(_) => true,
        SynthesisError::Route { last, .. } => route_error_is_placement_independent(last),
        // A tripped budget can only trip again: every further rung attempt
        // would abort at its first checkpoint.
        SynthesisError::DeadlineExceeded | SynthesisError::Cancelled => true,
        _ => false,
    }
}

/// True when re-placing with a different seed or grid cannot change the
/// routing outcome: the error is a property of the schedule, not the layout.
pub(crate) fn route_error_is_placement_independent(e: &RouteError) -> bool {
    matches!(e, RouteError::InconsistentSchedule { .. })
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Sched(e) => write!(f, "scheduling failed: {e}"),
            SynthesisError::Place(e) => write!(f, "placement failed: {e}"),
            SynthesisError::Route { last, attempts } => {
                write!(
                    f,
                    "routing failed after {attempts} placement attempts: {last}"
                )
            }
            SynthesisError::StagePanic { stage, message } => {
                write!(f, "the {stage} stage panicked: {message}")
            }
            SynthesisError::DeadlineExceeded => write!(f, "synthesis deadline exceeded"),
            SynthesisError::Cancelled => write!(f, "synthesis cancelled"),
        }
    }
}

impl std::error::Error for SynthesisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthesisError::Sched(e) => Some(e),
            SynthesisError::Place(e) => Some(e),
            SynthesisError::Route { last, .. } => Some(last),
            SynthesisError::StagePanic { .. } => None,
            SynthesisError::DeadlineExceeded | SynthesisError::Cancelled => None,
        }
    }
}

impl From<BudgetExceeded> for SynthesisError {
    fn from(why: BudgetExceeded) -> Self {
        match why {
            BudgetExceeded::DeadlineExceeded => SynthesisError::DeadlineExceeded,
            BudgetExceeded::Cancelled => SynthesisError::Cancelled,
        }
    }
}

impl From<SchedError> for SynthesisError {
    fn from(e: SchedError) -> Self {
        SynthesisError::Sched(e)
    }
}

impl From<PlaceError> for SynthesisError {
    fn from(e: PlaceError) -> Self {
        SynthesisError::Place(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfb_model::prelude::*;

    #[test]
    fn displays_chain_causes() {
        let e = SynthesisError::Route {
            last: RouteError::Unroutable {
                task: TaskId::new(3),
            },
            attempts: 24,
        };
        let msg = e.to_string();
        assert!(msg.contains("24") && msg.contains("tk3"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
