//! Violations the replay simulator can detect.

use mfb_model::prelude::*;
use std::fmt;

/// One defect found while replaying a physical solution.
///
/// The three `§II-C.2` transportation-conflict classes map to
/// [`CellConflict`](SimViolation::CellConflict) (classes 1 and 2 — two
/// tasks, or a task and a cached fluid, on one cell at once) and
/// [`WashGap`](SimViolation::WashGap) (class 3 — flowing through a channel
/// segment whose previous residue is not yet washed away).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimViolation {
    /// The path routed for a transport is labelled with another task or
    /// carries another fluid than the transport.
    PathMislabelled {
        /// The transport whose path is mislabelled.
        task: TaskId,
    },
    /// A path has a gap: consecutive cells are not edge-adjacent.
    PathDiscontiguous {
        /// The broken task.
        task: TaskId,
    },
    /// A path crosses a component's interior.
    PathThroughComponent {
        /// The offending task.
        task: TaskId,
        /// The trespassed cell.
        cell: CellPos,
        /// The component occupying it.
        component: ComponentId,
    },
    /// A path does not start at its source component's boundary or end at
    /// its destination's.
    BadEndpoint {
        /// The offending task.
        task: TaskId,
    },
    /// Two different fluids occupy the same cell at overlapping times
    /// (conflict classes 1 and 2).
    CellConflict {
        /// The shared cell.
        cell: CellPos,
        /// First task.
        a: TaskId,
        /// Second task.
        b: TaskId,
    },
    /// A fluid entered a cell before the previous residue's wash completed
    /// (conflict class 3).
    WashGap {
        /// The contaminated cell.
        cell: CellPos,
        /// The earlier task whose residue was still present.
        previous: TaskId,
        /// The task that entered too early.
        next: TaskId,
    },
    /// An operation starts before one of its input fluids can exist.
    PrecedenceViolation {
        /// Producing operation.
        parent: OpId,
        /// Consuming operation.
        child: OpId,
    },
    /// Two operations overlap in time on the same component (realized
    /// times).
    ComponentOverlap {
        /// First operation.
        a: OpId,
        /// Second operation.
        b: OpId,
        /// The shared component.
        component: ComponentId,
    },
    /// A transport task's channel occupancy lies outside the lifetime
    /// bounded by its producer's end and its consumer's start.
    WindowOutsideLifetime {
        /// The offending task.
        task: TaskId,
    },
    /// A transport task has no routed path.
    MissingPath {
        /// The unrouted task.
        task: TaskId,
    },
    /// The placement itself is illegal (component overlap or out of
    /// bounds).
    IllegalPlacement,
    /// The solution's parts do not fit the given assay and component set
    /// at all (wrong operation / component / task counts) — typically an
    /// archived solution replayed against the wrong benchmark.
    ShapeMismatch {
        /// What disagrees.
        what: &'static str,
    },
}

impl fmt::Display for SimViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimViolation::PathMislabelled { task } => {
                write!(f, "path of {task} names another task or fluid")
            }
            SimViolation::PathDiscontiguous { task } => {
                write!(f, "path of {task} is discontiguous")
            }
            SimViolation::PathThroughComponent {
                task,
                cell,
                component,
            } => {
                write!(f, "path of {task} crosses {component} at {cell}")
            }
            SimViolation::BadEndpoint { task } => {
                write!(f, "path of {task} does not connect its endpoints")
            }
            SimViolation::CellConflict { cell, a, b } => {
                write!(f, "{a} and {b} occupy {cell} simultaneously")
            }
            SimViolation::WashGap {
                cell,
                previous,
                next,
            } => {
                write!(
                    f,
                    "{next} enters {cell} before {previous}'s residue is washed"
                )
            }
            SimViolation::PrecedenceViolation { parent, child } => {
                write!(f, "{child} starts before out({parent}) can arrive")
            }
            SimViolation::ComponentOverlap { a, b, component } => {
                write!(f, "{a} and {b} overlap on {component}")
            }
            SimViolation::WindowOutsideLifetime { task } => {
                write!(f, "{task} occupies channels outside its fluid's lifetime")
            }
            SimViolation::MissingPath { task } => write!(f, "{task} has no routed path"),
            SimViolation::IllegalPlacement => write!(f, "placement is illegal"),
            SimViolation::ShapeMismatch { what } => {
                write!(f, "solution does not fit this assay/chip: {what}")
            }
        }
    }
}

impl std::error::Error for SimViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let v = SimViolation::CellConflict {
            cell: CellPos::new(3, 4),
            a: TaskId::new(0),
            b: TaskId::new(1),
        };
        let msg = v.to_string();
        assert!(msg.contains("tk0") && msg.contains("tk1") && msg.contains("(3,4)"));

        let w = SimViolation::WashGap {
            cell: CellPos::new(1, 1),
            previous: TaskId::new(2),
            next: TaskId::new(5),
        };
        assert!(w.to_string().contains("washed"));
    }
}
