//! Independent schedule validation.
//!
//! [`validate`] re-checks every invariant a correct binding-and-scheduling
//! result must satisfy, using only the public [`Schedule`] API — it shares
//! no bookkeeping with the engine in [`crate::list`], so the property-based
//! tests can cross-check the two implementations against each other.

use crate::schedule::{FluidDelivery, Schedule};
use mfb_model::prelude::*;
use std::fmt;

/// A violated schedule invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleViolation {
    /// An operation is bound to a component that cannot execute its kind.
    KindMismatch {
        /// The mis-bound operation.
        op: OpId,
        /// The component it was bound to.
        component: ComponentId,
    },
    /// Two operations overlap in time on the same component.
    ComponentOverlap {
        /// First operation.
        a: OpId,
        /// Second operation.
        b: OpId,
        /// The shared component.
        component: ComponentId,
    },
    /// A wash overlaps an operation on the same component.
    WashOverlap {
        /// The operation the wash collides with.
        op: OpId,
        /// The washed component.
        component: ComponentId,
    },
    /// A dependency's fluid is consumed before its producer finishes.
    PrecedenceViolation {
        /// Producing operation.
        parent: OpId,
        /// Consuming operation.
        child: OpId,
    },
    /// An in-place delivery between operations bound to different
    /// components.
    InPlaceAcrossComponents {
        /// Producing operation.
        parent: OpId,
        /// Consuming operation.
        child: OpId,
    },
    /// A transport task's timing is internally inconsistent
    /// (`arrive != depart + t_c`, or consumption before arrival, or
    /// departure before the producer finishes).
    TransportTiming {
        /// The offending task.
        task: TaskId,
    },
    /// A transport's endpoints disagree with the bindings of its fluid's
    /// producer and consumer.
    TransportEndpoints {
        /// The offending task.
        task: TaskId,
    },
    /// An edge of the sequencing graph has no delivery record.
    MissingDelivery {
        /// Producing operation.
        parent: OpId,
        /// Consuming operation.
        child: OpId,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::KindMismatch { op, component } => {
                write!(f, "{op} bound to incompatible component {component}")
            }
            ScheduleViolation::ComponentOverlap { a, b, component } => {
                write!(f, "{a} and {b} overlap on {component}")
            }
            ScheduleViolation::WashOverlap { op, component } => {
                write!(f, "wash on {component} overlaps {op}")
            }
            ScheduleViolation::PrecedenceViolation { parent, child } => {
                write!(f, "{child} consumes out({parent}) before it exists")
            }
            ScheduleViolation::InPlaceAcrossComponents { parent, child } => {
                write!(f, "in-place delivery {parent} -> {child} across components")
            }
            ScheduleViolation::TransportTiming { task } => {
                write!(f, "transport {task} has inconsistent timing")
            }
            ScheduleViolation::TransportEndpoints { task } => {
                write!(f, "transport {task} endpoints disagree with bindings")
            }
            ScheduleViolation::MissingDelivery { parent, child } => {
                write!(f, "edge {parent} -> {child} has no delivery record")
            }
        }
    }
}

impl std::error::Error for ScheduleViolation {}

/// Checks every schedule invariant; returns all violations found (empty =
/// valid).
pub fn validate(
    schedule: &Schedule,
    graph: &SequencingGraph,
    components: &ComponentSet,
) -> Vec<ScheduleViolation> {
    let mut violations = Vec::new();

    // Bindings execute on compatible components.
    for s in schedule.ops() {
        let kind = components.component(s.component).kind();
        if !kind.executes(graph.op(s.op).kind()) {
            violations.push(ScheduleViolation::KindMismatch {
                op: s.op,
                component: s.component,
            });
        }
    }

    // Component exclusivity: operations on the same component do not
    // overlap, and washes do not overlap operations.
    for c in components.ids() {
        let mut on_c: Vec<_> = schedule.ops().filter(|s| s.component == c).collect();
        on_c.sort_by_key(|s| s.start);
        for pair in on_c.windows(2) {
            if pair[0].interval().overlaps(pair[1].interval()) {
                violations.push(ScheduleViolation::ComponentOverlap {
                    a: pair[0].op,
                    b: pair[1].op,
                    component: c,
                });
            }
        }
        for w in schedule.washes().filter(|w| w.component == c) {
            for s in &on_c {
                if w.interval().overlaps(s.interval()) {
                    violations.push(ScheduleViolation::WashOverlap {
                        op: s.op,
                        component: c,
                    });
                }
            }
        }
    }

    // Deliveries: every edge accounted for, precedence respected.
    let mut delivered = 0usize;
    for &(parent, child, delivery) in schedule.deliveries() {
        delivered += 1;
        let p = schedule.op(parent);
        let ch = schedule.op(child);
        match delivery {
            FluidDelivery::InPlace => {
                if p.component != ch.component {
                    violations.push(ScheduleViolation::InPlaceAcrossComponents { parent, child });
                }
                if ch.start < p.end {
                    violations.push(ScheduleViolation::PrecedenceViolation { parent, child });
                }
            }
            FluidDelivery::Transported(task_id) => {
                let t = schedule.transport(task_id);
                if t.fluid != parent || t.consumer != child {
                    violations.push(ScheduleViolation::TransportEndpoints { task: task_id });
                    continue;
                }
                if t.src != p.component || t.dst != ch.component {
                    violations.push(ScheduleViolation::TransportEndpoints { task: task_id });
                }
                if t.depart < p.end
                    || t.arrive != t.depart + schedule.t_c
                    || t.consumed_at < t.arrive
                    || t.consumed_at != ch.start
                {
                    violations.push(ScheduleViolation::TransportTiming { task: task_id });
                }
                if ch.start < p.end {
                    violations.push(ScheduleViolation::PrecedenceViolation { parent, child });
                }
            }
        }
    }
    if delivered != graph.edge_count() {
        for (parent, child) in graph.edges() {
            if !schedule
                .deliveries()
                .any(|&(p, c, _)| p == parent && c == child)
            {
                violations.push(ScheduleViolation::MissingDelivery { parent, child });
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{schedule, SchedulerConfig};
    use mfb_model::wash::LogLinearWash;

    fn d_wash(secs: f64) -> DiffusionCoefficient {
        LogLinearWash::paper_calibrated().coefficient_for(Duration::from_secs_f64(secs))
    }

    fn diamond() -> SequencingGraph {
        let mut b = SequencingGraph::builder();
        let a = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(4.0));
        let l = b.operation(OperationKind::Heat, Duration::from_secs(2), d_wash(1.0));
        let r = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(6.0));
        let z = b.operation(OperationKind::Mix, Duration::from_secs(4), d_wash(2.0));
        b.edge(a, l).unwrap();
        b.edge(a, r).unwrap();
        b.edge(l, z).unwrap();
        b.edge(r, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn valid_schedules_pass() {
        let g = diamond();
        let comps = Allocation::new(2, 1, 0, 0).instantiate(&ComponentLibrary::default());
        let wash = LogLinearWash::paper_calibrated();
        for cfg in [
            SchedulerConfig::paper_dcsa(),
            SchedulerConfig::paper_baseline(),
        ] {
            let s = schedule(&g, &comps, &wash, &cfg, &DefectMap::pristine()).unwrap();
            let v = validate(&s, &g, &comps);
            assert!(v.is_empty(), "violations under {cfg:?}: {v:?}");
        }
    }

    /// Rebuilds a schedule from its public parts, applying `tamper` to the
    /// operation list first.
    fn forge(
        s: &Schedule,
        tamper: impl FnOnce(&mut Vec<crate::schedule::ScheduledOp>),
    ) -> Schedule {
        let mut ops: Vec<_> = s.ops().copied().collect();
        tamper(&mut ops);
        Schedule::new(
            s.t_c,
            ops,
            s.deliveries().copied().collect(),
            s.transports().copied().collect(),
            s.washes().copied().collect(),
        )
    }

    #[test]
    fn corrupted_timing_is_caught() {
        let g = diamond();
        let comps = Allocation::new(2, 1, 0, 0).instantiate(&ComponentLibrary::default());
        let wash = LogLinearWash::paper_calibrated();
        let s = schedule(
            &g,
            &comps,
            &wash,
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        // Shift the sink operation to time zero: it now consumes fluids
        // that do not exist yet.
        let forged = forge(&s, |ops| {
            let dur = ops[3].end - ops[3].start;
            ops[3].start = Instant::ZERO;
            ops[3].end = Instant::ZERO + dur;
        });
        let v = validate(&forged, &g, &comps);
        assert!(!v.is_empty(), "tampered schedule must fail validation");
    }

    #[test]
    fn corrupted_binding_is_caught() {
        let g = diamond();
        let comps = Allocation::new(2, 1, 0, 0).instantiate(&ComponentLibrary::default());
        let wash = LogLinearWash::paper_calibrated();
        let s = schedule(
            &g,
            &comps,
            &wash,
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        // Bind the heat operation (index 1) onto a mixer.
        let forged = forge(&s, |ops| ops[1].component = ComponentId::new(0));
        let v = validate(&forged, &g, &comps);
        assert!(
            v.iter()
                .any(|x| matches!(x, ScheduleViolation::KindMismatch { .. })),
            "kind mismatch not caught: {v:?}"
        );
    }
}
