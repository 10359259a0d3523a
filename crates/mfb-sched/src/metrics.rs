//! Schedule quality metrics: completion time, the paper's resource
//! utilization `U_r` (Eq. (1)), cache time and wash time.

use crate::schedule::Schedule;
use mfb_model::prelude::*;

/// Per-component utilization figures backing [`resource_utilization`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentUsage {
    /// The component.
    pub component: ComponentId,
    /// `T_a`: summed execution time of operations bound to the component.
    pub busy: Duration,
    /// `T_le - T_fs`: the window from the first operation's start to the
    /// last operation's end. Zero for unused components.
    pub window: Duration,
}

impl ComponentUsage {
    /// `T_a / (T_le - T_fs)`, or 0 for an unused component.
    pub fn utilization(&self) -> f64 {
        if self.window.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / self.window.as_secs_f64()
        }
    }
}

/// Per-component usage breakdown over `components` of the operation
/// intervals `ops`, one `(component, start, end)` triple per operation —
/// scheduled times, or the realized times of a routed solution.
pub fn component_usage(
    ops: impl IntoIterator<Item = (ComponentId, Instant, Instant)>,
    components: &ComponentSet,
) -> Vec<ComponentUsage> {
    let mut busy = vec![Duration::ZERO; components.len()];
    let mut first: Vec<Option<Instant>> = vec![None; components.len()];
    let mut last: Vec<Option<Instant>> = vec![None; components.len()];
    for (c, start, end) in ops {
        let i = c.index();
        busy[i] += end - start;
        first[i] = Some(first[i].map_or(start, |f| f.min(start)));
        last[i] = Some(last[i].map_or(end, |l| l.max(end)));
    }
    components
        .ids()
        .map(|c| {
            let i = c.index();
            let window = match (first[i], last[i]) {
                (Some(f), Some(l)) => l - f,
                _ => Duration::ZERO,
            };
            ComponentUsage {
                component: c,
                busy: busy[i],
                window,
            }
        })
        .collect()
}

/// The paper's on-chip resource utilization, Eq. (1):
///
/// `U_r = (1/|C|) · Σ_i  T_a(i) / (T_le(i) - T_fs(i))`
///
/// averaged over **all** allocated components; a component that never runs
/// an operation contributes zero (it was allocated but wasted). `ops` are
/// the `(component, start, end)` triples of [`component_usage`].
pub fn resource_utilization(
    ops: impl IntoIterator<Item = (ComponentId, Instant, Instant)>,
    components: &ComponentSet,
) -> f64 {
    let usages = component_usage(ops, components);
    if usages.is_empty() {
        return 0.0;
    }
    usages.iter().map(ComponentUsage::utilization).sum::<f64>() / usages.len() as f64
}

/// Summary of a schedule: the scheduling-stage metrics of Table I, Fig. 8
/// and Fig. 9 that do not depend on the physical layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleMetrics {
    /// Assay completion time.
    pub completion: Duration,
    /// Resource utilization `U_r` in `[0, 1]`.
    pub utilization: f64,
    /// Total time fluids spend cached in channels (Fig. 8).
    pub cache_time: Duration,
    /// Total component wash time booked by the scheduler.
    pub component_wash_time: Duration,
    /// Number of transports (routing workload).
    pub transports: usize,
    /// Number of dependencies satisfied in place (Case-I wins).
    pub in_place: usize,
}

impl ScheduleMetrics {
    /// Computes all scheduling-stage metrics.
    pub fn of(schedule: &Schedule, components: &ComponentSet) -> Self {
        ScheduleMetrics {
            completion: schedule.completion_time() - Instant::ZERO,
            utilization: resource_utilization(schedule.op_intervals(), components),
            cache_time: schedule.total_cache_time(),
            component_wash_time: schedule.total_component_wash_time(),
            transports: schedule.transports().len(),
            in_place: schedule.in_place_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{schedule, SchedulerConfig};

    fn d_wash(secs: f64) -> DiffusionCoefficient {
        LogLinearWash::paper_calibrated().coefficient_for(Duration::from_secs_f64(secs))
    }

    #[test]
    fn utilization_of_fully_busy_component_is_one() {
        // Two back-to-back in-place mixes on one mixer: busy == window.
        let mut b = SequencingGraph::builder();
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let o1 = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(2.0));
        b.edge(o0, o1).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &comps,
            &LogLinearWash::paper_calibrated(),
            &SchedulerConfig::paper_dcsa(),
        )
        .unwrap();
        let u = resource_utilization(s.op_intervals(), &comps);
        assert!((u - 1.0).abs() < 1e-12, "got {u}");
    }

    #[test]
    fn unused_component_drags_average_down() {
        let mut b = SequencingGraph::builder();
        b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &comps,
            &LogLinearWash::paper_calibrated(),
            &SchedulerConfig::paper_dcsa(),
        )
        .unwrap();
        let u = resource_utilization(s.op_intervals(), &comps);
        assert!((u - 0.5).abs() < 1e-12, "one busy + one idle mixer: {u}");
        let usages = component_usage(s.op_intervals(), &comps);
        assert_eq!(usages.len(), 2);
        assert_eq!(usages[1].busy, Duration::ZERO);
        assert_eq!(usages[1].utilization(), 0.0);
    }

    #[test]
    fn gaps_reduce_utilization() {
        // Independent o0, o1 on one mixer with a 6 s wash between them:
        // busy 8 s over a 14 s window.
        let mut b = SequencingGraph::builder();
        b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(6.0));
        b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(2.0));
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &comps,
            &LogLinearWash::paper_calibrated(),
            &SchedulerConfig::paper_dcsa(),
        )
        .unwrap();
        let m = ScheduleMetrics::of(&s, &comps);
        assert_eq!(m.completion, Duration::from_secs(14));
        assert!((m.utilization - 8.0 / 14.0).abs() < 1e-12);
        assert_eq!(m.transports, 0);
        assert_eq!(m.in_place, 0);
    }
}
