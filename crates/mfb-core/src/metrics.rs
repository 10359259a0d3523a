//! Whole-solution metrics: the four Table-I columns plus the Fig. 8 and
//! Fig. 9 quantities, computed on **realized** times (so routing
//! postponements in the baseline properly count against it).

use crate::flow::Solution;
use mfb_model::prelude::*;
use serde::{Deserialize, Serialize};

/// Every number the paper reports about one synthesis run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolutionMetrics {
    /// Assay execution (completion) time, realized — Table I column group 1.
    pub execution_time: Duration,
    /// On-chip resource utilization `U_r` (Eq. (1)) over realized times —
    /// Table I column group 2.
    pub utilization: f64,
    /// Total flow-channel length in millimetres (distinct channel cells ×
    /// pitch) — Table I column group 3.
    pub channel_length_mm: f64,
    /// Total fluid cache time in flow channels, realized — Fig. 8.
    pub cache_time: Duration,
    /// Total wash time of flow channels — Fig. 9.
    pub channel_wash_time: Duration,
    /// Total component wash time booked by the scheduler.
    pub component_wash_time: Duration,
    /// Routing-induced delay summed over operations (zero for the paper's
    /// flow).
    pub total_delay: Duration,
    /// Dependencies satisfied in place (Case-I wins).
    pub in_place: usize,
    /// Number of transport tasks routed.
    pub transports: usize,
}

impl SolutionMetrics {
    /// Computes all metrics of `solution` for the assay it was built from.
    pub fn of(solution: &Solution, components: &ComponentSet) -> Self {
        let schedule = &solution.schedule;
        let routing = &solution.routing;
        let realized = &routing.realized;

        // Eq. (1) on realized times.
        let utilization = mfb_sched::metrics::resource_utilization(
            schedule.ops().map(|s| {
                let op = s.op.index();
                (s.component, realized.start[op], realized.end[op])
            }),
            components,
        );

        let cache_time = routing.total_realized_cache_time(schedule.t_c);

        SolutionMetrics {
            execution_time: realized.completion() - Instant::ZERO,
            utilization,
            channel_length_mm: routing.total_channel_length_mm(),
            cache_time,
            channel_wash_time: routing.total_channel_wash_time(),
            component_wash_time: schedule.total_component_wash_time(),
            total_delay: routing.total_delay(schedule),
            in_place: schedule.in_place_count(),
            transports: routing.paths.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Synthesizer;

    #[test]
    fn metrics_of_small_solution_are_sane() {
        let wash = LogLinearWash::paper_calibrated();
        let mut b = SequencingGraph::builder();
        let d = DiffusionCoefficient::PROTEIN;
        let m0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
        let m1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d);
        b.edge(m0, m1).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash)
            .unwrap();
        let m = SolutionMetrics::of(&s, &comps);

        // Case I keeps the chain on one mixer: 9 s, no transports.
        assert_eq!(m.execution_time, Duration::from_secs(9));
        assert_eq!(m.transports, 0);
        assert_eq!(m.in_place, 1);
        assert_eq!(m.total_delay, Duration::ZERO);
        assert_eq!(m.channel_length_mm, 0.0);
        // One fully-busy mixer, one idle: U_r = 0.5.
        assert!((m.utilization - 0.5).abs() < 1e-12);
    }
}
