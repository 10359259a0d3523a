//! Chip activity statistics gathered during replay.

use crate::occupancy::OccupancyIr;
use mfb_model::prelude::*;
use mfb_route::prelude::Routing;
use mfb_sched::prelude::Schedule;

/// Aggregate activity figures for a replayed solution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Realized assay makespan.
    pub makespan: Duration,
    /// Largest number of transports simultaneously on chip
    /// (by occupancy-window hull).
    pub peak_parallel_transports: usize,
    /// Total realized channel-cache time: per task, the gap between its
    /// arrival (departure + `t_c`) and its consumer's realized start.
    pub realized_cache_time: Duration,
    /// Cell-seconds of channel occupancy (sum of per-cell window lengths).
    pub channel_occupancy: Duration,
    /// Number of distinct cells ever used by fluids.
    pub used_cells: usize,
}

impl SimStats {
    pub(crate) fn collect(
        schedule: &Schedule,
        routing: &Routing,
        occupancy: &OccupancyIr,
    ) -> SimStats {
        let makespan = routing.realized.completion() - Instant::ZERO;

        // Peak parallelism over the tasks' on-chip lifetimes.
        let peak = peak_overlap(
            routing
                .paths
                .iter()
                .filter(|p| !p.is_empty())
                .map(|p| p.window_hull()),
        );

        let cache = routing.total_realized_cache_time(schedule.t_c);

        let mut channel_occupancy = Duration::ZERO;
        for (_, uses) in occupancy.cells() {
            for u in uses {
                channel_occupancy += u.window.length();
            }
        }

        SimStats {
            makespan,
            peak_parallel_transports: peak,
            realized_cache_time: cache,
            channel_occupancy,
            used_cells: occupancy.used_cells(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::replay::replay;
    use crate::replay::test_support::solved_instance;
    use mfb_model::prelude::*;

    #[test]
    fn stats_are_consistent_with_solution() {
        let (g, comps, s, p, r, wash) = solved_instance();
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        let stats = &report.stats;
        assert_eq!(
            stats.makespan,
            s.completion_time() - Instant::ZERO,
            "DCSA routing adds no delay"
        );
        assert!(stats.peak_parallel_transports >= 1);
        assert_eq!(stats.used_cells, r.used_cells);
        assert!(stats.channel_occupancy > Duration::ZERO);
    }
}
