//! Post-routing cleanup: iterative re-routing to shrink total channel
//! length.
//!
//! The sequential router commits each task against only the *earlier*
//! tasks' reservations; once everything is routed, a task routed early may
//! have an unnecessarily long path that a later re-route could shorten
//! (all the sharing opportunities now exist). This pass sweeps the tasks
//! in decreasing path length, rips each out and re-routes it against the
//! full reservation picture, keeping the change only when the chip's
//! distinct-channel-cell count does not grow. Conflict-freedom and the
//! realized times are preserved exactly — only geometry improves.

use crate::astar::{AstarOptions, SearchScratch};
use crate::grid::RoutingGrid;
use crate::router::{ports, route_one, RoutedPath, RouterConfig, Routing};
use mfb_model::prelude::*;
use mfb_place::prelude::Placement;
use mfb_sched::prelude::*;

/// Maximum improvement sweeps over all tasks.
const MAX_SWEEPS: usize = 3;

/// Re-routes tasks of `routing` to reduce the distinct-cell channel count
/// (Table I's *total channel length*). Returns the improved routing;
/// idempotent once no task improves. Re-routes are attempted on a
/// defect-aware grid, so the optimizer never trades a legal detour for a
/// shorter path through a blocked cell of `defects`.
pub fn optimize_channel_length(
    routing: &Routing,
    schedule: &Schedule,
    graph: &SequencingGraph,
    placement: &Placement,
    wash: &dyn WashModel,
    config: &RouterConfig,
    defects: &DefectMap,
) -> Routing {
    // The optimizer re-books tasks at their *scheduled* windows; a routing
    // that carries correction delays lives at shifted times, and re-routing
    // it against scheduled windows would resurrect the conflicts the
    // correction resolved. Leave such routings untouched.
    if routing.total_delay(schedule) > Duration::ZERO {
        return routing.clone();
    }

    let wash_of = |op: OpId| wash.wash_time(graph.op(op).output_diffusion());
    let options = AstarOptions {
        use_weights: config.wash_aware_weights,
    };

    // Rebuild the grid from the existing paths.
    let mut grid = RoutingGrid::new(placement, config.w_e, defects);
    // One search arena reused across every re-route attempt.
    let mut scratch = SearchScratch::new();
    let mut paths: Vec<RoutedPath> = routing.paths.clone();
    for p in &paths {
        for (cell, window) in p.occupancies() {
            grid.reserve(cell, p.task, p.fluid, window, wash_of);
        }
    }

    for _sweep in 0..MAX_SWEEPS {
        let mut improved = false;
        // Longest paths first: they have the most to gain.
        let mut order: Vec<usize> = (0..paths.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(paths[i].len()));

        for i in order {
            let task_id = paths[i].task;
            let t = schedule.transport(task_id);
            let before = grid.used_cell_count();

            grid.unreserve(task_id, wash_of);
            let src_ports = ports(placement, &grid, t.src);
            let dst_ports = ports(placement, &grid, t.dst);
            let attempt = route_one(
                &mut scratch,
                &grid,
                schedule,
                t,
                &src_ports,
                &dst_ports,
                config,
                wash_of,
                options,
            );

            match attempt {
                Some((cells, windows)) => {
                    for (&cell, &window) in cells.iter().zip(&windows) {
                        grid.reserve(cell, task_id, t.fluid, window, wash_of);
                    }
                    let after = grid.used_cell_count();
                    if after <= before && cells.len() <= paths[i].cells.len() {
                        if after < before || cells.len() < paths[i].cells.len() {
                            improved = true;
                        }
                        paths[i] = RoutedPath {
                            task: task_id,
                            fluid: t.fluid,
                            cells,
                            windows,
                        };
                    } else {
                        // Worse: restore the original path.
                        grid.unreserve(task_id, wash_of);
                        for (cell, window) in paths[i].occupancies() {
                            grid.reserve(cell, task_id, paths[i].fluid, window, wash_of);
                        }
                    }
                }
                None => {
                    // Should not happen (the old path is itself feasible),
                    // but restore defensively.
                    for (cell, window) in paths[i].occupancies() {
                        grid.reserve(cell, task_id, paths[i].fluid, window, wash_of);
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }

    Routing {
        paths,
        channel_washes: crate::router::collect_washes(&grid, wash_of),
        realized: routing.realized.clone(),
        grid: grid.spec(),
        used_cells: grid.used_cell_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route_dcsa;
    use mfb_place::prelude::*;
    use mfb_sched::list::{schedule as run_sched, SchedulerConfig};

    fn setup(name: &str) -> (SequencingGraph, ComponentSet, Schedule, Placement, Routing) {
        let wash = LogLinearWash::paper_calibrated();
        let b = mfb_bench_suite::table1_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap();
        let comps = b.components(&ComponentLibrary::default());
        let s = run_sched(
            &b.graph,
            &comps,
            &wash,
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        let nets = NetList::build(&s, &b.graph, &wash, 0.6, 0.4);
        let p = place_sa(
            &comps,
            &nets,
            auto_grid(&comps),
            &SaConfig::paper(),
            &DefectMap::pristine(),
            &Budget::unlimited(),
        )
        .unwrap()
        .0;
        let r = route_dcsa(
            &s,
            &b.graph,
            &p,
            &wash,
            &RouterConfig::paper(),
            &DefectMap::pristine(),
            &Budget::unlimited(),
        )
        .unwrap();
        (b.graph, comps, s, p, r)
    }

    /// [`optimize_channel_length`] with the paper's router on an
    /// undamaged chip.
    fn optimize(
        r: &Routing,
        s: &Schedule,
        g: &SequencingGraph,
        p: &Placement,
        wash: &LogLinearWash,
    ) -> Routing {
        let pristine = DefectMap::pristine();
        optimize_channel_length(r, s, g, p, wash, &RouterConfig::paper(), &pristine)
    }

    #[test]
    fn never_worsens_and_stays_conflict_free() {
        let wash = LogLinearWash::paper_calibrated();
        for name in ["IVD", "CPA", "Synthetic1"] {
            let (g, _c, s, p, r) = setup(name);
            let opt = optimize(&r, &s, &g, &p, &wash);
            assert!(
                opt.used_cells <= r.used_cells,
                "{name}: {} -> {}",
                r.used_cells,
                opt.used_cells
            );
            assert_eq!(opt.realized, r.realized, "{name}: times must not move");
            for i in 0..opt.paths.len() {
                for j in (i + 1)..opt.paths.len() {
                    assert!(
                        !opt.paths[i].conflicts_with(&opt.paths[j]),
                        "{name}: optimization introduced a conflict"
                    );
                }
            }
        }
    }

    #[test]
    fn is_idempotent_once_converged() {
        let wash = LogLinearWash::paper_calibrated();
        let (g, _c, s, p, r) = setup("IVD");
        let once = optimize(&r, &s, &g, &p, &wash);
        let twice = optimize(&once, &s, &g, &p, &wash);
        assert_eq!(once.used_cells, twice.used_cells);
    }
}
