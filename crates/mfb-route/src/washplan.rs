//! Wash planning: turning wash *requirements* into executable buffer
//! flushes.
//!
//! The schedulers and routers in this workspace (like the paper) account
//! for wash *time* — a contaminated cell is unusable until `wash(residue)`
//! after its last use. This module goes one level deeper, in the spirit of
//! the paper's washing reference (Hu et al., TCAD'16): each wash is
//! physically a **buffer flush** that enters the chip at a boundary inlet,
//! flows to the contaminated cell, and drains back out through the same
//! inlet along the same cells. A flush therefore needs a *path*, and that
//! path must be free of fluid traffic for the whole flush window.
//!
//! [`plan_washes`] finds such a flush for every channel wash of a routed
//! solution and reports the ones that cannot be realized in their time
//! gap — a fidelity check on the "wash happens in the gap" assumption.
//! Flushes clean every cell they traverse, so the planner also reports how
//! many washes come for free as side effects of earlier flushes.

use crate::grid::{ChannelWash, RoutingGrid};
use crate::router::RouterConfig;
use mfb_model::prelude::*;
use mfb_place::prelude::Placement;
use std::collections::BTreeSet;

/// One planned buffer flush.
#[derive(Debug, Clone, PartialEq)]
pub struct Flush {
    /// The wash requirement this flush satisfies.
    pub wash: ChannelWash,
    /// Buffer path: boundary inlet → contaminated cell → the same cells
    /// back to the inlet.
    pub cells: Vec<CellPos>,
    /// When the buffer flows.
    pub window: Interval,
}

/// The result of wash planning.
#[derive(Debug, Clone, PartialEq)]
pub struct WashPlan {
    /// Realizable flushes, in wash order.
    pub flushes: Vec<Flush>,
    /// Washes already satisfied as a side effect of an earlier flush
    /// passing through their cell in time.
    pub incidental: usize,
    /// Washes with no feasible buffer path in their time gap. The
    /// schedule's wash-time accounting is optimistic for these; a
    /// production flow would lengthen the gap or re-place.
    pub unplanned: Vec<ChannelWash>,
}

impl WashPlan {
    /// Fraction of washes that are physically realizable (planned or
    /// incidental); `1.0` when the gap assumption holds everywhere.
    pub fn coverage(&self) -> f64 {
        let total = self.flushes.len() + self.incidental + self.unplanned.len();
        if total == 0 {
            1.0
        } else {
            (self.flushes.len() + self.incidental) as f64 / total as f64
        }
    }
}

/// Plans a buffer flush for every channel wash of `routing` (see module
/// docs). The fluid traffic the flushes must avoid comes from the routed
/// paths themselves, and no flush crosses a blocked cell of `defects`.
pub fn plan_washes(
    routing: &crate::router::Routing,
    graph: &SequencingGraph,
    placement: &Placement,
    wash: &dyn WashModel,
    config: &RouterConfig,
    defects: &DefectMap,
) -> WashPlan {
    let _span = mfb_obs::obs_span!(
        "route.wash_plan",
        washes = routing.channel_washes.len() as u64
    );
    let wash_of = |op: OpId| wash.wash_time(graph.op(op).output_diffusion());
    // Rebuild the traffic picture.
    let mut grid = RoutingGrid::new(placement, config.w_e, defects);
    for p in &routing.paths {
        for (cell, window) in p.occupancies() {
            grid.reserve(cell, p.task, p.fluid, window, wash_of);
        }
    }
    plan_flushes(&grid, &routing.channel_washes)
}

/// The planning step of [`plan_washes`], on a grid whose reservations
/// already hold the fluid traffic: each of `washes` gets a flush through
/// cells that are routable and unreserved for the whole flush window, is
/// met by an earlier flush through its cell within its gap, or is
/// reported unplanned. A wash whose reservations no longer show its gap
/// is dropped.
pub fn plan_flushes(grid: &RoutingGrid, washes: &[ChannelWash]) -> WashPlan {
    // Washes with their gap (residue departure .. consuming task's entry),
    // in chronological order of the gap start.
    let mut washes: Vec<(Instant, Instant, ChannelWash)> = washes
        .iter()
        .filter_map(|w| gap_of(grid, w).map(|(s, d)| (s, d, *w)))
        .collect();
    washes.sort_by_key(|&(t, _, w)| (t, w.cell, w.task));

    // (cell, instant) pairs: a flush cleaned the cell, finishing then.
    let mut cleaned: BTreeSet<(CellPos, u64)> = BTreeSet::new();

    // BFS state reused across every flush.
    let mut scratch = FlushScratch::default();

    let mut plan = WashPlan {
        flushes: Vec::new(),
        incidental: 0,
        unplanned: Vec::new(),
    };

    for (start, deadline, w) in washes {
        let window = Interval::new(start, start + w.duration);
        // The flush must complete before the consuming task enters the
        // cell; a gap shorter than the wash time is physically unplannable.
        if window.end > deadline {
            plan.unplanned.push(w);
            continue;
        }
        // Satisfied incidentally by an earlier flush through this cell
        // within the gap?
        let gap = (w.cell, start.as_ticks())..=(w.cell, deadline.as_ticks());
        if cleaned.range(gap).next().is_some() {
            plan.incidental += 1;
            continue;
        }
        match flush_path(&mut scratch, grid, w.cell, window) {
            Some(cells) => {
                for &c in &cells {
                    cleaned.insert((c, window.end.as_ticks()));
                }
                plan.flushes.push(Flush {
                    wash: w,
                    cells,
                    window,
                });
            }
            None => plan.unplanned.push(w),
        }
    }
    mfb_obs::obs_counter!("washplan.flushes", plan.flushes.len() as u64);
    mfb_obs::obs_counter!("washplan.incidental", plan.incidental as u64);
    mfb_obs::obs_counter!("washplan.unplanned", plan.unplanned.len() as u64);
    mfb_obs::obs_counter!("washplan.visited", scratch.visited);
    plan
}

/// The wash gap of `w` on its cell: from the end of the residue occupancy
/// that precedes the consuming task, to that task's entry. `None` when the
/// reservations no longer carry the pattern (stale wash record).
fn gap_of(grid: &RoutingGrid, w: &ChannelWash) -> Option<(Instant, Instant)> {
    let rs = grid.reservations(w.cell);
    // The consuming task's (earliest) entry into the cell.
    let deadline = rs
        .iter()
        .filter(|r| r.task == w.task)
        .map(|r| r.window.start)
        .min()?;
    // The residue occupancy it must be cleaned after: the latest one of
    // the residue fluid ending at or before that entry.
    let start = rs
        .iter()
        .filter(|r| r.fluid == w.residue && r.window.end <= deadline)
        .map(|r| r.window.end)
        .max()?;
    Some((start, deadline))
}

/// Search state for [`flush_path`], reused across every flush: `begin`
/// bumps an epoch stamp instead of clearing `seen` and `good`, the same
/// trick as [`crate::astar::SearchScratch`], so one wash plan performs no
/// per-search allocation once the arrays have grown to the grid size.
#[derive(Debug, Default)]
struct FlushScratch {
    epoch: u32,
    /// Epoch stamp of the cells this search has probed, free or not.
    seen: Vec<u32>,
    /// BFS level of each probed cell from the target; `u32::MAX` when the
    /// cell is not free.
    level: Vec<u32>,
    /// Epoch stamp of the reached cells that lie on a shortest path from
    /// the target to the chip edge.
    good: Vec<u32>,
    /// Reached cells in BFS order, and where each level starts in it.
    order: Vec<CellPos>,
    starts: Vec<usize>,
    /// Distinct cells probed, summed over every search.
    visited: u64,
}

impl FlushScratch {
    /// Starts a search over `n` cells; every stamped entry is invalidated.
    fn begin(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.level.resize(n, u32::MAX);
            self.good.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.seen.fill(0);
            self.good.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.order.clear();
        self.starts.clear();
    }
}

/// A buffer path boundary → `target` → boundary whose every cell is free
/// of fluid traffic during `window`: the buffer enters at an edge cell
/// nearest `target`, reaches it by a shortest path, and drains back out
/// along the same cells, so the path is a palindrome.
///
/// The path is the one a BFS from every free edge cell at once would
/// return if it expanded each level in `(y, x)` order: each cell's
/// predecessor is its lowest-`(y, x)` neighbour one step nearer the edge.
/// Reaching that answer from the edge would sweep a band as deep as the
/// target, so the search runs from the target instead. It grows levels
/// until one touches the edge at distance `d`, marks the reached cells
/// that lie `d - level` steps from the edge (a cell is on such a shortest
/// path when a neighbour one level further is), and then walks from the
/// target to the lowest-`(y, x)` marked neighbour one level further, step
/// by step, to the edge.
fn flush_path(
    scratch: &mut FlushScratch,
    grid: &RoutingGrid,
    target: CellPos,
    window: Interval,
) -> Option<Vec<CellPos>> {
    let free = |cell: CellPos| -> bool {
        if !grid.is_routable(cell) {
            return false;
        }
        // Reservations are sorted by start: those starting at or after
        // the window's end cannot overlap it.
        let rs = grid.reservations(cell);
        let split = rs.partition_point(|r| r.window.start < window.end);
        rs[..split].iter().all(|r| !r.window.overlaps(window))
    };
    if !free(target) {
        return None;
    }
    let spec = grid.spec();
    let on_edge =
        |c: CellPos| c.x == 0 || c.y == 0 || c.x + 1 == spec.width || c.y + 1 == spec.height;
    scratch.begin(spec.cell_count() as usize);
    let FlushScratch {
        epoch,
        seen,
        level,
        good,
        order,
        starts,
        visited,
    } = scratch;
    let epoch = *epoch;

    // Levels from the target until one touches the edge.
    let t = spec.index(target);
    seen[t] = epoch;
    level[t] = 0;
    *visited += 1;
    order.push(target);
    starts.push(0);
    let mut depth = 0;
    while !order[starts[depth]..].iter().any(|&c| on_edge(c)) {
        let (lo, hi) = (starts[depth], order.len());
        if lo == hi {
            return None;
        }
        starts.push(hi);
        for i in lo..hi {
            for nb in order[i].neighbours(spec.width, spec.height) {
                let idx = spec.index(nb);
                if seen[idx] == epoch {
                    continue;
                }
                seen[idx] = epoch;
                *visited += 1;
                if free(nb) {
                    level[idx] = depth as u32 + 1;
                    order.push(nb);
                } else {
                    level[idx] = u32::MAX;
                }
            }
        }
        depth += 1;
    }

    // Mark, from the edge inwards, the cells on a shortest path to it.
    let next_good = |cell: CellPos, good: &[u32]| {
        let k = level[spec.index(cell)] + 1;
        cell.neighbours(spec.width, spec.height)
            .filter(|&nb| {
                let idx = spec.index(nb);
                seen[idx] == epoch && level[idx] == k && good[idx] == epoch
            })
            .min_by_key(|nb| (nb.y, nb.x))
    };
    for &c in &order[starts[depth]..] {
        if on_edge(c) {
            good[spec.index(c)] = epoch;
        }
    }
    for k in (1..depth).rev() {
        for &c in &order[starts[k]..starts[k + 1]] {
            if next_good(c, good).is_some() {
                good[spec.index(c)] = epoch;
            }
        }
    }

    // Walk out along the lowest-(y, x) marked neighbours.
    let mut back = vec![target];
    for _ in 0..depth {
        let cur = back[back.len() - 1];
        back.push(next_good(cur, good)?);
    }
    let mut cells: Vec<CellPos> = back.iter().rev().copied().collect();
    cells.extend_from_slice(&back[1..]);
    Some(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route_dcsa;
    use mfb_place::prelude::*;
    use mfb_sched::list::{schedule as run_sched, SchedulerConfig};

    fn solved(
        name: &str,
    ) -> (
        SequencingGraph,
        Placement,
        crate::router::Routing,
        LogLinearWash,
    ) {
        let wash = LogLinearWash::paper_calibrated();
        let b = mfb_bench_suite::table1_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap();
        let comps = b.components(&ComponentLibrary::default());
        let (pristine, budget) = (DefectMap::pristine(), Budget::unlimited());
        let s = run_sched(
            &b.graph,
            &comps,
            &wash,
            &SchedulerConfig::paper_dcsa(),
            &pristine,
        )
        .unwrap();
        let nets = NetList::build(&s, &b.graph, &wash, 0.6, 0.4);
        let (grid, sa) = (auto_grid(&comps), SaConfig::paper());
        let (p, _) = place_sa(&comps, &nets, grid, &sa, &pristine, &budget).unwrap();
        let cfg = RouterConfig::paper();
        let r = route_dcsa(&s, &b.graph, &p, &wash, &cfg, &pristine, &budget).unwrap();
        (b.graph, p, r, wash)
    }

    /// [`plan_washes`] with the paper's router on an undamaged chip.
    fn plan(
        r: &crate::router::Routing,
        g: &SequencingGraph,
        p: &Placement,
        wash: &LogLinearWash,
    ) -> WashPlan {
        plan_washes(
            r,
            g,
            p,
            wash,
            &RouterConfig::paper(),
            &DefectMap::pristine(),
        )
    }

    #[test]
    fn plans_cover_most_washes_on_real_benchmarks() {
        for name in ["IVD", "CPA"] {
            let (g, p, r, wash) = solved(name);
            let plan = plan(&r, &g, &p, &wash);
            let total = plan.flushes.len() + plan.incidental + plan.unplanned.len();
            assert_eq!(total, r.channel_washes.len(), "{name}: washes accounted");
            assert!(
                plan.coverage() >= 0.8,
                "{name}: only {:.0}% of washes plannable",
                plan.coverage() * 100.0
            );
        }
    }

    #[test]
    fn flush_paths_touch_their_target_and_boundary() {
        let (g, p, r, wash) = solved("CPA");
        let plan = plan(&r, &g, &p, &wash);
        let spec = p.grid();
        for f in &plan.flushes {
            assert!(f.cells.contains(&f.wash.cell), "flush misses its target");
            let on_boundary = |c: CellPos| {
                c.x == 0 || c.y == 0 || c.x == spec.width - 1 || c.y == spec.height - 1
            };
            assert!(on_boundary(f.cells[0]), "flush must start at the boundary");
            assert!(
                on_boundary(*f.cells.last().unwrap()),
                "flush must end at the boundary"
            );
            for w in f.cells.windows(2) {
                assert!(w[0].manhattan(w[1]) <= 1, "flush path discontiguous");
            }
            assert!(
                f.cells.iter().eq(f.cells.iter().rev()),
                "a flush drains out along the cells it came in by"
            );
        }
    }

    #[test]
    fn flushes_avoid_fluid_traffic() {
        let (g, p, r, wash) = solved("CPA");
        let plan = plan(&r, &g, &p, &wash);
        for f in &plan.flushes {
            for path in &r.paths {
                for (cell, window) in path.occupancies() {
                    if f.cells.contains(&cell) {
                        assert!(
                            !window.overlaps(f.window),
                            "flush window {} collides with {} on {cell}",
                            f.window,
                            path.task
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_routing_trivially_covered() {
        let (g, p, _r, wash) = solved("IVD");
        let empty = crate::router::Routing {
            paths: vec![],
            channel_washes: vec![],
            realized: crate::router::RealizedTimes {
                start: vec![],
                end: vec![],
            },
            grid: p.grid(),
            used_cells: 0,
        };
        let plan = plan(&empty, &g, &p, &wash);
        assert!(plan.flushes.is_empty());
        assert_eq!(plan.coverage(), 1.0);
    }
}
