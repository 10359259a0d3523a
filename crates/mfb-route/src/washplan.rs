//! Wash planning: turning wash *requirements* into executable buffer
//! flushes.
//!
//! The schedulers and routers in this workspace (like the paper) account
//! for wash *time* — a contaminated cell is unusable until `wash(residue)`
//! after its last use. This module goes one level deeper, in the spirit of
//! the paper's washing reference (Hu et al., TCAD'16): each wash is
//! physically a **buffer flush** that enters the chip at a boundary inlet,
//! flows through the contaminated cell, and leaves through a boundary
//! outlet to waste. A flush therefore needs a *path*, and that path must be
//! free of fluid traffic for the whole flush window.
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
use std::collections::{BTreeSet, BinaryHeap};

/// One planned buffer flush.
#[derive(Debug, Clone, PartialEq)]
pub struct Flush {
    /// The wash requirement this flush satisfies.
    pub wash: ChannelWash,
    /// Buffer path: boundary inlet → contaminated cell → boundary outlet.
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
    let wash_of = |op: OpId| wash.wash_time(graph.op(op).output_diffusion());
    // Rebuild the traffic picture.
    let mut grid = RoutingGrid::new(placement, config.w_e, defects);
    for p in &routing.paths {
        for (cell, window) in p.occupancies() {
            grid.reserve(cell, p.task, p.fluid, window, wash_of);
        }
    }
    let spec = grid.spec();

    // Boundary inlets/outlets: routable cells on the chip edge.
    let boundary: Vec<CellPos> = (0..spec.width)
        .flat_map(|x| [CellPos::new(x, 0), CellPos::new(x, spec.height - 1)])
        .chain((0..spec.height).flat_map(|y| [CellPos::new(0, y), CellPos::new(spec.width - 1, y)]))
        .filter(|&c| grid.is_routable(c))
        .collect();

    // Washes with their gap (residue departure .. consuming task's entry),
    // in chronological order of the gap start.
    let mut washes: Vec<(Instant, Instant, ChannelWash)> = routing
        .channel_washes
        .iter()
        .filter_map(|w| gap_of(&grid, w).map(|(s, d)| (s, d, *w)))
        .collect();
    washes.sort_by_key(|&(t, _, w)| (t, w.cell, w.task));

    // Cells already cleaned up to some instant by earlier flushes.
    let mut cleaned: BTreeSet<(CellPos, u64)> = BTreeSet::new();

    // BFS state reused across every leg of every flush.
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
        if cleaned
            .iter()
            .any(|&(c, t)| c == w.cell && t >= start.as_ticks() && t <= deadline.as_ticks())
        {
            plan.incidental += 1;
            continue;
        }
        match flush_path(&mut scratch, &grid, &boundary, w.cell, window) {
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

/// BFS state for [`flush_path`], reused across every leg of every flush:
/// `begin` bumps an epoch stamp instead of refilling `dist`/`prev`, the
/// same trick as [`crate::astar::SearchScratch`], so one wash plan performs
/// no per-leg allocation once the arrays have grown to the grid size.
#[derive(Debug, Default)]
struct FlushScratch {
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<u32>,
    prev: Vec<Option<CellPos>>,
    heap: BinaryHeap<std::cmp::Reverse<(u32, u32, u32)>>,
}

impl FlushScratch {
    /// Starts a leg over `n` cells; every stamped entry is invalidated.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, u32::MAX);
            self.prev.resize(n, None);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.heap.clear();
    }
}

/// A buffer path boundary → `target` → boundary whose every cell is free
/// of fluid traffic during `window`. Uses two BFS legs; the legs may share
/// cells (a U-shaped flush), which is physically a back-and-forth flush
/// and acceptable for planning purposes.
fn flush_path(
    scratch: &mut FlushScratch,
    grid: &RoutingGrid,
    boundary: &[CellPos],
    target: CellPos,
    window: Interval,
) -> Option<Vec<CellPos>> {
    let free = |cell: CellPos| -> bool {
        grid.is_routable(cell)
            && grid
                .reservations(cell)
                .iter()
                .all(|r| !r.window.overlaps(window))
    };
    if !free(target) {
        return None;
    }
    let mut leg = |from_boundary: bool| -> Option<Vec<CellPos>> {
        // Dijkstra with unit costs (plain BFS) from the boundary set to the
        // target; deterministic tie-breaking through the ordered heap.
        let spec = grid.spec();
        let n = spec.cell_count() as usize;
        scratch.begin(n);
        let FlushScratch {
            epoch,
            stamp,
            dist,
            prev,
            heap,
        } = scratch;
        let epoch = *epoch;
        for &b in boundary {
            if free(b) {
                stamp[spec.index(b)] = epoch;
                dist[spec.index(b)] = 0;
                prev[spec.index(b)] = None;
                heap.push(std::cmp::Reverse((0, b.y, b.x)));
            }
        }
        while let Some(std::cmp::Reverse((d, y, x))) = heap.pop() {
            let cell = CellPos::new(x, y);
            let idx = spec.index(cell);
            if stamp[idx] == epoch && d > dist[idx] {
                continue;
            }
            if cell == target {
                let mut path = vec![cell];
                let mut cur = cell;
                while let Some(p) = prev[spec.index(cur)] {
                    path.push(p);
                    cur = p;
                }
                if from_boundary {
                    path.reverse();
                }
                return Some(path);
            }
            for nb in cell.neighbours(spec.width, spec.height) {
                if !free(nb) {
                    continue;
                }
                let nidx = spec.index(nb);
                let known = if stamp[nidx] == epoch {
                    dist[nidx]
                } else {
                    u32::MAX
                };
                let nd = d + 1;
                if nd < known {
                    stamp[nidx] = epoch;
                    dist[nidx] = nd;
                    prev[nidx] = Some(cell);
                    heap.push(std::cmp::Reverse((nd, nb.y, nb.x)));
                }
            }
        }
        None
    };

    let inflow = leg(true)?;
    let outflow = leg(false)?;
    let mut cells = inflow;
    cells.extend(outflow.into_iter().skip(1));
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
