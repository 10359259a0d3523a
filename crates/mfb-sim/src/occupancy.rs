//! The chip's occupancy model: which fluid is in which cell, and when.
//!
//! Every cell-level checker in the workspace reads this one model — the
//! replay engine's conflict classes and statistics, the DRC's
//! cached-fluid rule and every `mfb-analyze` analysis — so "conflict" has
//! a single definition behind every verdict. [`OccupancyIr::build`]
//! answers two questions once, from the routed paths and the schedule's
//! transport tasks: *which fluid sits in which cell when*, and *which of
//! those occupancies are channel storage*.

use mfb_model::prelude::*;
use mfb_route::prelude::Routing;
use mfb_sched::prelude::Schedule;

/// Why a fluid occupies a cell during a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OccupancyKind {
    /// The plug is moving through the cell (transport leg only).
    Transit,
    /// The plug is parked in the cell — the window covers part of the
    /// task's channel-storage dwell.
    Parked,
}

/// One cell-occupancy event: `task` holds `fluid` in a cell over `window`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellUse {
    /// Occupancy window on this cell (realized times).
    pub window: Interval,
    /// The transport task occupying the cell.
    pub task: TaskId,
    /// The fluid (producer operation) the task carries.
    pub fluid: OpId,
    /// Transit or parked (see [`OccupancyKind`]).
    pub kind: OccupancyKind,
    /// First instant a *different* fluid may use this cell without picking
    /// up residue: `window.end + wash_time(fluid)`, saturating at the tick
    /// ceiling. Conflict class 3's deadline and the taint analysis' kill
    /// point.
    pub clean_at: Instant,
}

/// The parked portion of one cached transport: where and when a fluid
/// lives in channel storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageSegment {
    /// The transport task doing the caching.
    pub task: TaskId,
    /// The stored fluid.
    pub fluid: OpId,
    /// The operation that eventually consumes the stored fluid.
    pub consumer: OpId,
    /// The channel-storage dwell `[arrive, consumed_at)`.
    pub cache: Interval,
    /// Parked cells with their full occupancy windows, in path order.
    pub cells: Vec<(CellPos, Interval)>,
}

/// The time-expanded occupancy map of one routed solution.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyIr {
    grid: GridSpec,
    /// Per-cell occupancy lists in row-major cell order, each sorted by
    /// `(window, task)` and merged on exact duplicates (a remote-parking
    /// task books its splice cell twice).
    cells: Vec<Vec<CellUse>>,
    /// One segment per transport with a positive channel-storage dwell,
    /// in `TaskId` order.
    storage: Vec<StorageSegment>,
}

impl OccupancyIr {
    /// Builds the occupancy map of `routing` on `grid`.
    ///
    /// Expects artifacts [`shape_problems`](crate::replay::shape_problems)
    /// accepts: every path's fluid must be an operation of `graph`.
    /// Off-grid cells are skipped rather than aliased onto the grid.
    pub fn build(
        graph: &SequencingGraph,
        schedule: &Schedule,
        grid: GridSpec,
        routing: &Routing,
        wash: &dyn WashModel,
    ) -> OccupancyIr {
        let transports: Vec<_> = schedule.transports().collect();
        let mut cells: Vec<Vec<CellUse>> = vec![Vec::new(); grid.cell_count() as usize];
        let mut storage: Vec<StorageSegment> = Vec::new();
        for path in &routing.paths {
            // The dwell this task was scheduled with; a path labelled with
            // a task the table does not hold counts as uncached.
            let transport = transports
                .get(path.task.index())
                .filter(|t| t.id == path.task);
            let cache = transport
                .filter(|t| t.arrive < t.consumed_at)
                .map(|t| Interval::new(t.arrive, t.consumed_at));
            let wash = wash.wash_time(graph.op(path.fluid).output_diffusion());
            let mut parked: Vec<(CellPos, Interval)> = Vec::new();
            for (cell, window) in path.occupancies() {
                if !grid.contains(cell) {
                    continue;
                }
                let kind = match cache {
                    Some(c) if window.overlaps(c) => OccupancyKind::Parked,
                    _ => OccupancyKind::Transit,
                };
                if kind == OccupancyKind::Parked {
                    parked.push((cell, window));
                }
                cells[grid.index(cell)].push(CellUse {
                    window,
                    task: path.task,
                    fluid: path.fluid,
                    kind,
                    clean_at: Instant::from_ticks(
                        window.end.as_ticks().saturating_add(wash.as_ticks()),
                    ),
                });
            }
            if let (Some(cache), Some(t), false) = (cache, transport, parked.is_empty()) {
                storage.push(StorageSegment {
                    task: path.task,
                    fluid: path.fluid,
                    consumer: t.consumer,
                    cache,
                    cells: parked,
                });
            }
        }
        for uses in &mut cells {
            uses.sort();
            uses.dedup();
        }
        storage.sort_by_key(|s| s.task);
        OccupancyIr {
            grid,
            cells,
            storage,
        }
    }

    /// All used cells with their occupancy lists, in row-major cell order.
    /// Each list is sorted by `(window, task)`.
    pub fn cells(&self) -> impl Iterator<Item = (CellPos, &[CellUse])> {
        let width = self.grid.width;
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, uses)| !uses.is_empty())
            .map(move |(idx, uses)| {
                let cell = CellPos::new(idx as u32 % width, idx as u32 / width);
                (cell, uses.as_slice())
            })
    }

    /// The occupancy list of one cell (empty if no path uses it).
    pub fn cell(&self, cell: CellPos) -> &[CellUse] {
        if !self.grid.contains(cell) {
            return &[];
        }
        &self.cells[self.grid.index(cell)]
    }

    /// Channel-storage segments, in `TaskId` order.
    pub fn storage(&self) -> &[StorageSegment] {
        &self.storage
    }

    /// Number of distinct cells any path uses.
    pub fn used_cells(&self) -> usize {
        self.cells.iter().filter(|uses| !uses.is_empty()).count()
    }
}
