//! The routing grid: per-cell weights, residues and occupancy time slots
//! (the paper's Fig. 7 bookkeeping).
//!
//! Every routable cell carries
//!
//! * a **weight** `w(i)` — initially the constant `w_e`, and after a task
//!   passes, the wash time of that task's residue. Cheap-to-wash cells cost
//!   less in the A* of Eq. (5), so later tasks gravitate towards them,
//!   lengthening shared channel segments and shrinking the chip's total
//!   channel length;
//! * the identity of the **residue** currently contaminating the cell;
//! * a set of **occupancy time slots** `T_i = {(st, et)}` — one interval per
//!   task that transported *or cached* fluid through the cell. Slots are
//!   what make the three conflict classes of §II-C.2 checkable.

use mfb_model::prelude::*;
use mfb_place::prelude::Placement;
use serde::{Deserialize, Serialize};

/// One occupancy slot on a cell: `task` held the cell for `window`
/// (transport plus any channel-cache dwell), leaving the residue of `fluid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reservation {
    /// The occupying transport task.
    pub task: TaskId,
    /// The fluid moved (identified by its producing operation).
    pub fluid: OpId,
    /// Occupancy window `[st, et)`.
    pub window: Interval,
}

/// One channel wash: before `task` could reuse `cell`, the residue of
/// `residue` had to be flushed for `duration`. The sum of these durations is
/// the paper's Fig. 9 metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelWash {
    /// The cell being washed.
    pub cell: CellPos,
    /// The fluid whose residue is removed.
    pub residue: OpId,
    /// The task that needed the clean cell.
    pub task: TaskId,
    /// Wash duration.
    pub duration: Duration,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CellState {
    /// `w(i)`: wash-time-derived routing weight.
    weight: Duration,
    /// The last fluid that touched the cell, if any.
    residue: Option<OpId>,
    /// When the residue's occupancy ended.
    residue_since: Instant,
    /// Occupancy slots, sorted by `(window.start, window.end, task)` so
    /// [`RoutingGrid::feasible`] can split them around a query window with
    /// one binary search instead of a full scan.
    reservations: Vec<Reservation>,
}

/// The routing grid for one placement: blocked component interiors plus the
/// per-cell state of Fig. 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingGrid {
    spec: GridSpec,
    /// Component occupying each cell, if any (component interiors are not
    /// routable).
    blocked: Vec<Option<ComponentId>>,
    /// Cells orthogonally adjacent to some component rectangle — the access
    /// rings through which every port connection must pass. Through-traffic
    /// is taxed on these cells and cached plugs may not park on a foreign
    /// component's ring, keeping component access unobstructed.
    ring: Vec<bool>,
    /// Cells permanently unusable per the chip's defect map — treated as
    /// infinite-cost (never routable), independent of component occupancy.
    defect: Vec<bool>,
    /// Extra per-cell routing weight for degraded-but-usable cells.
    penalty: Vec<Duration>,
    cells: Vec<CellState>,
    /// Initial cell weight `w_e`.
    w_e: Duration,
}

impl RoutingGrid {
    /// Builds the grid for `placement`, blocking every component interior.
    /// `w_e` is the initial weight of every cell (paper default 10 s).
    /// Blocked cells of `defects` are permanently unroutable (∞ cost —
    /// [`is_routable`] is `false`, so neither the A* nor the baseline router
    /// will ever enter them) and degraded cells carry their extra weight on
    /// top of `w(i)`.
    ///
    /// [`is_routable`]: Self::is_routable
    pub fn new(placement: &Placement, w_e: Duration, defects: &DefectMap) -> Self {
        let spec = placement.grid();
        let n = spec.cell_count() as usize;
        let mut blocked = vec![None; n];
        for (i, &rect) in placement.rects().iter().enumerate() {
            for cell in rect.cells() {
                blocked[spec.index(cell)] = Some(ComponentId::new(i as u32));
            }
        }
        let mut ring = vec![false; n];
        for y in 0..spec.height {
            for x in 0..spec.width {
                let cell = CellPos::new(x, y);
                if blocked[spec.index(cell)].is_some() {
                    continue;
                }
                if cell
                    .neighbours(spec.width, spec.height)
                    .any(|nb| blocked[spec.index(nb)].is_some())
                {
                    ring[spec.index(cell)] = true;
                }
            }
        }
        let mut defect = vec![false; n];
        for &cell in defects.blocked_cells() {
            if spec.contains(cell) {
                defect[spec.index(cell)] = true;
            }
        }
        let mut penalty = vec![Duration::ZERO; n];
        for p in defects.penalties() {
            if spec.contains(p.cell) {
                penalty[spec.index(p.cell)] = Duration::from_secs(u64::from(p.extra_weight));
            }
        }
        RoutingGrid {
            spec,
            blocked,
            ring,
            defect,
            penalty,
            cells: vec![
                CellState {
                    weight: w_e,
                    residue: None,
                    residue_since: Instant::ZERO,
                    reservations: Vec::new(),
                };
                n
            ],
            w_e,
        }
    }

    /// The grid geometry.
    #[inline]
    pub fn spec(&self) -> GridSpec {
        self.spec
    }

    /// The configured initial weight `w_e`.
    #[inline]
    pub fn w_e(&self) -> Duration {
        self.w_e
    }

    /// `true` when `cell` is routable (inside the grid, not a component
    /// interior, and not a blocked defect cell).
    #[inline]
    pub fn is_routable(&self, cell: CellPos) -> bool {
        self.spec.contains(cell)
            && self.blocked[self.spec.index(cell)].is_none()
            && !self.defect[self.spec.index(cell)]
    }

    /// `true` when `cell` is marked permanently unusable by the defect map.
    #[inline]
    pub fn is_defect(&self, cell: CellPos) -> bool {
        self.defect[self.spec.index(cell)]
    }

    /// The component occupying `cell`, if any.
    #[inline]
    pub fn component_at(&self, cell: CellPos) -> Option<ComponentId> {
        self.blocked[self.spec.index(cell)]
    }

    /// `true` when `cell` belongs to some component's access ring (it is
    /// routable and orthogonally adjacent to a component rectangle).
    #[inline]
    pub fn is_ring(&self, cell: CellPos) -> bool {
        self.ring[self.spec.index(cell)]
    }

    /// The current routing weight `w(i)` of `cell`, including any
    /// degraded-cell penalty from the defect map.
    #[inline]
    pub fn weight(&self, cell: CellPos) -> Duration {
        let i = self.spec.index(cell);
        self.cells[i].weight + self.penalty[i]
    }

    /// The residue currently contaminating `cell`.
    #[inline]
    pub fn residue(&self, cell: CellPos) -> Option<OpId> {
        self.cells[self.spec.index(cell)].residue
    }

    /// The occupancy slots of `cell`, sorted by window start (then end,
    /// then task).
    pub fn reservations(&self, cell: CellPos) -> &[Reservation] {
        &self.cells[self.spec.index(cell)].reservations
    }

    /// Checks whether fluid `fluid` may occupy `cell` during `window`,
    /// given wash times from `wash` (Eq. (5)'s feasibility conditions plus
    /// the wash-before-use rule):
    ///
    /// 1. no existing slot of a **different** fluid overlaps `window`
    ///    (conflict classes 1 and 2). Aliquots of the *same* fluid may
    ///    share a cell simultaneously — physically one plug splitting at a
    ///    junction, with identical composition throughout;
    /// 2. the most recent residue before `window` can be washed away in the
    ///    gap — unless it is the *same* fluid, which needs no wash
    ///    (conflict class 3);
    /// 3. symmetric: our own residue can be washed before the next
    ///    already-booked slot after `window` begins.
    pub fn feasible(
        &self,
        cell: CellPos,
        window: Interval,
        fluid: OpId,
        wash_of: impl Fn(OpId) -> Duration,
    ) -> bool {
        if !self.is_routable(cell) {
            return false;
        }
        let state = &self.cells[self.spec.index(cell)];
        // Reservations are sorted by window start, so one binary search
        // splits them around the query: everything at or past `split`
        // starts at/after `window.end` — never overlapping, and exactly the
        // `earliest_after` candidates, of which the first (minimal start)
        // wins. The prefix holds every possible overlap and, among its
        // non-overlapping slots (`end <= window.start`), the
        // `latest_before` candidates. Ties on start/end imply mutually
        // overlapping slots, which the overlap rule forces to carry the
        // same fluid, so tie-breaking cannot change the decision — this
        // split is decision-identical to the historical full scan.
        let rs = &state.reservations;
        let split = rs.partition_point(|r| r.window.start < window.end);
        let mut latest_before: Option<&Reservation> = None;
        for r in &rs[..split] {
            if r.window.overlaps(window) {
                if r.fluid == fluid {
                    continue;
                }
                return false;
            }
            if latest_before.map_or(true, |b| r.window.end > b.window.end) {
                latest_before = Some(r);
            }
        }
        let earliest_after = rs[split..].first();
        if let Some(prev) = latest_before {
            if prev.fluid != fluid && prev.window.end + wash_of(prev.fluid) > window.start {
                return false;
            }
        }
        if let Some(next) = earliest_after {
            if next.fluid != fluid && window.end + wash_of(fluid) > next.window.start {
                return false;
            }
        }
        true
    }

    /// Books `window` on `cell` for `task` carrying `fluid`, updating the
    /// cell weight to the residue's wash time (Fig. 7) and returning the
    /// [`ChannelWash`] incurred by flushing the previous residue, if any.
    ///
    /// Call only after [`feasible`](Self::feasible); this method does not
    /// re-check.
    pub fn reserve(
        &mut self,
        cell: CellPos,
        task: TaskId,
        fluid: OpId,
        window: Interval,
        wash_of: impl Fn(OpId) -> Duration,
    ) -> Option<ChannelWash> {
        let idx = self.spec.index(cell);
        let state = &mut self.cells[idx];
        let wash = match state.residue {
            Some(prev) if prev != fluid && state.residue_since <= window.start => {
                Some(ChannelWash {
                    cell,
                    residue: prev,
                    task,
                    duration: wash_of(prev),
                })
            }
            _ => None,
        };
        let slot = Reservation {
            task,
            fluid,
            window,
        };
        // Keep the slots sorted by (start, end, task); see `CellState`.
        let key = (window.start, window.end, task);
        let at = state
            .reservations
            .partition_point(|r| (r.window.start, r.window.end, r.task) <= key);
        state.reservations.insert(at, slot);
        // Track the latest residue on the cell.
        if window.end >= state.residue_since {
            state.residue = Some(fluid);
            state.residue_since = window.end;
            state.weight = wash_of(fluid);
        }
        wash
    }

    /// Removes every reservation held by `task`, restoring each affected
    /// cell's residue and weight from the reservations that remain. Used by
    /// the rip-up-and-reroute fallback.
    pub fn unreserve(&mut self, task: TaskId, wash_of: impl Fn(OpId) -> Duration) {
        for state in &mut self.cells {
            let before = state.reservations.len();
            state.reservations.retain(|r| r.task != task);
            if state.reservations.len() == before {
                continue;
            }
            match state.reservations.iter().max_by_key(|r| r.window.end) {
                Some(last) => {
                    state.residue = Some(last.fluid);
                    state.residue_since = last.window.end;
                    state.weight = wash_of(last.fluid);
                }
                None => {
                    state.residue = None;
                    state.residue_since = Instant::ZERO;
                    state.weight = self.w_e;
                }
            }
        }
    }

    /// All cells ever reserved by any task — the physical flow channels.
    /// Their count times the grid pitch is Table I's *total channel length*.
    pub fn used_cells(&self) -> impl Iterator<Item = CellPos> + '_ {
        let w = self.spec.width;
        self.cells.iter().enumerate().filter_map(move |(i, c)| {
            if c.reservations.is_empty() {
                None
            } else {
                Some(CellPos::new(i as u32 % w, i as u32 / w))
            }
        })
    }

    /// Number of distinct cells used by any routed task.
    pub fn used_cell_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| !c.reservations.is_empty())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfb_place::prelude::Placement;

    /// The test placement's grid on an undamaged chip, `w_e` = 10 s.
    fn grid() -> RoutingGrid {
        RoutingGrid::new(
            &placement(),
            Duration::from_secs(10),
            &DefectMap::pristine(),
        )
    }

    fn placement() -> Placement {
        Placement::new(
            GridSpec::square(12),
            vec![
                CellRect::new(CellPos::new(1, 1), 3, 2),
                CellRect::new(CellPos::new(8, 8), 2, 2),
            ],
        )
    }

    fn wash2(_: OpId) -> Duration {
        Duration::from_secs(2)
    }

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(Instant::from_secs(a), Instant::from_secs(b))
    }

    #[test]
    fn component_interiors_are_blocked() {
        let g = grid();
        assert!(!g.is_routable(CellPos::new(1, 1)));
        assert!(!g.is_routable(CellPos::new(3, 2)));
        assert_eq!(
            g.component_at(CellPos::new(2, 1)),
            Some(ComponentId::new(0))
        );
        assert!(g.is_routable(CellPos::new(0, 0)));
        assert!(g.is_routable(CellPos::new(4, 1)));
        assert!(
            !g.is_routable(CellPos::new(12, 0)),
            "off-grid is unroutable"
        );
    }

    #[test]
    fn defect_cells_are_unroutable_and_penalties_add_weight() {
        let mut defects = DefectMap::pristine();
        defects.block_cell(CellPos::new(5, 5));
        defects.penalize_cell(CellPos::new(6, 6), 4);
        let g = RoutingGrid::new(&placement(), Duration::from_secs(10), &defects);
        assert!(!g.is_routable(CellPos::new(5, 5)));
        assert!(g.is_defect(CellPos::new(5, 5)));
        assert!(g.is_routable(CellPos::new(6, 6)));
        assert_eq!(g.weight(CellPos::new(6, 6)), Duration::from_secs(14));
        assert_eq!(g.weight(CellPos::new(7, 7)), Duration::from_secs(10));
        // Feasibility honors the defect mask too.
        assert!(!g.feasible(CellPos::new(5, 5), iv(0, 10), OpId::new(0), wash2));
    }

    #[test]
    fn initial_weight_is_w_e() {
        let g = grid();
        assert_eq!(g.weight(CellPos::new(0, 0)), Duration::from_secs(10));
        assert_eq!(g.w_e(), Duration::from_secs(10));
    }

    #[test]
    fn overlapping_windows_are_infeasible() {
        let mut g = grid();
        let cell = CellPos::new(5, 5);
        let f0 = OpId::new(0);
        let f1 = OpId::new(1);
        assert!(g.feasible(cell, iv(0, 10), f0, wash2));
        g.reserve(cell, TaskId::new(0), f0, iv(0, 10), wash2);
        assert!(!g.feasible(cell, iv(5, 12), f1, wash2));
        assert!(!g.feasible(cell, iv(0, 10), f1, wash2));
    }

    #[test]
    fn wash_gap_is_enforced_after_previous_use() {
        let mut g = grid();
        let cell = CellPos::new(5, 5);
        let f0 = OpId::new(0);
        let f1 = OpId::new(1);
        g.reserve(cell, TaskId::new(0), f0, iv(0, 10), wash2);
        // Needs 2 s of wash after t=10: t=11 start is too early, t=12 fine.
        assert!(!g.feasible(cell, iv(11, 14), f1, wash2));
        assert!(g.feasible(cell, iv(12, 14), f1, wash2));
        // Same fluid needs no wash.
        assert!(g.feasible(cell, iv(10, 14), f0, wash2));
    }

    #[test]
    fn wash_gap_is_enforced_before_future_use() {
        let mut g = grid();
        let cell = CellPos::new(5, 5);
        let f0 = OpId::new(0);
        let f1 = OpId::new(1);
        g.reserve(cell, TaskId::new(0), f0, iv(20, 30), wash2);
        // Our residue must wash before t=20: end by 18.
        assert!(g.feasible(cell, iv(10, 18), f1, wash2));
        assert!(!g.feasible(cell, iv(10, 19), f1, wash2));
    }

    #[test]
    fn reserve_updates_weight_and_reports_wash() {
        let mut g = grid();
        let cell = CellPos::new(5, 5);
        let f0 = OpId::new(0);
        let f1 = OpId::new(1);
        let none = g.reserve(cell, TaskId::new(0), f0, iv(0, 10), wash2);
        assert!(none.is_none(), "fresh cell needs no wash");
        assert_eq!(g.weight(cell), Duration::from_secs(2));
        assert_eq!(g.residue(cell), Some(f0));

        let w = g
            .reserve(cell, TaskId::new(1), f1, iv(12, 15), wash2)
            .expect("dirty cell must be washed");
        assert_eq!(w.residue, f0);
        assert_eq!(w.duration, Duration::from_secs(2));
        assert_eq!(g.residue(cell), Some(f1));
    }

    #[test]
    fn same_fluid_reuse_needs_no_wash() {
        let mut g = grid();
        let cell = CellPos::new(5, 5);
        let f0 = OpId::new(0);
        g.reserve(cell, TaskId::new(0), f0, iv(0, 10), wash2);
        let w = g.reserve(cell, TaskId::new(1), f0, iv(10, 12), wash2);
        assert!(w.is_none());
    }

    #[test]
    fn used_cells_counts_distinct() {
        let mut g = grid();
        let f0 = OpId::new(0);
        g.reserve(CellPos::new(5, 5), TaskId::new(0), f0, iv(0, 5), wash2);
        g.reserve(CellPos::new(5, 6), TaskId::new(0), f0, iv(0, 5), wash2);
        g.reserve(CellPos::new(5, 5), TaskId::new(1), f0, iv(7, 9), wash2);
        assert_eq!(g.used_cell_count(), 2);
        let used: Vec<_> = g.used_cells().collect();
        assert!(used.contains(&CellPos::new(5, 5)));
        assert!(used.contains(&CellPos::new(5, 6)));
    }
}
