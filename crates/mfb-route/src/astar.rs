//! Time-windowed, wash-weighted A* path search (paper Eq. (5)).
//!
//! The search runs over the routable cells of a [`RoutingGrid`]; a cell is
//! expandable only if the task's occupancy window fits the cell's time slots
//! and wash gaps ([`RoutingGrid::feasible`]), which makes the three conflict
//! classes of §II-C.2 unrepresentable in any returned path. The cost of a
//! path is its length plus the accumulated cell weights `w(i)` — wash times
//! of current residues — so the search prefers sharing cheap-to-wash
//! channels over breaking fresh ground, exactly the bias the paper uses to
//! shorten total channel length.
//!
//! Components expose several port cells (every routable cell adjacent to
//! their rectangle), so the search is multi-source / multi-target.
//! [`find_park`] searches for a remote parking cell between two such
//! sets with a two-sided Dijkstra that stops once the best park is fixed.

use crate::grid::RoutingGrid;
use mfb_model::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cost units per cell of path length. Weights are measured in ticks
/// (0.1 s), so with `LENGTH_COST = 10` one grid cell trades against one
/// second of wash time.
const LENGTH_COST: u64 = 10;

/// Extra cost for traversing a component's access ring
/// ([`RoutingGrid::is_ring`]). Keeps through-traffic away from ports so
/// transit paths do not wall components in with wash shadows; endpoints pay
/// it a constant number of times, so path comparisons are unaffected.
const RING_TAX: u64 = 3 * LENGTH_COST;

/// Search options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AstarOptions {
    /// Add the per-cell weights `w(i)` to the cost (Eq. (5)). Disable to get
    /// plain shortest-feasible-path search (used by the baseline router and
    /// the weight ablation).
    pub use_weights: bool,
}

impl Default for AstarOptions {
    fn default() -> Self {
        AstarOptions { use_weights: true }
    }
}

/// Search counters, accumulated across every query run on one
/// [`SearchScratch`]; the router emits them as `astar.*` trace counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Queries started ([`find_path`] + [`find_park`] calls).
    pub queries: u64,
    /// Heap pops that survived the stale-entry check and were expanded,
    /// in both A* and park searches.
    pub expansions: u64,
    /// Heap pushes.
    pub heap_pushes: u64,
    /// Parked-path window retries: banning iterations in
    /// `find_parked_path` after the first attempt.
    pub window_retries: u64,
    /// Rip-up-and-reroute evictions performed by the conflict-aware router
    /// (each blocker torn out of the grid counts once).
    pub rips: u64,
    /// [`find_park`] calls (remote-parking searches).
    pub park_searches: u64,
    /// The share of [`expansions`](Self::expansions) made by park searches.
    pub park_expansions: u64,
    /// Tasks the conflict-aware router realized through a remote park
    /// rather than a tail-parked path.
    pub parks_chosen: u64,
}

/// Reusable search arena: one per router, shared by every net.
///
/// All per-query state lives in flat arrays validated by a generation
/// stamp: starting a query bumps a `u32` epoch instead of
/// refilling, so starting a query is O(1) and a whole routing run performs
/// no per-net allocation once the arrays have grown to the grid size. The
/// heuristic and feasibility of a cell are each computed at most once per
/// query (they are pure within one query) and memoized under the same
/// epoch; the heuristic memo keeps the exact min-over-targets Manhattan
/// value — with a bounding-box lower bound used only to stop the target
/// scan early — so f-values, heap order and tie-breaking are bit-identical
/// to the historical per-expansion scan.
#[derive(Debug, Default)]
pub struct SearchScratch {
    epoch: u32,
    /// Stamp validating `dist`/`prev` for the current query.
    visit_stamp: Vec<u32>,
    dist: Vec<u64>,
    prev: Vec<Option<CellPos>>,
    /// Stamp marking target cells for the current query.
    target_stamp: Vec<u32>,
    /// Memoized heuristic (`h_stamp` validates `h_val`).
    h_stamp: Vec<u32>,
    h_val: Vec<u64>,
    /// Memoized feasibility (`feas_stamp` validates `feas_val`).
    feas_stamp: Vec<u32>,
    feas_val: Vec<bool>,
    /// Memoized per-cell step cost (`cost_stamp` validates `cost_val`) —
    /// constant within a query, and probed up to once per incoming edge.
    cost_stamp: Vec<u32>,
    cost_val: Vec<u64>,
    /// A* heap, cleared (not reallocated) between queries. Entries are
    /// `(f, g·2³² | y·2¹⁶ | x)` — see [`pack`].
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// The two directions of [`find_park`]: from the sources and from
    /// the targets.
    park_fwd: Sweep,
    park_bwd: Sweep,
    /// Execution budget polled every [`BUDGET_CHECK_MASK`]+1 expansions.
    /// `None` (the default, and any unlimited budget) skips the poll
    /// entirely, keeping the hot loop identical to the unbudgeted search.
    budget: Option<Budget>,
    /// Set when a query stopped at a budget checkpoint; the searches then
    /// return "no path" / partial maps and the router surfaces
    /// [`crate::error::RouteError::Interrupted`].
    interrupted: Option<BudgetExceeded>,
    /// Counters across all queries since construction.
    pub stats: SearchStats,
}

/// Budget poll cadence: every `BUDGET_CHECK_MASK + 1` expansions. A few
/// thousand expansions take well under a millisecond, so deadlines are
/// honored promptly while the per-expansion overhead stays one masked
/// compare.
const BUDGET_CHECK_MASK: u64 = 0xFFF;

impl SearchScratch {
    /// An empty arena; arrays grow on first use.
    #[must_use]
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// Installs an execution budget: subsequent queries poll it periodically
    /// and stop early when it trips (see
    /// [`interrupted`](Self::interrupted)). An unlimited budget uninstalls
    /// the poll. Clears any previous interrupt flag.
    pub fn set_budget(&mut self, budget: &Budget) {
        self.budget = if budget.is_unlimited() {
            None
        } else {
            Some(budget.clone())
        };
        self.interrupted = None;
    }

    /// Why the last query stopped early, if it did. The flag persists until
    /// the next [`set_budget`](Self::set_budget), so drivers can run a whole
    /// routing pass and ask once at the end.
    pub fn interrupted(&self) -> Option<BudgetExceeded> {
        self.interrupted
    }

    /// Polls the installed budget between queries (the in-query poll only
    /// fires every few thousand expansions, so cheap queries could otherwise
    /// outrun the deadline). Latches and returns the interrupt, if any.
    pub fn poll_budget(&mut self) -> Option<BudgetExceeded> {
        if self.interrupted.is_none() {
            if let Some(b) = &self.budget {
                if let Err(why) = b.check() {
                    self.interrupted = Some(why);
                }
            }
        }
        self.interrupted
    }

    /// Starts a query over `n` cells: grows the arrays if needed and bumps
    /// the epoch, invalidating every stamped entry at once.
    fn begin(&mut self, n: usize) {
        if self.visit_stamp.len() < n {
            self.visit_stamp.resize(n, 0);
            self.dist.resize(n, u64::MAX);
            self.prev.resize(n, None);
            self.target_stamp.resize(n, 0);
            self.h_stamp.resize(n, 0);
            self.h_val.resize(n, 0);
            self.feas_stamp.resize(n, 0);
            self.feas_val.resize(n, false);
            self.cost_stamp.resize(n, 0);
            self.cost_val.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: degrade gracefully by resetting every stamp.
            self.visit_stamp.fill(0);
            self.target_stamp.fill(0);
            self.h_stamp.fill(0);
            self.feas_stamp.fill(0);
            self.cost_stamp.fill(0);
            self.park_fwd.reset_stamps();
            self.park_bwd.reset_stamps();
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.heap.clear();
        self.stats.queries += 1;
    }
}

/// One direction of [`find_park`]: a Dijkstra sweep whose arrays are
/// validated by the owning [`SearchScratch`]'s epoch.
#[derive(Debug, Default)]
struct Sweep {
    /// Stamp validating `dist`/`prev`.
    visit_stamp: Vec<u32>,
    dist: Vec<u64>,
    prev: Vec<Option<CellPos>>,
    /// Stamp marking settled cells, whose `dist`/`prev` are final.
    settled: Vec<u32>,
    /// Memoized feasibility under this direction's window.
    feas_stamp: Vec<u32>,
    feas_val: Vec<bool>,
    /// Entries are [`pack`]ed.
    heap: BinaryHeap<Reverse<u64>>,
}

impl Sweep {
    /// Readies the sweep for a query over `n` cells: grows the arrays if
    /// needed and drops the previous query's heap.
    fn begin(&mut self, n: usize) {
        if self.visit_stamp.len() < n {
            self.visit_stamp.resize(n, 0);
            self.dist.resize(n, u64::MAX);
            self.prev.resize(n, None);
            self.settled.resize(n, 0);
            self.feas_stamp.resize(n, 0);
            self.feas_val.resize(n, false);
        }
        self.heap.clear();
    }

    /// Invalidates every stamp ([`SearchScratch::begin`] on epoch wrap).
    fn reset_stamps(&mut self) {
        self.visit_stamp.fill(0);
        self.settled.fill(0);
        self.feas_stamp.fill(0);
    }

    /// The cheapest open entry's key, if its `g` is at most `limit`.
    fn open_below(&self, limit: u64) -> Option<u64> {
        self.heap
            .peek()
            .map(|&Reverse(key)| key)
            .filter(|&key| key >> 32 <= limit)
    }

    /// The predecessor chain of `cell`, `cell` itself excluded.
    fn chain(&self, spec: GridSpec, mut cell: CellPos) -> Vec<CellPos> {
        let mut cells = Vec::new();
        while let Some(p) = self.prev[spec.index(cell)] {
            cells.push(p);
            cell = p;
        }
        cells
    }
}

/// The cost of stepping onto `cell`: one length unit, the ring tax, and
/// the wash weight when `options` asks for it.
fn step_cost(grid: &RoutingGrid, cell: CellPos, options: AstarOptions) -> u64 {
    LENGTH_COST
        + if grid.is_ring(cell) { RING_TAX } else { 0 }
        + if options.use_weights {
            grid.weight(cell).as_ticks()
        } else {
            0
        }
}

/// Packs `(g, y, x)` into one `u64` whose natural order **is** the
/// `(g, y, x)` lexicographic order of the historical heap tuples: `g` is
/// bounded by grid area times the per-cell cost (≪ 2³²) and coordinates by
/// the grid dimensions (≪ 2¹⁶), so the fields never carry.
#[inline]
fn pack(g: u64, cell: CellPos) -> u64 {
    debug_assert!(g < 1 << 32 && cell.x < 1 << 16 && cell.y < 1 << 16);
    (g << 32) | u64::from(cell.y) << 16 | u64::from(cell.x)
}

/// Inverse of [`pack`].
#[inline]
fn unpack(key: u64) -> (u64, CellPos) {
    (
        key >> 32,
        CellPos::new((key & 0xFFFF) as u32, ((key >> 16) & 0xFFFF) as u32),
    )
}

/// Finds a feasible path from any cell of `sources` to any cell of
/// `targets`, for a fluid occupying each visited cell during
/// `window_of(cell)`, on the caller-owned search arena `scratch`
/// (allocation-free once the arena has grown to the grid).
///
/// The per-cell window lets callers model *where the fluid parks*: cells
/// near the destination carry the full transport-plus-cache window, cells
/// merely passed through carry only the transport window (see
/// [`crate::router::RouterConfig::plug_cells`]).
///
/// Returns the cell sequence (source first), or `None` when no feasible
/// path exists. Source and target sets may intersect; the path then is a
/// single cell.
#[allow(clippy::too_many_arguments)]
pub fn find_path(
    scratch: &mut SearchScratch,
    grid: &RoutingGrid,
    sources: &[CellPos],
    targets: &[CellPos],
    window_of: impl Fn(CellPos) -> Interval + Copy,
    fluid: OpId,
    wash_of: impl Fn(OpId) -> Duration + Copy,
    options: AstarOptions,
) -> Option<Vec<CellPos>> {
    if sources.is_empty() || targets.is_empty() {
        return None;
    }
    let spec = grid.spec();
    // Every target off the grid: unreachable, and the historical search
    // would only have exhausted the heap to conclude the same.
    if !targets.iter().any(|&t| spec.contains(t)) {
        return None;
    }
    let n = spec.cell_count() as usize;
    scratch.begin(n);
    let SearchScratch {
        epoch,
        visit_stamp,
        dist,
        prev,
        target_stamp,
        h_stamp,
        h_val,
        feas_stamp,
        feas_val,
        cost_stamp,
        cost_val,
        heap,
        budget,
        interrupted,
        stats,
        ..
    } = scratch;
    let epoch = *epoch;
    for &t in targets {
        if spec.contains(t) {
            target_stamp[spec.index(t)] = epoch;
        }
    }
    // Bounding box over *all* targets (off-grid included — they shape the
    // historical heuristic too): a lower bound that lets the memoized exact
    // min-over-targets scan stop early without changing its value.
    let bx0 = targets.iter().map(|t| t.x).min().unwrap_or(0);
    let bx1 = targets.iter().map(|t| t.x).max().unwrap_or(0);
    let by0 = targets.iter().map(|t| t.y).min().unwrap_or(0);
    let by1 = targets.iter().map(|t| t.y).max().unwrap_or(0);

    let mut h = |cell: CellPos, idx: usize| -> u64 {
        if h_stamp[idx] == epoch {
            return h_val[idx];
        }
        let dx = u64::from(cell.x.clamp(bx0, bx1).abs_diff(cell.x));
        let dy = u64::from(cell.y.clamp(by0, by1).abs_diff(cell.y));
        let bound = dx + dy;
        let mut min = u64::MAX;
        for &t in targets {
            min = min.min(u64::from(cell.manhattan(t)));
            if min == bound {
                break; // cannot get below the bounding-box distance
            }
        }
        let v = min * LENGTH_COST;
        h_stamp[idx] = epoch;
        h_val[idx] = v;
        v
    };
    let mut cell_cost = |cell: CellPos, idx: usize| -> u64 {
        if cost_stamp[idx] == epoch {
            return cost_val[idx];
        }
        let c = step_cost(grid, cell, options);
        cost_stamp[idx] = epoch;
        cost_val[idx] = c;
        c
    };
    let mut feasible = |cell: CellPos, idx: usize| -> bool {
        if feas_stamp[idx] == epoch {
            return feas_val[idx];
        }
        let f = grid.feasible(cell, window_of(cell), fluid, wash_of);
        feas_stamp[idx] = epoch;
        feas_val[idx] = f;
        f
    };

    for &s in sources {
        let idx = spec.index(s);
        if !feasible(s, idx) {
            continue;
        }
        let g = cell_cost(s, idx);
        let known = if visit_stamp[idx] == epoch {
            dist[idx]
        } else {
            u64::MAX
        };
        if g < known {
            visit_stamp[idx] = epoch;
            dist[idx] = g;
            prev[idx] = None;
            heap.push(Reverse((g + h(s, idx), pack(g, s))));
            stats.heap_pushes += 1;
        }
    }

    while let Some(Reverse((_, key))) = heap.pop() {
        let (g, cell) = unpack(key);
        let idx = spec.index(cell);
        if g > dist[idx] {
            continue; // stale entry — the cell was finalized cheaper
        }
        stats.expansions += 1;
        if stats.expansions & BUDGET_CHECK_MASK == 0 {
            if let Some(b) = budget {
                if let Err(why) = b.check() {
                    *interrupted = Some(why);
                    return None;
                }
            }
        }
        if target_stamp[idx] == epoch {
            // Reconstruct.
            let mut path = vec![cell];
            let mut cur = cell;
            while let Some(p) = prev[spec.index(cur)] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for nb in cell.neighbours(spec.width, spec.height) {
            let nidx = spec.index(nb);
            // Cost test first: it is cheap, and a cell that cannot improve
            // was either never feasible (dist = MAX, test passes) or
            // already relaxed cheaper — skipping the feasibility probe and
            // the heap push either way is outcome-identical.
            let ng = g + cell_cost(nb, nidx);
            let known = if visit_stamp[nidx] == epoch {
                dist[nidx]
            } else {
                u64::MAX
            };
            if ng >= known || !feasible(nb, nidx) {
                continue;
            }
            visit_stamp[nidx] = epoch;
            dist[nidx] = ng;
            prev[nidx] = Some(cell);
            heap.push(Reverse((ng + h(nb, nidx), pack(ng, nb))));
            stats.heap_pushes += 1;
        }
    }
    None
}

/// A parking cell and the two legs through it, found by
/// [`find_park`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Park {
    /// The cell where the plug dwells.
    pub cell: CellPos,
    /// The outbound leg: a source cell first, [`cell`](Self::cell) last.
    pub leg1: Vec<CellPos>,
    /// The return leg after [`cell`](Self::cell), ending on a target cell
    /// (empty when the park is itself a target).
    pub leg2: Vec<CellPos>,
}

/// Finds the cheapest parking cell between `sources` and `targets`.
///
/// Let `d1(c)` be the Dijkstra cost from the sources to `c` over cells
/// feasible for window `leg1`, and `d2(c)` the cost from the targets over
/// cells feasible for `leg2`; both count `c` itself. The park is the cell
/// accepted by `can_park` that minimizes `(d1 + d2, y, x)` — the first
/// strict minimum of a row-major scan over two full Dijkstra maps — and
/// the legs are the two predecessor chains through it. `None` when no
/// reachable cell is accepted, or when the budget trips.
///
/// Both directions run at once, each step advancing the one whose heap
/// top is smaller. Let `μ` be the cost of the best park so far. A cell
/// not yet settled in one direction costs at least that heap's top `g`
/// there and at least `LENGTH_COST` in the other, so a direction stops
/// once `g + LENGTH_COST > μ`: every cell of cost ≤ `μ` — ties included —
/// is then settled in both directions and has been offered to `can_park`.
/// Each direction pops exactly a prefix of its full sweep, and Dijkstra
/// fixes a cell's predecessor when it settles the cell; every cell on a
/// leg is settled before the park it leads to, so the legs equal those of
/// the full maps. Without any park `μ` stays infinite and both directions
/// sweep every reachable cell.
#[allow(clippy::too_many_arguments)]
pub fn find_park(
    scratch: &mut SearchScratch,
    grid: &RoutingGrid,
    sources: &[CellPos],
    targets: &[CellPos],
    leg1: Interval,
    leg2: Interval,
    fluid: OpId,
    wash_of: impl Fn(OpId) -> Duration + Copy,
    options: AstarOptions,
    can_park: impl Fn(CellPos) -> bool,
) -> Option<Park> {
    let spec = grid.spec();
    let n = spec.cell_count() as usize;
    scratch.begin(n);
    scratch.park_fwd.begin(n);
    scratch.park_bwd.begin(n);
    let SearchScratch {
        epoch,
        cost_stamp,
        cost_val,
        park_fwd: fwd,
        park_bwd: bwd,
        budget,
        interrupted,
        stats,
        ..
    } = scratch;
    let epoch = *epoch;
    stats.park_searches += 1;
    let mut cell_cost = |cell: CellPos, idx: usize| -> u64 {
        if cost_stamp[idx] != epoch {
            cost_stamp[idx] = epoch;
            cost_val[idx] = step_cost(grid, cell, options);
        }
        cost_val[idx]
    };
    let feasible = |sweep: &mut Sweep, window: Interval, cell: CellPos, idx: usize| -> bool {
        if sweep.feas_stamp[idx] != epoch {
            sweep.feas_stamp[idx] = epoch;
            sweep.feas_val[idx] = grid.feasible(cell, window, fluid, wash_of);
        }
        sweep.feas_val[idx]
    };

    for (sweep, seeds, window) in [(&mut *fwd, sources, leg1), (&mut *bwd, targets, leg2)] {
        for &s in seeds {
            let idx = spec.index(s);
            if !feasible(sweep, window, s, idx) {
                continue;
            }
            let g = cell_cost(s, idx);
            if sweep.visit_stamp[idx] == epoch && g >= sweep.dist[idx] {
                continue;
            }
            sweep.visit_stamp[idx] = epoch;
            sweep.dist[idx] = g;
            sweep.prev[idx] = None;
            sweep.heap.push(Reverse(pack(g, s)));
            stats.heap_pushes += 1;
        }
    }

    // Best park so far as `(d1 + d2, y, x)`.
    let mut best: Option<(u64, u32, u32)> = None;
    loop {
        let limit = best.map_or(u64::MAX, |(mu, ..)| mu.saturating_sub(LENGTH_COST));
        let forward = match (fwd.open_below(limit), bwd.open_below(limit)) {
            (None, None) => break,
            (Some(f), Some(b)) => f <= b,
            (f, _) => f.is_some(),
        };
        let (this, other, window) = if forward {
            (&mut *fwd, &*bwd, leg1)
        } else {
            (&mut *bwd, &*fwd, leg2)
        };
        let Some(Reverse(key)) = this.heap.pop() else {
            break;
        };
        let (g, cell) = unpack(key);
        let idx = spec.index(cell);
        if g > this.dist[idx] {
            continue; // stale entry — the cell was settled cheaper
        }
        this.settled[idx] = epoch;
        stats.expansions += 1;
        stats.park_expansions += 1;
        if stats.expansions & BUDGET_CHECK_MASK == 0 {
            if let Some(b) = budget {
                if let Err(why) = b.check() {
                    *interrupted = Some(why);
                    return None;
                }
            }
        }
        if other.settled[idx] == epoch && can_park(cell) {
            let candidate = (g + other.dist[idx], cell.y, cell.x);
            if best.map_or(true, |b| candidate < b) {
                best = Some(candidate);
            }
        }
        for nb in cell.neighbours(spec.width, spec.height) {
            let nidx = spec.index(nb);
            let ng = g + cell_cost(nb, nidx);
            if this.visit_stamp[nidx] == epoch && ng >= this.dist[nidx] {
                continue;
            }
            if !feasible(this, window, nb, nidx) {
                continue;
            }
            this.visit_stamp[nidx] = epoch;
            this.dist[nidx] = ng;
            this.prev[nidx] = Some(cell);
            this.heap.push(Reverse(pack(ng, nb)));
            stats.heap_pushes += 1;
        }
    }

    let (_, y, x) = best?;
    let cell = CellPos::new(x, y);
    let mut leg1 = fwd.chain(spec, cell);
    leg1.reverse();
    leg1.push(cell);
    Some(Park {
        cell,
        leg1,
        leg2: bwd.chain(spec, cell),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfb_place::prelude::Placement;

    fn wash2(_: OpId) -> Duration {
        Duration::from_secs(2)
    }

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(Instant::from_secs(a), Instant::from_secs(b))
    }

    fn open_grid() -> RoutingGrid {
        let p = Placement::new(GridSpec::square(10), vec![]);
        RoutingGrid::new(&p, Duration::from_secs(10), &DefectMap::pristine())
    }

    #[test]
    fn straight_line_on_empty_grid() {
        let g = open_grid();
        let path = find_path(
            &mut SearchScratch::new(),
            &g,
            &[CellPos::new(0, 5)],
            &[CellPos::new(9, 5)],
            |_| iv(0, 10),
            OpId::new(0),
            wash2,
            AstarOptions::default(),
        )
        .unwrap();
        assert_eq!(path.len(), 10);
        assert_eq!(path[0], CellPos::new(0, 5));
        assert_eq!(path[9], CellPos::new(9, 5));
        // Consecutive cells are neighbours.
        for w in path.windows(2) {
            assert_eq!(w[0].manhattan(w[1]), 1);
        }
    }

    #[test]
    fn single_cell_when_source_is_target() {
        let g = open_grid();
        let path = find_path(
            &mut SearchScratch::new(),
            &g,
            &[CellPos::new(3, 3)],
            &[CellPos::new(3, 3)],
            |_| iv(0, 5),
            OpId::new(0),
            wash2,
            AstarOptions::default(),
        )
        .unwrap();
        assert_eq!(path, vec![CellPos::new(3, 3)]);
    }

    #[test]
    fn routes_around_components() {
        // A wall of component cells with one gap.
        let p = Placement::new(
            GridSpec::square(10),
            vec![
                CellRect::new(CellPos::new(4, 0), 2, 4),
                CellRect::new(CellPos::new(4, 5), 2, 5),
            ],
        );
        let g = RoutingGrid::new(&p, Duration::from_secs(10), &DefectMap::pristine());
        let path = find_path(
            &mut SearchScratch::new(),
            &g,
            &[CellPos::new(0, 0)],
            &[CellPos::new(9, 0)],
            |_| iv(0, 10),
            OpId::new(0),
            wash2,
            AstarOptions::default(),
        )
        .unwrap();
        // Must pass through the gap row y = 4.
        assert!(path.contains(&CellPos::new(4, 4)) && path.contains(&CellPos::new(5, 4)));
    }

    #[test]
    fn avoids_time_conflicts() {
        let mut g = open_grid();
        // Reserve the entire middle column for an overlapping window.
        for y in 0..10 {
            g.reserve(
                CellPos::new(5, y),
                TaskId::new(0),
                OpId::new(7),
                iv(0, 100),
                wash2,
            );
        }
        let path = find_path(
            &mut SearchScratch::new(),
            &g,
            &[CellPos::new(0, 5)],
            &[CellPos::new(9, 5)],
            |_| iv(0, 10),
            OpId::new(1),
            wash2,
            AstarOptions::default(),
        );
        assert!(path.is_none(), "column blocks every crossing");

        // A later window clears the wash gap (100 + 2 s) and is feasible.
        let later = find_path(
            &mut SearchScratch::new(),
            &g,
            &[CellPos::new(0, 5)],
            &[CellPos::new(9, 5)],
            |_| iv(102, 110),
            OpId::new(1),
            wash2,
            AstarOptions::default(),
        );
        assert!(later.is_some());
    }

    #[test]
    fn weights_attract_reuse() {
        let mut g = open_grid();
        // A previously-routed straight channel with cheap residue (2 s wash
        // vs w_e = 10 s): rerouting the same endpoints later should ride it.
        let fluid = OpId::new(0);
        for x in 0..10 {
            g.reserve(CellPos::new(x, 5), TaskId::new(0), fluid, iv(0, 5), wash2);
        }
        let path = find_path(
            &mut SearchScratch::new(),
            &g,
            &[CellPos::new(0, 5)],
            &[CellPos::new(9, 5)],
            |_| iv(10, 20),
            OpId::new(1),
            wash2,
            AstarOptions::default(),
        )
        .unwrap();
        assert!(
            path.iter().all(|c| c.y == 5),
            "expected the washed channel to be reused: {path:?}"
        );
    }

    #[test]
    fn without_weights_any_shortest_path_wins() {
        let g = open_grid();
        let path = find_path(
            &mut SearchScratch::new(),
            &g,
            &[CellPos::new(0, 0)],
            &[CellPos::new(3, 3)],
            |_| iv(0, 5),
            OpId::new(0),
            wash2,
            AstarOptions { use_weights: false },
        )
        .unwrap();
        assert_eq!(path.len(), 7); // manhattan 6 + start cell
    }

    #[test]
    fn multi_target_prefers_nearest() {
        let g = open_grid();
        let path = find_path(
            &mut SearchScratch::new(),
            &g,
            &[CellPos::new(0, 0)],
            &[CellPos::new(9, 9), CellPos::new(2, 0)],
            |_| iv(0, 5),
            OpId::new(0),
            wash2,
            AstarOptions::default(),
        )
        .unwrap();
        assert_eq!(*path.last().unwrap(), CellPos::new(2, 0));
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn empty_sets_yield_none() {
        let g = open_grid();
        assert!(find_path(
            &mut SearchScratch::new(),
            &g,
            &[],
            &[CellPos::new(1, 1)],
            |_| iv(0, 5),
            OpId::new(0),
            wash2,
            AstarOptions::default()
        )
        .is_none());
        assert!(find_path(
            &mut SearchScratch::new(),
            &g,
            &[CellPos::new(1, 1)],
            &[],
            |_| iv(0, 5),
            OpId::new(0),
            wash2,
            AstarOptions::default()
        )
        .is_none());
    }
}
