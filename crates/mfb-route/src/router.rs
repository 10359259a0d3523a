//! The paper's transportation-conflict-aware router (Algorithm 2, lines
//! 9–18) and the routing result type shared with the baseline.
//!
//! Transport tasks are routed one by one in non-decreasing start-time order.
//! Each task reserves its whole occupancy window — transport **plus channel
//! cache dwell** — on every cell of its path, so later searches simply
//! cannot produce any of the three conflict classes of §II-C.2. After each
//! task, cell weights become the wash time of the residue just deposited
//! (Fig. 7), steering subsequent tasks onto cheap-to-wash shared channels.

use crate::astar::{find_park_with, find_path_with, AstarOptions, SearchScratch};
use crate::error::RouteError;
use crate::grid::{ChannelWash, RoutingGrid};
use mfb_model::prelude::*;
use mfb_place::prelude::Placement;
use mfb_sched::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Router configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Initial cell weight `w_e` (paper default 10 s).
    pub w_e: Duration,
    /// Update cell weights to residue wash times after each task (Fig. 7).
    /// Disable for the weight ablation: cells keep the constant `w_e` and
    /// the router loses its channel-sharing bias.
    pub wash_aware_weights: bool,
    /// Length of a cached fluid plug, in cells. The **last `plug_cells`
    /// cells of each path** — the segment where the fluid physically parks
    /// while cached — stay occupied for the whole transport-plus-cache
    /// window; cells merely passed through are occupied for the transport
    /// leg only. Values below 1 are treated as 1.
    pub plug_cells: u32,
}

impl RouterConfig {
    /// The paper's configuration: `w_e = 10 s`, wash-aware weights on,
    /// plug length 1 cell (a 10 mm grid cell comfortably holds a sample plug).
    pub fn paper() -> Self {
        RouterConfig {
            w_e: Duration::from_secs(10),
            wash_aware_weights: true,
            plug_cells: 1,
        }
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig::paper()
    }
}

/// One routed transport task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedPath {
    /// The task.
    pub task: TaskId,
    /// The fluid it carries.
    pub fluid: OpId,
    /// Path cells, source port first. A single cell for transports that
    /// start and end at the same component (fluid parked in the adjacent
    /// channel).
    pub cells: Vec<CellPos>,
    /// The *realized* occupancy window reserved on each path cell (parallel
    /// to [`cells`](Self::cells)): the full transport-plus-cache window on
    /// the parking segment near the destination, the transport leg
    /// elsewhere, shifted by any correction delay.
    pub windows: Vec<Interval>,
}

impl RoutedPath {
    /// Path length in cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` for an empty path (never produced by the routers).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over `(cell, occupancy window)` pairs.
    pub fn occupancies(&self) -> impl Iterator<Item = (CellPos, Interval)> + '_ {
        self.cells.iter().copied().zip(self.windows.iter().copied())
    }

    /// The hull of all per-cell windows (the task's total on-chip lifetime).
    pub fn window_hull(&self) -> Interval {
        self.windows
            .iter()
            .copied()
            .reduce(|a, b| a.hull(b))
            .unwrap_or(Interval::empty_at(Instant::ZERO))
    }

    /// `true` when `self` and `other` occupy some shared cell at
    /// overlapping times — a transportation conflict. Aliquots of the same
    /// fluid never conflict (one plug splitting at a junction).
    pub fn conflicts_with(&self, other: &RoutedPath) -> bool {
        self.fluid != other.fluid
            && self.occupancies().any(|(c1, w1)| {
                other
                    .occupancies()
                    .any(|(c2, w2)| c1 == c2 && w1.overlaps(w2))
            })
    }
}

/// Realized operation times after routing: the scheduled times shifted by
/// whatever postponements the router had to introduce. The paper's router
/// introduces none; the baseline's construction-by-correction may.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealizedTimes {
    /// Realized start per operation (indexed by `OpId`).
    pub start: Vec<Instant>,
    /// Realized end per operation (indexed by `OpId`).
    pub end: Vec<Instant>,
}

impl RealizedTimes {
    /// Times exactly as scheduled (zero delay).
    pub fn from_schedule(schedule: &Schedule) -> Self {
        RealizedTimes {
            start: schedule.ops().map(|s| s.start).collect(),
            end: schedule.ops().map(|s| s.end).collect(),
        }
    }

    /// Realized assay completion time.
    pub fn completion(&self) -> Instant {
        self.end.iter().copied().max().unwrap_or(Instant::ZERO)
    }

    /// Delay of operation `op` versus `schedule`.
    pub fn delay_of(&self, schedule: &Schedule, op: OpId) -> Duration {
        self.end[op.index()].saturating_duration_since(schedule.op(op).end)
    }
}

/// A complete routing solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Routing {
    /// Routed paths, indexed by `TaskId`.
    pub paths: Vec<RoutedPath>,
    /// Channel washes incurred (Fig. 9's metric is their summed duration).
    pub channel_washes: Vec<ChannelWash>,
    /// Realized operation times (identical to the schedule for the paper's
    /// router; possibly delayed for the baseline).
    pub realized: RealizedTimes,
    /// The grid geometry routed on.
    pub grid: GridSpec,
    /// Number of distinct cells used by any path.
    pub used_cells: usize,
}

impl Routing {
    /// Table I's *total channel length*: distinct channel cells times the
    /// physical cell pitch, in millimetres.
    pub fn total_channel_length_mm(&self) -> f64 {
        self.grid.cells_to_mm(self.used_cells as u64)
    }

    /// Fig. 9's *total wash time of flow channels*.
    pub fn total_channel_wash_time(&self) -> Duration {
        self.channel_washes.iter().map(|w| w.duration).sum()
    }

    /// Total *realized* channel-cache time: per task, its on-chip lifetime
    /// (window hull) minus one transport leg — the Fig. 8 quantity under
    /// the realized windows.
    pub fn total_realized_cache_time(&self, t_c: Duration) -> Duration {
        self.paths
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| p.window_hull().length().saturating_sub(t_c))
            .sum()
    }

    /// Summed path length over all tasks, in cells (counts shared cells once
    /// per use; compare with [`Routing::used_cells`] for sharing).
    pub fn total_path_cells(&self) -> usize {
        self.paths.iter().map(RoutedPath::len).sum()
    }

    /// The realized assay completion time.
    pub fn completion(&self) -> Instant {
        self.realized.completion()
    }

    /// Total routing-induced delay across operations versus `schedule`.
    pub fn total_delay(&self, schedule: &Schedule) -> Duration {
        schedule
            .ops()
            .map(|s| self.realized.delay_of(schedule, s.op))
            .sum()
    }
}

impl fmt::Display for Routing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "routing({} paths, {} cells, {:.0} mm, wash {})",
            self.paths.len(),
            self.used_cells,
            self.total_channel_length_mm(),
            self.total_channel_wash_time()
        )
    }
}

/// Finds a path whose **tail** (the last `plug_cells` cells, where the
/// cached fluid parks) is feasible for the full transport-plus-cache window
/// `full`, while the rest of the path only needs the transport leg
/// `transport`.
///
/// Strategy: search with transport windows, then verify the tail under the
/// full window; any tail cell that cannot host the parked plug is *banned*
/// (it must satisfy the full window in subsequent searches), and the search
/// repeats. Returns the path and its per-cell windows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn find_parked_path(
    scratch: &mut SearchScratch,
    grid: &RoutingGrid,
    sources: &[CellPos],
    targets: &[CellPos],
    transport: Interval,
    full: Interval,
    plug_cells: u32,
    fluid: OpId,
    wash_of: impl Fn(OpId) -> Duration + Copy,
    options: AstarOptions,
) -> Option<(Vec<CellPos>, Vec<Interval>)> {
    let mut banned: std::collections::BTreeSet<CellPos> = std::collections::BTreeSet::new();
    let mut previous: Option<Vec<CellPos>> = None;
    // Each failed attempt normally bans a new cell; when banning cannot
    // change the search (a foreign-ring cell that is full-window feasible),
    // the repeated path is detected and the search gives up. 256 bounds
    // the loop on practical grids either way.
    for attempt in 0..256 {
        if attempt > 0 {
            scratch.stats.window_retries += 1;
        }
        let window_of = |c: CellPos| {
            if banned.contains(&c) {
                full
            } else {
                transport
            }
        };
        let path = find_path_with(
            scratch, grid, sources, targets, window_of, fluid, wash_of, options,
        )?;
        if previous.as_deref() == Some(path.as_slice()) {
            return None; // banning made no progress
        }
        let k = (plug_cells.max(1) as usize).min(path.len());
        let tail_start = path.len() - k;
        let mut ok = true;
        for &c in &path[tail_start..] {
            // Plugs may not park on a foreign component's access ring —
            // a long-cached plug there would wall that component in.
            let foreign_ring = grid.is_ring(c) && !targets.contains(&c) && !sources.contains(&c);
            if foreign_ring || !grid.feasible(c, full, fluid, wash_of) {
                banned.insert(c);
                ok = false;
            }
        }
        if ok {
            let windows = (0..path.len())
                .map(|i| if i >= tail_start { full } else { transport })
                .collect();
            return Some((path, windows));
        }
        previous = Some(path);
    }
    None
}

/// Remote-parking fallback: when no path can host the cached plug on its
/// tail next to the destination, the fluid instead transits to a **free
/// parking cell anywhere on the chip** (this is the "distributed channel
/// storage" the architecture is named for), dwells there for the cache
/// period, and makes a final approach to the destination just before
/// consumption.
///
/// Reservations: the outbound leg holds its cells for the transport window,
/// the parking cell holds `[depart, consumed)`, and the return leg holds
/// `[consumed - t_c, consumed)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn find_remote_parking(
    scratch: &mut SearchScratch,
    grid: &RoutingGrid,
    sources: &[CellPos],
    targets: &[CellPos],
    transport: Interval,
    full: Interval,
    fluid: OpId,
    wash_of: impl Fn(OpId) -> Duration + Copy,
    options: AstarOptions,
) -> Option<(Vec<CellPos>, Vec<Interval>)> {
    let t_c = transport.length();
    let leg2 = Interval::new(full.end.max(Instant::ZERO + t_c) - t_c, full.end);
    // No parking on a foreign component's access ring, and the park must
    // be free for the full stay.
    let can_park = |cell: CellPos| {
        !(grid.is_ring(cell) && !targets.contains(&cell) && !sources.contains(&cell))
            && grid.feasible(cell, full, fluid, wash_of)
    };
    let park = find_park_with(
        scratch, grid, sources, targets, transport, leg2, fluid, wash_of, options, can_park,
    )?;
    let windows = park
        .leg1
        .iter()
        .map(|&c| if c == park.cell { full } else { transport })
        .chain(park.leg2.iter().map(|_| leg2))
        .collect();
    let mut cells = park.leg1;
    cells.extend(park.leg2);
    Some((cells, windows))
}

/// All routable port cells of component `c`: cells orthogonally adjacent to
/// its rectangle that are on the grid and not inside another component.
pub fn ports(placement: &Placement, grid: &RoutingGrid, c: ComponentId) -> Vec<CellPos> {
    let rect = placement.rect(c);
    let spec = placement.grid();
    let (x2, y2) = rect.upper_right();
    let mut cells = Vec::new();
    for x in rect.origin.x..x2 {
        if rect.origin.y > 0 {
            cells.push(CellPos::new(x, rect.origin.y - 1));
        }
        if y2 < spec.height {
            cells.push(CellPos::new(x, y2));
        }
    }
    for y in rect.origin.y..y2 {
        if rect.origin.x > 0 {
            cells.push(CellPos::new(rect.origin.x - 1, y));
        }
        if x2 < spec.width {
            cells.push(CellPos::new(x2, y));
        }
    }
    cells.retain(|&p| grid.is_routable(p));
    cells
}

/// Routes every transport task of `schedule` with the paper's
/// conflict-aware weighted A*, in non-decreasing start-time order.
///
/// The returned routing has **zero** realized delay: all reservations use
/// the scheduled windows, and feasibility is guaranteed cell-by-cell, so
/// the scheduled times are achievable on the physical layout.
///
/// # Errors
///
/// [`RouteError::Unroutable`] when some task admits no conflict-free path
/// (the grid is too congested — retry on a larger grid);
/// [`RouteError::NoPorts`] when a component is walled in.
pub fn route_dcsa(
    schedule: &Schedule,
    graph: &SequencingGraph,
    placement: &Placement,
    wash: &dyn WashModel,
    config: &RouterConfig,
) -> Result<Routing, RouteError> {
    route_dcsa_budgeted(
        schedule,
        graph,
        placement,
        wash,
        config,
        &DefectMap::pristine(),
        &Budget::unlimited(),
    )
}

/// The full form of [`route_dcsa`]: a possibly damaged chip and an
/// execution [`Budget`].
///
/// * **Defects** — blocked cells of `defects` are permanently occupied
///   (∞ cost) for the time-windowed A*, so no path — transport, parking
///   or rip-up reference — ever crosses one, and degraded cells pay their
///   extra weight in Eq. (5).
/// * **Search arena** — the call owns one [`SearchScratch`] for every
///   query it makes; the arena's [`crate::astar::SearchStats`] totals
///   become the `astar.*` and `route.*` trace counters.
/// * **Budget** — installed on the arena and polled per
///   routed task plus every few thousand A* expansions, so a tripped
///   deadline or cancellation surfaces as [`RouteError::Interrupted`]
///   within milliseconds instead of after the full pass. An unlimited
///   budget leaves the search bit-identical.
///
/// # Errors
///
/// Same as [`route_dcsa`] (a chip whose defects sever every corridor
/// surfaces as [`RouteError::Unroutable`] or [`RouteError::NoPorts`]),
/// plus [`RouteError::Interrupted`].
pub fn route_dcsa_budgeted(
    schedule: &Schedule,
    graph: &SequencingGraph,
    placement: &Placement,
    wash: &dyn WashModel,
    config: &RouterConfig,
    defects: &DefectMap,
    budget: &Budget,
) -> Result<Routing, RouteError> {
    let _span = mfb_obs::obs_span!("route.dcsa", tasks = schedule.transports().len() as u64);
    let mut scratch = SearchScratch::new();
    scratch.set_budget(budget);
    let result = route_dcsa_orderings(
        schedule,
        graph,
        placement,
        wash,
        config,
        defects,
        &mut scratch,
    );
    if mfb_obs::enabled() {
        let d = scratch.stats;
        mfb_obs::obs_counter!("route.rips", d.rips);
        mfb_obs::obs_counter!("astar.queries", d.queries);
        mfb_obs::obs_counter!("astar.expansions", d.expansions);
        mfb_obs::obs_counter!("astar.heap_pushes", d.heap_pushes);
        mfb_obs::obs_counter!("route.window_retries", d.window_retries);
        mfb_obs::obs_counter!("route.park_searches", d.park_searches);
        mfb_obs::obs_counter!("route.park_expansions", d.park_expansions);
        mfb_obs::obs_counter!("route.parks_chosen", d.parks_chosen);
    }
    result
}

/// The two-ordering routing strategy behind [`route_dcsa_budgeted`].
#[allow(clippy::too_many_arguments)]
fn route_dcsa_orderings(
    schedule: &Schedule,
    graph: &SequencingGraph,
    placement: &Placement,
    wash: &dyn WashModel,
    config: &RouterConfig,
    defects: &DefectMap,
    scratch: &mut SearchScratch,
) -> Result<Routing, RouteError> {
    // Routing order matters: the paper's start-time order is tried first;
    // if some task cannot be realized, a second pass routes the
    // longest-occupancy tasks first — hard-to-place cached plugs claim
    // parking early, and short flexible transports thread around them.
    let mut by_start: Vec<&TransportTask> = schedule.transports().collect();
    by_start.sort_by_key(|t| (t.depart, t.id));
    let first = route_dcsa_ordered(
        schedule, graph, placement, wash, config, &by_start, defects, scratch,
    );
    // Success — or a budget interrupt, which a different ordering cannot
    // outrun — ends the pass immediately.
    if matches!(first, Ok(_) | Err(RouteError::Interrupted(_))) {
        return first;
    }
    let mut by_occupancy: Vec<&TransportTask> = schedule.transports().collect();
    by_occupancy.sort_by_key(|t| (std::cmp::Reverse(t.occupancy().length()), t.depart, t.id));
    route_dcsa_ordered(
        schedule,
        graph,
        placement,
        wash,
        config,
        &by_occupancy,
        defects,
        scratch,
    )
    .or(first)
}

#[allow(clippy::too_many_arguments)]
fn route_dcsa_ordered(
    schedule: &Schedule,
    graph: &SequencingGraph,
    placement: &Placement,
    wash: &dyn WashModel,
    config: &RouterConfig,
    order: &[&TransportTask],
    defects: &DefectMap,
    scratch: &mut SearchScratch,
) -> Result<Routing, RouteError> {
    let mut grid = RoutingGrid::new_with_defects(placement, config.w_e, defects);
    let wash_of = |op: OpId| wash.wash_time(graph.op(op).output_diffusion());
    let options = AstarOptions {
        use_weights: config.wash_aware_weights,
    };

    // Rip-up-and-reroute bookkeeping: when a task cannot be realized, the
    // tasks whose reservations block its corridor are torn out and re-routed
    // after it. Each task may be ripped a bounded number of times, so the
    // loop terminates.
    const MAX_RIPS_PER_TASK: u32 = 3;
    let mut rip_count = vec![0u32; schedule.transports().len()];
    let mut queue: std::collections::VecDeque<&TransportTask> = order.iter().copied().collect();

    let mut paths: Vec<Option<RoutedPath>> = vec![None; schedule.transports().len()];
    while let Some(t) = queue.pop_front() {
        if let Some(why) = scratch.poll_budget() {
            return Err(RouteError::Interrupted(why));
        }
        let src_ports = ports(placement, &grid, t.src);
        if src_ports.is_empty() {
            return Err(RouteError::NoPorts { component: t.src });
        }
        let dst_ports = ports(placement, &grid, t.dst);
        if dst_ports.is_empty() {
            return Err(RouteError::NoPorts { component: t.dst });
        }
        match route_one(
            scratch, &grid, schedule, t, &src_ports, &dst_ports, config, wash_of, options,
        ) {
            Some((cells, windows)) => {
                for (&cell, &window) in cells.iter().zip(&windows) {
                    grid.reserve(cell, t.id, t.fluid, window, wash_of);
                }
                paths[t.id.index()] = Some(RoutedPath {
                    task: t.id,
                    fluid: t.fluid,
                    cells,
                    windows,
                });
            }
            None => {
                // A search that stopped at a budget checkpoint returns the
                // same `None` as a genuinely blocked task; the interrupt
                // flag disambiguates.
                if let Some(why) = scratch.interrupted() {
                    return Err(RouteError::Interrupted(why));
                }
                // Identify blockers along an unconstrained reference path
                // and rip them out. The reference grid carries no
                // reservations but must still honor the defect mask.
                let pristine = RoutingGrid::new_with_defects(placement, config.w_e, defects);
                let window = t.occupancy();
                let reference = match find_path_with(
                    scratch,
                    &pristine,
                    &src_ports,
                    &dst_ports,
                    |_| window,
                    t.fluid,
                    wash_of,
                    AstarOptions { use_weights: false },
                ) {
                    Some(p) => p,
                    None => {
                        return Err(match scratch.interrupted() {
                            Some(why) => RouteError::Interrupted(why),
                            None => RouteError::Unroutable { task: t.id },
                        })
                    }
                };
                let mut blockers: Vec<TaskId> = Vec::new();
                for &cell in &reference {
                    for r in grid.reservations(cell) {
                        if r.task == t.id || r.fluid == t.fluid {
                            continue;
                        }
                        let clash = r.window.overlaps(window)
                            || (r.window.end <= window.start
                                && r.window.end + wash_of(r.fluid) > window.start)
                            || (window.end <= r.window.start
                                && window.end + wash_of(t.fluid) > r.window.start);
                        if clash && !blockers.contains(&r.task) {
                            blockers.push(r.task);
                        }
                    }
                }
                blockers.retain(|b| paths[b.index()].is_some());
                if blockers.is_empty()
                    || blockers
                        .iter()
                        .any(|b| rip_count[b.index()] >= MAX_RIPS_PER_TASK)
                {
                    return Err(RouteError::Unroutable { task: t.id });
                }
                for &b in &blockers {
                    grid.unreserve(b, wash_of);
                    paths[b.index()] = None;
                    rip_count[b.index()] += 1;
                    scratch.stats.rips += 1;
                }
                // Retry this task first, then the ripped ones in id order.
                let mut ripped: Vec<&TransportTask> =
                    blockers.iter().map(|&b| schedule.transport(b)).collect();
                ripped.sort_by_key(|t| (t.depart, t.id));
                for r in ripped.into_iter().rev() {
                    queue.push_front(r);
                }
                queue.push_front(t);
            }
        }
    }

    // Channel-wash accounting from the final reservations: per cell, each
    // residue left by one fluid and flushed before a different fluid's
    // later use contributes its wash time (Fig. 9).
    let washes = collect_washes(&grid, wash_of);

    let mut routed = Vec::with_capacity(paths.len());
    for (i, p) in paths.into_iter().enumerate() {
        // Every queued task either routes or rips blockers and requeues
        // itself, so a drained queue means all paths are present — unless
        // the schedule itself was inconsistent (e.g. hand-built).
        routed.push(p.ok_or(RouteError::InconsistentSchedule {
            task: TaskId::new(i as u32),
        })?);
    }

    Ok(Routing {
        paths: routed,
        channel_washes: washes,
        realized: RealizedTimes::from_schedule(schedule),
        grid: grid.spec(),
        used_cells: grid.used_cell_count(),
    })
}

/// Attempts to realize one transport task on the current grid, using the
/// departure-flexibility scan plus tail/remote parking (see module docs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_one(
    scratch: &mut SearchScratch,
    grid: &RoutingGrid,
    schedule: &Schedule,
    t: &TransportTask,
    src_ports: &[CellPos],
    dst_ports: &[CellPos],
    config: &RouterConfig,
    wash_of: impl Fn(OpId) -> Duration + Copy,
    options: AstarOptions,
) -> Option<(Vec<CellPos>, Vec<Interval>)> {
    // Departure flexibility: the scheduler's departure is as late as
    // possible, but the fluid has existed since its producer finished —
    // departing earlier only lengthens its channel-cache dwell and never
    // delays the consumer. Scan departures from the scheduled one backwards
    // to the producer's end until a conflict-free path appears.
    let producer_end = schedule.op(t.fluid).end;
    let step = Duration::from_secs(1);
    // A remote-parking route walks from a source port to a target port, so
    // it has at least `shortest` cells, and it replaces a tail-parked path
    // only with strictly fewer cells. A tail-parked path of `shortest`
    // cells therefore always wins, and the remote search is skipped.
    let shortest = src_ports
        .iter()
        .flat_map(|&s| dst_ports.iter().map(move |&d| s.manhattan(d) as usize + 1))
        .min();
    let mut depart = t.depart;
    loop {
        let transport = Interval::new(depart, depart + schedule.t_c);
        let full = Interval::new(depart, t.consumed_at);
        // Two ways to realize the task: carry the plug straight to the
        // destination and park on the path tail, or park it in a free
        // channel segment elsewhere (distributed channel storage proper)
        // and finish the trip just before consumption. Both are sound;
        // take whichever uses fewer channel cells.
        let tail = find_parked_path(
            scratch,
            grid,
            src_ports,
            dst_ports,
            transport,
            full,
            config.plug_cells,
            t.fluid,
            wash_of,
            options,
        );
        let tail_minimal = tail.as_ref().map(|(cells, _)| cells.len()) == shortest;
        // Remote parking books an outbound leg [depart, depart+t_c) and a
        // return leg [consumed-t_c, consumed); those must not overlap, so
        // the stay must cover two full transport legs.
        let remote = if !tail_minimal && full.length() >= schedule.t_c * 2 {
            find_remote_parking(
                scratch, grid, src_ports, dst_ports, transport, full, t.fluid, wash_of, options,
            )
        } else {
            None
        };
        let attempt = match (tail, remote) {
            (a, Some(b)) if a.as_ref().map_or(true, |a| b.0.len() < a.0.len()) => {
                scratch.stats.parks_chosen += 1;
                Some(b)
            }
            (a, _) => a,
        };
        if attempt.is_some() || depart <= producer_end {
            return attempt;
        }
        // Step back towards the producer's end without underflowing the
        // assay origin (departures can be sub-second).
        depart = if depart.saturating_duration_since(producer_end) <= step {
            producer_end
        } else {
            depart - step
        };
    }
}

/// Reconstructs Fig. 9's channel washes from the final per-cell
/// reservations: consecutive uses of a cell by different fluids imply a
/// wash of the earlier residue.
pub(crate) fn collect_washes(
    grid: &RoutingGrid,
    wash_of: impl Fn(OpId) -> Duration + Copy,
) -> Vec<ChannelWash> {
    let mut washes = Vec::new();
    for cell in grid.used_cells() {
        // Reservations are stored sorted by (window.start, window.end,
        // task) — exactly the order the accounting needs, so no per-cell
        // clone-and-sort.
        let rs = grid.reservations(cell);
        debug_assert!(rs
            .windows(2)
            .all(|p| (p[0].window.start, p[0].window.end, p[0].task)
                <= (p[1].window.start, p[1].window.end, p[1].task)));
        for pair in rs.windows(2) {
            if pair[0].fluid != pair[1].fluid {
                washes.push(ChannelWash {
                    cell,
                    residue: pair[0].fluid,
                    task: pair[1].task,
                    duration: wash_of(pair[0].fluid),
                });
            }
        }
    }
    washes
}

#[cfg(test)]
mod tests {
    use super::*;

    use mfb_sched::list::{schedule as run_sched, SchedulerConfig};

    fn d_wash(secs: f64) -> DiffusionCoefficient {
        LogLinearWash::paper_calibrated().coefficient_for(Duration::from_secs_f64(secs))
    }

    fn wash() -> LogLinearWash {
        LogLinearWash::paper_calibrated()
    }

    /// Mix -> heat -> detect chain on a hand-made placement.
    fn chain_setup() -> (SequencingGraph, ComponentSet, Schedule, Placement) {
        let mut b = SequencingGraph::builder();
        let m = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(4.0));
        let h = b.operation(OperationKind::Heat, Duration::from_secs(3), d_wash(2.0));
        let dt = b.operation(OperationKind::Detect, Duration::from_secs(4), d_wash(0.2));
        b.chain(&[m, h, dt]).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 1, 0, 1).instantiate(&ComponentLibrary::default());
        let s = run_sched(&g, &comps, &wash(), &SchedulerConfig::paper_dcsa()).unwrap();
        let placement = Placement::new(
            GridSpec::square(16),
            vec![
                CellRect::new(CellPos::new(1, 1), 4, 3), // mixer
                CellRect::new(CellPos::new(8, 1), 3, 2), // heater
                CellRect::new(CellPos::new(8, 8), 2, 2), // detector
            ],
        );
        assert!(placement.is_legal());
        (g, comps, s, placement)
    }

    #[test]
    fn ports_surround_component() {
        let (_, _, _, placement) = chain_setup();
        let grid = RoutingGrid::new(&placement, Duration::from_secs(10));
        let p = ports(&placement, &grid, ComponentId::new(0));
        // Mixer 4x3 at (1,1): ring of 2*(4+3) = 14 cells, all routable here.
        assert_eq!(p.len(), 14);
        for cell in &p {
            assert!(grid.is_routable(*cell));
            let r = placement.rect(ComponentId::new(0));
            assert!(!r.contains(*cell));
        }
    }

    #[test]
    fn routes_chain_without_delay() {
        let (g, _comps, s, placement) = chain_setup();
        let r = route_dcsa(&s, &g, &placement, &wash(), &RouterConfig::paper()).unwrap();
        assert_eq!(r.paths.len(), 2);
        assert_eq!(r.completion(), s.completion_time());
        assert_eq!(r.total_delay(&s), Duration::ZERO);
        for p in &r.paths {
            assert!(!p.is_empty());
            for w in p.cells.windows(2) {
                assert_eq!(w[0].manhattan(w[1]), 1, "path not contiguous");
            }
        }
        assert!(r.used_cells > 0);
        assert!(r.total_channel_length_mm() > 0.0);
    }

    #[test]
    fn paths_start_and_end_at_ports() {
        let (g, _comps, s, placement) = chain_setup();
        let r = route_dcsa(&s, &g, &placement, &wash(), &RouterConfig::paper()).unwrap();
        let grid = RoutingGrid::new(&placement, Duration::from_secs(10));
        for t in s.transports() {
            let p = &r.paths[t.id.index()];
            let src_ports = ports(&placement, &grid, t.src);
            let dst_ports = ports(&placement, &grid, t.dst);
            assert!(src_ports.contains(&p.cells[0]));
            assert!(dst_ports.contains(p.cells.last().unwrap()));
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let (g, _comps, s, placement) = chain_setup();
        let a = route_dcsa(&s, &g, &placement, &wash(), &RouterConfig::paper()).unwrap();
        let b = route_dcsa(&s, &g, &placement, &wash(), &RouterConfig::paper()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pristine_defects_match_plain_routing() {
        let (g, _comps, s, placement) = chain_setup();
        let plain = route_dcsa(&s, &g, &placement, &wash(), &RouterConfig::paper()).unwrap();
        let with = route_with_defects(&s, &g, &placement, &DefectMap::pristine()).unwrap();
        assert_eq!(plain, with);
    }

    /// `route_dcsa_budgeted` with the paper's router and an unlimited
    /// budget.
    fn route_with_defects(
        s: &Schedule,
        g: &SequencingGraph,
        placement: &Placement,
        defects: &DefectMap,
    ) -> Result<Routing, RouteError> {
        route_dcsa_budgeted(
            s,
            g,
            placement,
            &wash(),
            &RouterConfig::paper(),
            defects,
            &Budget::unlimited(),
        )
    }

    #[test]
    fn blocked_cells_force_detours_and_are_never_crossed() {
        let (g, _comps, s, placement) = chain_setup();
        // Wall off column x = 6 except one gap at y = 14, so every
        // mixer -> heater transport must detour through the gap.
        let mut defects = DefectMap::pristine();
        for y in 0..14 {
            defects.block_cell(CellPos::new(6, y));
        }
        let r = route_with_defects(&s, &g, &placement, &defects).unwrap();
        for p in &r.paths {
            for &c in &p.cells {
                assert!(!defects.is_blocked(c), "path crosses blocked cell {c}");
            }
        }
        let plain = route_dcsa(&s, &g, &placement, &wash(), &RouterConfig::paper()).unwrap();
        let len = |r: &Routing| r.paths.iter().map(|p| p.cells.len()).sum::<usize>();
        assert!(
            len(&r) > len(&plain),
            "the wall must lengthen at least one path"
        );
    }

    #[test]
    fn baseline_honors_defects_too() {
        let (g, _comps, s, placement) = chain_setup();
        let mut defects = DefectMap::pristine();
        for y in 0..14 {
            defects.block_cell(CellPos::new(6, y));
        }
        let r = crate::baseline::route_corrected_with_defects(
            &s,
            &g,
            &placement,
            &wash(),
            &RouterConfig::paper(),
            &defects,
        )
        .unwrap();
        for p in &r.paths {
            for &c in &p.cells {
                assert!(!defects.is_blocked(c), "baseline path crosses blocked cell");
            }
        }
    }

    #[test]
    fn parallel_tasks_never_share_cells() {
        // Two independent mix->heat chains; their transports overlap in
        // time and must use disjoint cells.
        let mut b = SequencingGraph::builder();
        let m0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(4.0));
        let h0 = b.operation(OperationKind::Heat, Duration::from_secs(3), d_wash(1.0));
        let m1 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(6.0));
        let h1 = b.operation(OperationKind::Heat, Duration::from_secs(3), d_wash(1.0));
        b.edge(m0, h0).unwrap();
        b.edge(m1, h1).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 2, 0, 0).instantiate(&ComponentLibrary::default());
        let s = run_sched(&g, &comps, &wash(), &SchedulerConfig::paper_dcsa()).unwrap();
        let placement = Placement::new(
            GridSpec::square(18),
            vec![
                CellRect::new(CellPos::new(1, 1), 4, 3),
                CellRect::new(CellPos::new(1, 8), 4, 3),
                CellRect::new(CellPos::new(10, 1), 3, 2),
                CellRect::new(CellPos::new(10, 8), 3, 2),
            ],
        );
        assert!(placement.is_legal());
        let r = route_dcsa(&s, &g, &placement, &wash(), &RouterConfig::paper()).unwrap();

        for i in 0..r.paths.len() {
            for j in (i + 1)..r.paths.len() {
                assert!(
                    !r.paths[i].conflicts_with(&r.paths[j]),
                    "tasks {i} and {j} conflict"
                );
            }
        }
    }

    #[test]
    fn ablation_without_weights_still_routes_conflict_free() {
        let (g, _comps, s, placement) = chain_setup();
        let cfg = RouterConfig {
            wash_aware_weights: false,
            ..RouterConfig::paper()
        };
        let r = route_dcsa(&s, &g, &placement, &wash(), &cfg).unwrap();
        assert_eq!(r.completion(), s.completion_time());
        for i in 0..r.paths.len() {
            for j in (i + 1)..r.paths.len() {
                assert!(!r.paths[i].conflicts_with(&r.paths[j]));
            }
        }
    }

    #[test]
    fn longer_plugs_reserve_longer_tails() {
        let (g, _comps, s, placement) = chain_setup();
        let cfg = RouterConfig {
            plug_cells: 3,
            ..RouterConfig::paper()
        };
        let r = route_dcsa(&s, &g, &placement, &wash(), &cfg).unwrap();
        // Every multi-cell path must end with plug_cells full-window cells.
        for p in &r.paths {
            if p.len() < 4 {
                continue;
            }
            let tail_full = p
                .windows
                .iter()
                .rev()
                .take(3)
                .all(|w| w.length() >= Duration::from_secs(2));
            assert!(tail_full, "tail windows too short: {:?}", p.windows);
        }
    }

    #[test]
    fn walled_in_component_reports_no_ports() {
        // One mixer filling the entire grid: a self-transport (fluid evicted
        // into channel storage and returned) has nowhere to park.
        let mut b = SequencingGraph::builder();
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let _o1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d_wash(2.0));
        let o2 = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(2.0));
        b.edge(o0, o2).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = run_sched(&g, &comps, &wash(), &SchedulerConfig::paper_dcsa()).unwrap();
        assert!(s.transports().len() > 0, "expected a self-transport");
        let placement = Placement::new(
            GridSpec::new(4, 3, 10.0),
            vec![CellRect::new(CellPos::new(0, 0), 4, 3)],
        );
        let r = route_dcsa(&s, &g, &placement, &wash(), &RouterConfig::paper());
        assert!(matches!(r, Err(RouteError::NoPorts { .. })), "{r:?}");
    }

    #[test]
    fn self_transport_parks_at_a_port() {
        let mut b = SequencingGraph::builder();
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let _o1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d_wash(2.0));
        let o2 = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(2.0));
        b.edge(o0, o2).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = run_sched(&g, &comps, &wash(), &SchedulerConfig::paper_dcsa()).unwrap();
        let placement = Placement::new(
            GridSpec::square(10),
            vec![CellRect::new(CellPos::new(3, 3), 4, 3)],
        );
        let r = route_dcsa(&s, &g, &placement, &wash(), &RouterConfig::paper()).unwrap();
        // The evicted fluid parks in a single channel cell next to the mixer.
        let self_task = s.transports().find(|t| t.src == t.dst).unwrap();
        assert_eq!(r.paths[self_task.id.index()].len(), 1);
    }

    /// `route.rips` counts every eviction of a routing run, those of a
    /// failed ordering included. On Synthetic1 placed with SA seed
    /// `0xD1CE + 3` the start-time order fails after ripping and the
    /// longest-occupancy order rescues the run; with seed `0xD1CE + 9`
    /// both orders fail.
    #[cfg(feature = "obs-trace")]
    #[test]
    fn rips_counter_counts_failed_orderings() {
        use mfb_place::prelude::{place_sa_auto, NetList, SaConfig};
        let b = mfb_bench_suite::benchmark_by_name("Synthetic1").unwrap();
        let comps = b.components(&ComponentLibrary::default());
        let s = run_sched(&b.graph, &comps, &wash(), &SchedulerConfig::paper_dcsa()).unwrap();
        let nets = NetList::build(&s, &b.graph, &wash(), 0.6, 0.4);
        let (cfg, pristine) = (RouterConfig::paper(), DefectMap::pristine());
        for (seed, rescued) in [(3, true), (9, false)] {
            let sa = SaConfig::paper().with_seed(0xD1CE + seed);
            let placement = place_sa_auto(&comps, &nets, &sa).unwrap();
            let mut by_start: Vec<&TransportTask> = s.transports().collect();
            by_start.sort_by_key(|t| (t.depart, t.id));
            let mut first = SearchScratch::new();
            let ordered = route_dcsa_ordered(
                &s,
                &b.graph,
                &placement,
                &wash(),
                &cfg,
                &by_start,
                &pristine,
                &mut first,
            );
            assert!(ordered.is_err() && first.stats.rips > 0, "seed {seed}");

            let mut scratch = SearchScratch::new();
            let both = route_dcsa_orderings(
                &s,
                &b.graph,
                &placement,
                &wash(),
                &cfg,
                &pristine,
                &mut scratch,
            );
            assert_eq!(both.is_ok(), rescued, "seed {seed}");
            let collector = mfb_obs::TraceCollector::new();
            let routed = mfb_obs::with_collector(&collector, || {
                route_dcsa_budgeted(
                    &s,
                    &b.graph,
                    &placement,
                    &wash(),
                    &cfg,
                    &pristine,
                    &Budget::unlimited(),
                )
            });
            assert_eq!(routed, both, "seed {seed}");
            assert_eq!(
                collector.finish().counter_total("route.rips"),
                scratch.stats.rips,
                "seed {seed}"
            );
        }
    }
}
