//! Pre-optimization reference router, kept verbatim as a test oracle for
//! golden-equivalence tests.
//!
//! [`find_path_reference`] and [`dijkstra_map_reference`] are the
//! allocate-per-query searches this crate shipped before the reusable
//! [`crate::astar::SearchScratch`] arena landed: fresh dist/prev/heap
//! vectors per call, the heuristic re-scanning every target per expansion,
//! and feasibility probed before the cost test in the neighbour loop.
//! [`route_dcsa_reference`] is the conflict-aware router driven by those
//! searches. The optimized [`crate::router::route_dcsa`] must produce a
//! bitwise identical [`Routing`] for every input — `tests/perf_equiv.rs`
//! asserts exactly that across the Table-I benchmarks, with and without
//! defects. Do not "improve" this module: its value is being the frozen
//! baseline.

use crate::astar::AstarOptions;
use crate::error::RouteError;
use crate::grid::{ChannelWash, RoutingGrid};
use crate::router::{ports, RealizedTimes, RoutedPath, RouterConfig, Routing};
use mfb_model::prelude::*;
use mfb_place::prelude::Placement;
use mfb_sched::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cost units per cell of path length (mirror of `astar::LENGTH_COST`).
const LENGTH_COST: u64 = 10;

/// Access-ring traversal tax (mirror of `astar::RING_TAX`).
const RING_TAX: u64 = 3 * LENGTH_COST;

/// The historical `find_path`: allocates full-grid dist/prev/visited
/// vectors and a fresh heap on every call, and its heuristic scans the
/// whole target list at every expansion.
#[allow(clippy::too_many_arguments)]
pub fn find_path_reference(
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
    let n = spec.cell_count() as usize;
    let mut is_target = vec![false; n];
    for &t in targets {
        if spec.contains(t) {
            is_target[spec.index(t)] = true;
        }
    }

    let h = |cell: CellPos| -> u64 {
        targets
            .iter()
            .map(|&t| u64::from(cell.manhattan(t)))
            .min()
            .unwrap_or(0)
            * LENGTH_COST
    };
    let cell_cost = |cell: CellPos| -> u64 {
        LENGTH_COST
            + if grid.is_ring(cell) { RING_TAX } else { 0 }
            + if options.use_weights {
                grid.weight(cell).as_ticks()
            } else {
                0
            }
    };

    let mut dist = vec![u64::MAX; n];
    let mut prev: Vec<Option<CellPos>> = vec![None; n];
    // Heap entries: Reverse((f, g, y, x)) — deterministic tie-breaking.
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32, u32)>> = BinaryHeap::new();

    for &s in sources {
        if !grid.feasible(s, window_of(s), fluid, wash_of) {
            continue;
        }
        let g = cell_cost(s);
        let idx = spec.index(s);
        if g < dist[idx] {
            dist[idx] = g;
            heap.push(Reverse((g + h(s), g, s.y, s.x)));
        }
    }

    while let Some(Reverse((_, g, y, x))) = heap.pop() {
        let cell = CellPos::new(x, y);
        let idx = spec.index(cell);
        if g > dist[idx] {
            continue; // stale entry
        }
        if is_target[idx] {
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
            if !grid.feasible(nb, window_of(nb), fluid, wash_of) {
                continue;
            }
            let ng = g + cell_cost(nb);
            let nidx = spec.index(nb);
            if ng < dist[nidx] {
                dist[nidx] = ng;
                prev[nidx] = Some(cell);
                heap.push(Reverse((ng + h(nb), ng, nb.y, nb.x)));
            }
        }
    }
    None
}

/// The historical full-grid Dijkstra map: fresh allocations per call,
/// feasibility probed before the cost test.
pub fn dijkstra_map_reference(
    grid: &RoutingGrid,
    sources: &[CellPos],
    window: Interval,
    fluid: OpId,
    wash_of: impl Fn(OpId) -> Duration + Copy,
    options: AstarOptions,
) -> (Vec<u64>, Vec<Option<CellPos>>) {
    let spec = grid.spec();
    let n = spec.cell_count() as usize;
    let cell_cost = |cell: CellPos| -> u64 {
        LENGTH_COST
            + if grid.is_ring(cell) { RING_TAX } else { 0 }
            + if options.use_weights {
                grid.weight(cell).as_ticks()
            } else {
                0
            }
    };
    let mut dist = vec![u64::MAX; n];
    let mut prev: Vec<Option<CellPos>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32, u32)>> = BinaryHeap::new();
    for &s in sources {
        if !grid.feasible(s, window, fluid, wash_of) {
            continue;
        }
        let g = cell_cost(s);
        let idx = spec.index(s);
        if g < dist[idx] {
            dist[idx] = g;
            heap.push(Reverse((g, s.y, s.x)));
        }
    }
    while let Some(Reverse((g, y, x))) = heap.pop() {
        let cell = CellPos::new(x, y);
        let idx = spec.index(cell);
        if g > dist[idx] {
            continue;
        }
        for nb in cell.neighbours(spec.width, spec.height) {
            if !grid.feasible(nb, window, fluid, wash_of) {
                continue;
            }
            let ng = g + cell_cost(nb);
            let nidx = spec.index(nb);
            if ng < dist[nidx] {
                dist[nidx] = ng;
                prev[nidx] = Some(cell);
                heap.push(Reverse((ng, nb.y, nb.x)));
            }
        }
    }
    (dist, prev)
}

/// The historical parked-path search driven by [`find_path_reference`].
#[allow(clippy::too_many_arguments)]
fn find_parked_path(
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
    for _ in 0..256 {
        let window_of = |c: CellPos| {
            if banned.contains(&c) {
                full
            } else {
                transport
            }
        };
        let path = find_path_reference(grid, sources, targets, window_of, fluid, wash_of, options)?;
        if previous.as_deref() == Some(path.as_slice()) {
            return None; // banning made no progress
        }
        let k = (plug_cells.max(1) as usize).min(path.len());
        let tail_start = path.len() - k;
        let mut ok = true;
        for &c in &path[tail_start..] {
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

/// The historical remote-parking fallback driven by
/// [`dijkstra_map_reference`].
#[allow(clippy::too_many_arguments)]
fn find_remote_parking(
    grid: &RoutingGrid,
    sources: &[CellPos],
    targets: &[CellPos],
    transport: Interval,
    full: Interval,
    fluid: OpId,
    wash_of: impl Fn(OpId) -> Duration + Copy,
    options: AstarOptions,
) -> Option<(Vec<CellPos>, Vec<Interval>)> {
    let spec = grid.spec();
    let t_c = transport.length();
    let leg2 = Interval::new(full.end.max(Instant::ZERO + t_c) - t_c, full.end);

    let (d1, p1) = dijkstra_map_reference(grid, sources, transport, fluid, wash_of, options);
    let (d2, p2) = dijkstra_map_reference(grid, targets, leg2, fluid, wash_of, options);

    let mut best: Option<(u64, CellPos)> = None;
    for y in 0..spec.height {
        for x in 0..spec.width {
            let cell = CellPos::new(x, y);
            let i = spec.index(cell);
            if d1[i] == u64::MAX || d2[i] == u64::MAX {
                continue;
            }
            if grid.is_ring(cell) && !targets.contains(&cell) && !sources.contains(&cell) {
                continue;
            }
            if !grid.feasible(cell, full, fluid, wash_of) {
                continue;
            }
            let cost = d1[i].saturating_add(d2[i]);
            if best.map_or(true, |(b, _)| cost < b) {
                best = Some((cost, cell));
            }
        }
    }
    let (_, park) = best?;

    let mut leg1_cells = vec![park];
    let mut cur = park;
    while let Some(p) = p1[spec.index(cur)] {
        leg1_cells.push(p);
        cur = p;
    }
    leg1_cells.reverse();

    let mut leg2_cells = Vec::new();
    let mut cur = park;
    while let Some(p) = p2[spec.index(cur)] {
        leg2_cells.push(p);
        cur = p;
    }

    let mut cells = Vec::with_capacity(leg1_cells.len() + leg2_cells.len());
    let mut windows = Vec::with_capacity(leg1_cells.len() + leg2_cells.len());
    for &c in &leg1_cells {
        cells.push(c);
        windows.push(if c == park { full } else { transport });
    }
    for &c in &leg2_cells {
        cells.push(c);
        windows.push(leg2);
    }
    Some((cells, windows))
}

/// The historical single-task realization scan.
#[allow(clippy::too_many_arguments)]
fn route_one(
    grid: &RoutingGrid,
    schedule: &Schedule,
    t: &TransportTask,
    src_ports: &[CellPos],
    dst_ports: &[CellPos],
    config: &RouterConfig,
    wash_of: impl Fn(OpId) -> Duration + Copy,
    options: AstarOptions,
) -> Option<(Vec<CellPos>, Vec<Interval>)> {
    let producer_end = schedule.op(t.fluid).end;
    let step = Duration::from_secs(1);
    let mut depart = t.depart;
    loop {
        let transport = Interval::new(depart, depart + schedule.t_c);
        let full = Interval::new(depart, t.consumed_at);
        let tail = find_parked_path(
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
        let remote = if full.length() >= schedule.t_c * 2 {
            find_remote_parking(
                grid, src_ports, dst_ports, transport, full, t.fluid, wash_of, options,
            )
        } else {
            None
        };
        let attempt = match (tail, remote) {
            (Some(a), Some(b)) => Some(if b.0.len() < a.0.len() { b } else { a }),
            (a, b) => a.or(b),
        };
        if attempt.is_some() || depart <= producer_end {
            return attempt;
        }
        depart = if depart.saturating_duration_since(producer_end) <= step {
            producer_end
        } else {
            depart - step
        };
    }
}

/// The historical wash reconstruction: per cell, clone the reservations and
/// sort them before pairing.
fn collect_washes(
    grid: &RoutingGrid,
    wash_of: impl Fn(OpId) -> Duration + Copy,
) -> Vec<ChannelWash> {
    let mut washes = Vec::new();
    for cell in grid.used_cells() {
        let mut rs: Vec<_> = grid.reservations(cell).to_vec();
        rs.sort_by_key(|r| (r.window.start, r.window.end, r.task));
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

/// The historical [`crate::router::route_dcsa`]: identical task ordering,
/// rip-up bookkeeping and reservation updates, but every search allocates
/// its working state per query.
///
/// # Errors
///
/// Same as [`crate::router::route_dcsa`].
pub fn route_dcsa_reference(
    schedule: &Schedule,
    graph: &SequencingGraph,
    placement: &Placement,
    wash: &dyn WashModel,
    config: &RouterConfig,
) -> Result<Routing, RouteError> {
    route_dcsa_reference_with_defects(
        schedule,
        graph,
        placement,
        wash,
        config,
        &DefectMap::pristine(),
    )
}

/// Defect-aware variant of [`route_dcsa_reference`].
///
/// # Errors
///
/// Same as [`crate::router::route_dcsa_budgeted`], minus the interrupt.
pub fn route_dcsa_reference_with_defects(
    schedule: &Schedule,
    graph: &SequencingGraph,
    placement: &Placement,
    wash: &dyn WashModel,
    config: &RouterConfig,
    defects: &DefectMap,
) -> Result<Routing, RouteError> {
    let mut by_start: Vec<&TransportTask> = schedule.transports().collect();
    by_start.sort_by_key(|t| (t.depart, t.id));
    let first = route_ordered(schedule, graph, placement, wash, config, &by_start, defects);
    if first.is_ok() {
        return first;
    }
    let mut by_occupancy: Vec<&TransportTask> = schedule.transports().collect();
    by_occupancy.sort_by_key(|t| (std::cmp::Reverse(t.occupancy().length()), t.depart, t.id));
    route_ordered(
        schedule,
        graph,
        placement,
        wash,
        config,
        &by_occupancy,
        defects,
    )
    .or(first)
}

#[allow(clippy::too_many_arguments)]
fn route_ordered(
    schedule: &Schedule,
    graph: &SequencingGraph,
    placement: &Placement,
    wash: &dyn WashModel,
    config: &RouterConfig,
    order: &[&TransportTask],
    defects: &DefectMap,
) -> Result<Routing, RouteError> {
    let mut grid = RoutingGrid::new_with_defects(placement, config.w_e, defects);
    let wash_of = |op: OpId| wash.wash_time(graph.op(op).output_diffusion());
    let options = AstarOptions {
        use_weights: config.wash_aware_weights,
    };

    const MAX_RIPS_PER_TASK: u32 = 3;
    let mut rip_count = vec![0u32; schedule.transports().len()];
    let mut queue: std::collections::VecDeque<&TransportTask> = order.iter().copied().collect();

    let mut paths: Vec<Option<RoutedPath>> = vec![None; schedule.transports().len()];
    while let Some(t) = queue.pop_front() {
        let src_ports = ports(placement, &grid, t.src);
        if src_ports.is_empty() {
            return Err(RouteError::NoPorts { component: t.src });
        }
        let dst_ports = ports(placement, &grid, t.dst);
        if dst_ports.is_empty() {
            return Err(RouteError::NoPorts { component: t.dst });
        }
        match route_one(
            &grid, schedule, t, &src_ports, &dst_ports, config, wash_of, options,
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
                let pristine = RoutingGrid::new_with_defects(placement, config.w_e, defects);
                let window = t.occupancy();
                let reference = find_path_reference(
                    &pristine,
                    &src_ports,
                    &dst_ports,
                    |_| window,
                    t.fluid,
                    wash_of,
                    AstarOptions { use_weights: false },
                )
                .ok_or(RouteError::Unroutable { task: t.id })?;
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
                }
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

    let washes = collect_washes(&grid, wash_of);

    let mut routed = Vec::with_capacity(paths.len());
    for (i, p) in paths.into_iter().enumerate() {
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
