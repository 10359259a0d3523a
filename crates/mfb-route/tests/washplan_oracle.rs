//! The wash planner against its reference: the two-leg, heap-driven flush
//! search it replaced. `plan_flushes` must return the same `WashPlan`,
//! flush for flush and cell for cell, on seeded random grids and on the
//! routed Table-I benchmarks.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_route::prelude::*;
use mfb_route::washplan::plan_flushes;
use mfb_sched::list::{schedule, SchedulerConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The reference planner: `plan_flushes` as first written. Each flush is
/// an inflow leg and an outflow leg, each a unit-cost Dijkstra from every
/// free boundary cell to the target over a `(d, y, x)` min-heap, and the
/// incidental-clean check scans every cleaned cell.
fn plan_flushes_reference(grid: &RoutingGrid, washes: &[ChannelWash]) -> WashPlan {
    let spec = grid.spec();
    let boundary: Vec<CellPos> = (0..spec.width)
        .flat_map(|x| [CellPos::new(x, 0), CellPos::new(x, spec.height - 1)])
        .chain((0..spec.height).flat_map(|y| [CellPos::new(0, y), CellPos::new(spec.width - 1, y)]))
        .filter(|&c| grid.is_routable(c))
        .collect();
    let mut washes: Vec<(Instant, Instant, ChannelWash)> = washes
        .iter()
        .filter_map(|w| gap_of_reference(grid, w).map(|(s, d)| (s, d, *w)))
        .collect();
    washes.sort_by_key(|&(t, _, w)| (t, w.cell, w.task));
    let mut cleaned: BTreeSet<(CellPos, u64)> = BTreeSet::new();
    let mut plan = WashPlan {
        flushes: Vec::new(),
        incidental: 0,
        unplanned: Vec::new(),
    };
    for (start, deadline, w) in washes {
        let window = Interval::new(start, start + w.duration);
        if window.end > deadline {
            plan.unplanned.push(w);
            continue;
        }
        if cleaned
            .iter()
            .any(|&(c, t)| c == w.cell && t >= start.as_ticks() && t <= deadline.as_ticks())
        {
            plan.incidental += 1;
            continue;
        }
        match flush_path_reference(grid, &boundary, w.cell, window) {
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

fn gap_of_reference(grid: &RoutingGrid, w: &ChannelWash) -> Option<(Instant, Instant)> {
    let rs = grid.reservations(w.cell);
    let deadline = rs
        .iter()
        .filter(|r| r.task == w.task)
        .map(|r| r.window.start)
        .min()?;
    let start = rs
        .iter()
        .filter(|r| r.fluid == w.residue && r.window.end <= deadline)
        .map(|r| r.window.end)
        .max()?;
    Some((start, deadline))
}

fn flush_path_reference(
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
    let spec = grid.spec();
    let leg = |from_boundary: bool| -> Option<Vec<CellPos>> {
        let n = spec.cell_count() as usize;
        let mut dist = vec![u32::MAX; n];
        let mut prev: Vec<Option<CellPos>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        for &b in boundary {
            if free(b) {
                dist[spec.index(b)] = 0;
                prev[spec.index(b)] = None;
                heap.push(Reverse((0u32, b.y, b.x)));
            }
        }
        while let Some(Reverse((d, y, x))) = heap.pop() {
            let cell = CellPos::new(x, y);
            if d > dist[spec.index(cell)] {
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
                if d + 1 < dist[nidx] {
                    dist[nidx] = d + 1;
                    prev[nidx] = Some(cell);
                    heap.push(Reverse((d + 1, nb.y, nb.x)));
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

fn secs(s: u64) -> Instant {
    Instant::from_secs(s)
}

fn wash_by_fluid(op: OpId) -> Duration {
    Duration::from_secs(1 + op.index() as u64 % 3)
}

/// A seeded grid and wash list. Sizes run from 1×1 to 12×12, with every
/// fifth grid one cell wide and every fifth (offset) one cell tall, so
/// every cell is a boundary cell and the corners of the boundary list
/// repeat. Larger grids carry up to two components and a few defects.
/// Reservations are random straight runs of four fluids; runs of the same
/// fluid may overlap in time, and some are empty (they block nothing but
/// still end a residue). Washes come from consecutive reservations
/// of different fluids on a cell, so they land on boundary and interior
/// cells alike; a few are stale (no gap) or sit on blocked cells. Every
/// fourth grid also walls one cell in for the first 200 s, so its washes
/// cannot be reached.
fn seeded_case(seed: u64) -> (RoutingGrid, Vec<ChannelWash>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut w, mut h): (u32, u32) = (rng.gen_range(1..13), rng.gen_range(1..13));
    match seed % 5 {
        0 => w = 1,
        2 => h = 1,
        _ => {}
    }
    let spec = GridSpec::new(w, h, GridSpec::DEFAULT_PITCH_MM);
    let placement = (0..20)
        .map(|_| {
            let rects = if w >= 5 && h >= 5 {
                (0..rng.gen_range(0..3))
                    .map(|_| {
                        let (rw, rh) = (rng.gen_range(1..3), rng.gen_range(1..3));
                        let origin =
                            CellPos::new(rng.gen_range(0..w - rw), rng.gen_range(0..h - rh));
                        CellRect::new(origin, rw, rh)
                    })
                    .collect()
            } else {
                Vec::new()
            };
            Placement::new(spec, rects)
        })
        .find(Placement::is_legal)
        .unwrap_or_else(|| Placement::new(spec, Vec::new()));
    let mut defects = DefectMap::pristine();
    for _ in 0..rng.gen_range(0..3) {
        defects.block_cell(CellPos::new(rng.gen_range(0..w), rng.gen_range(0..h)));
    }
    let mut grid = RoutingGrid::new(&placement, Duration::from_secs(10), &defects);
    let mut task = 0;
    for _ in 0..rng.gen_range(4..24) {
        let start: u64 = rng.gen_range(0..60);
        let window = Interval::new(secs(start), secs(start + rng.gen_range(0u64..10)));
        let fluid = OpId::new(rng.gen_range(0..4));
        let (x, y) = (rng.gen_range(0..w), rng.gen_range(0..h));
        let horizontal = rng.gen_bool(0.5);
        for k in 0..rng.gen_range(1u32..7) {
            let cell = if horizontal {
                CellPos::new((x + k).min(w - 1), y)
            } else {
                CellPos::new(x, (y + k).min(h - 1))
            };
            // Blocked cells get reservations too, so some washes target a
            // cell no flush may enter.
            if grid.is_routable(cell) || rng.gen_bool(0.3) {
                grid.reserve(cell, TaskId::new(task), fluid, window, wash_by_fluid);
            }
        }
        task += 1;
    }
    if seed % 4 == 1 && w >= 3 && h >= 3 {
        let c = CellPos::new(rng.gen_range(1..w - 1), rng.gen_range(1..h - 1));
        let wall = Interval::new(secs(0), secs(200));
        for nb in c.neighbours(w, h) {
            grid.reserve(nb, TaskId::new(task), OpId::new(9), wall, wash_by_fluid);
        }
        task += 1;
        for (t, fluid, s) in [(task, OpId::new(0), 10), (task + 1, OpId::new(1), 40)] {
            let window = Interval::new(secs(s), secs(s + 3));
            grid.reserve(c, TaskId::new(t), fluid, window, wash_by_fluid);
        }
    }
    let mut washes = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let cell = CellPos::new(x, y);
            for pair in grid.reservations(cell).windows(2) {
                if pair[0].fluid != pair[1].fluid {
                    washes.push(ChannelWash {
                        cell,
                        residue: pair[0].fluid,
                        task: pair[1].task,
                        duration: Duration::from_secs(rng.gen_range(1..8)),
                    });
                }
            }
        }
    }
    // Stale records: a task that never visits the cell.
    for _ in 0..2 {
        washes.push(ChannelWash {
            cell: CellPos::new(rng.gen_range(0..w), rng.gen_range(0..h)),
            residue: OpId::new(0),
            task: TaskId::new(10_000),
            duration: Duration::from_secs(2),
        });
    }
    (grid, washes)
}

#[test]
fn plan_flushes_matches_reference_on_seeded_grids() {
    let (mut flushes, mut incidental, mut unplanned, mut on_boundary) = (0, 0, 0, 0);
    let (mut thin, mut single) = (0, 0);
    for seed in 0..400 {
        let (grid, washes) = seeded_case(seed);
        let fast = plan_flushes(&grid, &washes);
        let slow = plan_flushes_reference(&grid, &washes);
        assert_eq!(fast, slow, "seed {seed}: plans diverged");
        let spec = grid.spec();
        flushes += fast.flushes.len();
        incidental += fast.incidental;
        unplanned += fast.unplanned.len();
        on_boundary += fast.flushes.iter().filter(|f| f.cells.len() == 1).count();
        if (spec.width == 1 || spec.height == 1) && !fast.flushes.is_empty() {
            thin += 1;
        }
        single += usize::from(spec.width == 1 && spec.height == 1);
    }
    // The cases the comparison must have exercised.
    assert!(flushes > 1000, "{flushes} flushes");
    assert!(incidental > 50, "{incidental} incidental washes");
    assert!(unplanned > 50, "{unplanned} unplanned washes");
    assert!(
        on_boundary > 50,
        "{on_boundary} flushes of a boundary target"
    );
    assert!(
        thin > 20,
        "{thin} one-cell-wide or -tall grids with flushes"
    );
    assert!(single > 0, "no 1x1 grid");
}

/// An unreachable target and a blocked target are unplanned by both.
#[test]
fn unreachable_and_blocked_targets_are_unplanned() {
    let p = Placement::new(
        GridSpec::square(7),
        vec![CellRect::new(CellPos::new(4, 4), 2, 2)],
    );
    let mut grid = RoutingGrid::new(&p, Duration::from_secs(10), &DefectMap::pristine());
    let (inner, blocked) = (CellPos::new(2, 2), CellPos::new(4, 4));
    let wall = Interval::new(secs(0), secs(100));
    for nb in inner.neighbours(7, 7) {
        grid.reserve(nb, TaskId::new(0), OpId::new(7), wall, wash_by_fluid);
    }
    let mut washes = Vec::new();
    for (i, cell) in [inner, blocked].into_iter().enumerate() {
        let t = 1 + 2 * i as u32;
        for (task, fluid, s) in [(t, 0, 10), (t + 1, 1, 30)] {
            let window = Interval::new(secs(s), secs(s + 2));
            grid.reserve(
                cell,
                TaskId::new(task),
                OpId::new(fluid),
                window,
                wash_by_fluid,
            );
        }
        washes.push(ChannelWash {
            cell,
            residue: OpId::new(0),
            task: TaskId::new(t + 1),
            duration: Duration::from_secs(3),
        });
    }
    let plan = plan_flushes(&grid, &washes);
    assert_eq!(plan, plan_flushes_reference(&grid, &washes));
    assert!(plan.flushes.is_empty() && plan.incidental == 0);
    assert_eq!(plan.unplanned.len(), 2);
}

#[test]
fn plan_washes_matches_reference_on_table1_benchmarks() {
    let wash = LogLinearWash::paper_calibrated();
    let (pristine, budget) = (DefectMap::pristine(), Budget::unlimited());
    let cfg = RouterConfig::paper();
    for b in mfb_bench_suite::table1_benchmarks() {
        let comps = b.components(&ComponentLibrary::default());
        let s = schedule(
            &b.graph,
            &comps,
            &wash,
            &SchedulerConfig::paper_dcsa(),
            &pristine,
        )
        .expect("schedules");
        let nets = NetList::build(&s, &b.graph, &wash, 0.6, 0.4);
        let (p, _) = place_sa(
            &comps,
            &nets,
            auto_grid(&comps),
            &SaConfig::paper(),
            &pristine,
            &budget,
        )
        .expect("places");
        let Ok(r) = route_dcsa(&s, &b.graph, &p, &wash, &cfg, &pristine, &budget) else {
            continue;
        };
        let wash_of = |op: OpId| wash.wash_time(b.graph.op(op).output_diffusion());
        let mut grid = RoutingGrid::new(&p, cfg.w_e, &pristine);
        for path in &r.paths {
            for (cell, window) in path.occupancies() {
                grid.reserve(cell, path.task, path.fluid, window, wash_of);
            }
        }
        let plan = plan_washes(&r, &b.graph, &p, &wash, &cfg, &pristine);
        assert!(!plan.flushes.is_empty(), "{}", b.name);
        assert_eq!(
            plan,
            plan_flushes_reference(&grid, &r.channel_washes),
            "{}",
            b.name
        );
    }
}
