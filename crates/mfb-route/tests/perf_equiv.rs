//! Golden-equivalence suite: the arena-backed A* searches and the router
//! built on them must be bitwise identical to the frozen pre-optimization
//! reference (`mfb_route::reference`).
//!
//! `Routing` equality (`PartialEq` over every path cell, window, wash and
//! realized time) is exactly "byte-identical routing": a single diverging
//! heap pop anywhere in the thousands of A* queries a full routing makes
//! would change some path and fail the comparison.

use mfb_bench_suite::table1_benchmarks;
use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_route::prelude::*;
use mfb_route::reference::{
    dijkstra_map_reference, find_path_reference, route_dcsa_reference,
    route_dcsa_reference_with_defects,
};
use mfb_sched::list::{schedule, SchedulerConfig};
use mfb_sched::prelude::Schedule;

fn iv(a: u64, b: u64) -> Interval {
    Interval::new(Instant::from_secs(a), Instant::from_secs(b))
}

fn wash2(_: OpId) -> Duration {
    Duration::from_secs(2)
}

/// A 12×12 grid with two components, a handful of reservations and one
/// degraded-weight cell — enough structure that a heuristic or tie-break
/// divergence would pick a different path.
fn busy_grid() -> RoutingGrid {
    let p = Placement::new(
        GridSpec::square(12),
        vec![
            CellRect::new(CellPos::new(3, 2), 3, 3),
            CellRect::new(CellPos::new(7, 7), 2, 4),
        ],
    );
    let mut g = RoutingGrid::new(&p, Duration::from_secs(10));
    for x in 0..12 {
        g.reserve(
            CellPos::new(x, 6),
            TaskId::new(0),
            OpId::new(5),
            iv(0, 8),
            wash2,
        );
    }
    for y in 2..9 {
        g.reserve(
            CellPos::new(1, y),
            TaskId::new(1),
            OpId::new(6),
            iv(4, 30),
            wash2,
        );
    }
    g
}

#[test]
fn arena_find_path_matches_reference_on_busy_grid() {
    let g = busy_grid();
    let mut scratch = SearchScratch::new();
    let queries: &[(&[CellPos], &[CellPos], Interval)] = &[
        (&[CellPos::new(0, 0)], &[CellPos::new(11, 11)], iv(0, 5)),
        (&[CellPos::new(0, 0)], &[CellPos::new(11, 11)], iv(10, 20)),
        (
            &[CellPos::new(0, 11), CellPos::new(11, 0)],
            &[CellPos::new(6, 1), CellPos::new(2, 10)],
            iv(12, 40),
        ),
        (&[CellPos::new(5, 5)], &[CellPos::new(5, 5)], iv(0, 3)),
    ];
    for opts in [AstarOptions::default(), AstarOptions { use_weights: false }] {
        for &(src, dst, w) in queries {
            for fluid in [OpId::new(0), OpId::new(5)] {
                let fast = find_path_with(&mut scratch, &g, src, dst, |_| w, fluid, wash2, opts);
                let slow = find_path_reference(&g, src, dst, |_| w, fluid, wash2, opts);
                assert_eq!(fast, slow, "query {src:?}->{dst:?} {w:?} diverged");
            }
        }
    }
}

/// Several fluids' wash times, so reserved cells carry distinct weights.
fn wash_by_fluid(op: OpId) -> Duration {
    Duration::from_secs(1 + op.index() as u64 % 3)
}

/// A seeded 14×14 grid: three components, a few blocked cells and a dozen
/// straight reservations of four fluids at random windows; every third
/// grid also gets a wall across column 7 held by fluid 3 for the first
/// minute, so ports on opposite sides share no reachable cell. Returns
/// the grid and three endpoint sets: the ports of two components, and five
/// plain channel cells whose one-cell step cost makes the search bound
/// tight.
fn seeded_grid(seed: u64) -> (RoutingGrid, Vec<Vec<CellPos>>) {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = GridSpec::square(14);
    let placement = loop {
        let rects = (0..3)
            .map(|_| {
                let (w, h) = (rng.gen_range(1..4), rng.gen_range(1..4));
                let origin = CellPos::new(rng.gen_range(0..14 - w), rng.gen_range(0..14 - h));
                CellRect::new(origin, w, h)
            })
            .collect();
        let p = Placement::new(spec, rects);
        if p.is_legal() {
            break p;
        }
    };
    let mut defects = DefectMap::pristine();
    for _ in 0..4 {
        defects.block_cell(CellPos::new(rng.gen_range(0..14), rng.gen_range(0..14)));
    }
    let mut grid = RoutingGrid::new_with_defects(&placement, Duration::from_secs(10), &defects);
    for task in 0..12 {
        let start: u64 = rng.gen_range(0..30);
        let window = iv(start, start + rng.gen_range(2u64..12));
        let fluid = OpId::new(rng.gen_range(0..4));
        let (x, y): (u32, u32) = (rng.gen_range(0..14), rng.gen_range(0..14));
        let len: u32 = rng.gen_range(2..9);
        let horizontal = rng.gen_bool(0.5);
        for k in 0..len {
            let cell = if horizontal {
                CellPos::new((x + k).min(13), y)
            } else {
                CellPos::new(x, (y + k).min(13))
            };
            if grid.is_routable(cell) {
                grid.reserve(cell, TaskId::new(task), fluid, window, wash_by_fluid);
            }
        }
    }
    if seed % 3 == 0 {
        for y in 0..14 {
            let cell = CellPos::new(7, y);
            if grid.is_routable(cell) {
                grid.reserve(
                    cell,
                    TaskId::new(12),
                    OpId::new(3),
                    iv(0, 60),
                    wash_by_fluid,
                );
            }
        }
    }
    let mut spots = Vec::new();
    while spots.len() < 5 {
        let cell = CellPos::new(rng.gen_range(0..14), rng.gen_range(0..14));
        if grid.is_routable(cell) && !grid.is_ring(cell) && !spots.contains(&cell) {
            spots.push(cell);
        }
    }
    let sets = (0..2)
        .map(|c| ports(&placement, &grid, ComponentId::new(c)))
        .chain([spots])
        .collect();
    (grid, sets)
}

/// The park search's oracle: two full `dijkstra_map_reference` sweeps, the
/// row-major strict-minimum scan, then the two predecessor chains. Also
/// returns how many cells the sweeps settled and whether another cell ties
/// the park's cost.
#[allow(clippy::too_many_arguments)]
fn park_reference(
    grid: &RoutingGrid,
    sources: &[CellPos],
    targets: &[CellPos],
    leg1: Interval,
    leg2: Interval,
    fluid: OpId,
    opts: AstarOptions,
    can_park: impl Fn(CellPos) -> bool,
) -> (Option<Park>, u64, bool) {
    let spec = grid.spec();
    let (d1, p1) = dijkstra_map_reference(grid, sources, leg1, fluid, wash_by_fluid, opts);
    let (d2, p2) = dijkstra_map_reference(grid, targets, leg2, fluid, wash_by_fluid, opts);
    let settled = d1.iter().chain(&d2).filter(|&&d| d != u64::MAX).count() as u64;
    let mut best: Option<(u64, CellPos)> = None;
    let mut tied = false;
    for y in 0..spec.height {
        for x in 0..spec.width {
            let cell = CellPos::new(x, y);
            let i = spec.index(cell);
            if d1[i] == u64::MAX || d2[i] == u64::MAX || !can_park(cell) {
                continue;
            }
            let cost = d1[i] + d2[i];
            if best.map_or(true, |(b, _)| cost < b) {
                best = Some((cost, cell));
                tied = false;
            } else if best.is_some_and(|(b, _)| cost == b) {
                tied = true;
            }
        }
    }
    let chain = |prev: &[Option<CellPos>], mut cur: CellPos| {
        let mut cells = Vec::new();
        while let Some(p) = prev[spec.index(cur)] {
            cells.push(p);
            cur = p;
        }
        cells
    };
    let park = best.map(|(_, cell)| {
        let mut leg1 = chain(&p1, cell);
        leg1.reverse();
        leg1.push(cell);
        Park {
            cell,
            leg1,
            leg2: chain(&p2, cell),
        }
    });
    (park, settled, tied)
}

/// What [`check_park_query`] saw across many queries.
#[derive(Default)]
struct ParkTally {
    found: usize,
    tied: usize,
    unreachable: usize,
    settled: u64,
    full_settled: u64,
}

/// Runs one park search for a stay `[depart, consumed)` with the router's
/// parking rule (or, with `no_park`, a rule that accepts no cell) and
/// asserts it returns the oracle's answer while settling no more cells.
#[allow(clippy::too_many_arguments)]
fn check_park_query(
    scratch: &mut SearchScratch,
    grid: &RoutingGrid,
    sources: &[CellPos],
    targets: &[CellPos],
    (depart, consumed): (u64, u64),
    fluid: OpId,
    opts: AstarOptions,
    no_park: bool,
    tally: &mut ParkTally,
) {
    let (leg1, leg2) = (iv(depart, depart + 2), iv(consumed - 2, consumed));
    let full = iv(depart, consumed);
    let foreign_ring =
        |c: CellPos| grid.is_ring(c) && !targets.contains(&c) && !sources.contains(&c);
    let can_park =
        |c: CellPos| !no_park && !foreign_ring(c) && grid.feasible(c, full, fluid, wash_by_fluid);
    let before = scratch.stats.park_expansions;
    let fast = find_park_with(
        scratch,
        grid,
        sources,
        targets,
        leg1,
        leg2,
        fluid,
        wash_by_fluid,
        opts,
        can_park,
    );
    let settled = scratch.stats.park_expansions - before;
    let (slow, full_settled, tied) =
        park_reference(grid, sources, targets, leg1, leg2, fluid, opts, can_park);
    let what = format!(
        "{opts:?} {sources:?}->{targets:?} [{depart}, {consumed}) {fluid:?} no_park {no_park}"
    );
    assert_eq!(fast, slow, "{what}");
    assert!(
        settled <= full_settled,
        "{what}: {settled} > {full_settled}"
    );
    if fast.is_none() {
        assert_eq!(
            settled, full_settled,
            "{what}: without a park both sides sweep"
        );
        tally.unreachable += usize::from(!no_park);
    } else {
        tally.found += 1;
        tally.tied += usize::from(tied);
    }
    tally.settled += settled;
    tally.full_settled += full_settled;
}

/// The bounded two-sided park search returns the oracle's park and legs
/// while settling no more cells. The queries cover cost ties (unweighted
/// search), overlapping source and target sets, the foreign-ring ban, and
/// searches with no admissible park (which must sweep exactly as much).
#[test]
fn park_search_matches_two_full_sweeps() {
    let mut scratch = SearchScratch::new();
    let mut tally = ParkTally::default();
    for seed in 0..24 {
        let (grid, sets) = seeded_grid(seed);
        let (a, b, spots) = (&sets[0], &sets[1], &sets[2]);
        let mixed: Vec<CellPos> = a.iter().chain(b.iter().take(2)).copied().collect();
        let pairs: [(&[CellPos], &[CellPos]); 6] = [
            (a, b),
            (b, a),
            (a, a),
            (&mixed, b),
            (&spots[..2], &spots[2..4]),
            (&spots[..3], &spots[2..]),
        ];
        for opts in [AstarOptions::default(), AstarOptions { use_weights: false }] {
            for (sources, targets) in pairs {
                for stay in [(0, 6), (5, 20), (14, 40)] {
                    for fluid in [OpId::new(1), OpId::new(7)] {
                        for no_park in [false, true] {
                            check_park_query(
                                &mut scratch,
                                &grid,
                                sources,
                                targets,
                                stay,
                                fluid,
                                opts,
                                no_park,
                                &mut tally,
                            );
                        }
                    }
                }
            }
        }
    }
    let t = tally;
    assert!(
        t.found > 100 && t.tied > 10 && t.unreachable > 10,
        "{} parks found, {} of them tied, {} searches without a park",
        t.found,
        t.tied,
        t.unreachable
    );
    assert!(
        t.settled < t.full_settled,
        "bounded search settled {} cells, full sweeps {}",
        t.settled,
        t.full_settled
    );
}

#[test]
fn off_grid_targets_return_none_like_reference() {
    let g = busy_grid();
    let mut scratch = SearchScratch::new();
    // All targets outside the grid: both must give up (the arena path
    // early-returns without touching the scratch at all).
    let off = [CellPos::new(99, 99), CellPos::new(50, 0)];
    let src = [CellPos::new(0, 0)];
    let fast = find_path_with(
        &mut scratch,
        &g,
        &src,
        &off,
        |_| iv(0, 5),
        OpId::new(0),
        wash2,
        AstarOptions::default(),
    );
    let slow = find_path_reference(
        &g,
        &src,
        &off,
        |_| iv(0, 5),
        OpId::new(0),
        wash2,
        AstarOptions::default(),
    );
    assert_eq!(fast, slow);
    assert!(fast.is_none());
    assert_eq!(
        scratch.stats.queries, 0,
        "early return must not count a query"
    );
    // Mixed on/off-grid targets still route (and count). Target (11, 0)
    // stays above the reserved y = 6 wall, so it is reachable in (0, 5).
    let mixed = [CellPos::new(99, 99), CellPos::new(11, 0)];
    let fast = find_path_with(
        &mut scratch,
        &g,
        &src,
        &mixed,
        |_| iv(0, 5),
        OpId::new(0),
        wash2,
        AstarOptions::default(),
    );
    let slow = find_path_reference(
        &g,
        &src,
        &mixed,
        |_| iv(0, 5),
        OpId::new(0),
        wash2,
        AstarOptions::default(),
    );
    assert_eq!(fast, slow);
    assert!(fast.is_some());
    assert_eq!(scratch.stats.queries, 1);
}

fn synthesized(b: &mfb_bench_suite::Benchmark) -> (SequencingGraph, Schedule, Placement) {
    let wash = LogLinearWash::paper_calibrated();
    let comps = b.components(&ComponentLibrary::default());
    let s = schedule(&b.graph, &comps, &wash, &SchedulerConfig::paper_dcsa()).unwrap();
    let nets = NetList::build(&s, &b.graph, &wash, 0.6, 0.4);
    let p = place_sa_auto(&comps, &nets, &SaConfig::paper()).unwrap();
    (b.graph.clone(), s, p)
}

#[test]
fn optimized_router_matches_reference_on_all_table1_benchmarks() {
    let wash = LogLinearWash::paper_calibrated();
    let config = RouterConfig::paper();
    for b in table1_benchmarks() {
        let (graph, s, p) = synthesized(&b);
        // Routings must match, and so must failures (e.g. Synthetic4 is
        // unroutable on a bare SA placement until the recovery ladder grows
        // the grid — both sides must agree on the exact error).
        let fast = route_dcsa(&s, &graph, &p, &wash, &config);
        let slow = route_dcsa_reference(&s, &graph, &p, &wash, &config);
        assert_eq!(fast, slow, "{} routing diverged", b.name);
    }
}

#[test]
fn optimized_router_matches_reference_under_defects() {
    let wash = LogLinearWash::paper_calibrated();
    let config = RouterConfig::paper();
    let b = table1_benchmarks().swap_remove(2); // CPA
    let (graph, s, p) = synthesized(&b);
    let mut defects = DefectMap::pristine();
    let spec = p.grid();
    for i in 0..spec.width.min(spec.height) / 3 {
        defects.block_cell(CellPos::new(3 * i, 3 * i));
    }
    let fast = route_dcsa_budgeted(
        &s,
        &graph,
        &p,
        &wash,
        &config,
        &defects,
        &Budget::unlimited(),
    );
    let slow = route_dcsa_reference_with_defects(&s, &graph, &p, &wash, &config, &defects);
    assert_eq!(fast, slow, "defect routing diverged");
}

/// The router's search-effort counters, read from a collected trace.
#[test]
fn scratch_stats_expose_search_effort() {
    let wash = LogLinearWash::paper_calibrated();
    let config = RouterConfig::paper();
    let b = table1_benchmarks().swap_remove(2); // CPA: routes on a bare SA placement
    let (graph, s, p) = synthesized(&b);
    let collector = mfb_obs::TraceCollector::new();
    let r = mfb_obs::with_collector(&collector, || {
        route_dcsa_budgeted(
            &s,
            &graph,
            &p,
            &wash,
            &config,
            &DefectMap::pristine(),
            &Budget::unlimited(),
        )
    })
    .unwrap();
    assert!(!r.paths.is_empty());
    if !cfg!(feature = "obs-trace") {
        return; // no counters are recorded
    }
    let totals = mfb_obs::counter_totals(&collector.finish().events);
    let counter = |name: &str| {
        totals
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no `{name}` counter in {totals:?}"))
            .total
    };
    let (queries, expansions) = (counter("astar.queries"), counter("astar.expansions"));
    assert!(queries > 0);
    assert!(expansions >= queries);
    assert!(counter("astar.heap_pushes") >= expansions);
}
