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

#[test]
fn arena_dijkstra_matches_reference() {
    let g = busy_grid();
    let mut scratch = SearchScratch::new();
    for opts in [AstarOptions::default(), AstarOptions { use_weights: false }] {
        for w in [iv(0, 5), iv(9, 25)] {
            let fast = dijkstra_map_with(
                &mut scratch,
                &g,
                &[CellPos::new(0, 0), CellPos::new(11, 11)],
                w,
                OpId::new(1),
                wash2,
                opts,
            );
            let slow = dijkstra_map_reference(
                &g,
                &[CellPos::new(0, 0), CellPos::new(11, 11)],
                w,
                OpId::new(1),
                wash2,
                opts,
            );
            assert_eq!(fast, slow, "dijkstra map diverged for {w:?}");
        }
    }
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
        &mut SearchScratch::new(),
        &Budget::unlimited(),
    );
    let slow = route_dcsa_reference_with_defects(&s, &graph, &p, &wash, &config, &defects);
    assert_eq!(fast, slow, "defect routing diverged");
}

#[test]
fn scratch_stats_expose_search_effort() {
    let wash = LogLinearWash::paper_calibrated();
    let config = RouterConfig::paper();
    let b = table1_benchmarks().swap_remove(2); // CPA: routes on a bare SA placement
    let (graph, s, p) = synthesized(&b);
    let mut scratch = SearchScratch::new();
    let r = route_dcsa_budgeted(
        &s,
        &graph,
        &p,
        &wash,
        &config,
        &DefectMap::pristine(),
        &mut scratch,
        &Budget::unlimited(),
    )
    .unwrap();
    assert!(!r.paths.is_empty());
    assert!(scratch.stats.queries > 0);
    assert!(scratch.stats.expansions >= scratch.stats.queries);
    assert!(scratch.stats.heap_pushes >= scratch.stats.expansions);
}
