//! End-to-end schedule → place → route on the Table-I benchmarks.
//!
//! Routing feasibility depends on the placement: a layout can box a
//! destination in with wash shadows exactly when a transport needs through.
//! The full flow in `mfb-core` retries placement seeds with routing
//! feedback; these tests mirror that loop in miniature.

use mfb_bench_suite::table1_benchmarks;
use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_route::prelude::*;
use mfb_sched::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

/// Places with successive seeds until the DCSA router succeeds.
fn place_and_route(
    graph: &SequencingGraph,
    comps: &ComponentSet,
    s: &Schedule,
) -> Option<(Placement, Routing)> {
    let nets = NetList::build(s, graph, &wash(), 0.6, 0.4);
    let (pristine, budget, router) = (
        DefectMap::pristine(),
        Budget::unlimited(),
        RouterConfig::paper(),
    );
    for seed in 0..24u64 {
        let cfg = SaConfig::paper().with_seed(0xD1CE + seed);
        let (placement, _) =
            place_sa(comps, &nets, auto_grid(comps), &cfg, &pristine, &budget).ok()?;
        if let Ok(routing) = route_dcsa(s, graph, &placement, &wash(), &router, &pristine, &budget)
        {
            return Some((placement, routing));
        }
    }
    None
}

#[test]
fn dcsa_pipeline_routes_every_benchmark_without_delay() {
    let lib = ComponentLibrary::default();
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        let s = schedule(
            &b.graph,
            &comps,
            &wash(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        let (_placement, routing) = place_and_route(&b.graph, &comps, &s)
            .unwrap_or_else(|| panic!("{}: no routable placement in 24 seeds", b.name));
        assert_eq!(
            routing.completion(),
            s.completion_time(),
            "{}: DCSA routing must not delay",
            b.name
        );
        assert_eq!(routing.paths.len(), s.transports().len());
    }
}

#[test]
fn baseline_pipeline_routes_every_benchmark() {
    let lib = ComponentLibrary::default();
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        let s = schedule(
            &b.graph,
            &comps,
            &wash(),
            &SchedulerConfig::paper_baseline(),
            &DefectMap::pristine(),
        )
        .unwrap();
        let nets = NetList::build(&s, &b.graph, &wash(), 0.6, 0.4);
        let grid = auto_grid(&comps);
        let placement = place_constructive(&comps, &nets, grid, &DefectMap::pristine()).unwrap();
        let routing = route_corrected(
            &s,
            &b.graph,
            &placement,
            &wash(),
            &RouterConfig::paper(),
            &DefectMap::pristine(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert!(routing.completion() >= s.completion_time());
        assert_eq!(routing.paths.len(), s.transports().len());
    }
}

#[test]
fn routed_benchmarks_are_conflict_free() {
    let lib = ComponentLibrary::default();
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        let s = schedule(
            &b.graph,
            &comps,
            &wash(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        let Some((_p, r)) = place_and_route(&b.graph, &comps, &s) else {
            panic!("{}: unroutable", b.name);
        };
        for i in 0..r.paths.len() {
            for j in (i + 1)..r.paths.len() {
                assert!(
                    !r.paths[i].conflicts_with(&r.paths[j]),
                    "{}: tasks {i} and {j} conflict",
                    b.name
                );
            }
        }
    }
}
