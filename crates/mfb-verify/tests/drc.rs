//! End-to-end DRC runs: a freshly synthesised solution is clean, and
//! targeted corruptions of each artifact trigger the expected rules.

use mfb_bench_suite::synth::SyntheticSpec;
use mfb_core::prelude::*;
use mfb_model::prelude::*;
use mfb_route::prelude::RouterConfig;
use mfb_sched::prelude::{Schedule, ScheduledOp, TransportTask};
use mfb_verify::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

fn solved(seed: u64) -> (SequencingGraph, ComponentSet, Solution) {
    let g = SyntheticSpec::new(14, seed).generate();
    let comps = Allocation::new(2, 2, 2, 2).instantiate(&ComponentLibrary::default());
    let sol = Synthesizer::paper_dcsa()
        .synthesize(&g, &comps, &wash())
        .expect("synthesizes");
    (g, comps, sol)
}

fn run_drc(
    g: &SequencingGraph,
    comps: &ComponentSet,
    sol: &Solution,
    registry: &RuleRegistry,
) -> VerifyReport {
    let pristine = DefectMap::pristine();
    sol.drc_with(
        g,
        comps,
        &wash(),
        &pristine,
        RouterConfig::paper(),
        registry,
    )
}

/// Rebuilds a schedule from its parts so tests can corrupt single fields.
fn rebuild(s: &Schedule, ops: Vec<ScheduledOp>, transports: Vec<TransportTask>) -> Schedule {
    Schedule::new(
        s.t_c,
        ops,
        s.deliveries().copied().collect(),
        transports,
        s.washes().copied().collect(),
    )
}

#[test]
fn clean_dcsa_pipeline_has_zero_errors() {
    let registry = RuleRegistry::with_all_rules();
    for seed in [1, 2, 3] {
        let (g, comps, sol) = solved(seed);
        let report = run_drc(&g, &comps, &sol, &registry);
        let errors: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "seed {seed}: {errors:?}");
        assert!(report.exit_code() <= 1, "warnings at most");
    }
}

#[test]
fn clean_baseline_pipeline_has_zero_errors() {
    let g = SyntheticSpec::new(14, 5).generate();
    let comps = Allocation::new(2, 2, 2, 2).instantiate(&ComponentLibrary::default());
    let sol = Synthesizer::paper_baseline()
        .synthesize(&g, &comps, &wash())
        .expect("synthesizes");
    let report = run_drc(&g, &comps, &sol, &RuleRegistry::with_all_rules());
    assert!(report.is_clean(), "{:?}", report.diagnostics);
}

#[test]
fn teleported_cell_triggers_route_rules() {
    let (g, comps, mut sol) = solved(1);
    let pi = (0..sol.routing.paths.len())
        .find(|&i| sol.routing.paths[i].cells.len() > 2)
        .expect("a non-trivial path exists");
    let grid = sol.placement.grid();
    let mid = sol.routing.paths[pi].cells.len() / 2;
    sol.routing.paths[pi].cells[mid] = CellPos::new(grid.width - 1, grid.height - 1);
    let report = run_drc(&g, &comps, &sol, &RuleRegistry::with_all_rules());
    assert!(!report.is_clean());
    let route_rules = ["DRC-ROUTE-001", "DRC-ROUTE-002", "DRC-ROUTE-003"];
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| route_rules.contains(&d.rule.as_str())),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn rewired_transport_triggers_binding_rule() {
    let (g, comps, mut sol) = solved(1);
    // Point some transport's source at a different placed component, far
    // from where its path actually starts.
    let mut transports: Vec<TransportTask> = sol.schedule.transports().copied().collect();
    let (ti, new_src) = transports
        .iter()
        .enumerate()
        .find_map(|(i, t)| {
            let path = sol.routing.paths.iter().find(|p| p.task == t.id)?;
            if path.is_empty() {
                return None;
            }
            let start = path.cells[0];
            (0..sol.placement.len() as u32)
                .map(ComponentId::new)
                .find(|&c| {
                    c != t.src && c != t.dst && !sol.placement.rect(c).inflated(1).contains(start)
                })
                .map(|c| (i, c))
        })
        .expect("a rewirable transport exists");
    transports[ti].src = new_src;
    sol.schedule = rebuild(
        &sol.schedule,
        sol.schedule.ops().copied().collect(),
        transports,
    );
    let report = run_drc(&g, &comps, &sol, &RuleRegistry::with_all_rules());
    assert!(
        report.by_rule("DRC-BIND-001").count() > 0,
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn dangling_binding_is_reported_without_panicking() {
    let (g, comps, mut sol) = solved(2);
    // Bind the first operation to a component that does not exist: the
    // legacy checkers would panic on this, the DRC must report it.
    let mut ops: Vec<ScheduledOp> = sol.schedule.ops().copied().collect();
    ops[0].component = ComponentId::new(999);
    let transports = sol.schedule.transports().copied().collect();
    sol.schedule = rebuild(&sol.schedule, ops, transports);
    let report = run_drc(&g, &comps, &sol, &RuleRegistry::with_all_rules());
    assert!(!report.is_clean());
    assert!(
        report
            .by_rule("DRC-BIND-001")
            .any(|d| d.message.contains("c999")),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn cached_plug_collision_triggers_cache_rule() {
    // Find a solution with a cached transport, then steer another fluid's
    // path through the parked plug during the cache window.
    let registry = RuleRegistry::with_all_rules();
    for seed in 1..40 {
        let (g, comps, mut sol) = solved(seed);
        let cached = sol.schedule.transports().copied().find(|t| {
            !t.cache_time().is_zero()
                && sol
                    .routing
                    .paths
                    .iter()
                    .any(|p| p.task == t.id && !p.is_empty())
        });
        let Some(t) = cached else { continue };
        let pi = sol
            .routing
            .paths
            .iter()
            .position(|p| p.task == t.id)
            .expect("path found above");
        let cache = Interval::new(t.arrive, t.consumed_at);
        let parked = sol.routing.paths[pi]
            .occupancies()
            .find(|&(_, w)| w.overlaps(cache));
        let Some((cell, window)) = parked else {
            continue;
        };
        let fluid = sol.routing.paths[pi].fluid;
        let Some(qi) = (0..sol.routing.paths.len()).find(|&i| {
            i != pi && !sol.routing.paths[i].is_empty() && sol.routing.paths[i].fluid != fluid
        }) else {
            continue;
        };
        sol.routing.paths[qi].cells[0] = cell;
        sol.routing.paths[qi].windows[0] = window;
        let report = run_drc(&g, &comps, &sol, &registry);
        assert!(
            report.by_rule("DRC-CACHE-001").count() > 0,
            "seed {seed}: {:?}",
            report.diagnostics
        );
        return;
    }
    panic!("no seed produced a cached transport to corrupt");
}

#[test]
fn disabling_a_rule_suppresses_its_findings() {
    let (g, comps, mut sol) = solved(1);
    let pi = (0..sol.routing.paths.len())
        .find(|&i| sol.routing.paths[i].cells.len() > 2)
        .expect("a non-trivial path exists");
    let grid = sol.placement.grid();
    let mid = sol.routing.paths[pi].cells.len() / 2;
    sol.routing.paths[pi].cells[mid] = CellPos::new(grid.width - 1, grid.height - 1);

    let mut registry = RuleRegistry::with_all_rules();
    let with_all = run_drc(&g, &comps, &sol, &registry);
    let triggered: Vec<String> = with_all
        .diagnostics
        .iter()
        .map(|d| d.rule.clone())
        .collect();
    assert!(!triggered.is_empty());
    for rule in &triggered {
        registry.disable(rule);
    }
    let with_none = run_drc(&g, &comps, &sol, &registry);
    assert_eq!(
        with_none
            .diagnostics
            .iter()
            .filter(|d| triggered.contains(&d.rule))
            .count(),
        0,
        "disabled rules still reported"
    );
}

#[test]
fn registry_findings_superset_legacy_checkers() {
    // For a corrupted (but in-range) artifact, every legacy violation
    // appears in the registry's report under its mapped rule id.
    let (g, comps, mut sol) = solved(3);
    let pi = (0..sol.routing.paths.len())
        .find(|&i| sol.routing.paths[i].cells.len() > 2)
        .expect("a non-trivial path exists");
    let grid = sol.placement.grid();
    sol.routing.paths[pi].cells[1] = CellPos::new(grid.width - 1, grid.height - 1);

    let w = wash();
    let pristine = DefectMap::pristine();
    let input = VerifyInput::new(
        &g,
        &comps,
        &sol.schedule,
        &sol.placement,
        &sol.routing,
        &w,
        RouterConfig::paper(),
        &pristine,
    );
    let report = RuleRegistry::with_all_rules().run(&input);
    let legacy_sched = mfb_sched::prelude::validate(&sol.schedule, &g, &comps);
    let legacy_sim =
        mfb_sim::prelude::replay(&g, &comps, &sol.schedule, &sol.placement, &sol.routing, &w);
    for v in &legacy_sched {
        let rule = rule_for_schedule_violation(v);
        assert!(
            report.by_rule(rule).any(|d| d.message == v.to_string()),
            "missing {rule}: {v}"
        );
    }
    for v in &legacy_sim.violations {
        let rule = rule_for_sim_violation(v);
        assert!(
            report.by_rule(rule).any(|d| d.message == v.to_string()),
            "missing {rule}: {v}"
        );
    }
}

#[test]
fn diagnostic_serde_round_trip() {
    let (g, comps, mut sol) = solved(1);
    let grid = sol.placement.grid();
    let pi = (0..sol.routing.paths.len())
        .find(|&i| sol.routing.paths[i].cells.len() > 2)
        .expect("a non-trivial path exists");
    sol.routing.paths[pi].cells[1] = CellPos::new(grid.width - 1, grid.height - 1);
    let report = run_drc(&g, &comps, &sol, &RuleRegistry::with_all_rules());
    assert!(!report.diagnostics.is_empty());
    let json = serde_json::to_string(&report).unwrap();
    let back: VerifyReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
}

/// PCR as the paper flow synthesizes it.
fn pcr() -> (SequencingGraph, ComponentSet, Solution) {
    let b = mfb_bench_suite::benchmark_by_name("PCR").expect("PCR is a Table-I benchmark");
    let comps = b.components(&ComponentLibrary::default());
    let sol = Synthesizer::paper_dcsa()
        .synthesize(&b.graph, &comps, &wash())
        .expect("PCR synthesizes");
    (b.graph, comps, sol)
}

#[test]
fn drc_with_checks_the_passed_defect_map() {
    let (g, comps, sol) = pcr();
    let registry = RuleRegistry::with_all_rules();
    let crossed = sol.routing.paths[0].cells[0];
    let mut defects = DefectMap::pristine();
    defects.block_cell(crossed);
    let report = sol.drc_with(
        &g,
        &comps,
        &wash(),
        &defects,
        RouterConfig::paper(),
        &registry,
    );
    assert!(
        report
            .by_rule("DRC-FAULT-001")
            .any(|d| d.location == Location::Cell(crossed)),
        "a path over a blocked cell must trip DRC-FAULT-001: {:?}",
        report.diagnostics
    );
    // The same solution on a pristine chip has nothing to report.
    let clean = sol.drc(&g, &comps, &wash());
    assert_eq!(clean.by_rule("DRC-FAULT-001").count(), 0);
}

#[test]
fn wash_plan_routes_flushes_around_blocked_cells() {
    let (g, comps, sol) = pcr();
    let w = wash();
    let input = |defects| {
        VerifyInput::new(
            &g,
            &comps,
            &sol.schedule,
            &sol.placement,
            &sol.routing,
            &w,
            RouterConfig::paper(),
            defects,
        )
    };
    let pristine = DefectMap::pristine();
    let undamaged = input(&pristine);
    let plan = undamaged.wash_plan().expect("PCR is checkable");
    assert_eq!(plan.flushes.len(), 5, "PCR plans five buffer flushes");

    // A flush cell that no routed path and no component uses: blocking it
    // leaves the solution itself legal.
    let grid = sol.placement.grid();
    let used = |c: CellPos| {
        sol.routing.paths.iter().any(|p| p.cells.contains(&c))
            || sol.placement.rects().iter().any(|r| r.contains(c))
    };
    let blocked = plan
        .flushes
        .iter()
        .flat_map(|f| f.cells.iter().copied())
        .find(|&c| grid.contains(c) && !used(c))
        .expect("some flush runs through an otherwise unused cell");
    let mut defects = DefectMap::pristine();
    defects.block_cell(blocked);

    let damaged = input(&defects);
    let plan = damaged.wash_plan().expect("PCR is checkable");
    for f in &plan.flushes {
        assert!(
            !f.cells.contains(&blocked),
            "flush for {} crosses blocked cell {blocked}",
            f.wash.cell
        );
    }
    let registry = RuleRegistry::with_all_rules();
    assert_eq!(
        registry.run(&damaged).by_rule("DRC-FAULT-001").count(),
        0,
        "the blocked cell is unused by the solution"
    );
}
