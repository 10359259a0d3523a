//! Corruption table: every row corrupts one artifact of a synthesized
//! solution. For each row no checker may panic, the replay must reject
//! the solution, and the DRC must report at least one error — in
//! particular, an input the shared input guard rejects must never check
//! clean.

use mfb_bench_suite::synth::SyntheticSpec;
use mfb_core::prelude::*;
use mfb_model::prelude::*;
use mfb_sched::prelude::{Schedule, WashEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

fn solved() -> (SequencingGraph, ComponentSet, Solution) {
    let g = SyntheticSpec::new(14, 1).generate();
    let comps = Allocation::new(2, 2, 2, 2).instantiate(&ComponentLibrary::default());
    let sol = Synthesizer::paper_dcsa()
        .synthesize(&g, &comps, &wash())
        .expect("synthesizes");
    (g, comps, sol)
}

/// Runs replay, DRC and analysis over one corrupted solution; returns
/// what went wrong, or `None` when the row holds.
fn check_row(g: &SequencingGraph, comps: &ComponentSet, sol: &Solution) -> Option<String> {
    let w = wash();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let replay_valid = sol.verify(g, comps, &w).is_valid();
        let drc = sol.drc(g, comps, &w);
        sol.analyze(g, comps, &w);
        (replay_valid, drc)
    }));
    match outcome {
        Err(_) => Some("a checker panicked".into()),
        Ok((true, _)) => Some("replay accepted the solution".into()),
        Ok((_, drc)) if drc.is_clean() => Some("DRC reported clean".into()),
        Ok(_) => None,
    }
}

/// Asserts every row of the table, reporting all failing rows at once.
fn assert_rows(g: &SequencingGraph, comps: &ComponentSet, rows: Vec<(String, Solution)>) {
    assert!(!rows.is_empty());
    let failures: Vec<String> = rows
        .iter()
        .filter_map(|(name, sol)| check_row(g, comps, sol).map(|why| format!("{name}: {why}")))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} rows failed:\n{}",
        failures.len(),
        rows.len(),
        failures.join("\n")
    );
}

#[test]
fn dangling_wash_component_is_not_silently_clean() {
    let (g, comps, mut sol) = solved();
    // A wash event naming a component that does not exist.
    let mut washes: Vec<WashEvent> = sol.schedule.washes().copied().collect();
    washes.push(WashEvent {
        component: ComponentId::new(999),
        residue: OpId::new(0),
        start: Instant::from_secs(0),
        end: Instant::from_secs(1),
    });
    sol.schedule = Schedule::new(
        sol.schedule.t_c,
        sol.schedule.ops().copied().collect(),
        sol.schedule.deliveries().copied().collect(),
        sol.schedule.transports().copied().collect(),
        washes,
    );
    assert_rows(&g, &comps, vec![("dangling wash component".into(), sol)]);
}

#[test]
fn corrupted_paths_never_panic_and_never_check_clean() {
    let (g, comps, sol) = solved();
    let n_ops = g.len() as u32;
    let n_tasks = sol.routing.paths.len() as u32;
    let grid = sol.placement.grid();
    let mut rows: Vec<(String, Solution)> = Vec::new();
    let mut row = |name: String, corrupt: &dyn Fn(&mut Solution)| {
        let mut corrupted = sol.clone();
        corrupt(&mut corrupted);
        rows.push((name, corrupted));
    };

    let pi = (0..sol.routing.paths.len())
        .find(|&i| sol.routing.paths[i].cells.len() > 2)
        .expect("a non-trivial path exists");
    row(format!("path {pi}: middle cell off grid"), &|s| {
        let path = &mut s.routing.paths[pi];
        let mid = path.cells.len() / 2;
        path.cells[mid] = CellPos::new(grid.width + 3, grid.height + 3);
    });
    for i in 0..sol.routing.paths.len() {
        row(format!("path {i}: fluid out of range"), &|s| {
            s.routing.paths[i].fluid = OpId::new(n_ops + 7);
        });
        row(format!("path {i}: another in-range fluid"), &|s| {
            let fluid = s.routing.paths[i].fluid.index() as u32;
            s.routing.paths[i].fluid = OpId::new((fluid + 1) % n_ops);
        });
        row(format!("path {i}: another in-range task"), &|s| {
            let task = s.routing.paths[i].task.index() as u32;
            s.routing.paths[i].task = TaskId::new((task + 1) % n_tasks);
        });
    }
    assert_rows(&g, &comps, rows);
}
