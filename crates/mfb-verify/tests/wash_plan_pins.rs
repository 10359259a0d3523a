//! The buffer-flush wash plans of the Table-I benchmarks, every corpus
//! assay and a damaged PCR chip are pinned byte for byte: a faster planner
//! must return the same `WashPlan`, flush for flush and cell for cell.

use mfb_core::prelude::*;
use mfb_model::hash::StableHasher;
use mfb_model::prelude::*;
use mfb_route::prelude::{plan_washes, RouterConfig, WashPlan};

/// One line per design: `name flushes/incidental/unplanned digest`, the
/// digest being the FNV-64 of the plan's `Debug` rendering.
const PLAN_PINS: &str = "\
PCR 5/0/0 769262fd3708552e
PCR/damaged 4/1/0 bb9638c828d593ba
IVD 18/1/0 8391046d972115e0
CPA 30/9/0 71d127aaf49f05c0
Synthetic1 18/0/1 b50f9503ec1568d7
Synthetic2 58/24/1 16ffb54349b29524
Synthetic3 87/13/2 81682ef4568c211f
Synthetic4 181/42/2 f73a9acdfdcd891b
binary_mix_tree 24/1/0 25f75e1d7eb91326
defect_ladder 0/0/0 3f347fc13a46b68f
farey_dilution 0/0/0 3f347fc13a46b68f
ivd_panel 0/0/0 3f347fc13a46b68f
pcr_basic 0/0/0 3f347fc13a46b68f
pcr_multiplex 4/0/0 88ace8cb37949e24
protein_wash_stress 0/0/0 3f347fc13a46b68f
storage_interleave 7/0/0 21c9b94eb947b5a4
";

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

fn pin(name: &str, plan: &WashPlan) -> String {
    let mut h = StableHasher::new();
    h.write_bytes(format!("{plan:?}").as_bytes());
    format!(
        "{name} {}/{}/{} {}\n",
        plan.flushes.len(),
        plan.incidental,
        plan.unplanned.len(),
        h.finish().to_hex()
    )
}

fn plan(
    graph: &SequencingGraph,
    sol: &Solution,
    router: &RouterConfig,
    defects: &DefectMap,
) -> WashPlan {
    plan_washes(
        &sol.routing,
        graph,
        &sol.placement,
        &wash(),
        router,
        defects,
    )
}

/// PCR's plan on a chip whose one blocked cell lies on a flush path but
/// under no routed path or component, so the solution itself stays legal
/// (the fixture of `drc::wash_plan_routes_flushes_around_blocked_cells`).
fn damaged_pcr(graph: &SequencingGraph, sol: &Solution) -> WashPlan {
    let router = RouterConfig::paper();
    let undamaged = plan(graph, sol, &router, &DefectMap::pristine());
    let grid = sol.placement.grid();
    let used = |c: CellPos| {
        sol.routing.paths.iter().any(|p| p.cells.contains(&c))
            || sol.placement.rects().iter().any(|r| r.contains(c))
    };
    let blocked = undamaged
        .flushes
        .iter()
        .flat_map(|f| f.cells.iter().copied())
        .find(|&c| grid.contains(c) && !used(c))
        .expect("some flush runs through an otherwise unused cell");
    let mut defects = DefectMap::pristine();
    defects.block_cell(blocked);
    plan(graph, sol, &router, &defects)
}

#[test]
fn wash_plans_are_pinned() {
    let mut pins = String::new();
    for b in mfb_bench_suite::table1_benchmarks() {
        if !b.name.starts_with("Synthetic") && !["PCR", "IVD", "CPA"].contains(&b.name) {
            continue;
        }
        let comps = b.components(&ComponentLibrary::default());
        let sol = Synthesizer::paper_dcsa()
            .synthesize(&b.graph, &comps, &wash())
            .expect("Table-I benchmark synthesizes");
        let pristine = DefectMap::pristine();
        pins.push_str(&pin(
            b.name,
            &plan(&b.graph, &sol, &RouterConfig::paper(), &pristine),
        ));
        if b.name == "PCR" {
            pins.push_str(&pin("PCR/damaged", &damaged_pcr(&b.graph, &sol)));
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("assets/corpus exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "assay"))
        .collect();
    files.sort();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("corpus file reads");
        let file = mfb_model::text::parse_assay(&text).expect("corpus file parses");
        let comps = file
            .allocation
            .expect("corpus files carry an alloc line")
            .instantiate(&ComponentLibrary::default());
        let config = SynthesisConfig::for_flow(&file.flow);
        let sol = Synthesizer::new(config.clone())
            .synthesize_with(
                &file.graph,
                &comps,
                &wash(),
                &file.defects,
                None,
                &Budget::unlimited(),
            )
            .expect("corpus files synthesize");
        let name = path.file_stem().expect("file name").to_string_lossy();
        pins.push_str(&pin(
            &name,
            &plan(&file.graph, &sol, &config.router, &file.defects),
        ));
    }
    assert_eq!(pins, PLAN_PINS, "wash plans moved:\n{pins}");
}
