//! DRC on the shipped example assay: the full pipeline comes out clean,
//! and a corrupted artifact reports the expected rule ids through all
//! three output formats (pretty, JSON, SARIF).

use mfb_core::prelude::*;
use mfb_model::prelude::*;
use mfb_verify::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

fn example_pipeline() -> (SequencingGraph, ComponentSet, Solution) {
    let text = include_str!("../assets/example.assay");
    let assay = mfb_model::text::parse_assay(text).expect("example assay parses");
    let alloc = assay.allocation.expect("example assay has an alloc line");
    let comps = alloc.instantiate(&ComponentLibrary::default());
    let sol = Synthesizer::paper_dcsa()
        .synthesize(&assay.graph, &comps, &wash())
        .expect("example assay synthesizes");
    (assay.graph, comps, sol)
}

#[test]
fn example_assay_pipeline_is_drc_clean() {
    let (g, comps, sol) = example_pipeline();
    let report = sol.drc(&g, &comps, &wash());
    assert_eq!(
        report.count(Severity::Error),
        0,
        "errors on the example assay: {:?}",
        report.diagnostics
    );
}

#[test]
fn corrupted_example_reports_rule_ids_in_all_formats() {
    let (g, comps, mut sol) = example_pipeline();
    // Teleport a mid-path cell: breaks contiguity (DRC-ROUTE-001) at
    // minimum, possibly traversal/conflict rules too.
    let pi = (0..sol.routing.paths.len())
        .find(|&i| sol.routing.paths[i].cells.len() > 2)
        .expect("the example assay routes at least one multi-cell path");
    let grid = sol.placement.grid();
    let mid = sol.routing.paths[pi].cells.len() / 2;
    sol.routing.paths[pi].cells[mid] = CellPos::new(grid.width - 1, grid.height - 1);

    let registry = RuleRegistry::with_all_rules();
    let report = sol.drc_with(
        &g,
        &comps,
        &wash(),
        &DefectMap::pristine(),
        mfb_route::prelude::RouterConfig::paper(),
        &registry,
    );
    assert!(report.count(Severity::Error) > 0);
    let expected: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
    assert!(
        expected.iter().any(|r| r.starts_with("DRC-ROUTE-")),
        "teleport should trip a routing rule: {expected:?}"
    );

    let pretty = render_pretty(&report);
    let json = render_json(&report);
    let sarif = render_sarif(&report, &registry);
    for rule in &expected {
        assert!(pretty.contains(rule), "pretty output missing {rule}");
        assert!(json.contains(rule), "JSON output missing {rule}");
        assert!(sarif.contains(rule), "SARIF output missing {rule}");
    }

    // Both JSON documents parse and carry the right headline fields.
    let json_doc: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert!(json_doc.get("summary").is_some());
    let sarif_doc: serde_json::Value = serde_json::from_str(&sarif).unwrap();
    assert_eq!(
        sarif_doc.get("version").and_then(serde_json::Value::as_str),
        Some("2.1.0")
    );
}

/// `render_json` digests of the DRC and analysis reports, one line per
/// design (see `report_pins`). `98a51f26cbab3a0d` is the clean report.
const REPORT_PINS: &str = "\
PCR 98a51f26cbab3a0d 98a51f26cbab3a0d
PCR/teleported b70d64b386d72be5 98a51f26cbab3a0d
IVD 98a51f26cbab3a0d 98a51f26cbab3a0d
IVD/teleported 6a1ec4255f03a499 98a51f26cbab3a0d
CPA 98a51f26cbab3a0d 98a51f26cbab3a0d
CPA/teleported e49cd540c9961d47 98a51f26cbab3a0d
Synthetic1 7173d158057e7547 db493fa9092e98c5
Synthetic1/teleported 77a02fe8341439da db493fa9092e98c5
binary_mix_tree 98a51f26cbab3a0d 98a51f26cbab3a0d
binary_mix_tree/teleported 9b2004bb39f9b6a3 98a51f26cbab3a0d
defect_ladder 98a51f26cbab3a0d 98a51f26cbab3a0d
defect_ladder/teleported 9b2004bb39f9b6a3 98a51f26cbab3a0d
farey_dilution 98a51f26cbab3a0d 98a51f26cbab3a0d
farey_dilution/teleported c831c4f27be68581 98a51f26cbab3a0d
ivd_panel 98a51f26cbab3a0d 98a51f26cbab3a0d
ivd_panel/teleported 9b2004bb39f9b6a3 98a51f26cbab3a0d
pcr_basic 98a51f26cbab3a0d 98a51f26cbab3a0d
pcr_basic/teleported c831c4f27be68581 98a51f26cbab3a0d
pcr_multiplex 98a51f26cbab3a0d 98a51f26cbab3a0d
pcr_multiplex/teleported 69754a7e31950d83 98a51f26cbab3a0d
protein_wash_stress 98a51f26cbab3a0d 98a51f26cbab3a0d
protein_wash_stress/teleported c831c4f27be68581 98a51f26cbab3a0d
storage_interleave 98a51f26cbab3a0d 98a51f26cbab3a0d
storage_interleave/teleported 6a1ec4255f03a499 98a51f26cbab3a0d
";

/// FNV-1a 64 of a rendered report: a compact, stable digest.
fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Two pin lines, `name drc-digest analysis-digest`, both reports rendered
/// with `render_json`: one for the solution and one for a copy whose
/// longest path has a mid cell teleported to the far corner, so the
/// checkers have findings to report.
fn report_pins(
    name: &str,
    graph: &SequencingGraph,
    comps: &ComponentSet,
    sol: &Solution,
) -> String {
    let line = |tag: &str, sol: &Solution| {
        let drc = render_json(&sol.drc(graph, comps, &wash()));
        let analysis = render_json(&sol.analyze(graph, comps, &wash()));
        format!(
            "{name}{tag} {:016x} {:016x}\n",
            fnv64(&drc),
            fnv64(&analysis)
        )
    };
    let mut broken = sol.clone();
    let grid = broken.placement.grid();
    if let Some(path) = broken
        .routing
        .paths
        .iter_mut()
        .max_by_key(|p| p.cells.len())
    {
        let mid = path.cells.len() / 2;
        path.cells[mid] = CellPos::new(grid.width - 1, grid.height - 1);
    }
    line("", sol) + &line("/teleported", &broken)
}

/// The DRC and analysis reports of four Table-I benchmarks (Synthetic1
/// carries a wash-coverage warning) and of every corpus assay, each also
/// with a corrupted path, are pinned byte for byte: a change to a checker's input
/// plumbing must not change what it reports.
#[test]
fn report_digests_are_pinned() {
    let mut pins = String::new();
    for b in mfb_bench_suite::table1_benchmarks() {
        if !["PCR", "IVD", "CPA", "Synthetic1"].contains(&b.name) {
            continue;
        }
        let comps = b.components(&ComponentLibrary::default());
        let sol = Synthesizer::paper_dcsa()
            .synthesize(&b.graph, &comps, &wash())
            .expect("Table-I benchmark synthesizes");
        pins.push_str(&report_pins(b.name, &b.graph, &comps, &sol));
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
        let sol = Synthesizer::new(SynthesisConfig::for_flow(&file.flow))
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
        pins.push_str(&report_pins(&name, &file.graph, &comps, &sol));
    }
    assert_eq!(pins, REPORT_PINS, "report digests moved");
}
