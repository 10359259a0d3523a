//! The complete downstream-user journey, end to end: author an assay in
//! the text format, synthesize it, audit it, archive the solution as JSON,
//! reload it, and re-validate — every public surface a user touches, in
//! one pass.

use mfb_core::prelude::*;
use mfb_model::prelude::*;
use mfb_route::prelude::{plan_washes, RouterConfig};
use mfb_sim::prelude::event_log;
use mfb_viz::prelude::*;

const ASSAY: &str = r#"
assay "journey"
op prepA   mix    5s wash=4s
op prepB   mix    5s wash=2s
op merge   mix    4s wash=6s
op incub   heat   3s wash=1s
op split   filter 3s wash=2s
op readout detect 4s wash=0.2s
edge prepA -> merge -> incub -> split -> readout
edge prepB -> merge
alloc 2 1 1 1
"#;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

#[test]
fn author_synthesize_audit_archive_reload() {
    // 1. Author.
    let assay = parse_assay(ASSAY).expect("parses");
    let alloc = assay.allocation.expect("file declares an allocation");
    let comps = alloc.instantiate(&ComponentLibrary::default());
    assert!(comps.covers(assay.graph.ops().map(|o| o.kind())));

    // 2. Synthesize and verify.
    let solution = Synthesizer::paper_dcsa()
        .synthesize(&assay.graph, &comps, &wash())
        .expect("synthesizes");
    let report = solution.verify(&assay.graph, &comps, &wash());
    assert!(report.is_valid(), "{:?}", report.violations);

    // 3. Audit: physics, area, washes, control.
    let audit = audit_transport_times(&solution, &PressureDriven::typical_pdms());
    assert!(audit.is_sound(), "short chip paths fit 2 s");
    let area = area_report(&solution);
    assert!(area.occupied_mm2 > 0.0);
    let plan = plan_washes(
        &solution.routing,
        &assay.graph,
        &solution.placement,
        &wash(),
        &RouterConfig::paper(),
        &DefectMap::pristine(),
    );
    assert!(plan.coverage() > 0.99, "every wash should be flushable");
    let control =
        mfb_control::ControlEstimate::of_chip(&solution.routing, &solution.placement, &comps);
    assert!(control.valves > 0);

    // 4. Render everything a user would look at.
    let gantt = render_gantt(&solution.schedule, &comps);
    assert!(gantt.contains("mixer"));
    let svg = render_svg(&solution.placement, &comps, Some(&solution.routing));
    assert!(svg.starts_with("<svg"));
    let svg_gantt = render_svg_gantt(&solution.schedule, &comps);
    assert!(svg_gantt.contains("</svg>"));
    let heat = render_heatmap(&solution.placement, &solution.routing);
    assert!(heat.contains('#'));
    let events = event_log(&solution.schedule, &solution.routing);
    assert!(!events.is_empty());

    // 5. Archive, reload, re-validate: the JSON is the solution.
    let json = serde_json::to_string(&solution).expect("serializes");
    let reloaded: Solution = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(reloaded, solution);
    let report2 = reloaded.verify(&assay.graph, &comps, &wash());
    assert!(report2.is_valid());

    // 6. The text format round-trips the assay itself.
    let text = write_assay(&assay.graph, Some(alloc));
    let again = parse_assay(&text).expect("round trip");
    assert_eq!(again.graph.len(), assay.graph.len());
    assert_eq!(again.allocation, Some(alloc));
}

#[test]
fn concentration_analysis_matches_assay_chemistry() {
    // The CPA reconstruction is a dilution ladder: concentrations must
    // decay monotonically along every chain.
    let b = mfb_bench_suite::table1_benchmarks()
        .into_iter()
        .find(|b| b.name == "CPA")
        .unwrap();
    let g = &b.graph;
    let root = g.sources().next().unwrap();
    let mut map = ConcentrationMap::new().source(root, 1.0, 1.0);
    for o in g.op_ids() {
        if o != root && g.op(o).kind() == OperationKind::Mix {
            // Every dilution/dye mix adds one part of buffer or reagent.
            map = map.source(o, 0.0, 1.0);
        }
    }
    let conc = map.profile(g);
    assert!((conc[root.index()] - 1.0).abs() < 1e-12);
    for (p, c) in g.edges() {
        if g.op(c).kind() == OperationKind::Mix {
            assert!(
                conc[c.index()] <= conc[p.index()] + 1e-12,
                "dilution must not concentrate: {p} {} -> {c} {}",
                conc[p.index()],
                conc[c.index()]
            );
        }
    }
    // Detects see exactly what their parent produced.
    for o in g.op_ids() {
        if g.op(o).kind() == OperationKind::Detect {
            let parent = g.parents(o)[0];
            assert_eq!(conc[o.index()], conc[parent.index()]);
        }
    }
}
