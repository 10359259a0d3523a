//! Robustness suite: hostile inputs must produce structured errors (never
//! panics), defect-aware synthesis must provably avoid defects, and the
//! escalation ladder must recover failures the flat reseed loop cannot.

use mfb_bench_suite::{benchmark_by_name, synth::SyntheticSpec};
use mfb_core::prelude::*;
use mfb_model::prelude::*;
use mfb_route::prelude::RouterConfig;
use mfb_verify::prelude::RuleRegistry;
use proptest::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

// ---------------------------------------------------------------- hostile

#[test]
fn zero_component_allocation_is_a_structured_error() {
    let g = SyntheticSpec::new(6, 3).generate();
    let comps = Allocation::new(0, 0, 0, 0).instantiate(&ComponentLibrary::default());
    let err = Synthesizer::paper_dcsa()
        .synthesize(&g, &comps, &wash())
        .unwrap_err();
    assert!(matches!(err, SynthesisError::Sched(_)), "{err}");
}

#[test]
fn one_by_one_grid_is_a_structured_error() {
    let g = SyntheticSpec::new(6, 3).generate();
    let comps = Allocation::new(2, 2, 2, 2).instantiate(&ComponentLibrary::default());
    let mut cfg = SynthesisConfig::paper_dcsa();
    cfg.grid = Some(GridSpec::new(1, 1, 10.0));
    let err = Synthesizer::new(cfg)
        .synthesize(&g, &comps, &wash())
        .unwrap_err();
    assert!(matches!(err, SynthesisError::Place(_)), "{err}");
}

#[test]
fn cyclic_assays_never_reach_the_synthesizer() {
    let mut b = SequencingGraph::builder();
    let d = DiffusionCoefficient::PROTEIN;
    let a = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
    let c = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
    b.edge(a, c).unwrap();
    b.edge(c, a).unwrap();
    assert!(b.build().is_err(), "a directed cycle must fail graph build");
}

#[test]
fn fully_blocked_defect_map_is_a_structured_error() {
    let g = SyntheticSpec::new(6, 3).generate();
    let comps = Allocation::new(2, 2, 2, 2).instantiate(&ComponentLibrary::default());
    let grid = GridSpec::square(20);
    let mut defects = DefectMap::pristine();
    for y in 0..grid.height {
        for x in 0..grid.width {
            defects.block_cell(CellPos::new(x, y));
        }
    }
    let mut cfg = SynthesisConfig::paper_dcsa();
    cfg.grid = Some(grid);
    let err = Synthesizer::new(cfg)
        .synthesize_with(&g, &comps, &wash(), &defects, None, &Budget::unlimited())
        .unwrap_err();
    assert!(matches!(err, SynthesisError::Place(_)), "{err}");
}

// ------------------------------------------------------- ladder acceptance

/// The acceptance demonstration: a Table-I benchmark plus a defect map
/// that the flat reseed-only loop cannot synthesize, but the escalation
/// ladder recovers by growing the grid past the damaged region.
#[test]
fn ladder_recovers_a_table1_defect_combo_reseeding_cannot() {
    let b = benchmark_by_name("PCR").unwrap();
    let comps = b.components(&ComponentLibrary::default());
    let w = wash();
    let synth = Synthesizer::paper_dcsa();

    // Discover the auto grid, then declare every one of its cells dead —
    // the chip's whole original area is damaged, and only growth can add
    // pristine cells.
    let pristine = synth.synthesize(&b.graph, &comps, &w).unwrap();
    let grid = pristine.placement.grid();
    let mut defects = DefectMap::pristine();
    for y in 0..grid.height {
        for x in 0..grid.width {
            defects.block_cell(CellPos::new(x, y));
        }
    }

    // The flat loop dies on the placement error, which no seed can fix...
    let flat = synth.synthesize_with(&b.graph, &comps, &w, &defects, None, &Budget::unlimited());
    assert!(matches!(&flat, Err(e @ SynthesisError::Place(_)) if e.is_deterministic()));
    // ...but the ladder escalates to grid growth and succeeds.
    let out =
        synth.synthesize_resilient(&b.graph, &comps, &w, &defects, None, &Budget::unlimited());
    let sol = &out.unwrap_or_else(|e| panic!("ladder failed: {e}"));
    // Prove the escalation two ways: the winner is attempt 2, so the
    // reseed rung failed exactly once (deterministic error, no budget
    // burnt), and the recovered chip is strictly larger than the damaged
    // one — only the grow-grid rung can do that.
    assert_eq!(sol.attempts, 2);
    let recovered = sol.placement.grid();
    assert!(
        recovered.width > grid.width && recovered.height > grid.height,
        "recovery must come from grid growth: {}x{} vs {}x{}",
        recovered.width,
        recovered.height,
        grid.width,
        grid.height
    );

    // The recovered solution is valid and provably defect-free, natively…
    assert!(sol.verify(&b.graph, &comps, &w).is_valid());
    assert_defect_free(sol, &defects);
    // …and via DRC-FAULT-001.
    assert_eq!(drc_fault_count(&b.graph, &comps, sol, &defects), 0);
}

// ---------------------------------------------------------------- helpers

fn assert_defect_free(sol: &Solution, defects: &DefectMap) {
    for p in &sol.routing.paths {
        for &c in &p.cells {
            assert!(!defects.is_blocked(c), "path crosses blocked cell {c}");
        }
    }
    for s in sol.schedule.ops() {
        assert!(
            !defects.is_dead(s.component),
            "{} bound to dead component {}",
            s.op,
            s.component
        );
    }
    for t in sol.schedule.transports() {
        assert!(!defects.is_dead(t.src) && !defects.is_dead(t.dst));
    }
}

fn drc_fault_count(
    graph: &SequencingGraph,
    comps: &ComponentSet,
    sol: &Solution,
    defects: &DefectMap,
) -> usize {
    let w = wash();
    let registry = RuleRegistry::with_all_rules();
    sol.drc_with(graph, comps, &w, defects, RouterConfig::paper(), &registry)
        .diagnostics
        .iter()
        .filter(|d| d.rule == "DRC-FAULT-001")
        .count()
}

// ------------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `synthesize` (defect-aware or not) never panics on generated
    /// (assay, allocation, defect-map) triples — every failure is a typed
    /// `SynthesisError`. Proptest itself fails the case on any panic.
    #[test]
    fn synthesis_never_panics_on_generated_triples(
        n in 2usize..14,
        assay_seed in any::<u64>(),
        defect_seed in any::<u64>(),
        mixers in 0u32..3,
        heaters in 0u32..3,
        filters in 0u32..2,
        detectors in 0u32..2,
        cell_p in 0.0f64..0.15,
        comp_p in 0.0f64..0.5,
    ) {
        let g = SyntheticSpec::new(n, assay_seed).generate();
        let comps = Allocation::new(mixers, heaters, filters, detectors)
            .instantiate(&ComponentLibrary::default());
        let grid = GridSpec::square(28);
        let defects = DefectMap::sample(grid, &comps, cell_p, comp_p, defect_seed);
        let mut cfg = SynthesisConfig::paper_dcsa();
        cfg.grid = Some(grid);
        cfg.max_placement_attempts = 4;
        let _ = Synthesizer::new(cfg).synthesize_with(
            &g,
            &comps,
            &wash(),
            &defects,
            None,
            &Budget::unlimited(),
        );
    }

    /// Whenever synthesis under a seeded defect map succeeds, the solution
    /// touches no defect: no routed cell is blocked and no binding uses a
    /// dead component — checked natively and through DRC-FAULT-001.
    #[test]
    fn successful_synthesis_avoids_all_defects(
        n in 2usize..14,
        assay_seed in any::<u64>(),
        defect_seed in any::<u64>(),
        cell_p in 0.0f64..0.08,
        comp_p in 0.0f64..0.3,
    ) {
        let g = SyntheticSpec::new(n, assay_seed).generate();
        let comps = Allocation::new(2, 2, 2, 2).instantiate(&ComponentLibrary::default());
        let grid = GridSpec::square(32);
        let defects = DefectMap::sample(grid, &comps, cell_p, comp_p, defect_seed);
        let mut cfg = SynthesisConfig::paper_dcsa();
        cfg.grid = Some(grid);
        if let Ok(sol) = Synthesizer::new(cfg).synthesize_with(
            &g,
            &comps,
            &wash(),
            &defects,
            None,
            &Budget::unlimited(),
        ) {
            // Native checks.
            for p in &sol.routing.paths {
                for &c in &p.cells {
                    prop_assert!(!defects.is_blocked(c), "path crosses blocked {c}");
                }
            }
            for s in sol.schedule.ops() {
                prop_assert!(!defects.is_dead(s.component));
            }
            for t in sol.schedule.transports() {
                prop_assert!(!defects.is_dead(t.src) && !defects.is_dead(t.dst));
            }
            // And the DRC agrees.
            prop_assert_eq!(drc_fault_count(&g, &comps, &sol, &defects), 0);
            // The solution is also independently valid.
            let report = sol.verify(&g, &comps, &wash());
            prop_assert!(report.is_valid(), "{:?}", report.violations);
        }
    }

    /// The resilient driver is deterministic: same inputs, same result.
    #[test]
    fn resilient_driver_is_deterministic(
        n in 2usize..10,
        assay_seed in any::<u64>(),
        defect_seed in any::<u64>(),
    ) {
        let g = SyntheticSpec::new(n, assay_seed).generate();
        let comps = Allocation::new(2, 2, 2, 2).instantiate(&ComponentLibrary::default());
        let grid = GridSpec::square(30);
        let defects = DefectMap::sample(grid, &comps, 0.03, 0.2, defect_seed);
        let mut cfg = SynthesisConfig::paper_dcsa();
        cfg.grid = Some(grid);
        let synth = Synthesizer::new(cfg);
        let a = synth.synthesize_resilient(&g, &comps, &wash(), &defects, None, &Budget::unlimited());
        let b = synth.synthesize_resilient(&g, &comps, &wash(), &defects, None, &Budget::unlimited());
        prop_assert_eq!(a, b);
    }
}
