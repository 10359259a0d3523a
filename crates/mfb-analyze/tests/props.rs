//! Property-based robustness for the analyzer: random assays, randomly
//! mutilated solutions, hostile time windows — the analyzer must never
//! panic, and its report must be a pure function of the input regardless
//! of the worker-thread count.

use mfb_bench_suite::synth::SyntheticSpec;
use mfb_core::prelude::*;
use mfb_model::prelude::*;
use mfb_verify::prelude::{render_json, render_pretty};
use proptest::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

fn solved(n: usize, seed: u64) -> (SequencingGraph, ComponentSet, Solution) {
    let g = SyntheticSpec::new(n, seed).generate();
    let comps = Allocation::new(2, 2, 2, 2).instantiate(&ComponentLibrary::default());
    let sol = Synthesizer::paper_dcsa()
        .synthesize(&g, &comps, &wash())
        .expect("synthesizes");
    (g, comps, sol)
}

/// Applies one of a family of structured corruptions, chosen by `knob`.
fn corrupt(sol: &mut Solution, knob: u8, victim: proptest::sample::Index) {
    if sol.routing.paths.is_empty() {
        return;
    }
    let pi = victim.index(sol.routing.paths.len());
    let grid = sol.placement.grid();
    match knob % 4 {
        // Teleport a cell to the far corner (off-route but on-grid).
        0 => {
            if !sol.routing.paths[pi].cells.is_empty() {
                let ci = victim.index(sol.routing.paths[pi].cells.len());
                sol.routing.paths[pi].cells[ci] = CellPos::new(grid.width - 1, grid.height - 1);
            }
        }
        // Duplicate another path's head occupancy (seeded conflict).
        1 => {
            let donor = sol
                .routing
                .paths
                .iter()
                .find(|p| !p.is_empty())
                .map(|p| (p.cells[0], p.windows[0]));
            if let Some((cell, window)) = donor {
                sol.routing.paths[pi].cells.push(cell);
                sol.routing.paths[pi].windows.push(window);
            }
        }
        // Push a window out to the tick ceiling: clean_at must saturate,
        // not overflow.
        2 => {
            if !sol.routing.paths[pi].windows.is_empty() {
                let wi = victim.index(sol.routing.paths[pi].windows.len());
                let start = Instant::from_ticks(u64::MAX - 1);
                sol.routing.paths[pi].windows[wi] =
                    Interval::new(start, Instant::from_ticks(u64::MAX));
            }
        }
        // Teleport a cell off-grid entirely: the input guard must reject
        // it before any analysis indexes the grid.
        _ => {
            if !sol.routing.paths[pi].cells.is_empty() {
                let ci = victim.index(sol.routing.paths[pi].cells.len());
                sol.routing.paths[pi].cells[ci] = CellPos::new(grid.width + 40, grid.height + 40);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The analyzer never panics on corrupted solutions, and its rendered
    /// report is byte-identical under one worker thread or eight.
    #[test]
    fn analyzer_is_total_and_thread_invariant(
        n in 2usize..16,
        seed in any::<u64>(),
        knob in any::<u8>(),
        victim in any::<proptest::sample::Index>(),
    ) {
        let (g, comps, mut sol) = solved(n, seed);
        corrupt(&mut sol, knob, victim);

        std::env::set_var("MFB_THREADS", "1");
        let serial = sol.analyze(&g, &comps, &wash());
        std::env::set_var("MFB_THREADS", "8");
        let parallel = sol.analyze(&g, &comps, &wash());
        std::env::remove_var("MFB_THREADS");

        prop_assert_eq!(render_pretty(&serial), render_pretty(&parallel));
        prop_assert_eq!(render_json(&serial), render_json(&parallel));
    }

    /// Clean random solutions carry no `Error`-severity analysis findings
    /// (the no-false-positives half of the soundness contract, on assays
    /// far outside Table I).
    #[test]
    fn clean_random_solutions_are_error_free(
        n in 2usize..16,
        seed in any::<u64>(),
    ) {
        let (g, comps, sol) = solved(n, seed);
        let report = sol.analyze(&g, &comps, &wash());
        let errors: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == mfb_verify::prelude::Severity::Error)
            .collect();
        prop_assert!(errors.is_empty(), "{errors:?}");
    }

    /// Findings come out in the shared canonical order: severity first,
    /// then rule id, with no exact duplicates.
    #[test]
    fn reports_are_sorted_and_deduplicated(
        n in 2usize..16,
        seed in any::<u64>(),
        knob in any::<u8>(),
        victim in any::<proptest::sample::Index>(),
    ) {
        let (g, comps, mut sol) = solved(n, seed);
        corrupt(&mut sol, knob, victim);
        let report = sol.analyze(&g, &comps, &wash());
        for pair in report.diagnostics.windows(2) {
            let key = |d: &mfb_verify::prelude::Diagnostic| {
                (std::cmp::Reverse(d.severity), d.rule.clone(), d.message.clone())
            };
            prop_assert!(key(&pair[0]) <= key(&pair[1]), "out of order: {pair:?}");
            prop_assert!(pair[0] != pair[1], "duplicate diagnostic: {:?}", pair[0]);
        }
    }
}
