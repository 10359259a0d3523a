//! Bounded, deterministic slice of the grammar fuzzer, run on every
//! `cargo test`: a few hundred seeded cases through parse → lower →
//! synthesize → verify → DRC. The open-ended version lives in the
//! `assay_fuzz` binary (see CI's fuzz smoke job); this test pins the
//! same invariants on a fixed seed range so a regression fails locally
//! before it ever reaches the fuzzer.

use mfb_core::prelude::*;
use mfb_model::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use xtask_tests::assaygen::{mutated_assay, valid_assay, GenOptions};

/// Parses one program and, when accepted and allocatable, pushes it
/// through the full pipeline. Any panic or invalid accepted solution is
/// a test failure.
fn pipeline_survives(text: &str) -> Result<(), String> {
    let file = match parse_assay(text) {
        Err(e) => {
            if e.line() == 0 || e.column() == 0 {
                return Err(format!("error without a 1-based position: {e}"));
            }
            return Ok(());
        }
        Ok(f) => f,
    };
    let Some(allocation) = file.allocation else {
        return Ok(());
    };
    let comps = allocation.instantiate(&ComponentLibrary::default());
    let wash = LogLinearWash::paper_calibrated();
    let synth = Synthesizer::new(SynthesisConfig::for_flow(&file.flow));
    match synth.synthesize_with(
        &file.graph,
        &comps,
        &wash,
        &file.defects,
        None,
        &Budget::unlimited(),
    ) {
        Err(_) => Ok(()),
        Ok(solution) => {
            let sim = solution.verify(&file.graph, &comps, &wash);
            if !sim.is_valid() {
                return Err("accepted program replayed invalid".into());
            }
            let drc = solution.drc_with(
                &file.graph,
                &comps,
                &wash,
                &file.defects,
                synth.config().router,
                &RuleRegistry::with_all_rules(),
            );
            if !drc.is_clean() {
                return Err("accepted program failed DRC".into());
            }
            Ok(())
        }
    }
}

#[test]
fn seeded_fuzz_slice_never_panics_and_accepted_inputs_verify() {
    let opts = GenOptions::default();
    // Keep the valid share small: valid programs run full synthesis and
    // dominate wall-clock time.
    for seed in 0..60u64 {
        let text = valid_assay(seed, &opts);
        let r = catch_unwind(AssertUnwindSafe(|| pipeline_survives(&text)));
        match r {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => panic!("valid seed {seed}: {msg}\n---\n{text}"),
            Err(_) => panic!("valid seed {seed}: pipeline panicked\n---\n{text}"),
        }
    }
    for seed in 0..400u64 {
        let text = mutated_assay(seed, &opts);
        let r = catch_unwind(AssertUnwindSafe(|| pipeline_survives(&text)));
        match r {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => panic!("mutated seed {seed}: {msg}\n---\n{text}"),
            Err(_) => panic!("mutated seed {seed}: pipeline panicked\n---\n{text}"),
        }
    }
}
