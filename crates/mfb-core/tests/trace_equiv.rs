//! Observability golden suite: tracing provably never perturbs a solution.
//!
//! The `mfb-obs` probes observe the flow but must not branch it, so a run
//! with a collector installed has to produce a **byte-identical**
//! [`Solution`] to an untraced run — on every benchmark exercised here and
//! under both the serial (`MFB_THREADS=1`) and fan-out (`MFB_THREADS=8`)
//! executors — and the fan-out never runs more placement attempts than
//! the serial loop plus one extra per additional core, however large
//! `MFB_THREADS` is set. A second test pins the recovery-ladder event
//! contract: the ladder returns a plain `Result`, and its failure history
//! is one `recovery.rung` instant per failed attempt (rung, attempt,
//! error, detail), plus a final `recovered` event naming the rung and
//! attempt that succeeded.
//!
//! The thread-count sweep lives in a single `#[test]` because `MFB_THREADS`
//! is a process-global environment variable (same pattern as
//! `perf_equiv.rs`).

#![cfg(feature = "obs-trace")]

use mfb_bench_suite::benchmark_by_name;
use mfb_core::prelude::*;
use mfb_model::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

/// Serialized DCSA solution for `bench`, optionally run under an installed
/// trace collector. Returns the solution JSON, the attempts the solution
/// reports, and the finished trace.
fn solve_json(threads: &str, bench: &str, traced: bool) -> (String, u32, mfb_obs::Trace) {
    std::env::set_var("MFB_THREADS", threads);
    let b = benchmark_by_name(bench).expect("Table-I benchmark must exist");
    let comps = b.components(&ComponentLibrary::default());
    let collector = mfb_obs::TraceCollector::new();
    let solution = {
        let _guard = traced.then(|| mfb_obs::install(&collector));
        Synthesizer::paper_dcsa()
            .synthesize(&b.graph, &comps, &wash())
            .expect("paper flow must synthesize its own Table-I benchmark")
    };
    (
        serde_json::to_string(&solution).expect("Solution serializes"),
        solution.attempts,
        collector.finish(),
    )
}

#[test]
fn tracing_on_or_off_yields_byte_identical_solutions() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Synthetic4 needs retries, so its retry batches exercise the fan-out.
    for bench in ["PCR", "IVD", "Synthetic1", "Synthetic4"] {
        let (untraced_1, _, empty) = solve_json("1", bench, false);
        assert!(
            empty.events.is_empty(),
            "{bench}: no events without an installed collector"
        );
        for threads in ["1", "8"] {
            let (traced, attempts, trace) = solve_json(threads, bench, true);
            assert_eq!(
                untraced_1, traced,
                "{bench}: Solution must not depend on tracing or MFB_THREADS={threads}"
            );
            assert_eq!(trace.open_spans, 0, "{bench}: every span closed");
            assert!(
                trace.spans_named("flow.synthesize").count() == 1
                    && trace.spans_named("stage.place").count() >= 1
                    && trace.spans_named("stage.route").count() >= 1,
                "{bench}: traced run records the stage spans"
            );
            // A retry batch is no larger than the worker pool, so at most
            // `cores - 1` speculative attempts run past the winning one.
            let placed = trace.spans_named("stage.place").count();
            assert!(
                placed < attempts as usize + cores,
                "{bench}: {placed} placements for {attempts} attempts on {cores} cores \
                 at MFB_THREADS={threads}"
            );
            mfb_obs::export::check_events(&trace.events).expect("well-formed trace");
        }
    }
    std::env::remove_var("MFB_THREADS");
}

/// Fault-injected ladder run (the `resilience.rs` all-cells-dead fixture):
/// the reseed rung fails once, deterministically, with the flat loop's
/// placement error, and grid growth recovers on attempt 2. The trace
/// carries exactly that record: one `failed` instant with the attempt's
/// seed and grid as its detail, then one `recovered` instant, the last
/// rung event.
#[test]
fn ladder_rungs_emit_one_event_per_escalation() {
    let b = benchmark_by_name("PCR").expect("PCR exists");
    let comps = b.components(&ComponentLibrary::default());
    let w = wash();
    let synth = Synthesizer::paper_dcsa();

    // Kill the entire auto grid so the reseed rung fails deterministically
    // and recovery must escalate to grid growth.
    let pristine = synth.synthesize(&b.graph, &comps, &w).expect("pristine");
    let grid = pristine.placement.grid();
    let mut defects = DefectMap::pristine();
    for y in 0..grid.height {
        for x in 0..grid.width {
            defects.block_cell(CellPos::new(x, y));
        }
    }
    let flat_error = synth
        .synthesize_with(&b.graph, &comps, &w, &defects, None, &Budget::unlimited())
        .expect_err("no seed places on a fully blocked grid");

    let collector = mfb_obs::TraceCollector::new();
    let out = {
        let _guard = mfb_obs::install(&collector);
        synth.synthesize_resilient(&b.graph, &comps, &w, &defects, None, &Budget::unlimited())
    };
    let solution = out.as_ref().expect("ladder recovers");
    let trace = collector.finish();

    let rung_events: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "recovery.rung")
        .collect();
    let (failed, recovered): (Vec<&mfb_obs::TraceEvent>, Vec<&mfb_obs::TraceEvent>) = rung_events
        .iter()
        .copied()
        .partition(|e| e.str_field("outcome") == Some("failed"));

    assert_eq!(failed.len(), 1, "one failed event per failed attempt");
    let keys: Vec<&str> = failed[0].fields.iter().map(|f| f.key.as_str()).collect();
    assert_eq!(keys, ["rung", "attempt", "outcome", "error", "detail"]);
    assert_eq!(failed[0].str_field("rung"), Some("reseed"));
    assert_eq!(failed[0].u64_field("attempt"), Some(1));
    assert_eq!(
        failed[0].str_field("error"),
        Some(flat_error.to_string().as_str())
    );
    let detail = format!(
        "seed {} on {}x{} grid",
        synth.config().sa.seed,
        grid.width,
        grid.height
    );
    assert_eq!(failed[0].str_field("detail"), Some(detail.as_str()));

    assert_eq!(recovered.len(), 1, "exactly one recovered event");
    assert_eq!(
        recovered[0].str_field("outcome"),
        Some("recovered"),
        "the non-failed event is the success marker"
    );
    // The fixture proves escalation: reseed failed, so the success comes
    // from grid growth, on the attempt the solution reports.
    assert_eq!(recovered[0].str_field("rung"), Some("grow-grid"));
    assert_eq!(
        recovered[0].u64_field("attempt"),
        Some(u64::from(solution.attempts))
    );
    // The success event is the last rung event chronologically.
    assert_eq!(rung_events.last().unwrap().seq, recovered[0].seq);

    // And the whole thing still holds the headline guarantee: the traced
    // resilient run matches an untraced one byte for byte.
    let untraced =
        synth.synthesize_resilient(&b.graph, &comps, &w, &defects, None, &Budget::unlimited());
    assert_eq!(format!("{untraced:?}"), format!("{out:?}"));
}
