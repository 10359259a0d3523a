//! Shared helpers for the benchmark harnesses in `benches/`.
//!
//! Each bench target regenerates one table or figure of the paper before
//! timing the computation that produces it, so `cargo bench` doubles as the
//! experiment reproduction entry point (see EXPERIMENTS.md).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod perf;

use mfb_bench_suite::{table1_benchmarks, Benchmark};
use mfb_core::prelude::*;
use mfb_model::prelude::*;

/// The paper-calibrated wash model used by every experiment.
pub fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

/// All Table-I benchmarks.
pub fn benchmarks() -> Vec<Benchmark> {
    table1_benchmarks()
}

/// Runs both flows on every benchmark and returns the comparison rows.
///
/// Benchmarks run concurrently (bounded by `MFB_THREADS`) and rows come
/// back in Table-I order; every row is a pure function of its benchmark,
/// so the report is identical to a serial run.
///
/// # Errors
///
/// The first failing benchmark in Table-I order, as `"<name>: <error>"`
/// (the same error a serial scan would have hit first).
pub fn compare_all() -> Result<Vec<ComparisonRow>, String> {
    let lib = ComponentLibrary::default();
    let benches = benchmarks();
    mfb_model::par::par_map_ordered(benches.len(), |i| {
        let b = &benches[i];
        ComparisonRow::compare(b.name, &b.graph, b.allocation, &lib, &wash())
            .map_err(|e| format!("{}: {e}", b.name))
    })
    .into_iter()
    .collect()
}
