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
use mfb_sched::prelude::BindingRule;

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

/// The ablation study's variants, each disabling one design choice of the
/// paper's DCSA flow: `full`, `no-case1` (earliest-ready binding),
/// `case1-any` (any parent's component), `no-weights` (uniform routing
/// weights) and `cleanup` (channel cleanup pass on).
///
/// Crippled variants route worse; every variant gets 64 placement
/// attempts so the comparison is about solution quality, not routability
/// luck.
pub fn ablation_variants() -> [(&'static str, SynthesisConfig); 5] {
    let variant = |edit: fn(&mut SynthesisConfig)| {
        let mut c = SynthesisConfig::paper_dcsa();
        c.max_placement_attempts = 64;
        edit(&mut c);
        c
    };
    [
        ("full", variant(|_| {})),
        (
            "no-case1",
            variant(|c| c.binding = BindingRule::EarliestReady),
        ),
        (
            "case1-any",
            variant(|c| c.binding = BindingRule::StorageAwareUnordered),
        ),
        (
            "no-weights",
            variant(|c| c.router.wash_aware_weights = false),
        ),
        ("cleanup", variant(|c| c.optimize_channels = true)),
    ]
}
