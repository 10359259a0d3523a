//! The paper's evaluation and this reproduction's extension studies, each
//! rendered as the table one `mfb` subcommand prints (see EXPERIMENTS.md):
//!
//! * [`compare_all`] — both flows on every Table-I benchmark, the rows of
//!   `mfb table1`, `fig8` and `fig9`;
//! * [`ablation_text`] — `mfb ablation`, one design choice disabled per
//!   [`ablation_variants`] entry;
//! * [`scalability_text`] — `mfb scalability`, the paper flow on the
//!   10 → 80-operation synthetic series;
//! * [`stability_text`] — `mfb stability`, Table-I metrics across annealing
//!   seeds;
//! * [`perf`] — `mfb bench`, the one harness that times synthesis.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod perf;

use std::fmt::Write;
use std::time::Instant as WallClock; // the model prelude has its own Instant

use mfb_bench_suite::families::scalability_series;
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

/// The ablation table `mfb ablation` prints: every [`ablation_variants`]
/// entry on the two paper-scale stress benchmarks, CPA and Synthetic4.
pub fn ablation_text() -> String {
    let lib = ComponentLibrary::default();
    let mut out = String::from("Ablation study: each variant disables one design choice.\n\n");
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "Benchmark", "Variant", "Exec(s)", "Util(%)", "Channel(mm)", "Wash(s)"
    );
    let _ = writeln!(out, "{}", "-".repeat(71));
    for b in benchmarks()
        .into_iter()
        .filter(|b| matches!(b.name, "CPA" | "Synthetic4"))
    {
        let comps = b.allocation.instantiate(&lib);
        for (name, cfg) in ablation_variants() {
            let _ = match Synthesizer::new(cfg).synthesize(&b.graph, &comps, &wash()) {
                Ok(sol) => {
                    let m = SolutionMetrics::of(&sol, &comps);
                    writeln!(
                        out,
                        "{:<12} {:>12} {:>10.0} {:>10.1} {:>12.0} {:>10.1}",
                        b.name,
                        name,
                        m.execution_time.as_secs_f64(),
                        m.utilization * 100.0,
                        m.channel_length_mm,
                        m.channel_wash_time.as_secs_f64()
                    )
                }
                Err(e) => writeln!(out, "{:<12} {:>12}   unroutable ({e})", b.name, name),
            };
        }
    }
    out
}

/// The scalability study `mfb scalability` prints (an extension beyond
/// the paper): the paper flow on each size of the synthetic 10 → 80
/// operation series, with solution quality and the wall time of the run.
///
/// A size the flow cannot route prints its typed error and the time to
/// failure, as `mfb bench` does for the same `scale-80` assay.
pub fn scalability_text() -> String {
    let lib = ComponentLibrary::default();
    let mut out = String::from("=== Scalability (extension) ===\n");
    let _ = writeln!(
        out,
        "{:>5} {:>12} {:>9} {:>9} {:>12} {:>10}",
        "Ops", "Alloc", "Exec(s)", "Util(%)", "Channel(mm)", "Wall(ms)"
    );
    for (g, alloc) in scalability_series() {
        let comps = alloc.instantiate(&lib);
        let start = WallClock::now();
        let result = Synthesizer::paper_dcsa().synthesize(&g, &comps, &wash());
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let _ = match result {
            Ok(sol) => {
                let m = SolutionMetrics::of(&sol, &comps);
                writeln!(
                    out,
                    "{:>5} {:>12} {:>9.0} {:>9.1} {:>12.0} {:>10.1}",
                    g.len(),
                    alloc.to_string(),
                    m.execution_time.as_secs_f64(),
                    m.utilization * 100.0,
                    m.channel_length_mm,
                    wall_ms
                )
            }
            Err(e) => writeln!(
                out,
                "{:>5} {:>12} {:>9} {:>9} {:>12} {:>10.1}  failed: {e}",
                g.len(),
                alloc.to_string(),
                "-",
                "-",
                "-",
                wall_ms
            ),
        };
    }
    out
}

/// Annealing seeds per benchmark in [`stability_text`].
const STABILITY_SEEDS: u64 = 10;

/// The seed-stability study `mfb stability` prints (an extension beyond
/// the paper): each Table-I benchmark re-synthesized with ten annealing
/// seeds, reporting the min / median / max of execution time and channel
/// length over the seeds that route.
///
/// Simulated annealing is the only stochastic stage of the flow, so
/// execution time, fixed at scheduling time, should not move (the
/// conflict-free router never delays); channel length may wobble with the
/// layout.
pub fn stability_text() -> String {
    let lib = ComponentLibrary::default();
    let mut out = format!("=== Seed stability across {STABILITY_SEEDS} annealing seeds ===\n");
    let _ = writeln!(
        out,
        "{:<12} {:>22} {:>30}",
        "Benchmark", "Exec(s) min/med/max", "Channel(mm) min/med/max"
    );
    for b in benchmarks() {
        let comps = b.allocation.instantiate(&lib);
        let (mut execs, mut chans): (Vec<f64>, Vec<f64>) = (0..STABILITY_SEEDS)
            .filter_map(|seed| {
                let cfg = SynthesisConfig::paper_dcsa().with_seed(0xD1CE + seed);
                let sol = Synthesizer::new(cfg)
                    .synthesize(&b.graph, &comps, &wash())
                    .ok()?;
                let m = SolutionMetrics::of(&sol, &comps);
                Some((m.execution_time.as_secs_f64(), m.channel_length_mm))
            })
            .unzip();
        if execs.is_empty() {
            let _ = writeln!(out, "{:<12} no routable seed", b.name);
            continue;
        }
        execs.sort_by(f64::total_cmp);
        chans.sort_by(f64::total_cmp);
        let med = |v: &[f64]| v[v.len() / 2];
        let _ = writeln!(
            out,
            "{:<12} {:>6.0} /{:>5.0} /{:>5.0} {:>12.0} /{:>6.0} /{:>6.0}   ({} ok)",
            b.name,
            execs[0],
            med(&execs),
            execs[execs.len() - 1],
            chans[0],
            med(&chans),
            chans[chans.len() - 1],
            execs.len()
        );
    }
    out
}
