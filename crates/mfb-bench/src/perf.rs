//! Tracked performance baseline: end-to-end synthesis wall time per
//! benchmark, split per stage by an `mfb-obs` trace of the same run.
//!
//! `mfb bench --json` serializes a [`PerfReport`] to `BENCH_synthesis.json`
//! and CI uploads it. Each row is one `Synthesizer::paper_dcsa().synthesize`
//! run: `end_to_end_ms` is the best of `repeats` untraced runs (tracing
//! compiled in but no collector installed), and one extra traced run
//! supplies the attempt counts, per-stage span timings and counter totals.
//! The runs use the ambient `MFB_THREADS` limit, so the placement attempt
//! fan-out is part of what is timed; the solution digest does not depend
//! on it.

use std::time::Instant as WallClock; // the model prelude has its own Instant

use mfb_bench_suite::families::scalability_series;
use mfb_bench_suite::{dense_benchmark, table1_benchmarks};
use mfb_core::flow::Synthesizer;
use mfb_model::hash::StableHasher;
use mfb_model::prelude::*;
use serde::Serialize;

/// One end-to-end synthesis measurement.
#[derive(Debug, Clone, Serialize)]
pub struct PerfRow {
    /// Benchmark name (the sequencing graph's name).
    pub benchmark: String,
    /// Operations in the sequencing graph.
    pub ops: usize,
    /// Components allocated to the assay.
    pub components: usize,
    /// Whether synthesis returned a solution.
    pub ok: bool,
    /// The synthesis error, when the run fails.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Best-of-`repeats` untraced wall time of the whole run, in
    /// milliseconds; time-to-failure when the run fails.
    pub end_to_end_ms: f64,
    /// FNV-64 of the serialized solution as 16 hex digits, when the run
    /// succeeds.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub solution_fnv64: Option<String>,
    /// Placement attempts the traced run started (`stage.place` spans).
    pub attempts_run: u64,
    /// Placement attempts the returned solution accounts for
    /// (`Solution::attempts`; 0 when the run fails).
    pub attempts_used: u64,
    /// `attempts_run - attempts_used`: attempts whose result was thrown
    /// away.
    pub wasted_attempts: u64,
    /// Span timings of the traced run, grouped by name. Empty when the
    /// `obs-trace` feature is compiled out.
    pub stage_trace: Vec<mfb_obs::StageSummary>,
    /// Counter totals (SA proposals, A* expansions, ...) of the traced run.
    pub trace_counters: Vec<mfb_obs::CounterTotal>,
}

impl PerfRow {
    /// Total milliseconds of the traced run's spans named `name`, 0 when
    /// there are none.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.stage_trace
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.total_ms)
    }
}

/// The full tracked baseline, serialized to `BENCH_synthesis.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PerfReport {
    /// Timed repetitions per row (best-of).
    pub repeats: u32,
    /// The `MFB_THREADS` worker limit the runs used.
    pub threads: usize,
    /// Cores available to the run; `threads` never exceeds it.
    pub cores: usize,
    /// The headline row: the largest benchmark that synthesizes, by ops
    /// (Synthetic5 in [`bench_set`]).
    pub headline: String,
    /// One row per benchmark, in input order.
    pub rows: Vec<PerfRow>,
}

/// The benchmarks `mfb bench` times, in row order: the seven Table-I
/// benchmarks, the dense Synthetic5 rung, then the top rung of the
/// scalability series.
pub fn bench_set() -> Vec<(SequencingGraph, Allocation)> {
    table1_benchmarks()
        .into_iter()
        .chain([dense_benchmark()])
        .map(|b| (b.graph, b.allocation))
        .chain(scalability_series().pop())
        .collect()
}

/// Runs `f` `repeats` times and returns (best wall seconds, last result).
fn best_of<R>(repeats: u32, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats.max(1) {
        let start = WallClock::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("repeats >= 1"))
}

/// Times one benchmark end to end, then traces one more run of it.
fn perf_row(graph: &SequencingGraph, allocation: Allocation, repeats: u32) -> PerfRow {
    let comps = allocation.instantiate(&ComponentLibrary::default());
    let wash = LogLinearWash::paper_calibrated();
    let synth = Synthesizer::paper_dcsa();
    let run = || synth.synthesize(graph, &comps, &wash);

    let (seconds, result) = best_of(repeats, run);

    let collector = mfb_obs::TraceCollector::new();
    let _ = mfb_obs::with_collector(&collector, run);
    let events = collector.finish().events;
    let attempts_run = events
        .iter()
        .filter(|e| e.kind == mfb_obs::EventKind::Span && e.name == "stage.place")
        .count() as u64;

    let (error, solution_fnv64, attempts_used) = match &result {
        Ok(solution) => {
            let json = serde_json::to_string(solution).expect("Solution serializes");
            let mut h = StableHasher::new();
            h.write_bytes(json.as_bytes());
            (
                None,
                Some(h.finish().to_hex()),
                u64::from(solution.attempts),
            )
        }
        Err(e) => (Some(e.to_string()), None, 0),
    };
    PerfRow {
        benchmark: graph.name().to_string(),
        ops: graph.len(),
        components: comps.len(),
        ok: result.is_ok(),
        error,
        end_to_end_ms: seconds * 1e3,
        solution_fnv64,
        attempts_run,
        attempts_used,
        wasted_attempts: attempts_run.saturating_sub(attempts_used),
        stage_trace: mfb_obs::stage_summaries(&events),
        trace_counters: mfb_obs::counter_totals(&events),
    }
}

/// Times every benchmark of `benchmarks` end to end, best-of-`repeats`
/// per row, serially in input order.
///
/// # Panics
///
/// Panics if `benchmarks` is empty.
pub fn perf_report(benchmarks: &[(SequencingGraph, Allocation)], repeats: u32) -> PerfReport {
    let repeats = repeats.max(1);
    let rows: Vec<PerfRow> = benchmarks
        .iter()
        .map(|(graph, allocation)| perf_row(graph, *allocation, repeats))
        .collect();
    let headline = rows
        .iter()
        .max_by_key(|r| (r.ok, r.ops, r.components))
        .expect("perf_report needs at least one benchmark")
        .benchmark
        .clone();
    PerfReport {
        repeats,
        threads: mfb_model::par::thread_limit(),
        cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        headline,
        rows,
    }
}

/// Plain-text rendering of a [`PerfReport`] for terminal use.
pub fn perf_text(report: &PerfReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>4} {:>5} {:>10} {:>8} {:>9} {:>9} {:>9}",
        "benchmark", "ops", "comps", "e2e_ms", "attempts", "wasted", "place_ms", "route_ms"
    );
    for r in &report.rows {
        let _ = writeln!(
            out,
            "{:<12} {:>4} {:>5} {:>10.2} {:>8} {:>9} {:>9.2} {:>9.2}{}",
            r.benchmark,
            r.ops,
            r.components,
            r.end_to_end_ms,
            r.attempts_run,
            r.wasted_attempts,
            r.span_ms("stage.place"),
            r.span_ms("stage.route"),
            match &r.error {
                Some(e) => format!("  failed: {e}"),
                None => String::new(),
            }
        );
    }
    let _ = writeln!(
        out,
        "headline: {} (e2e_ms is best of {}, {} threads on {} cores)",
        report.headline, report.repeats, report.threads, report.cores
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_set_is_table1_then_synthetic5_then_scale_80() {
        let names: Vec<String> = bench_set()
            .iter()
            .map(|(g, _)| g.name().to_string())
            .collect();
        assert_eq!(
            names,
            [
                "PCR",
                "IVD",
                "CPA",
                "Synthetic1",
                "Synthetic2",
                "Synthetic3",
                "Synthetic4",
                "Synthetic5",
                "scale-80"
            ]
        );
    }

    #[test]
    fn perf_report_times_end_to_end_runs() {
        let set: Vec<_> = bench_set()
            .into_iter()
            .filter(|(g, _)| matches!(g.name(), "PCR" | "Synthetic4"))
            .collect();
        let r = perf_report(&set, 1);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.headline, "Synthetic4");
        assert!(r.threads >= 1 && r.threads <= r.cores);
        for row in &r.rows {
            assert!(row.ok && row.error.is_none(), "{}", row.benchmark);
            assert!(row.end_to_end_ms > 0.0, "{}", row.benchmark);
            assert!(row.attempts_used >= 1, "{}", row.benchmark);
            assert_eq!(
                row.wasted_attempts,
                row.attempts_run.saturating_sub(row.attempts_used)
            );
        }
        // The same digest the Table-I golden in mfb-core pins.
        assert_eq!(
            r.rows[0].solution_fnv64.as_deref(),
            Some("3ae05e9d595d890e")
        );
        if cfg!(feature = "obs-trace") {
            for row in &r.rows {
                assert!(row.attempts_run >= row.attempts_used, "{}", row.benchmark);
                let names: Vec<&str> = row.stage_trace.iter().map(|s| s.name.as_str()).collect();
                assert!(names.contains(&"flow.synthesize"), "{names:?}");
                assert!(names.contains(&"stage.place"), "{names:?}");
                assert!(names.contains(&"stage.route"), "{names:?}");
                assert!(
                    row.trace_counters.iter().any(|c| c.name == "sa.proposals"),
                    "traced run records SA counters"
                );
            }
        } else {
            for row in &r.rows {
                assert_eq!(row.attempts_run, 0);
                assert!(row.stage_trace.is_empty() && row.trace_counters.is_empty());
            }
        }
        assert!(!perf_text(&r).is_empty());
    }
}
