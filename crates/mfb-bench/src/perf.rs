//! Tracked performance baseline: times the optimized hot paths against the
//! frozen pre-optimization references on every Table-I benchmark.
//!
//! `mfb bench --json` serializes a [`PerfReport`] to `BENCH_synthesis.json`
//! and CI uploads it, so the SA and routing speedups are tracked per
//! commit. Each row times the incremental-energy annealer against
//! [`mfb_place::reference::place_sa_reference`] and the arena-backed router
//! against [`mfb_route::reference::route_dcsa_reference`] on identical
//! inputs. The golden-equivalence suites (`crates/*/tests/perf_equiv.rs`)
//! guarantee both sides of each pair compute bitwise-identical results, so
//! the ratio is a pure hot-path speedup, not an accuracy trade.
//!
//! The per-benchmark kernel rows are deliberately **serial**: timing under
//! the deterministic thread fan-out would attribute scheduler noise to the
//! kernels.

use std::time::Instant as WallClock; // the model prelude has its own Instant

use mfb_bench_suite::table1_benchmarks;
use mfb_core::flow::Synthesizer;
use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_place::reference::place_sa_reference;
use mfb_route::prelude::*;
use mfb_route::reference::route_dcsa_reference;
use mfb_sched::list::{schedule, SchedulerConfig};
use serde::Serialize;

/// Timings and counters for one Table-I benchmark.
///
/// All wall times are best-of-`repeats` in milliseconds; rates come from
/// the best timed run, so they are lower bounds on sustained throughput.
#[derive(Debug, Clone, Serialize)]
pub struct PerfRow {
    /// Benchmark name (Table I).
    pub benchmark: String,
    /// Operations in the sequencing graph.
    pub ops: usize,
    /// Devices placed (the size that drives both timed hot paths).
    pub components: usize,
    /// List-scheduling wall time.
    pub schedule_ms: f64,
    /// Optimized (incremental-energy) SA placement wall time.
    pub sa_ms: f64,
    /// Frozen clone-per-proposal reference SA wall time.
    pub sa_reference_ms: f64,
    /// `sa_reference_ms / sa_ms`.
    pub sa_speedup: f64,
    /// Annealing proposals made by one SA run.
    pub sa_proposals: u64,
    /// Proposals per second of the optimized SA.
    pub sa_proposals_per_sec: f64,
    /// Optimized (arena-backed) DCSA routing wall time.
    pub route_ms: f64,
    /// Frozen per-query-allocation reference routing wall time.
    pub route_reference_ms: f64,
    /// `route_reference_ms / route_ms`.
    pub route_speedup: f64,
    /// Whether routing succeeds on the timed grid. The timed grid mirrors
    /// the synthesis flow: `auto_grid`, grown 4/3-linear per step (≤ 3
    /// steps) until the DCSA router succeeds — Synthetic4 needs one step.
    /// When no grown grid routes, timings fall back to the base grid and
    /// both routers do the same search work up to the identical error.
    pub route_ok: bool,
    /// A* / Dijkstra queries issued by one routing run.
    pub astar_queries: u64,
    /// Heap pops expanded by one routing run.
    pub astar_expansions: u64,
    /// Expansions per second of the optimized router.
    pub astar_expansions_per_sec: f64,
    /// Parked-path window retries performed by one routing run.
    pub window_retries: u64,
    /// Rip-up evictions performed by one routing run.
    pub rips: u64,
}

/// The headline numbers the PR acceptance gate reads: speedups on the
/// largest benchmark whose routing succeeds on a bare SA placement.
#[derive(Debug, Clone, Serialize)]
pub struct PerfHeadline {
    /// The benchmark the headline speedups come from.
    pub benchmark: String,
    /// SA speedup on that benchmark.
    pub sa_speedup: f64,
    /// Routing speedup on that benchmark.
    pub route_speedup: f64,
}

/// The full tracked baseline, serialized to `BENCH_synthesis.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PerfReport {
    /// Timed repetitions per measurement (best-of).
    pub repeats: u32,
    /// The `MFB_THREADS` worker limit the batch axis ran under (the kernel
    /// rows are serial by design; see the module docs).
    pub threads: usize,
    /// Cores available to the run; `threads` never exceeds it.
    pub cores: usize,
    /// Headline speedups (largest routable benchmark).
    pub headline: PerfHeadline,
    /// One row per Table-I benchmark.
    pub rows: Vec<PerfRow>,
    /// Per-stage span timings from one traced end-to-end synthesis of the
    /// flagship benchmark (the `mfb-obs` observability axis). Empty when
    /// the `obs-trace` feature is compiled out.
    pub stage_trace: Vec<mfb_obs::StageSummary>,
    /// Counter totals (SA proposals, A* expansions, window retries, ...)
    /// from the same traced run.
    pub trace_counters: Vec<mfb_obs::CounterTotal>,
    /// The batch-throughput axis: assays/sec cold vs warm cache
    /// (see [`crate::throughput`]).
    pub batch: crate::throughput::ThroughputReport,
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

/// Times `f` and `g` back to back, `repeats` times, returning each side's
/// best wall seconds (plus `f`'s last result). Interleaving the pair keeps
/// a transient load spike from landing entirely on one side of a speedup
/// ratio, which block-timing each side is prone to.
fn best_of_pair<R>(repeats: u32, mut f: impl FnMut() -> R, mut g: impl FnMut()) -> (f64, f64, R) {
    let mut best_f = f64::INFINITY;
    let mut best_g = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats.max(1) {
        let start = WallClock::now();
        let r = f();
        best_f = best_f.min(start.elapsed().as_secs_f64());
        out = Some(r);
        let start = WallClock::now();
        g();
        best_g = best_g.min(start.elapsed().as_secs_f64());
    }
    (best_f, best_g, out.expect("repeats >= 1"))
}

/// The grid the synthesis flow would route this benchmark on: the base
/// `auto_grid`, enlarged by the recovery ladder's 4/3-linear growth steps
/// until the DCSA router succeeds on the SA placement (max 3 steps, the
/// default ladder budget). Returns the grid and whether routing succeeded.
fn routable_grid(
    comps: &ComponentSet,
    nets: &mfb_place::prelude::NetList,
    sa_cfg: &SaConfig,
    s: &mfb_sched::prelude::Schedule,
    graph: &SequencingGraph,
    wash: &dyn WashModel,
    router_cfg: &RouterConfig,
) -> (GridSpec, bool) {
    let base = auto_grid(comps);
    for step in 0..=3u32 {
        let grid = grown_grid(base, step);
        let Ok(p) = place_sa(comps, nets, grid, sa_cfg) else {
            continue;
        };
        if route_dcsa(s, graph, &p, wash, router_cfg).is_ok() {
            return (grid, true);
        }
    }
    (base, false)
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Per-second rate of `count` events in `seconds`, 0 when unmeasurable.
fn rate(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

/// Times every Table-I benchmark, best-of-`repeats` per measurement.
pub fn perf_report(repeats: u32) -> PerfReport {
    let lib = ComponentLibrary::default();
    let wash = LogLinearWash::paper_calibrated();
    let sa_cfg = SaConfig::paper();
    let router_cfg = RouterConfig::paper();

    let rows: Vec<PerfRow> = table1_benchmarks()
        .iter()
        .map(|b| {
            let comps = b.components(&lib);
            let (sched_s, s) = best_of(repeats, || {
                schedule(&b.graph, &comps, &wash, &SchedulerConfig::paper_dcsa())
                    .expect("Table-I benchmarks schedule")
            });
            let nets = NetList::build(&s, &b.graph, &wash, 0.6, 0.4);
            let (grid, route_ok) =
                routable_grid(&comps, &nets, &sa_cfg, &s, &b.graph, &wash, &router_cfg);

            let (sa_s, sa_ref_s, (p, sa_stats)) = best_of_pair(
                repeats,
                || {
                    place_sa_budgeted(
                        &comps,
                        &nets,
                        grid,
                        &sa_cfg,
                        &DefectMap::pristine(),
                        &Budget::unlimited(),
                    )
                    .expect("Table-I benchmarks place")
                },
                || {
                    place_sa_reference(&comps, &nets, grid, &sa_cfg)
                        .expect("Table-I benchmarks place");
                },
            );

            let mut route_stats = SearchStats::default();
            let (route_s, route_ref_s, ()) = best_of_pair(
                repeats,
                || {
                    let mut scratch = SearchScratch::new();
                    let _ = route_dcsa_budgeted(
                        &s,
                        &b.graph,
                        &p,
                        &wash,
                        &router_cfg,
                        &DefectMap::pristine(),
                        &mut scratch,
                        &Budget::unlimited(),
                    );
                    route_stats = scratch.stats;
                },
                || {
                    let _ = route_dcsa_reference(&s, &b.graph, &p, &wash, &router_cfg);
                },
            );

            PerfRow {
                benchmark: b.name.to_string(),
                ops: b.graph.len(),
                components: comps.len(),
                schedule_ms: ms(sched_s),
                sa_ms: ms(sa_s),
                sa_reference_ms: ms(sa_ref_s),
                sa_speedup: sa_ref_s / sa_s,
                sa_proposals: sa_stats.proposals,
                sa_proposals_per_sec: rate(sa_stats.proposals, sa_s),
                route_ms: ms(route_s),
                route_reference_ms: ms(route_ref_s),
                route_speedup: route_ref_s / route_s,
                route_ok,
                astar_queries: route_stats.queries,
                astar_expansions: route_stats.expansions,
                astar_expansions_per_sec: rate(route_stats.expansions, route_s),
                window_retries: route_stats.window_retries,
                rips: route_stats.rips,
            }
        })
        .collect();

    // "Largest" by the size that drives the timed hot paths: devices placed
    // (and so netlist pairs and routing grid area), tie-broken on ops.
    let flagship = rows
        .iter()
        .filter(|r| r.route_ok)
        .max_by_key(|r| (r.components, r.ops))
        .or_else(|| rows.iter().max_by_key(|r| (r.components, r.ops)))
        .expect("Table I is non-empty");
    let headline = PerfHeadline {
        benchmark: flagship.benchmark.clone(),
        sa_speedup: flagship.sa_speedup,
        route_speedup: flagship.route_speedup,
    };

    let (stage_trace, trace_counters) = traced_flagship(&headline.benchmark);

    PerfReport {
        repeats,
        threads: mfb_model::par::thread_limit().max(1),
        cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        headline,
        rows,
        stage_trace,
        trace_counters,
        batch: crate::throughput::throughput_report(repeats),
    }
}

/// Runs one end-to-end DCSA synthesis of `benchmark` with an `mfb-obs`
/// collector installed and aggregates the trace into per-stage timings and
/// counter totals. This is the only traced measurement in the report — the
/// kernel rows above run with tracing runtime-disabled, so they double as
/// the "disabled tracing costs one branch" perf gate.
fn traced_flagship(benchmark: &str) -> (Vec<mfb_obs::StageSummary>, Vec<mfb_obs::CounterTotal>) {
    let lib = ComponentLibrary::default();
    let wash = LogLinearWash::paper_calibrated();
    let benchmarks = table1_benchmarks();
    let Some(b) = benchmarks.iter().find(|b| b.name == benchmark) else {
        return (Vec::new(), Vec::new());
    };
    let comps = b.components(&lib);
    let collector = mfb_obs::TraceCollector::new();
    {
        let _guard = mfb_obs::install(&collector);
        let _ = Synthesizer::paper_dcsa().synthesize(&b.graph, &comps, &wash);
    }
    let trace = collector.finish();
    (
        mfb_obs::stage_summaries(&trace.events),
        mfb_obs::counter_totals(&trace.events),
    )
}

/// Plain-text rendering of a [`PerfReport`] for terminal use.
pub fn perf_text(report: &PerfReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>4} {:>5} {:>9} {:>9} {:>9} {:>8} {:>11} {:>9} {:>9} {:>8} {:>11}",
        "benchmark",
        "ops",
        "comps",
        "sched_ms",
        "sa_ms",
        "sa_ref",
        "sa_x",
        "prop/s",
        "route_ms",
        "route_ref",
        "route_x",
        "expand/s"
    );
    for r in &report.rows {
        let _ = writeln!(
            out,
            "{:<12} {:>4} {:>5} {:>9.2} {:>9.2} {:>9.2} {:>7.2}x {:>11.0} {:>9.2} {:>9.2} {:>7.2}x {:>11.0}{}",
            r.benchmark,
            r.ops,
            r.components,
            r.schedule_ms,
            r.sa_ms,
            r.sa_reference_ms,
            r.sa_speedup,
            r.sa_proposals_per_sec,
            r.route_ms,
            r.route_reference_ms,
            r.route_speedup,
            r.astar_expansions_per_sec,
            if r.route_ok { "" } else { "  (route err)" }
        );
    }
    let _ = writeln!(
        out,
        "headline ({}): SA {:.2}x, routing {:.2}x (best of {})",
        report.headline.benchmark,
        report.headline.sa_speedup,
        report.headline.route_speedup,
        report.repeats
    );
    let b = &report.batch;
    let _ = writeln!(
        out,
        "batch ({} jobs, {} threads): cold {:.2} assays/s, warm {:.2} assays/s \
         ({:.1}x, {} cache hits){}",
        b.jobs,
        b.threads,
        b.cold_assays_per_sec,
        b.warm_assays_per_sec,
        b.warm_speedup,
        b.warm_cache.hits(),
        if b.warm_identical {
            ""
        } else {
            "  WARM OUTPUT DIVERGED"
        }
    );
    if !report.stage_trace.is_empty() {
        let _ = writeln!(out, "traced flagship ({}):", report.headline.benchmark);
        for s in &report.stage_trace {
            let _ = writeln!(
                out,
                "  {:<18} {:>5} spans  total {:>9.3} ms  max {:>9.3} ms",
                s.name, s.count, s.total_ms, s.max_ms
            );
        }
        for c in &report.trace_counters {
            let _ = writeln!(out, "  {:<18} {:>12}", c.name, c.total);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_report_covers_every_benchmark_with_positive_speedups() {
        let r = perf_report(1);
        assert_eq!(r.rows.len(), table1_benchmarks().len());
        for row in &r.rows {
            assert!(row.sa_speedup > 0.0, "{}", row.benchmark);
            assert!(row.route_speedup > 0.0, "{}", row.benchmark);
            assert!(row.sa_proposals > 0, "{}", row.benchmark);
            assert!(row.astar_queries > 0, "{}", row.benchmark);
        }
        assert!(r.rows.iter().any(|row| row.route_ok));
        assert_eq!(r.batch.jobs, 2 * r.rows.len());
        assert!(r.batch.warm_identical, "warm batch diverged from cold");
        assert_eq!(r.batch.warm_cache.misses(), 0);
        assert!(r.batch.warm_speedup > 1.0);
        assert!(r.threads >= 1 && r.threads <= r.cores);
        if cfg!(feature = "obs-trace") {
            let names: Vec<&str> = r.stage_trace.iter().map(|s| s.name.as_str()).collect();
            assert!(names.contains(&"flow.synthesize"), "{names:?}");
            assert!(names.contains(&"stage.place"), "{names:?}");
            assert!(names.contains(&"stage.route"), "{names:?}");
            assert!(
                r.trace_counters.iter().any(|c| c.name == "sa.proposals"),
                "traced run records SA counters"
            );
        } else {
            assert!(r.stage_trace.is_empty());
        }
        assert!(!perf_text(&r).is_empty());
    }
}
