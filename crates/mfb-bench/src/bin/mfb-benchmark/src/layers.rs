//! Per-layer totals of one traced run, reported per pass.
//!
//! Two sources feed them. Inside synthesis, the `mfb-obs` trace of each
//! job (or batch pass) gives the stage and kernel spans and the `sa.*`,
//! `astar.*` and `route.*` counters. Around each call into a crate's public
//! API, the benchmark's own timers give the checker, parser and decoder
//! times, and `run_batch`'s report gives the cache and batch counters.

use crate::metrics::{metric, ratio, Metric};
use crate::stats::{median, union_len};
use mfb_batch::prelude::BatchReport;
use mfb_core::prelude::CacheStats;
use mfb_obs::{EventKind, Trace, TraceEvent};

const NS_PER_MS: f64 = 1e6;

/// Totals over every traced job of one run.
#[derive(Debug, Default)]
pub struct Layers {
    place_ns: u64,
    place_calls: u64,
    sa_proposals: u64,
    sa_evaluated: u64,
    sa_accepted: u64,
    netlist_ns: u64,
    route_ns: u64,
    route_calls: u64,
    astar_queries: u64,
    astar_expansions: u64,
    window_retries: u64,
    rips: u64,
    flow_ns: u64,
    flow_self_ns: u64,
    attempts_run: u64,
    sched_ns: u64,
    sched_calls: u64,
    /// Placement attempts the returned solutions account for.
    pub attempts_used: u64,
    /// Jobs that returned a solution.
    pub ok_jobs: u64,
    pub replay_ms: f64,
    pub drc_ms: f64,
    pub analyze_ms: f64,
    pub parse_ms: f64,
    pub decode_ms: f64,
    /// Cache counters of each traced batch pass.
    caches: Vec<CacheStats>,
    prep_ms: f64,
    solve_ms: f64,
    /// Batch wall time times worker count: the occupancy denominator.
    worker_ms: f64,
    /// Per-job latencies with a collector installed.
    pub traced_ms: Vec<f64>,
    /// Per-job latencies of the same jobs without one.
    pub untraced_ms: Vec<f64>,
}

impl Layers {
    /// Adds the spans and counters of one finished trace.
    pub fn absorb(&mut self, trace: &Trace) {
        for e in trace.of_kind(EventKind::Span) {
            let (ns, calls) = match e.name.as_str() {
                "place.sa" => (&mut self.place_ns, Some(&mut self.place_calls)),
                "stage.netlist" => (&mut self.netlist_ns, None),
                "route.dcsa" => (&mut self.route_ns, Some(&mut self.route_calls)),
                "sched.list" => (&mut self.sched_ns, Some(&mut self.sched_calls)),
                "flow.synthesize" => (&mut self.flow_ns, None),
                "stage.place" => {
                    self.attempts_run += 1;
                    continue;
                }
                _ => continue,
            };
            *ns += e.dur_ns;
            if let Some(calls) = calls {
                *calls += 1;
            }
        }
        self.sa_proposals += trace.counter_total("sa.proposals");
        self.sa_evaluated += trace.counter_total("sa.evaluated");
        self.sa_accepted += trace.counter_total("sa.accepted");
        self.astar_queries += trace.counter_total("astar.queries");
        self.astar_expansions += trace.counter_total("astar.expansions");
        self.window_retries += trace.counter_total("route.window_retries");
        self.rips += trace.counter_total("route.rips");
        self.flow_self_ns += flow_self_ns(trace);
    }

    /// Adds a traced `run_batch` call's cache counters and worker time.
    pub fn add_batch(&mut self, report: &BatchReport) {
        self.caches.push(report.cache);
        for o in &report.outcomes {
            self.prep_ms += o.prep_ms;
            self.solve_ms += o.solve_ms;
        }
        self.worker_ms += report.wall_seconds * 1e3 * report.threads as f64;
    }

    /// Every per-layer metric, in declaration order, per pass over the
    /// workload: totals divided by `passes`. Counts repeat exactly from
    /// pass to pass, so their averages are exact.
    pub fn metrics(&self, passes: usize) -> Vec<Metric> {
        let p = passes.max(1) as f64;
        let per = |v: f64| v / p;
        let ms = |ns: u64| per(ns as f64 / NS_PER_MS);
        let count = |n: u64| per(n as f64);
        let rate = |n: u64, ns: u64| ratio(n as f64, ns as f64 / 1e9);
        let cache = |f: fn(&CacheStats) -> u64| self.caches.iter().map(f).sum::<u64>();
        vec![
            metric("place.busy_ms", ms(self.place_ns)),
            metric("place.calls", count(self.place_calls)),
            metric("place.sa_proposals", count(self.sa_proposals)),
            metric(
                "place.proposals_per_s",
                rate(self.sa_proposals, self.place_ns),
            ),
            metric(
                "place.sa_accept_ratio",
                ratio(self.sa_accepted as f64, self.sa_evaluated as f64),
            ),
            metric("netlist.busy_ms", ms(self.netlist_ns)),
            metric("route.busy_ms", ms(self.route_ns)),
            metric("route.calls", count(self.route_calls)),
            metric("route.astar_queries", count(self.astar_queries)),
            metric("route.astar_expansions", count(self.astar_expansions)),
            metric(
                "route.expansions_per_s",
                rate(self.astar_expansions, self.route_ns),
            ),
            metric("route.window_retries", count(self.window_retries)),
            metric("route.rips", count(self.rips)),
            metric("flow.busy_ms", ms(self.flow_ns)),
            metric("flow.self_ms", ms(self.flow_self_ns)),
            metric("flow.attempts_run", count(self.attempts_run)),
            metric("flow.attempts_used", count(self.attempts_used)),
            metric(
                "flow.wasted_attempts",
                count(self.attempts_run.saturating_sub(self.attempts_used)),
            ),
            metric(
                "flow.attempt_yield",
                ratio(self.ok_jobs as f64, self.attempts_run as f64),
            ),
            metric("sched.busy_ms", ms(self.sched_ns)),
            metric("sched.calls", count(self.sched_calls)),
            metric("sim.replay_ms", per(self.replay_ms)),
            metric("verify.drc_ms", per(self.drc_ms)),
            metric("analyze.ms", per(self.analyze_ms)),
            metric("model.parse_ms", per(self.parse_ms)),
            metric("archive.decode_ms", per(self.decode_ms)),
            metric(
                "cache.hit_ratio",
                ratio(
                    cache(CacheStats::hits) as f64,
                    cache(|c| c.hits() + c.misses()) as f64,
                ),
            ),
            metric("cache.schedule_hits", count(cache(|c| c.schedule_hits))),
            metric("cache.schedule_misses", count(cache(|c| c.schedule_misses))),
            metric("cache.netlist_hits", count(cache(|c| c.netlist_hits))),
            metric("cache.netlist_misses", count(cache(|c| c.netlist_misses))),
            metric("cache.placement_hits", count(cache(|c| c.placement_hits))),
            metric(
                "cache.placement_misses",
                count(cache(|c| c.placement_misses)),
            ),
            metric("cache.routing_hits", count(cache(|c| c.routing_hits))),
            metric("cache.routing_misses", count(cache(|c| c.routing_misses))),
            metric("batch.prep_ms", per(self.prep_ms)),
            metric("batch.solve_ms", per(self.solve_ms)),
            metric(
                "batch.occupancy",
                ratio(self.prep_ms + self.solve_ms, self.worker_ms),
            ),
            metric("trace.jobs", per(self.traced_ms.len() as f64)),
            metric("trace.latency_ms", per(self.traced_ms.iter().sum())),
            metric(
                "trace.overhead_ratio",
                ratio(median(&self.traced_ms), median(&self.untraced_ms)),
            ),
        ]
    }
}

fn contains(outer: &TraceEvent, inner: &TraceEvent) -> bool {
    inner.t_ns >= outer.t_ns && inner.t_ns + inner.dur_ns <= outer.t_ns + outer.dur_ns
}

/// Time inside `flow.synthesize` spans not covered by any of their child
/// `stage.*` spans: retry orchestration, budget checks, thread fan-out and
/// result assembly.
///
/// A stage span is a child of every flow span that contains it, except
/// when it ran on the thread of another flow that also contains it: that
/// flow owns it. With one job in flight this is exact; with concurrent
/// batch workers a retry attempt spawned by one flow can still be
/// attributed to an overlapping one, so the batch figure is a lower bound.
pub fn flow_self_ns(trace: &Trace) -> u64 {
    let flows: Vec<&TraceEvent> = trace.spans_named("flow.synthesize").collect();
    let stages: Vec<&TraceEvent> = trace
        .of_kind(EventKind::Span)
        .filter(|e| e.name.starts_with("stage."))
        .collect();
    flows
        .iter()
        .map(|f| {
            let mut children: Vec<(u64, u64)> = stages
                .iter()
                .filter(|s| contains(f, s))
                .filter(|s| {
                    !flows
                        .iter()
                        .any(|g| !std::ptr::eq(*g, *f) && g.tid == s.tid && contains(g, s))
                })
                .map(|s| (s.t_ns, s.t_ns + s.dur_ns))
                .collect();
            f.dur_ns - union_len(&mut children, f.t_ns, f.t_ns + f.dur_ns)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            seq: start,
            tid,
            kind: EventKind::Span,
            name: name.to_string(),
            t_ns: start,
            dur_ns: end - start,
            value: 0,
            fields: Vec::new(),
        }
    }

    fn trace(events: Vec<TraceEvent>) -> Trace {
        Trace {
            events,
            open_spans: 0,
            wall_ns: 1_000,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        // flow [0,100): schedule [5,10), netlist [10,12), two attempts in
        // parallel on worker threads [20,60) and [25,70), route [60,90).
        let t = trace(vec![
            span("flow.synthesize", 1, 0, 100),
            span("stage.schedule", 1, 5, 10),
            span("stage.netlist", 1, 10, 12),
            span("stage.place", 2, 20, 60),
            span("stage.place", 3, 25, 70),
            span("place.sa", 3, 26, 69),
            span("stage.route", 2, 60, 90),
        ]);
        // Covered: [5,12) + [20,90) = 77, so 23 ns of self time. The
        // kernel span place.sa is not a stage and does not count twice.
        assert_eq!(flow_self_ns(&t), 23);
    }

    #[test]
    fn concurrent_flows_keep_their_own_stages() {
        // Two batch workers, each running a flow; worker 2's stage lies
        // inside both flows but belongs to flow 2, which ran on its thread.
        let t = trace(vec![
            span("flow.synthesize", 1, 0, 100),
            span("stage.place", 1, 10, 40),
            span("flow.synthesize", 2, 30, 120),
            span("stage.place", 2, 50, 95),
        ]);
        // Flow 1: 100 - 30 = 70; flow 2: 90 - 45 = 45.
        assert_eq!(flow_self_ns(&t), 115);
    }

    #[test]
    fn absorb_totals_spans_and_counters() {
        let mut counter = span("sa.proposals", 1, 3, 3);
        counter.kind = EventKind::Counter;
        counter.value = 500;
        let t = trace(vec![
            span("flow.synthesize", 1, 0, 100),
            span("stage.place", 1, 0, 40),
            span("place.sa", 1, 1, 39),
            counter,
        ]);
        let mut layers = Layers::default();
        layers.absorb(&t);
        layers.absorb(&t);
        let get = |name: &str| {
            layers
                .metrics(2)
                .into_iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        // Two passes absorbed, reported per pass.
        assert_eq!(get("place.calls"), Some(1.0));
        assert_eq!(get("place.sa_proposals"), Some(500.0));
        assert_eq!(get("flow.attempts_run"), Some(1.0));
        assert_eq!(get("flow.self_ms"), Some(60.0 / NS_PER_MS));
        assert_eq!(get("place.proposals_per_s"), Some(1000.0 / (76.0 / 1e9)));
        assert_eq!(get("cache.hit_ratio"), Some(0.0));
    }
}
