//! The runners. Every workload goes through the same steps:
//!
//! 1. **Set-up**, timed as `setup_s`: parse the workload's DSL inputs into
//!    ready jobs, the way every user surface loads an assay. Repeated
//!    [`Plan::setup_reps`] times; the median is reported.
//! 2. **Timed loop**, untraced: whole passes over the jobs, one request at
//!    a time (one `run_batch` call per pass for `batch` and `warm`), until
//!    [`Plan::seconds`] of wall time have passed. Whole passes make every
//!    run measure the same multiset of jobs.
//! 3. **Traced pass**, only with `--trace`, instead of step 2: each job (or
//!    batch pass) once without and once with an `mfb-obs` collector, in
//!    alternating order, for the per-layer totals and the tracing overhead.
//!
//! Before step 2, `verify` synthesizes its archive and `warm` fills its
//! cache; neither is timed. Every output is checked outside the timed
//! region (see [`Outputs`]).

use crate::layers::Layers;
use crate::metrics::{metric, ratio, Metric};
use crate::stats::{median, percentile};
use crate::workload::{inputs, parse, Input, Job, Workload};
use mfb_batch::prelude::*;
use mfb_core::prelude::*;
use mfb_model::hash::{content_hash, StableHasher};
use mfb_model::prelude::*;
use mfb_obs::TraceCollector;
use mfb_verify::prelude::Severity;
use std::fmt::Debug;
use std::time::Instant as WallClock;

/// How much one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Distinct inputs: requests (`small`, `dense`), archive sources
    /// (`verify`) or batch jobs (`batch`, `warm`; every fourth listed
    /// twice).
    pub inputs: usize,
    /// Wall-clock length of the timed loop, rounded up to a whole pass.
    pub seconds: f64,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Untraced/traced pass pairs of a traced `warm` run.
    pub warm_pairs: usize,
}

impl Plan {
    /// The measured configuration. A pass takes at most about 5 s on a
    /// 2-core machine, so a 20 s run repeats every job at least four
    /// times. At least 100 distinct jobs give p90 ten jobs beyond it.
    pub fn full(workload: Workload, seconds: f64) -> Plan {
        let inputs = match workload {
            Workload::Small => 360,
            Workload::Dense => 120,
            Workload::Verify => 120,
            Workload::Batch | Workload::Warm => 248,
        };
        Plan {
            inputs,
            seconds,
            setup_reps: 9,
            warm_pairs: 10,
        }
    }
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Jobs in one pass.
    pub per_pass: usize,
    /// Jobs run in the timed loop or the traced pass.
    pub attempted: u64,
    /// Of those, jobs that returned a typed error.
    pub failed: u64,
    /// Outputs that failed a check, described.
    pub invalid: Vec<String>,
    /// Order-independent FNV-1a digest of every distinct solution's name
    /// and content hash: equal digests mean byte-identical outputs.
    pub digest: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced); an
    /// error when a run is too short for its percentiles.
    pub metrics: Result<Vec<Metric>, String>,
}

/// Runs `workload` once.
///
/// # Errors
///
/// Set-up failures: an input that does not parse, or a `verify` archive
/// left empty.
pub fn run(workload: Workload, seed: u64, plan: &Plan, trace: bool) -> Result<Outcome, String> {
    let inputs = inputs(workload, seed, plan.inputs);
    match workload {
        Workload::Small | Workload::Dense => closed_loop(&inputs, plan, trace),
        Workload::Verify => verify(&inputs, plan, trace),
        Workload::Batch => batch(false, &inputs, plan, trace),
        Workload::Warm => batch(true, &inputs, plan, trace),
    }
}

/// Wall time of `f` in milliseconds, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = WallClock::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs `load` `reps` times; returns the last result and the median time
/// in seconds.
fn set_up<T>(reps: usize, mut load: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (loaded, ms) = timed(&mut load);
        last = Some(loaded?);
        times.push(ms / 1e3);
    }
    Ok((last.expect("at least one repetition"), median(&times)))
}

/// Parses every input; returns the jobs and the time spent in parsing.
fn parse_all(inputs: &[Input]) -> Result<(Vec<Job>, f64), String> {
    let (jobs, ms) = timed(|| inputs.iter().map(parse).collect::<Result<Vec<_>, _>>());
    Ok((jobs?, ms))
}

/// Whether a timed loop started at `start` may stop. Checked after each
/// pass, so every run times whole passes, at least one.
fn time_is_up(start: WallClock, plan: &Plan) -> bool {
    start.elapsed().as_secs_f64() >= plan.seconds
}

/// Untraced/traced order of pair `k`: alternate which side runs first so
/// that warm-cache effects do not favour either.
fn pair_order(k: usize) -> [bool; 2] {
    [k % 2 == 1, k % 2 == 0]
}

/// Runs `f` with a fresh trace collector installed when `traced`, and
/// hands back the finished trace.
fn maybe_traced<R>(traced: bool, f: impl FnOnce() -> R) -> (R, Option<mfb_obs::Trace>) {
    let collector = traced.then(TraceCollector::new);
    let result = {
        let _guard = collector.as_ref().map(mfb_obs::install);
        f()
    };
    (result, collector.map(|c| c.finish()))
}

/// Records `now` as the first result of a job, or checks a repeat against
/// it. `Ok(true)` means this was the first.
fn same_as_first<F: PartialEq + Copy + Debug>(
    first: &mut Option<F>,
    name: &str,
    now: F,
) -> Result<bool, String> {
    match *first {
        None => {
            *first = Some(now);
            Ok(true)
        }
        Some(seen) if seen == now => Ok(false),
        Some(seen) => Err(format!(
            "{name}: {now:?} differs from its first result {seen:?}"
        )),
    }
}

/// What every job shares: the paper's wash model on a pristine chip with
/// no deadline.
struct Env {
    wash: LogLinearWash,
    defects: DefectMap,
    budget: Budget,
}

impl Env {
    fn new() -> Env {
        Env {
            wash: LogLinearWash::paper_calibrated(),
            defects: DefectMap::pristine(),
            budget: Budget::unlimited(),
        }
    }

    fn synthesize(&self, job: &Job) -> Result<Solution, SynthesisError> {
        job.synth.synthesize_with(
            &job.graph,
            &job.components,
            &self.wash,
            &self.defects,
            None,
            &self.budget,
        )
    }
}

/// Placement attempts and Table-I numbers of a solution (`None` for a
/// typed error): a cheap identity check between repeats of one job.
type Fingerprint = Option<(u32, [u64; 3])>;

/// Output checks over the results of one run, plus the Table-I quality
/// and the digest of its distinct outputs.
///
/// The first result of each job is replayed through the independent
/// `mfb-sim` validator and enters the quality means and the digest; every
/// later result of that job must match its fingerprint.
#[derive(Debug)]
struct Outputs {
    first: Vec<Option<Fingerprint>>,
    exec_s: f64,
    utilization: f64,
    channel_mm: f64,
    solutions: usize,
    digest: u64,
    invalid: Vec<String>,
}

impl Outputs {
    fn new(jobs: usize) -> Outputs {
        Outputs {
            first: vec![None; jobs],
            exec_s: 0.0,
            utilization: 0.0,
            channel_mm: 0.0,
            solutions: 0,
            digest: 0,
            invalid: Vec::new(),
        }
    }

    /// Checks result `result` of job `k`.
    fn record(
        &mut self,
        k: usize,
        name: &str,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        result: &Result<Solution, SynthesisError>,
    ) {
        let solution = result.as_ref().ok();
        let m = solution.map(|s| SolutionMetrics::of(s, components));
        let fingerprint = solution.zip(m.as_ref()).map(|(s, m)| {
            (
                s.attempts,
                [
                    m.execution_time.as_secs_f64().to_bits(),
                    m.utilization.to_bits(),
                    m.channel_length_mm.to_bits(),
                ],
            )
        });
        match same_as_first(&mut self.first[k], name, fingerprint) {
            Ok(true) => {}
            Ok(false) => return,
            Err(why) => return self.invalid.push(why),
        }
        let (Some(s), Some(m)) = (solution, m) else {
            return;
        };
        let report = s.verify(graph, components, wash);
        if !report.is_valid() {
            self.invalid.push(format!(
                "{name}: replay found {} violations",
                report.violations.len()
            ));
        }
        self.exec_s += m.execution_time.as_secs_f64();
        self.utilization += m.utilization;
        self.channel_mm += m.channel_length_mm;
        self.solutions += 1;
        let mut h = StableHasher::new();
        h.write_str(name);
        h.write_hash(content_hash(s));
        self.digest = self.digest.wrapping_add(h.finish().as_u64());
    }

    fn quality(&self) -> [Metric; 3] {
        let n = self.solutions as f64;
        [
            metric("exec_time_s_mean", ratio(self.exec_s, n)),
            metric("utilization_mean", ratio(self.utilization, n)),
            metric("channel_mm_mean", ratio(self.channel_mm, n)),
        ]
    }
}

/// Counts of the timed or traced jobs of one run.
#[derive(Debug, Default)]
struct Counts {
    attempted: u64,
    failed: u64,
}

impl Counts {
    fn add<T, E>(&mut self, result: &Result<T, E>) {
        self.attempted += 1;
        self.failed += u64::from(result.is_err());
    }

    fn outcome(
        self,
        per_pass: usize,
        outputs: Outputs,
        metrics: Result<Vec<Metric>, String>,
    ) -> Outcome {
        Outcome {
            per_pass,
            attempted: self.attempted,
            failed: self.failed,
            invalid: outputs.invalid,
            digest: outputs.digest,
            metrics,
        }
    }
}

/// Each job's best latency over the passes of a run. The best of several
/// repeats spread over the run drops the time the machine spent on other
/// work; a slower program is slower in every repeat.
#[derive(Debug)]
struct Best(Vec<f64>);

impl Best {
    fn new(jobs: usize) -> Best {
        Best(vec![f64::INFINITY; jobs])
    }

    fn add(&mut self, k: usize, ms: f64) {
        self.0[k] = self.0[k].min(ms);
    }

    /// One client's throughput at the best latencies.
    fn jobs_per_s(&self) -> f64 {
        ratio(self.0.len() as f64 * 1e3, self.0.iter().sum())
    }
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(
    best: &Best,
    jobs_per_s: f64,
    counts: &Counts,
    setup_s: f64,
    outputs: &Outputs,
) -> Result<Vec<Metric>, String> {
    let pct = |p: f64| {
        percentile(&best.0, p).ok_or_else(|| format!("{} jobs are too few for p{p}", best.0.len()))
    };
    let succeeded = counts.attempted - counts.failed;
    let mut metrics = vec![
        metric("latency_ms_p50", pct(50.0)?),
        metric("latency_ms_p90", pct(90.0)?),
        metric("jobs_per_s", jobs_per_s),
        metric(
            "success_ratio",
            ratio(succeeded as f64, counts.attempted as f64),
        ),
        metric("setup_s", setup_s),
        metric("peak_rss_mb", peak_rss_mb()?),
    ];
    metrics.extend(outputs.quality());
    Ok(metrics)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line in /proc/self/status".into())
}

/// `small` and `dense`: one client synthesizing one request at a time.
fn closed_loop(inputs: &[Input], plan: &Plan, trace: bool) -> Result<Outcome, String> {
    let ((jobs, parse_ms), setup_s) = set_up(plan.setup_reps, || parse_all(inputs))?;
    let env = Env::new();
    let mut outputs = Outputs::new(jobs.len());
    let mut counts = Counts::default();
    let mut run_job = |k: usize, outputs: &mut Outputs, traced: bool| {
        let job = &jobs[k];
        let ((result, ms), trace) = maybe_traced(traced, || timed(|| env.synthesize(job)));
        counts.add(&result);
        outputs.record(
            k,
            &job.name,
            &job.graph,
            &job.components,
            &env.wash,
            &result,
        );
        (job, result, ms, trace)
    };

    if trace {
        let mut layers = Layers::default();
        let start = WallClock::now();
        let mut passes = 0;
        while passes == 0 || !time_is_up(start, plan) {
            for k in 0..jobs.len() {
                for traced in pair_order(k) {
                    let (job, result, ms, trace) = run_job(k, &mut outputs, traced);
                    let Some(trace) = trace else {
                        layers.untraced_ms.push(ms);
                        continue;
                    };
                    layers.absorb(&trace);
                    layers.traced_ms.push(ms);
                    if let Ok(s) = &result {
                        let (_, replay_ms) =
                            timed(|| s.verify(&job.graph, &job.components, &env.wash));
                        layers.replay_ms += replay_ms;
                        layers.attempts_used += u64::from(s.attempts);
                        layers.ok_jobs += 1;
                    }
                }
            }
            // The inputs were parsed once, at set-up; count it per pass.
            layers.parse_ms += parse_ms;
            passes += 1;
        }
        return Ok(counts.outcome(jobs.len(), outputs, Ok(layers.metrics(passes))));
    }

    let mut best = Best::new(jobs.len());
    let start = WallClock::now();
    loop {
        for k in 0..jobs.len() {
            let (_, _, ms, _) = run_job(k, &mut outputs, false);
            best.add(k, ms);
        }
        if time_is_up(start, plan) {
            break;
        }
    }
    let metrics = end_to_end(&best, best.jobs_per_s(), &counts, setup_s, &outputs);
    Ok(counts.outcome(jobs.len(), outputs, metrics))
}

/// An archived design: the assay as DSL text and its solution as JSON.
struct Archived {
    name: String,
    text: String,
    json: String,
}

/// Finding counts (info, warning, error) of the DRC and the analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Findings {
    drc: [usize; 3],
    analyze: [usize; 3],
}

fn severities(report: &VerifyReport) -> [usize; 3] {
    [Severity::Info, Severity::Warning, Severity::Error].map(|s| report.count(s))
}

/// Milliseconds spent in each checker step.
#[derive(Debug, Default)]
struct Steps {
    parse: f64,
    decode: f64,
    replay: f64,
    drc: f64,
    analyze: f64,
}

/// One `verify` job: parse the assay, decode the solution, replay it, run
/// the DRC and the analyses. An invalid replay or a DRC error is an error.
fn check_archived(item: &Archived, env: &Env, steps: &mut Steps) -> Result<Findings, String> {
    let (file, ms) = timed(|| parse_assay(&item.text));
    steps.parse += ms;
    let file = file.map_err(|e| format!("{}: {e}", item.name))?;
    let allocation = file
        .allocation
        .ok_or_else(|| format!("{}: no alloc line", item.name))?;
    let components = allocation.instantiate(&ComponentLibrary::default());
    let (solution, ms) = timed(|| serde_json::from_str::<Solution>(&item.json));
    steps.decode += ms;
    let solution = solution.map_err(|e| format!("{}: archived solution: {e}", item.name))?;
    let (sim, ms) = timed(|| solution.verify(&file.graph, &components, &env.wash));
    steps.replay += ms;
    if !sim.is_valid() {
        return Err(format!(
            "{}: replay found {} violations",
            item.name,
            sim.violations.len()
        ));
    }
    let (drc, ms) = timed(|| solution.drc(&file.graph, &components, &env.wash));
    steps.drc += ms;
    if !drc.is_clean() {
        return Err(format!(
            "{}: DRC reports {} errors",
            item.name,
            drc.count(Severity::Error)
        ));
    }
    let (analysis, ms) = timed(|| solution.analyze(&file.graph, &components, &env.wash));
    steps.analyze += ms;
    Ok(Findings {
        drc: severities(&drc),
        analyze: severities(&analysis),
    })
}

/// `verify`: re-check archived designs, one at a time. Any check error is
/// an invalid output, and finding counts must repeat on every pass.
fn verify(inputs: &[Input], plan: &Plan, trace: bool) -> Result<Outcome, String> {
    let ((sources, _), setup_s) = set_up(plan.setup_reps, || parse_all(inputs))?;
    let env = Env::new();
    let mut outputs = Outputs::new(sources.len());
    let mut archive = Vec::new();
    for (k, job) in sources.iter().enumerate() {
        let result = env.synthesize(job);
        outputs.record(
            k,
            &job.name,
            &job.graph,
            &job.components,
            &env.wash,
            &result,
        );
        if let Ok(s) = &result {
            archive.push(Archived {
                name: job.name.clone(),
                text: inputs[k].text.clone(),
                json: serde_json::to_string(s).map_err(|e| format!("{}: {e}", job.name))?,
            });
        }
    }
    if archive.is_empty() {
        return Err("no archive source synthesized".into());
    }

    let mut counts = Counts::default();
    let mut first: Vec<Option<Findings>> = vec![None; archive.len()];
    let mut check_job = |k: usize, outputs: &mut Outputs, traced: bool, steps: &mut Steps| {
        let item = &archive[k];
        let ((result, ms), trace) =
            maybe_traced(traced, || timed(|| check_archived(item, &env, steps)));
        counts.add(&result);
        if let Err(why) = result.and_then(|f| same_as_first(&mut first[k], &item.name, f)) {
            outputs.invalid.push(why);
        }
        (ms, trace)
    };

    if trace {
        let mut layers = Layers::default();
        let start = WallClock::now();
        let mut passes = 0;
        while passes == 0 || !time_is_up(start, plan) {
            for k in 0..archive.len() {
                for traced in pair_order(k) {
                    let mut steps = Steps::default();
                    let (ms, trace) = check_job(k, &mut outputs, traced, &mut steps);
                    let Some(trace) = trace else {
                        layers.untraced_ms.push(ms);
                        continue;
                    };
                    layers.absorb(&trace);
                    layers.traced_ms.push(ms);
                    layers.parse_ms += steps.parse;
                    layers.decode_ms += steps.decode;
                    layers.replay_ms += steps.replay;
                    layers.drc_ms += steps.drc;
                    layers.analyze_ms += steps.analyze;
                }
            }
            passes += 1;
        }
        return Ok(counts.outcome(archive.len(), outputs, Ok(layers.metrics(passes))));
    }

    let mut best = Best::new(archive.len());
    let mut steps = Steps::default();
    let start = WallClock::now();
    loop {
        for k in 0..archive.len() {
            let (ms, _) = check_job(k, &mut outputs, false, &mut steps);
            best.add(k, ms);
        }
        if time_is_up(start, plan) {
            break;
        }
    }
    let metrics = end_to_end(&best, best.jobs_per_s(), &counts, setup_s, &outputs);
    Ok(counts.outcome(archive.len(), outputs, metrics))
}

fn batch_job(job: &Job) -> BatchJob {
    BatchJob::new(
        job.name.clone(),
        job.graph.clone(),
        job.components.clone(),
        job.synth.config().clone(),
    )
}

/// Per-job latency inside a batch: its prep plus its solve time.
fn job_latencies(run: &BatchRun) -> impl Iterator<Item = f64> + '_ {
    run.report.outcomes.iter().map(|o| o.prep_ms + o.solve_ms)
}

/// `batch` and `warm`: the whole job list handed to `run_batch` per pass,
/// through a fresh stage cache (`batch`) or through one the untimed first
/// pass filled (`warm`).
fn batch(warm: bool, inputs: &[Input], plan: &Plan, trace: bool) -> Result<Outcome, String> {
    let ((jobs, parse_ms), setup_s) = set_up(plan.setup_reps, || {
        let (jobs, parse_ms) = parse_all(inputs)?;
        Ok((jobs.iter().map(batch_job).collect::<Vec<_>>(), parse_ms))
    })?;
    let env = Env::new();
    let mut outputs = Outputs::new(jobs.len());
    let mut counts = Counts::default();
    let warm_cache = StageCache::new();
    let mut check = |outputs: &mut Outputs, run: &BatchRun, counted: bool| {
        for (k, (job, result)) in jobs.iter().zip(&run.solutions).enumerate() {
            if counted {
                counts.add(result);
            }
            outputs.record(k, &job.name, &job.graph, &job.components, &env.wash, result);
        }
    };
    if warm {
        check(&mut outputs, &run_batch(&jobs, &warm_cache), false);
    }
    let pass = |traced: bool| {
        maybe_traced(traced, || {
            if warm {
                run_batch(&jobs, &warm_cache)
            } else {
                run_batch(&jobs, &StageCache::new())
            }
        })
    };

    if trace {
        let mut layers = Layers::default();
        let pairs = if warm { plan.warm_pairs } else { 1 };
        let start = WallClock::now();
        let mut passes = 0;
        while passes == 0 || !time_is_up(start, plan) {
            // The inputs were parsed once, at set-up; count it per pass.
            layers.parse_ms += parse_ms;
            passes += 1;
            for k in 0..pairs {
                for traced in pair_order(k) {
                    let (run, trace) = pass(traced);
                    check(&mut outputs, &run, true);
                    let Some(trace) = trace else {
                        layers.untraced_ms.extend(job_latencies(&run));
                        continue;
                    };
                    layers.absorb(&trace);
                    layers.traced_ms.extend(job_latencies(&run));
                    layers.add_batch(&run.report);
                    for (job, result) in jobs.iter().zip(&run.solutions) {
                        let Ok(s) = result else { continue };
                        layers.attempts_used += u64::from(s.attempts);
                        layers.ok_jobs += 1;
                        // Warm passes serve cached solutions: nothing new to
                        // replay.
                        if !warm {
                            let (_, ms) =
                                timed(|| s.verify(&job.graph, &job.components, &env.wash));
                            layers.replay_ms += ms;
                        }
                    }
                }
            }
        }
        return Ok(counts.outcome(jobs.len(), outputs, Ok(layers.metrics(passes))));
    }

    let mut best = Best::new(jobs.len());
    // Batch throughput is jobs over pass wall time, not over summed job
    // latencies: the executor's point is to overlap them. Best pass, like
    // best latency.
    let mut jobs_per_s: f64 = 0.0;
    let start = WallClock::now();
    loop {
        let (run, _) = pass(false);
        for (k, ms) in job_latencies(&run).enumerate() {
            best.add(k, ms);
        }
        jobs_per_s = jobs_per_s.max(run.report.assays_per_sec);
        check(&mut outputs, &run, true);
        if time_is_up(start, plan) {
            break;
        }
    }
    let metrics = end_to_end(&best, jobs_per_s, &counts, setup_s, &outputs);
    Ok(counts.outcome(jobs.len(), outputs, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// A run small enough for a debug-build unit test.
    fn tiny(workload: Workload) -> Plan {
        Plan {
            inputs: match workload {
                Workload::Small => 6,
                Workload::Dense | Workload::Verify => 2,
                Workload::Batch | Workload::Warm => 8,
            },
            seconds: 0.0,
            setup_reps: 2,
            warm_pairs: 1,
        }
    }

    fn names(metrics: &[Metric]) -> Vec<&str> {
        metrics.iter().map(|m| m.name).collect()
    }

    #[test]
    fn every_workload_runs_and_checks_clean() {
        for w in Workload::ALL {
            let plan = tiny(w);
            let untraced = run(w, 1, &plan, false).expect("set-up succeeds");
            assert!(
                untraced.invalid.is_empty(),
                "{}: {:?}",
                w.name(),
                untraced.invalid
            );
            assert_eq!(untraced.failed, 0, "{}", w.name());
            assert!(untraced.attempted >= 1, "{}", w.name());
            // One pass of a few jobs cannot carry p50 or p90; anything
            // else must be there.
            match &untraced.metrics {
                Ok(m) => assert_eq!(names(m), END_TO_END.map(|(n, _)| n)),
                Err(e) => assert!(e.contains("too few"), "{}: {e}", w.name()),
            }

            let traced = run(w, 2, &plan, true).expect("set-up succeeds");
            assert!(
                traced.invalid.is_empty(),
                "{}: {:?}",
                w.name(),
                traced.invalid
            );
            assert_eq!(
                traced.digest,
                untraced.digest,
                "{}: seeds order one set",
                w.name()
            );
            let m = traced
                .metrics
                .expect("per-layer metrics need no percentiles");
            assert_eq!(names(&m), PER_LAYER.map(|(n, _)| n));
        }
    }
}
