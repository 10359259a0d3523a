//! The batch executor.
//!
//! [`run_batch`] fans a list of [`BatchJob`]s out with
//! [`mfb_model::par::par_map_ordered`]: up to `MFB_THREADS` workers claim
//! jobs one at a time and share one [`StageCache`]. Each job runs two
//! timed steps on the worker that claimed it:
//!
//! * **prep** — scheduling and netlist construction, pushed into the cache
//!   via [`Synthesizer::prepare_cached`] (span `batch.prep`);
//! * **solve** — the full flow, [`Synthesizer::synthesize_with`] on the
//!   shared cache, which picks the prepped stages up warm and spends its
//!   time on placement SA and routing (span `batch.solve`).
//!
//! Prep is about 1.3 % of a job's time, so the two steps run back to back
//! rather than in a pipeline that would overlap one job's prep with
//! another's solve. Because every stage is a pure function addressed by
//! content (see `mfb_core::cache`), the order in which workers claim jobs
//! affects only wall-clock time: results come back in input order and are
//! **byte-identical** to serial uncached synthesis for any `MFB_THREADS`,
//! which the golden and property tests pin.
//!
//! A panicking solve is replayed for the lowest panicking job index after
//! the batch drains, as `par_map_ordered` does for every sweep.

use mfb_core::prelude::*;
use mfb_model::hash::ContentHash;
use mfb_model::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One synthesis request in a batch.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Display name (unique names make reports easier to read, but nothing
    /// requires it).
    pub name: String,
    /// The bioassay.
    pub graph: SequencingGraph,
    /// The allocated components.
    pub components: ComponentSet,
    /// Full flow configuration (strategies, seeds, `t_c`, …).
    pub config: SynthesisConfig,
    /// Chip damage honored by every stage; pristine by default.
    pub defects: DefectMap,
    /// Wash-time model; the paper-calibrated log-linear model by default.
    pub wash: Arc<dyn WashModel>,
    /// Execution budget (deadline and/or cancellation); unlimited by
    /// default. A tripped budget surfaces as
    /// [`SynthesisError::DeadlineExceeded`] or
    /// [`SynthesisError::Cancelled`] in the job's outcome — it never
    /// perturbs the results of jobs that finish in time.
    pub budget: Budget,
}

impl BatchJob {
    /// A job on a pristine chip with the paper-calibrated wash model.
    pub fn new(
        name: impl Into<String>,
        graph: SequencingGraph,
        components: ComponentSet,
        config: SynthesisConfig,
    ) -> Self {
        BatchJob {
            name: name.into(),
            graph,
            components,
            config,
            defects: DefectMap::pristine(),
            wash: Arc::new(LogLinearWash::paper_calibrated()),
            budget: Budget::unlimited(),
        }
    }

    /// Replaces the execution budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the defect map.
    #[must_use]
    pub fn with_defects(mut self, defects: DefectMap) -> Self {
        self.defects = defects;
        self
    }

    /// Replaces the wash model.
    #[must_use]
    pub fn with_wash(mut self, wash: Arc<dyn WashModel>) -> Self {
        self.wash = wash;
        self
    }

    /// The synthesizer this job runs under.
    pub fn synthesizer(&self) -> Synthesizer {
        Synthesizer::new(self.config.clone())
    }

    /// The schedule-stage cache key of this job (see
    /// [`Synthesizer::schedule_cache_key`]).
    pub fn schedule_key(&self) -> ContentHash {
        self.synthesizer().schedule_cache_key(
            &self.graph,
            &self.components,
            &*self.wash,
            &self.defects,
        )
    }

    /// Synthesizes this job under its budget, through `cache` when given.
    ///
    /// # Errors
    ///
    /// Whatever [`Synthesizer::synthesize_with`] reports.
    pub fn solve(&self, cache: Option<&StageCache>) -> Result<Solution, SynthesisError> {
        self.synthesizer().synthesize_with(
            &self.graph,
            &self.components,
            &*self.wash,
            &self.defects,
            cache,
            &self.budget,
        )
    }
}

/// The per-job row of a [`BatchReport`]. Every field except the two
/// `*_ms` timings is deterministic.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct JobOutcome {
    /// The job's display name.
    pub name: String,
    /// Whether synthesis succeeded.
    pub ok: bool,
    /// Display form of the error on failure.
    pub error: Option<String>,
    /// Placement attempts consumed (0 on failure before placement).
    pub attempts: u32,
    /// Realized assay execution time, seconds (0 on failure).
    pub execution_secs: f64,
    /// Total flow-channel length, millimetres (0 on failure).
    pub channel_length_mm: f64,
    /// Transport tasks routed (0 on failure).
    pub transports: usize,
    /// Hex form of the job's schedule cache key.
    pub schedule_key: String,
    /// True when this job's schedule stage was warm before its solve ran:
    /// already cached when the batch started, or produced by an
    /// earlier-indexed job. Computed from keys alone, so it is
    /// deterministic under any thread count.
    pub warm_schedule: bool,
    /// Wall time of the prep task (schedule + netlist), milliseconds.
    pub prep_ms: f64,
    /// Wall time of the solve task (full cached flow), milliseconds.
    pub solve_ms: f64,
}

/// Summary of one [`run_batch`] call.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct BatchReport {
    /// Worker threads used (`min(MFB_THREADS, jobs)`).
    pub threads: usize,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Jobs that synthesized successfully.
    pub ok: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Wall-clock time of the whole batch, seconds.
    pub wall_seconds: f64,
    /// Jobs per wall-clock second — the headline throughput axis.
    pub assays_per_sec: f64,
    /// Cache hit/miss counters accumulated **by this batch** (the shared
    /// cache's counters are snapshotted before and after).
    pub cache: CacheStats,
    /// Per-job rows, in input order.
    pub outcomes: Vec<JobOutcome>,
}

/// Everything [`run_batch`] produces: the report plus the raw per-job
/// results in input order.
#[derive(Debug)]
pub struct BatchRun {
    /// The summary report.
    pub report: BatchReport,
    /// Per-job results, index-aligned with the input jobs.
    pub solutions: Vec<Result<Solution, SynthesisError>>,
}

/// Milliseconds since `t0`.
fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs every job through the shared cache and returns the results in
/// input order. See the [module docs](self) for the two steps per job and
/// the determinism contract.
pub fn run_batch(jobs: &[BatchJob], cache: &StageCache) -> BatchRun {
    let n = jobs.len();
    let stats_before = cache.stats();
    let started = Instant::now();

    // Warm attribution is decided before any worker runs, from cache keys
    // alone: job i is warm iff its schedule key is already in the cache or
    // collides with an earlier-indexed job's key.
    let keys: Vec<ContentHash> = jobs.iter().map(BatchJob::schedule_key).collect();
    let preexisting: Vec<bool> = keys.iter().map(|k| cache.contains_schedule(*k)).collect();
    let warm: Vec<bool> = (0..n)
        .map(|i| preexisting[i] || keys[..i].contains(&keys[i]))
        .collect();

    let runs = mfb_model::par::par_map_ordered(n, |i| {
        let job = &jobs[i];
        let prep_ms = {
            let _span = mfb_obs::obs_span!("batch.prep", job = i, name = job.name.clone());
            let t0 = Instant::now();
            // Errors and panics are deliberately dropped here: the solve
            // replays them through the same cache (or recomputes, if a
            // panic left no entry) and reports them deterministically. A
            // job whose budget has already tripped skips prep outright —
            // its solve fails at the first checkpoint anyway.
            if job.budget.check().is_ok() {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    job.synthesizer().prepare_cached(
                        &job.graph,
                        &job.components,
                        &*job.wash,
                        &job.defects,
                        cache,
                    )
                }));
            }
            ms_since(t0)
        };
        let _span = mfb_obs::obs_span!("batch.solve", job = i, name = job.name.clone());
        let t0 = Instant::now();
        let result = job.solve(Some(cache));
        (result, prep_ms, ms_since(t0))
    });

    let wall_seconds = started.elapsed().as_secs_f64();
    let mut solutions = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    for (i, (result, prep_ms, solve_ms)) in runs.into_iter().enumerate() {
        let job = &jobs[i];
        let mut outcome = JobOutcome {
            name: job.name.clone(),
            ok: false,
            error: None,
            attempts: 0,
            execution_secs: 0.0,
            channel_length_mm: 0.0,
            transports: 0,
            schedule_key: keys[i].to_hex(),
            warm_schedule: warm[i],
            prep_ms,
            solve_ms,
        };
        match &result {
            Ok(s) => {
                let m = SolutionMetrics::of(s, &job.components);
                outcome.ok = true;
                outcome.attempts = s.attempts;
                outcome.execution_secs = m.execution_time.as_secs_f64();
                outcome.channel_length_mm = m.channel_length_mm;
                outcome.transports = m.transports;
            }
            Err(e) => outcome.error = Some(e.to_string()),
        }
        outcomes.push(outcome);
        solutions.push(result);
    }

    let ok = outcomes.iter().filter(|o| o.ok).count();
    let report = BatchReport {
        threads: mfb_model::par::thread_limit().min(n).max(1),
        jobs: n,
        ok,
        failed: n - ok,
        wall_seconds,
        assays_per_sec: n as f64 / wall_seconds.max(1e-9),
        cache: cache.stats() - stats_before,
        outcomes,
    };
    BatchRun { report, solutions }
}
