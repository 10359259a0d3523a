//! The pipelined batch executor.
//!
//! [`run_batch`] drains a queue of [`BatchJob`]s through a pool of bounded
//! worker threads (capped by `MFB_THREADS`, like every parallel sweep in
//! this workspace) that share one [`StageCache`]. Each job is split into
//! two tasks:
//!
//! * **prep** — scheduling and netlist construction, pushed into the cache
//!   via [`Synthesizer::prepare_cached`];
//! * **solve** — the full flow, [`Synthesizer::synthesize_with`] on the
//!   shared cache, which picks the prepped stages up warm and spends its
//!   time on placement SA and routing.
//!
//! Workers prefer the lowest-index prepped job and otherwise pull the next
//! prep task, so the solve of job *i* overlaps the prep of job *i+1* — and
//! with more than one worker, the routing of job *i* overlaps the
//! annealing of job *i+1* outright. Because every stage is a pure
//! function addressed by content (see `mfb_core::cache`), the scheduling
//! order affects only wall-clock time: results are folded in input order
//! and are **byte-identical** to serial uncached synthesis for any
//! `MFB_THREADS`, which the golden and property tests pin.
//!
//! Worker panics are contained per job and replayed for the lowest job
//! index after the batch drains, mirroring `mfb_model::par`'s semantics.

use mfb_core::prelude::*;
use mfb_model::hash::ContentHash;
use mfb_model::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

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

/// Per-job scratch the workers fill in.
#[derive(Default)]
struct Record {
    result: Option<std::thread::Result<Result<Solution, SynthesisError>>>,
    prep_ms: f64,
    solve_ms: f64,
}

/// Scheduler state of the two-stage pipeline.
struct Pipeline {
    /// Next job whose prep task has not been claimed.
    next_prep: usize,
    /// Prepped jobs awaiting a solve, popped lowest index first.
    ready: BinaryHeap<Reverse<usize>>,
    /// Jobs whose solve task has finished.
    solved: usize,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs every job through the shared cache and folds the results in input
/// order. See the [module docs](self) for the pipeline structure and the
/// determinism contract.
pub fn run_batch(jobs: &[BatchJob], cache: &StageCache) -> BatchRun {
    let n = jobs.len();
    let stats_before = cache.stats();
    let started = std::time::Instant::now();

    // Warm attribution is decided before any worker runs, from cache keys
    // alone: job i is warm iff its schedule key is already in the cache or
    // collides with an earlier-indexed job's key.
    let keys: Vec<ContentHash> = jobs.iter().map(BatchJob::schedule_key).collect();
    let preexisting: Vec<bool> = keys.iter().map(|k| cache.contains_schedule(*k)).collect();
    let warm: Vec<bool> = (0..n)
        .map(|i| preexisting[i] || keys[..i].contains(&keys[i]))
        .collect();

    let workers = mfb_model::par::thread_limit().max(1).min(n.max(1));
    let records: Vec<Mutex<Record>> = (0..n).map(|_| Mutex::new(Record::default())).collect();
    let state = Mutex::new(Pipeline {
        next_prep: 0,
        ready: BinaryHeap::new(),
        solved: 0,
    });
    let idle = Condvar::new();

    enum Task {
        Prep(usize),
        Solve(usize),
    }

    // Pipeline workers inherit the caller's trace subscriber, so one
    // trace shows per-job prep/solve occupancy across every worker lane.
    let obs = mfb_obs::current();
    if n > 0 {
        std::thread::scope(|scope| {
            let state = &state;
            let records = &records;
            let idle = &idle;
            for _ in 0..workers {
                let obs = obs.clone();
                scope.spawn(move || {
                    let _obs_guard = obs.as_ref().map(mfb_obs::install);
                    loop {
                        let task = {
                            let mut st = lock(state);
                            loop {
                                if let Some(Reverse(i)) = st.ready.pop() {
                                    break Task::Solve(i);
                                }
                                if st.next_prep < n {
                                    let i = st.next_prep;
                                    st.next_prep += 1;
                                    break Task::Prep(i);
                                }
                                if st.solved == n {
                                    return;
                                }
                                st = idle.wait(st).unwrap_or_else(PoisonError::into_inner);
                            }
                        };
                        match task {
                            Task::Prep(i) => {
                                let job = &jobs[i];
                                let _span = mfb_obs::obs_span!(
                                    "batch.prep",
                                    job = i,
                                    name = job.name.clone()
                                );
                                let t0 = std::time::Instant::now();
                                // Errors and panics are deliberately dropped
                                // here: the solve task replays them through the
                                // same cache (or recomputes, if a panic left no
                                // entry) and reports them deterministically. A
                                // job whose budget has already tripped skips
                                // prep outright — its solve fails at the first
                                // checkpoint anyway.
                                if job.budget.check().is_ok() {
                                    let _ = catch_unwind(AssertUnwindSafe(|| {
                                        let _ = job.synthesizer().prepare_cached(
                                            &job.graph,
                                            &job.components,
                                            &*job.wash,
                                            &job.defects,
                                            cache,
                                        );
                                    }));
                                }
                                lock(&records[i]).prep_ms = t0.elapsed().as_secs_f64() * 1e3;
                                let mut st = lock(state);
                                st.ready.push(Reverse(i));
                                drop(st);
                                idle.notify_all();
                            }
                            Task::Solve(i) => {
                                let job = &jobs[i];
                                let _span = mfb_obs::obs_span!(
                                    "batch.solve",
                                    job = i,
                                    name = job.name.clone()
                                );
                                let t0 = std::time::Instant::now();
                                let result = catch_unwind(AssertUnwindSafe(|| {
                                    job.synthesizer().synthesize_with(
                                        &job.graph,
                                        &job.components,
                                        &*job.wash,
                                        &job.defects,
                                        Some(cache),
                                        &job.budget,
                                    )
                                }));
                                {
                                    let mut r = lock(&records[i]);
                                    r.solve_ms = t0.elapsed().as_secs_f64() * 1e3;
                                    r.result = Some(result);
                                }
                                let mut st = lock(state);
                                st.solved += 1;
                                let done = st.solved == n;
                                drop(st);
                                if done {
                                    idle.notify_all();
                                }
                            }
                        }
                    }
                });
            }
        });
    }

    // Fold in input order; the lowest-index panic (if any) replays exactly
    // as it would have in a serial loop.
    let mut solutions = Vec::with_capacity(n);
    let mut timings = Vec::with_capacity(n);
    for rec in records {
        let rec = rec.into_inner().unwrap_or_else(PoisonError::into_inner);
        timings.push((rec.prep_ms, rec.solve_ms));
        match rec.result.expect("every job's solve task ran") {
            Ok(r) => solutions.push(r),
            Err(payload) => resume_unwind(payload),
        }
    }

    let wall_seconds = started.elapsed().as_secs_f64();
    let outcomes: Vec<JobOutcome> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let (prep_ms, solve_ms) = timings[i];
            match &solutions[i] {
                Ok(s) => {
                    let m = SolutionMetrics::of(s, &job.components);
                    JobOutcome {
                        name: job.name.clone(),
                        ok: true,
                        error: None,
                        attempts: s.attempts,
                        execution_secs: m.execution_time.as_secs_f64(),
                        channel_length_mm: m.channel_length_mm,
                        transports: m.transports,
                        schedule_key: keys[i].to_hex(),
                        warm_schedule: warm[i],
                        prep_ms,
                        solve_ms,
                    }
                }
                Err(e) => JobOutcome {
                    name: job.name.clone(),
                    ok: false,
                    error: Some(e.to_string()),
                    attempts: 0,
                    execution_secs: 0.0,
                    channel_length_mm: 0.0,
                    transports: 0,
                    schedule_key: keys[i].to_hex(),
                    warm_schedule: warm[i],
                    prep_ms,
                    solve_ms,
                },
            }
        })
        .collect();

    let ok = outcomes.iter().filter(|o| o.ok).count();
    let report = BatchReport {
        threads: workers,
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
