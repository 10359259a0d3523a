//! Batch-executor golden suite: cached, pipelined, multi-threaded batches
//! must produce solutions **byte-identical** to serial uncached synthesis.
//!
//! Everything lives in a single `#[test]` because the worker-pool width is
//! read from the process-global `MFB_THREADS` variable: parallel test
//! functions mutating it would race.

use mfb_batch::prelude::*;
use mfb_bench_suite::benchmark_by_name;
use mfb_core::prelude::*;
use mfb_model::prelude::*;

fn bench_job(bench: &str, name: &str, seed: Option<u64>) -> BatchJob {
    let b = benchmark_by_name(bench).expect("Table-I benchmark must exist");
    let comps = b.components(&ComponentLibrary::default());
    let mut cfg = SynthesisConfig::paper_dcsa();
    if let Some(seed) = seed {
        cfg = cfg.with_seed(seed);
    }
    BatchJob::new(name, b.graph, comps, cfg)
}

/// Serial, uncached reference: each job synthesized independently with the
/// plain (pre-cache) entry point.
fn reference_json(jobs: &[BatchJob]) -> Vec<String> {
    jobs.iter()
        .map(|job| {
            let solution = job
                .synthesizer()
                .synthesize_with(
                    &job.graph,
                    &job.components,
                    &*job.wash,
                    &job.defects,
                    None,
                    &Budget::unlimited(),
                )
                .expect("reference jobs must synthesize");
            serde_json::to_string(&solution).expect("Solution serializes")
        })
        .collect()
}

fn batch_json(run: &BatchRun) -> Vec<String> {
    run.solutions
        .iter()
        .map(|r| {
            let s = r.as_ref().expect("batch jobs must synthesize");
            serde_json::to_string(s).expect("Solution serializes")
        })
        .collect()
}

#[test]
fn batches_match_serial_uncached_synthesis_byte_for_byte() {
    // Duplicates and a seed variant exercise intra-batch cache sharing:
    // PCR#2 repeats PCR#1 exactly; PCR-alt shares its schedule (the seed
    // only moves placement); IVD shares nothing.
    let jobs = vec![
        bench_job("PCR", "PCR#1", None),
        bench_job("PCR", "PCR#2", None),
        bench_job("PCR", "PCR-alt", Some(7)),
        bench_job("IVD", "IVD", None),
    ];

    std::env::set_var("MFB_THREADS", "1");
    let want = reference_json(&jobs);

    // Cold batch, serial worker.
    let cache = StageCache::new();
    let cold = run_batch(&jobs, &cache);
    assert_eq!(batch_json(&cold), want, "cold serial batch diverged");
    assert_eq!(cold.report.jobs, 4);
    assert_eq!(cold.report.ok, 4);
    assert_eq!(cold.report.failed, 0);
    assert_eq!(cold.report.threads, 1);
    assert!(cold.report.assays_per_sec > 0.0);
    // PCR#2 reuses PCR#1's stages wholesale, and PCR-alt reuses its
    // schedule; three distinct schedules total.
    assert_eq!(cold.report.cache.schedule_misses, 2);
    assert!(cold.report.cache.schedule_hits >= 2);
    assert!(
        cold.report.cache.hits() > 0,
        "duplicates must hit the cache"
    );
    let warm_flags: Vec<bool> = cold
        .report
        .outcomes
        .iter()
        .map(|o| o.warm_schedule)
        .collect();
    assert_eq!(warm_flags, [false, true, true, false]);

    // Warm batch over the now-populated cache, wide worker pool: every
    // stage is a hit and the bytes still match.
    std::env::set_var("MFB_THREADS", "8");
    let warm = run_batch(&jobs, &cache);
    assert_eq!(batch_json(&warm), want, "warm parallel batch diverged");
    assert_eq!(
        warm.report.cache.misses(),
        0,
        "warm batch must not recompute"
    );
    assert!(warm.report.outcomes.iter().all(|o| o.warm_schedule));
    assert_eq!(
        warm.report.cache.schedule_validations, 0,
        "schedules were already validated by the cold batch"
    );

    // Cold batch again, wide pool, fresh cache: still byte-identical.
    let cache2 = StageCache::new();
    let cold_par = run_batch(&jobs, &cache2);
    assert_eq!(batch_json(&cold_par), want, "cold parallel batch diverged");
    assert_eq!(cold_par.report.cache.schedule_misses, 2);

    // Reports are deterministic apart from wall-clock fields.
    let mut a = cold.report.clone();
    let mut b = cold_par.report.clone();
    a.threads = 0;
    b.threads = 0;
    a.wall_seconds = 0.0;
    b.wall_seconds = 0.0;
    a.assays_per_sec = 0.0;
    b.assays_per_sec = 0.0;
    for o in a.outcomes.iter_mut().chain(b.outcomes.iter_mut()) {
        o.prep_ms = 0.0;
        o.solve_ms = 0.0;
    }
    assert_eq!(
        a, b,
        "deterministic report fields must not depend on MFB_THREADS"
    );

    // An empty batch is a no-op, not a hang.
    let empty = run_batch(&[], &cache);
    assert_eq!(empty.report.jobs, 0);
    assert!(empty.solutions.is_empty());

    std::env::remove_var("MFB_THREADS");
}
