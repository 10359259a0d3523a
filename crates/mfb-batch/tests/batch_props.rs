//! Property suite for the batch executor: on **random** assay DAGs, a
//! warm-cache batch run under any worker-pool width must be byte-identical
//! to serial, uncached synthesis of every job.
//!
//! The whole suite is a single proptest `#[test]` because the pool width
//! comes from the process-global `MFB_THREADS` variable; concurrent test
//! functions mutating it would race. (Other test *binaries* are separate
//! processes, so they are unaffected.)

use mfb_batch::prelude::*;
use mfb_bench_suite::synth::SyntheticSpec;
use mfb_core::prelude::*;
use mfb_model::prelude::*;
use proptest::prelude::*;

fn job(n: usize, dag_seed: u64, sa_seed: u64, name: &str) -> BatchJob {
    let graph = SyntheticSpec::new(n, dag_seed).generate();
    let comps = Allocation::new(2, 2, 2, 2).instantiate(&ComponentLibrary::default());
    BatchJob::new(
        name,
        graph,
        comps,
        SynthesisConfig::paper_dcsa().with_seed(sa_seed),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn warm_batches_equal_serial_uncached_synthesis(
        n in 2usize..14,
        dag_seed in any::<u64>(),
        sa_seed in any::<u64>(),
    ) {
        // Three jobs: a base assay, its exact duplicate (full cache
        // overlap), and an independent assay (no overlap).
        let jobs = vec![
            job(n, dag_seed, sa_seed, "base"),
            job(n, dag_seed, sa_seed, "dup"),
            job(n.max(3) - 1, dag_seed ^ 0x9e37_79b9, sa_seed, "other"),
        ];

        std::env::set_var("MFB_THREADS", "1");
        let want: Vec<String> = jobs
            .iter()
            .map(|j| {
                let r = j
                    .synthesizer()
                    .synthesize_with(
                        &j.graph,
                        &j.components,
                        &*j.wash,
                        &j.defects,
                        None,
                        &Budget::unlimited(),
                    );
                format!("{r:?}")
            })
            .collect();

        let cache = StageCache::new();
        for threads in ["1", "8"] {
            std::env::set_var("MFB_THREADS", threads);
            // First pass per width is cold-or-warm depending on the
            // previous iteration; the second is fully warm. All must match.
            for pass in 0..2 {
                let run = run_batch(&jobs, &cache);
                let got: Vec<String> =
                    run.solutions.iter().map(|r| format!("{r:?}")).collect();
                prop_assert_eq!(
                    &got,
                    &want,
                    "MFB_THREADS={} pass {}: batch diverged from serial uncached",
                    threads,
                    pass
                );
                prop_assert_eq!(run.report.jobs, 3);
                // The duplicate job guarantees schedule reuse even cold.
                prop_assert!(run.report.cache.hits() > 0);
            }
        }
        // Fully warm by now: nothing recomputes.
        let warm = run_batch(&jobs, &cache);
        prop_assert_eq!(warm.report.cache.misses(), 0);

        std::env::remove_var("MFB_THREADS");
    }
}
