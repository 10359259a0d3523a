//! Stage-cache equivalence golden suite.
//!
//! The content-addressed [`StageCache`] promises that caching is purely a
//! wall-clock optimization: a cached synthesis — cold (populating) or warm
//! (replaying) — must produce solutions **byte-identical** to the plain
//! uncached flow, and the recovery ladder must produce an identical trace.
//! These tests pin that contract, plus the cache-accounting invariants the
//! batch engine's reports rely on (deterministic hit/miss counters, one
//! schedule validation per distinct schedule).

use mfb_bench_suite::benchmark_by_name;
use mfb_core::prelude::*;
use mfb_model::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

fn setup(bench: &str) -> (SequencingGraph, ComponentSet) {
    let b = benchmark_by_name(bench).expect("Table-I benchmark must exist");
    let comps = b.components(&ComponentLibrary::default());
    (b.graph, comps)
}

/// `syn` on a pristine chip through `cache`, with an unlimited budget.
fn cached(
    syn: &Synthesizer,
    graph: &SequencingGraph,
    comps: &ComponentSet,
    cache: &StageCache,
) -> Result<Solution, SynthesisError> {
    let pristine = DefectMap::pristine();
    syn.synthesize_with(
        graph,
        comps,
        &wash(),
        &pristine,
        Some(cache),
        &Budget::unlimited(),
    )
}

/// The paper flow plus both configurations whose stage keys and compute
/// calls the plain flow never reaches: the baseline's constructive placer
/// and corrected router, and the channel-length optimizer on each flow.
fn equivalence_configs() -> Vec<(&'static str, Synthesizer)> {
    let optimized = |mut cfg: SynthesisConfig| {
        cfg.optimize_channels = true;
        Synthesizer::new(cfg)
    };
    vec![
        ("dcsa", Synthesizer::paper_dcsa()),
        (
            "baseline+optimize",
            optimized(SynthesisConfig::paper_baseline()),
        ),
        ("dcsa+optimize", optimized(SynthesisConfig::paper_dcsa())),
    ]
}

#[test]
fn cached_solutions_are_byte_identical_to_uncached() {
    for (bench, (flow, syn)) in ["PCR", "IVD"]
        .into_iter()
        .flat_map(|bench| equivalence_configs().into_iter().map(move |c| (bench, c)))
    {
        let (graph, comps) = setup(bench);
        let bench = format!("{bench}/{flow}");

        let plain = syn
            .synthesize(&graph, &comps, &wash())
            .expect("paper flow must synthesize its own benchmark");
        let want = serde_json::to_string(&plain).expect("Solution serializes");

        let cache = StageCache::new();
        let cold = cached(&syn, &graph, &comps, &cache).expect("cold cached run must synthesize");
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            want,
            "{bench}: cold cached run diverged from uncached"
        );
        let miss_stats = cache.stats();
        assert_eq!(miss_stats.hits(), 0, "{bench}: a cold run cannot hit");
        assert!(miss_stats.misses() > 0);

        let warm = cached(&syn, &graph, &comps, &cache).expect("warm cached run must synthesize");
        assert_eq!(
            serde_json::to_string(&warm).unwrap(),
            want,
            "{bench}: warm cached run diverged from uncached"
        );
        let warm_stats = cache.stats() - miss_stats;
        assert_eq!(
            warm_stats.misses(),
            0,
            "{bench}: a warm replay must not recompute any stage"
        );
        assert!(warm_stats.hits() > 0);
    }
}

#[test]
fn schedules_validate_once_per_distinct_schedule() {
    let (graph, comps) = setup("PCR");
    let syn = Synthesizer::paper_dcsa();
    let cache = StageCache::new();

    for _ in 0..3 {
        cached(&syn, &graph, &comps, &cache).expect("PCR synthesizes");
    }
    let stats = cache.stats();
    assert_eq!(stats.schedule_misses, 1, "one distinct schedule");
    assert_eq!(
        stats.schedule_validations, 1,
        "a schedule is validated once per hash, not once per request"
    );

    // A different t_c is a different schedule key: one more validation.
    let mut cfg = SynthesisConfig::paper_dcsa();
    cfg.t_c = Duration::from_secs(3);
    cached(&Synthesizer::new(cfg), &graph, &comps, &cache).expect("PCR synthesizes under t_c = 3");
    let stats = cache.stats();
    assert_eq!(stats.schedule_misses, 2);
    assert_eq!(stats.schedule_validations, 2);
}

#[test]
fn cached_recovery_ladder_matches_uncached_trace() {
    let (graph, comps) = setup("IVD");
    let mut defects = DefectMap::pristine();
    for x in 0..6 {
        defects.block_cell(CellPos::new(x, 3));
    }
    let syn = Synthesizer::paper_dcsa();
    let policy = RecoveryPolicy::default();

    let ladder = |cache: Option<&StageCache>| {
        syn.synthesize_resilient(
            &graph,
            &comps,
            &wash(),
            &defects,
            &policy,
            cache,
            &Budget::unlimited(),
        )
    };

    let plain = ladder(None);
    let want = format!("{plain:?}");

    let cache = StageCache::new();
    let cold = ladder(Some(&cache));
    assert_eq!(
        format!("{cold:?}"),
        want,
        "cold cached recovery diverged from uncached"
    );
    let cold_stats = cache.stats();

    let warm = ladder(Some(&cache));
    assert_eq!(
        format!("{warm:?}"),
        want,
        "warm cached recovery diverged from uncached"
    );
    let warm_stats = cache.stats() - cold_stats;
    assert_eq!(
        warm_stats.schedule_misses, 0,
        "warm ladder must reuse every schedule"
    );
    assert_eq!(
        warm_stats.schedule_validations, 0,
        "warm ladder must not re-validate schedules"
    );
}

#[test]
fn defect_maps_address_distinct_cache_entries() {
    let (graph, comps) = setup("PCR");
    let syn = Synthesizer::paper_dcsa();
    let cache = StageCache::new();

    cached(&syn, &graph, &comps, &cache).expect("pristine PCR synthesizes");
    let pristine_stats = cache.stats();

    let mut defects = DefectMap::pristine();
    defects.block_cell(CellPos::new(0, 0));
    let damaged = syn
        .synthesize_with(
            &graph,
            &comps,
            &wash(),
            &defects,
            Some(&cache),
            &Budget::unlimited(),
        )
        .expect("lightly damaged PCR synthesizes");
    let delta = cache.stats() - pristine_stats;
    assert!(
        delta.misses() > 0,
        "a different defect map must not be served from pristine entries"
    );

    let uncached = syn
        .synthesize_with(
            &graph,
            &comps,
            &wash(),
            &defects,
            None,
            &Budget::unlimited(),
        )
        .expect("uncached damaged PCR synthesizes");
    assert_eq!(
        serde_json::to_string(&damaged).unwrap(),
        serde_json::to_string(&uncached).unwrap(),
        "damaged-chip cached run diverged from uncached"
    );
}

#[test]
fn interrupted_runs_never_poison_the_cache() {
    let (graph, comps) = setup("PCR");
    let syn = Synthesizer::paper_dcsa();
    let cache = StageCache::new();

    // A pre-cancelled budget: the run claims in-flight slots, trips the
    // first checkpoint inside the stage, and the interrupted result must
    // be released as uncacheable — never stored where a later request
    // could observe it.
    let token = CancelToken::new();
    token.cancel();
    let cancelled = Budget::unlimited().with_cancel(token);
    let err = syn
        .synthesize_with(
            &graph,
            &comps,
            &wash(),
            &DefectMap::pristine(),
            Some(&cache),
            &cancelled,
        )
        .expect_err("a cancelled budget must interrupt synthesis");
    assert_eq!(err.interrupt(), Some(BudgetExceeded::Cancelled));
    assert_eq!(
        cache.ready_entries(),
        0,
        "cancelled stage results must not be cached"
    );

    // Same contract for the deadline flavor.
    let expired = Budget::with_timeout(std::time::Duration::ZERO);
    let err = syn
        .synthesize_with(
            &graph,
            &comps,
            &wash(),
            &DefectMap::pristine(),
            Some(&cache),
            &expired,
        )
        .expect_err("an expired deadline must interrupt synthesis");
    assert_eq!(err.interrupt(), Some(BudgetExceeded::DeadlineExceeded));
    assert_eq!(
        cache.ready_entries(),
        0,
        "deadline-expired stage results must not be cached"
    );

    // The cache is unharmed: a real run recomputes everything (nothing
    // was stored, so it cannot hit) and matches the uncached flow.
    let plain = syn
        .synthesize(&graph, &comps, &wash())
        .expect("PCR synthesizes");
    let solved =
        cached(&syn, &graph, &comps, &cache).expect("PCR synthesizes after interrupted attempts");
    assert_eq!(
        serde_json::to_string(&solved).unwrap(),
        serde_json::to_string(&plain).unwrap(),
        "a cache that saw interrupted runs must still reproduce the plain flow"
    );
    assert!(cache.ready_entries() > 0);
}

#[test]
fn waiters_survive_a_cancelled_leader() {
    let (graph, comps) = setup("PCR");
    let syn = Synthesizer::paper_dcsa();
    let plain = syn
        .synthesize(&graph, &comps, &wash())
        .expect("PCR synthesizes");
    let want = serde_json::to_string(&plain).unwrap();

    // One cancelled requester races three unlimited ones on a shared
    // cache. Whatever the interleaving, the in-flight dedup must not
    // deadlock: a cancelled leader's released slot is taken over by a
    // waiter, and a cancelled waiter simply errors at its next
    // checkpoint. Every unlimited run must produce the plain solution.
    let cache = StageCache::new();
    let token = CancelToken::new();
    token.cancel();

    std::thread::scope(|s| {
        let leader = {
            let budget = Budget::unlimited().with_cancel(token.clone());
            let (graph, comps, cache, syn) = (&graph, &comps, &cache, &syn);
            s.spawn(move || {
                syn.synthesize_with(
                    graph,
                    comps,
                    &wash(),
                    &DefectMap::pristine(),
                    Some(cache),
                    &budget,
                )
            })
        };
        let followers: Vec<_> = (0..3)
            .map(|_| {
                let (graph, comps, cache, syn) = (&graph, &comps, &cache, &syn);
                s.spawn(move || {
                    syn.synthesize_with(
                        graph,
                        comps,
                        &wash(),
                        &DefectMap::pristine(),
                        Some(cache),
                        &Budget::unlimited(),
                    )
                })
            })
            .collect();

        let err = leader
            .join()
            .expect("cancelled leader must not panic")
            .expect_err("cancelled leader must error");
        assert_eq!(err.interrupt(), Some(BudgetExceeded::Cancelled));
        for f in followers {
            let sol = f
                .join()
                .expect("waiter must not panic")
                .expect("unlimited waiters must synthesize");
            assert_eq!(
                serde_json::to_string(&sol).unwrap(),
                want,
                "waiter diverged after taking over from a cancelled leader"
            );
        }
    });

    // The survivors converged on one stored schedule, validated once —
    // the cancelled leader neither validated nor stored anything.
    let stats = cache.stats();
    assert_eq!(stats.schedule_validations, 1);
}
