//! Thread-count determinism golden suite.
//!
//! The deterministic fan-out in `mfb_model::par` promises that every
//! parallel sweep (placement retry attempts, recovery-ladder reseeds) folds
//! its results in input order, so the synthesized [`Solution`] must be
//! **byte-identical** no matter how many worker threads ran. This test pins
//! that contract: it runs the full paper flow with `MFB_THREADS=1` (the
//! plain serial loop) and `MFB_THREADS=8` on every Table-I benchmark and
//! checks the FNV-64 of each serialized solution against a pinned digest,
//! so a change to placement or routing output fails here even when it is
//! thread-count independent.
//!
//! Tier-1's Table-I solutions rarely park a plug away from its
//! destination (Synthetic4 does it 6 times), so the test also pins
//! Synthetic5 (361 remote parks at `MFB_THREADS=1`) and four 40–60-op
//! synthetic assays that each park remotely 25–90 times: a change to the
//! remote-parking search that moves a single park fails here.
//!
//! The recovery ladder is pinned the same way on five damaged chips that
//! end in each part of the ladder: the FNV-64 of the Debug form of its
//! result, and of that result followed by the failed attempts its
//! `recovery.rung` events report (checked when tracing is compiled in).
//!
//! Everything lives in a single `#[test]` because the thread limit is read
//! from a process-global environment variable: parallel test functions
//! mutating it would race.

use mfb_bench_suite::families::recommended_allocation;
use mfb_bench_suite::synth::SyntheticSpec;
use mfb_bench_suite::{benchmark_by_name, dense_benchmark, table1_benchmarks};
use mfb_core::prelude::*;
use mfb_model::hash::StableHasher;
use mfb_model::prelude::*;

/// FNV-64 of each Table-I benchmark's serialized paper-DCSA solution.
const TABLE1_DIGESTS: [(&str, u64); 7] = [
    ("PCR", 0x3ae0_5e9d_595d_890e),
    ("IVD", 0xb440_7251_e9fa_a3db),
    ("CPA", 0xd819_dc57_7f4f_18b0),
    ("Synthetic1", 0x78de_04bf_91b2_fc3c),
    ("Synthetic2", 0xf10a_e38f_48aa_4b9d),
    ("Synthetic3", 0x409d_a4bd_510d_c1ea),
    ("Synthetic4", 0x351f_4bf4_87f6_40c4),
];

/// FNV-64 of the serialized paper-DCSA solution of Synthetic5.
const SYNTHETIC5_DIGEST: u64 = 0xa72b_9f16_f22e_d125;

/// `(ops, seed, digest)` of sweep assays `SyntheticSpec::new(ops, 0xABCD ^
/// seed * 7919 ^ ops)` with kind weights `[4, 2, 2, 1]` on
/// [`recommended_allocation`], chosen because their routing takes the
/// remote-parking route many times.
const SWEEP_DIGESTS: [(usize, u64, u64); 4] = [
    (48, 2, 0x946f_df38_83d7_608e),
    (56, 2, 0xff84_5a9d_93d2_1711),
    (60, 3, 0x997e_f985_f199_f99e),
    (60, 4, 0x9208_6988_6f72_db81),
];

/// `(case, result, record)` pins of the standard ladder's failure record on
/// each case of [`ladder_case`]. One FNV-64 stream hashes the Debug form of
/// the result (`result` is its digest), then one `rung\tattempt\tdetail\terror`
/// line per failed attempt (`record` is the digest of the whole stream).
const LADDER_RECORDS: [(&str, u64, u64); 5] = [
    ("damaged IVD", 0x5f25_f64d_698e_fca9, 0x5f25_f64d_698e_fca9),
    (
        "PCR, whole grid blocked",
        0x1076_e27c_3248_db07,
        0x36f3_d8e7_c319_b2f5,
    ),
    (
        "Synthetic4 li 1 trial 0",
        0x611e_99d0_40c5_9a38,
        0xe69e_7fad_1668_a0cb,
    ),
    (
        "Synthetic4 li 3 trial 1",
        0xe8e7_944f_40c6_4df4,
        0x6493_a594_e117_1a36,
    ),
    (
        "Synthetic2 li 3 trial 0",
        0x6d4c_96db_0c4e_5e42,
        0xd9c8_5b38_b93b_98d8,
    ),
];

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

/// FNV-64 of the serialized solution for `bench` under the paper DCSA
/// flow with the given thread limit.
fn solve_digest(threads: &str, bench: &str) -> u64 {
    let b = benchmark_by_name(bench).expect("Table-I benchmark must exist");
    graph_digest(threads, &b.graph, &b.allocation)
}

/// FNV-64 of the serialized paper-DCSA solution of `graph` on `allocation`
/// with the given thread limit.
fn graph_digest(threads: &str, graph: &SequencingGraph, allocation: &Allocation) -> u64 {
    std::env::set_var("MFB_THREADS", threads);
    let comps = allocation.instantiate(&ComponentLibrary::default());
    let solution = Synthesizer::paper_dcsa()
        .synthesize(graph, &comps, &wash())
        .expect("paper flow must synthesize the pinned assay");
    let json = serde_json::to_string(&solution).expect("Solution serializes");
    let mut h = StableHasher::new();
    h.write_bytes(json.as_bytes());
    h.finish().as_u64()
}

/// The defect map `mfb faults --sweep --trials 2 --seed 1` draws for
/// trial `trial` at severity row `li` of Table-I benchmark `bi`: the CLI's
/// trial seed over the grid of the benchmark's pristine solution.
fn sweep_trial(bi: usize, li: usize, trial: u64) -> (SequencingGraph, ComponentSet, DefectMap) {
    const SEVERITIES: [(f64, f64); 4] = [(0.0, 0.0), (0.01, 0.05), (0.03, 0.10), (0.05, 0.20)];
    let b = table1_benchmarks().swap_remove(bi);
    let comps = b.components(&ComponentLibrary::default());
    let pristine = Synthesizer::paper_dcsa()
        .synthesize(&b.graph, &comps, &wash())
        .expect("Table-I benchmark synthesizes");
    let (cell_p, comp_p) = SEVERITIES[li];
    let trial_seed = 0x0000_0100_0000_01B3 + ((bi as u64) << 40) + ((li as u64) << 20) + trial;
    let defects = DefectMap::sample(
        pristine.placement.grid(),
        &comps,
        cell_p,
        comp_p,
        trial_seed,
    );
    (b.graph, comps, defects)
}

/// The damaged chip of each [`LADDER_RECORDS`] case:
/// * IVD with a blocked stripe, which routes at attempt 1;
/// * PCR with every cell of its pristine grid blocked, which recovers at
///   attempt 2 by growing the grid (only growth adds pristine cells);
/// * three sweep trials that win at attempt 11 (after 8 reseeds and 2
///   grid growths), fail all 15 attempts over all four rungs, and fail
///   scheduling at attempt 1.
fn ladder_case(case: &str) -> (SequencingGraph, ComponentSet, DefectMap) {
    let lib = ComponentLibrary::default();
    match case {
        "damaged IVD" => {
            let b = benchmark_by_name("IVD").expect("IVD exists");
            let mut defects = DefectMap::pristine();
            for x in 0..6 {
                defects.block_cell(CellPos::new(x, 3));
            }
            (b.graph.clone(), b.components(&lib), defects)
        }
        "PCR, whole grid blocked" => {
            let b = benchmark_by_name("PCR").expect("PCR exists");
            let comps = b.components(&lib);
            let grid = Synthesizer::paper_dcsa()
                .synthesize(&b.graph, &comps, &wash())
                .expect("PCR synthesizes")
                .placement
                .grid();
            let mut defects = DefectMap::pristine();
            for y in 0..grid.height {
                for x in 0..grid.width {
                    defects.block_cell(CellPos::new(x, y));
                }
            }
            (b.graph.clone(), comps, defects)
        }
        "Synthetic4 li 1 trial 0" => sweep_trial(6, 1, 0),
        "Synthetic4 li 3 trial 1" => sweep_trial(6, 3, 1),
        "Synthetic2 li 3 trial 0" => sweep_trial(4, 3, 0),
        _ => unreachable!("unknown ladder case {case}"),
    }
}

/// The `(result, record)` digests of [`LADDER_RECORDS`] for `case` under
/// the given thread limit. The failed attempts are the ladder's
/// `recovery.rung` events, so without tracing compiled in the record
/// stream holds the result alone.
fn ladder_record(threads: &str, case: &str) -> (u64, u64) {
    std::env::set_var("MFB_THREADS", threads);
    let (graph, comps, defects) = ladder_case(case);
    let collector = mfb_obs::TraceCollector::new();
    let result = mfb_obs::with_collector(&collector, || {
        Synthesizer::paper_dcsa().synthesize_resilient(
            &graph,
            &comps,
            &wash(),
            &defects,
            None,
            &Budget::unlimited(),
        )
    });
    let mut h = StableHasher::new();
    h.write_bytes(format!("{result:?}").as_bytes());
    let result = h.finish().as_u64();
    let trace = collector.finish();
    let failed = trace
        .events
        .iter()
        .filter(|e| e.name == "recovery.rung" && e.str_field("outcome") == Some("failed"));
    for e in failed {
        let field = |key| e.str_field(key).unwrap_or_default();
        let attempt = e.u64_field("attempt").unwrap_or_default();
        let line = format!(
            "{}\t{attempt}\t{}\t{}\n",
            field("rung"),
            field("detail"),
            field("error")
        );
        h.write_bytes(line.as_bytes());
    }
    (result, h.finish().as_u64())
}

/// Serialized Synthetic4 solutions from the flat retry loop and from the
/// standard ladder, under the given thread limit. Synthetic4
/// routes only on its third attempt, so both loops really retry through
/// the shared retry loop, and the ladder wins in its reseed rung.
fn flat_and_reseed_json(threads: &str) -> (String, String) {
    std::env::set_var("MFB_THREADS", threads);
    let b = benchmark_by_name("Synthetic4").expect("Synthetic4 exists");
    let comps = b.components(&ComponentLibrary::default());
    let synth = Synthesizer::paper_dcsa();
    let flat = synth
        .synthesize(&b.graph, &comps, &wash())
        .expect("Synthetic4 synthesizes");
    assert!(flat.attempts > 1, "Synthetic4 must need a retry");
    let ladder = synth.synthesize_resilient(
        &b.graph,
        &comps,
        &wash(),
        &DefectMap::pristine(),
        None,
        &Budget::unlimited(),
    );
    let reseeded = ladder.expect("reseed rung synthesizes Synthetic4");
    assert!(
        reseeded.attempts <= Rung::Reseed.attempts(),
        "Synthetic4 must win in the reseed rung"
    );
    (
        serde_json::to_string(&flat).expect("Solution serializes"),
        serde_json::to_string(&reseeded).expect("Solution serializes"),
    )
}

/// Channel-length optimizer runs of one optimizing ladder run on the
/// Synthetic4 sweep trial at severity row 1, trial 1, under the given
/// thread limit. The reseed rung fans attempts out; only the winner may be
/// optimized.
fn ladder_optimize_misses(threads: &str) -> u64 {
    std::env::set_var("MFB_THREADS", threads);
    let (graph, comps, defects) = sweep_trial(6, 1, 1);
    let mut cfg = SynthesisConfig::paper_dcsa();
    cfg.optimize_channels = true;
    let cache = StageCache::new();
    let out = Synthesizer::new(cfg).synthesize_resilient(
        &graph,
        &comps,
        &wash(),
        &defects,
        Some(&cache),
        &Budget::unlimited(),
    );
    assert!(out.is_ok(), "{out:?}");
    cache.stats().optimize_misses
}

#[test]
fn solution_is_byte_identical_across_thread_counts() {
    for (bench, pinned) in TABLE1_DIGESTS {
        for threads in ["1", "8"] {
            let digest = solve_digest(threads, bench);
            assert_eq!(
                digest, pinned,
                "{bench}: solution digest {digest:#018x} at MFB_THREADS={threads} \
                 differs from the pinned {pinned:#018x}"
            );
        }
    }

    let dense = dense_benchmark();
    for (ops, seed, pinned) in SWEEP_DIGESTS {
        let graph = SyntheticSpec::new(ops, 0xABCD ^ (seed * 7919) ^ ops as u64)
            .kind_weights([4, 2, 2, 1])
            .generate();
        let allocation = recommended_allocation(&graph);
        for threads in ["1", "8"] {
            let digest = graph_digest(threads, &graph, &allocation);
            assert_eq!(
                digest, pinned,
                "sweep {ops} ops seed {seed}: solution digest {digest:#018x} at \
                 MFB_THREADS={threads} differs from the pinned {pinned:#018x}"
            );
        }
    }
    for threads in ["1", "8"] {
        let digest = graph_digest(threads, &dense.graph, &dense.allocation);
        assert_eq!(
            digest, SYNTHETIC5_DIGEST,
            "Synthetic5: solution digest {digest:#018x} at MFB_THREADS={threads} \
             differs from the pinned {SYNTHETIC5_DIGEST:#018x}"
        );
    }

    for (case, result, record) in LADDER_RECORDS {
        for threads in ["1", "8"] {
            let got = ladder_record(threads, case);
            assert_eq!(
                got.0, result,
                "{case}: ladder result digest {:#018x} at MFB_THREADS={threads} \
                 differs from the pinned {result:#018x}",
                got.0
            );
            if cfg!(feature = "obs-trace") {
                assert_eq!(
                    got.1, record,
                    "{case}: ladder record digest {:#018x} at MFB_THREADS={threads} \
                     differs from the pinned {record:#018x}",
                    got.1
                );
            }
        }
    }

    // The flat retry loop and the ladder's reseed rung pick the same winner.
    for threads in ["1", "8"] {
        let (flat, reseeded) = flat_and_reseed_json(threads);
        assert_eq!(
            flat, reseeded,
            "ladder's reseed rung diverged from the flat loop at MFB_THREADS={threads}"
        );
    }

    // A thread setting must not multiply the ladder's work: speculative
    // reseeds that also route are never optimized. When the ladder still
    // optimized inside each attempt, this held only under a thread limit
    // of 1 (e.g. on a single core); at 2 threads on 2 cores it counted 2.
    for threads in ["1", "2", "8"] {
        assert_eq!(
            ladder_optimize_misses(threads),
            1,
            "the ladder optimized more than its winner at MFB_THREADS={threads}"
        );
    }

    std::env::remove_var("MFB_THREADS");
}
