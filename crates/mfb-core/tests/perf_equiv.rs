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
//! Everything lives in a single `#[test]` because the thread limit is read
//! from a process-global environment variable: parallel test functions
//! mutating it would race.

use mfb_bench_suite::families::recommended_allocation;
use mfb_bench_suite::synth::SyntheticSpec;
use mfb_bench_suite::{benchmark_by_name, dense_benchmark};
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

/// Debug-formatted resilient outcome for a damaged IVD chip under the given
/// thread limit. Debug output covers the solution, the recovery trace and
/// any degraded artifacts, so a divergence anywhere in the ladder shows up.
fn resilient_debug(threads: &str) -> String {
    std::env::set_var("MFB_THREADS", threads);
    let b = benchmark_by_name("IVD").expect("IVD exists");
    let comps = b.components(&ComponentLibrary::default());
    let mut defects = DefectMap::pristine();
    // A blocked stripe forces at least one failed attempt so the ladder
    // (whose reseed rung is the parallel one) actually runs.
    for x in 0..6 {
        defects.block_cell(CellPos::new(x, 3));
    }
    let out = Synthesizer::paper_dcsa().synthesize_resilient(
        &b.graph,
        &comps,
        &wash(),
        &defects,
        &RecoveryPolicy::default(),
        None,
        &Budget::unlimited(),
    );
    format!("{out:?}")
}

/// Serialized Synthetic4 solutions from the flat retry loop and from the
/// ladder's reseed rung alone, under the given thread limit. Synthetic4
/// routes only on its third attempt, so both loops really retry through
/// the shared attempt search.
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
        &RecoveryPolicy::reseed_only(8),
        None,
        &Budget::unlimited(),
    );
    let reseeded = ladder
        .solution()
        .expect("reseed rung synthesizes Synthetic4");
    (
        serde_json::to_string(&flat).expect("Solution serializes"),
        serde_json::to_string(reseeded).expect("Solution serializes"),
    )
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

    let serial = resilient_debug("1");
    let parallel = resilient_debug("8");
    assert_eq!(
        serial, parallel,
        "resilient outcome must not depend on MFB_THREADS"
    );

    // The flat retry loop and the ladder's reseed rung pick the same winner.
    for threads in ["1", "8"] {
        let (flat, reseeded) = flat_and_reseed_json(threads);
        assert_eq!(
            flat, reseeded,
            "reseed-only ladder diverged from the flat loop at MFB_THREADS={threads}"
        );
    }

    std::env::remove_var("MFB_THREADS");
}
