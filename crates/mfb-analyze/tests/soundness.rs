//! Soundness pins for the static analyzer against the dynamic replay
//! oracle.
//!
//! Two guarantees are exercised end-to-end on the paper's Table-I
//! workloads:
//!
//! 1. **No false positives on clean solutions** — every freshly
//!    synthesized Table-I solution replays cleanly, and the analyzer
//!    agrees (no `Error`-severity findings).
//! 2. **Superset of replay's contamination classes** — for corrupted
//!    solutions, every cell the replay engine flags as a `CellConflict`
//!    or `WashGap` also appears among the analyzer's `ANA-TAINT-001`
//!    locations (zero false negatives on the shared conflict classes).
//!
//! Plus the determinism contract: rendered reports are byte-identical
//! across `MFB_THREADS` settings, SARIF output stays valid JSON, and the
//! bytes of every checker report are pinned by golden digests.

use mfb_bench_suite::synth::SyntheticSpec;
use mfb_bench_suite::table1_benchmarks;
use mfb_core::prelude::*;
use mfb_model::prelude::*;
use mfb_sim::prelude::{replay, SimViolation};
use mfb_verify::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

/// Appends one occupancy of the first routed fluid's head cell to the
/// first path of a different fluid — the recipe of `mfb analyze --inject`.
/// `conflict` books the donor's window itself; `wash-gap` arrives one
/// tick after the donor leaves, inside its residue horizon. Returns
/// `false` when the solution has no suitable victim.
fn inject(sol: &mut Solution, kind: &str) -> bool {
    let paths = &mut sol.routing.paths;
    let Some(donor) = paths.iter().find(|p| !p.is_empty()) else {
        return false;
    };
    let (fluid, cell, window) = (donor.fluid, donor.cells[0], donor.windows[0]);
    let Some(victim) = paths.iter_mut().find(|p| p.fluid != fluid && !p.is_empty()) else {
        return false;
    };
    let window = match kind {
        "conflict" => window,
        "wash-gap" => {
            let start = window.end + Duration::from_ticks(1);
            Interval::new(start, start + Duration::from_secs(2))
        }
        other => panic!("unknown defect kind {other}"),
    };
    victim.cells.push(cell);
    victim.windows.push(window);
    true
}

#[test]
fn table1_clean_solutions_are_analysis_clean() {
    for b in table1_benchmarks() {
        let comps = b.components(&ComponentLibrary::default());
        let sol = Synthesizer::paper_dcsa()
            .synthesize(&b.graph, &comps, &wash())
            .expect("Table-I benchmark synthesizes");
        let sim = replay(
            &b.graph,
            &comps,
            &sol.schedule,
            &sol.placement,
            &sol.routing,
            &wash(),
        );
        assert!(
            sim.is_valid(),
            "{}: replay found {:?}",
            b.name,
            sim.violations
        );
        let report = sol.analyze(&b.graph, &comps, &wash());
        let errors: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{}: {errors:?}", b.name);
    }
}

#[test]
fn analyzer_findings_superset_replay_conflicts() {
    // Every CellConflict / WashGap cell the replay oracle reports for a
    // corrupted solution must appear among ANA-TAINT-001 locations: the
    // all-ordered-pairs taint check subsumes replay's overlapping-pair and
    // consecutive-wash-gap classes.
    let mut corrupted = 0;
    for b in table1_benchmarks() {
        let comps = b.components(&ComponentLibrary::default());
        let mut sol = Synthesizer::paper_dcsa()
            .synthesize(&b.graph, &comps, &wash())
            .expect("Table-I benchmark synthesizes");
        if !inject(&mut sol, "conflict") {
            continue;
        }
        corrupted += 1;
        let sim = replay(
            &b.graph,
            &comps,
            &sol.schedule,
            &sol.placement,
            &sol.routing,
            &wash(),
        );
        let report = sol.analyze(&b.graph, &comps, &wash());
        let taint_cells: Vec<CellPos> = report
            .by_rule("ANA-TAINT-001")
            .filter_map(|d| match d.location {
                Location::Cell(c) => Some(c),
                _ => None,
            })
            .collect();
        for v in &sim.violations {
            let cell = match v {
                SimViolation::CellConflict { cell, .. } => *cell,
                SimViolation::WashGap { cell, .. } => *cell,
                _ => continue,
            };
            assert!(
                taint_cells.contains(&cell),
                "{}: replay flagged {v:?} but ANA-TAINT-001 only covers {taint_cells:?}",
                b.name
            );
        }
    }
    assert!(corrupted > 0, "no benchmark accepted the seeded defect");
}

#[test]
fn injected_conflict_is_always_caught() {
    // The seeded defect itself must never slip through: the duplicated
    // head occupancy puts two fluids in one cell at the same time.
    for seed in [1, 2, 3] {
        let g = SyntheticSpec::new(14, seed).generate();
        let comps = Allocation::new(2, 2, 2, 2).instantiate(&ComponentLibrary::default());
        let mut sol = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash())
            .expect("synthesizes");
        assert!(inject(&mut sol, "conflict"), "seed {seed}: no victim path");
        let report = sol.analyze(&g, &comps, &wash());
        assert!(
            report.by_rule("ANA-TAINT-001").count() > 0,
            "seed {seed}: {:?}",
            report.diagnostics
        );
        assert_eq!(report.exit_code(), 2, "errors must exit 2");
    }
}

#[test]
fn reports_are_byte_identical_across_thread_counts() {
    let b = table1_benchmarks().swap_remove(0); // PCR
    let comps = b.components(&ComponentLibrary::default());
    let mut sol = Synthesizer::paper_dcsa()
        .synthesize(&b.graph, &comps, &wash())
        .expect("synthesizes");
    assert!(
        inject(&mut sol, "conflict"),
        "PCR accepts the seeded defect"
    );
    let render = |threads: &str| {
        std::env::set_var("MFB_THREADS", threads);
        let report = sol.analyze(&b.graph, &comps, &wash());
        std::env::remove_var("MFB_THREADS");
        (render_pretty(&report), render_json(&report))
    };
    let (pretty1, json1) = render("1");
    let (pretty8, json8) = render("8");
    assert_eq!(pretty1, pretty8, "pretty output diverged across threads");
    assert_eq!(json1, json8, "json output diverged across threads");
}

#[test]
fn sarif_output_is_valid_json_with_rule_metadata() {
    let b = table1_benchmarks().swap_remove(0); // PCR
    let comps = b.components(&ComponentLibrary::default());
    let mut sol = Synthesizer::paper_dcsa()
        .synthesize(&b.graph, &comps, &wash())
        .expect("synthesizes");
    assert!(
        inject(&mut sol, "conflict"),
        "PCR accepts the seeded defect"
    );
    let report = sol.analyze(&b.graph, &comps, &wash());
    let sarif = render_sarif(&report, &analysis_registry());
    let doc: serde_json::Value = serde_json::from_str(&sarif).expect("SARIF is valid JSON");
    let rules = doc["runs"][0]["tool"]["driver"]["rules"]
        .as_array()
        .expect("rule metadata present");
    assert!(
        rules
            .iter()
            .any(|r| r["id"].as_str() == Some("ANA-TAINT-001")),
        "ANA rule catalog missing from SARIF"
    );
    let results = doc["runs"][0]["results"].as_array().expect("results");
    assert!(
        !results.is_empty(),
        "findings must surface as SARIF results"
    );
}

#[test]
fn rule_selection_filters_findings() {
    let b = table1_benchmarks().swap_remove(0); // PCR
    let comps = b.components(&ComponentLibrary::default());
    let mut sol = Synthesizer::paper_dcsa()
        .synthesize(&b.graph, &comps, &wash())
        .expect("synthesizes");
    assert!(
        inject(&mut sol, "conflict"),
        "PCR accepts the seeded defect"
    );

    let mut only_taint = analysis_registry();
    only_taint.retain_only(["ANA-TAINT-001"]);
    let report = sol.analyze_with(
        &b.graph,
        &comps,
        &wash(),
        &DefectMap::pristine(),
        mfb_route::prelude::RouterConfig::paper(),
        &only_taint,
    );
    assert!(report.by_rule("ANA-TAINT-001").count() > 0);
    assert!(
        report.diagnostics.iter().all(|d| d.rule == "ANA-TAINT-001"),
        "retain_only leaked other rules: {:?}",
        report.diagnostics
    );

    let mut skipped = analysis_registry();
    skipped.disable("ANA-TAINT-001");
    let report = sol.analyze_with(
        &b.graph,
        &comps,
        &wash(),
        &DefectMap::pristine(),
        mfb_route::prelude::RouterConfig::paper(),
        &skipped,
    );
    assert_eq!(report.by_rule("ANA-TAINT-001").count(), 0);
}

/// FNV-1a 64: a compact, stable digest of a rendered report.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Pins the bytes of every checker report — replay violations, the DRC's
/// JSON and the analyzer's SARIF — on three Table-I benchmarks, clean and
/// with each seeded defect.
#[test]
fn checker_reports_match_golden_digests() {
    const GOLDEN: [(&str, &str, [u64; 3]); 9] = [
        (
            "PCR",
            "clean",
            [0x4ea8da07b5ecb5a5, 0x98a51f26cbab3a0d, 0x456a4b377ff75fab],
        ),
        (
            "PCR",
            "conflict",
            [0x6a19fdac3fb61fb1, 0x0917a459172eab58, 0xc2980fbf106ecaf2],
        ),
        (
            "PCR",
            "wash-gap",
            [0x52f9e416c32ab45d, 0x9d68dd0fa6ac266d, 0x7d2fe2b104a96737],
        ),
        (
            "IVD",
            "clean",
            [0x4ea8da07b5ecb5a5, 0x98a51f26cbab3a0d, 0x456a4b377ff75fab],
        ),
        (
            "IVD",
            "conflict",
            [0x353a83dc965a62dd, 0x77d6d08b071449ca, 0xa4629b13e0569bbb],
        ),
        (
            "IVD",
            "wash-gap",
            [0x57616c5e043d5236, 0x0af4eae54b58a796, 0x43f0ffd2fa9ea98c],
        ),
        (
            "CPA",
            "clean",
            [0x4ea8da07b5ecb5a5, 0x98a51f26cbab3a0d, 0x456a4b377ff75fab],
        ),
        (
            "CPA",
            "conflict",
            [0x0891b992b5bbd679, 0x0677d3e400ce9d02, 0x313e9b2287e50172],
        ),
        (
            "CPA",
            "wash-gap",
            [0x358715bc14bdd066, 0x49b2d09a62799319, 0x3d320ae3340c63fb],
        ),
    ];
    let mut actual = Vec::new();
    for (name, kind, _) in GOLDEN {
        let b = table1_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .expect("Table-I benchmark");
        let comps = b.components(&ComponentLibrary::default());
        let mut sol = Synthesizer::paper_dcsa()
            .synthesize(&b.graph, &comps, &wash())
            .expect("Table-I benchmark synthesizes");
        if kind != "clean" {
            assert!(inject(&mut sol, kind), "{name} accepts the seeded defect");
        }
        let replayed = sol.verify(&b.graph, &comps, &wash());
        let drc = sol.drc(&b.graph, &comps, &wash());
        let analysis = sol.analyze(&b.graph, &comps, &wash());
        actual.push((
            name,
            kind,
            [
                fnv64(format!("{:?}", replayed.violations).as_bytes()),
                fnv64(render_json(&drc).as_bytes()),
                fnv64(render_sarif(&analysis, &analysis_registry()).as_bytes()),
            ],
        ));
    }
    assert_eq!(actual, GOLDEN, "checker report bytes changed");
}
