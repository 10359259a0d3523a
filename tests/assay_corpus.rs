//! Literature-corpus golden suite: every `.assay` under `assets/corpus/`
//! must be canonically formatted, synthesize DRC-clean, replay valid,
//! produce byte-identical solutions under `MFB_THREADS=1` and `=8`, and
//! match the digest pinned in `assets/corpus/GOLDEN.json`.
//!
//! One `#[test]` because `MFB_THREADS` is process-global: parallel test
//! functions mutating it would race. Regenerate the goldens after an
//! intentional algorithm change with:
//!
//! ```sh
//! MFB_UPDATE_GOLDEN=1 cargo test -p xtask-tests --test assay_corpus
//! ```

use mfb_core::prelude::*;
use mfb_model::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets/corpus")
}

/// FNV-1a 64 over the serialized solution: a compact, stable digest.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Synthesizes one corpus file and returns the serialized solution.
fn synthesize_json(file: &AssayFile) -> String {
    let allocation = file.allocation.expect("corpus files carry an alloc line");
    let comps = allocation.instantiate(&ComponentLibrary::default());
    let wash = LogLinearWash::paper_calibrated();
    let synth = Synthesizer::new(SynthesisConfig::for_flow(&file.flow));
    let solution = synth
        .synthesize_with(
            &file.graph,
            &comps,
            &wash,
            &file.defects,
            None,
            &Budget::unlimited(),
        )
        .expect("corpus files must synthesize");

    let sim = solution.verify(&file.graph, &comps, &wash);
    assert!(sim.is_valid(), "corpus solution must replay valid");
    let drc = solution.drc_with(
        &file.graph,
        &comps,
        &wash,
        &file.defects,
        synth.config().router,
        &RuleRegistry::with_all_rules(),
    );
    assert!(drc.is_clean(), "corpus solution must pass DRC: {drc:?}");

    serde_json::to_string(&solution).expect("Solution serializes")
}

#[test]
fn corpus_synthesizes_clean_and_matches_goldens_across_thread_counts() {
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("assets/corpus exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "assay"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 8,
        "the corpus holds at least eight assays, found {}",
        files.len()
    );

    let mut digests: BTreeMap<String, String> = BTreeMap::new();
    for path in &files {
        let name = path
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        let text = std::fs::read_to_string(path).expect("corpus file reads");

        // Canonical form: what `mfb fmt --check` enforces in CI.
        let ast = parse_assay_ast(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            write_assay_ast(&ast),
            text,
            "{name} is not canonically formatted (run `mfb fmt` on it)"
        );

        let file = ast.lower().unwrap_or_else(|e| panic!("{name}: {e}"));

        // Byte-identical solutions whatever the worker-pool width.
        std::env::set_var("MFB_THREADS", "1");
        let serial = synthesize_json(&file);
        std::env::set_var("MFB_THREADS", "8");
        let parallel = synthesize_json(&file);
        std::env::remove_var("MFB_THREADS");
        assert_eq!(serial, parallel, "{name}: solution depends on MFB_THREADS");

        digests.insert(name, format!("{:016x}", fnv64(serial.as_bytes())));
    }

    let golden_path = dir.join("GOLDEN.json");
    let mut rendered = String::from("{\n");
    for (i, (name, digest)) in digests.iter().enumerate() {
        let comma = if i + 1 < digests.len() { "," } else { "" };
        rendered.push_str(&format!("  {name:?}: {digest:?}{comma}\n"));
    }
    rendered.push_str("}\n");

    if std::env::var_os("MFB_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write GOLDEN.json");
        eprintln!("updated {}", golden_path.display());
        return;
    }

    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "{} missing ({e}); regenerate with MFB_UPDATE_GOLDEN=1",
            golden_path.display()
        )
    });
    assert_eq!(
        golden, rendered,
        "corpus digests drifted from GOLDEN.json; if the change is \
         intentional, regenerate with MFB_UPDATE_GOLDEN=1"
    );
}
