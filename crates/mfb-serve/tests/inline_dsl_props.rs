//! The inline-DSL submit form is a pure transport convenience: a job
//! submitted as `{"assay": "<dsl source>"}` must be indistinguishable —
//! same cache key, byte-identical solution — from the same program
//! submitted as a path to a file holding that source. This is what lets
//! clients switch between the two forms freely without poisoning the
//! server's warm cache.

use mfb_batch::prelude::*;
use mfb_core::prelude::*;
use proptest::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A tiny random assay program: 2..=5 ops in a chain plus optional extra
/// forward edges, every op allocatable by `alloc 2 1 1 1`.
fn arb_assay_source() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(
            (
                prop_oneof![Just("mix"), Just("heat"), Just("filter"), Just("detect")],
                1u64..20,
                1u64..=80,
            ),
            2..=5,
        ),
        proptest::collection::vec((0usize..5, 0usize..5), 0..4),
        proptest::option::of(prop_oneof![Just("dcsa"), Just("baseline")]),
        proptest::option::of(1u64..8),
    )
        .prop_map(|(ops, extra, flow, t_c)| {
            let n = ops.len();
            let mut s = String::from("assay-dsl 1\nassay \"inline-prop\"\n");
            for (i, (kind, dur, wash_ticks)) in ops.iter().enumerate() {
                s.push_str(&format!(
                    "op o{i} {kind} {dur}s wash={}s\n",
                    *wash_ticks as f64 / 10.0
                ));
            }
            // A spine keeps the graph connected; extras add forward edges.
            for i in 1..n {
                s.push_str(&format!("edge o{} -> o{i}\n", i - 1));
            }
            let mut seen = std::collections::HashSet::new();
            for (i, j) in extra {
                if i + 1 < j && j < n && seen.insert((i, j)) {
                    s.push_str(&format!("edge o{i} -> o{j}\n"));
                }
            }
            match (flow, t_c) {
                (Some(f), Some(t)) => s.push_str(&format!("flow {f} t_c={t}s\n")),
                (Some(f), None) => s.push_str(&format!("flow {f}\n")),
                (None, Some(t)) => s.push_str(&format!("flow t_c={t}s\n")),
                (None, None) => {}
            }
            s.push_str("alloc 2 1 1 1\n");
            s
        })
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_owned()).expect("strings always encode")
}

proptest! {
    // Each case runs full synthesis twice; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn inline_and_path_submissions_are_indistinguishable(src in arb_assay_source()) {
        let dir = std::env::temp_dir().join(format!(
            "mfb_inline_dsl_props_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("prog.assay");
        std::fs::write(&path, &src).expect("write assay");

        // One manifest entry per form: `mfb serve` resolves a submitted
        // job through the same per-entry intake (and refuses the path
        // form). Pin the name so the file stem cannot differ from the
        // inline default.
        let inline = format!(r#"[ {{ "assay": {}, "name": "p" }} ]"#, json_str(&src));
        let by_path = r#"[ { "assay": "prog.assay", "name": "p" } ]"#;

        let a = parse_manifest(&inline, Path::new(".")).expect("inline parses");
        let b = parse_manifest(by_path, &dir).expect("path parses");
        prop_assert_eq!(a.len(), 1);
        prop_assert_eq!(b.len(), 1);

        // Identical cache identity: a warm cache primed through one form
        // must hit when the other form arrives.
        prop_assert_eq!(a[0].schedule_key(), b[0].schedule_key());
        prop_assert_eq!(&a[0].name, &b[0].name);
        prop_assert_eq!(&a[0].defects, &b[0].defects);

        // Identical results, byte for byte once serialized.
        let cache_a = StageCache::new();
        let cache_b = StageCache::new();
        let run_a = run_batch(&a, &cache_a);
        let run_b = run_batch(&b, &cache_b);
        let sol_a = run_a.solutions[0].as_ref().expect("inline synthesizes");
        let sol_b = run_b.solutions[0].as_ref().expect("path synthesizes");
        let bytes_a = serde_json::to_string(sol_a).expect("serializes");
        let bytes_b = serde_json::to_string(sol_b).expect("serializes");
        prop_assert_eq!(bytes_a, bytes_b);

        std::fs::remove_dir_all(&dir).ok();
    }
}
