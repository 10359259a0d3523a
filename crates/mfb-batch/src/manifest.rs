//! JSON job manifests for `mfb batch`.
//!
//! A manifest is a JSON document describing a list of [`BatchJob`]s:
//!
//! ```json
//! {
//!   "jobs": [
//!     { "bench": "PCR" },
//!     { "bench": "PCR", "seed": 7 },
//!     { "bench": "IVD", "repeat": 2 },
//!     { "assay": "my_assay.txt", "flow": "baseline", "t_c_secs": 3.0 }
//!   ]
//! }
//! ```
//!
//! A bare top-level array is accepted too. Each entry names its workload
//! with exactly one of:
//!
//! * `"bench"` — a Table-I benchmark name (`"PCR"`, `"IVD"`, `"CPA"`,
//!   `"Synthetic1"`…`"Synthetic4"`, case-insensitive, `"synth3"` accepted);
//! * `"assay"` — an assay in the `.assay` DSL, given either as a path to
//!   a file (relative paths resolve against the manifest's directory) or
//!   as inline source (any value containing a newline is treated as
//!   source, not a path). Either way the assay must carry an `alloc`
//!   line, since a batch job needs concrete components; its `flow` and
//!   `defect` statements are honored, with the entry-level fields below
//!   taking precedence.
//!
//! Optional per-entry fields:
//!
//! * `"name"` — display-name override (defaults to the bench name, the
//!   assay file stem, or an inline assay's declared name);
//! * `"flow"` — `"dcsa"`/`"ours"` (default) or `"ba"`/`"baseline"`;
//!   overrides the assay file's own `flow` statement;
//! * `"seed"` — annealing seed override;
//! * `"t_c_secs"` — transport-time constant override, seconds;
//! * `"defects"` — an inline [`DefectMap`] JSON object;
//! * `"repeat"` — clone the job *k* times (names gain a `#k` suffix when
//!   `k > 1`); identical clones share every cache key, so repeats are the
//!   simplest way to exercise warm-cache throughput.
//!
//! Each entry is checked field by field and then resolved by
//! [`resolve_job`], the one function that turns a benchmark name, an
//! assay path or inline DSL source into a [`BatchJob`] — `mfb run`,
//! `mfb verify` and friends, and `mfb serve` submissions go through it
//! too.
//!
//! Parsing is strict: entries must be objects, fields outside the list
//! above are rejected by name, out-of-range values (`"repeat": 0`,
//! `"t_c_secs": 0`) are typed schema errors, and JSON syntax errors carry
//! `line L, column C` positions into the document.

use crate::executor::BatchJob;
use mfb_core::prelude::*;
use mfb_model::prelude::*;
use serde_json::Value;
use std::fmt;
use std::path::Path;

/// Why a manifest could not be turned into jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ManifestError {
    /// The document is not valid JSON.
    Json(String),
    /// The document parsed but violates the manifest schema; the string
    /// names the offending entry and field.
    Schema(String),
    /// An `"assay"` file could not be read or parsed.
    Assay(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Json(m) => write!(f, "manifest is not valid JSON: {m}"),
            ManifestError::Schema(m) => write!(f, "manifest schema error: {m}"),
            ManifestError::Assay(m) => write!(f, "assay error: {m}"),
        }
    }
}

impl std::error::Error for ManifestError {}

fn schema(msg: impl Into<String>) -> ManifestError {
    ManifestError::Schema(msg.into())
}

/// Every field a job entry may carry. Anything else is rejected with a
/// pointed error instead of being silently ignored — a typo like
/// `"sead": 7` would otherwise change results without a trace.
const KNOWN_FIELDS: &[&str] = &[
    "bench", "assay", "name", "flow", "seed", "t_c_secs", "defects", "repeat",
];

/// Rewrites the JSON shim's `at byte N` positions as `line L, column C`
/// so errors point into the manifest the way editors count.
fn locate_json_error(text: &str, msg: &str) -> String {
    let Some(idx) = msg.rfind("byte ") else {
        return msg.to_owned();
    };
    let digits: String = msg[idx + 5..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let Ok(pos) = digits.parse::<usize>() else {
        return msg.to_owned();
    };
    let pos = pos.min(text.len());
    let line = 1 + text[..pos].bytes().filter(|&b| b == b'\n').count();
    let column = 1 + text[..pos].rfind('\n').map_or(pos, |nl| pos - nl - 1);
    format!("{msg} (line {line}, column {column})")
}

/// Parses a manifest document into jobs, in document order (repeats
/// expand in place). `base_dir` anchors relative `"assay"` paths.
pub fn parse_manifest(text: &str, base_dir: &Path) -> Result<Vec<BatchJob>, ManifestError> {
    let doc: Value = serde_json::from_str(text)
        .map_err(|e| ManifestError::Json(locate_json_error(text, &e.to_string())))?;
    let entries = match doc.get("jobs") {
        Some(jobs) => jobs
            .as_array()
            .ok_or_else(|| schema("\"jobs\" must be an array"))?,
        None => doc
            .as_array()
            .ok_or_else(|| schema("expected {\"jobs\": [...]} or a top-level array"))?,
    };
    if entries.is_empty() {
        return Err(schema("manifest contains no jobs"));
    }

    let mut out = Vec::new();
    for (idx, entry) in entries.iter().enumerate() {
        let job = parse_entry(entry, idx, Some(base_dir))?;
        let repeat = match entry.get("repeat") {
            None => 1,
            Some(v) => {
                let k = v.as_u64().ok_or_else(|| {
                    schema(format!("job {idx}: \"repeat\" must be a positive integer"))
                })?;
                if k == 0 {
                    return Err(schema(format!("job {idx}: \"repeat\" must be at least 1")));
                }
                k
            }
        };
        if repeat == 1 {
            out.push(job);
        } else {
            for k in 1..=repeat {
                let mut clone = job.clone();
                clone.name = format!("{}#{k}", job.name);
                out.push(clone);
            }
        }
    }
    Ok(out)
}

/// Where a job's assay comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssaySource<'a> {
    /// A Table-I benchmark name (`"PCR"`, `"Synthetic4"`, `"synth3"`, …;
    /// case-insensitive).
    Bench(&'a str),
    /// A path to a `.assay` file, relative to the caller's base directory.
    File(&'a str),
    /// `.assay` DSL source text.
    Inline(&'a str),
}

/// Resolves an assay source into a job: the graph, its components, the
/// file's `defect` statements, and a [`SynthesisConfig`] built from the
/// file's `flow` statement with `overrides` winning field by field.
///
/// `base_dir` anchors [`AssaySource::File`] paths; `None` refuses file
/// sources before touching the filesystem, for callers (like `mfb serve`)
/// whose input must not name files. An assay must carry an `alloc` line,
/// since a job needs concrete components. The job is named after the
/// benchmark, the file stem, or an inline assay's declared name.
///
/// # Errors
///
/// [`ManifestError::Schema`] for an unknown benchmark or a refused path,
/// [`ManifestError::Assay`] for an unreadable or invalid assay.
pub fn resolve_job(
    source: AssaySource<'_>,
    base_dir: Option<&Path>,
    overrides: &FlowDecl,
) -> Result<BatchJob, ManifestError> {
    let library = ComponentLibrary::default();
    let (text, origin, stem) = match source {
        AssaySource::Bench(bench) => {
            let b = mfb_bench_suite::benchmark_by_name(bench).ok_or_else(|| {
                schema(format!(
                    "unknown benchmark {bench:?} (expected a Table-I name)"
                ))
            })?;
            let components = b.components(&library);
            let config = SynthesisConfig::for_flow(overrides);
            return Ok(BatchJob::new(b.name, b.graph, components, config));
        }
        AssaySource::File(path) => {
            let base_dir = base_dir.ok_or_else(|| {
                schema("assay paths are not accepted here; send the `.assay` source inline")
            })?;
            let full = base_dir.join(path);
            let text = std::fs::read_to_string(&full).map_err(|e| {
                ManifestError::Assay(format!("cannot read {}: {e}", full.display()))
            })?;
            let stem = Path::new(path)
                .file_stem()
                .map_or_else(|| path.to_owned(), |s| s.to_string_lossy().into_owned());
            (text, full.display().to_string(), Some(stem))
        }
        AssaySource::Inline(text) => (text.to_owned(), "inline assay".to_owned(), None),
    };
    let file = parse_assay(&text).map_err(|e| ManifestError::Assay(format!("{origin}: {e}")))?;
    let allocation = file
        .allocation
        .ok_or_else(|| ManifestError::Assay(format!("{origin} has no `alloc M H F D` line")))?;
    let name = stem.unwrap_or_else(|| match file.graph.name().trim() {
        "" => "inline".to_owned(),
        declared => declared.to_owned(),
    });
    let flow = FlowDecl {
        kind: overrides.kind.or(file.flow.kind),
        t_c: overrides.t_c.or(file.flow.t_c),
        seed: overrides.seed.or(file.flow.seed),
    };
    let components = allocation.instantiate(&library);
    Ok(BatchJob::new(
        name,
        file.graph,
        components,
        SynthesisConfig::for_flow(&flow),
    )
    .with_defects(file.defects))
}

/// Validates one manifest entry's fields and resolves it into a job,
/// before any `"repeat"` expansion. `base_dir` is as for [`resolve_job`].
///
/// # Errors
///
/// A [`ManifestError`] naming the entry as `job {idx}` and the offending
/// field.
pub fn parse_entry(
    entry: &Value,
    idx: usize,
    base_dir: Option<&Path>,
) -> Result<BatchJob, ManifestError> {
    let fields = entry
        .as_object()
        .ok_or_else(|| schema(format!("job {idx}: each entry must be a JSON object")))?;
    for (key, _) in fields {
        if !KNOWN_FIELDS.contains(&key.as_str()) {
            return Err(schema(format!(
                "job {idx}: unknown field {key:?} (expected one of {})",
                KNOWN_FIELDS.join(", ")
            )));
        }
    }
    let string = |key: &str| -> Result<Option<&str>, ManifestError> {
        entry
            .get(key)
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| schema(format!("job {idx}: {key:?} must be a string")))
            })
            .transpose()
    };

    let source = match (string("bench")?, string("assay")?) {
        (Some(bench), None) => AssaySource::Bench(bench),
        // A value with a newline cannot be a path: it is inline DSL
        // source, so manifests (and `mfb serve` submissions) can carry
        // self-contained assays.
        (None, Some(assay)) if assay.contains('\n') => AssaySource::Inline(assay),
        (None, Some(assay)) => AssaySource::File(assay),
        (Some(_), Some(_)) => {
            return Err(schema(format!(
                "job {idx}: give \"bench\" or \"assay\", not both"
            )))
        }
        (None, None) => {
            return Err(schema(format!(
                "job {idx}: needs a \"bench\" or \"assay\" field"
            )))
        }
    };

    let mut overrides = FlowDecl::default();
    if let Some(flow) = string("flow")? {
        overrides.kind = Some(FlowKind::parse(flow).ok_or_else(|| {
            schema(format!(
                "job {idx}: \"flow\" must be \"dcsa\"/\"ours\" or \"ba\"/\"baseline\""
            ))
        })?);
    }
    if let Some(v) = entry.get("seed") {
        overrides.seed =
            Some(v.as_u64().ok_or_else(|| {
                schema(format!("job {idx}: \"seed\" must be an unsigned integer"))
            })?);
    }
    if let Some(v) = entry.get("t_c_secs") {
        // Zero is rejected along with negatives: a zero transport constant
        // collapses every Eq. (5) window and is never what anyone meant.
        let secs = v
            .as_f64()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or_else(|| schema(format!("job {idx}: \"t_c_secs\" must be a positive number")))?;
        overrides.t_c = Some(Duration::from_secs_f64(secs));
    }

    let mut job = resolve_job(source, base_dir, &overrides).map_err(|e| match e {
        ManifestError::Schema(m) => schema(format!("job {idx}: {m}")),
        ManifestError::Assay(m) => ManifestError::Assay(format!("job {idx}: {m}")),
        other => other,
    })?;
    if let Some(name) = string("name")? {
        job.name = name.to_owned();
    }
    if let Some(v) = entry.get("defects") {
        // Re-encode the sub-value and decode it as a DefectMap; the shim's
        // Value is serde::Content, which round-trips losslessly. An entry's
        // "defects" replaces any `defect` statements in the assay file.
        let text =
            serde_json::to_string(v).map_err(|e| schema(format!("job {idx}: \"defects\": {e}")))?;
        let defects: DefectMap = serde_json::from_str(&text)
            .map_err(|e| schema(format!("job {idx}: \"defects\" is not a defect map: {e}")))?;
        job = job.with_defects(defects);
    }
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_entries_with_overrides_and_repeat() {
        let text = r#"{
            "jobs": [
                { "bench": "PCR" },
                { "bench": "pcr", "seed": 7, "name": "PCR-alt" },
                { "bench": "IVD", "repeat": 2, "flow": "baseline", "t_c_secs": 3.0 }
            ]
        }"#;
        let jobs = parse_manifest(text, Path::new(".")).unwrap();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].name, "PCR");
        assert_eq!(jobs[1].name, "PCR-alt");
        assert_eq!(jobs[2].name, "IVD#1");
        assert_eq!(jobs[3].name, "IVD#2");
        // Same bench, different seed: different schedule config is NOT part
        // of the seed, so the schedule keys still collide (seed only moves
        // placement), while the default-seed PCR pair shares everything.
        assert_eq!(jobs[0].schedule_key(), jobs[1].schedule_key());
        assert_eq!(jobs[2].schedule_key(), jobs[3].schedule_key());
        assert_ne!(jobs[0].schedule_key(), jobs[2].schedule_key());
        assert_eq!(jobs[2].config.t_c, Duration::from_secs(3));
        assert_eq!(
            jobs[2].config.binding,
            SynthesisConfig::paper_baseline().binding
        );
    }

    #[test]
    fn accepts_a_bare_array_document() {
        let jobs = parse_manifest(r#"[ { "bench": "PCR" } ]"#, Path::new(".")).unwrap();
        assert_eq!(jobs.len(), 1);
    }

    #[test]
    fn rejects_bad_entries_with_pointed_messages() {
        let err = |text: &str| {
            parse_manifest(text, Path::new("."))
                .unwrap_err()
                .to_string()
        };
        assert!(err("{}").contains("expected"));
        assert!(err(r#"{ "jobs": [] }"#).contains("no jobs"));
        assert!(err(r#"[ {} ]"#).contains("\"bench\" or \"assay\""));
        assert!(err(r#"[ { "bench": "PCR", "assay": "x" } ]"#).contains("not both"));
        assert!(err(r#"[ { "bench": "NoSuch" } ]"#).contains("unknown benchmark"));
        assert!(err(r#"[ { "bench": "PCR", "flow": "fancy" } ]"#).contains("\"flow\""));
        assert!(err(r#"[ { "bench": "PCR", "repeat": 0 } ]"#).contains("at least 1"));
        assert!(err("not json").contains("not valid JSON"));
    }

    #[test]
    fn rejects_unknown_fields_by_name() {
        let err = parse_manifest(r#"[ { "bench": "PCR", "sead": 7 } ]"#, Path::new("."))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown field \"sead\""), "{err}");
        assert!(err.contains("seed"), "should list the legal fields: {err}");
    }

    #[test]
    fn rejects_non_object_entries_and_zero_t_c() {
        let err = |text: &str| {
            parse_manifest(text, Path::new("."))
                .unwrap_err()
                .to_string()
        };
        assert!(err(r#"[ 42 ]"#).contains("must be a JSON object"));
        assert!(err(r#"[ { "bench": "PCR", "t_c_secs": 0 } ]"#).contains("positive number"));
        assert!(err(r#"[ { "bench": "PCR", "t_c_secs": -1.0 } ]"#).contains("positive number"));
    }

    #[test]
    fn json_errors_carry_line_and_column() {
        let text = "{\n  \"jobs\": [\n    { \"bench\": \"PCR\" },,\n  ]\n}";
        let err = parse_manifest(text, Path::new(".")).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ManifestError::Json(_)), "{msg}");
        assert!(msg.contains("line 3"), "{msg}");
    }

    /// A self-contained inline assay used by the DSL-entry tests.
    const INLINE_ASSAY: &str = "assay-dsl 1\nassay \"drop-in\"\n\nop a mix 5s wash=2s\nop b detect 4s wash=1s\n\nedge a -> b\n\nflow baseline t_c=3s seed=9\ndefect block 2 3\n\nalloc 1 0 0 1\n";

    /// Encodes a string as a JSON string literal (the shim has no `json!`).
    fn json_str(s: &str) -> String {
        serde_json::to_string(&s.to_owned()).unwrap()
    }

    #[test]
    fn inline_assay_entries_parse_and_honor_file_statements() {
        let manifest = format!(r#"[ {{ "assay": {} }} ]"#, json_str(INLINE_ASSAY));
        let jobs = parse_manifest(&manifest, Path::new("/nonexistent")).unwrap();
        assert_eq!(jobs.len(), 1);
        // Name comes from the assay's own `assay` statement.
        assert_eq!(jobs[0].name, "drop-in");
        // `flow baseline t_c=3s seed=9` all land in the config.
        assert_eq!(
            jobs[0].config.binding,
            SynthesisConfig::paper_baseline().binding
        );
        assert_eq!(jobs[0].config.t_c, Duration::from_secs(3));
        assert_eq!(
            jobs[0].config.sa.seed,
            SynthesisConfig::paper_baseline().with_seed(9).sa.seed
        );
        // `defect block 2 3` lands in the job's defect map.
        assert!(jobs[0].defects.is_blocked(CellPos::new(2, 3)));
    }

    #[test]
    fn entry_fields_override_inline_assay_statements() {
        let pristine = serde_json::to_string(&DefectMap::pristine()).unwrap();
        let manifest = format!(
            r#"[ {{ "assay": {}, "name": "renamed", "flow": "ours", "t_c_secs": 7.0, "defects": {pristine} }} ]"#,
            json_str(INLINE_ASSAY)
        );
        let jobs = parse_manifest(&manifest, Path::new(".")).unwrap();
        assert_eq!(jobs[0].name, "renamed");
        assert_eq!(
            jobs[0].config.binding,
            SynthesisConfig::paper_dcsa().binding
        );
        assert_eq!(jobs[0].config.t_c, Duration::from_secs(7));
        // Entry "defects" replaces the file's `defect` statements entirely.
        assert!(jobs[0].defects.is_pristine());
        // The file's seed still applies: the entry did not override it.
        assert_eq!(
            jobs[0].config.sa.seed,
            SynthesisConfig::paper_dcsa().with_seed(9).sa.seed
        );
    }

    #[test]
    fn inline_and_path_assays_share_schedule_keys() {
        let dir = std::env::temp_dir().join("mfb_manifest_inline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drop_in.assay");
        std::fs::write(&path, INLINE_ASSAY).unwrap();

        let inline = format!(
            r#"[ {{ "assay": {}, "name": "same" }} ]"#,
            json_str(INLINE_ASSAY)
        );
        let by_path = r#"[ { "assay": "drop_in.assay", "name": "same" } ]"#;
        let a = parse_manifest(&inline, Path::new(".")).unwrap();
        let b = parse_manifest(by_path, &dir).unwrap();
        assert_eq!(a[0].schedule_key(), b[0].schedule_key());
        assert_eq!(a[0].defects, b[0].defects);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inline_assay_errors_cite_the_entry_not_a_path() {
        let manifest = format!(
            r#"[ {{ "assay": {} }} ]"#,
            json_str("assay-dsl 1\nop a mix 0s wash=1s\n")
        );
        let err = parse_manifest(&manifest, Path::new("."))
            .unwrap_err()
            .to_string();
        assert!(err.contains("job 0: inline assay"), "{err}");
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn inline_defects_round_trip_into_the_job() {
        let mut defects = DefectMap::pristine();
        defects.block_cell(CellPos::new(2, 3));
        let defects_json = serde_json::to_string(&defects).unwrap();
        let text = format!(r#"[ {{ "bench": "PCR", "defects": {defects_json} }} ]"#);
        let jobs = parse_manifest(&text, Path::new(".")).unwrap();
        assert_eq!(jobs[0].defects, defects);
        assert!(!jobs[0].defects.is_pristine());
    }
}
