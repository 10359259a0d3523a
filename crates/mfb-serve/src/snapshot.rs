//! Crash-safe persistence for the stage cache.
//!
//! On-disk format (one file, `cache.snap`, inside `--cache-dir`):
//!
//! ```text
//! {"magic":"mfb-cache-snapshot","version":1}
//! 9c1385b47cbe3a07 {"stage":"schedule","key":1234,...}
//! 51c9a2f0d88e11ab {"stage":"placement","key":5678,...}
//! ```
//!
//! Line 1 is the header; every following line is an FNV-1a-64 checksum
//! (16 lowercase hex digits) of the entry JSON, a single space, and the
//! entry itself (a [`SnapshotEntry`] produced by
//! [`StageCache::export_entries`]).
//!
//! The two failure-model rules:
//!
//! * **Writes are atomic** — the snapshot is written to a `.tmp` sibling,
//!   fsynced, and renamed over the old file, so a crash mid-write leaves
//!   either the old snapshot or the new one, never a torn file.
//! * **Corruption is never fatal** — a bad checksum, unparseable entry,
//!   truncated tail, or wrong-version header drops the affected entries
//!   (counted in [`LoadReport::dropped`]) and the cache simply recomputes
//!   them. The cache is a performance artifact; losing it costs time,
//!   not correctness. Imported schedules additionally re-run the
//!   independent validator on first use (see
//!   [`StageCache::import_entry`]), so even a *plausible* forged entry
//!   cannot smuggle an unchecked schedule into a solution.

use mfb_core::prelude::{SnapshotEntry, StageCache};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// The header magic string.
pub const MAGIC: &str = "mfb-cache-snapshot";

/// The on-disk format version this build reads and writes.
pub const VERSION: u64 = 1;

/// File name used inside a cache directory.
pub const SNAPSHOT_FILE: &str = "cache.snap";

/// What a [`load_snapshot`] call found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Entries imported into the cache.
    pub imported: usize,
    /// Lines dropped: bad checksum, unparseable, or rejected by the
    /// cache (occupied slot, unknown stage).
    pub dropped: usize,
}

/// FNV-1a 64-bit, the checksum guarding each snapshot line.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes the cache's finished entries to `path`, atomically:
/// `path.tmp` is written, fsynced, and renamed over `path`. Returns the
/// number of entries written.
pub fn save_snapshot(cache: &StageCache, path: &Path) -> io::Result<usize> {
    let entries = cache.export_entries();
    let mut text = String::new();
    text.push_str(&format!(
        "{{\"magic\":\"{MAGIC}\",\"version\":{VERSION}}}\n"
    ));
    for entry in &entries {
        let json = serde_json::to_string(entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        text.push_str(&format!("{:016x} {json}\n", fnv1a64(json.as_bytes())));
    }

    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension("snap.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(entries.len())
}

/// Loads a snapshot into the cache. Missing file, wrong header, bad
/// checksums, and malformed entries are all tolerated — affected
/// entries are dropped and will be recomputed. Only genuine I/O errors
/// on an *existing, readable path* surface as `Err`.
pub fn load_snapshot(cache: &StageCache, path: &Path) -> io::Result<LoadReport> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LoadReport::default()),
        Err(e) => return Err(e),
    };
    let mut lines = text.lines();
    let mut report = LoadReport::default();

    let header_ok = lines.next().is_some_and(|h| {
        serde_json::from_str::<serde_json::Value>(h).is_ok_and(|doc| {
            doc.get("magic").and_then(|m| m.as_str()) == Some(MAGIC)
                && doc.get("version").and_then(|v| v.as_u64()) == Some(VERSION)
        })
    });
    if !header_ok {
        // A foreign or future-format file: import nothing, count every
        // non-empty line as dropped, keep running.
        report.dropped = text.lines().filter(|l| !l.trim().is_empty()).count();
        return Ok(report);
    }

    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let Some((sum_hex, json)) = line.split_once(' ') else {
            report.dropped += 1;
            continue;
        };
        let Ok(sum) = u64::from_str_radix(sum_hex, 16) else {
            report.dropped += 1;
            continue;
        };
        if sum != fnv1a64(json.as_bytes()) {
            report.dropped += 1;
            continue;
        }
        let Ok(entry) = serde_json::from_str::<SnapshotEntry>(json) else {
            report.dropped += 1;
            continue;
        };
        if cache.import_entry(&entry) {
            report.imported += 1;
        } else {
            report.dropped += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfb_core::prelude::*;
    use mfb_model::prelude::*;

    fn synthesized_cache() -> StageCache {
        let (graph, alloc) = mfb_bench_suite::benchmark_by_name("PCR")
            .map(|b| {
                let components = b.components(&ComponentLibrary::default());
                (b.graph, components)
            })
            .expect("PCR is a Table-I bench");
        let cache = StageCache::new();
        cached_run(&Synthesizer::paper_dcsa(), &graph, &alloc, &cache).expect("PCR synthesizes");
        cache
    }

    /// `synth` through `cache` on a pristine chip with an unlimited budget.
    fn cached_run(
        synth: &Synthesizer,
        graph: &SequencingGraph,
        alloc: &ComponentSet,
        cache: &StageCache,
    ) -> Result<Solution, SynthesisError> {
        synth.synthesize_with(
            graph,
            alloc,
            &LogLinearWash::paper_calibrated(),
            &DefectMap::pristine(),
            Some(cache),
            &Budget::unlimited(),
        )
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mfb-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trips_every_ready_entry() {
        let cache = synthesized_cache();
        let dir = tmp_dir("roundtrip");
        let path = dir.join(SNAPSHOT_FILE);
        let written = save_snapshot(&cache, &path).unwrap();
        assert_eq!(written, cache.ready_entries());
        assert!(written > 0);

        let warm = StageCache::new();
        let report = load_snapshot(&warm, &path).unwrap();
        assert_eq!(report.imported, written);
        assert_eq!(report.dropped, 0);
        assert_eq!(warm.ready_entries(), written);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_clean_empty_load() {
        let cache = StageCache::new();
        let report = load_snapshot(&cache, Path::new("/nonexistent/dir/cache.snap")).unwrap();
        assert_eq!(report, LoadReport::default());
    }

    #[test]
    fn corrupt_lines_are_dropped_not_fatal() {
        let cache = synthesized_cache();
        let dir = tmp_dir("corrupt");
        let path = dir.join(SNAPSHOT_FILE);
        let written = save_snapshot(&cache, &path).unwrap();

        // Flip one byte inside the first entry's JSON: its checksum no
        // longer matches, so exactly that entry is dropped.
        let mut text = fs::read_to_string(&path).unwrap();
        let entry_start = text.find('\n').unwrap() + 1;
        let json_start = text[entry_start..].find(' ').unwrap() + entry_start + 1;
        let flip = json_start + 20;
        let original = text.as_bytes()[flip];
        let replacement = if original == b'7' { b'8' } else { b'7' };
        let mut bytes = text.into_bytes();
        bytes[flip] = replacement;
        text = String::from_utf8(bytes).unwrap();
        // Append a truncated tail, as a crash mid-append would leave.
        text.push_str("deadbeef {\"stage\":\"sched");
        fs::write(&path, &text).unwrap();

        let warm = StageCache::new();
        let report = load_snapshot(&warm, &path).unwrap();
        assert_eq!(report.imported + report.dropped, written + 1);
        assert!(report.dropped >= 2, "flipped entry + truncated tail");
        assert!(report.imported < written);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_header_imports_nothing() {
        let dir = tmp_dir("foreign");
        let path = dir.join(SNAPSHOT_FILE);
        fs::write(&path, "{\"magic\":\"other\",\"version\":1}\nstuff\n").unwrap();
        let cache = StageCache::new();
        let report = load_snapshot(&cache, &path).unwrap();
        assert_eq!(report.imported, 0);
        assert_eq!(report.dropped, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_cache_reproduces_cold_results_byte_identically() {
        let (graph, alloc) = mfb_bench_suite::benchmark_by_name("PCR")
            .map(|b| {
                let components = b.components(&ComponentLibrary::default());
                (b.graph, components)
            })
            .expect("PCR is a Table-I bench");
        let synth = Synthesizer::paper_dcsa();

        let cold_cache = StageCache::new();
        let cold = cached_run(&synth, &graph, &alloc, &cold_cache).unwrap();

        let dir = tmp_dir("identical");
        let path = dir.join(SNAPSHOT_FILE);
        save_snapshot(&cold_cache, &path).unwrap();

        let warm_cache = StageCache::new();
        load_snapshot(&warm_cache, &path).unwrap();
        let before = warm_cache.stats();
        let warm = cached_run(&synth, &graph, &alloc, &warm_cache).unwrap();
        let delta = warm_cache.stats() - before;
        assert!(delta.schedule_hits > 0, "imported schedule must hit");
        assert_eq!(cold, warm, "warm result must be byte-identical");
        let _ = fs::remove_dir_all(&dir);
    }
}
