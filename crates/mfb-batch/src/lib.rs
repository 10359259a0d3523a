//! Batch synthesis for DCSA flow-based biochips.
//!
//! Labs rarely synthesize one assay: a screening campaign re-runs the same
//! bioassays across seeds, transport constants and defect maps, and most of
//! that work repeats stages bit-for-bit. This crate turns the
//! content-addressed stage cache of `mfb_core` into a **throughput engine**:
//!
//! * [`executor::BatchJob`] — one synthesis request (assay + components +
//!   config + wash model + defect map);
//! * [`manifest::resolve_job`] — the one intake that turns a Table-I name,
//!   a `.assay` path or inline DSL source into a job; the CLI, manifests
//!   and `mfb serve` all use it;
//! * [`executor::run_batch`] — fans jobs out over up to `MFB_THREADS`
//!   workers that share one [`mfb_core::prelude::StageCache`], each job a
//!   timed prep step (schedule + netlist) then a timed solve;
//! * [`manifest`] — the JSON job-manifest format behind `mfb batch`.
//!
//! The headline number is **assays per second**, reported per batch with
//! per-stage cache hit/miss counters. The non-negotiable invariant is
//! determinism: for any `MFB_THREADS`, a batch's solutions are
//! byte-identical to running each job through serial, uncached
//! [`mfb_core::prelude::Synthesizer::synthesize_with`] on its own defect
//! map — pinned by the golden and property tests in `tests/`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod executor;
pub mod manifest;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::executor::{run_batch, BatchJob, BatchReport, BatchRun, JobOutcome};
    pub use crate::manifest::{
        parse_entry, parse_manifest, resolve_job, AssaySource, ManifestError,
    };
}
