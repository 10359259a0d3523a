//! Pipelined batch synthesis for DCSA flow-based biochips.
//!
//! Labs rarely synthesize one assay: a screening campaign re-runs the same
//! bioassays across seeds, transport constants and defect maps, and most of
//! that work repeats stages bit-for-bit. This crate turns the
//! content-addressed stage cache of `mfb_core` into a **throughput engine**:
//!
//! * [`executor::BatchJob`] — one synthesis request (assay + components +
//!   config + wash model + defect map);
//! * [`executor::run_batch`] — a bounded worker pool (capped by
//!   `MFB_THREADS`) that pipelines jobs in two stages so the routing of one
//!   job overlaps the annealing of the next, all through one shared
//!   [`mfb_core::prelude::StageCache`];
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
    pub use crate::manifest::{parse_manifest, ManifestError};
}
