//! A crash-safe synthesis daemon for DCSA flow-based biochips.
//!
//! `mfb serve` keeps one [`StageCache`](mfb_core::prelude::StageCache)
//! warm across many synthesis requests — and across restarts. Clients
//! speak a line-delimited JSON protocol over TCP or a Unix socket:
//!
//! ```text
//! → {"op":"submit","job":{"bench":"PCR"},"timeout_secs":30,"trace":true}
//! ← {"ok":true,"id":"j1","state":"queued"}
//! → {"op":"result","id":"j1"}
//! ← {"ok":true,"id":"j1","state":"done","outcome":{...},"trace_jsonl":"..."}
//! ```
//!
//! The robustness story, layer by layer:
//!
//! * **Deadlines & cancellation** — every job runs under a
//!   [`Budget`](mfb_core::prelude::Budget) built at submission time;
//!   the synthesis stack polls it at stage boundaries and inside the SA
//!   and A* inner loops, so `cancel` and expired deadlines take effect
//!   promptly and surface as typed
//!   [`SynthesisError::DeadlineExceeded`](mfb_core::prelude::SynthesisError) /
//!   `Cancelled` — never as a perturbed result.
//! * **Backpressure** — admission is a bounded queue
//!   ([`queue::JobQueue`]) with per-client in-flight caps and
//!   FIFO-within-priority ordering; a full queue is a typed
//!   `queue_full` rejection the client can retry, not an unbounded
//!   memory balloon.
//! * **No retry** — synthesis is a pure function of the job, so a job
//!   runs once: a typed error, a budget interrupt or a contained stage
//!   panic (`StagePanic`) is its terminal state, and the work a job
//!   costs stays bounded by one run.
//! * **Crash safety** — the stage cache is persisted to `--cache-dir`
//!   as a checksummed, versioned snapshot ([`snapshot`]) written with
//!   atomic renames. A `kill -9` loses at most the entries since the
//!   last snapshot; a corrupt entry is dropped and recomputed, never
//!   fatal.
//! * **Graceful shutdown** — `SIGTERM`/`SIGINT` (or the `drain` verb)
//!   stop admissions, finish the queue, snapshot, and exit.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod protocol;
pub mod queue;
pub mod server;
pub mod signal;
pub mod snapshot;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::protocol::{parse_request, ErrorKind, ProtocolError, Request, MAX_FRAME};
    pub use crate::queue::{Admission, JobQueue};
    pub use crate::server::{ServeSummary, Server, ServerConfig, ServerHandle};
    pub use crate::snapshot::{load_snapshot, save_snapshot, LoadReport};
}
