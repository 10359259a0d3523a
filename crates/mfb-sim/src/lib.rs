//! Independent replay validation for DCSA physical synthesis solutions.
//!
//! A complete solution — schedule, placement, routing — claims that a
//! bioassay can execute on the chip without transportation conflicts. This
//! crate *replays* that claim cell by cell and instant by instant, sharing
//! no code with the tools that produced the solution:
//!
//! * [`replay::shape_problems`] is the one input guard every checker
//!   shares: it decides whether artifacts are consistent enough to check;
//! * [`occupancy::OccupancyIr`] is the one occupancy model every
//!   cell-level checker reads: which fluid is in which cell, and when,
//!   and which occupancies are channel storage;
//! * [`replay::replay`] checks placement legality, path integrity, the
//!   three conflict classes of the paper's §II-C.2 (over the occupancy
//!   model), fluid lifetimes and operation precedence;
//! * [`violation::SimViolation`] enumerates everything that can go wrong;
//! * [`stats::SimStats`] summarises chip activity (makespan, peak parallel
//!   transports, realized cache time, channel occupancy).
//!
//! Because the validator is independent, the workspace's property tests can
//! cross-check the whole synthesis flow against it: any schedule/placement/
//! routing bug that produces a physically impossible solution surfaces here.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod events;
pub mod fault;
pub mod occupancy;
pub mod replay;
pub mod stats;
pub mod violation;

/// One-stop import of the simulation API.
pub mod prelude {
    pub use crate::events::{event_log, render_event_log, ChipEvent};
    pub use crate::fault::{assess_faults, FaultEvent, FaultImpact, FaultKind};
    pub use crate::occupancy::{CellUse, OccupancyIr, OccupancyKind, StorageSegment};
    pub use crate::replay::{replay, shape_problems, validate_solution, SimReport};
    pub use crate::stats::SimStats;
    pub use crate::violation::SimViolation;
}
