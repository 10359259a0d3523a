//! Top-down flow-layer physical synthesis for flow-based microfluidic
//! biochips with **distributed channel storage** (DCSA).
//!
//! This crate is the public face of the `mfb` workspace, a Rust
//! implementation of *"Physical Synthesis of Flow-Based Microfluidic
//! Biochips Considering Distributed Channel Storage"* (Chen, Huang, Guo,
//! Li, Ho, Schlichtmann — DATE 2019). It wires the stage crates into the
//! paper's pipeline:
//!
//! 1. **Resource binding & scheduling** (`mfb-sched`): priority-driven list
//!    scheduling with storage-aware Case-I/Case-II binding;
//! 2. **Placement** (`mfb-place`): simulated annealing under the
//!    conflict- and wash-aware connection priorities of Eq. (3)/(4);
//! 3. **Routing** (`mfb-route`): transportation-conflict-free,
//!    wash-weighted time-windowed A* (Eq. (5)), with distributed channel
//!    parking for cached fluids.
//!
//! The baseline flow the paper compares against (earliest-ready binding +
//! construction-by-correction physical design) is available through
//! [`Synthesizer::paper_baseline`](flow::Synthesizer::paper_baseline), and
//! every solution can be replayed through the independent validator in
//! `mfb-sim` via [`Solution::verify`](flow::Solution::verify).
//!
//! # Quick start
//!
//! ```
//! use mfb_core::prelude::*;
//! use mfb_model::prelude::*;
//!
//! // Describe a bioassay…
//! let mut b = SequencingGraph::builder();
//! let wash = LogLinearWash::paper_calibrated();
//! let d = wash.coefficient_for(Duration::from_secs(4));
//! let s1 = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
//! let s2 = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
//! let merge = b.operation(OperationKind::Mix, Duration::from_secs(4), d);
//! let read = b.operation(OperationKind::Detect, Duration::from_secs(3), d);
//! b.edge(s1, merge).unwrap();
//! b.edge(s2, merge).unwrap();
//! b.edge(merge, read).unwrap();
//! let assay = b.build().unwrap();
//!
//! // …allocate a chip, synthesize, and inspect.
//! let chip = Allocation::new(2, 0, 0, 1).instantiate(&ComponentLibrary::default());
//! let solution = Synthesizer::paper_dcsa().synthesize(&assay, &chip, &wash).unwrap();
//! let metrics = SolutionMetrics::of(&solution, &chip);
//!
//! assert!(solution.verify(&assay, &chip, &wash).is_valid());
//! assert!(metrics.execution_time > Duration::ZERO);
//! ```
//!
//! # Entry points
//!
//! [`synthesize`](flow::Synthesizer::synthesize) is the paper's flow on a
//! pristine chip. [`synthesize_with`](flow::Synthesizer::synthesize_with)
//! is the same flat retry loop with a defect map, an optional shared
//! [`StageCache`](cache::StageCache) and an execution budget.
//! [`synthesize_resilient`](flow::Synthesizer::synthesize_resilient) climbs
//! the escalation ladder of [`recovery`] instead, and
//! [`prepare_cached`](flow::Synthesizer::prepare_cached) only warms a cache
//! with the schedule and netlist.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod analysis;
pub mod cache;
pub mod config;
pub mod error;
pub mod flow;
pub mod metrics;
pub mod recovery;
pub mod report;

/// One-stop import of the synthesis API.
pub mod prelude {
    pub use crate::analysis::{
        area_report, audit_transport_times, AreaReport, TaskAudit, TransportAudit,
    };
    pub use crate::cache::{CacheStats, SnapshotEntry, StageCache};
    pub use crate::config::{PlacementStrategy, RoutingStrategy, SynthesisConfig};
    pub use crate::error::SynthesisError;
    pub use crate::flow::{Solution, Synthesizer};
    pub use crate::metrics::SolutionMetrics;
    pub use crate::recovery::{
        DegradedSolution, RecoveryPolicy, RecoveryTrace, ResilientOutcome, Rung, RungAttempt,
    };
    pub use crate::report::{fig8_text, fig9_text, table1_text, ComparisonRow};
    pub use mfb_analyze::analysis_registry;
    pub use mfb_model::prelude::{Budget, BudgetExceeded, CancelToken};
    pub use mfb_verify::prelude::{RuleRegistry, VerifyReport};
}
