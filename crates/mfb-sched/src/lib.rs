//! Resource binding and scheduling for DCSA-based biochips.
//!
//! Implements the paper's **Algorithm 1**: priority-driven list scheduling
//! with storage-aware binding (Case I / Case II), next to the **baseline
//! (BA)** earliest-ready binding it is evaluated against, plus the schedule
//! data model, metrics (completion time, resource utilization Eq. (1),
//! channel-cache time) and an independent validator.
//!
//! # Quick start
//!
//! ```
//! use mfb_model::prelude::*;
//! use mfb_sched::prelude::*;
//!
//! // out(o0) and out(o1) merge in o2.
//! let mut b = SequencingGraph::builder();
//! let wash = LogLinearWash::paper_calibrated();
//! let d = DiffusionCoefficient::PROTEIN;
//! let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
//! let o1 = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
//! let o2 = b.operation(OperationKind::Mix, Duration::from_secs(4), d);
//! b.edge(o0, o2).unwrap();
//! b.edge(o1, o2).unwrap();
//! let assay = b.build().unwrap();
//!
//! let chip = Allocation::new(2, 0, 0, 0).instantiate(&ComponentLibrary::default());
//! let undamaged = DefectMap::pristine();
//! let cfg = SchedulerConfig::paper_dcsa();
//! let sched = schedule(&assay, &chip, &wash, &cfg, &undamaged).unwrap();
//!
//! // o2 reuses one parent's mixer (Case I): one transport, one in-place.
//! assert_eq!(sched.in_place_count(), 1);
//! assert_eq!(sched.transports().len(), 1);
//! assert!(validate(&sched, &assay, &chip).is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod error;
pub mod exact;
pub mod list;
pub mod metrics;
pub mod schedule;
pub mod validate;

/// One-stop import of the scheduling API.
pub mod prelude {
    pub use crate::analysis::{parallelism_profile, TimingAnalysis};
    pub use crate::error::SchedError;
    pub use crate::exact::{optimal_makespan, MAX_EXACT_OPS};
    pub use crate::list::{schedule, BindingRule, SchedulerConfig};
    pub use crate::metrics::{
        component_usage, resource_utilization, ComponentUsage, ScheduleMetrics,
    };
    pub use crate::schedule::{FluidDelivery, Schedule, ScheduledOp, TransportTask, WashEvent};
    pub use crate::validate::{validate, ScheduleViolation};
}
