//! Unified static design-rule checker (DRC) for DCSA synthesis results.
//!
//! The synthesis pipeline of Chen et al. (DATE 2019) produces a stack of
//! artifacts — sequencing graph, schedule, floorplan, routed paths with a
//! wash plan — and the workspace historically checked them with two
//! separate mechanisms: `mfb_sched::validate` (schedule invariants) and
//! the `mfb-sim` replay engine (cell-level physics). This crate unifies
//! both behind a single [`RuleRegistry`] of named, individually
//! toggleable design rules, adds cross-stage rules neither legacy checker
//! can express, and renders the findings as pretty terminal text, JSON,
//! or SARIF 2.1.0 for code-scanning UIs.
//!
//! Each rule has a stable `DRC-<AREA>-<NNN>` identifier (for example
//! `DRC-ROUTE-003 cell-conflict` for §II-C.2 conflict classes 1–2) and
//! emits structured [`Diagnostic`]s with a severity, a source location
//! (operation, task, component, cell or edge) and an optional time
//! window. The legacy checkers keep working — the registry wraps them as
//! adapter rules, so its findings are a superset of theirs by
//! construction. The same [`VerifyInput`] and [`RuleRegistry`] also carry
//! `mfb-analyze`'s `ANA-*` rules, so `mfb verify` and `mfb analyze` share
//! one input guard, one rule toggle surface and one set of renderers.
//!
//! # Example
//!
//! ```no_run
//! use mfb_verify::prelude::*;
//! # fn demo(graph: &mfb_model::prelude::SequencingGraph,
//! #         components: &mfb_model::prelude::ComponentSet,
//! #         schedule: &mfb_sched::prelude::Schedule,
//! #         placement: &mfb_place::prelude::Placement,
//! #         routing: &mfb_route::prelude::Routing,
//! #         wash: &dyn mfb_model::prelude::WashModel,
//! #         defects: &mfb_model::prelude::DefectMap) {
//! let input = VerifyInput::new(
//!     graph, components, schedule, placement, routing, wash,
//!     mfb_route::prelude::RouterConfig::paper(), defects,
//! );
//! let report = RuleRegistry::with_all_rules().run(&input);
//! println!("{}", render_pretty(&report));
//! std::process::exit(report.exit_code());
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod diag;
pub mod input;
pub mod render;
pub mod rules;

pub use diag::{Diagnostic, EdgeRef, Location, Severity, VerifyReport};
pub use input::VerifyInput;
pub use render::{render_json, render_pretty, render_sarif};
pub use rules::{
    rule_for_schedule_violation, rule_for_sim_violation, Rule, RuleInfo, RuleRegistry,
};

/// Everything a DRC consumer normally needs.
pub mod prelude {
    pub use crate::diag::{Diagnostic, EdgeRef, Location, Severity, VerifyReport};
    pub use crate::input::VerifyInput;
    pub use crate::render::{render_json, render_pretty, render_sarif};
    pub use crate::rules::{
        rule_for_schedule_violation, rule_for_sim_violation, Rule, RuleInfo, RuleRegistry,
    };
}
