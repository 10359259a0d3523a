//! Cross-stage dataflow analysis over the DCSA synthesis IR.
//!
//! Where the `mfb-verify` DRC *checks* a solution rule by rule and
//! `mfb-sim` *replays* it event by event, this crate *analyses* it: three
//! fixpoint/graph analyses over `mfb-sim`'s occupancy model
//! ([`OccupancyIr`]), which [`VerifyInput::occupancy`] builds once per
//! input:
//!
//! | Rules | Analysis |
//! |---|---|
//! | `ANA-TAINT-001/002`, `ANA-WASH-001` | contamination taint: residue hand-offs on shared cells, provenance fixpoint with witness chains, unrealizable taint kills |
//! | `ANA-STORE-001/002` | storage liveness: overlapping channel-storage residency, waits-for deadlock cycles |
//! | `ANA-VALVE-001` | valve conflicts: junction valves required open and closed simultaneously (via `mfb-control`'s `ValveNetwork`) |
//!
//! Each `ANA-*` id is an ordinary [`Rule`] over the same [`VerifyInput`]
//! the DRC reads, and [`analysis_registry`] collects them in a
//! [`RuleRegistry`]. The DRC and the analyses therefore share one input
//! guard, one rule toggle surface and the pretty/JSON/SARIF renderers;
//! `mfb analyze` in the CLI and `Solution::analyze` in `mfb-core` are thin
//! wrappers. By design the static findings are a superset of the replay
//! engine's contamination and conflict violations (see the soundness
//! tests), and every analysis is deterministic, so the report is
//! byte-identical for any `MFB_THREADS` setting.
//!
//! # Example
//!
//! ```no_run
//! use mfb_analyze::analysis_registry;
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
//! let report = analysis_registry().run(&input);
//! println!("{}", render_pretty(&report));
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod engine;
mod liveness;
mod taint;
mod valves;

use mfb_sim::prelude::OccupancyIr;
use mfb_verify::prelude::*;

/// One `ANA-*` rule: an analysis over the shared occupancy model.
#[derive(Debug)]
struct Analysis {
    info: RuleInfo,
    run: fn(&OccupancyIr, &VerifyInput<'_>) -> Vec<Diagnostic>,
}

impl Rule for Analysis {
    fn info(&self) -> RuleInfo {
        self.info
    }

    fn check(&self, input: &VerifyInput<'_>) -> Vec<Diagnostic> {
        occupancy(input).map_or_else(Vec::new, |occupancy| (self.run)(occupancy, input))
    }
}

/// The input's occupancy model (`None` when the input guard rejects it),
/// traced as `analyze.ir` when the first analysis builds it.
fn occupancy<'i>(input: &'i VerifyInput<'_>) -> Option<&'i OccupancyIr> {
    if input.has_occupancy() {
        return input.occupancy();
    }
    let _span = mfb_obs::obs_span!("analyze.ir", paths = input.routing.paths.len() as u64);
    let occupancy = input.occupancy()?;
    mfb_obs::obs_counter!("analyze.storage_segments", occupancy.storage().len() as u64);
    Some(occupancy)
}

fn analysis(
    id: &'static str,
    name: &'static str,
    severity: Severity,
    description: &'static str,
    run: fn(&OccupancyIr, &VerifyInput<'_>) -> Vec<Diagnostic>,
) -> Box<dyn Rule> {
    Box::new(Analysis {
        info: RuleInfo {
            id,
            name,
            description,
            severity,
        },
        run,
    })
}

/// The `ANA-*` rules, all enabled, in rule-id order.
pub fn analysis_registry() -> RuleRegistry {
    RuleRegistry::new(vec![
        analysis(
            liveness::RULE_OVERLAP,
            "storage-overlap",
            Severity::Error,
            "Two different stored fluids are live in the same channel cell \
             at overlapping times.",
            liveness::storage_overlap,
        ),
        analysis(
            liveness::RULE_DEADLOCK,
            "storage-deadlock",
            Severity::Error,
            "Stored plugs and delivery routes form a waits-for cycle no \
             control sequence can resolve.",
            liveness::storage_deadlock,
        ),
        analysis(
            taint::RULE_TAINT,
            "residual-contamination",
            Severity::Error,
            "A fluid occupies a channel cell while a different fluid's plug \
             or unwashed residue is still present.",
            taint::residual_contamination,
        ),
        analysis(
            taint::RULE_CHAIN,
            "contamination-chain",
            Severity::Error,
            "An operation's provenance fixpoint contains a non-ancestor \
             fluid: contamination reaches it through a chain of channel \
             hand-offs.",
            taint::contamination_chains,
        ),
        analysis(
            valves::RULE_VALVE,
            "valve-conflict",
            Severity::Error,
            "A junction valve is required simultaneously open for one fluid \
             and closed for another.",
            valves::valve_conflicts,
        ),
        analysis(
            taint::RULE_WASH,
            "unrealizable-taint-kill",
            Severity::Warning,
            "A required channel wash has no feasible buffer flush in its \
             time gap; the contamination kill it models is optimistic.",
            taint::unrealizable_kills,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_catalog_is_sorted_and_unique() {
        let ids: Vec<&str> = analysis_registry().rules().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "catalog must be id-sorted and duplicate-free");
        assert!(ids.iter().all(|id| id.starts_with("ANA-")));
    }

    #[test]
    fn toggling_rules() {
        let mut a = analysis_registry();
        assert!(a.is_enabled("ANA-TAINT-001"));
        a.disable("ANA-TAINT-001");
        assert!(!a.is_enabled("ANA-TAINT-001"));
        a.enable("ANA-TAINT-001");
        assert!(a.is_enabled("ANA-TAINT-001"));
        a.retain_only(["ANA-VALVE-001"]);
        assert!(a.is_enabled("ANA-VALVE-001"));
        assert!(!a.is_enabled("ANA-TAINT-001"));
        assert!(!a.is_enabled("ANA-STORE-002"));
        assert!(a.rule("ANA-WASH-001").is_some());
        assert!(a.rule("DRC-ROUTE-003").is_none());
    }
}
