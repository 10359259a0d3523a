//! The rule registry: every design rule has a stable `DRC-…` identifier,
//! a default severity, and can be toggled individually.
//!
//! Two rule families exist:
//!
//! * **adapters** wrap the legacy checkers (`mfb_sched::validate`, the
//!   `mfb-sim` replay engine) so that every violation those report shows
//!   up as exactly one diagnostic under a stable rule id — the registry's
//!   findings are a superset of the legacy ones *by construction*;
//! * **native** cross-stage rules check invariants no single stage can
//!   see: schedule↔floorplan binding consistency, cached fluids blocking
//!   other transports, and wash-plan coverage of every channel wash.
//!
//! All of them sit behind one input guard, `mfb-sim`'s `shape_problems`:
//! on an input it rejects, the replay reports each problem under
//! `DRC-SHAPE-001` and every rule that needs a consistent input stands
//! down (see [`VerifyInput::is_checkable`]).

use crate::diag::{Diagnostic, EdgeRef, Location, Severity, VerifyReport};
use crate::input::VerifyInput;
use mfb_model::prelude::*;
use mfb_sched::prelude::ScheduleViolation;
use mfb_sim::prelude::SimViolation;
use std::collections::BTreeSet;
use std::fmt;

/// Static description of one design rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable identifier, e.g. `DRC-ROUTE-003`.
    pub id: &'static str,
    /// Short kebab-case name, e.g. `cell-conflict`.
    pub name: &'static str,
    /// One-sentence description of what the rule checks.
    pub description: &'static str,
    /// Severity of this rule's findings.
    pub severity: Severity,
}

/// One design rule: a named check over a complete synthesis result.
///
/// `Send + Sync` so a shared [`RuleRegistry`] can verify independent
/// solutions from worker threads (e.g. the `mfb faults --sweep` trials).
pub trait Rule: fmt::Debug + Send + Sync {
    /// The rule's static description.
    fn info(&self) -> RuleInfo;
    /// Runs the check; returns every finding (empty = rule satisfied).
    fn check(&self, input: &VerifyInput<'_>) -> Vec<Diagnostic>;
}

/// The rule id under which a legacy schedule violation is reported.
pub fn rule_for_schedule_violation(v: &ScheduleViolation) -> &'static str {
    match v {
        ScheduleViolation::ComponentOverlap { .. } => "DRC-SCHED-001",
        ScheduleViolation::KindMismatch { .. } => "DRC-SCHED-002",
        ScheduleViolation::PrecedenceViolation { .. } => "DRC-SCHED-003",
        ScheduleViolation::TransportTiming { .. }
        | ScheduleViolation::TransportEndpoints { .. } => "DRC-SCHED-004",
        ScheduleViolation::MissingDelivery { .. }
        | ScheduleViolation::InPlaceAcrossComponents { .. } => "DRC-SCHED-005",
        ScheduleViolation::WashOverlap { .. } => "DRC-WASH-001",
        _ => "DRC-MISC-001",
    }
}

/// The rule id under which a legacy replay violation is reported.
pub fn rule_for_sim_violation(v: &SimViolation) -> &'static str {
    match v {
        SimViolation::PathMislabelled { .. }
        | SimViolation::PathDiscontiguous { .. }
        | SimViolation::BadEndpoint { .. }
        | SimViolation::MissingPath { .. } => "DRC-ROUTE-001",
        SimViolation::PathThroughComponent { .. } => "DRC-ROUTE-002",
        SimViolation::CellConflict { .. } => "DRC-ROUTE-003",
        SimViolation::WindowOutsideLifetime { .. } => "DRC-ROUTE-004",
        SimViolation::WashGap { .. } => "DRC-WASH-002",
        SimViolation::ComponentOverlap { .. } => "DRC-EXEC-001",
        SimViolation::PrecedenceViolation { .. } => "DRC-EXEC-002",
        SimViolation::IllegalPlacement => "DRC-PLACE-001",
        SimViolation::ShapeMismatch { .. } => "DRC-SHAPE-001",
        _ => "DRC-MISC-001",
    }
}

fn location_for_schedule_violation(v: &ScheduleViolation) -> Location {
    match *v {
        ScheduleViolation::KindMismatch { op, .. } => Location::Op(op),
        ScheduleViolation::ComponentOverlap { component, .. }
        | ScheduleViolation::WashOverlap { component, .. } => Location::Component(component),
        ScheduleViolation::PrecedenceViolation { parent, child }
        | ScheduleViolation::InPlaceAcrossComponents { parent, child }
        | ScheduleViolation::MissingDelivery { parent, child } => {
            Location::Edge(EdgeRef { parent, child })
        }
        ScheduleViolation::TransportTiming { task }
        | ScheduleViolation::TransportEndpoints { task } => Location::Task(task),
        _ => Location::Chip,
    }
}

fn location_for_sim_violation(v: &SimViolation) -> Location {
    match *v {
        SimViolation::PathMislabelled { task }
        | SimViolation::PathDiscontiguous { task }
        | SimViolation::BadEndpoint { task }
        | SimViolation::MissingPath { task }
        | SimViolation::WindowOutsideLifetime { task } => Location::Task(task),
        SimViolation::PathThroughComponent { cell, .. }
        | SimViolation::CellConflict { cell, .. }
        | SimViolation::WashGap { cell, .. } => Location::Cell(cell),
        SimViolation::ComponentOverlap { component, .. } => Location::Component(component),
        SimViolation::PrecedenceViolation { parent, child } => {
            Location::Edge(EdgeRef { parent, child })
        }
        SimViolation::IllegalPlacement | SimViolation::ShapeMismatch { .. } => Location::Chip,
        _ => Location::Chip,
    }
}

fn diag(rule: &'static str, severity: Severity, message: String, location: Location) -> Diagnostic {
    Diagnostic {
        rule: rule.to_string(),
        severity,
        message,
        location,
        window: None,
    }
}

/// Adapter over `mfb_sched::validate`: reports the legacy violations whose
/// mapped rule id matches `self`'s.
#[derive(Debug)]
struct SchedAdapter(RuleInfo);

impl Rule for SchedAdapter {
    fn info(&self) -> RuleInfo {
        self.0
    }

    fn check(&self, input: &VerifyInput<'_>) -> Vec<Diagnostic> {
        // A rejected input is reported under DRC-SHAPE-001.
        let Some(violations) = input.schedule_violations() else {
            return Vec::new();
        };
        violations
            .iter()
            .filter(|v| rule_for_schedule_violation(v) == self.0.id)
            .map(|v| {
                diag(
                    self.0.id,
                    self.0.severity,
                    v.to_string(),
                    location_for_schedule_violation(v),
                )
            })
            .collect()
    }
}

/// Adapter over the `mfb-sim` replay engine, analogous to [`SchedAdapter`].
#[derive(Debug)]
struct SimAdapter(RuleInfo);

impl Rule for SimAdapter {
    fn info(&self) -> RuleInfo {
        self.0
    }

    fn check(&self, input: &VerifyInput<'_>) -> Vec<Diagnostic> {
        input
            .replay_report()
            .violations
            .iter()
            .filter(|v| rule_for_sim_violation(v) == self.0.id)
            .map(|v| {
                diag(
                    self.0.id,
                    self.0.severity,
                    v.to_string(),
                    location_for_sim_violation(v),
                )
            })
            .collect()
    }
}

/// Catch-all adapter for violation variants added to the (non-exhaustive)
/// legacy enums after this crate was written.
#[derive(Debug)]
struct MiscAdapter(RuleInfo);

impl Rule for MiscAdapter {
    fn info(&self) -> RuleInfo {
        self.0
    }

    fn check(&self, input: &VerifyInput<'_>) -> Vec<Diagnostic> {
        let sched = input
            .schedule_violations()
            .into_iter()
            .flatten()
            .filter(|v| rule_for_schedule_violation(v) == self.0.id)
            .map(|v| {
                diag(
                    self.0.id,
                    self.0.severity,
                    v.to_string(),
                    location_for_schedule_violation(v),
                )
            });
        let sim = input
            .replay_report()
            .violations
            .iter()
            .filter(|v| rule_for_sim_violation(v) == self.0.id)
            .map(|v| {
                diag(
                    self.0.id,
                    self.0.severity,
                    v.to_string(),
                    location_for_sim_violation(v),
                )
            });
        sched.chain(sim).collect()
    }
}

/// Native cross-stage rule: every schedule binding must reference a
/// placed component, and every routed path must start and end next to the
/// components its transport task names in the schedule.
#[derive(Debug)]
struct BindingConsistency(RuleInfo);

impl Rule for BindingConsistency {
    fn info(&self) -> RuleInfo {
        self.0
    }

    fn check(&self, input: &VerifyInput<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let placed = input.placement.len().min(input.components.len());
        for s in input.schedule.ops() {
            if s.component.index() >= placed {
                out.push(diag(
                    self.0.id,
                    self.0.severity,
                    format!(
                        "{} is bound to {} but only {placed} components are placed",
                        s.op, s.component
                    ),
                    Location::Op(s.op),
                ));
            }
        }
        for t in input.schedule.transports() {
            for (label, c) in [("source", t.src), ("destination", t.dst)] {
                if c.index() >= placed {
                    out.push(diag(
                        self.0.id,
                        self.0.severity,
                        format!(
                            "transport {} names {label} component {c} but only {placed} \
                             components are placed",
                            t.id
                        ),
                        Location::Task(t.id),
                    ));
                }
            }
        }
        for w in input.schedule.washes() {
            if w.component.index() >= placed {
                out.push(diag(
                    self.0.id,
                    self.0.severity,
                    format!(
                        "wash event names component {} but only {placed} components are placed",
                        w.component
                    ),
                    Location::Component(w.component),
                ));
            }
        }
        let transports = input.schedule.transports().len();
        for p in &input.routing.paths {
            if p.task.index() >= transports {
                out.push(diag(
                    self.0.id,
                    self.0.severity,
                    format!(
                        "routed path for {} has no transport record in the schedule",
                        p.task
                    ),
                    Location::Task(p.task),
                ));
                continue;
            }
            if p.is_empty() {
                continue; // DRC-ROUTE-001 reports missing paths
            }
            let t = input.schedule.transport(p.task);
            if t.src.index() >= placed || t.dst.index() >= placed {
                continue; // dangling endpoints already reported above
            }
            let first = p.cells[0];
            let last = *p.cells.last().expect("non-empty path");
            for (what, cell, c) in [("start", first, t.src), ("end", last, t.dst)] {
                if !input.placement.rect(c).inflated(1).contains(cell) {
                    out.push(diag(
                        self.0.id,
                        self.0.severity,
                        format!(
                            "path of {} {what}s at {cell}, away from its scheduled {} component \
                             {c} at {}",
                            p.task,
                            if what == "start" {
                                "source"
                            } else {
                                "destination"
                            },
                            input.placement.rect(c)
                        ),
                        Location::Task(p.task),
                    ));
                }
            }
        }
        out
    }
}

/// Native cross-stage rule: while the schedule says a fluid is cached in
/// the channel (`arrive..consumed_at`), no other fluid's routed path may
/// pass through the cells the cached plug occupies. The parked cells are
/// the occupancy model's storage segments.
#[derive(Debug)]
struct CachedFluidBlocks(RuleInfo);

impl Rule for CachedFluidBlocks {
    fn info(&self) -> RuleInfo {
        self.0
    }

    fn check(&self, input: &VerifyInput<'_>) -> Vec<Diagnostic> {
        let Some(occupancy) = input.occupancy() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for seg in occupancy.storage() {
            let cache = seg.cache;
            'pairs: for q in &input.routing.paths {
                if q.task == seg.task || q.fluid == seg.fluid {
                    continue;
                }
                // The witness is the first blocking occupancy in the
                // blocked path's order.
                for (qc, qw) in q.occupancies() {
                    let Some(&(_, pw)) = seg.cells.iter().find(|&&(pc, _)| pc == qc) else {
                        continue;
                    };
                    if qw.overlaps(cache) && qw.overlaps(pw) {
                        let clash = Interval::new(qw.start.max(cache.start), qw.end.min(cache.end));
                        out.push(Diagnostic {
                            rule: self.0.id.to_string(),
                            severity: self.0.severity,
                            message: format!(
                                "fluid {} cached by {} ({} in channel) blocks transport {} at {qc}",
                                seg.fluid,
                                seg.task,
                                cache.length(),
                                q.task
                            ),
                            location: Location::Cell(qc),
                            window: Some(clash),
                        });
                        continue 'pairs; // one finding per blocked pair
                    }
                }
            }
        }
        out
    }
}

/// Native cross-stage rule: nothing in the solution may touch a defect of
/// the [`VerifyInput`]'s map — no routed path cell or channel wash on a
/// blocked cell, no component footprint covering one, and no binding,
/// transport endpoint or component wash on a dead component. On a pristine
/// map the rule passes without looking.
#[derive(Debug)]
struct DefectAvoidance(RuleInfo);

impl Rule for DefectAvoidance {
    fn info(&self) -> RuleInfo {
        self.0
    }

    fn check(&self, input: &VerifyInput<'_>) -> Vec<Diagnostic> {
        let defects = input.defects;
        if defects.is_pristine() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut push = |message: String, location: Location| {
            out.push(diag(self.0.id, self.0.severity, message, location));
        };

        for p in &input.routing.paths {
            for &cell in &p.cells {
                if defects.is_blocked(cell) {
                    push(
                        format!("path of {} crosses blocked cell {cell}", p.task),
                        Location::Cell(cell),
                    );
                }
            }
        }
        for w in &input.routing.channel_washes {
            if defects.is_blocked(w.cell) {
                push(
                    format!("channel wash scheduled on blocked cell {}", w.cell),
                    Location::Cell(w.cell),
                );
            }
        }
        let placed = input.placement.len().min(input.components.len());
        for i in 0..placed {
            let c = ComponentId::new(i as u32);
            let rect = input.placement.rect(c);
            if let Some(&cell) = defects.blocked_cells().iter().find(|&&b| rect.contains(b)) {
                push(
                    format!("component {c} placed over blocked cell {cell}"),
                    Location::Component(c),
                );
            }
        }
        for s in input.schedule.ops() {
            if defects.is_dead(s.component) {
                push(
                    format!("{} is bound to dead component {}", s.op, s.component),
                    Location::Op(s.op),
                );
            }
        }
        for t in input.schedule.transports() {
            for (label, c) in [("source", t.src), ("destination", t.dst)] {
                if defects.is_dead(c) {
                    push(
                        format!("transport {} uses dead component {c} as {label}", t.id),
                        Location::Task(t.id),
                    );
                }
            }
        }
        for w in input.schedule.washes() {
            if defects.is_dead(w.component) {
                push(
                    format!("wash scheduled on dead component {}", w.component),
                    Location::Component(w.component),
                );
            }
        }
        out
    }
}

/// Native cross-stage rule: every channel wash demanded by the routing
/// should be covered by a planned buffer flush (warning — valid solutions
/// can leave washes unplannable when traffic is dense).
#[derive(Debug)]
struct WashCoverage(RuleInfo);

impl Rule for WashCoverage {
    fn info(&self) -> RuleInfo {
        self.0
    }

    fn check(&self, input: &VerifyInput<'_>) -> Vec<Diagnostic> {
        input
            .wash_plan()
            .into_iter()
            .flat_map(|plan| &plan.unplanned)
            .map(|w| {
                diag(
                    self.0.id,
                    self.0.severity,
                    format!(
                        "channel wash at {} (residue {}, before task {}) has no feasible \
                         buffer flush",
                        w.cell, w.residue, w.task
                    ),
                    Location::Cell(w.cell),
                )
            })
            .collect()
    }
}

macro_rules! info {
    ($id:literal, $name:literal, $sev:ident, $desc:literal) => {
        RuleInfo {
            id: $id,
            name: $name,
            description: $desc,
            severity: Severity::$sev,
        }
    };
}

fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(SchedAdapter(info!(
            "DRC-SCHED-001",
            "component-overlap",
            Error,
            "operations bound to the same component must not overlap in time"
        ))),
        Box::new(SchedAdapter(info!(
            "DRC-SCHED-002",
            "kind-mismatch",
            Error,
            "every operation must be bound to a component able to execute its kind"
        ))),
        Box::new(SchedAdapter(info!(
            "DRC-SCHED-003",
            "schedule-precedence",
            Error,
            "a child operation must not start before its parents finish"
        ))),
        Box::new(SchedAdapter(info!(
            "DRC-SCHED-004",
            "transport-timing",
            Error,
            "transport tasks must depart after production, arrive after t_c, and link real components"
        ))),
        Box::new(SchedAdapter(info!(
            "DRC-SCHED-005",
            "delivery-record",
            Error,
            "every dependency edge needs a delivery record consistent with its bindings"
        ))),
        Box::new(SimAdapter(info!(
            "DRC-ROUTE-001",
            "path-integrity",
            Error,
            "every transport needs a contiguous routed path with endpoints at its components' ports"
        ))),
        Box::new(SimAdapter(info!(
            "DRC-ROUTE-002",
            "component-traversal",
            Error,
            "routed paths must not cross component interiors"
        ))),
        Box::new(SimAdapter(info!(
            "DRC-ROUTE-003",
            "cell-conflict",
            Error,
            "two different fluids must never occupy the same cell at overlapping times (conflict classes 1-2)"
        ))),
        Box::new(SimAdapter(info!(
            "DRC-ROUTE-004",
            "fluid-lifetime",
            Error,
            "a path's cell occupancy must lie within the fluid's production-to-consumption lifetime"
        ))),
        Box::new(SimAdapter(info!(
            "DRC-EXEC-001",
            "realized-overlap",
            Error,
            "operations on one component must not overlap under the routing's realized times"
        ))),
        Box::new(SimAdapter(info!(
            "DRC-EXEC-002",
            "realized-precedence",
            Error,
            "operation precedence must hold under the routing's realized times"
        ))),
        Box::new(SimAdapter(info!(
            "DRC-PLACE-001",
            "placement-legality",
            Error,
            "the floorplan must be legal: on-grid, non-overlapping, with routing clearance"
        ))),
        Box::new(SimAdapter(info!(
            "DRC-SHAPE-001",
            "artifact-shape",
            Error,
            "schedule, floorplan and routing must all describe the same problem instance"
        ))),
        Box::new(SchedAdapter(info!(
            "DRC-WASH-001",
            "component-wash-overlap",
            Error,
            "component wash events must not overlap operations on the same component"
        ))),
        Box::new(SimAdapter(info!(
            "DRC-WASH-002",
            "wash-gap",
            Error,
            "a cell reused by another fluid must first be washed for the residue's wash time (conflict class 3)"
        ))),
        Box::new(WashCoverage(info!(
            "DRC-WASH-003",
            "wash-coverage",
            Warning,
            "every channel wash should be covered by a feasible buffer flush in the wash plan"
        ))),
        Box::new(BindingConsistency(info!(
            "DRC-BIND-001",
            "binding-consistency",
            Error,
            "schedule bindings must reference placed components and paths must connect their scheduled endpoints"
        ))),
        Box::new(CachedFluidBlocks(info!(
            "DRC-CACHE-001",
            "cached-fluid-blocks-transport",
            Error,
            "a fluid cached in the channel must not block another fluid's transport"
        ))),
        Box::new(DefectAvoidance(info!(
            "DRC-FAULT-001",
            "defect-avoidance",
            Error,
            "no routed path, placement footprint or binding may touch a defect-map entry"
        ))),
        Box::new(MiscAdapter(info!(
            "DRC-MISC-001",
            "unclassified",
            Error,
            "legacy checker findings with no dedicated rule (forward compatibility)"
        ))),
    ]
}

/// The ordered collection of design rules, with per-rule enable switches.
pub struct RuleRegistry {
    rules: Vec<Box<dyn Rule>>,
    disabled: BTreeSet<String>,
}

impl fmt::Debug for RuleRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuleRegistry")
            .field("rules", &self.rules.len())
            .field("disabled", &self.disabled)
            .finish()
    }
}

impl Default for RuleRegistry {
    fn default() -> Self {
        Self::with_all_rules()
    }
}

impl RuleRegistry {
    /// A registry with every built-in `DRC-*` rule enabled.
    pub fn with_all_rules() -> Self {
        RuleRegistry::new(all_rules())
    }

    /// A registry of the given rules, all enabled, listed in the given
    /// order (`mfb-analyze` builds its `ANA-*` registry this way).
    pub fn new(rules: Vec<Box<dyn Rule>>) -> Self {
        RuleRegistry {
            rules,
            disabled: BTreeSet::new(),
        }
    }

    /// Static descriptions of all registered rules, in registry order.
    pub fn rules(&self) -> impl Iterator<Item = RuleInfo> + '_ {
        self.rules.iter().map(|r| r.info())
    }

    /// Looks up a rule description by id.
    pub fn rule(&self, id: &str) -> Option<RuleInfo> {
        self.rules().find(|r| r.id == id)
    }

    /// Disables the rule with the given id (unknown ids are ignored).
    pub fn disable(&mut self, id: &str) {
        self.disabled.insert(id.to_string());
    }

    /// Re-enables a previously disabled rule.
    pub fn enable(&mut self, id: &str) {
        self.disabled.remove(id);
    }

    /// Disables every rule whose id is **not** in `ids` (the `--only`
    /// filter). Unknown ids in `ids` are ignored; combine with
    /// [`rule`](Self::rule) to reject them up front.
    pub fn retain_only<'i>(&mut self, ids: impl IntoIterator<Item = &'i str>) {
        let keep: BTreeSet<&str> = ids.into_iter().collect();
        let all: Vec<&'static str> = self.rules().map(|r| r.id).collect();
        for id in all {
            if !keep.contains(id) {
                self.disable(id);
            }
        }
    }

    /// `true` when the rule with the given id will run.
    pub fn is_enabled(&self, id: &str) -> bool {
        !self.disabled.contains(id)
    }

    /// Runs every enabled rule and collects the findings in the canonical
    /// deduplicated order of [`VerifyReport::sorted`].
    pub fn run(&self, input: &VerifyInput<'_>) -> VerifyReport {
        VerifyReport::sorted(
            self.rules
                .iter()
                .filter(|r| self.is_enabled(r.info().id))
                .flat_map(|r| r.check(input))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_well_formed() {
        let registry = RuleRegistry::with_all_rules();
        let ids: Vec<&str> = registry.rules().map(|r| r.id).collect();
        let unique: BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(ids.len(), unique.len(), "duplicate rule ids");
        for info in registry.rules() {
            assert!(info.id.starts_with("DRC-"), "{}", info.id);
            assert!(!info.name.is_empty() && !info.description.is_empty());
        }
    }

    #[test]
    fn toggles_work() {
        let mut registry = RuleRegistry::with_all_rules();
        assert!(registry.is_enabled("DRC-ROUTE-003"));
        registry.disable("DRC-ROUTE-003");
        assert!(!registry.is_enabled("DRC-ROUTE-003"));
        registry.enable("DRC-ROUTE-003");
        assert!(registry.is_enabled("DRC-ROUTE-003"));
        assert!(registry.rule("DRC-WASH-003").unwrap().severity == Severity::Warning);
        assert!(registry.rule("DRC-NOPE-999").is_none());
    }

    #[test]
    fn every_mapped_rule_id_is_registered() {
        let registry = RuleRegistry::with_all_rules();
        // The mapping functions only ever emit registered ids; spot-check
        // via representative variants.
        let sched = ScheduleViolation::TransportTiming {
            task: TaskId::new(0),
        };
        assert!(registry.rule(rule_for_schedule_violation(&sched)).is_some());
        let sim = SimViolation::IllegalPlacement;
        assert!(registry.rule(rule_for_sim_violation(&sim)).is_some());
    }
}
