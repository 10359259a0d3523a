//! Display coverage for every legacy violation variant, plus the rule-id
//! mapping: each variant renders a useful message and lands under a
//! registered rule.

use mfb_model::prelude::*;
use mfb_sched::prelude::ScheduleViolation;
use mfb_sim::prelude::SimViolation;
use mfb_verify::prelude::*;

fn op(i: u32) -> OpId {
    OpId::new(i)
}

fn comp(i: u32) -> ComponentId {
    ComponentId::new(i)
}

fn task(i: u32) -> TaskId {
    TaskId::new(i)
}

/// Every `ScheduleViolation` variant with distinctive ids.
fn all_schedule_violations() -> Vec<ScheduleViolation> {
    vec![
        ScheduleViolation::KindMismatch {
            op: op(1),
            component: comp(2),
        },
        ScheduleViolation::ComponentOverlap {
            a: op(3),
            b: op(4),
            component: comp(5),
        },
        ScheduleViolation::WashOverlap {
            op: op(6),
            component: comp(7),
        },
        ScheduleViolation::PrecedenceViolation {
            parent: op(8),
            child: op(9),
        },
        ScheduleViolation::InPlaceAcrossComponents {
            parent: op(10),
            child: op(11),
        },
        ScheduleViolation::TransportTiming { task: task(12) },
        ScheduleViolation::TransportEndpoints { task: task(13) },
        ScheduleViolation::MissingDelivery {
            parent: op(14),
            child: op(15),
        },
    ]
}

/// Every `SimViolation` variant with distinctive ids.
fn all_sim_violations() -> Vec<SimViolation> {
    vec![
        SimViolation::PathDiscontiguous { task: task(1) },
        SimViolation::PathThroughComponent {
            task: task(2),
            cell: CellPos::new(3, 4),
            component: comp(5),
        },
        SimViolation::BadEndpoint { task: task(6) },
        SimViolation::CellConflict {
            cell: CellPos::new(7, 8),
            a: task(9),
            b: task(10),
        },
        SimViolation::WashGap {
            cell: CellPos::new(11, 12),
            previous: task(13),
            next: task(14),
        },
        SimViolation::PrecedenceViolation {
            parent: op(15),
            child: op(16),
        },
        SimViolation::ComponentOverlap {
            a: op(17),
            b: op(18),
            component: comp(19),
        },
        SimViolation::WindowOutsideLifetime { task: task(20) },
        SimViolation::MissingPath { task: task(21) },
        SimViolation::PathMislabelled { task: task(22) },
        SimViolation::IllegalPlacement,
        SimViolation::ShapeMismatch {
            what: "operation count",
        },
    ]
}

/// The ids each violation's message must mention (empty = chip-global).
fn expected_tokens_sched(v: &ScheduleViolation) -> Vec<String> {
    match *v {
        ScheduleViolation::KindMismatch { op, component } => {
            vec![op.to_string(), component.to_string()]
        }
        ScheduleViolation::ComponentOverlap { a, b, component } => {
            vec![a.to_string(), b.to_string(), component.to_string()]
        }
        ScheduleViolation::WashOverlap { op, component } => {
            vec![op.to_string(), component.to_string()]
        }
        ScheduleViolation::PrecedenceViolation { parent, child }
        | ScheduleViolation::InPlaceAcrossComponents { parent, child }
        | ScheduleViolation::MissingDelivery { parent, child } => {
            vec![parent.to_string(), child.to_string()]
        }
        ScheduleViolation::TransportTiming { task }
        | ScheduleViolation::TransportEndpoints { task } => vec![task.to_string()],
        _ => vec![],
    }
}

fn expected_tokens_sim(v: &SimViolation) -> Vec<String> {
    match *v {
        SimViolation::PathDiscontiguous { task }
        | SimViolation::BadEndpoint { task }
        | SimViolation::WindowOutsideLifetime { task }
        | SimViolation::MissingPath { task }
        | SimViolation::PathMislabelled { task } => vec![task.to_string()],
        SimViolation::PathThroughComponent {
            task,
            cell,
            component,
        } => vec![task.to_string(), cell.to_string(), component.to_string()],
        SimViolation::CellConflict { cell, a, b } => {
            vec![cell.to_string(), a.to_string(), b.to_string()]
        }
        SimViolation::WashGap {
            cell,
            previous,
            next,
        } => vec![cell.to_string(), previous.to_string(), next.to_string()],
        SimViolation::PrecedenceViolation { parent, child } => {
            vec![parent.to_string(), child.to_string()]
        }
        SimViolation::ComponentOverlap { a, b, component } => {
            vec![a.to_string(), b.to_string(), component.to_string()]
        }
        SimViolation::ShapeMismatch { what } => vec![what.to_string()],
        SimViolation::IllegalPlacement => vec![],
        _ => vec![],
    }
}

#[test]
fn every_schedule_violation_variant_displays_its_ids() {
    for v in all_schedule_violations() {
        let text = v.to_string();
        assert!(!text.is_empty());
        for token in expected_tokens_sched(&v) {
            assert!(text.contains(&token), "`{text}` missing `{token}`");
        }
    }
}

#[test]
fn every_sim_violation_variant_displays_its_ids() {
    for v in all_sim_violations() {
        let text = v.to_string();
        assert!(!text.is_empty());
        for token in expected_tokens_sim(&v) {
            assert!(text.contains(&token), "`{text}` missing `{token}`");
        }
    }
}

#[test]
fn every_variant_maps_to_a_registered_rule() {
    let registry = RuleRegistry::with_all_rules();
    for v in all_schedule_violations() {
        let rule = rule_for_schedule_violation(&v);
        assert!(registry.rule(rule).is_some(), "{rule} not registered");
    }
    for v in all_sim_violations() {
        let rule = rule_for_sim_violation(&v);
        assert!(registry.rule(rule).is_some(), "{rule} not registered");
    }
    // The two mapping domains never collide on the schedule/exec split:
    // schedule-time overlap and realized-time overlap are distinct rules.
    let sched = ScheduleViolation::ComponentOverlap {
        a: op(0),
        b: op(1),
        component: comp(0),
    };
    let sim = SimViolation::ComponentOverlap {
        a: op(0),
        b: op(1),
        component: comp(0),
    };
    assert_ne!(
        rule_for_schedule_violation(&sched),
        rule_for_sim_violation(&sim)
    );
}
