//! Storage-liveness analysis: `ANA-STORE-001` and `ANA-STORE-002`.
//!
//! Distributed channel storage gives every cached fluid a *live range* —
//! the dwell `[arrive, consumed_at)` over its parked cells. Two liveness
//! properties must hold for the storage plan to be executable:
//!
//! 1. **Exclusive residency** (`ANA-STORE-001`): two different stored
//!    fluids must never be live in the same channel cell at once. The
//!    check intersects every pair of storage segments' parked footprints.
//! 2. **Acyclic release order** (`ANA-STORE-002`): a stored plug is
//!    released only when its consumer starts, and the consumer starts only
//!    when *all* its inputs have arrived. If task `A`'s parked plug sits
//!    on task `B`'s route while `B` delivers another input of `A`'s
//!    consumer (directly or transitively), nobody can move: a storage
//!    deadlock. The check builds the waits-for graph — *release-waits*
//!    edges from a stored task to every co-input transport of its
//!    consumer, *blocked-by* edges from a task whose route crosses a live
//!    parked cell to the storing task — and reports every strongly
//!    connected component of size ≥ 2.

use crate::engine::strongly_connected_components;
use mfb_model::prelude::*;
use mfb_sim::prelude::OccupancyIr;
use mfb_verify::prelude::*;
use std::collections::BTreeSet;

pub(crate) const RULE_OVERLAP: &str = "ANA-STORE-001";
pub(crate) const RULE_DEADLOCK: &str = "ANA-STORE-002";

/// `ANA-STORE-001`: overlapping storage residency.
pub(crate) fn storage_overlap(
    occupancy: &OccupancyIr,
    _input: &VerifyInput<'_>,
) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let segments = occupancy.storage();
    for i in 0..segments.len() {
        for j in (i + 1)..segments.len() {
            let (a, b) = (&segments[i], &segments[j]);
            if a.fluid == b.fluid {
                continue;
            }
            // First shared cell in path order is the reported witness;
            // both lists are small (plug length, typically 1–3 cells).
            let clash = a.cells.iter().find_map(|&(ca, wa)| {
                b.cells
                    .iter()
                    .find(|&&(cb, wb)| ca == cb && wa.overlaps(wb))
                    .map(|&(_, wb)| (ca, wa, wb))
            });
            if let Some((cell, wa, wb)) = clash {
                let overlap = Interval::new(wa.start.max(wb.start), wa.end.min(wb.end));
                diagnostics.push(Diagnostic {
                    rule: RULE_OVERLAP.into(),
                    severity: Severity::Error,
                    message: format!(
                        "stored plugs of {} ({}) and {} ({}) overlap in channel cell {}",
                        a.fluid, a.task, b.fluid, b.task, cell
                    ),
                    location: Location::Cell(cell),
                    window: Some(overlap),
                });
            }
        }
    }

    diagnostics
}

/// `ANA-STORE-002`: cycles in the waits-for graph.
pub(crate) fn storage_deadlock(
    occupancy: &OccupancyIr,
    input: &VerifyInput<'_>,
) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let segments = occupancy.storage();
    let n_tasks = input.schedule.transports().len();
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n_tasks];

    // Release-waits: a stored task cannot release until every co-input
    // transport of its consumer has arrived.
    for seg in segments {
        for other in input.schedule.transports() {
            if other.id != seg.task && other.consumer == seg.consumer {
                successors[seg.task.index()].push(other.id.index());
            }
        }
    }
    // Blocked-by: a task whose route needs a cell while a stored plug of a
    // different fluid is live there waits for that plug's release.
    let mut blocking_cells: Vec<(usize, usize, CellPos)> = Vec::new();
    for seg in segments {
        for &(cell, parked) in &seg.cells {
            for use_ in occupancy.cell(cell) {
                if use_.task == seg.task || use_.fluid == seg.fluid {
                    continue;
                }
                if use_.window.overlaps(parked) && use_.window.overlaps(seg.cache) {
                    successors[use_.task.index()].push(seg.task.index());
                    blocking_cells.push((use_.task.index(), seg.task.index(), cell));
                }
            }
        }
    }
    for list in &mut successors {
        list.sort_unstable();
        list.dedup();
    }

    for component in strongly_connected_components(&successors) {
        if component.len() < 2 {
            continue;
        }
        let members: BTreeSet<usize> = component.iter().copied().collect();
        let names = component
            .iter()
            .map(|&t| TaskId::new(t as u32).to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let mut cells: Vec<CellPos> = blocking_cells
            .iter()
            .filter(|(from, to, _)| members.contains(from) && members.contains(to))
            .map(|&(_, _, c)| c)
            .collect();
        // Two stored co-inputs of one consumer wait on each other's
        // *arrival* — a benign SCC unless some route is also physically
        // blocked. A real deadlock cycle passes through a blocked-by
        // edge: its presence inside the SCC implies a closing path back,
        // hence a cycle that can never resolve.
        if cells.is_empty() {
            continue;
        }
        cells.sort_unstable();
        cells.dedup();
        let at = cells
            .iter()
            .take(3)
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let window = segments
            .iter()
            .filter(|s| members.contains(&s.task.index()))
            .map(|s| s.cache)
            .reduce(Interval::hull);
        diagnostics.push(Diagnostic {
            rule: RULE_DEADLOCK.into(),
            severity: Severity::Error,
            message: format!(
                "storage deadlock: tasks {names} form a waits-for cycle{}",
                if at.is_empty() {
                    String::new()
                } else {
                    format!(" (stored plugs block routes at {at})")
                }
            ),
            location: Location::Task(TaskId::new(component[0] as u32)),
            window,
        });
    }

    diagnostics
}
