//! Valve-conflict analysis: `ANA-VALVE-001`.
//!
//! The control layer steers flows by opening and closing microvalves at
//! channel junctions (see `mfb-control`'s [`ValveNetwork`]). A routed
//! solution implies, for every junction valve — the gate on one incident
//! edge `(junction, neighbour)` — a set of *open* requirements (some task
//! traverses that edge during a window) and a set of *close* requirements
//! (a different flow passes the junction on other branches, or a plug is
//! parked behind the valve and must stay isolated). If one valve must be
//! simultaneously open for one fluid and closed for another, no control
//! sequence can execute the plan; that is a valve conflict.
//!
//! Requirements of the same task or the same fluid never conflict — a
//! plug splitting at a junction is physically one flow.

use mfb_control::ValveNetwork;
use mfb_model::prelude::*;
use mfb_sim::prelude::OccupancyIr;
use mfb_verify::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

pub(crate) const RULE_VALVE: &str = "ANA-VALVE-001";

/// One requirement on a valve: `task` (carrying `fluid`) needs it in a
/// fixed state over `window`.
#[derive(Debug, Clone, Copy)]
struct Demand {
    task: TaskId,
    fluid: OpId,
    window: Interval,
}

/// `ANA-VALVE-001` over the shared occupancy model.
pub(crate) fn valve_conflicts(occupancy: &OccupancyIr, input: &VerifyInput<'_>) -> Vec<Diagnostic> {
    let network = ValveNetwork::build(input.routing, input.placement);
    mfb_obs::obs_counter!("analyze.junctions", network.junction_count() as u64);

    // Valve key: (junction, gated neighbour). BTreeMap keeps the report
    // order deterministic; demand lists inherit path/segment order.
    let mut opens: BTreeMap<(CellPos, CellPos), Vec<Demand>> = BTreeMap::new();
    let mut closes: BTreeMap<(CellPos, CellPos), Vec<Demand>> = BTreeMap::new();

    for path in &input.routing.paths {
        let n = path.cells.len().min(path.windows.len());
        for i in 0..n {
            let cell = path.cells[i];
            if !network.is_junction(cell) {
                continue;
            }
            let window = path.windows[i];
            let mut used: BTreeSet<CellPos> = BTreeSet::new();
            for step in [i.wrapping_sub(1), i + 1] {
                let Some(&nb) = (step < n).then(|| &path.cells[step]) else {
                    continue;
                };
                if nb == cell {
                    continue;
                }
                used.insert(nb);
                // The valve on the traversed edge is open while the plug
                // crosses: the shared part of both cells' windows.
                let w = path.windows[step];
                if window.overlaps(w) {
                    let open = Interval::new(window.start.max(w.start), window.end.min(w.end));
                    opens.entry((cell, nb)).or_default().push(Demand {
                        task: path.task,
                        fluid: path.fluid,
                        window: open,
                    });
                }
            }
            // Every other branch of the junction is held closed while the
            // plug is present, so the flow cannot fork.
            for nb in network.channel_neighbours(cell) {
                if !used.contains(&nb) {
                    closes.entry((cell, nb)).or_default().push(Demand {
                        task: path.task,
                        fluid: path.fluid,
                        window,
                    });
                }
            }
        }
    }

    // Parked-plug isolation: while a fluid is cached, every junction valve
    // facing its parked cells is closed so the plug cannot drift.
    for seg in occupancy.storage() {
        for &(cell, parked) in &seg.cells {
            let dwell = seg.cache;
            if !parked.overlaps(dwell) {
                continue;
            }
            let hold = Interval::new(parked.start.max(dwell.start), parked.end.min(dwell.end));
            let demand = Demand {
                task: seg.task,
                fluid: seg.fluid,
                window: hold,
            };
            for nb in network.channel_neighbours(cell) {
                if network.is_junction(nb) {
                    closes.entry((nb, cell)).or_default().push(demand);
                }
                if network.is_junction(cell) {
                    closes.entry((cell, nb)).or_default().push(demand);
                }
            }
        }
    }

    let mut diagnostics = Vec::new();
    let mut reported: BTreeSet<(CellPos, CellPos, TaskId, TaskId)> = BTreeSet::new();
    for (&(junction, neighbour), open_list) in &opens {
        let Some(close_list) = closes.get(&(junction, neighbour)) else {
            continue;
        };
        for open in open_list {
            for close in close_list {
                if open.task == close.task
                    || open.fluid == close.fluid
                    || !open.window.overlaps(close.window)
                {
                    continue;
                }
                if !reported.insert((junction, neighbour, open.task, close.task)) {
                    continue;
                }
                let clash = Interval::new(
                    open.window.start.max(close.window.start),
                    open.window.end.min(close.window.end),
                );
                diagnostics.push(Diagnostic {
                    rule: RULE_VALVE.into(),
                    severity: Severity::Error,
                    message: format!(
                        "valve {junction}-{neighbour} must be open for {} ({}) and closed \
                         for {} ({}) at the same time",
                        open.task, open.fluid, close.task, close.fluid
                    ),
                    location: Location::Cell(junction),
                    window: Some(clash),
                });
            }
        }
    }
    diagnostics
}
