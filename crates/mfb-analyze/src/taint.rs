//! Contamination-taint analysis: `ANA-TAINT-001`, `ANA-TAINT-002` and
//! `ANA-WASH-001`.
//!
//! A fluid plug leaves residue in every channel cell it touches, and the
//! residue stays contaminating until a wash completes (§II-B of the
//! paper). The analysis models this as taint: residue of fluid `F` in cell
//! `c` is *live* over `[window.end, window.end + wash_time(F))`, and any
//! different fluid occupying `c` while either the plug itself or its
//! residue is live picks the taint up (`ANA-TAINT-001`). This is a strict
//! superset of the replay engine's conflict classes: replay checks
//! overlapping pairs and *consecutive* wash gaps; taint checks every
//! ordered pair against the residue horizon.
//!
//! Picked-up taint then *flows*: the contaminated plug delivers to its
//! consumer, the consumer's output fluid carries the contaminant onward,
//! and later transports of that output spread it further. The provenance
//! fixpoint (over the powerset-of-operations lattice, union join) computes
//! where each operation's residue can reach; an operation whose provenance
//! contains a non-ancestor is flagged with a witness chain
//! (`ANA-TAINT-002`). Finally, wash feasibility is checked against the
//! routed wash plan: a taint kill the planner could not realize as a
//! buffer flush is reported as `ANA-WASH-001`.

use crate::engine::fixpoint_sets;
use mfb_model::prelude::*;
use mfb_sched::prelude::FluidDelivery;
use mfb_sim::prelude::{CellUse, OccupancyIr};
use mfb_verify::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub(crate) const RULE_TAINT: &str = "ANA-TAINT-001";
pub(crate) const RULE_CHAIN: &str = "ANA-TAINT-002";
pub(crate) const RULE_WASH: &str = "ANA-WASH-001";

/// One residue hand-off on a shared cell: `to` picks up `from`'s fluid.
/// When both plugs are present at once (`mixed`) the taint flows both
/// ways.
struct HandOff<'o> {
    from: &'o CellUse,
    to: &'o CellUse,
    cell: CellPos,
    /// When the hand-off happens: the overlap of the two windows, or the
    /// part of `to`'s window before `from`'s residue is washed out.
    window: Interval,
    mixed: bool,
}

/// Every ordered pair of different-fluid uses of a cell where the later
/// one meets the earlier one's plug or unwashed residue.
fn hand_offs(occupancy: &OccupancyIr) -> Vec<HandOff<'_>> {
    let mut found = Vec::new();
    for (cell, uses) in occupancy.cells() {
        for i in 0..uses.len() {
            for j in (i + 1)..uses.len() {
                let (a, b) = (&uses[i], &uses[j]);
                if a.fluid == b.fluid {
                    continue; // aliquots of one plug: no contamination
                }
                if a.window.overlaps(b.window) {
                    // Conflict class 1–2: both plugs present at once; the
                    // mixing contaminates both directions.
                    let window = Interval::new(
                        a.window.start.max(b.window.start),
                        a.window.end.min(b.window.end),
                    );
                    found.push(HandOff {
                        from: a,
                        to: b,
                        cell,
                        window,
                        mixed: true,
                    });
                } else if a.window.end <= b.window.start && a.clean_at > b.window.start {
                    // Uses are start-sorted, so the disjoint case has `a`
                    // strictly first: `b` drives through `a`'s residue.
                    let end = a.clean_at.min(b.window.end).max(b.window.start);
                    found.push(HandOff {
                        from: a,
                        to: b,
                        cell,
                        window: Interval::new(b.window.start, end),
                        mixed: false,
                    });
                }
            }
        }
    }
    found
}

/// `ANA-TAINT-001`: one finding per residue hand-off.
pub(crate) fn residual_contamination(
    occupancy: &OccupancyIr,
    _input: &VerifyInput<'_>,
) -> Vec<Diagnostic> {
    let found = hand_offs(occupancy);
    let edges: usize = found.iter().map(|h| if h.mixed { 2 } else { 1 }).sum();
    mfb_obs::obs_counter!("analyze.taint_edges", edges as u64);
    found
        .iter()
        .map(|h| {
            let (a, b, cell) = (h.from, h.to, h.cell);
            let message = if h.mixed {
                format!(
                    "plugs of {} ({}) and {} ({}) occupy cell {} at overlapping times",
                    a.fluid, a.task, b.fluid, b.task, cell
                )
            } else {
                format!(
                    "residue of {} ({}) in cell {} is not washed before {} ({}) \
                     passes through",
                    a.fluid, a.task, cell, b.fluid, b.task
                )
            };
            Diagnostic {
                rule: RULE_TAINT.into(),
                severity: Severity::Error,
                message,
                location: Location::Cell(cell),
                window: Some(h.window),
            }
        })
        .collect()
}

/// `ANA-TAINT-002`: operations whose provenance fixpoint escapes its
/// legitimate seeds, each with a witness chain.
pub(crate) fn contamination_chains(
    occupancy: &OccupancyIr,
    input: &VerifyInput<'_>,
) -> Vec<Diagnostic> {
    let n_tasks = input.schedule.transports().len();
    let n_ops = input.graph.len();
    let n_nodes = n_tasks + n_ops;
    let node_of_task = |t: TaskId| t.index();
    let node_of_op = |o: OpId| n_tasks + o.index();

    // ---- Taint edges: residue hand-offs between tasks on shared cells.
    //
    // Edges carry the provenance flow of the fixpoint below. `labels`
    // remembers the smallest (cell, window) evidence per node pair for
    // witness rendering.
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    let mut labels: BTreeMap<(usize, usize), (CellPos, Interval)> = BTreeMap::new();
    let mut add_edge = |from: TaskId, to: TaskId, evidence: (CellPos, Interval)| {
        let (from, to) = (node_of_task(from), node_of_task(to));
        successors[from].push(to);
        labels
            .entry((from, to))
            .and_modify(|e| *e = (*e).min(evidence))
            .or_insert(evidence);
    };
    for h in hand_offs(occupancy) {
        add_edge(h.from.task, h.to.task, (h.cell, h.window));
        if h.mixed {
            add_edge(h.to.task, h.from.task, (h.cell, h.window));
        }
    }

    // ---- Provenance fixpoint.
    //
    // Seed every node with its *legitimate* provenance (the fluid it is
    // supposed to contain: the producing op and all its assay ancestors),
    // then close over the flow edges. Without taint edges the closure
    // stays inside the seeds — delivery edges only ever move a provenance
    // set into a descendant whose legitimate set already contains it — so
    // ANA-TAINT-002 can only fire downstream of an ANA-TAINT-001.
    let legit = legitimate_sets(input.graph);
    let mut seeds: Vec<BTreeSet<OpId>> = vec![BTreeSet::new(); n_nodes];
    for o in input.graph.op_ids() {
        seeds[node_of_op(o)] = legit[o.index()].clone();
    }
    for t in input.schedule.transports() {
        seeds[node_of_task(t.id)] = legit[t.fluid.index()].clone();
        // Pickup: the task carries whatever ended up in its fluid's
        // producing op; delivery: the consumer receives whatever the task
        // picked up on the way.
        successors[node_of_op(t.fluid)].push(node_of_task(t.id));
        successors[node_of_task(t.id)].push(node_of_op(t.consumer));
    }
    for &(parent, child, delivery) in input.schedule.deliveries() {
        if matches!(delivery, FluidDelivery::InPlace) {
            successors[node_of_op(parent)].push(node_of_op(child));
        }
    }
    for list in &mut successors {
        list.sort_unstable();
        list.dedup();
    }
    let state = fixpoint_sets(seeds.clone(), &successors);

    let mut diagnostics = Vec::new();
    for o in input.graph.op_ids() {
        let contaminants: Vec<OpId> = state[node_of_op(o)]
            .difference(&legit[o.index()])
            .copied()
            .collect();
        let Some(&first) = contaminants.first() else {
            continue;
        };
        let chain = witness_chain(&seeds, &successors, &labels, first, node_of_op(o), n_tasks);
        let listed = contaminants
            .iter()
            .take(4)
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let more = contaminants.len().saturating_sub(4);
        diagnostics.push(Diagnostic {
            rule: RULE_CHAIN.into(),
            severity: Severity::Error,
            message: format!(
                "operation {o} can receive residue of non-ancestor {listed}{} via {chain}",
                if more > 0 {
                    format!(" (+{more} more)")
                } else {
                    String::new()
                },
            ),
            location: Location::Op(o),
            window: None,
        });
    }
    diagnostics
}

/// `ANA-WASH-001`: taint kills the routed wash plan could not realize.
pub(crate) fn unrealizable_kills(
    _occupancy: &OccupancyIr,
    input: &VerifyInput<'_>,
) -> Vec<Diagnostic> {
    input
        .wash_plan()
        .into_iter()
        .flat_map(|plan| &plan.unplanned)
        .map(|w| Diagnostic {
            rule: RULE_WASH.into(),
            severity: Severity::Warning,
            message: format!(
                "taint kill assumed before {}: residue of {} in cell {} has no feasible \
                 buffer flush ({} needed)",
                w.task, w.residue, w.cell, w.duration
            ),
            location: Location::Cell(w.cell),
            window: None,
        })
        .collect()
}

/// `legit[o] = {o} ∪ ancestors(o)`: everything allowed to appear in `o`'s
/// provenance. Computed in one topological pass.
fn legitimate_sets(graph: &SequencingGraph) -> Vec<BTreeSet<OpId>> {
    let mut legit: Vec<BTreeSet<OpId>> = vec![BTreeSet::new(); graph.len()];
    for &o in graph.topological_order() {
        let mut set = BTreeSet::new();
        for &p in graph.parents(o) {
            set.extend(legit[p.index()].iter().copied());
        }
        set.insert(o);
        legit[o.index()] = set;
    }
    legit
}

/// Shortest flow chain carrying contaminant `z` into `target`, rendered
/// like `o2 -> tk1 -[cell (3,4)]-> tk4 -> o5`. Deterministic: BFS from all
/// `z`-seeded nodes in index order, neighbours visited ascending.
fn witness_chain(
    seeds: &[BTreeSet<OpId>],
    successors: &[Vec<usize>],
    labels: &BTreeMap<(usize, usize), (CellPos, Interval)>,
    z: OpId,
    target: usize,
    n_tasks: usize,
) -> String {
    let name = |node: usize| {
        if node < n_tasks {
            TaskId::new(node as u32).to_string()
        } else {
            OpId::new((node - n_tasks) as u32).to_string()
        }
    };
    let mut parent: Vec<Option<usize>> = vec![None; seeds.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut seen = vec![false; seeds.len()];
    for (node, seed) in seeds.iter().enumerate() {
        if seed.contains(&z) {
            seen[node] = true;
            queue.push_back(node);
        }
    }
    while let Some(u) = queue.pop_front() {
        if u == target {
            let mut nodes = vec![u];
            let mut cur = u;
            while let Some(p) = parent[cur] {
                nodes.push(p);
                cur = p;
            }
            nodes.reverse();
            let mut out = name(nodes[0]);
            for pair in nodes.windows(2) {
                match labels.get(&(pair[0], pair[1])) {
                    Some(&(cell, _)) => {
                        out.push_str(&format!(" -[cell {cell}]-> {}", name(pair[1])));
                    }
                    None => out.push_str(&format!(" -> {}", name(pair[1]))),
                }
            }
            return out;
        }
        for &v in &successors[u] {
            if v < seen.len() && !seen[v] {
                seen[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    // `z` is in target's fixpoint state, so a chain always exists; this
    // arm only guards against inconsistent inputs.
    format!("unknown chain for {z}")
}
