//! Exact (branch-and-bound) binding and scheduling for small assays.
//!
//! The paper's Algorithm 1 is a greedy heuristic. For assays of up to a
//! dozen operations, the optimal makespan is computable by exhaustive
//! search over (operation order × component choice), with the same
//! execution semantics as the list scheduler: resident fluids, Case-I
//! in-place consumption, eviction washes, constant transport time.
//!
//! Two uses:
//!
//! * **quality measurement** — how far from optimal is Algorithm 1 on
//!   small instances (exercised by this module's tests and the property
//!   suite);
//! * **semantics cross-check** — this is a second, independent
//!   implementation of the timing rules; if the two disagree on what a
//!   binding implies, a test fails.

use crate::error::SchedError;
use mfb_model::prelude::*;

/// Hard cap on the operation count accepted by [`optimal_makespan`]; the
/// search is factorial and anything larger is a programming error.
pub const MAX_EXACT_OPS: usize = 12;

/// Search state: which fluid sits in each component and when operations
/// finished.
#[derive(Debug, Clone)]
struct State {
    /// Per component: the resident fluid and its production end.
    resident: Vec<Option<(OpId, Instant)>>,
    /// Per op: end time (None = unscheduled).
    end: Vec<Option<Instant>>,
    /// Number of scheduled ops.
    done: usize,
    /// Latest end time so far.
    makespan: Instant,
}

/// Computes the optimal makespan of `graph` on `components` under the
/// workspace's execution semantics, by branch-and-bound.
///
/// # Errors
///
/// [`SchedError::NoComponentForKind`] when some operation kind has no
/// component.
///
/// # Panics
///
/// Panics if the assay has more than [`MAX_EXACT_OPS`] operations.
pub fn optimal_makespan(
    graph: &SequencingGraph,
    components: &ComponentSet,
    wash: &dyn WashModel,
    t_c: Duration,
) -> Result<Duration, SchedError> {
    assert!(
        graph.len() <= MAX_EXACT_OPS,
        "exact search is limited to {MAX_EXACT_OPS} operations, got {}",
        graph.len()
    );
    for op in graph.ops() {
        let kind = ComponentKind::for_operation(op.kind());
        if components.of_kind(kind).next().is_none() {
            return Err(SchedError::NoComponentForKind { op: op.id(), kind });
        }
    }

    // Remaining-work lower bound per op: longest path to the sink
    // (excluding transports, which Case I can eliminate).
    let tail = graph.priority_values(Duration::ZERO);

    let mut best = Duration::from_ticks(u64::MAX);
    let mut state = State {
        resident: vec![None; components.len()],
        end: vec![None; graph.len()],
        done: 0,
        makespan: Instant::ZERO,
    };
    search(graph, components, wash, t_c, &tail, &mut state, &mut best);
    Ok(best)
}

fn search(
    graph: &SequencingGraph,
    components: &ComponentSet,
    wash: &dyn WashModel,
    t_c: Duration,
    tail: &[Duration],
    state: &mut State,
    best: &mut Duration,
) {
    if state.done == graph.len() {
        let span = state.makespan - Instant::ZERO;
        if span < *best {
            *best = span;
        }
        return;
    }

    for op in graph.op_ids() {
        if state.end[op.index()].is_some() {
            continue;
        }
        if !graph
            .parents(op)
            .iter()
            .all(|p| state.end[p.index()].is_some())
        {
            continue; // not ready
        }
        let kind = ComponentKind::for_operation(graph.op(op).kind());
        for c in components.of_kind(kind) {
            let (start, end) = simulate_binding(graph, wash, t_c, state, op, c);
            // Bound: this op's completion plus its successors' remaining
            // work cannot beat the incumbent.
            let bound = (end + (tail[op.index()] - graph.op(op).duration())).max(state.makespan);
            if bound - Instant::ZERO >= *best {
                continue;
            }
            // Apply.
            let saved_resident = state.resident[c.index()];
            let saved_makespan = state.makespan;
            state.resident[c.index()] = Some((op, end));
            state.end[op.index()] = Some(end);
            state.done += 1;
            state.makespan = state.makespan.max(end);

            search(graph, components, wash, t_c, tail, state, best);

            // Undo.
            state.resident[c.index()] = saved_resident;
            state.end[op.index()] = None;
            state.done -= 1;
            state.makespan = saved_makespan;
            let _ = start;
        }
    }
}

/// The timing rules, restated independently of `crate::list`:
/// returns (start, end) of `op` if bound to `c` in `state`.
fn simulate_binding(
    graph: &SequencingGraph,
    wash: &dyn WashModel,
    t_c: Duration,
    state: &State,
    op: OpId,
    c: ComponentId,
) -> (Instant, Instant) {
    let resident = state.resident[c.index()];
    let in_place = match resident {
        Some((fluid, _)) if graph.parents(op).contains(&fluid) => Some(fluid),
        _ => None,
    };
    let comp_ready = match resident {
        Some((fluid, since)) => {
            if in_place == Some(fluid) {
                since
            } else {
                since + wash.wash_time(graph.op(fluid).output_diffusion())
            }
        }
        None => Instant::ZERO,
    };
    let mut inputs = Instant::ZERO;
    for &p in graph.parents(op) {
        let pe = state.end[p.index()].expect("parents scheduled");
        let avail = if in_place == Some(p) { pe } else { pe + t_c };
        inputs = inputs.max(avail);
    }
    let start = comp_ready.max(inputs);
    (start, start + graph.op(op).duration())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{schedule, SchedulerConfig};

    fn wash() -> LogLinearWash {
        LogLinearWash::paper_calibrated()
    }

    /// The list scheduler's makespan on an undamaged chip.
    fn list_makespan(g: &SequencingGraph, comps: &ComponentSet, cfg: &SchedulerConfig) -> Duration {
        let s = schedule(g, comps, &wash(), cfg, &DefectMap::pristine()).unwrap();
        s.completion_time() - Instant::ZERO
    }

    fn d_wash(secs: f64) -> DiffusionCoefficient {
        wash().coefficient_for(Duration::from_secs_f64(secs))
    }

    fn t_c() -> Duration {
        Duration::from_secs(2)
    }

    #[test]
    fn single_op_is_its_duration() {
        let mut b = SequencingGraph::builder();
        b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let opt = optimal_makespan(&g, &comps, &wash(), t_c()).unwrap();
        assert_eq!(opt, Duration::from_secs(5));
    }

    #[test]
    fn chain_exploits_case1() {
        // mix -> mix on one mixer: optimal chains in place, no t_c.
        let mut b = SequencingGraph::builder();
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(6.0));
        let o1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d_wash(2.0));
        b.edge(o0, o1).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let opt = optimal_makespan(&g, &comps, &wash(), t_c()).unwrap();
        assert_eq!(opt, Duration::from_secs(9));
    }

    #[test]
    fn heuristic_matches_optimal_on_paper_style_fork() {
        // Two parents, one child: the child should reuse the
        // hardest-to-wash parent's mixer.
        let mut b = SequencingGraph::builder();
        let easy = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let hard = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(8.0));
        let child = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(2.0));
        b.edge(easy, child).unwrap();
        b.edge(hard, child).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 0, 0, 0).instantiate(&ComponentLibrary::default());

        let opt = optimal_makespan(&g, &comps, &wash(), t_c()).unwrap();
        let heur = list_makespan(&g, &comps, &SchedulerConfig::paper_dcsa());
        assert_eq!(heur, opt, "heuristic should be optimal here");
        assert_eq!(opt, Duration::from_secs(10)); // 5 + t_c .. merge at 7..10
    }

    #[test]
    fn heuristic_never_beats_optimal() {
        // Random small assays: list scheduling >= optimal, always.
        use mfb_model::prelude::OperationKind::*;
        let kinds = [Mix, Mix, Heat, Mix, Detect, Mix, Heat];
        for seed in 0..12u64 {
            let mut b = SequencingGraph::builder();
            let n = 4 + (seed as usize % 4);
            let ids: Vec<OpId> = (0..n)
                .map(|i| {
                    b.operation(
                        kinds[(i + seed as usize) % kinds.len()],
                        Duration::from_secs(2 + ((i as u64 + seed) % 4)),
                        d_wash(0.2 + ((seed + i as u64) % 5) as f64 * 2.0),
                    )
                })
                .collect();
            // Sparse forward edges.
            for i in 0..n {
                for j in (i + 1)..n {
                    if (seed + (i * 31 + j * 17) as u64) % 3 == 0 {
                        let _ = b.edge(ids[i], ids[j]);
                    }
                }
            }
            let g = b.build().unwrap();
            let comps = Allocation::new(2, 1, 0, 1).instantiate(&ComponentLibrary::default());
            let opt = optimal_makespan(&g, &comps, &wash(), t_c()).unwrap();
            let heur = list_makespan(&g, &comps, &SchedulerConfig::paper_dcsa());
            assert!(
                heur >= opt,
                "seed {seed}: heuristic {heur} beat 'optimal' {opt} — semantics bug"
            );
            assert!(
                heur.as_secs_f64() <= opt.as_secs_f64() * 1.5 + 4.0,
                "seed {seed}: heuristic {heur} too far from optimal {opt}"
            );
        }
    }

    #[test]
    fn baseline_is_at_least_as_far_from_optimal() {
        let mut b = SequencingGraph::builder();
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(6.0));
        let o1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d_wash(2.0));
        let o2 = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(2.0));
        b.chain(&[o0, o1, o2]).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let opt = optimal_makespan(&g, &comps, &wash(), t_c()).unwrap();
        let ours = list_makespan(&g, &comps, &SchedulerConfig::paper_dcsa());
        let ba = list_makespan(&g, &comps, &SchedulerConfig::paper_baseline());
        assert_eq!(ours, opt, "chains are Case-I's best case");
        assert!(ba >= ours);
    }

    #[test]
    #[should_panic(expected = "exact search is limited")]
    fn rejects_large_graphs() {
        let mut b = SequencingGraph::builder();
        for _ in 0..(MAX_EXACT_OPS + 1) {
            b.operation(OperationKind::Mix, Duration::from_secs(1), d_wash(1.0));
        }
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let _ = optimal_makespan(&g, &comps, &wash(), t_c());
    }

    #[test]
    fn missing_kind_errors() {
        let mut b = SequencingGraph::builder();
        b.operation(OperationKind::Filter, Duration::from_secs(1), d_wash(1.0));
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        assert!(optimal_makespan(&g, &comps, &wash(), t_c()).is_err());
    }
}
