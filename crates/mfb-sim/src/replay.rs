//! The replay engine: checks every physical rule of a complete solution
//! against the chip's occupancy model, behind the input guard all
//! checkers share.

use crate::occupancy::OccupancyIr;
use crate::stats::SimStats;
use crate::violation::SimViolation;
use mfb_model::prelude::*;
use mfb_place::prelude::Placement;
use mfb_route::prelude::Routing;
use mfb_sched::prelude::{FluidDelivery, Schedule};

/// The outcome of replaying a solution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Everything that went wrong; empty means the solution is physically
    /// executable.
    pub violations: Vec<SimViolation>,
    /// Activity statistics gathered during the replay.
    pub stats: SimStats,
}

impl SimReport {
    /// `true` when the replay found no violations.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replays the complete solution `(schedule, placement, routing)` for
/// `graph` on `components` and checks, independently of how the solution
/// was produced:
///
/// * artifact shape ([`shape_problems`]; a rejected input is reported and
///   checked no further);
/// * placement legality;
/// * path integrity (task and fluid labels, contiguity, endpoints on the
///   right component boundaries, no traversal of component interiors);
/// * the three transportation-conflict classes of §II-C.2, cell by cell
///   over the [`OccupancyIr`];
/// * fluid lifetimes (channel occupancy between producer end and consumer
///   start, under the routing's *realized* times);
/// * operation precedence and component exclusivity under realized times.
///
/// The checks share no code with the schedulers or routers — this is the
/// cross-check that catches bugs in either.
pub fn replay(
    graph: &SequencingGraph,
    components: &ComponentSet,
    schedule: &Schedule,
    placement: &Placement,
    routing: &Routing,
    wash: &dyn WashModel,
) -> SimReport {
    let problems = shape_problems(graph, components, schedule, placement, routing);
    if !problems.is_empty() {
        return SimReport {
            violations: problems
                .into_iter()
                .map(|what| SimViolation::ShapeMismatch { what })
                .collect(),
            stats: SimStats {
                makespan: Duration::ZERO,
                peak_parallel_transports: 0,
                realized_cache_time: Duration::ZERO,
                channel_occupancy: Duration::ZERO,
                used_cells: 0,
            },
        };
    }

    let mut violations = Vec::new();
    if !placement.is_legal() {
        violations.push(SimViolation::IllegalPlacement);
    }

    check_paths(schedule, placement, routing, &mut violations);
    let occupancy = OccupancyIr::build(graph, schedule, placement.grid(), routing, wash);
    check_conflicts(&occupancy, &mut violations);
    check_lifetimes(schedule, routing, &mut violations);
    check_operations(graph, components, schedule, routing, &mut violations);

    let stats = SimStats::collect(schedule, routing, &occupancy);
    SimReport { violations, stats }
}

/// The one input guard of every checker: the reasons the artifacts do not
/// describe one consistent problem instance, empty when they do.
///
/// An accepted input has matching counts (operations, realized times,
/// components, transports, and cells against windows on every path),
/// resolving cross-references (bindings, transport, delivery, wash, path
/// and channel-wash ids) and every routed cell on the grid, so no checker
/// indexes out of range. [`replay`] reports each reason as a
/// [`SimViolation::ShapeMismatch`] and stops there.
pub fn shape_problems(
    graph: &SequencingGraph,
    components: &ComponentSet,
    schedule: &Schedule,
    placement: &Placement,
    routing: &Routing,
) -> Vec<&'static str> {
    let n_ops = graph.len();
    let n_comps = components.len();
    let n_tasks = schedule.transports().len();
    let op = |o: OpId| o.index() < n_ops;
    let comp = |c: ComponentId| c.index() < n_comps;
    let task = |t: TaskId| t.index() < n_tasks;
    let mut problems = Vec::new();
    if schedule.ops().len() != n_ops {
        problems.push("operation count");
    }
    if routing.realized.start.len() != n_ops || routing.realized.end.len() != n_ops {
        problems.push("realized-time vector length");
    }
    if placement.len() != n_comps {
        problems.push("component count");
    }
    if routing.paths.len() != n_tasks {
        problems.push("transport count");
    }
    if schedule.ops().any(|s| !op(s.op) || !comp(s.component))
        || schedule
            .transports()
            .any(|t| !task(t.id) || !op(t.fluid) || !op(t.consumer) || !comp(t.src) || !comp(t.dst))
        || schedule.washes().any(|w| !comp(w.component))
        || schedule.deliveries().any(|&(p, c, d)| {
            !op(p) || !op(c) || matches!(d, FluidDelivery::Transported(t) if !task(t))
        })
        || routing.paths.iter().any(|p| !task(p.task) || !op(p.fluid))
        || routing
            .channel_washes
            .iter()
            .any(|w| !task(w.task) || !op(w.residue))
    {
        problems.push("id out of range");
    }
    if routing
        .paths
        .iter()
        .any(|p| p.cells.len() != p.windows.len())
    {
        problems.push("path cell/window count");
    }
    let grid = placement.grid();
    if routing
        .paths
        .iter()
        .flat_map(|p| p.cells.iter().copied())
        .chain(routing.channel_washes.iter().map(|w| w.cell))
        .any(|c| !grid.contains(c))
    {
        problems.push("routed cell off grid");
    }
    problems
}

/// Path integrity: every transport has a path labelled with its own task
/// and fluid, contiguous from its source component's boundary to its
/// destination's, avoiding all interiors.
fn check_paths(
    schedule: &Schedule,
    placement: &Placement,
    routing: &Routing,
    violations: &mut Vec<SimViolation>,
) {
    for t in schedule.transports() {
        let path = &routing.paths[t.id.index()];
        if path.task != t.id || path.fluid != t.fluid {
            violations.push(SimViolation::PathMislabelled { task: t.id });
        }
        if path.is_empty() {
            violations.push(SimViolation::MissingPath { task: t.id });
            continue;
        }
        for w in path.cells.windows(2) {
            // Remote parking splices two legs; a repeated cell (distance 0)
            // at the splice is physically a U-turn and acceptable.
            if w[0].manhattan(w[1]) > 1 {
                violations.push(SimViolation::PathDiscontiguous { task: t.id });
                break;
            }
        }
        let grid = placement.grid();
        for &cell in &path.cells {
            for (i, &rect) in placement.rects().iter().enumerate() {
                if rect.contains(cell) {
                    violations.push(SimViolation::PathThroughComponent {
                        task: t.id,
                        cell,
                        component: ComponentId::new(i as u32),
                    });
                }
            }
        }
        // Endpoints must be orthogonally adjacent to their component
        // (a diagonal corner cell is not a port connection).
        let touches = |c: ComponentId, cell: CellPos| {
            let rect = placement.rect(c);
            !rect.contains(cell)
                && cell
                    .neighbours(grid.width, grid.height)
                    .any(|nb| rect.contains(nb))
        };
        let first = path.cells[0];
        let last = *path.cells.last().expect("non-empty");
        if !touches(t.src, first) || !touches(t.dst, last) {
            violations.push(SimViolation::BadEndpoint { task: t.id });
        }
    }
}

/// Conflict classes 1–3 on every cell.
fn check_conflicts(occupancy: &OccupancyIr, violations: &mut Vec<SimViolation>) {
    for (cell, uses) in occupancy.cells() {
        for i in 0..uses.len() {
            for j in (i + 1)..uses.len() {
                let (a, b) = (&uses[i], &uses[j]);
                if a.fluid == b.fluid {
                    continue; // same fluid: splitting plug, no contamination
                }
                if a.window.overlaps(b.window) {
                    violations.push(SimViolation::CellConflict {
                        cell,
                        a: a.task,
                        b: b.task,
                    });
                } else if j == i + 1 {
                    // Ordered pair: the earlier residue must wash out
                    // before the later fluid arrives. Only consecutive
                    // pairs matter — an intermediate occupancy implies an
                    // intermediate wash, which only relaxes the
                    // requirement — so others are skipped to avoid false
                    // positives.
                    let (first, second) = if a.window.end <= b.window.start {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    if first.clean_at > second.window.start {
                        violations.push(SimViolation::WashGap {
                            cell,
                            previous: first.task,
                            next: second.task,
                        });
                    }
                }
            }
        }
    }
}

/// Channel occupancies stay within each fluid's lifetime.
fn check_lifetimes(schedule: &Schedule, routing: &Routing, violations: &mut Vec<SimViolation>) {
    for t in schedule.transports() {
        let path = &routing.paths[t.id.index()];
        if path.is_empty() {
            continue;
        }
        let hull = path.window_hull();
        let produced = routing.realized.end[t.fluid.index()];
        let consumed = routing.realized.start[t.consumer.index()];
        if hull.start < produced || hull.end > consumed {
            violations.push(SimViolation::WindowOutsideLifetime { task: t.id });
        }
    }
}

/// Precedence and component exclusivity under realized times.
fn check_operations(
    graph: &SequencingGraph,
    components: &ComponentSet,
    schedule: &Schedule,
    routing: &Routing,
    violations: &mut Vec<SimViolation>,
) {
    let start = &routing.realized.start;
    let end = &routing.realized.end;
    for &(parent, child, delivery) in schedule.deliveries() {
        let earliest = match delivery {
            FluidDelivery::InPlace => end[parent.index()],
            FluidDelivery::Transported(_) => end[parent.index()] + schedule.t_c,
        };
        if start[child.index()] < earliest {
            violations.push(SimViolation::PrecedenceViolation { parent, child });
        }
    }
    for c in components.ids() {
        let mut on_c: Vec<OpId> = graph
            .op_ids()
            .filter(|&o| schedule.binding(o) == c)
            .collect();
        on_c.sort_by_key(|&o| start[o.index()]);
        for pair in on_c.windows(2) {
            let a = Interval::new(start[pair[0].index()], end[pair[0].index()]);
            let b = Interval::new(start[pair[1].index()], end[pair[1].index()]);
            if a.overlaps(b) {
                violations.push(SimViolation::ComponentOverlap {
                    a: pair[0],
                    b: pair[1],
                    component: c,
                });
            }
        }
    }
}

/// Convenience alias used by tests and examples.
pub fn validate_solution(
    graph: &SequencingGraph,
    components: &ComponentSet,
    schedule: &Schedule,
    placement: &Placement,
    routing: &Routing,
    wash: &dyn WashModel,
) -> Vec<SimViolation> {
    replay(graph, components, schedule, placement, routing, wash).violations
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use mfb_place::prelude::*;
    use mfb_route::prelude::*;
    use mfb_sched::prelude::*;

    /// A small but non-trivial solved instance: two mix chains joining in a
    /// detect, solved end to end with the paper flow.
    pub fn solved_instance() -> (
        SequencingGraph,
        ComponentSet,
        Schedule,
        Placement,
        Routing,
        LogLinearWash,
    ) {
        let wash = LogLinearWash::paper_calibrated();
        let d = |s: f64| wash.coefficient_for(Duration::from_secs_f64(s));
        let mut b = SequencingGraph::builder();
        let m0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d(6.0));
        let m1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d(2.0));
        let m2 = b.operation(OperationKind::Mix, Duration::from_secs(4), d(3.0));
        let dt = b.operation(OperationKind::Detect, Duration::from_secs(4), d(0.2));
        b.edge(m0, m2).unwrap();
        b.edge(m1, m2).unwrap();
        b.edge(m2, dt).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 0, 0, 1).instantiate(&ComponentLibrary::default());
        let (pristine, budget) = (DefectMap::pristine(), Budget::unlimited());
        let s =
            mfb_sched::list::schedule(&g, &comps, &wash, &SchedulerConfig::paper_dcsa(), &pristine)
                .unwrap();
        let nets = NetList::build(&s, &g, &wash, 0.6, 0.4);
        let (grid, sa) = (auto_grid(&comps), SaConfig::paper());
        let (placement, _) = place_sa(&comps, &nets, grid, &sa, &pristine, &budget).unwrap();
        let cfg = RouterConfig::paper();
        let routing = route_dcsa(&s, &g, &placement, &wash, &cfg, &pristine, &budget).unwrap();
        (g, comps, s, placement, routing, wash)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::solved_instance;
    use super::*;

    #[test]
    fn valid_solution_replays_cleanly() {
        let (g, comps, s, p, r, wash) = solved_instance();
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(report.is_valid(), "{:?}", report.violations);
        assert!(report.stats.makespan > Duration::ZERO);
    }

    #[test]
    fn detects_broken_path() {
        let (g, comps, s, p, mut r, wash) = solved_instance();
        // Teleport the middle of the first path.
        let path = &mut r.paths[0];
        if path.cells.len() >= 3 {
            let mid = path.cells.len() / 2;
            path.cells[mid] = CellPos::new(0, 0);
        } else {
            path.cells[0] = CellPos::new(0, 0);
        }
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(!report.is_valid());
    }

    #[test]
    fn detects_missing_path() {
        let (g, comps, s, p, mut r, wash) = solved_instance();
        r.paths[0].cells.clear();
        r.paths[0].windows.clear();
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, SimViolation::MissingPath { .. })));
    }

    #[test]
    fn detects_cell_conflict() {
        let (g, comps, s, p, mut r, wash) = solved_instance();
        // Force two different-fluid paths onto the same cell and time.
        let donor_cell = r.paths[0].cells[0];
        let donor_window = r.paths[0].windows[0];
        let victim = r
            .paths
            .iter()
            .position(|pp| pp.fluid != r.paths[0].fluid)
            .expect("instance has two fluids");
        r.paths[victim].cells.push(donor_cell);
        r.paths[victim].windows.push(donor_window);
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                SimViolation::CellConflict { .. } | SimViolation::WashGap { .. }
            )),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn detects_lifetime_escape() {
        let (g, comps, s, p, mut r, wash) = solved_instance();
        // Stretch a window past the consumer's start.
        let w = r.paths[0].windows.last_mut().unwrap();
        *w = Interval::new(w.start, w.end + Duration::from_secs(1000));
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, SimViolation::WindowOutsideLifetime { .. })));
    }

    #[test]
    fn detects_retimed_precedence_break() {
        let (g, comps, s, p, mut r, wash) = solved_instance();
        // Claim the sink op starts at time zero.
        let sink = g.sinks().next().unwrap();
        r.realized.start[sink.index()] = Instant::ZERO;
        r.realized.end[sink.index()] = Instant::from_secs(1);
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, SimViolation::PrecedenceViolation { .. })));
    }

    #[test]
    fn wrong_benchmark_reports_shape_mismatch_instead_of_panicking() {
        let (_g, _comps, s, p, r, wash) = solved_instance();
        // A different, smaller assay and chip.
        let mut b = SequencingGraph::builder();
        let d = DiffusionCoefficient::PROTEIN;
        b.operation(OperationKind::Mix, Duration::from_secs(1), d);
        let other = b.build().unwrap();
        let other_comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let report = replay(&other, &other_comps, &s, &p, &r, &wash);
        assert!(!report.is_valid());
        assert!(report
            .violations
            .iter()
            .all(|v| matches!(v, SimViolation::ShapeMismatch { .. })));
    }

    #[test]
    fn detects_illegal_placement() {
        let (g, comps, s, mut p, r, wash) = solved_instance();
        let r0 = p.rect(ComponentId::new(0));
        p.set_rect(ComponentId::new(1), r0);
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(report.violations.contains(&SimViolation::IllegalPlacement));
    }
}
