//! The shared priority-driven list-scheduling engine (paper Algorithm 1).
//!
//! Both the paper's storage-aware scheduler and the baseline differ *only*
//! in how they pick a component for the operation at the head of the ready
//! queue; everything else — priority computation, ready-queue management,
//! transport/caching bookkeeping, wash accounting — is shared here so the
//! Table-I comparison measures the binding rule, not incidental engineering.
//!
//! ## Execution semantics
//!
//! * Operations are processed in non-increasing priority order (priority =
//!   longest path to the sink, edges costing `t_c`), restricted to *ready*
//!   operations (all parents already scheduled).
//! * An output fluid stays *resident* in the component that produced it
//!   until one of:
//!   1. a child operation is bound to the same component and consumes it in
//!      place — no transport, no wash (the paper's Case-I benefit);
//!   2. the component is needed for another operation — the fluid is evicted
//!      into channel storage at its production end and the component is
//!      washed for `wash(residue)` starting at that moment.
//! * Every dependency not consumed in place becomes a [`TransportTask`]:
//!   the fluid departs at its producer's end, arrives `t_c` later, and is
//!   *cached in the channel* until its consumer starts.

use crate::error::SchedError;
use crate::schedule::{FluidDelivery, Schedule, ScheduledOp, TransportTask, WashEvent};
use mfb_model::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How the scheduler picks a component for the operation being scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum BindingRule {
    /// The paper's Algorithm 1. **Case I**: if some same-kind parent's output
    /// fluid is still resident in its component, bind there — preferring the
    /// parent fluid with the *lowest* diffusion coefficient (the most
    /// expensive residue to wash, so reusing it saves the most). **Case II**
    /// otherwise: the qualified component with the earliest estimated ready
    /// time.
    StorageAware,
    /// The paper's baseline BA: always the qualified component with the
    /// earliest estimated ready time (`t_ready(c) = t_remove + wash`,
    /// Eq. (2)), with no storage-reuse preference.
    EarliestReady,
    /// Ablation: Case I fires but picks an arbitrary qualified parent (the
    /// one with the smallest id) instead of the hardest-to-wash fluid.
    /// Isolates the value of the diffusion-aware preference inside Case I.
    StorageAwareUnordered,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// The constant inter-component transport time `t_c` (paper default 2 s).
    pub t_c: Duration,
    /// The binding rule to apply.
    pub rule: BindingRule,
}

impl SchedulerConfig {
    /// The paper's configuration for its own algorithm: `t_c = 2 s`,
    /// storage-aware binding.
    pub fn paper_dcsa() -> Self {
        SchedulerConfig {
            t_c: Duration::from_secs(2),
            rule: BindingRule::StorageAware,
        }
    }

    /// The paper's baseline configuration: `t_c = 2 s`, earliest-ready
    /// binding.
    pub fn paper_baseline() -> Self {
        SchedulerConfig {
            t_c: Duration::from_secs(2),
            rule: BindingRule::EarliestReady,
        }
    }
}

/// Runs binding and scheduling on `graph` over the component set
/// `components`, with wash times given by `wash`, on a chip damaged as
/// `defects` says (pass [`DefectMap::pristine`] for an undamaged one).
/// Components marked dead are excluded from binding entirely — Case II
/// never selects them and Case I cannot reach them (operations are only
/// ever bound to live components, so no resident fluid can sit in a dead
/// one).
///
/// # Errors
///
/// [`SchedError::NoComponentForKind`] if an operation kind has no allocated
/// component at all, [`SchedError::AllComponentsDead`] if components of the
/// kind exist but the defect map kills every one.
pub fn schedule(
    graph: &SequencingGraph,
    components: &ComponentSet,
    wash: &dyn WashModel,
    config: &SchedulerConfig,
    defects: &DefectMap,
) -> Result<Schedule, SchedError> {
    let _span = mfb_obs::obs_span!(
        "sched.list",
        ops = graph.ops().count() as u64,
        components = components.iter().count() as u64,
    );
    for op in graph.ops() {
        let kind = ComponentKind::for_operation(op.kind());
        let allocated = components.of_kind(kind).count();
        if allocated == 0 {
            return Err(SchedError::NoComponentForKind { op: op.id(), kind });
        }
        if components.of_kind(kind).all(|c| defects.is_dead(c)) {
            return Err(SchedError::AllComponentsDead {
                op: op.id(),
                kind,
                allocated,
            });
        }
    }
    Ok(Engine::new(graph, components, wash, config, defects).run())
}

/// A fluid sitting inside the component that produced it.
#[derive(Debug, Clone, Copy)]
struct Resident {
    /// The producing operation.
    fluid: OpId,
    /// When production ended (and so the earliest the fluid can leave).
    since: Instant,
}

#[derive(Debug, Clone, Copy)]
struct CompState {
    resident: Option<Resident>,
}

/// Ready-queue entry ordered by (priority desc, op id asc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueueEntry {
    priority: Duration,
    op: OpId,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.op.cmp(&self.op))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct Engine<'a> {
    graph: &'a SequencingGraph,
    components: &'a ComponentSet,
    wash: &'a dyn WashModel,
    config: &'a SchedulerConfig,
    defects: &'a DefectMap,
    state: Vec<CompState>,
    scheduled: Vec<Option<ScheduledOp>>,
    unscheduled_parents: Vec<usize>,
    queue: BinaryHeap<QueueEntry>,
    priorities: Vec<Duration>,
    transports: Vec<TransportTask>,
    washes: Vec<WashEvent>,
    in_place: Vec<Option<OpId>>, // per op: the parent it consumed in place
}

impl<'a> Engine<'a> {
    fn new(
        graph: &'a SequencingGraph,
        components: &'a ComponentSet,
        wash: &'a dyn WashModel,
        config: &'a SchedulerConfig,
        defects: &'a DefectMap,
    ) -> Self {
        let priorities = graph.priority_values(config.t_c);
        let unscheduled_parents: Vec<usize> =
            graph.op_ids().map(|o| graph.parents(o).len()).collect();
        let mut queue = BinaryHeap::new();
        for o in graph.op_ids() {
            if unscheduled_parents[o.index()] == 0 {
                queue.push(QueueEntry {
                    priority: priorities[o.index()],
                    op: o,
                });
            }
        }
        Engine {
            graph,
            components,
            wash,
            config,
            defects,
            state: vec![CompState { resident: None }; components.len()],
            scheduled: vec![None; graph.len()],
            unscheduled_parents,
            queue,
            priorities,
            transports: Vec::new(),
            washes: Vec::new(),
            in_place: vec![None; graph.len()],
        }
    }

    fn run(mut self) -> Schedule {
        while let Some(QueueEntry { op, .. }) = self.queue.pop() {
            self.schedule_op(op);
            for &child in self.graph.children(op) {
                let slot = &mut self.unscheduled_parents[child.index()];
                *slot -= 1;
                if *slot == 0 {
                    self.queue.push(QueueEntry {
                        priority: self.priorities[child.index()],
                        op: child,
                    });
                }
            }
        }
        self.apply_jit_departures();

        let deliveries = self
            .graph
            .edges()
            .map(|(p, c)| {
                let delivery = if self.in_place[c.index()] == Some(p) {
                    FluidDelivery::InPlace
                } else {
                    let task = self
                        .transports
                        .iter()
                        .find(|t| t.fluid == p && t.consumer == c)
                        .expect("every non-in-place edge has a transport");
                    FluidDelivery::Transported(task.id)
                };
                (p, c, delivery)
            })
            .collect();

        Schedule::new(
            self.config.t_c,
            self.scheduled
                .into_iter()
                .map(|s| s.expect("all operations scheduled"))
                .collect(),
            deliveries,
            self.transports,
            self.washes,
        )
    }

    /// The "transport or store?" refinement (after Liu et al., DAC'17):
    /// during scheduling every fluid nominally departs the moment its
    /// producer finishes, which is correct but pessimistic — it floods the
    /// channels with simultaneously cached plugs. This pass retimes each
    /// transport to leave **as late as possible**: just in time for its
    /// consumer (`consumed_at - t_c`), unless the source component is
    /// needed earlier, in which case the fluid leaves early enough for the
    /// component wash to finish before the next operation starts. Component
    /// wash events are retimed to begin when the last aliquot actually
    /// leaves. Start/end times of operations are unchanged, so the
    /// schedule's makespan and utilization are unaffected; only channel
    /// pressure (and hence Fig. 8 cache time) drops.
    fn apply_jit_departures(&mut self) {
        // Per-component operation timelines, ordered by start.
        let mut timeline: Vec<Vec<(Instant, OpId)>> = vec![Vec::new(); self.components.len()];
        for s in self.scheduled.iter().flatten() {
            timeline[s.component.index()].push((s.start, s.op));
        }
        for t in &mut timeline {
            t.sort_unstable();
        }

        for p in self.graph.op_ids() {
            let Some(sch) = self.scheduled[p.index()] else {
                continue;
            };
            let e = sch.end;
            let c = sch.component;
            // The first operation on c starting at or after e, if any.
            let next = timeline[c.index()]
                .iter()
                .find(|&&(start, o)| start >= e && o != p)
                .copied();
            let deadline = next.map(|(s_next, o_next)| {
                if self.in_place[o_next.index()] == Some(p) {
                    s_next
                } else {
                    s_next - self.wash.wash_time(self.graph.op(p).output_diffusion())
                }
            });

            let mut last_depart: Option<Instant> = None;
            for t in self.transports.iter_mut().filter(|t| t.fluid == p) {
                let jit = t.consumed_at - self.config.t_c;
                let mut depart = jit;
                if let Some(d) = deadline {
                    depart = depart.min(d);
                }
                depart = depart.max(e);
                t.depart = depart;
                t.arrive = depart + self.config.t_c;
                last_depart = Some(last_depart.map_or(depart, |l| l.max(depart)));
            }
            // Retime the eviction wash to start when the last aliquot
            // actually leaves the component.
            if let Some(last) = last_depart {
                for w in self
                    .washes
                    .iter_mut()
                    .filter(|w| w.component == c && w.residue == p)
                {
                    let dur = w.end - w.start;
                    w.start = last.max(w.start);
                    w.end = w.start + dur;
                }
            }
        }
    }

    /// The end time of a scheduled operation.
    fn end_of(&self, op: OpId) -> Instant {
        self.scheduled[op.index()]
            .as_ref()
            .expect("parents are scheduled before children")
            .end
    }

    /// Estimated ready time of component `c` per the paper's Eq. (2):
    /// `t_remove + wash(residue)` if a fluid is resident, else the component
    /// is immediately available (it is clean: washes are booked the moment a
    /// residue's fluid leaves).
    fn ready_estimate(&self, c: ComponentId) -> Instant {
        match self.state[c.index()].resident {
            Some(Resident { fluid, since }) => {
                since + self.wash.wash_time(self.graph.op(fluid).output_diffusion())
            }
            None => Instant::ZERO,
        }
    }

    /// The paper's Case-I candidate set `O_s'`: parents of `op` of the same
    /// kind whose output fluid is still resident in the component it was
    /// produced on.
    fn case1_candidates(&self, op: OpId) -> Vec<OpId> {
        let kind = self.graph.op(op).kind();
        self.graph
            .parents(op)
            .iter()
            .copied()
            .filter(|&p| self.graph.op(p).kind() == kind)
            .filter(|&p| {
                let c = self.scheduled[p.index()]
                    .as_ref()
                    .expect("parent scheduled")
                    .component;
                matches!(self.state[c.index()].resident, Some(r) if r.fluid == p)
            })
            .collect()
    }

    /// Picks the component for `op` according to the configured rule.
    fn select_component(&self, op: OpId) -> ComponentId {
        let rule = self.config.rule;
        if matches!(
            rule,
            BindingRule::StorageAware | BindingRule::StorageAwareUnordered
        ) {
            let mut candidates = self.case1_candidates(op);
            if !candidates.is_empty() {
                // Case I: reuse a parent's component.
                let chosen = match rule {
                    BindingRule::StorageAware => {
                        // Lowest diffusion coefficient (hardest residue to
                        // wash); ties broken by op id for determinism.
                        candidates.sort_by_key(|&p| (self.graph.op(p).output_diffusion(), p));
                        candidates[0]
                    }
                    _ => *candidates.iter().min().expect("non-empty"),
                };
                return self.scheduled[chosen.index()]
                    .as_ref()
                    .expect("parent scheduled")
                    .component;
            }
        }
        // Case II / baseline: earliest estimated ready time among *live*
        // components, ties by id.
        let kind = ComponentKind::for_operation(self.graph.op(op).kind());
        self.components
            .of_kind(kind)
            .filter(|&c| !self.defects.is_dead(c))
            .min_by_key(|&c| (self.ready_estimate(c), c))
            .expect("live component availability checked before scheduling")
    }

    fn schedule_op(&mut self, op: OpId) {
        let component = self.select_component(op);
        let op_info = self.graph.op(op);

        // Does the chosen component hold one of our input fluids?
        let in_place_parent = match self.state[component.index()].resident {
            Some(Resident { fluid, .. }) if self.graph.parents(op).contains(&fluid) => Some(fluid),
            _ => None,
        };

        // Component availability: in-place reuse skips the wash entirely;
        // any other resident fluid is evicted into channel storage at its
        // production end and the component washed from that moment.
        let comp_ready = match self.state[component.index()].resident {
            Some(Resident { fluid, since }) => {
                if in_place_parent == Some(fluid) {
                    since
                } else {
                    let wash_time = self.wash.wash_time(self.graph.op(fluid).output_diffusion());
                    self.washes.push(WashEvent {
                        component,
                        residue: fluid,
                        start: since,
                        end: since + wash_time,
                    });
                    since + wash_time
                }
            }
            None => Instant::ZERO,
        };

        // Input availability: transported fluids arrive t_c after their
        // producer finishes; the in-place fluid is available at production.
        let mut inputs_ready = Instant::ZERO;
        for &p in self.graph.parents(op) {
            let avail = if in_place_parent == Some(p) {
                self.end_of(p)
            } else {
                self.end_of(p) + self.config.t_c
            };
            inputs_ready = inputs_ready.max(avail);
        }

        let start = comp_ready.max(inputs_ready);
        let end = start + op_info.duration();

        // Book transports (and their channel-cache dwell) for every
        // non-in-place dependency.
        for &p in self.graph.parents(op) {
            if in_place_parent == Some(p) {
                continue;
            }
            let src = self.scheduled[p.index()]
                .as_ref()
                .expect("parent scheduled")
                .component;
            let depart = self.end_of(p);
            self.transports.push(TransportTask {
                id: TaskId::new(self.transports.len() as u32),
                fluid: p,
                consumer: op,
                src,
                dst: component,
                depart,
                arrive: depart + self.config.t_c,
                consumed_at: start,
            });
        }

        self.in_place[op.index()] = in_place_parent;
        self.scheduled[op.index()] = Some(ScheduledOp {
            op,
            component,
            start,
            end,
        });
        self.state[component.index()].resident = Some(Resident {
            fluid: op,
            since: end,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wash_model() -> LogLinearWash {
        LogLinearWash::paper_calibrated()
    }

    /// d such that wash time is exactly `secs`.
    fn d_wash(secs: f64) -> DiffusionCoefficient {
        wash_model().coefficient_for(Duration::from_secs_f64(secs))
    }

    fn two_mixers() -> ComponentSet {
        Allocation::new(2, 0, 0, 0).instantiate(&ComponentLibrary::default())
    }

    #[test]
    fn single_op_starts_immediately() {
        let mut b = SequencingGraph::builder();
        let o = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let g = b.build().unwrap();
        let s = schedule(
            &g,
            &two_mixers(),
            &wash_model(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        assert_eq!(s.op(o).start, Instant::ZERO);
        assert_eq!(s.op(o).end, Instant::from_secs(5));
        assert_eq!(s.completion_time(), Instant::from_secs(5));
        assert!(s.transports().len() == 0);
    }

    #[test]
    fn chain_same_kind_uses_case1_in_place() {
        // o0 -> o1, both mixes: storage-aware binding keeps o1 on o0's
        // mixer, skipping transport and wash entirely.
        let mut b = SequencingGraph::builder();
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(6.0));
        let o1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d_wash(2.0));
        b.edge(o0, o1).unwrap();
        let g = b.build().unwrap();

        let s = schedule(
            &g,
            &two_mixers(),
            &wash_model(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        assert_eq!(s.binding(o0), s.binding(o1));
        assert_eq!(s.op(o1).start, Instant::from_secs(5)); // no t_c, no wash
        assert_eq!(s.in_place_count(), 1);
        assert_eq!(s.transports().len(), 0);
        assert_eq!(s.total_component_wash_time(), Duration::ZERO);
    }

    #[test]
    fn baseline_spreads_and_pays_transport() {
        // Same chain under BA: o1 goes to the fresh mixer (ready at 0)
        // and pays t_c for the transport.
        let mut b = SequencingGraph::builder();
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(6.0));
        let o1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d_wash(2.0));
        b.edge(o0, o1).unwrap();
        let g = b.build().unwrap();

        let s = schedule(
            &g,
            &two_mixers(),
            &wash_model(),
            &SchedulerConfig::paper_baseline(),
            &DefectMap::pristine(),
        )
        .unwrap();
        assert_ne!(s.binding(o0), s.binding(o1));
        assert_eq!(s.op(o1).start, Instant::from_secs(7)); // 5 + t_c
        assert_eq!(s.transports().len(), 1);
        let t = s.transports().next().unwrap();
        assert_eq!(t.depart, Instant::from_secs(5));
        assert_eq!(t.arrive, Instant::from_secs(7));
        assert_eq!(t.cache_time(), Duration::ZERO);
    }

    #[test]
    fn case1_prefers_lowest_diffusion_parent() {
        // Two mix parents on different mixers; the storage-aware rule binds
        // the child onto the parent whose residue is hardest to wash.
        let mut b = SequencingGraph::builder();
        let easy = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let hard = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(8.0));
        let child = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(2.0));
        b.edge(easy, child).unwrap();
        b.edge(hard, child).unwrap();
        let g = b.build().unwrap();

        let s = schedule(
            &g,
            &two_mixers(),
            &wash_model(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        assert_eq!(s.binding(child), s.binding(hard));
        // The easy parent's fluid is transported and the hard one consumed
        // in place: only the easy mixer is washed (2 s), not the hard one.
        assert_eq!(s.transports().len(), 1);
        assert_eq!(s.in_place_count(), 1);
    }

    #[test]
    fn eviction_washes_and_delays() {
        // One mixer only: o0 and o1 are independent mixes; o1 must evict
        // o0's output (cached to channel) and wait out the wash.
        let mut b = SequencingGraph::builder();
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(6.0));
        let o1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d_wash(2.0));
        let g = b.build().unwrap();
        let one_mixer = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());

        let s = schedule(
            &g,
            &one_mixer,
            &wash_model(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        // Priorities equal; tie-break schedules o0 first.
        assert_eq!(s.op(o0).start, Instant::ZERO);
        assert_eq!(s.op(o1).start, Instant::from_secs(11)); // 5 + 6 s wash
        assert_eq!(s.washes().len(), 1);
        let w = s.washes().next().unwrap();
        assert_eq!(w.residue, o0);
        assert_eq!(w.wash_time(), Duration::from_secs(6));
        let _ = o1;
    }

    #[test]
    fn higher_priority_scheduled_first() {
        // Two independent chains; the longer chain's head has higher
        // priority and grabs the single mixer first.
        let mut b = SequencingGraph::builder();
        let long_head = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(0.2));
        let long_mid = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(0.2));
        let long_tail = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(0.2));
        let short = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(0.2));
        b.chain(&[long_head, long_mid, long_tail]).unwrap();
        let g = b.build().unwrap();
        let one_mixer = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &one_mixer,
            &wash_model(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        assert!(s.op(long_head).start < s.op(short).start);
    }

    #[test]
    fn unordered_case1_still_reuses_a_parent_component() {
        // Two same-kind parents, both resident: the unordered rule picks
        // the smaller op id instead of the hardest-to-wash fluid.
        let mut b = SequencingGraph::builder();
        let easy = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let hard = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(8.0));
        let child = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(2.0));
        b.edge(easy, child).unwrap();
        b.edge(hard, child).unwrap();
        let g = b.build().unwrap();
        let cfg = SchedulerConfig {
            t_c: Duration::from_secs(2),
            rule: BindingRule::StorageAwareUnordered,
        };
        let s = schedule(
            &g,
            &two_mixers(),
            &wash_model(),
            &cfg,
            &DefectMap::pristine(),
        )
        .unwrap();
        assert_eq!(
            s.binding(child),
            s.binding(easy),
            "unordered rule picks the lower-id parent"
        );
        assert_eq!(s.in_place_count(), 1);
        // Contrast: the full rule prefers the hard-wash parent.
        let full = schedule(
            &g,
            &two_mixers(),
            &wash_model(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        assert_eq!(full.binding(child), full.binding(hard));
    }

    #[test]
    fn jit_departures_reduce_cache_without_moving_ops() {
        // A fluid consumed late: its transport departs just in time, not at
        // production end.
        let mut b = SequencingGraph::builder();
        let src = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        // A long heat delays the consumer's other input.
        let slow = b.operation(OperationKind::Heat, Duration::from_secs(20), d_wash(1.0));
        let sink = b.operation(OperationKind::Detect, Duration::from_secs(3), d_wash(1.0));
        b.edge(src, sink).unwrap();
        b.edge(slow, sink).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 1, 0, 1).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &comps,
            &wash_model(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        // sink starts at 22 (slow ends 20 + t_c); src's fluid departs at 20
        // (just in time), not at 5 — the mixer is never needed again.
        let t = s
            .transports()
            .find(|t| t.fluid == src)
            .expect("src fluid is transported");
        assert_eq!(s.op(sink).start, Instant::from_secs(22));
        assert_eq!(t.depart, Instant::from_secs(20));
        assert_eq!(t.cache_time(), Duration::ZERO);
    }

    #[test]
    fn forced_early_departure_caches_in_channel() {
        // Same shape, but the mixer is needed again right away: the fluid
        // must leave early and cache.
        let mut b = SequencingGraph::builder();
        let src = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        // A short second mix grabs the only mixer right after src,
        // evicting src's fluid into channel storage.
        let hog = b.operation(OperationKind::Mix, Duration::from_secs(4), d_wash(2.0));
        let slow = b.operation(OperationKind::Heat, Duration::from_secs(20), d_wash(1.0));
        let sink = b.operation(OperationKind::Detect, Duration::from_secs(3), d_wash(1.0));
        b.edge(src, sink).unwrap();
        b.edge(slow, sink).unwrap();
        let _ = hog;
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 1, 0, 1).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &comps,
            &wash_model(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        let t = s
            .transports()
            .find(|t| t.fluid == src)
            .expect("src fluid is transported");
        // The eviction forces departure at src's end (5 s), far before the
        // just-in-time instant (20 s), so the fluid caches in channels.
        assert!(
            t.depart < Instant::from_secs(20),
            "depart {} too late",
            t.depart
        );
        assert!(t.cache_time() > Duration::ZERO);
    }

    #[test]
    fn missing_component_kind_is_an_error() {
        let mut b = SequencingGraph::builder();
        b.operation(OperationKind::Heat, Duration::from_secs(2), d_wash(1.0));
        let g = b.build().unwrap();
        let err = schedule(
            &g,
            &two_mixers(),
            &wash_model(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::NoComponentForKind { .. }));
        assert!(err.to_string().contains("heater"));
    }

    #[test]
    fn dead_component_is_never_bound() {
        // Two independent mixes on two mixers; killing mixer 0 forces both
        // onto mixer 1 (serialised with an eviction wash).
        let mut b = SequencingGraph::builder();
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let o1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d_wash(2.0));
        let g = b.build().unwrap();
        let comps = two_mixers();
        let mut defects = DefectMap::pristine();
        defects.kill_component(ComponentId::new(0));
        let s = schedule(
            &g,
            &comps,
            &wash_model(),
            &SchedulerConfig::paper_dcsa(),
            &defects,
        )
        .unwrap();
        assert_eq!(s.binding(o0), ComponentId::new(1));
        assert_eq!(s.binding(o1), ComponentId::new(1));
    }

    #[test]
    fn all_dead_components_of_kind_is_an_error() {
        let mut b = SequencingGraph::builder();
        let o = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let g = b.build().unwrap();
        let comps = two_mixers();
        let mut defects = DefectMap::pristine();
        defects
            .kill_component(ComponentId::new(0))
            .kill_component(ComponentId::new(1));
        let err = schedule(
            &g,
            &comps,
            &wash_model(),
            &SchedulerConfig::paper_dcsa(),
            &defects,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SchedError::AllComponentsDead {
                op: o,
                kind: ComponentKind::Mixer,
                allocated: 2,
            }
        );
    }

    #[test]
    fn transports_cache_until_consumption() {
        // Mix -> heat -> mix diamond: the heat output must wait for the
        // second mixer if it is busy.
        let mut b = SequencingGraph::builder();
        let m0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let h = b.operation(OperationKind::Heat, Duration::from_secs(2), d_wash(0.2));
        let m1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d_wash(2.0));
        b.edge(m0, h).unwrap();
        b.edge(m0, m1).unwrap();
        b.edge(h, m1).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 1, 0, 0).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &comps,
            &wash_model(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        // m1 consumes m0's fluid in place but must wait for the heat
        // output: start = end(h) + t_c = (5+2+2) + 2 = 11.
        assert_eq!(s.binding(m1), s.binding(m0));
        assert_eq!(s.op(h).start, Instant::from_secs(7));
        assert_eq!(s.op(m1).start, Instant::from_secs(11));
        // The heat output never waits (cache 0); all deliveries accounted.
        assert_eq!(s.total_cache_time(), Duration::ZERO);
        assert_eq!(s.deliveries().len(), 3);
    }
}
