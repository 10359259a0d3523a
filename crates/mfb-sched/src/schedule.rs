//! The output of resource binding and scheduling: who runs where and when,
//! which fluids move, and which residues get washed.

use mfb_model::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One scheduled operation: its binding and its time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledOp {
    /// The operation.
    pub op: OpId,
    /// The component it executes on (`Φ(o)` in the paper).
    pub component: ComponentId,
    /// Execution start `t_start(o)`.
    pub start: Instant,
    /// Execution end `t_end(o) = t_start(o) + t_o`.
    pub end: Instant,
}

impl ScheduledOp {
    /// The execution interval `[start, end)`.
    #[inline]
    pub fn interval(&self) -> Interval {
        Interval::new(self.start, self.end)
    }
}

/// How an input fluid reaches its consuming operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FluidDelivery {
    /// The fluid stays in the component that produced it and is consumed in
    /// place (the paper's Case-I benefit: no transport, no wash).
    InPlace,
    /// The fluid moves through flow channels; see the matching
    /// [`TransportTask`].
    Transported(TaskId),
}

/// One fluid movement between two components through flow channels,
/// including the channel-storage dwell the paper calls *caching*.
///
/// The fluid departs its source at `depart` (the moment its producer
/// finishes), arrives after the constant transport time `t_c`, and then
/// waits *in the channel* until its consumer starts — the distributed
/// channel storage of DCSA. `cache_time` is that wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportTask {
    /// Task identifier (dense, in creation order).
    pub id: TaskId,
    /// The operation whose output fluid is moved.
    pub fluid: OpId,
    /// The operation that consumes the fluid.
    pub consumer: OpId,
    /// Source component (where `fluid` was produced).
    pub src: ComponentId,
    /// Destination component (where `consumer` executes).
    pub dst: ComponentId,
    /// When the fluid leaves `src`.
    pub depart: Instant,
    /// When the fluid reaches `dst`'s ports (`depart + t_c`).
    pub arrive: Instant,
    /// When the consumer starts and the fluid finally leaves the channel.
    pub consumed_at: Instant,
}

impl TransportTask {
    /// Time the fluid spends cached in channels after arrival.
    #[inline]
    pub fn cache_time(&self) -> Duration {
        self.consumed_at - self.arrive
    }

    /// Full channel occupancy window `[depart, consumed_at)`: transport plus
    /// cache, the interval the paper inserts into every routed cell's
    /// time-slot set.
    #[inline]
    pub fn occupancy(&self) -> Interval {
        Interval::new(self.depart, self.consumed_at)
    }

    /// `true` when this task is in flight or cached at the same time as
    /// `other` — the paper's *parallel tasks* `Pr_j`, which must not share
    /// channel cells.
    #[inline]
    pub fn parallel_with(&self, other: &TransportTask) -> bool {
        self.occupancy().overlaps(other.occupancy())
    }
}

impl fmt::Display for TransportTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: out({}) {}->{} {} (cache {})",
            self.id,
            self.fluid,
            self.src,
            self.dst,
            self.occupancy(),
            self.cache_time()
        )
    }
}

/// One component wash: flushing the residue of `residue` out of `component`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WashEvent {
    /// The component being washed.
    pub component: ComponentId,
    /// The operation whose output fluid left the residue.
    pub residue: OpId,
    /// Wash start (the moment the fluid departed).
    pub start: Instant,
    /// Wash end; the component is reusable from here.
    pub end: Instant,
}

impl WashEvent {
    /// The wash interval `[start, end)`.
    #[inline]
    pub fn interval(&self) -> Interval {
        Interval::new(self.start, self.end)
    }

    /// Duration of the wash.
    #[inline]
    pub fn wash_time(&self) -> Duration {
        self.end - self.start
    }
}

/// A complete binding-and-scheduling result for one bioassay.
///
/// Produced by the scheduler in [`crate::list`] (both binding rules);
/// consumed by placement (connection priorities), routing (transport tasks)
/// and the metrics in [`crate::metrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// The constant transport time `t_c` the schedule was built with.
    pub t_c: Duration,
    /// Scheduled operations, indexed by `OpId`.
    ops: Vec<ScheduledOp>,
    /// How each edge of the sequencing graph delivers its fluid, in the
    /// graph's edge order.
    deliveries: Vec<(OpId, OpId, FluidDelivery)>,
    /// All transport tasks, indexed by `TaskId`.
    transports: Vec<TransportTask>,
    /// All component washes, in creation order.
    washes: Vec<WashEvent>,
}

impl Schedule {
    /// Assembles a schedule from raw parts. **No invariants are checked** —
    /// the vectors are taken at face value (`ops` indexed by `OpId`,
    /// `transports` by `TaskId`). Intended for deserialization, testing and
    /// failure injection; run [`crate::validate::validate`] on anything not
    /// produced by [`crate::list::schedule`].
    pub fn new(
        t_c: Duration,
        ops: Vec<ScheduledOp>,
        deliveries: Vec<(OpId, OpId, FluidDelivery)>,
        transports: Vec<TransportTask>,
        washes: Vec<WashEvent>,
    ) -> Self {
        Schedule {
            t_c,
            ops,
            deliveries,
            transports,
            washes,
        }
    }

    /// The scheduled form of operation `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` does not belong to the scheduled assay.
    #[inline]
    pub fn op(&self, op: OpId) -> &ScheduledOp {
        &self.ops[op.index()]
    }

    /// All scheduled operations, in `OpId` order.
    #[inline]
    pub fn ops(&self) -> impl ExactSizeIterator<Item = &ScheduledOp> {
        self.ops.iter()
    }

    /// Each operation's `(component, start, end)`, in `OpId` order: the
    /// input of the Eq. (1) metrics.
    pub fn op_intervals(&self) -> impl Iterator<Item = (ComponentId, Instant, Instant)> + '_ {
        self.ops.iter().map(|s| (s.component, s.start, s.end))
    }

    /// The component each operation is bound to (`Φ`).
    #[inline]
    pub fn binding(&self, op: OpId) -> ComponentId {
        self.ops[op.index()].component
    }

    /// How each fluidic dependency is delivered, `(parent, child, delivery)`.
    #[inline]
    pub fn deliveries(&self) -> impl ExactSizeIterator<Item = &(OpId, OpId, FluidDelivery)> {
        self.deliveries.iter()
    }

    /// All transport tasks, in `TaskId` order.
    #[inline]
    pub fn transports(&self) -> impl ExactSizeIterator<Item = &TransportTask> {
        self.transports.iter()
    }

    /// The transport task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn transport(&self, id: TaskId) -> &TransportTask {
        &self.transports[id.index()]
    }

    /// All component wash events.
    #[inline]
    pub fn washes(&self) -> impl ExactSizeIterator<Item = &WashEvent> {
        self.washes.iter()
    }

    /// Assay completion time: the end of the last operation.
    pub fn completion_time(&self) -> Instant {
        self.ops
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(Instant::ZERO)
    }

    /// Number of dependencies satisfied in place (no transport, no wash) —
    /// the paper's Case-I wins.
    pub fn in_place_count(&self) -> usize {
        self.deliveries
            .iter()
            .filter(|(_, _, d)| matches!(d, FluidDelivery::InPlace))
            .count()
    }

    /// Total channel cache time across all transports (the paper's Fig. 8
    /// metric).
    pub fn total_cache_time(&self) -> Duration {
        self.transports.iter().map(TransportTask::cache_time).sum()
    }

    /// Total component wash time across all wash events.
    pub fn total_component_wash_time(&self) -> Duration {
        self.washes.iter().map(WashEvent::wash_time).sum()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule({} ops, {} transports, {} washes, completes {})",
            self.ops.len(),
            self.transports.len(),
            self.washes.len(),
            self.completion_time()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Instant {
        Instant::from_secs(s)
    }

    fn sample_transport() -> TransportTask {
        TransportTask {
            id: TaskId::new(0),
            fluid: OpId::new(0),
            consumer: OpId::new(1),
            src: ComponentId::new(0),
            dst: ComponentId::new(1),
            depart: t(5),
            arrive: t(7),
            consumed_at: t(10),
        }
    }

    #[test]
    fn transport_cache_and_occupancy() {
        let tk = sample_transport();
        assert_eq!(tk.cache_time(), Duration::from_secs(3));
        assert_eq!(tk.occupancy(), Interval::new(t(5), t(10)));
    }

    #[test]
    fn parallel_detection() {
        let a = sample_transport();
        let mut b = sample_transport();
        b.depart = t(9);
        b.arrive = t(11);
        b.consumed_at = t(12);
        assert!(a.parallel_with(&b));
        b.depart = t(10);
        b.arrive = t(12);
        b.consumed_at = t(13);
        assert!(!a.parallel_with(&b), "touching windows are not parallel");
    }

    #[test]
    fn schedule_aggregates() {
        let ops = vec![
            ScheduledOp {
                op: OpId::new(0),
                component: ComponentId::new(0),
                start: t(0),
                end: t(5),
            },
            ScheduledOp {
                op: OpId::new(1),
                component: ComponentId::new(1),
                start: t(10),
                end: t(14),
            },
        ];
        let tk = sample_transport();
        let wash = WashEvent {
            component: ComponentId::new(0),
            residue: OpId::new(0),
            start: t(5),
            end: t(7),
        };
        let s = Schedule::new(
            Duration::from_secs(2),
            ops,
            vec![(
                OpId::new(0),
                OpId::new(1),
                FluidDelivery::Transported(tk.id),
            )],
            vec![tk],
            vec![wash],
        );
        assert_eq!(s.completion_time(), t(14));
        assert_eq!(s.total_cache_time(), Duration::from_secs(3));
        assert_eq!(s.total_component_wash_time(), Duration::from_secs(2));
        assert_eq!(s.in_place_count(), 0);
        assert_eq!(s.binding(OpId::new(1)), ComponentId::new(1));
        assert_eq!(s.transport(TaskId::new(0)).fluid, OpId::new(0));
        assert!(s.to_string().contains("2 ops"));
    }

    #[test]
    fn wash_event_interval() {
        let w = WashEvent {
            component: ComponentId::new(0),
            residue: OpId::new(3),
            start: t(1),
            end: t(4),
        };
        assert_eq!(w.wash_time(), Duration::from_secs(3));
        assert_eq!(w.interval().length(), Duration::from_secs(3));
    }
}
