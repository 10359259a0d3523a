//! Routing nets and the paper's connection priorities (Eq. (4)).
//!
//! After scheduling, every pair of components that exchanges at least one
//! fluid becomes a *net*. The paper weights each net by a **connection
//! priority** `cp(i,j) = Σ_k (β·nt_k + γ·wt_k)`: nets whose transports run
//! concurrently with many others (`nt_k`) and whose residues wash slowly
//! (`wt_k`) pull their endpoints together during placement, which shortens
//! exactly the channels where conflicts and long washes would hurt most.

use mfb_model::prelude::*;
use mfb_sched::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One routing net: an unordered component pair with its aggregated
/// connection priority and the transport tasks it carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Net {
    /// Net identifier (dense).
    pub id: NetId,
    /// Lower-id endpoint.
    pub a: ComponentId,
    /// Higher-id endpoint.
    pub b: ComponentId,
    /// The paper's `cp(i, j)`.
    pub priority: f64,
    /// Transport tasks carried by this net, in schedule order.
    pub tasks: Vec<TaskId>,
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}<->{} cp={:.2} ({} tasks)",
            self.id,
            self.a,
            self.b,
            self.priority,
            self.tasks.len()
        )
    }
}

/// The nets of a schedule, plus the weighting parameters they were built
/// with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetList {
    /// The weighting factor β of Eq. (4) (concurrency term).
    pub beta: f64,
    /// The weighting factor γ of Eq. (4) (wash-time term).
    pub gamma: f64,
    nets: Vec<Net>,
}

impl NetList {
    /// Builds the netlist of `schedule`, weighting per the paper's Eq. (4)
    /// with factors `beta` (concurrency) and `gamma` (wash time, seconds).
    ///
    /// Transports that start and end at the same component (a fluid evicted
    /// into channel storage and later returned) carry no placement
    /// information and are skipped.
    pub fn build(
        schedule: &Schedule,
        graph: &SequencingGraph,
        wash: &dyn WashModel,
        beta: f64,
        gamma: f64,
    ) -> Self {
        let transports: Vec<&TransportTask> = schedule.transports().collect();
        let mut by_pair: BTreeMap<(ComponentId, ComponentId), (f64, Vec<TaskId>)> = BTreeMap::new();
        for t in &transports {
            if t.src == t.dst {
                continue;
            }
            let key = if t.src < t.dst {
                (t.src, t.dst)
            } else {
                (t.dst, t.src)
            };
            // nt_k: tasks whose channel occupancy overlaps this one's.
            let nt = transports
                .iter()
                .filter(|o| o.id != t.id && o.parallel_with(t))
                .count() as f64;
            // wt_k: wash time of the residue this task leaves in channels.
            let wt = wash
                .wash_time(graph.op(t.fluid).output_diffusion())
                .as_secs_f64();
            let entry = by_pair.entry(key).or_insert((0.0, Vec::new()));
            entry.0 += beta * nt + gamma * wt;
            entry.1.push(t.id);
        }
        let nets = by_pair
            .into_iter()
            .enumerate()
            .map(|(i, ((a, b), (priority, tasks)))| Net {
                id: NetId::new(i as u32),
                a,
                b,
                priority,
                tasks,
            })
            .collect();
        NetList { beta, gamma, nets }
    }

    /// All nets, ordered by endpoint pair.
    #[inline]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Number of nets.
    #[inline]
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// `true` when the schedule produced no inter-component transports.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }

    /// Net indices incident to each of `n_components` components, built
    /// once so the incremental annealer can re-evaluate only the nets a
    /// move touched. Indices are in net order within each bucket.
    pub fn component_index(&self, n_components: usize) -> Vec<Vec<u32>> {
        let mut by_comp = vec![Vec::new(); n_components];
        for (i, net) in self.nets.iter().enumerate() {
            by_comp[net.a.index()].push(i as u32);
            by_comp[net.b.index()].push(i as u32);
        }
        by_comp
    }
}

/// The paper's placement energy, Eq. (3):
/// `Energy(P) = Σ_{n_{i,j}} mdis(i,j) · cp(i,j)`.
pub fn energy(placement: &crate::floorplan::Placement, nets: &NetList) -> f64 {
    nets.nets()
        .iter()
        .map(|n| f64::from(placement.port_distance(n.a, n.b)) * n.priority)
        .sum()
}

/// Congestion-aware extension of the energy (see [`energy_with_spacing`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpacingParams {
    /// Target free gap between any two component rectangles, in cells.
    /// Pairs closer than this pay the penalty.
    pub min_gap: u32,
    /// Penalty per squared cell of gap deficit.
    pub weight: f64,
}

impl SpacingParams {
    /// Defaults tuned on the Table-I suite: a 4-cell corridor target keeps
    /// a dozen concurrent transports routable without visibly moving the
    /// wirelength optimum.
    pub fn default_routing() -> Self {
        SpacingParams {
            min_gap: 4,
            weight: 3.0,
        }
    }

    /// Disables the spacing term (the paper's plain Eq. (3)).
    pub fn off() -> Self {
        SpacingParams {
            min_gap: 0,
            weight: 0.0,
        }
    }
}

/// Eq. (3) plus a congestion guard: every component pair closer than
/// `spacing.min_gap` adds `weight · deficit²`.
///
/// The paper's energy alone pulls heavily-connected components into one
/// dense cluster; with a dozen concurrent transports the 1–2-cell
/// corridors that leaves are unroutable even on a mostly-empty chip. The
/// spacing term keeps corridors open while the `cp` weights still decide
/// the neighbourhood structure.
pub fn energy_with_spacing(
    placement: &crate::floorplan::Placement,
    nets: &NetList,
    spacing: SpacingParams,
) -> f64 {
    let mut total = energy(placement, nets);
    if spacing.weight > 0.0 && spacing.min_gap > 0 {
        let rects = placement.rects();
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                let gap = crate::floorplan::rect_gap(rects[i], rects[j]);
                if gap < spacing.min_gap {
                    let deficit = f64::from(spacing.min_gap - gap);
                    total += spacing.weight * deficit * deficit;
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Placement;
    use mfb_sched::list::{schedule, SchedulerConfig};

    fn d_wash(secs: f64) -> DiffusionCoefficient {
        LogLinearWash::paper_calibrated().coefficient_for(Duration::from_secs_f64(secs))
    }

    /// Two parallel mix->heat chains: transports overlap in time.
    fn workload() -> (SequencingGraph, ComponentSet, Schedule) {
        let mut b = SequencingGraph::builder();
        let m0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(6.0));
        let h0 = b.operation(OperationKind::Heat, Duration::from_secs(3), d_wash(0.2));
        let m1 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let h1 = b.operation(OperationKind::Heat, Duration::from_secs(3), d_wash(0.2));
        b.edge(m0, h0).unwrap();
        b.edge(m1, h1).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 2, 0, 0).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &comps,
            &LogLinearWash::paper_calibrated(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        (g, comps, s)
    }

    #[test]
    fn netlist_aggregates_pairs() {
        let (g, _comps, s) = workload();
        let nets = NetList::build(&s, &g, &LogLinearWash::paper_calibrated(), 0.6, 0.4);
        // Two transports (mix->heat twice) between distinct pairs.
        assert_eq!(nets.len(), 2);
        for n in nets.nets() {
            assert!(n.a < n.b);
            assert_eq!(n.tasks.len(), 1);
            assert!(n.priority > 0.0);
        }
    }

    #[test]
    fn concurrency_raises_priority() {
        let (g, _comps, s) = workload();
        // Both transports occupy overlapping windows, so each sees nt = 1:
        // cp = 0.6*1 + 0.4*wash. The hard-wash chain (6 s) outweighs the
        // easy one (2 s).
        let nets = NetList::build(&s, &g, &LogLinearWash::paper_calibrated(), 0.6, 0.4);
        let mut prios: Vec<f64> = nets.nets().iter().map(|n| n.priority).collect();
        prios.sort_by(f64::total_cmp);
        assert!((prios[0] - (0.6 + 0.4 * 2.0)).abs() < 1e-9, "{prios:?}");
        assert!((prios[1] - (0.6 + 0.4 * 6.0)).abs() < 1e-9, "{prios:?}");
    }

    #[test]
    fn zero_weights_zero_priority() {
        let (g, _comps, s) = workload();
        let nets = NetList::build(&s, &g, &LogLinearWash::paper_calibrated(), 0.0, 0.0);
        assert!(nets.nets().iter().all(|n| n.priority == 0.0));
    }

    #[test]
    fn energy_scales_with_distance() {
        let (g, _comps, s) = workload();
        let nets = NetList::build(&s, &g, &LogLinearWash::paper_calibrated(), 0.6, 0.4);
        let grid = GridSpec::square(24);
        let lib = ComponentLibrary::default();
        let fp = |k: ComponentKind| lib.footprint(k);
        let mixer = fp(ComponentKind::Mixer);
        let heater = fp(ComponentKind::Heater);
        // Close placement.
        let close = Placement::new(
            grid,
            vec![
                CellRect::new(CellPos::new(1, 1), mixer.width, mixer.height),
                CellRect::new(CellPos::new(1, 6), mixer.width, mixer.height),
                CellRect::new(CellPos::new(7, 1), heater.width, heater.height),
                CellRect::new(CellPos::new(7, 6), heater.width, heater.height),
            ],
        );
        // Same but heaters pushed to the far corner.
        let far = Placement::new(
            grid,
            vec![
                CellRect::new(CellPos::new(1, 1), mixer.width, mixer.height),
                CellRect::new(CellPos::new(1, 6), mixer.width, mixer.height),
                CellRect::new(CellPos::new(19, 19), heater.width, heater.height),
                CellRect::new(CellPos::new(12, 19), heater.width, heater.height),
            ],
        );
        assert!(close.is_legal() && far.is_legal());
        assert!(energy(&close, &nets) < energy(&far, &nets));
    }

    #[test]
    fn self_transports_are_skipped() {
        // One mixer: o0, o1 independent; o1 evicts o0's fluid, and o0's
        // child o2 returns it to the same mixer -> src == dst transport.
        let mut b = SequencingGraph::builder();
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d_wash(2.0));
        let _o1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d_wash(2.0));
        let o2 = b.operation(OperationKind::Mix, Duration::from_secs(3), d_wash(2.0));
        b.edge(o0, o2).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &comps,
            &LogLinearWash::paper_calibrated(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        let nets = NetList::build(&s, &g, &LogLinearWash::paper_calibrated(), 0.6, 0.4);
        for n in nets.nets() {
            assert_ne!(n.a, n.b);
        }
    }
}
