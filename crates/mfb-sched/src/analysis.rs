//! Classic scheduling analyses: ASAP/ALAP times, mobility, and parallelism
//! profiles.
//!
//! These are the standard high-level-synthesis diagnostics (De Micheli,
//! ch. 5 — the paper's reference \[11\]) adapted to the DCSA cost model:
//! edges cost the constant transport time `t_c`, and resource limits are
//! ignored (the analyses bound what *any* binding could achieve).
//!
//! Uses:
//!
//! * **mobility** (`ALAP − ASAP`) identifies the operations that determine
//!   the makespan — zero-mobility operations form the critical path(s);
//! * the **parallelism profile** upper-bounds how many components of each
//!   kind could ever be busy at once, a principled allocation guide;
//! * ASAP times lower-bound any scheduler's start times, which the test
//!   suite uses to sanity-check Algorithm 1.

use mfb_model::prelude::*;

/// Per-operation timing bounds at a fixed `t_c`, ignoring resource limits.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingAnalysis {
    /// The `t_c` the analysis was computed with.
    pub t_c: Duration,
    /// Earliest possible start per op (`OpId`-indexed).
    pub asap: Vec<Instant>,
    /// Latest start per op that still meets the critical-path makespan.
    pub alap: Vec<Instant>,
    /// The unconstrained makespan (critical path length).
    pub makespan: Duration,
}

impl TimingAnalysis {
    /// Computes ASAP/ALAP bounds for `graph` with transport cost `t_c`.
    pub fn of(graph: &SequencingGraph, t_c: Duration) -> TimingAnalysis {
        let n = graph.len();
        let mut asap = vec![Instant::ZERO; n];
        for &o in graph.topological_order() {
            let ready = graph
                .parents(o)
                .iter()
                .map(|&p| asap[p.index()] + graph.op(p).duration() + t_c)
                .max()
                .unwrap_or(Instant::ZERO);
            asap[o.index()] = ready;
        }
        let makespan = graph
            .op_ids()
            .map(|o| (asap[o.index()] + graph.op(o).duration()) - Instant::ZERO)
            .max()
            .unwrap_or(Duration::ZERO);

        let deadline = Instant::ZERO + makespan;
        let mut alap = vec![deadline; n];
        for &o in graph.topological_order().iter().rev() {
            let latest_end = graph
                .children(o)
                .iter()
                .map(|&c| alap[c.index()] - t_c)
                .min()
                .unwrap_or(deadline);
            alap[o.index()] = latest_end - graph.op(o).duration();
        }

        TimingAnalysis {
            t_c,
            asap,
            alap,
            makespan,
        }
    }

    /// Mobility (slack) of operation `op`: how far its start can slide
    /// without stretching the critical path. Zero for critical operations.
    pub fn mobility(&self, op: OpId) -> Duration {
        self.alap[op.index()] - self.asap[op.index()]
    }

    /// Operations with zero mobility — the critical path(s).
    pub fn critical_ops(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.asap.len() as u32)
            .map(OpId::new)
            .filter(|&o| self.mobility(o).is_zero())
    }
}

/// How many operations of each kind could run simultaneously under the
/// ASAP schedule — an upper bound on useful allocation, per kind
/// (`(Mix, Heat, Filter, Detect)` order).
pub fn parallelism_profile(graph: &SequencingGraph, t_c: Duration) -> [u32; 4] {
    let timing = TimingAnalysis::of(graph, t_c);
    let mut peaks = [0u32; 4];
    // Sweep over ASAP execution intervals per kind.
    for (kind_idx, peak_slot) in peaks.iter_mut().enumerate() {
        let intervals = graph
            .op_ids()
            .filter(|&o| graph.op(o).kind() as usize == kind_idx)
            .map(|o| {
                let start = timing.asap[o.index()];
                Interval::new(start, start + graph.op(o).duration())
            });
        *peak_slot = peak_overlap(intervals) as u32;
    }
    peaks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{schedule, SchedulerConfig};

    fn d() -> DiffusionCoefficient {
        DiffusionCoefficient::PROTEIN
    }

    fn t_c() -> Duration {
        Duration::from_secs(2)
    }

    fn diamond() -> SequencingGraph {
        let mut b = SequencingGraph::builder();
        let a = b.operation(OperationKind::Mix, Duration::from_secs(4), d());
        let slow = b.operation(OperationKind::Heat, Duration::from_secs(6), d());
        let fast = b.operation(OperationKind::Filter, Duration::from_secs(2), d());
        let z = b.operation(OperationKind::Mix, Duration::from_secs(4), d());
        b.edge(a, slow).unwrap();
        b.edge(a, fast).unwrap();
        b.edge(slow, z).unwrap();
        b.edge(fast, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn asap_alap_bracket_on_diamond() {
        let g = diamond();
        let t = TimingAnalysis::of(&g, t_c());
        // a: [0], slow: [6], fast: [6], z: [14]; makespan 18.
        assert_eq!(t.asap[0], Instant::ZERO);
        assert_eq!(t.asap[1], Instant::from_secs(6));
        assert_eq!(t.asap[2], Instant::from_secs(6));
        assert_eq!(t.asap[3], Instant::from_secs(14));
        assert_eq!(t.makespan, Duration::from_secs(18));
        // The fast branch has 4 s of slack; everything else is critical.
        assert_eq!(t.mobility(OpId::new(0)), Duration::ZERO);
        assert_eq!(t.mobility(OpId::new(1)), Duration::ZERO);
        assert_eq!(t.mobility(OpId::new(2)), Duration::from_secs(4));
        assert_eq!(t.mobility(OpId::new(3)), Duration::ZERO);
        let crit: Vec<_> = t.critical_ops().collect();
        assert_eq!(crit, vec![OpId::new(0), OpId::new(1), OpId::new(3)]);
    }

    #[test]
    fn asap_matches_critical_path_helper() {
        let g = diamond();
        let t = TimingAnalysis::of(&g, t_c());
        assert_eq!(t.makespan, g.critical_path(t_c()));
    }

    #[test]
    fn alap_never_precedes_asap() {
        let g = mfb_bench_suite_stub();
        let t = TimingAnalysis::of(&g, t_c());
        for o in g.op_ids() {
            assert!(t.alap[o.index()] >= t.asap[o.index()], "{o}");
        }
    }

    /// A slightly larger hand-rolled DAG (bench-suite is not a dependency
    /// of this crate's unit tests).
    fn mfb_bench_suite_stub() -> SequencingGraph {
        let mut b = SequencingGraph::builder();
        let ops: Vec<OpId> = (0..10)
            .map(|i| b.operation(OperationKind::Mix, Duration::from_secs(2 + i % 4), d()))
            .collect();
        for i in 0..9 {
            if i % 3 != 2 {
                b.edge(ops[i], ops[i + 1]).unwrap();
            }
        }
        b.edge(ops[0], ops[5]).unwrap();
        b.edge(ops[2], ops[7]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn scheduler_respects_asap_lower_bounds() {
        let g = mfb_bench_suite_stub();
        let comps = Allocation::new(3, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let wash = LogLinearWash::paper_calibrated();
        let s = schedule(
            &g,
            &comps,
            &wash,
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        let t = TimingAnalysis::of(&g, t_c());
        for o in g.op_ids() {
            // In-place deliveries skip t_c, so the true bound is the ASAP
            // time computed WITHOUT transport costs.
            let zero_tc = TimingAnalysis::of(&g, Duration::ZERO);
            assert!(
                s.op(o).start >= zero_tc.asap[o.index()],
                "{o}: scheduled before its zero-t_c ASAP"
            );
            let _ = &t;
        }
    }

    #[test]
    fn parallelism_profile_counts_kinds_separately() {
        let g = diamond();
        let p = parallelism_profile(&g, t_c());
        // The two mixes never overlap (a before z); heat and filter are
        // alone in their kinds.
        assert_eq!(p, [1, 1, 1, 0]);
    }

    #[test]
    fn wide_fan_has_high_parallelism() {
        let mut b = SequencingGraph::builder();
        let root = b.operation(OperationKind::Mix, Duration::from_secs(2), d());
        for _ in 0..5 {
            let c = b.operation(OperationKind::Heat, Duration::from_secs(3), d());
            b.edge(root, c).unwrap();
        }
        let g = b.build().unwrap();
        let p = parallelism_profile(&g, t_c());
        assert_eq!(p[1], 5, "all five heats can run simultaneously");
    }
}
