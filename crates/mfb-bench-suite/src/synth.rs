//! Seeded synthetic bioassay generator.
//!
//! The paper's four synthetic benchmarks (20/30/40/50 operations) come from
//! an unpublished generator, so we rebuild one: a layered random DAG
//! generator in the style used throughout the high-level-synthesis
//! literature. Everything is driven by an explicit seed, so a given
//! [`SyntheticSpec`] always produces the same graph — benchmarks are data,
//! not randomness.
//!
//! Structure produced:
//!
//! * operations are spread over `depth` layers; layer 0 operations are
//!   sources (fed from chip inlets), every later operation draws one or two
//!   parents from earlier layers (biased towards the previous layer, which
//!   yields the long dependency chains that make scheduling interesting);
//! * mix operations take two parents where possible, others take one;
//! * detect operations are confined to the final third of the layers
//!   (detection concludes an assay, it does not feed reactions);
//! * operation kinds are drawn with probabilities proportional to the
//!   benchmark's component allocation, so every allocated component kind
//!   sees work;
//! * execution times and wash times are drawn uniformly from per-kind
//!   ranges representative of the literature (mix 3–6 s, heat 2–4 s,
//!   filter 3–5 s, detect 3–5 s; wash 0.2–10 s log-uniform in the diffusion
//!   coefficient).

use mfb_model::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic bioassay. Construct with [`SyntheticSpec::new`],
/// customise with the builder-style setters, then call
/// [`generate`](SyntheticSpec::generate).
///
/// # Examples
///
/// ```
/// use mfb_bench_suite::synth::SyntheticSpec;
///
/// let g = SyntheticSpec::new(25, 42).generate();
/// assert_eq!(g.len(), 25);
/// // Same spec, same graph:
/// assert_eq!(g, SyntheticSpec::new(25, 42).generate());
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    ops: usize,
    seed: u64,
    depth: usize,
    kind_weights: [u32; 4],
    name: String,
}

impl SyntheticSpec {
    /// A spec for `ops` operations with the given seed and defaults:
    /// depth `clamp(ops / 4, 4, 12)`, kind weights `(4, 2, 2, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is zero.
    pub fn new(ops: usize, seed: u64) -> Self {
        assert!(ops > 0, "a bioassay needs at least one operation");
        SyntheticSpec {
            ops,
            seed,
            depth: (ops / 4).clamp(4, 12).min(ops),
            kind_weights: [4, 2, 2, 1],
            name: format!("synthetic-{ops}-{seed:#x}"),
        }
    }

    /// Sets the number of layers (the depth of the DAG).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds the operation count.
    pub fn depth(mut self, depth: usize) -> Self {
        assert!(depth > 0 && depth <= self.ops, "depth must be in 1..=ops");
        self.depth = depth;
        self
    }

    /// Sets the relative frequency of (mix, heat, filter, detect) operations.
    /// A zero weight bans the kind entirely. Typically derived from the
    /// component allocation so every allocated component kind sees work.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero.
    pub fn kind_weights(mut self, weights: [u32; 4]) -> Self {
        assert!(
            weights.iter().any(|&w| w > 0),
            "at least one kind weight must be positive"
        );
        self.kind_weights = weights;
        self
    }

    /// Sets the graph name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Generates the bioassay. Deterministic in the spec.
    pub fn generate(&self) -> SequencingGraph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let wash_model = LogLinearWash::paper_calibrated();

        // Assign each operation to a layer: every layer gets at least one
        // operation, the rest are spread at random.
        let mut layer_of = vec![0usize; self.ops];
        for (i, slot) in layer_of.iter_mut().enumerate().take(self.depth) {
            *slot = i;
        }
        for slot in layer_of.iter_mut().skip(self.depth) {
            *slot = rng.gen_range(0..self.depth);
        }
        layer_of.sort_unstable();

        // Draw a kind for each operation. Detects only in the last third.
        let detect_from_layer = self.depth.saturating_sub(self.depth / 3).max(1);
        let kinds: Vec<OperationKind> = layer_of
            .iter()
            .map(|&layer| loop {
                let k = self.draw_kind(&mut rng);
                if k != OperationKind::Detect || layer >= detect_from_layer {
                    break k;
                }
            })
            .collect();

        let mut b = SequencingGraph::builder();
        b.name(self.name.clone());
        let ids: Vec<OpId> = kinds
            .iter()
            .map(|&k| {
                let dur = Duration::from_secs(match k {
                    OperationKind::Mix => rng.gen_range(3..=6),
                    OperationKind::Heat => rng.gen_range(2..=4),
                    OperationKind::Filter => rng.gen_range(3..=5),
                    OperationKind::Detect => rng.gen_range(3..=5),
                });
                // Log-uniform diffusion over the wash range 0.2 s … 10 s.
                let wash_secs = rng.gen_range(0.2f64..=10.0f64);
                let d = wash_model.coefficient_for(Duration::from_secs_f64(wash_secs));
                b.operation(k, dur, d)
            })
            .collect();

        // Wire parents: ops in layer 0 are sources; later ops take parents
        // from earlier layers, biased to the immediately preceding layer.
        for i in 0..self.ops {
            let layer = layer_of[i];
            if layer == 0 {
                continue;
            }
            let fan_in = if kinds[i] == OperationKind::Mix { 2 } else { 1 };
            for _ in 0..fan_in {
                // 75%: previous layer; 25%: any earlier layer.
                let parent_layer = if layer == 1 || rng.gen_bool(0.75) {
                    layer - 1
                } else {
                    rng.gen_range(0..layer - 1)
                };
                let lo = layer_of.partition_point(|&l| l < parent_layer);
                let hi = layer_of.partition_point(|&l| l <= parent_layer);
                debug_assert!(lo < hi, "every layer is populated");
                // Detection concludes an assay: avoid detect parents
                // (fall back after a few tries if the layer is all detects).
                let mut parent = rng.gen_range(lo..hi);
                for _ in 0..8 {
                    if kinds[parent] != OperationKind::Detect {
                        break;
                    }
                    parent = rng.gen_range(lo..hi);
                }
                // Duplicate edges are rejected by the builder; skip quietly.
                let _ = b.edge(ids[parent], ids[i]);
            }
        }

        b.build()
            .expect("layered construction cannot create cycles")
    }

    fn draw_kind(&self, rng: &mut StdRng) -> OperationKind {
        let total: u32 = self.kind_weights.iter().sum();
        let mut roll = rng.gen_range(0..total);
        for (k, &w) in OperationKind::ALL.iter().zip(&self.kind_weights) {
            if roll < w {
                return *k;
            }
            roll -= w;
        }
        unreachable!("weights sum covers the roll")
    }
}

/// The paper's synthetic benchmark `index` (1–4): 20/30/40/50 operations,
/// kind mix matching the Table-I allocations `(3,3,2,1)`, `(5,2,2,2)`,
/// `(6,4,4,2)`, `(7,4,4,3)`.
///
/// # Panics
///
/// Panics if `index` is not in `1..=4`.
pub fn table1_synthetic(index: u32) -> SequencingGraph {
    let (ops, weights) = match index {
        1 => (20, [3, 3, 2, 1]),
        2 => (30, [5, 2, 2, 2]),
        3 => (40, [6, 4, 4, 2]),
        4 => (50, [7, 4, 4, 3]),
        _ => panic!("synthetic benchmark index must be 1..=4, got {index}"),
    };
    SyntheticSpec::new(ops, 0x5EF1_0000 + u64::from(index))
        .kind_weights(weights)
        .name(format!("Synthetic{index}"))
        .generate()
}

/// The dense stress assay **Synthetic5**: 100 operations, twice the paper's
/// largest workload. Not part of Table I — it extends the suite so routers
/// can be exercised on a rung where channel congestion actually bites.
/// Seeded like its Table-I siblings, so every run sees the identical graph.
///
/// The depth is pinned at 19 layers: shallower DAGs pack so much
/// per-layer concurrency (and deeper ones so much cross-layer channel
/// storage) that no grid size routes them — the congestion sits on the
/// fixed-size component access rings, which area growth cannot widen.
/// At depth 19 the assay needs two 4/3 grid-growth steps before the
/// conflict-aware router succeeds, which is exactly the hard-but-routable band
/// a congestion stress test wants.
pub fn synthetic5() -> SequencingGraph {
    SyntheticSpec::new(100, 0x5EF1_0005)
        .depth(19)
        .kind_weights([10, 5, 5, 4])
        .name("Synthetic5")
        .generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_size() {
        for n in [1, 2, 5, 17, 50] {
            let g = SyntheticSpec::new(n, 7).generate();
            assert_eq!(g.len(), n);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticSpec::new(30, 1).generate();
        let b = SyntheticSpec::new(30, 1).generate();
        assert_eq!(a, b);
        let c = SyntheticSpec::new(30, 2).generate();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn sources_exactly_layer_zero() {
        let g = SyntheticSpec::new(40, 3).generate();
        assert!(g.sources().count() >= 1);
        // All non-source ops have at least one parent by construction.
        for o in g.op_ids() {
            if g.parents(o).is_empty() {
                assert!(g.children(o).len() + 1 >= 1); // a source; trivially fine
            }
        }
    }

    #[test]
    fn respects_kind_ban() {
        let g = SyntheticSpec::new(25, 11)
            .kind_weights([1, 0, 0, 0])
            .generate();
        assert!(g.ops().all(|o| o.kind() == OperationKind::Mix));
    }

    #[test]
    fn detects_rarely_feed_operations() {
        // Parent selection retries away from detect parents; only a layer
        // made exclusively of detects can force one. Across the four
        // Table-I benchmarks that should essentially never happen.
        let mut detect_children = 0;
        for idx in 1..=4 {
            let g = table1_synthetic(idx);
            for o in g.op_ids() {
                if g.op(o).kind() == OperationKind::Detect {
                    detect_children += g.children(o).len();
                }
            }
        }
        assert_eq!(detect_children, 0, "detect operations fed other operations");
    }

    #[test]
    fn table1_sizes() {
        assert_eq!(table1_synthetic(1).len(), 20);
        assert_eq!(table1_synthetic(2).len(), 30);
        assert_eq!(table1_synthetic(3).len(), 40);
        assert_eq!(table1_synthetic(4).len(), 50);
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn table1_rejects_bad_index() {
        table1_synthetic(0);
    }

    #[test]
    fn synthetic5_is_dense_and_deterministic() {
        let g = synthetic5();
        assert_eq!(g.len(), 100);
        assert_eq!(g, synthetic5());
    }

    #[test]
    fn depth_setter_bounds_depth() {
        let g = SyntheticSpec::new(20, 5).depth(5).generate();
        assert!(g.depth() <= 20);
        assert!(g.depth() >= 2);
    }

    #[test]
    fn wash_times_in_range() {
        let m = LogLinearWash::paper_calibrated();
        let g = table1_synthetic(4);
        for op in g.ops() {
            let w = m.wash_time(op.output_diffusion());
            assert!(w >= Duration::from_secs_f64(0.2));
            assert!(w <= Duration::from_secs(10));
        }
    }

    #[test]
    fn mixes_tend_to_have_two_parents() {
        let g = table1_synthetic(3);
        let mut multi = 0;
        let mut mixes_nonsource = 0;
        for o in g.op_ids() {
            if g.op(o).kind() == OperationKind::Mix && !g.parents(o).is_empty() {
                mixes_nonsource += 1;
                if g.parents(o).len() == 2 {
                    multi += 1;
                }
            }
        }
        assert!(mixes_nonsource > 0);
        // Most non-source mixes have two distinct parents (duplicate draws
        // collapse occasionally).
        assert!(multi * 2 >= mixes_nonsource, "{multi}/{mixes_nonsource}");
    }
}
