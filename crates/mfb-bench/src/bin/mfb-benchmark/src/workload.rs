//! The five workloads and their seeded inputs.
//!
//! Inputs are `.assay` DSL text, the form every user surface accepts, so
//! set-up parses them exactly like `mfb run-file`, batch manifests and
//! serve do. Every generated assay and SA seed derives from one fixed
//! generator stream through [`mix`]; the workload seed orders the set.

use crate::stats::mix;
use mfb_bench_suite::synth::SyntheticSpec;
use mfb_bench_suite::table1_benchmarks;
use mfb_core::prelude::*;
use mfb_model::prelude::*;

/// One benchmark workload. Each stresses a different layer; the README
/// records why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-I-sized assays, mostly routed on the first attempt.
    Small,
    /// Synthetic4-sized assays where routing and retries dominate.
    Dense,
    /// Archived solutions re-checked: parse, decode, replay, DRC, analyze.
    Verify,
    /// Batches through a fresh stage cache each pass.
    Batch,
    /// The same batches through an already populated stage cache.
    Warm,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Small,
        Workload::Dense,
        Workload::Verify,
        Workload::Batch,
        Workload::Warm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Small => "small",
            Workload::Dense => "dense",
            Workload::Verify => "verify",
            Workload::Batch => "batch",
            Workload::Warm => "warm",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One synthesis request as a user would submit it.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    pub name: String,
    /// `.assay` text, including its `alloc` line.
    pub text: String,
    /// Transport time `t_c`, seconds.
    pub t_c_secs: u64,
    /// Base annealing seed.
    pub sa_seed: u64,
}

/// A parsed, ready-to-run request.
#[derive(Debug, Clone)]
pub struct Job {
    pub name: String,
    pub graph: SequencingGraph,
    pub components: ComponentSet,
    pub synth: Synthesizer,
}

/// A family of seeded generated assays: operation count, DAG depth, kind
/// weights and the Table-I allocation they run on.
#[derive(Debug, Clone, Copy)]
struct Shape {
    ops: usize,
    depth: usize,
    weights: [u32; 4],
}

impl Shape {
    /// The allocation mirrors the kind weights, as Table I pairs them.
    fn allocation(self) -> Allocation {
        let [m, h, f, d] = self.weights;
        Allocation::new(m, h, f, d)
    }
}

/// Synthetic1–3 of Table I: 20, 30 and 40 operations at the generator's
/// default depth.
const SYNTH1: Shape = Shape {
    ops: 20,
    depth: 5,
    weights: [3, 3, 2, 1],
};
const SYNTH2: Shape = Shape {
    ops: 30,
    depth: 7,
    weights: [5, 2, 2, 2],
};
const SYNTH3: Shape = Shape {
    ops: 40,
    depth: 10,
    weights: [6, 4, 4, 2],
};
/// Synthetic4 of Table I: 50 operations, depth 12.
const SYNTH4: Shape = Shape {
    ops: 50,
    depth: 12,
    weights: [7, 4, 4, 3],
};

fn generated(shape: Shape, seed: u64, name: String) -> String {
    let graph = SyntheticSpec::new(shape.ops, seed)
        .depth(shape.depth)
        .kind_weights(shape.weights)
        .name(name)
        .generate();
    write_assay(&graph, Some(shape.allocation()))
}

/// What the `i`-th request of a closed-loop stream synthesizes.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A Table-I assay, by name; only its annealing seed varies.
    Fixed(&'static str),
    /// A freshly generated assay of this shape.
    Generated(Shape),
}

/// `count` requests cycling through `kinds`, each with its own annealing
/// seed (and, for generated kinds, its own assay).
fn cycle(seed: u64, count: usize, kinds: &[Kind]) -> Vec<Input> {
    let benches = table1_benchmarks();
    (0..count)
        .map(|i| {
            let stream = 2 * i as u64;
            let (name, text) = match kinds[i % kinds.len()] {
                Kind::Fixed(bench) => {
                    let b = benches
                        .iter()
                        .find(|b| b.name == bench)
                        .expect("Table-I benchmark names are fixed");
                    (
                        format!("{bench}-{i}"),
                        write_assay(&b.graph, Some(b.allocation)),
                    )
                }
                Kind::Generated(shape) => {
                    let name = format!("gen{}-{i}", shape.ops);
                    let text = generated(shape, mix(seed, stream), name.clone());
                    (name, text)
                }
            };
            Input {
                name,
                text,
                t_c_secs: 2,
                sa_seed: mix(seed, stream + 1),
            }
        })
        .collect()
}

/// Generator stream of every workload's input set. The set is fixed, so
/// that every workload seed measures the same work: with a fresh set per
/// seed the end-to-end medians spread 6–35% (interquartile range over ten
/// seeds), more than any useful regression bound. Stream 1 is used because
/// every one of its requests routes within the flow's attempt budget.
const UNIVERSE: u64 = 1;

/// The inputs of `workload` in the order `seed` gives them: `count`
/// requests for the closed-loop workloads, `count` archive sources for
/// `verify`, and a batch job list for `batch` and `warm` (`count` distinct
/// jobs, every fourth listed twice). The seed shuffles the fixed set; for
/// a batch list the order decides which repeats hit the cache and which
/// jobs overlap in the pipeline.
pub fn inputs(workload: Workload, seed: u64, count: usize) -> Vec<Input> {
    use Kind::{Fixed, Generated};
    let mut list = match workload {
        Workload::Small => cycle(
            UNIVERSE,
            count,
            &[
                Fixed("PCR"),
                Fixed("IVD"),
                Fixed("CPA"),
                Generated(SYNTH1),
                Generated(SYNTH2),
                Generated(SYNTH3),
            ],
        ),
        Workload::Dense => cycle(UNIVERSE, count, &[Fixed("Synthetic4"), Generated(SYNTH4)]),
        Workload::Verify => cycle(UNIVERSE, count, &[Generated(SYNTH2), Generated(SYNTH3)]),
        Workload::Batch | Workload::Warm => batch_list(UNIVERSE, count),
    };
    // Fisher–Yates with the seeded stream.
    for i in (1..list.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        list.swap(i, j);
    }
    list
}

/// Batch jobs: bases (the seven Table-I assays plus generated Synthetic1–3
/// shapes) crossed with `t_c` ∈ {2 s, 3 s} and SA seed ∈ 0..4, truncated to
/// `distinct` jobs, every fourth listed twice. Repeats let a cold pass hit
/// its own cache, and the four SA-seed variants of one assay and `t_c`
/// share a schedule and netlist; keeping repeats a minority keeps the
/// latency percentiles inside the jobs the pass computes.
fn batch_list(seed: u64, distinct: usize) -> Vec<Input> {
    let mut bases: Vec<(String, String)> = table1_benchmarks()
        .into_iter()
        .map(|b| {
            (
                b.name.to_string(),
                write_assay(&b.graph, Some(b.allocation)),
            )
        })
        .collect();
    let per_base = 8;
    let mut g = 0;
    while bases.len() * per_base < distinct {
        let shape = [SYNTH1, SYNTH2, SYNTH3][g % 3];
        let name = format!("gen{}-{g}", shape.ops);
        bases.push((
            name.clone(),
            generated(shape, mix(seed, 2 * g as u64), name),
        ));
        g += 1;
    }
    let mut jobs: Vec<Input> = bases
        .iter()
        .flat_map(|(name, text)| {
            [2, 3].into_iter().flat_map(move |t_c_secs| {
                (0..per_base as u64 / 2).map(move |sa_seed| Input {
                    name: format!("{name}/tc{t_c_secs}/s{sa_seed}"),
                    text: text.clone(),
                    t_c_secs,
                    sa_seed,
                })
            })
        })
        .take(distinct)
        .collect();
    let repeats: Vec<Input> = jobs.iter().step_by(4).cloned().collect();
    jobs.extend(repeats);
    jobs
}

/// Parses one request the way `mfb run-file` does: DSL text to graph and
/// allocation, allocation to components, `t_c` and seed into the paper's
/// flow configuration.
pub fn parse(input: &Input) -> Result<Job, String> {
    let file = parse_assay(&input.text).map_err(|e| format!("{}: {e}", input.name))?;
    let allocation = file
        .allocation
        .ok_or_else(|| format!("{}: no alloc line", input.name))?;
    let mut config = SynthesisConfig::paper_dcsa().with_seed(input.sa_seed);
    config.t_c = Duration::from_secs(input.t_c_secs);
    Ok(Job {
        name: input.name.clone(),
        graph: file.graph,
        components: allocation.instantiate(&ComponentLibrary::default()),
        synth: Synthesizer::new(config),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn as_set(list: &[Input]) -> Vec<(String, String, u64, u64)> {
        let mut set: Vec<_> = list
            .iter()
            .map(|i| (i.name.clone(), i.text.clone(), i.t_c_secs, i.sa_seed))
            .collect();
        set.sort();
        set
    }

    #[test]
    fn a_seed_fixes_the_order_of_one_input_set() {
        for w in Workload::ALL {
            let a = inputs(w, 1, 12);
            assert_eq!(a, inputs(w, 1, 12), "{}", w.name());
            let b = inputs(w, 2, 12);
            assert_ne!(a, b, "{}: seeds must order the set differently", w.name());
            assert_eq!(as_set(&a), as_set(&b), "{}", w.name());
        }
    }

    #[test]
    fn every_input_parses() {
        for w in Workload::ALL {
            for input in inputs(w, 3, 12) {
                let job = parse(&input).expect("generated inputs parse");
                assert!(job.components.covers(job.graph.ops().map(|o| o.kind())));
            }
        }
    }

    #[test]
    fn batch_lists_repeat_every_fourth_distinct_job() {
        let list = inputs(Workload::Batch, 5, 60);
        assert_eq!(list.len(), 75);
        let twice = list
            .iter()
            .filter(|i| list.iter().filter(|j| j.name == i.name).count() == 2)
            .count();
        assert_eq!(twice, 30);
        // 60 distinct jobs over 8 per base: the 7 Table-I bases plus one
        // generated base.
        assert!(list.iter().any(|j| j.name.starts_with("gen20-0/")));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
