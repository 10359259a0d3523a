//! **Fig. 8**: total cache time in flow channels, ours vs baseline, per
//! benchmark.
//!
//! Prints the regenerated series, then times the computation that yields
//! one bar pair (full synthesis + metric extraction) on the largest
//! benchmarks, where the figure's effect is most pronounced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mfb_bench::{benchmarks, compare_all, wash};
use mfb_core::prelude::*;
use mfb_model::prelude::*;

fn print_fig8_once() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        println!("\n=== Reproduced Fig. 8 ===");
        let rows = compare_all().expect("Table-I benchmarks synthesize");
        print!("{}", fig8_text(&rows));
        println!();
    });
}

fn bench_fig8(c: &mut Criterion) {
    print_fig8_once();
    let lib = ComponentLibrary::default();
    let wash = wash();
    let mut group = c.benchmark_group("fig8_cache_time");
    group.sample_size(10);
    for b in benchmarks()
        .into_iter()
        .filter(|b| matches!(b.name, "CPA" | "Synthetic2" | "Synthetic4"))
    {
        let comps = b.allocation.instantiate(&lib);
        group.bench_with_input(BenchmarkId::from_parameter(b.name), &b, |bench, b| {
            bench.iter(|| {
                let sol = Synthesizer::paper_dcsa()
                    .synthesize(&b.graph, &comps, &wash)
                    .expect("synthesizes");
                SolutionMetrics::of(&sol, &comps).cache_time
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
