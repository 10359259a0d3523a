//! **Fig. 9**: total wash time of flow channels, ours vs baseline, per
//! benchmark.
//!
//! Prints the regenerated series, then times the wash-accounting path
//! (synthesis + channel-wash aggregation) on the wash-heavy benchmarks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mfb_bench::{benchmarks, compare_all, wash};
use mfb_core::prelude::*;
use mfb_model::prelude::*;

fn print_fig9_once() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        println!("\n=== Reproduced Fig. 9 ===");
        let rows = compare_all().expect("Table-I benchmarks synthesize");
        print!("{}", fig9_text(&rows));
        println!();
    });
}

fn bench_fig9(c: &mut Criterion) {
    print_fig9_once();
    let lib = ComponentLibrary::default();
    let wash = wash();
    let mut group = c.benchmark_group("fig9_wash_time");
    group.sample_size(10);
    for b in benchmarks()
        .into_iter()
        .filter(|b| matches!(b.name, "CPA" | "Synthetic3" | "Synthetic4"))
    {
        let comps = b.allocation.instantiate(&lib);
        group.bench_with_input(BenchmarkId::from_parameter(b.name), &b, |bench, b| {
            bench.iter(|| {
                let sol = Synthesizer::paper_baseline()
                    .synthesize(&b.graph, &comps, &wash)
                    .expect("synthesizes");
                sol.routing.total_channel_wash_time()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
