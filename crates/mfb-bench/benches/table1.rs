//! **Table I**: execution time, resource utilization, total channel length
//! and CPU time for every benchmark under both flows.
//!
//! The harness first prints the regenerated table (the paper's rows), then
//! times full synthesis per benchmark per flow — the timing *is* the
//! table's CPU-time column pair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mfb_bench::{benchmarks, compare_all, wash};
use mfb_core::prelude::*;
use mfb_model::prelude::*;

fn print_table1_once() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        println!("\n=== Reproduced Table I ===");
        let rows = compare_all().expect("Table-I benchmarks synthesize");
        print!("{}", table1_text(&rows));
        println!();
    });
}

fn bench_table1(c: &mut Criterion) {
    print_table1_once();
    let lib = ComponentLibrary::default();
    let wash = wash();
    let mut group = c.benchmark_group("table1_synthesis");
    group.sample_size(10);
    for b in benchmarks() {
        let comps = b.allocation.instantiate(&lib);
        group.bench_with_input(BenchmarkId::new("ours", b.name), &b, |bench, b| {
            bench.iter(|| {
                Synthesizer::paper_dcsa()
                    .synthesize(&b.graph, &comps, &wash)
                    .expect("synthesizes")
            })
        });
        group.bench_with_input(BenchmarkId::new("ba", b.name), &b, |bench, b| {
            bench.iter(|| {
                Synthesizer::paper_baseline()
                    .synthesize(&b.graph, &comps, &wash)
                    .expect("synthesizes")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
