//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **Case-I binding** (reuse the component holding a parent fluid) —
//!   variant `no-case1` falls back to earliest-ready binding;
//! * **diffusion-aware Case-I preference** (pick the hardest-to-wash
//!   parent) — variant `case1-any` picks an arbitrary parent;
//! * **wash-aware routing weights** (Fig. 7 cell weights) — variant
//!   `no-weights` routes with uniform weights.
//!
//! Prints the quality impact per variant on the stress benchmarks, then
//! times each variant's full synthesis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mfb_bench::{ablation_variants, benchmarks, wash};
use mfb_core::prelude::*;
use mfb_model::prelude::*;

fn print_quality_once() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let lib = ComponentLibrary::default();
        let wash = wash();
        println!("\n=== Ablation quality (CPA, Synthetic4) ===");
        println!(
            "{:<12} {:>12} {:>9} {:>9} {:>12} {:>10}",
            "Benchmark", "Variant", "Exec(s)", "Util(%)", "Channel(mm)", "Wash(s)"
        );
        for b in benchmarks()
            .into_iter()
            .filter(|b| matches!(b.name, "CPA" | "Synthetic4"))
        {
            let comps = b.allocation.instantiate(&lib);
            for (name, cfg) in ablation_variants() {
                match Synthesizer::new(cfg).synthesize(&b.graph, &comps, &wash) {
                    Ok(sol) => {
                        let m = SolutionMetrics::of(&sol, &comps);
                        println!(
                            "{:<12} {:>12} {:>9.0} {:>9.1} {:>12.0} {:>10.1}",
                            b.name,
                            name,
                            m.execution_time.as_secs_f64(),
                            m.utilization * 100.0,
                            m.channel_length_mm,
                            m.channel_wash_time.as_secs_f64()
                        );
                    }
                    Err(e) => println!(
                        "{:<12} {:>12}   unroutable even with 64 placements ({e})",
                        b.name, name
                    ),
                }
            }
        }
        println!();
    });
}

fn bench_ablation(c: &mut Criterion) {
    print_quality_once();
    let lib = ComponentLibrary::default();
    let wash = wash();
    let cpa = benchmarks().into_iter().find(|b| b.name == "CPA").unwrap();
    let comps = cpa.allocation.instantiate(&lib);
    let mut group = c.benchmark_group("ablation_cpa");
    group.sample_size(10);
    for (name, cfg) in ablation_variants() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |bench, cfg| {
            bench.iter(|| {
                Synthesizer::new(cfg.clone())
                    .synthesize(&cpa.graph, &comps, &wash)
                    .expect("synthesizes")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
