//! The paper, stage by stage: runs the Fig. 2(a) example through every
//! phase of the top-down flow and prints what each algorithm decided —
//! a guided tour of the whole API surface.
//!
//! Run with `cargo run --release --example paper_walkthrough`.

use mfb_bench_suite::motivating_example;
use mfb_core::prelude::*;
use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_route::prelude::*;
use mfb_sched::prelude::*;
use mfb_sim::prelude::*;
use mfb_viz::prelude::*;

fn main() {
    let wash = LogLinearWash::paper_calibrated();
    let bench = motivating_example();
    let graph = &bench.graph;
    let comps = bench.components(&ComponentLibrary::default());
    // Every stage takes the chip's defects; this chip has none.
    let defects = DefectMap::pristine();

    println!("== 0. The bioassay (paper Fig. 2(a)) ==");
    println!("{graph}");
    for op in graph.ops() {
        println!("  {}  wash {}", op, wash.wash_time(op.output_diffusion()));
    }

    println!("\n== 1. Priority values (Algorithm 1, lines 1-2) ==");
    let t_c = Duration::from_secs(2);
    let prio = graph.priority_values(t_c);
    for o in graph.op_ids() {
        println!("  {}: priority {}", o, prio[o.index()]);
    }
    let timing = TimingAnalysis::of(graph, t_c);
    println!(
        "  critical path {} | critical ops: {:?}",
        timing.makespan,
        timing.critical_ops().collect::<Vec<_>>()
    );

    println!("\n== 2. Binding & scheduling (Algorithm 1) ==");
    let sched_cfg = SchedulerConfig::paper_dcsa();
    let sched = schedule(graph, &comps, &wash, &sched_cfg, &defects).expect("schedules");
    println!(
        "  completes {} | {} in-place (Case I), {} transports, cache {}",
        sched.completion_time(),
        sched.in_place_count(),
        sched.transports().len(),
        sched.total_cache_time()
    );
    println!("{}", render_gantt(&sched, &comps));

    println!("== 3. Connection priorities (Eq. (4)) and placement (Eq. (3)) ==");
    let nets = NetList::build(&sched, graph, &wash, 0.6, 0.4);
    for n in nets.nets() {
        println!("  {n}");
    }
    let (grid, sa) = (auto_grid(&comps), SaConfig::paper());
    let (placement, stats) =
        place_sa(&comps, &nets, grid, &sa, &defects, &Budget::unlimited()).expect("places");
    println!(
        "  energy {:.1} on {} ({} of {} proposals accepted)",
        energy(&placement, &nets),
        placement.grid(),
        stats.accepted,
        stats.proposals
    );

    println!("\n== 4. Conflict-free routing (Eq. (5)) ==");
    let router = RouterConfig::paper();
    let routing = route_dcsa(
        &sched,
        graph,
        &placement,
        &wash,
        &router,
        &defects,
        &Budget::unlimited(),
    )
    .expect("routes");
    println!("  {routing}");
    println!("{}", render_ascii(&placement, &comps, Some(&routing)));

    println!("== 5. Independent replay validation ==");
    let report = replay(graph, &comps, &sched, &placement, &routing, &wash);
    assert!(report.is_valid(), "{:?}", report.violations);
    println!(
        "  physically executable; peak {} parallel transports, {} channel cells",
        report.stats.peak_parallel_transports, report.stats.used_cells
    );

    println!("\n== 6. The same assay through the one-call API ==");
    let solution = Synthesizer::paper_dcsa()
        .synthesize(graph, &comps, &wash)
        .expect("synthesizes");
    let metrics = SolutionMetrics::of(&solution, &comps);
    println!(
        "  exec {} | utilization {:.1}% | channels {:.0} mm",
        metrics.execution_time,
        metrics.utilization * 100.0,
        metrics.channel_length_mm
    );
}
