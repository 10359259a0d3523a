//! Full-pipeline integration: every Table-I benchmark through both flows,
//! replay-validated and deterministic, plus the dense Synthetic5 rung
//! through the paper's flow.

use mfb_bench_suite::{dense_benchmark, table1_benchmarks};
use mfb_core::prelude::*;
use mfb_model::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

#[test]
fn every_benchmark_synthesizes_and_replays_under_both_flows() {
    let lib = ComponentLibrary::default();
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        for (flow, synth) in [
            ("ours", Synthesizer::paper_dcsa()),
            ("ba", Synthesizer::paper_baseline()),
        ] {
            let sol = synth
                .synthesize(&b.graph, &comps, &wash())
                .unwrap_or_else(|e| panic!("{} [{flow}]: {e}", b.name));
            let report = sol.verify(&b.graph, &comps, &wash());
            assert!(
                report.is_valid(),
                "{} [{flow}]: {:?}",
                b.name,
                report.violations
            );
        }
    }
}

/// The 100-op Synthetic5 rung routes only after the retry loop has grown
/// the grid; the paper's flow must still get there and replay cleanly.
#[test]
fn dense_synthetic5_synthesizes_and_replays() {
    let b = dense_benchmark();
    let comps = b.components(&ComponentLibrary::default());
    let sol = Synthesizer::paper_dcsa()
        .synthesize(&b.graph, &comps, &wash())
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let report = sol.verify(&b.graph, &comps, &wash());
    assert!(report.is_valid(), "{}: {:?}", b.name, report.violations);
    assert!(sol.attempts > 1, "{} needs retries", b.name);
}

#[test]
fn dcsa_flow_never_delays_the_schedule() {
    let lib = ComponentLibrary::default();
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        let sol = Synthesizer::paper_dcsa()
            .synthesize(&b.graph, &comps, &wash())
            .unwrap();
        assert_eq!(
            sol.routing.completion(),
            sol.schedule.completion_time(),
            "{}: the conflict-aware router must realize the schedule exactly",
            b.name
        );
        let m = SolutionMetrics::of(&sol, &comps);
        assert_eq!(m.total_delay, Duration::ZERO, "{}", b.name);
    }
}

#[test]
fn whole_flow_is_deterministic() {
    let lib = ComponentLibrary::default();
    for b in table1_benchmarks().into_iter().take(3) {
        let comps = b.components(&lib);
        let a = Synthesizer::paper_dcsa()
            .synthesize(&b.graph, &comps, &wash())
            .unwrap();
        let c = Synthesizer::paper_dcsa()
            .synthesize(&b.graph, &comps, &wash())
            .unwrap();
        assert_eq!(a.schedule, c.schedule, "{}", b.name);
        assert_eq!(a.placement, c.placement, "{}", b.name);
        assert_eq!(a.routing, c.routing, "{}", b.name);
    }
}

#[test]
fn metrics_are_internally_consistent() {
    let lib = ComponentLibrary::default();
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        let sol = Synthesizer::paper_dcsa()
            .synthesize(&b.graph, &comps, &wash())
            .unwrap();
        let m = SolutionMetrics::of(&sol, &comps);
        assert!(m.utilization > 0.0 && m.utilization <= 1.0, "{}", b.name);
        assert!(
            m.execution_time.as_secs_f64() >= b.graph.critical_path(Duration::ZERO).as_secs_f64(),
            "{}: below critical path",
            b.name
        );
        assert_eq!(
            m.transports + m.in_place,
            b.graph.edge_count(),
            "{}: every dependency delivered exactly once",
            b.name
        );
        // Channel length equals distinct cells times pitch.
        let grid = sol.placement.grid();
        assert!(
            (m.channel_length_mm - grid.cells_to_mm(sol.routing.used_cells as u64)).abs() < 1e-9,
            "{}",
            b.name
        );
    }
}

#[test]
fn schedule_validator_accepts_flow_outputs() {
    let lib = ComponentLibrary::default();
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        for synth in [Synthesizer::paper_dcsa(), Synthesizer::paper_baseline()] {
            let sol = synth.synthesize(&b.graph, &comps, &wash()).unwrap();
            let v = mfb_sched::validate::validate(&sol.schedule, &b.graph, &comps);
            assert!(v.is_empty(), "{}: {:?}", b.name, v);
        }
    }
}

#[test]
fn solutions_serialize_roundtrip() {
    let lib = ComponentLibrary::default();
    let b = &table1_benchmarks()[0];
    let comps = b.components(&lib);
    let sol = Synthesizer::paper_dcsa()
        .synthesize(&b.graph, &comps, &wash())
        .unwrap();

    // Round-trip every stage artifact through JSON: anything the flow
    // produces can be archived and reloaded bit-identically.
    let g2: SequencingGraph = json_roundtrip(&b.graph);
    assert_eq!(g2, b.graph);
    let s2: mfb_sched::prelude::Schedule = json_roundtrip(&sol.schedule);
    assert_eq!(s2, sol.schedule);
    let p2: mfb_place::prelude::Placement = json_roundtrip(&sol.placement);
    assert_eq!(p2, sol.placement);
    let r2: mfb_route::prelude::Routing = json_roundtrip(&sol.routing);
    assert_eq!(r2, sol.routing);
}

fn json_roundtrip<T: serde::Serialize + serde::de::DeserializeOwned>(value: &T) -> T {
    let text = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&text).expect("deserializes")
}
