//! Scheduler behaviour on the paper's Table-I benchmarks.

use mfb_bench_suite::{motivating_example, table1_benchmarks};
use mfb_model::prelude::*;
use mfb_sched::prelude::*;

/// [`schedule`] with the paper's wash model on an undamaged chip.
fn schedule_on(
    graph: &SequencingGraph,
    comps: &ComponentSet,
    cfg: &SchedulerConfig,
) -> Result<Schedule, SchedError> {
    schedule(graph, comps, &wash(), cfg, &DefectMap::pristine())
}

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

#[test]
fn both_schedulers_produce_valid_schedules_on_all_benchmarks() {
    let lib = ComponentLibrary::default();
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        for cfg in [
            SchedulerConfig::paper_dcsa(),
            SchedulerConfig::paper_baseline(),
        ] {
            let s = schedule_on(&b.graph, &comps, &cfg).unwrap();
            let v = validate(&s, &b.graph, &comps);
            assert!(v.is_empty(), "{}: violations {v:?}", b.name);
        }
    }
}

#[test]
fn dcsa_never_loses_to_baseline_on_completion_time() {
    let lib = ComponentLibrary::default();
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        let ours = schedule_on(&b.graph, &comps, &SchedulerConfig::paper_dcsa()).unwrap();
        let ba = schedule_on(&b.graph, &comps, &SchedulerConfig::paper_baseline()).unwrap();
        assert!(
            ours.completion_time() <= ba.completion_time(),
            "{}: ours {} vs BA {}",
            b.name,
            ours.completion_time(),
            ba.completion_time()
        );
    }
}

#[test]
fn dcsa_improves_on_larger_benchmarks() {
    // The paper's shape: PCR/IVD tie; CPA and the synthetics improve.
    let lib = ComponentLibrary::default();
    let mut improvements = Vec::new();
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        let ours = schedule_on(&b.graph, &comps, &SchedulerConfig::paper_dcsa()).unwrap();
        let ba = schedule_on(&b.graph, &comps, &SchedulerConfig::paper_baseline()).unwrap();
        let o = ours.completion_time().as_secs_f64();
        let a = ba.completion_time().as_secs_f64();
        improvements.push((b.name, (a - o) / a));
    }
    let improved = improvements.iter().filter(|(_, imp)| *imp > 0.0).count();
    assert!(
        improved >= 3,
        "expected several benchmarks to improve, got {improvements:?}"
    );
}

#[test]
fn dcsa_reduces_cache_time_overall() {
    let lib = ComponentLibrary::default();
    let mut ours_total = Duration::ZERO;
    let mut ba_total = Duration::ZERO;
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        let ours = schedule_on(&b.graph, &comps, &SchedulerConfig::paper_dcsa()).unwrap();
        let ba = schedule_on(&b.graph, &comps, &SchedulerConfig::paper_baseline()).unwrap();
        ours_total += ours.total_cache_time();
        ba_total += ba.total_cache_time();
    }
    assert!(
        ours_total <= ba_total,
        "total cache time: ours {ours_total} vs BA {ba_total}"
    );
}

#[test]
fn dcsa_uses_in_place_deliveries_on_real_assays() {
    let lib = ComponentLibrary::default();
    for name in ["PCR", "CPA"] {
        let b = table1_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap();
        let comps = b.components(&lib);
        let s = schedule_on(&b.graph, &comps, &SchedulerConfig::paper_dcsa()).unwrap();
        assert!(
            s.in_place_count() > 0,
            "{name}: expected Case-I in-place deliveries"
        );
    }
}

#[test]
fn motivating_example_dcsa_beats_baseline() {
    let b = motivating_example();
    let comps = b.components(&ComponentLibrary::default());
    let ours = schedule_on(&b.graph, &comps, &SchedulerConfig::paper_dcsa()).unwrap();
    let ba = schedule_on(&b.graph, &comps, &SchedulerConfig::paper_baseline()).unwrap();
    assert!(ours.completion_time() <= ba.completion_time());
    // The paper's Fig. 3 contrast: the storage-aware schedule achieves
    // higher resource utilization.
    let u_ours = resource_utilization(ours.op_intervals(), &comps);
    let u_ba = resource_utilization(ba.op_intervals(), &comps);
    assert!(
        u_ours >= u_ba,
        "utilization: ours {u_ours:.3} vs BA {u_ba:.3}"
    );
}

#[test]
fn schedules_are_deterministic() {
    let lib = ComponentLibrary::default();
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        let a = schedule_on(&b.graph, &comps, &SchedulerConfig::paper_dcsa()).unwrap();
        let c = schedule_on(&b.graph, &comps, &SchedulerConfig::paper_dcsa()).unwrap();
        assert_eq!(a, c, "{} schedule not deterministic", b.name);
    }
}

#[test]
fn completion_respects_critical_path_lower_bound() {
    let lib = ComponentLibrary::default();
    for b in table1_benchmarks() {
        let comps = b.components(&lib);
        for cfg in [
            SchedulerConfig::paper_dcsa(),
            SchedulerConfig::paper_baseline(),
        ] {
            let s = schedule_on(&b.graph, &comps, &cfg).unwrap();
            // The critical path assumes every edge pays t_c; in-place
            // deliveries can only shorten it, so use the zero-transport
            // bound instead.
            let lower = b.graph.critical_path(Duration::ZERO);
            assert!(
                s.completion_time().as_ticks() >= lower.as_ticks(),
                "{}: completion below critical path",
                b.name
            );
        }
    }
}
