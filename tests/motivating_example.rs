//! The paper's Fig. 2(a)/Fig. 3 running example, end to end.

use mfb_bench_suite::motivating_example;
use mfb_core::prelude::*;
use mfb_model::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

#[test]
fn priority_of_o1_is_21_seconds_at_tc_2() {
    // §IV-A: "the longest path from o1 to sink is o1→o5→o7→o10→sink, and
    // the priority value of o1 is 21 if t_c = 2".
    let b = motivating_example();
    let prio = b.graph.priority_values(Duration::from_secs(2));
    assert_eq!(prio[0], Duration::from_secs(21));
}

#[test]
fn o1_residue_needs_ten_seconds_of_washing() {
    // Fig. 3(a): "it takes 10 s to wash the residue left by o1".
    let b = motivating_example();
    let d = b.graph.op(OpId::new(0)).output_diffusion();
    assert_eq!(wash().wash_time(d), Duration::from_secs(10));
}

#[test]
fn five_components_execute_the_assay() {
    let b = motivating_example();
    assert_eq!(b.allocation.total(), 5);
    let comps = b.components(&ComponentLibrary::default());
    assert!(comps.covers(b.graph.ops().map(|o| o.kind())));
}

#[test]
fn storage_aware_flow_beats_baseline_like_fig3() {
    // Fig. 3 contrasts a 37 s / 62 % schedule against a 24 s / 82 % one.
    // Exact numbers depend on the unpublished operation durations; the
    // relationship — shorter makespan, higher utilization — must hold.
    let b = motivating_example();
    let comps = b.components(&ComponentLibrary::default());
    let ours = Synthesizer::paper_dcsa()
        .synthesize(&b.graph, &comps, &wash())
        .unwrap();
    let ba = Synthesizer::paper_baseline()
        .synthesize(&b.graph, &comps, &wash())
        .unwrap();

    let mo = SolutionMetrics::of(&ours, &comps);
    let mb = SolutionMetrics::of(&ba, &comps);
    assert!(
        mo.execution_time <= mb.execution_time,
        "ours {} vs BA {}",
        mo.execution_time,
        mb.execution_time
    );
    assert!(
        mo.utilization >= mb.utilization,
        "ours {:.3} vs BA {:.3}",
        mo.utilization,
        mb.utilization
    );
}

#[test]
fn both_solutions_replay_cleanly() {
    let b = motivating_example();
    let comps = b.components(&ComponentLibrary::default());
    for synth in [Synthesizer::paper_dcsa(), Synthesizer::paper_baseline()] {
        let sol = synth.synthesize(&b.graph, &comps, &wash()).unwrap();
        let report = sol.verify(&b.graph, &comps, &wash());
        assert!(report.is_valid(), "{:?}", report.violations);
    }
}

#[test]
fn storage_aware_flow_uses_case1() {
    let b = motivating_example();
    let comps = b.components(&ComponentLibrary::default());
    let sol = Synthesizer::paper_dcsa()
        .synthesize(&b.graph, &comps, &wash())
        .unwrap();
    assert!(
        sol.schedule.in_place_count() > 0,
        "the running example is built to reward Case-I reuse"
    );
}

/// The "Measured" column of EXPERIMENTS.md's running-example table, as
/// printed from the synthesized solutions, one table row per line.
fn measured_rows() -> String {
    let b = motivating_example();
    let comps = b.components(&ComponentLibrary::default());
    let prio = b.graph.priority_values(Duration::from_secs(2))[0];
    let o1_wash = wash().wash_time(b.graph.op(OpId::new(0)).output_diffusion());
    let flow = |synth: Synthesizer| {
        let sol = synth.synthesize(&b.graph, &comps, &wash()).unwrap();
        let m = SolutionMetrics::of(&sol, &comps);
        format!(
            "{:.0} s / {:.1} %",
            m.execution_time.as_secs_f64(),
            m.utilization * 100.0
        )
    };
    format!(
        "| priority value of `o1` at `t_c = 2 s` | 21 s | **{:.0} s** (pinned by test) |\n\
         | wash time of `o1` residue | 10 s | **{:.0} s** (pinned by test) |\n\
         | storage-aware schedule: makespan / `U_r` | 24 s / 82 % | **{}** |\n\
         | baseline-style schedule: makespan / `U_r` | 37 s / 62 % | **{}** |\n",
        prio.as_secs_f64(),
        o1_wash.as_secs_f64(),
        flow(Synthesizer::paper_dcsa()),
        flow(Synthesizer::paper_baseline()),
    )
}

#[test]
fn published_running_example_matches_the_printer() {
    let doc = include_str!("../EXPERIMENTS.md");
    let section = &doc[doc.find("## Running example").expect("section exists")..];
    let table = &section[section.find("| Quantity |").expect("the table exists")..];
    let rows: String = table
        .lines()
        .skip(2) // header and separator
        .take_while(|l| l.starts_with('|'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        rows,
        measured_rows(),
        "EXPERIMENTS.md's running example is stale: regenerate it with `mfb motivating`"
    );
}
