//! Property-based tests for the whole-flow configuration surface: every
//! placement strategy, the channel-length cleanup, and the post-synthesis
//! audits.

use mfb_bench_suite::synth::SyntheticSpec;
use mfb_core::config::PlacementStrategy;
use mfb_core::prelude::*;
use mfb_model::prelude::*;
use proptest::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

fn instance(n: usize, seed: u64) -> (SequencingGraph, ComponentSet) {
    let g = SyntheticSpec::new(n, seed).generate();
    let comps = Allocation::new(2, 2, 2, 2).instantiate(&ComponentLibrary::default());
    (g, comps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_placement_strategy_yields_valid_solutions(
        n in 2usize..18,
        seed in any::<u64>(),
    ) {
        let (g, comps) = instance(n, seed);
        for strategy in [
            PlacementStrategy::SimulatedAnnealing,
            PlacementStrategy::Constructive,
        ] {
            let mut cfg = SynthesisConfig::paper_dcsa();
            cfg.placement = strategy;
            match Synthesizer::new(cfg).synthesize(&g, &comps, &wash()) {
                Ok(sol) => {
                    let report = sol.verify(&g, &comps, &wash());
                    prop_assert!(
                        report.is_valid(),
                        "{:?}: {:?}",
                        strategy,
                        report.violations
                    );
                }
                // The annealer's seed retries make routability effectively
                // total; the deterministic placer gets no such entropy, so
                // an occasional unroutable layout is a legitimate outcome —
                // it must surface as a clean error, never a panic or an
                // invalid solution.
                Err(e) => {
                    prop_assert!(
                        strategy != PlacementStrategy::SimulatedAnnealing,
                        "SA must stay routable: {e}"
                    );
                    prop_assert!(
                        matches!(e, SynthesisError::Route { .. }),
                        "{strategy:?}: unexpected error class {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn channel_cleanup_never_worsens_anything(
        n in 2usize..18,
        seed in any::<u64>(),
    ) {
        let (g, comps) = instance(n, seed);
        let plain = Synthesizer::paper_dcsa().synthesize(&g, &comps, &wash()).unwrap();
        let mut cfg = SynthesisConfig::paper_dcsa();
        cfg.optimize_channels = true;
        let cleaned = Synthesizer::new(cfg).synthesize(&g, &comps, &wash()).unwrap();

        let mp = SolutionMetrics::of(&plain, &comps);
        let mc = SolutionMetrics::of(&cleaned, &comps);
        prop_assert!(mc.channel_length_mm <= mp.channel_length_mm + 1e-9);
        prop_assert_eq!(mc.execution_time, mp.execution_time, "cleanup must not retime");
        prop_assert!((mc.utilization - mp.utilization).abs() < 1e-12);
        let report = cleaned.verify(&g, &comps, &wash());
        prop_assert!(report.is_valid(), "{:?}", report.violations);
    }

    #[test]
    fn transport_audit_is_internally_consistent(
        n in 2usize..18,
        seed in any::<u64>(),
        kpa in 1.0f64..100.0,
    ) {
        let (g, comps) = instance(n, seed);
        let sol = Synthesizer::paper_dcsa().synthesize(&g, &comps, &wash()).unwrap();
        let model = PressureDriven {
            pressure_kpa: kpa,
            ..PressureDriven::typical_pdms()
        };
        let audit = audit_transport_times(&sol, &model);
        prop_assert_eq!(audit.tasks.len(), sol.routing.paths.len());
        for t in &audit.tasks {
            prop_assert!(t.path_mm >= 0.0);
            prop_assert_eq!(t.budget, sol.schedule.t_c);
        }
        prop_assert_eq!(audit.is_sound(), audit.violations().count() == 0);
        // Higher pressure can only improve the worst ratio.
        let faster = PressureDriven { pressure_kpa: kpa * 2.0, ..model };
        let audit2 = audit_transport_times(&sol, &faster);
        prop_assert!(audit2.worst_ratio() <= audit.worst_ratio() + 1e-9);
    }

    #[test]
    fn area_report_is_sane(n in 2usize..18, seed in any::<u64>()) {
        let (g, comps) = instance(n, seed);
        let sol = Synthesizer::paper_dcsa().synthesize(&g, &comps, &wash()).unwrap();
        let report = area_report(&sol);
        prop_assert!(report.occupied_mm2 > 0.0);
        let f = report.savings_fraction();
        prop_assert!((0.0..1.0).contains(&f), "savings {}", f);
        if report.peak_cached_fluids == 0 {
            prop_assert_eq!(report.dedicated_storage_equivalent_mm2, 0.0);
        } else {
            prop_assert!(report.dedicated_storage_equivalent_mm2 > 0.0);
        }
    }

    #[test]
    fn event_log_matches_solution_structure(n in 2usize..18, seed in any::<u64>()) {
        let (g, comps) = instance(n, seed);
        let sol = Synthesizer::paper_dcsa().synthesize(&g, &comps, &wash()).unwrap();
        let log = mfb_sim::prelude::event_log(&sol.schedule, &sol.routing);
        // 2 events per op, 2 per transport, 2 per wash.
        let expected =
            2 * g.len() + 2 * sol.routing.paths.len() + 2 * sol.schedule.washes().len();
        prop_assert_eq!(log.len(), expected);
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }
}
