//! Property-based tests: both schedulers produce valid schedules on
//! arbitrary synthetic assays, and the engine's invariants hold.

use mfb_bench_suite::synth::SyntheticSpec;
use mfb_model::prelude::*;
use mfb_sched::prelude::*;
use proptest::prelude::*;

fn arb_alloc() -> impl Strategy<Value = Allocation> {
    (1u32..4, 1u32..3, 1u32..3, 1u32..3).prop_map(|(m, h, f, d)| Allocation::new(m, h, f, d))
}

fn arb_spec() -> impl Strategy<Value = SyntheticSpec> {
    (1usize..60, any::<u64>()).prop_map(|(n, seed)| SyntheticSpec::new(n, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn schedules_are_always_valid(spec in arb_spec(), alloc in arb_alloc()) {
        let g = spec.generate();
        let comps = alloc.instantiate(&ComponentLibrary::default());
        let wash = LogLinearWash::paper_calibrated();
        for cfg in [SchedulerConfig::paper_dcsa(), SchedulerConfig::paper_baseline()] {
            let s = schedule(&g, &comps, &wash, &cfg).unwrap();
            let v = validate(&s, &g, &comps);
            prop_assert!(v.is_empty(), "violations: {:?}", v);
        }
    }

    #[test]
    fn every_edge_has_exactly_one_delivery(spec in arb_spec(), alloc in arb_alloc()) {
        let g = spec.generate();
        let comps = alloc.instantiate(&ComponentLibrary::default());
        let wash = LogLinearWash::paper_calibrated();
        let s = schedule(&g, &comps, &wash, &SchedulerConfig::paper_dcsa()).unwrap();
        prop_assert_eq!(s.deliveries().len(), g.edge_count());
        prop_assert_eq!(
            s.transports().len() + s.in_place_count(),
            g.edge_count()
        );
    }

    #[test]
    fn cache_times_are_nonnegative_and_consistent(spec in arb_spec(), alloc in arb_alloc()) {
        let g = spec.generate();
        let comps = alloc.instantiate(&ComponentLibrary::default());
        let wash = LogLinearWash::paper_calibrated();
        let s = schedule(&g, &comps, &wash, &SchedulerConfig::paper_dcsa()).unwrap();
        let mut total = Duration::ZERO;
        for t in s.transports() {
            prop_assert!(t.arrive == t.depart + s.t_c);
            prop_assert!(t.consumed_at >= t.arrive);
            total += t.cache_time();
        }
        prop_assert_eq!(total, s.total_cache_time());
    }

    #[test]
    fn utilization_is_a_fraction(spec in arb_spec(), alloc in arb_alloc()) {
        let g = spec.generate();
        let comps = alloc.instantiate(&ComponentLibrary::default());
        let wash = LogLinearWash::paper_calibrated();
        for cfg in [SchedulerConfig::paper_dcsa(), SchedulerConfig::paper_baseline()] {
            let s = schedule(&g, &comps, &wash, &cfg).unwrap();
            let u = resource_utilization(s.op_intervals(), &comps);
            prop_assert!((0.0..=1.0).contains(&u), "u = {}", u);
        }
    }

    #[test]
    fn dcsa_completion_never_exceeds_baseline_by_much(
        spec in arb_spec(), alloc in arb_alloc()
    ) {
        // Greedy list scheduling gives no absolute guarantee, but across
        // random instances the storage-aware rule should essentially never
        // be more than a whisker worse (it can tie or win).
        let g = spec.generate();
        let comps = alloc.instantiate(&ComponentLibrary::default());
        let wash = LogLinearWash::paper_calibrated();
        let ours = schedule(&g, &comps, &wash, &SchedulerConfig::paper_dcsa()).unwrap();
        let ba = schedule(&g, &comps, &wash, &SchedulerConfig::paper_baseline()).unwrap();
        let o = ours.completion_time().as_secs_f64();
        let b = ba.completion_time().as_secs_f64();
        prop_assert!(o <= b * 1.25 + 5.0, "ours {} vs BA {}", o, b);
    }

    #[test]
    fn washes_never_overlap_ops_on_component(spec in arb_spec(), alloc in arb_alloc()) {
        let g = spec.generate();
        let comps = alloc.instantiate(&ComponentLibrary::default());
        let wash = LogLinearWash::paper_calibrated();
        let s = schedule(&g, &comps, &wash, &SchedulerConfig::paper_dcsa()).unwrap();
        for w in s.washes() {
            for op in s.ops().filter(|o| o.component == w.component) {
                prop_assert!(
                    !w.interval().overlaps(op.interval()),
                    "wash {:?} overlaps {:?}", w, op
                );
            }
        }
    }
}
