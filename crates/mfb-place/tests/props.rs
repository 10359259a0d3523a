//! Property-based tests for the placers.

use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_sched::prelude::*;
use proptest::prelude::*;

fn arb_alloc() -> impl Strategy<Value = Allocation> {
    (1u32..4, 0u32..3, 0u32..3, 0u32..3).prop_map(|(m, h, f, d)| Allocation::new(m, h, f, d))
}

/// A random schedule-derived netlist over the allocation's components.
fn netlist_for(alloc: Allocation, seed: u64) -> (ComponentSet, NetList) {
    let comps = alloc.instantiate(&ComponentLibrary::default());
    let g = mfb_bench_suite::synth::SyntheticSpec::new(12, seed).generate();
    let wash = LogLinearWash::paper_calibrated();
    // The synthetic graph may use kinds the allocation lacks; fall back to
    // a mixes-only graph in that case.
    let g = if comps.covers(g.ops().map(|o| o.kind())) {
        g
    } else {
        mfb_bench_suite::synth::SyntheticSpec::new(12, seed)
            .kind_weights([1, 0, 0, 0])
            .generate()
    };
    let s = schedule(
        &g,
        &comps,
        &wash,
        &SchedulerConfig::paper_dcsa(),
        &DefectMap::pristine(),
    )
    .unwrap();
    let nets = NetList::build(&s, &g, &wash, 0.6, 0.4);
    (comps, nets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn both_placers_produce_legal_placements(
        alloc in arb_alloc(),
        seed in any::<u64>(),
    ) {
        let (comps, nets) = netlist_for(alloc, seed);
        let grid = auto_grid(&comps);

        let sa = place_sa(&comps, &nets, grid, &SaConfig::paper(), &DefectMap::pristine(), &Budget::unlimited())
            .unwrap()
            .0;
        prop_assert!(sa.is_legal(), "SA illegal: {:?}", sa.legality_violation());

        let con = place_constructive(&comps, &nets, grid, &DefectMap::pristine()).unwrap();
        prop_assert!(con.is_legal(), "constructive illegal");
    }

    #[test]
    fn ports_are_always_routable_positions(
        alloc in arb_alloc(),
        seed in any::<u64>(),
    ) {
        let (comps, nets) = netlist_for(alloc, seed);
        let p = place_sa(&comps, &nets, auto_grid(&comps), &SaConfig::paper(), &DefectMap::pristine(), &Budget::unlimited())
            .unwrap()
            .0;
        for c in comps.ids() {
            let port = p.port(c);
            prop_assert!(p.grid().contains(port));
            prop_assert!(!p.rect(c).contains(port), "port inside own rect");
            // The port must not be inside any other component either.
            for other in comps.ids() {
                prop_assert!(!p.rect(other).contains(port));
            }
        }
    }

    #[test]
    fn rect_gap_is_symmetric_and_zero_iff_touching(
        x1 in 0u32..20, y1 in 0u32..20, w1 in 1u32..5, h1 in 1u32..5,
        x2 in 0u32..20, y2 in 0u32..20, w2 in 1u32..5, h2 in 1u32..5,
    ) {
        let a = CellRect::new(CellPos::new(x1, y1), w1, h1);
        let b = CellRect::new(CellPos::new(x2, y2), w2, h2);
        prop_assert_eq!(rect_gap(a, b), rect_gap(b, a));
        if a.intersects(b) {
            prop_assert_eq!(rect_gap(a, b), 0);
        }
        // Gap 0 means the 1-inflated rects intersect (adjacent or closer).
        if rect_gap(a, b) == 0 {
            prop_assert!(a.inflated(1).intersects(b) || a.intersects(b));
        }
    }

    #[test]
    fn spacing_penalty_is_monotone_in_weight(
        alloc in arb_alloc(),
        seed in any::<u64>(),
    ) {
        let (comps, nets) = netlist_for(alloc, seed);
        let p = place_sa(&comps, &nets, auto_grid(&comps), &SaConfig::paper(), &DefectMap::pristine(), &Budget::unlimited())
            .unwrap()
            .0;
        let none = energy_with_spacing(&p, &nets, SpacingParams::off());
        let some = energy_with_spacing(
            &p,
            &nets,
            SpacingParams { min_gap: 6, weight: 5.0 },
        );
        prop_assert!((none - energy(&p, &nets)).abs() < 1e-9);
        prop_assert!(some >= none);
    }

    #[test]
    fn energy_is_translation_insensitive_for_rigid_shifts(
        alloc in arb_alloc(),
        seed in any::<u64>(),
        dx in 0u32..3, dy in 0u32..3,
    ) {
        // Shifting the entire placement rigidly must not change Eq. (3).
        let (comps, nets) = netlist_for(alloc, seed);
        let grid = GridSpec::square(auto_grid(&comps).width + 4);
        let p = place_sa(&comps, &nets, auto_grid(&comps), &SaConfig::paper(), &DefectMap::pristine(), &Budget::unlimited())
            .unwrap()
            .0;
        // Ports flip sides at the grid boundary; keep everything interior
        // so the rigid shift preserves port geometry.
        prop_assume!(p.rects().iter().all(|r| r.origin.y >= 1));
        let shifted = Placement::new(
            grid,
            p.rects()
                .iter()
                .map(|r| CellRect::new(CellPos::new(r.origin.x + dx, r.origin.y + dy), r.width, r.height))
                .collect(),
        );
        // Keep the same grid dims relationship: both must be legal.
        prop_assume!(shifted.is_legal());
        let e1 = {
            let moved = Placement::new(grid, p.rects().to_vec());
            energy(&moved, &nets)
        };
        let e2 = energy(&shifted, &nets);
        prop_assert!((e1 - e2).abs() < 1e-9, "{e1} vs {e2}");
    }
}
