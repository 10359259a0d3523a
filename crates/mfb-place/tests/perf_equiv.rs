//! Golden-equivalence suite: the incremental move/undo annealer must be
//! bitwise identical to the frozen pre-optimization reference
//! (`mfb_place::reference`) for every Table-I benchmark and several seeds.
//!
//! Equality of `Placement` (every rectangle, via `PartialEq`) is exactly
//! "byte-identical placement": a single diverging accept/reject decision
//! anywhere in the ~16 k-proposal run would cascade into different rects.

use mfb_bench_suite::table1_benchmarks;
use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_place::reference::place_sa_reference;
use mfb_sched::list::{schedule, SchedulerConfig};

const SEEDS: [u64; 3] = [0xD1CE, 7, 0xBEEF_CAFE];

fn netlist_for(b: &mfb_bench_suite::Benchmark) -> (ComponentSet, NetList) {
    let lib = ComponentLibrary::default();
    let comps = b.components(&lib);
    let wash = LogLinearWash::paper_calibrated();
    let s = schedule(
        &b.graph,
        &comps,
        &wash,
        &SchedulerConfig::paper_dcsa(),
        &DefectMap::pristine(),
    )
    .unwrap();
    let nets = NetList::build(&s, &b.graph, &wash, 0.6, 0.4);
    (comps, nets)
}

#[test]
fn optimized_sa_matches_reference_on_all_table1_benchmarks() {
    for b in table1_benchmarks() {
        let (comps, nets) = netlist_for(&b);
        let grid = auto_grid(&comps);
        for seed in SEEDS {
            let cfg = SaConfig::paper().with_seed(seed);
            let pristine = DefectMap::pristine();
            let (fast, _) =
                place_sa(&comps, &nets, grid, &cfg, &pristine, &Budget::unlimited()).unwrap();
            let slow = place_sa_reference(&comps, &nets, grid, &cfg, &pristine).unwrap();
            assert_eq!(fast, slow, "{} diverged at seed {seed:#x}", b.name);
        }
    }
}

#[test]
fn optimized_sa_matches_reference_with_spacing_off() {
    // The plain Eq. (3) energy exercises the no-pair-terms path.
    for b in table1_benchmarks().into_iter().take(3) {
        let (comps, nets) = netlist_for(&b);
        let grid = auto_grid(&comps);
        let mut cfg = SaConfig::paper().with_seed(41);
        cfg.spacing = SpacingParams::off();
        let pristine = DefectMap::pristine();
        let (fast, _) =
            place_sa(&comps, &nets, grid, &cfg, &pristine, &Budget::unlimited()).unwrap();
        let slow = place_sa_reference(&comps, &nets, grid, &cfg, &pristine).unwrap();
        assert_eq!(fast, slow, "{} diverged with spacing off", b.name);
    }
}

#[test]
fn optimized_sa_matches_reference_under_defects() {
    let b = table1_benchmarks().swap_remove(2); // CPA: 10 components
    let (comps, nets) = netlist_for(&b);
    let grid = auto_grid(&comps);
    let mut defects = DefectMap::pristine();
    for i in 0..grid.width.min(grid.height) / 2 {
        defects.block_cell(CellPos::new(2 * i, i));
    }
    defects.kill_component(ComponentId::new(1));
    for seed in SEEDS {
        let cfg = SaConfig::paper().with_seed(seed);
        let (fast, _) =
            place_sa(&comps, &nets, grid, &cfg, &defects, &Budget::unlimited()).unwrap();
        let slow = place_sa_reference(&comps, &nets, grid, &cfg, &defects).unwrap();
        assert_eq!(fast, slow, "defect run diverged at seed {seed:#x}");
    }
}

#[test]
fn stats_account_for_every_proposal() {
    let b = table1_benchmarks().swap_remove(6); // Synthetic4, the largest
    let (comps, nets) = netlist_for(&b);
    let grid = auto_grid(&comps);
    let cfg = SaConfig::paper();
    let (p, stats) = place_sa(
        &comps,
        &nets,
        grid,
        &cfg,
        &DefectMap::pristine(),
        &Budget::unlimited(),
    )
    .unwrap();
    assert!(p.is_legal());
    // I_max proposals per temperature step, T_0 → T_min at factor α.
    let steps = {
        let mut t = cfg.t0;
        let mut n = 0u64;
        while t > cfg.t_min {
            n += 1;
            t *= cfg.alpha;
        }
        n
    };
    assert_eq!(stats.proposals, steps * u64::from(cfg.i_max));
    assert!(stats.accepted <= stats.evaluated);
    assert!(stats.evaluated <= stats.proposals);
    assert!(stats.evaluated > 0);
}
