//! Pre-optimization reference placer, kept verbatim as a test oracle for
//! golden-equivalence tests.
//!
//! [`place_sa_reference`] is the clone-per-proposal, full-recompute
//! annealing loop this crate shipped before the incremental hot path
//! landed. The optimized [`crate::sa::place_sa`] must produce a bitwise
//! identical placement for every `(workload, seed)` — the
//! `tests/perf_equiv.rs` suite asserts exactly that across the Table-I
//! benchmarks, with and without defects and spacing. Do not "improve" this
//! module: its value is being the frozen baseline.

use crate::error::PlaceError;
use crate::floorplan::{rect_avoids_defects, Placement};
use crate::nets::{energy, NetList, SpacingParams};
use crate::sa::{initial_placement, SaConfig};
use mfb_model::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The historical [`crate::sa::place_sa`]: clones the whole placement
/// before every proposal and recomputes the full Eq. (3)+spacing energy
/// after it.
///
/// # Errors
///
/// Same as [`crate::sa::place_sa`], minus the interrupt.
pub fn place_sa_reference(
    components: &ComponentSet,
    nets: &NetList,
    grid: GridSpec,
    config: &SaConfig,
    defects: &DefectMap,
) -> Result<Placement, PlaceError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut placement = initial_placement(components, grid, &mut rng, defects)?;
    if components.len() < 2 {
        return Ok(placement); // nothing to optimise
    }

    let cost = |p: &Placement| energy_with_spacing_reference(p, nets, config.spacing);
    let mut current = cost(&placement);
    let mut best = placement.clone();
    let mut best_energy = current;
    let mut t = config.t0;
    while t > config.t_min {
        for _ in 0..config.i_max {
            let saved = placement.clone();
            if !propose(&mut placement, components, &mut rng, defects) {
                continue;
            }
            let candidate = cost(&placement);
            let delta = candidate - current;
            if delta < 0.0 || rng.gen::<f64>() < (-delta / t).exp() {
                current = candidate;
                if current < best_energy {
                    best_energy = current;
                    best = placement.clone();
                }
            } else {
                placement = saved;
            }
        }
        t *= config.alpha;
    }
    debug_assert!(best.is_legal());
    Ok(best)
}

/// The historical clone-based proposer: applies one random transformation
/// operation and returns `false` when it was illegal. Draw-for-draw
/// identical to the optimized `propose_move`.
fn propose(
    placement: &mut Placement,
    components: &ComponentSet,
    rng: &mut StdRng,
    defects: &DefectMap,
) -> bool {
    let grid = placement.grid();
    let n = components.len() as u32;
    match rng.gen_range(0..3u8) {
        // Translate a component to a random position.
        0 => {
            let c = ComponentId::new(rng.gen_range(0..n));
            let r = placement.rect(c);
            let (Some(max_x), Some(max_y)) = (
                grid.width.checked_sub(r.width),
                grid.height.checked_sub(r.height),
            ) else {
                return false;
            };
            let rect = CellRect::new(
                CellPos::new(rng.gen_range(0..=max_x), rng.gen_range(0..=max_y)),
                r.width,
                r.height,
            );
            if !defects.is_dead(c) && rect_avoids_defects(rect, defects) && placement.fits(c, rect)
            {
                placement.set_rect(c, rect);
                true
            } else {
                false
            }
        }
        // Rotate a component in place.
        1 => {
            let c = ComponentId::new(rng.gen_range(0..n));
            let r = placement.rect(c);
            let rect = CellRect::new(r.origin, r.height, r.width);
            if !defects.is_dead(c) && rect_avoids_defects(rect, defects) && placement.fits(c, rect)
            {
                placement.set_rect(c, rect);
                true
            } else {
                false
            }
        }
        // Swap the origins of two components.
        _ => {
            if n < 2 {
                return false;
            }
            let a = ComponentId::new(rng.gen_range(0..n));
            let b = ComponentId::new(rng.gen_range(0..n));
            if a == b || defects.is_dead(a) || defects.is_dead(b) {
                return false;
            }
            let ra = placement.rect(a);
            let rb = placement.rect(b);
            let na = CellRect::new(rb.origin, ra.width, ra.height);
            let nb = CellRect::new(ra.origin, rb.width, rb.height);
            if !rect_avoids_defects(na, defects) || !rect_avoids_defects(nb, defects) {
                return false;
            }
            let saved = placement.clone();
            placement.set_rect(a, na);
            placement.set_rect(b, nb);
            if placement.grid().contains_rect(na)
                && placement.grid().contains_rect(nb)
                && placement.is_legal()
            {
                true
            } else {
                *placement = saved;
                false
            }
        }
    }
}

/// The spacing-extended energy exactly as the pre-optimization placer
/// computed it, with the branchy `rect_gap` of the day vendored below —
/// frozen so shared-helper speedups never leak into the baseline timing.
fn energy_with_spacing_reference(
    placement: &Placement,
    nets: &NetList,
    spacing: SpacingParams,
) -> f64 {
    let mut total = energy(placement, nets);
    if spacing.weight > 0.0 && spacing.min_gap > 0 {
        let rects = placement.rects();
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                let gap = rect_gap_reference(rects[i], rects[j]);
                if gap < spacing.min_gap {
                    let deficit = f64::from(spacing.min_gap - gap);
                    total += spacing.weight * deficit * deficit;
                }
            }
        }
    }
    total
}

/// The original branchy `crate::floorplan::rect_gap` (same values).
fn rect_gap_reference(a: CellRect, b: CellRect) -> u32 {
    let (ax2, ay2) = a.upper_right();
    let (bx2, by2) = b.upper_right();
    let hgap = if ax2 <= b.origin.x {
        b.origin.x - ax2
    } else {
        a.origin.x.saturating_sub(bx2)
    };
    let vgap = if ay2 <= b.origin.y {
        b.origin.y - ay2
    } else {
        a.origin.y.saturating_sub(by2)
    };
    hgap + vgap
}
