//! The baseline constructive placer.
//!
//! The paper's baseline (BA) builds its physical design by *construction by
//! correction*: it first constructs a placement greedily, one component at a
//! time, without any conflict- or wash-awareness, and leaves the fixing of
//! whatever problems arise to the routing stage. This module implements the
//! construction half: components are placed in id order, each at the legal
//! position minimising the plain (unweighted) Manhattan distance to its
//! already-placed net neighbours — classic wirelength-greedy placement with
//! none of Eq. (4)'s priorities.

use crate::error::PlaceError;
use crate::floorplan::{rect_avoids_defects, rect_gap, Placement, CLEARANCE};
use crate::nets::{NetList, SpacingParams};
use mfb_model::prelude::*;

/// Places `components` one at a time, greedily minimising unweighted
/// wirelength to already-placed neighbours. The first component goes to the
/// grid centre; unconnected components fill in towards the centre.
/// Candidate positions covering a blocked cell of `defects` are skipped.
///
/// # Errors
///
/// [`PlaceError::GridTooSmall`] when some component cannot be placed
/// legally at all; [`PlaceError::DefectBlocked`] when only the defect map
/// stands in the way.
pub fn place_constructive(
    components: &ComponentSet,
    nets: &NetList,
    grid: GridSpec,
    defects: &DefectMap,
) -> Result<Placement, PlaceError> {
    // Candidate positions closer than `min_gap` to an already-placed
    // component pay the same quadratic penalty the annealer uses, so both
    // flows leave comparable routing corridors.
    let spacing = SpacingParams::default_routing();
    let mut placement = Placement::new(
        grid,
        components
            .iter()
            .map(|c| {
                CellRect::new(
                    CellPos::new(0, 0),
                    c.footprint().width,
                    c.footprint().height,
                )
            })
            .collect(),
    );
    let mut placed: Vec<ComponentId> = Vec::new();

    for c in components.iter() {
        let fp = c.footprint();
        let (Some(max_x), Some(max_y)) = (
            grid.width.checked_sub(fp.width),
            grid.height.checked_sub(fp.height),
        ) else {
            return Err(PlaceError::GridTooSmall { grid });
        };

        // Neighbours of `c` among already-placed components.
        let neighbours: Vec<ComponentId> = nets
            .nets()
            .iter()
            .filter_map(|n| {
                if n.a == c.id() && placed.contains(&n.b) {
                    Some(n.b)
                } else if n.b == c.id() && placed.contains(&n.a) {
                    Some(n.a)
                } else {
                    None
                }
            })
            .collect();

        let centre = CellPos::new(grid.width / 2, grid.height / 2);
        let mut best: Option<(u64, CellRect)> = None;
        for y in 0..=max_y {
            for x in 0..=max_x {
                let rect = CellRect::new(CellPos::new(x, y), fp.width, fp.height);
                if !rect_avoids_defects(rect, defects) {
                    continue;
                }
                let legal = placed
                    .iter()
                    .all(|&p| !rect.inflated(CLEARANCE).intersects(placement.rect(p)));
                if !legal {
                    continue;
                }
                let mut cost = if neighbours.is_empty() {
                    // Unconnected (or first): pull towards the centre.
                    u64::from(rect.center().manhattan(centre))
                } else {
                    neighbours
                        .iter()
                        .map(|&nb| u64::from(rect.center().manhattan(placement.rect(nb).center())))
                        .sum()
                };
                if spacing.weight > 0.0 && spacing.min_gap > 0 {
                    for &p in &placed {
                        let gap = rect_gap(rect, placement.rect(p));
                        if gap < spacing.min_gap {
                            // Same quadratic penalty as the annealer
                            // (rounded into this placer's integer cost).
                            let deficit = f64::from(spacing.min_gap - gap);
                            cost += (spacing.weight * deficit * deficit).round() as u64;
                        }
                    }
                }
                match best {
                    Some((b, _)) if b <= cost => {}
                    _ => best = Some((cost, rect)),
                }
            }
        }
        let Some((_, rect)) = best else {
            return Err(if defects.is_pristine() {
                PlaceError::GridTooSmall { grid }
            } else {
                PlaceError::DefectBlocked { grid }
            });
        };
        placement.set_rect(c.id(), rect);
        placed.push(c.id());
    }

    debug_assert!(placement.is_legal());
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::auto_grid;
    use crate::nets::energy;
    use mfb_sched::list::{schedule, SchedulerConfig};

    fn d() -> DiffusionCoefficient {
        DiffusionCoefficient::PROTEIN
    }

    fn workload() -> (SequencingGraph, ComponentSet, NetList) {
        let mut b = SequencingGraph::builder();
        let m0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d());
        let m1 = b.operation(OperationKind::Mix, Duration::from_secs(5), d());
        let h = b.operation(OperationKind::Heat, Duration::from_secs(3), d());
        let dt = b.operation(OperationKind::Detect, Duration::from_secs(3), d());
        b.edge(m0, h).unwrap();
        b.edge(m1, h).unwrap();
        b.edge(h, dt).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 1, 0, 1).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &comps,
            &LogLinearWash::paper_calibrated(),
            &SchedulerConfig::paper_baseline(),
            &DefectMap::pristine(),
        )
        .unwrap();
        let nets = NetList::build(&s, &g, &LogLinearWash::paper_calibrated(), 0.6, 0.4);
        (g, comps, nets)
    }

    #[test]
    fn constructive_placement_is_legal_and_deterministic() {
        let (_g, comps, nets) = workload();
        let grid = auto_grid(&comps);
        let a = place_constructive(&comps, &nets, grid, &DefectMap::pristine()).unwrap();
        let b = place_constructive(&comps, &nets, grid, &DefectMap::pristine()).unwrap();
        assert!(a.is_legal());
        assert_eq!(a, b);
    }

    #[test]
    fn connected_components_end_up_near_each_other() {
        let (_g, comps, nets) = workload();
        let grid = auto_grid(&comps);
        let p = place_constructive(&comps, &nets, grid, &DefectMap::pristine()).unwrap();
        // Every net's endpoints should be well under the grid diameter apart.
        let diameter = u64::from(grid.width + grid.height);
        for n in nets.nets() {
            let dist = u64::from(p.port_distance(n.a, n.b));
            assert!(
                dist * 2 < diameter,
                "net {n} stretched across the chip ({dist} cells)"
            );
        }
        assert!(energy(&p, &nets).is_finite());
    }

    #[test]
    fn too_small_grid_errors() {
        let (_g, comps, nets) = workload();
        let err = place_constructive(&comps, &nets, GridSpec::square(5), &DefectMap::pristine());
        assert!(matches!(err, Err(PlaceError::GridTooSmall { .. })));
    }
}
