//! Placements: where each component sits on the chip grid.

use mfb_model::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Minimum free ring around every component, in cells, so flow channels can
/// reach all sides.
pub const CLEARANCE: u32 = 2;

/// A complete placement: one rectangle per component on a [`GridSpec`].
///
/// Use [`Placement::is_legal`] (or build through the placers in this crate,
/// which only produce legal placements) before handing a placement to the
/// router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    grid: GridSpec,
    rects: Vec<CellRect>,
}

impl Placement {
    /// Creates a placement from raw rectangles, indexed by `ComponentId`.
    /// No legality check is performed; see [`Placement::is_legal`].
    pub fn new(grid: GridSpec, rects: Vec<CellRect>) -> Self {
        Placement { grid, rects }
    }

    /// The chip grid.
    #[inline]
    pub fn grid(&self) -> GridSpec {
        self.grid
    }

    /// Number of placed components.
    #[inline]
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// `true` when nothing is placed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The rectangle of component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[inline]
    pub fn rect(&self, c: ComponentId) -> CellRect {
        self.rects[c.index()]
    }

    /// All rectangles, indexed by component id.
    #[inline]
    pub fn rects(&self) -> &[CellRect] {
        &self.rects
    }

    /// Replaces the rectangle of component `c` (used by placer moves).
    pub fn set_rect(&mut self, c: ComponentId, rect: CellRect) {
        self.rects[c.index()] = rect;
    }

    /// The flow port of component `c`: the routable cell adjacent to the
    /// rectangle's boundary through which channels connect. Chosen as the
    /// first free direction below / above / left / right of the rectangle's
    /// centre column/row that stays on the grid.
    pub fn port(&self, c: ComponentId) -> CellPos {
        let r = self.rect(c);
        let cx = r.origin.x + r.width / 2;
        let cy = r.origin.y + r.height / 2;
        let (x2, y2) = r.upper_right();
        if r.origin.y > 0 {
            CellPos::new(cx, r.origin.y - 1)
        } else if y2 < self.grid.height {
            CellPos::new(cx, y2)
        } else if r.origin.x > 0 {
            CellPos::new(r.origin.x - 1, cy)
        } else {
            debug_assert!(x2 < self.grid.width, "component fills the whole grid");
            CellPos::new(x2, cy)
        }
    }

    /// Manhattan distance between the ports of two components, in cells —
    /// the `mdis(i, j)` of the paper's energy function.
    pub fn port_distance(&self, a: ComponentId, b: ComponentId) -> u32 {
        self.port(a).manhattan(self.port(b))
    }

    /// Checks placement legality: every rectangle on the grid, and no two
    /// rectangles closer than [`CLEARANCE`].
    pub fn is_legal(&self) -> bool {
        self.legality_violation().is_none()
    }

    /// The first legality violation, if any.
    pub fn legality_violation(&self) -> Option<PlacementViolation> {
        for (i, &r) in self.rects.iter().enumerate() {
            if !self.grid.contains_rect(r) {
                return Some(PlacementViolation::OutOfBounds {
                    component: ComponentId::new(i as u32),
                });
            }
        }
        for i in 0..self.rects.len() {
            for j in (i + 1)..self.rects.len() {
                if self.rects[i].inflated(CLEARANCE).intersects(self.rects[j]) {
                    return Some(PlacementViolation::TooClose {
                        a: ComponentId::new(i as u32),
                        b: ComponentId::new(j as u32),
                    });
                }
            }
        }
        None
    }

    /// `true` when `rect` could replace component `c`'s rectangle legally.
    pub fn fits(&self, c: ComponentId, rect: CellRect) -> bool {
        if !self.grid.contains_rect(rect) {
            return false;
        }
        let inf = rect.inflated(CLEARANCE);
        let ci = c.index();
        let hit = |other: &CellRect| inf.intersects(*other);
        !(self.rects[..ci].iter().any(hit) || self.rects[ci + 1..].iter().any(hit))
    }

    /// The first component whose rectangle covers a blocked cell of
    /// `defects`, if any. Defect-aware placers only produce placements for
    /// which this is `None`.
    pub fn defect_overlap(&self, defects: &DefectMap) -> Option<ComponentId> {
        self.rects.iter().enumerate().find_map(|(i, &r)| {
            defects
                .blocked_cells()
                .iter()
                .any(|&cell| r.contains(cell))
                .then(|| ComponentId::new(i as u32))
        })
    }
}

/// `true` when `rect` covers no blocked cell of `defects`. Costs
/// `O(|blocked|)`, which is far cheaper than scanning the rectangle for the
/// sparse maps real chips have.
pub fn rect_avoids_defects(rect: CellRect, defects: &DefectMap) -> bool {
    defects.blocked_cells().iter().all(|&c| !rect.contains(c))
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "placement of {} components on {}", self.len(), self.grid)
    }
}

/// A placement legality violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementViolation {
    /// A component rectangle leaves the grid.
    OutOfBounds {
        /// The offending component.
        component: ComponentId,
    },
    /// Two components overlap or violate the routing clearance.
    TooClose {
        /// First component.
        a: ComponentId,
        /// Second component.
        b: ComponentId,
    },
}

impl fmt::Display for PlacementViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementViolation::OutOfBounds { component } => {
                write!(f, "component {component} leaves the chip")
            }
            PlacementViolation::TooClose { a, b } => {
                write!(f, "components {a} and {b} violate clearance")
            }
        }
    }
}

impl std::error::Error for PlacementViolation {}

/// Free gap between two rectangles, in cells: the Chebyshev-style distance
/// `max(horizontal gap, 0) + max(vertical gap, 0)`. Zero when the
/// rectangles touch or overlap.
pub fn rect_gap(a: CellRect, b: CellRect) -> u32 {
    let (ax2, ay2) = a.upper_right();
    let (bx2, by2) = b.upper_right();
    // Per axis, at most one of the two saturating differences is non-zero
    // (`a` entirely below `b`, or entirely above), so the sum selects the
    // separation without the data-dependent branch a min/else chain costs
    // in the annealer's pair loop.
    let hgap = b.origin.x.saturating_sub(ax2) + a.origin.x.saturating_sub(bx2);
    let vgap = b.origin.y.saturating_sub(ay2) + a.origin.y.saturating_sub(by2);
    hgap + vgap
}

/// Deterministic left-to-right, bottom-to-top row packing with clearance —
/// the annealer's fallback start on a crowded grid.
pub(crate) fn packed_placement(
    components: &ComponentSet,
    grid: GridSpec,
) -> Result<Placement, crate::error::PlaceError> {
    let mut rects = Vec::with_capacity(components.len());
    let (mut x, mut y, mut row_h) = (0u32, 0u32, 0u32);
    for c in components.iter() {
        let fp = c.footprint();
        let (w, h) = (fp.width + CLEARANCE, fp.height + CLEARANCE);
        if x + w > grid.width {
            x = 0;
            y += row_h;
            row_h = 0;
        }
        if x + fp.width > grid.width || y + fp.height > grid.height {
            return Err(crate::error::PlaceError::GridTooSmall { grid });
        }
        rects.push(CellRect::new(CellPos::new(x, y), fp.width, fp.height));
        x += w;
        row_h = row_h.max(h);
    }
    let placement = Placement::new(grid, rects);
    if placement.is_legal() {
        Ok(placement)
    } else {
        Err(crate::error::PlaceError::GridTooSmall { grid })
    }
}

/// Deterministic greedy scan placement that also avoids blocked defect
/// cells: each component goes to the first origin (bottom-to-top,
/// left-to-right) that is in bounds, keeps [`CLEARANCE`] to everything
/// already placed, and covers no blocked cell. The defect-aware fallback
/// counterpart of [`packed_placement`].
pub(crate) fn packed_placement_avoiding(
    components: &ComponentSet,
    grid: GridSpec,
    defects: &DefectMap,
) -> Result<Placement, crate::error::PlaceError> {
    let mut rects: Vec<CellRect> = Vec::with_capacity(components.len());
    for c in components.iter() {
        let fp = c.footprint();
        let (Some(max_x), Some(max_y)) = (
            grid.width.checked_sub(fp.width),
            grid.height.checked_sub(fp.height),
        ) else {
            return Err(crate::error::PlaceError::GridTooSmall { grid });
        };
        let mut chosen = None;
        'scan: for y in 0..=max_y {
            for x in 0..=max_x {
                let rect = CellRect::new(CellPos::new(x, y), fp.width, fp.height);
                let clear = rects
                    .iter()
                    .all(|&o| !rect.inflated(CLEARANCE).intersects(o));
                if clear && rect_avoids_defects(rect, defects) {
                    chosen = Some(rect);
                    break 'scan;
                }
            }
        }
        let Some(rect) = chosen else {
            return Err(crate::error::PlaceError::DefectBlocked { grid });
        };
        rects.push(rect);
    }
    let placement = Placement::new(grid, rects);
    debug_assert!(placement.is_legal());
    Ok(placement)
}

/// Picks a chip grid large enough to place `components` comfortably:
/// a square whose area is several times the summed (clearance-inflated)
/// component areas, with the default physical pitch.
pub fn auto_grid(components: &ComponentSet) -> GridSpec {
    let corridor = crate::nets::SpacingParams::default_routing().min_gap;
    let occupied: u64 = components
        .iter()
        .map(|c| {
            let fp = c.footprint();
            // Components want a corridor of the placers' spacing target on
            // each side; half of it is attributed to each of the two
            // neighbours sharing it.
            u64::from(fp.width + corridor) * u64::from(fp.height + corridor)
        })
        .sum();
    // 2.5x slack on top for routing and parking; minimum 12 cells a side.
    let side = ((occupied * 5 / 2) as f64).sqrt().ceil() as u32;
    GridSpec::square(side.max(12))
}

/// `base` grown `steps` times by 4/3 per side: the grid the retry loops
/// fall back to when placements keep failing to route. Steps beyond eight
/// count as eight, so the factor arithmetic cannot overflow, and a side
/// saturates at `u32::MAX`.
pub fn grown_grid(base: GridSpec, steps: u32) -> GridSpec {
    let steps = steps.min(8);
    let side = |s: u32| {
        let grown = u64::from(s) * 4u64.pow(steps) / 3u64.pow(steps);
        (grown.min(u64::from(u32::MAX)) as u32).max(s)
    };
    GridSpec::new(side(base.width), side(base.height), base.pitch_mm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridSpec {
        GridSpec::square(16)
    }

    #[test]
    fn grown_grid_steps_by_four_thirds_and_caps() {
        let base = GridSpec::new(12, 30, 10.0);
        assert_eq!(grown_grid(base, 0), base);
        assert_eq!(grown_grid(base, 1), GridSpec::new(16, 40, 10.0));
        assert_eq!(grown_grid(base, 2), GridSpec::new(21, 53, 10.0));
        assert_eq!(grown_grid(base, 8), grown_grid(base, 1000));
        let huge = grown_grid(GridSpec::new(u32::MAX, 1, 10.0), 8);
        assert_eq!((huge.width, huge.height), (u32::MAX, 9));
    }

    #[test]
    fn legality_detects_overlap_and_clearance() {
        let a = CellRect::new(CellPos::new(1, 1), 4, 3);
        let b = CellRect::new(CellPos::new(7, 1), 3, 2); // CLEARANCE-cell gap: legal
        let p = Placement::new(grid(), vec![a, b]);
        assert!(p.is_legal());

        let too_close = CellRect::new(CellPos::new(6, 1), 3, 2); // 1-cell gap
        let p2 = Placement::new(grid(), vec![a, too_close]);
        assert_eq!(
            p2.legality_violation(),
            Some(PlacementViolation::TooClose {
                a: ComponentId::new(0),
                b: ComponentId::new(1)
            })
        );
    }

    #[test]
    fn legality_detects_out_of_bounds() {
        let r = CellRect::new(CellPos::new(14, 14), 4, 3);
        let p = Placement::new(grid(), vec![r]);
        assert_eq!(
            p.legality_violation(),
            Some(PlacementViolation::OutOfBounds {
                component: ComponentId::new(0)
            })
        );
    }

    #[test]
    fn port_is_adjacent_and_on_grid() {
        let r = CellRect::new(CellPos::new(3, 3), 4, 3);
        let p = Placement::new(grid(), vec![r]);
        let port = p.port(ComponentId::new(0));
        assert_eq!(port, CellPos::new(5, 2));
        assert!(!r.contains(port));
        assert!(p.grid().contains(port));
    }

    #[test]
    fn port_falls_back_when_at_bottom_edge() {
        let r = CellRect::new(CellPos::new(3, 0), 4, 3);
        let p = Placement::new(grid(), vec![r]);
        let port = p.port(ComponentId::new(0));
        assert_eq!(port, CellPos::new(5, 3)); // above the rect
    }

    #[test]
    fn port_distance_is_symmetric() {
        let a = CellRect::new(CellPos::new(1, 1), 4, 3);
        let b = CellRect::new(CellPos::new(9, 8), 3, 2);
        let p = Placement::new(grid(), vec![a, b]);
        assert_eq!(
            p.port_distance(ComponentId::new(0), ComponentId::new(1)),
            p.port_distance(ComponentId::new(1), ComponentId::new(0))
        );
        assert!(p.port_distance(ComponentId::new(0), ComponentId::new(1)) > 0);
    }

    #[test]
    fn fits_respects_other_components() {
        let a = CellRect::new(CellPos::new(1, 1), 4, 3);
        let b = CellRect::new(CellPos::new(9, 8), 3, 2);
        let p = Placement::new(grid(), vec![a, b]);
        let c0 = ComponentId::new(0);
        assert!(p.fits(c0, CellRect::new(CellPos::new(1, 8), 4, 3)));
        // Overlapping b: rejected.
        assert!(!p.fits(c0, CellRect::new(CellPos::new(8, 7), 4, 3)));
        // Moving onto itself is always fine.
        assert!(p.fits(c0, a));
    }

    #[test]
    fn auto_grid_scales_with_allocation() {
        let small = Allocation::new(2, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let large = Allocation::new(8, 4, 4, 3).instantiate(&ComponentLibrary::default());
        let gs = auto_grid(&small);
        let gl = auto_grid(&large);
        assert!(gl.cell_count() > gs.cell_count());
        assert!(gs.width >= 12);
    }
}
