//! Simulated-annealing placement (paper Algorithm 2, lines 1–8).
//!
//! Starts from a random legal placement and anneals with the classic
//! Kirkpatrick schedule: at each temperature, `i_max` random transformation
//! operations (translate / rotate / swap) are proposed and accepted when
//! they lower the energy of Eq. (3) or with Metropolis probability
//! `e^(-Δ/T)` otherwise; the temperature then cools by the factor `α`.

use crate::error::PlaceError;
use crate::floorplan::{
    packed_placement, packed_placement_avoiding, rect_avoids_defects, rect_gap, Placement,
    CLEARANCE,
};
use crate::nets::{energy_with_spacing, NetList, SpacingParams};
use mfb_model::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated-annealing parameters. [`SaConfig::paper`] reproduces the
/// paper's reported settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaConfig {
    /// Initial temperature `T_0`.
    pub t0: f64,
    /// Termination temperature `T_min`.
    pub t_min: f64,
    /// Cooling factor `α` per temperature step.
    pub alpha: f64,
    /// Proposals per temperature step, `I_max`.
    pub i_max: u32,
    /// RNG seed; same seed, same placement.
    pub seed: u64,
    /// Congestion guard added to Eq. (3); see
    /// [`SpacingParams`]. Use [`SpacingParams::off`] for the paper's plain
    /// energy.
    pub spacing: SpacingParams,
}

impl SaConfig {
    /// The paper's parameters: `T_0 = 10000`, `T_min = 1.0`, `α = 0.9`,
    /// `I_max = 150`.
    pub fn paper() -> Self {
        SaConfig {
            t0: 10_000.0,
            t_min: 1.0,
            alpha: 0.9,
            i_max: 150,
            seed: 0xD1CE,
            spacing: SpacingParams::default_routing(),
        }
    }

    /// Same schedule, different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig::paper()
    }
}

/// Counters from one annealing run, emitted as `sa.*` trace counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaStats {
    /// Inner-loop iterations (`I_max` × temperature steps).
    pub proposals: u64,
    /// Proposals that passed legality and were energy-evaluated.
    pub evaluated: u64,
    /// Evaluated proposals accepted by the Metropolis criterion.
    pub accepted: u64,
}

/// Places `components` on `grid` (use
/// [`auto_grid`](crate::floorplan::auto_grid) when in doubt), minimising
/// the net-weighted wirelength of Eq. (3), on a possibly damaged chip and
/// under an execution [`Budget`]; returns the proposal counters alongside
/// the placement.
///
/// * **Defects** — no component rectangle may cover a blocked cell of
///   `defects`, and components marked dead are pinned: the annealer never
///   proposes moving, rotating or swapping them.
/// * **Budget** — polled **once per temperature epoch** (every `i_max`
///   proposals, outside the bitwise-pinned proposal path), so an unlimited
///   budget leaves the annealer bit-identical to the frozen reference while
///   a tripped one stops within a single epoch.
///
/// Hot-path shape: a proposal is applied **in place** as a typed [`Move`]
/// and reverted on rejection, and the Eq. (3)+spacing energy is maintained
/// incrementally — only terms incident to the moved component(s) are
/// re-evaluated, then the cached terms are re-summed in the exact order of
/// the full recompute so accepted energies stay bitwise identical to
/// [`crate::reference::place_sa_reference`] (debug builds cross-check every
/// evaluation against the full recompute).
///
/// # Errors
///
/// [`PlaceError::GridTooSmall`] when the grid cannot hold the components at
/// all; [`PlaceError::DefectBlocked`] when it could, but every arrangement
/// collides with blocked cells; [`PlaceError::Interrupted`] when the
/// deadline passes or the cancellation token fires mid-anneal.
pub fn place_sa(
    components: &ComponentSet,
    nets: &NetList,
    grid: GridSpec,
    config: &SaConfig,
    defects: &DefectMap,
    budget: &Budget,
) -> Result<(Placement, SaStats), PlaceError> {
    // Probes sit outside the annealing loop: the per-proposal path is
    // pinned bitwise to the frozen reference and stays untouched; epoch
    // and accept/reject telemetry is emitted once, after the loop, from
    // the counters the loop already maintains.
    let _span = mfb_obs::obs_span!(
        "place.sa",
        seed = config.seed,
        components = components.len() as u64,
    );
    budget.check().map_err(PlaceError::Interrupted)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut placement = initial_placement(components, grid, &mut rng, defects)?;
    let mut stats = SaStats::default();
    if components.len() < 2 {
        return Ok((placement, stats)); // nothing to optimise
    }

    let mut energy = IncrementalEnergy::new(&placement, nets, config.spacing);
    let mut current = energy.total();
    let mut best = placement.clone();
    let mut best_energy = current;
    let mut t = config.t0;
    let mut epochs = 0u64;
    while t > config.t_min {
        budget.check().map_err(PlaceError::Interrupted)?;
        for _ in 0..config.i_max {
            stats.proposals += 1;
            let Some(mv) = propose_move(&mut placement, components, &mut rng, defects) else {
                continue;
            };
            stats.evaluated += 1;
            energy.apply_move(&placement, &mv);
            let candidate = energy.total();
            debug_assert!(
                candidate == energy_with_spacing(&placement, nets, config.spacing),
                "incremental energy diverged from full recompute"
            );
            let delta = candidate - current;
            if delta < 0.0 || rng.gen::<f64>() < (-delta / t).exp() {
                stats.accepted += 1;
                current = candidate;
                if current < best_energy {
                    best_energy = current;
                    best = placement.clone();
                }
            } else {
                mv.undo(&mut placement);
                energy.revert();
            }
        }
        t *= config.alpha;
        epochs += 1;
    }
    mfb_obs::obs_counter!("sa.epochs", epochs);
    mfb_obs::obs_counter!("sa.proposals", stats.proposals);
    mfb_obs::obs_counter!("sa.evaluated", stats.evaluated);
    mfb_obs::obs_counter!("sa.accepted", stats.accepted);
    mfb_obs::obs_counter!("sa.rejected", stats.evaluated - stats.accepted);
    debug_assert!(best.is_legal());
    Ok((best, stats))
}

/// Builds a random legal placement by rejection sampling, falling back to a
/// deterministic row packing when the grid is crowded.
pub(crate) fn initial_placement(
    components: &ComponentSet,
    grid: GridSpec,
    rng: &mut StdRng,
    defects: &DefectMap,
) -> Result<Placement, PlaceError> {
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
    'components: for c in components.iter() {
        let fp = c.footprint();
        for _ in 0..256 {
            let max_x = grid.width.checked_sub(fp.width);
            let max_y = grid.height.checked_sub(fp.height);
            let (Some(max_x), Some(max_y)) = (max_x, max_y) else {
                return Err(PlaceError::GridTooSmall { grid });
            };
            let origin = CellPos::new(rng.gen_range(0..=max_x), rng.gen_range(0..=max_y));
            let rect = CellRect::new(origin, fp.width, fp.height);
            // Only check against components placed so far.
            let ok = grid.contains_rect(rect)
                && rect_avoids_defects(rect, defects)
                && components
                    .iter()
                    .take(c.id().index())
                    .all(|o| !rect.inflated(CLEARANCE).intersects(placement.rect(o.id())));
            if ok {
                placement.set_rect(c.id(), rect);
                continue 'components;
            }
        }
        // Rejection failed: deterministic packing for everything (the
        // row packer on pristine chips, the defect-avoiding scan otherwise).
        return if defects.is_pristine() {
            packed_placement(components, grid)
        } else {
            packed_placement_avoiding(components, grid, defects)
        };
    }
    debug_assert!(placement.is_legal());
    Ok(placement)
}

/// One applied annealing move, carrying enough state to undo itself.
///
/// The annealer's proposer mutates the placement in place and hands back
/// the move; a rejected proposal calls [`Move::undo`] instead of restoring
/// a saved clone, so the rejection path allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Translate or rotate: component `c` moved from `old` to its current
    /// rectangle.
    Single {
        /// The moved component.
        c: ComponentId,
        /// Its rectangle before the move.
        old: CellRect,
    },
    /// Origin swap of two components.
    Swap {
        /// Lower-drawn component.
        a: ComponentId,
        /// Higher-drawn component.
        b: ComponentId,
        /// `a`'s rectangle before the swap.
        old_a: CellRect,
        /// `b`'s rectangle before the swap.
        old_b: CellRect,
    },
}

impl Move {
    /// Restores the placement to its pre-move state.
    pub fn undo(&self, placement: &mut Placement) {
        match *self {
            Move::Single { c, old } => placement.set_rect(c, old),
            Move::Swap { a, b, old_a, old_b } => {
                placement.set_rect(a, old_a);
                placement.set_rect(b, old_b);
            }
        }
    }

    /// The components whose rectangle changed (second slot for swaps).
    fn touched(&self) -> (ComponentId, Option<ComponentId>) {
        match *self {
            Move::Single { c, .. } => (c, None),
            Move::Swap { a, b, .. } => (a, Some(b)),
        }
    }
}

/// Applies one random transformation operation in place; returns the
/// applied [`Move`], or `None` when the proposal was illegal (placement
/// left untouched). Dead components are pinned and rectangles covering
/// blocked cells are rejected; the RNG draw sequence is independent of the
/// defect map, so a pristine map reproduces the historical placements
/// exactly. The draw sequence and accept/reject decisions match the
/// clone-based [`crate::reference`] proposer bit for bit.
fn propose_move(
    placement: &mut Placement,
    components: &ComponentSet,
    rng: &mut StdRng,
    defects: &DefectMap,
) -> Option<Move> {
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
                return None;
            };
            let rect = CellRect::new(
                CellPos::new(rng.gen_range(0..=max_x), rng.gen_range(0..=max_y)),
                r.width,
                r.height,
            );
            if !defects.is_dead(c) && rect_avoids_defects(rect, defects) && placement.fits(c, rect)
            {
                placement.set_rect(c, rect);
                Some(Move::Single { c, old: r })
            } else {
                None
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
                Some(Move::Single { c, old: r })
            } else {
                None
            }
        }
        // Swap the origins of two components.
        _ => {
            if n < 2 {
                return None;
            }
            let a = ComponentId::new(rng.gen_range(0..n));
            let b = ComponentId::new(rng.gen_range(0..n));
            if a == b || defects.is_dead(a) || defects.is_dead(b) {
                return None;
            }
            let ra = placement.rect(a);
            let rb = placement.rect(b);
            let na = CellRect::new(rb.origin, ra.width, ra.height);
            let nb = CellRect::new(ra.origin, rb.width, rb.height);
            if !rect_avoids_defects(na, defects) || !rect_avoids_defects(nb, defects) {
                return None;
            }
            if grid.contains_rect(na)
                && grid.contains_rect(nb)
                && swap_stays_legal(placement, a, b, na, nb)
            {
                placement.set_rect(a, na);
                placement.set_rect(b, nb);
                Some(Move::Swap {
                    a,
                    b,
                    old_a: ra,
                    old_b: rb,
                })
            } else {
                None
            }
        }
    }
}

/// Would swapping `a`/`b` into `na`/`nb` keep the placement legal?
///
/// The placement is legal before every proposal (loop invariant), so only
/// pairs involving `a` or `b` can newly violate [`CLEARANCE`]. Checking
/// just those pairs — in the same lower-index-inflated orientation as
/// `Placement::legality_violation` — is boolean-equivalent to the full
/// `is_legal()` scan the clone-based proposer ran, in O(n) instead of
/// O(n²).
fn swap_stays_legal(
    placement: &Placement,
    a: ComponentId,
    b: ComponentId,
    na: CellRect,
    nb: CellRect,
) -> bool {
    let rects = placement.rects();
    let (ai, bi) = (a.index(), b.index());
    let na_inf = na.inflated(CLEARANCE);
    let nb_inf = nb.inflated(CLEARANCE);
    // The swapped pair itself, lower index inflated.
    if ai < bi {
        if na_inf.intersects(nb) {
            return false;
        }
    } else if nb_inf.intersects(na) {
        return false;
    }
    for (j, &r) in rects.iter().enumerate() {
        if j == ai || j == bi {
            continue;
        }
        let r_inf = r.inflated(CLEARANCE);
        let a_hit = if ai < j {
            na_inf.intersects(r)
        } else {
            r_inf.intersects(na)
        };
        let b_hit = if bi < j {
            nb_inf.intersects(r)
        } else {
            r_inf.intersects(nb)
        };
        if a_hit || b_hit {
            return false;
        }
    }
    true
}

/// Incrementally maintained Eq. (3)+spacing energy.
///
/// Caches one `f64` term per net (`mdis · cp`) and one per component pair
/// (the spacing penalty, `0.0` when the pair is not penalised). A move
/// re-evaluates only the terms incident to the component(s) it touched;
/// [`IncrementalEnergy::total`] then re-sums the cached terms **in the
/// exact order of the full recompute** (nets first, then pairs in
/// `(i, j)` lexicographic order, skipping zero penalties), which makes the
/// result bitwise identical to [`energy_with_spacing`] — floating-point
/// addition is order-sensitive, so a running delta would drift and change
/// Metropolis decisions.
pub(crate) struct IncrementalEnergy<'a> {
    nets: &'a NetList,
    spacing: SpacingParams,
    spacing_on: bool,
    n: usize,
    /// Per-net `mdis(a, b) · cp(a, b)`, in net order.
    net_terms: Vec<f64>,
    /// `net_prefix[i]` is the naive left-to-right sum of the first `i` net
    /// terms — exactly the partial sums the full recompute's accumulator
    /// passes through — so [`IncrementalEnergy::total`] only re-adds the
    /// suffix behind the lowest term touched since the last evaluation.
    net_prefix: Vec<f64>,
    /// Lowest net index whose term changed since `net_prefix` was last
    /// rebuilt (`net_terms.len()` when clean).
    prefix_from: usize,
    /// Row-major `n × n` upper triangle of spacing penalties (slot `i*n+j`
    /// for `i < j`); `0.0` marks an unpenalised pair.
    pair_terms: Vec<f64>,
    /// Bitset over `pair_terms` slots marking the non-zero entries.
    /// Iterating set bits word-by-word visits ascending slots — **the**
    /// `(i, j)` lexicographic order of the full recompute — so
    /// [`IncrementalEnergy::total`] sums just the penalised pairs, and a
    /// membership flip is one XOR instead of a sorted-vec edit.
    nonzero_bits: Vec<u64>,
    /// Net indices incident to each component, built once and stored CSR:
    /// component `c`'s nets are `by_comp_idx[by_comp_off[c]..by_comp_off[c + 1]]`.
    by_comp_off: Vec<u32>,
    by_comp_idx: Vec<u32>,
    /// Cached flow-port cell per component — `port()` is a pure function of
    /// the rectangle, so refreshing it only for moved components keeps net
    /// terms value-identical to recomputing both ports per evaluation.
    ports: Vec<CellPos>,
    /// Undo log of the terms overwritten by the last `apply_move`.
    saved_nets: Vec<(u32, f64)>,
    saved_pairs: Vec<(u32, f64)>,
    saved_ports: Vec<(u32, CellPos)>,
}

impl<'a> IncrementalEnergy<'a> {
    pub(crate) fn new(placement: &Placement, nets: &'a NetList, spacing: SpacingParams) -> Self {
        let n = placement.len();
        let spacing_on = spacing.weight > 0.0 && spacing.min_gap > 0;
        let ports: Vec<CellPos> = (0..n)
            .map(|i| placement.port(ComponentId::new(i as u32)))
            .collect();
        let net_terms: Vec<f64> = nets
            .nets()
            .iter()
            .map(|net| f64::from(placement.port_distance(net.a, net.b)) * net.priority)
            .collect();
        let mut net_prefix = vec![0.0; net_terms.len() + 1];
        for (i, &term) in net_terms.iter().enumerate() {
            net_prefix[i + 1] = net_prefix[i] + term;
        }
        let prefix_from = net_terms.len();
        let mut pair_terms = vec![0.0; if spacing_on { n * n } else { 0 }];
        let mut nonzero_bits = vec![0u64; pair_terms.len().div_ceil(64)];
        if spacing_on {
            let rects = placement.rects();
            for i in 0..n {
                for j in (i + 1)..n {
                    let term = pair_penalty(rects[i], rects[j], spacing);
                    if term != 0.0 {
                        let idx = i * n + j;
                        pair_terms[idx] = term;
                        nonzero_bits[idx / 64] |= 1u64 << (idx % 64);
                    }
                }
            }
        }
        let by_comp = nets.component_index(n);
        let mut by_comp_off = Vec::with_capacity(n + 1);
        let mut by_comp_idx = Vec::new();
        by_comp_off.push(0);
        for list in &by_comp {
            by_comp_idx.extend_from_slice(list);
            by_comp_off.push(by_comp_idx.len() as u32);
        }
        IncrementalEnergy {
            nets,
            spacing,
            spacing_on,
            n,
            net_terms,
            net_prefix,
            prefix_from,
            pair_terms,
            nonzero_bits,
            by_comp_off,
            by_comp_idx,
            ports,
            saved_nets: Vec::with_capacity(nets.nets().len()),
            saved_pairs: Vec::with_capacity(2 * n),
            saved_ports: Vec::with_capacity(2),
        }
    }

    /// Flips slot `idx`'s non-zero bit when its value crossed zero.
    #[inline]
    fn reindex_pair(&mut self, idx: u32, old: f64, new: f64) {
        if (old != 0.0) != (new != 0.0) {
            self.nonzero_bits[idx as usize / 64] ^= 1u64 << (idx % 64);
        }
    }

    /// Re-evaluates the terms incident to the move's component(s), logging
    /// the overwritten values for [`IncrementalEnergy::revert`]. Call with
    /// the placement already mutated by the move.
    pub(crate) fn apply_move(&mut self, placement: &Placement, mv: &Move) {
        self.saved_nets.clear();
        self.saved_pairs.clear();
        self.saved_ports.clear();
        let (first, second) = mv.touched();
        // Refresh every touched port before any net term is read: a net
        // between swap partners must see both new ports.
        self.refresh_port(placement, first);
        if let Some(b) = second {
            self.refresh_port(placement, b);
        }
        self.refresh_component(placement, first, None);
        if let Some(b) = second {
            self.refresh_component(placement, b, Some(first));
        }
    }

    fn refresh_port(&mut self, placement: &Placement, c: ComponentId) {
        let ci = c.index();
        self.saved_ports.push((ci as u32, self.ports[ci]));
        self.ports[ci] = placement.port(c);
    }

    /// Recomputes every term incident to `c`, skipping terms already
    /// refreshed for `done` (the swap partner handled first).
    fn refresh_component(
        &mut self,
        placement: &Placement,
        c: ComponentId,
        done: Option<ComponentId>,
    ) {
        let ci = c.index();
        // `usize::MAX` never matches a component index, so the common
        // single-component move pays no `Option` unwrapping per term.
        let skip = done.map_or(usize::MAX, ComponentId::index);
        let nets = self.nets.nets();
        let (lo, hi) = (
            self.by_comp_off[ci] as usize,
            self.by_comp_off[ci + 1] as usize,
        );
        for k in lo..hi {
            let ni = self.by_comp_idx[k];
            let net = &nets[ni as usize];
            let (ai, bi) = (net.a.index(), net.b.index());
            if ai == skip || bi == skip {
                continue; // already refreshed via the partner
            }
            let term = f64::from(self.ports[ai].manhattan(self.ports[bi])) * net.priority;
            self.saved_nets.push((ni, self.net_terms[ni as usize]));
            self.net_terms[ni as usize] = term;
            self.prefix_from = self.prefix_from.min(ni as usize);
        }
        if !self.spacing_on {
            return;
        }
        let rects = placement.rects();
        let rc = rects[ci];
        // `done` already refreshed its pairs, including (c, done). The loop
        // is split at `ci` so the row-major slot index needs no per-pair
        // (lo, hi) select.
        for (j, &rj) in rects.iter().enumerate().take(ci) {
            if j != skip {
                self.update_pair(j * self.n + ci, rj, rc);
            }
        }
        for (j, &rj) in rects.iter().enumerate().skip(ci + 1) {
            if j != skip {
                self.update_pair(ci * self.n + j, rc, rj);
            }
        }
    }

    /// Re-evaluates one pair slot; touches the undo log and the non-zero
    /// index only when the term actually changed (most pairs are far apart
    /// and stay at 0.0).
    #[inline]
    fn update_pair(&mut self, idx: usize, a: CellRect, b: CellRect) {
        let old = self.pair_terms[idx];
        let new = pair_penalty(a, b, self.spacing);
        if new != old {
            self.saved_pairs.push((idx as u32, old));
            self.pair_terms[idx] = new;
            self.reindex_pair(idx as u32, old, new);
        }
    }

    /// Restores the terms overwritten by the last `apply_move`.
    pub(crate) fn revert(&mut self) {
        for &(ni, old) in self.saved_nets.iter().rev() {
            self.net_terms[ni as usize] = old;
            self.prefix_from = self.prefix_from.min(ni as usize);
        }
        for i in (0..self.saved_pairs.len()).rev() {
            let (idx, old) = self.saved_pairs[i];
            let new = self.pair_terms[idx as usize];
            self.pair_terms[idx as usize] = old;
            self.reindex_pair(idx, new, old);
        }
        for &(ci, old) in self.saved_ports.iter().rev() {
            self.ports[ci as usize] = old;
        }
        self.saved_nets.clear();
        self.saved_pairs.clear();
        self.saved_ports.clear();
    }

    /// Sums the cached terms in the full recompute's order: the rebuilt
    /// suffix of the naive net-term prefix sums, then every penalised pair.
    pub(crate) fn total(&mut self) -> f64 {
        let len = self.net_terms.len();
        for i in self.prefix_from..len {
            self.net_prefix[i + 1] = self.net_prefix[i] + self.net_terms[i];
        }
        self.prefix_from = len;
        let mut total = self.net_prefix[len];
        // A penalised pair's term is strictly positive (weight > 0, deficit
        // ≥ 1), so the set bits mark exactly the pairs the full recompute
        // adds, visited here in its (i, j) lexicographic order.
        for (wi, &word) in self.nonzero_bits.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let idx = wi * 64 + w.trailing_zeros() as usize;
                total += self.pair_terms[idx];
                w &= w - 1;
            }
        }
        total
    }
}

/// The spacing penalty of one pair, exactly as [`energy_with_spacing`]
/// computes it; `0.0` when the gap meets the target.
#[inline]
fn pair_penalty(a: CellRect, b: CellRect, spacing: SpacingParams) -> f64 {
    let gap = rect_gap(a, b);
    if gap < spacing.min_gap {
        let deficit = f64::from(spacing.min_gap - gap);
        spacing.weight * deficit * deficit
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::auto_grid;
    use mfb_sched::list::{schedule, SchedulerConfig};
    use mfb_sched::prelude::Schedule;

    fn d() -> DiffusionCoefficient {
        DiffusionCoefficient::PROTEIN
    }

    fn chain_workload() -> (SequencingGraph, ComponentSet, Schedule) {
        let mut b = SequencingGraph::builder();
        let m = b.operation(OperationKind::Mix, Duration::from_secs(5), d());
        let h = b.operation(OperationKind::Heat, Duration::from_secs(3), d());
        let f = b.operation(OperationKind::Filter, Duration::from_secs(3), d());
        let dt = b.operation(OperationKind::Detect, Duration::from_secs(4), d());
        b.chain(&[m, h, f, dt]).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 1, 1, 1).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &comps,
            &LogLinearWash::paper_calibrated(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        (g, comps, s)
    }

    /// [`place_sa`] on a pristine chip under an unlimited budget,
    /// placement only.
    fn place(
        comps: &ComponentSet,
        nets: &NetList,
        grid: GridSpec,
        cfg: &SaConfig,
    ) -> Result<Placement, PlaceError> {
        place_in(comps, nets, grid, cfg, &DefectMap::pristine())
    }

    /// [`place_sa`] on a damaged chip under an unlimited budget, placement
    /// only.
    fn place_in(
        comps: &ComponentSet,
        nets: &NetList,
        grid: GridSpec,
        cfg: &SaConfig,
        defects: &DefectMap,
    ) -> Result<Placement, PlaceError> {
        place_sa(comps, nets, grid, cfg, defects, &Budget::unlimited()).map(|(p, _)| p)
    }

    #[test]
    fn sa_produces_legal_placement() {
        let (g, comps, s) = chain_workload();
        let nets = NetList::build(&s, &g, &LogLinearWash::paper_calibrated(), 0.6, 0.4);
        let p = place(&comps, &nets, auto_grid(&comps), &SaConfig::paper()).unwrap();
        assert!(p.is_legal());
        assert_eq!(p.len(), comps.len());
    }

    #[test]
    fn sa_is_deterministic_per_seed() {
        let (g, comps, s) = chain_workload();
        let nets = NetList::build(&s, &g, &LogLinearWash::paper_calibrated(), 0.6, 0.4);
        let cfg = SaConfig::paper().with_seed(7);
        let a = place(&comps, &nets, auto_grid(&comps), &cfg).unwrap();
        let b = place(&comps, &nets, auto_grid(&comps), &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sa_beats_random_start() {
        let (g, comps, s) = chain_workload();
        let nets = NetList::build(&s, &g, &LogLinearWash::paper_calibrated(), 0.6, 0.4);
        let grid = auto_grid(&comps);
        let mut rng = StdRng::seed_from_u64(SaConfig::paper().seed);
        let start = initial_placement(&comps, grid, &mut rng, &DefectMap::pristine()).unwrap();
        let cfg = SaConfig::paper();
        let optimised = place(&comps, &nets, grid, &cfg).unwrap();
        assert!(
            energy_with_spacing(&optimised, &nets, cfg.spacing)
                <= energy_with_spacing(&start, &nets, cfg.spacing),
            "SA must not worsen the start"
        );
    }

    #[test]
    fn tiny_grid_is_rejected() {
        let comps = Allocation::new(4, 2, 2, 2).instantiate(&ComponentLibrary::default());
        let nets = empty_netlist();
        let err = place(&comps, &nets, GridSpec::square(4), &SaConfig::paper());
        assert!(matches!(err, Err(PlaceError::GridTooSmall { .. })));
    }

    fn empty_netlist() -> NetList {
        let mut b = SequencingGraph::builder();
        b.operation(OperationKind::Mix, Duration::from_secs(1), d());
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &comps,
            &LogLinearWash::paper_calibrated(),
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        NetList::build(&s, &g, &LogLinearWash::paper_calibrated(), 0.6, 0.4)
    }

    #[test]
    fn single_component_placement() {
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let nets = empty_netlist();
        let p = place(&comps, &nets, auto_grid(&comps), &SaConfig::paper()).unwrap();
        assert!(p.is_legal());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn defect_aware_placement_avoids_blocked_cells_and_pins_dead() {
        let (g, comps, s) = chain_workload();
        let nets = NetList::build(&s, &g, &LogLinearWash::paper_calibrated(), 0.6, 0.4);
        let grid = auto_grid(&comps);
        let mut defects = DefectMap::pristine();
        // Block a diagonal band through the middle of the grid.
        for i in 0..grid.width.min(grid.height) {
            defects.block_cell(CellPos::new(i, i));
        }
        defects.kill_component(ComponentId::new(2));
        let p = place_in(&comps, &nets, grid, &SaConfig::paper(), &defects).unwrap();
        assert!(p.is_legal());
        assert_eq!(p.defect_overlap(&defects), None);
    }

    #[test]
    fn fully_blocked_grid_is_a_defect_error() {
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let nets = empty_netlist();
        let grid = GridSpec::square(12);
        let mut defects = DefectMap::pristine();
        for y in 0..grid.height {
            for x in 0..grid.width {
                defects.block_cell(CellPos::new(x, y));
            }
        }
        let err = place_in(&comps, &nets, grid, &SaConfig::paper(), &defects);
        assert!(matches!(err, Err(PlaceError::DefectBlocked { .. })));
    }

    #[test]
    fn packing_fallback_handles_crowded_grids() {
        // A grid just big enough that rejection sampling may fail but
        // packing succeeds.
        let comps = Allocation::new(3, 1, 0, 0).instantiate(&ComponentLibrary::default());
        let nets = empty_netlist();
        let p = place(&comps, &nets, GridSpec::square(12), &SaConfig::paper()).unwrap();
        assert!(p.is_legal());
    }
}
