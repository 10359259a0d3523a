//! The content-addressed stage-result cache.
//!
//! Every stage of the pipeline — scheduling, netlist construction,
//! placement, routing, channel-length optimization — is a pure function of
//! its inputs. The [`StageCache`] exploits that: each stage result is
//! stored under a [`ContentHash`] key derived from *everything* the stage
//! can observe, so a request whose inputs are unchanged returns the stored
//! result instead of recomputing. Because the stages are pure, a cached
//! result is **byte-identical** to what recomputation would produce — the
//! golden tests in `tests/cache_equiv.rs` pin this.
//!
//! # Keying (invalidation falls out of it)
//!
//! There is no explicit invalidation: a key embeds the content hashes of
//! its stage's inputs, so changing any input simply addresses a different
//! slot. The keys are:
//!
//! * **schedule** ← assay graph, component set, wash-model fingerprint,
//!   `t_c`, binding rule, defect map;
//! * **netlist** ← the *produced* schedule's content hash, graph, wash
//!   fingerprint, `β`, `γ`;
//! * **placement** ← netlist key, component set, grid spec, placement
//!   strategy with all its parameters (including the per-attempt SA seed),
//!   defect map;
//! * **routing** ← the produced schedule and placement content hashes,
//!   graph, wash fingerprint, router configuration, routing strategy,
//!   defect map;
//! * **optimized routing** ← the routing key (which already pins the
//!   routed solution and every optimizer input).
//!
//! Failed stages are cached too — every stage error is `Clone` and a
//! deterministic property of the same inputs, so replaying a failure from
//! the cache is byte-identical to recomputing it. Routing errors are
//! stored without their attempt number and stamped with the caller's
//! attempt counter on the way out, preserving exact error strings in
//! recovery traces.
//!
//! # Concurrency & determinism
//!
//! The cache is shared across threads (`&StageCache` is `Send + Sync`).
//! A computation in flight is marked in the map; other requesters of the
//! same key block on a condvar instead of duplicating work, and a panic
//! inside a compute closure releases the marker so waiters retry rather
//! than hang. Since every slot holds the output of a pure function,
//! thread interleaving can only affect *who* computes a value, never the
//! value itself — synthesis results stay byte-identical for any
//! `MFB_THREADS`. Aggregate hit/miss counters are deterministic as well:
//! per stage, misses = distinct keys computed, hits = requests − misses.
//!
//! # Schedule validation (once per schedule hash)
//!
//! The cached schedule stage runs the independent validator
//! (`mfb_sched::validate`) once per **distinct schedule content hash** per
//! cache lifetime, instead of on every recovery-ladder rung that reuses
//! the same bound schedule. A violation means the scheduler broke its own
//! contract, so it surfaces as a panic — contained as
//! [`SynthesisError::StagePanic`](crate::error::SynthesisError::StagePanic)
//! under the resilient driver's guards.

use crate::config::{PlacementStrategy, RoutingStrategy, SynthesisConfig};
use mfb_model::hash::{content_hash, wash_fingerprint, ContentHash, StableHasher};
use mfb_model::prelude::*;
use mfb_place::prelude::{
    place_constructive_with_defects, place_sa_budgeted, NetList, PlaceError, Placement, SaConfig,
    SpacingParams,
};
use mfb_route::prelude::{
    optimize_channel_length_with_defects, route_corrected_with_defects, route_dcsa_budgeted,
    RouteError, Routing,
};
use mfb_sched::prelude::{schedule_with_defects, validate, SchedError, Schedule, SchedulerConfig};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Aggregate hit/miss accounting for one [`StageCache`].
///
/// All counters are totals since the cache was created. They are
/// deterministic for a given workload: per stage, `*_misses` is the number
/// of distinct keys computed and `*_hits` is requests minus misses,
/// independent of thread interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Schedule-stage requests served from the cache.
    pub schedule_hits: u64,
    /// Schedule-stage requests that had to compute.
    pub schedule_misses: u64,
    /// Netlist-stage requests served from the cache.
    pub netlist_hits: u64,
    /// Netlist-stage requests that had to compute.
    pub netlist_misses: u64,
    /// Placement-stage requests served from the cache.
    pub placement_hits: u64,
    /// Placement-stage requests that had to compute.
    pub placement_misses: u64,
    /// Routing-stage requests served from the cache.
    pub routing_hits: u64,
    /// Routing-stage requests that had to compute.
    pub routing_misses: u64,
    /// Channel-optimization requests served from the cache.
    pub optimize_hits: u64,
    /// Channel-optimization requests that had to compute.
    pub optimize_misses: u64,
    /// Full schedule validations run (once per distinct schedule hash).
    pub schedule_validations: u64,
}

impl CacheStats {
    /// Total hits across every stage.
    pub fn hits(&self) -> u64 {
        self.schedule_hits
            + self.netlist_hits
            + self.placement_hits
            + self.routing_hits
            + self.optimize_hits
    }

    /// Total misses across every stage.
    pub fn misses(&self) -> u64 {
        self.schedule_misses
            + self.netlist_misses
            + self.placement_misses
            + self.routing_misses
            + self.optimize_misses
    }
}

/// Counter-wise saturating difference, for attributing activity to a
/// window: snapshot before, subtract after. Counters are monotone, so
/// saturation only matters if snapshots are swapped.
impl std::ops::Sub for CacheStats {
    type Output = CacheStats;

    fn sub(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            schedule_hits: self.schedule_hits.saturating_sub(rhs.schedule_hits),
            schedule_misses: self.schedule_misses.saturating_sub(rhs.schedule_misses),
            netlist_hits: self.netlist_hits.saturating_sub(rhs.netlist_hits),
            netlist_misses: self.netlist_misses.saturating_sub(rhs.netlist_misses),
            placement_hits: self.placement_hits.saturating_sub(rhs.placement_hits),
            placement_misses: self.placement_misses.saturating_sub(rhs.placement_misses),
            routing_hits: self.routing_hits.saturating_sub(rhs.routing_hits),
            routing_misses: self.routing_misses.saturating_sub(rhs.routing_misses),
            optimize_hits: self.optimize_hits.saturating_sub(rhs.optimize_hits),
            optimize_misses: self.optimize_misses.saturating_sub(rhs.optimize_misses),
            schedule_validations: self
                .schedule_validations
                .saturating_sub(rhs.schedule_validations),
        }
    }
}

/// One persistable cache entry: the flattened on-disk form of a single
/// finished, successful slot. Exactly one payload field is `Some`,
/// selected by [`stage`](SnapshotEntry::stage) (`"routing"` and
/// `"optimize"` share the `routing` field). Produced by
/// [`StageCache::export_entries`], consumed by
/// [`StageCache::import_entry`]; errors and in-flight slots are never
/// part of a snapshot.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SnapshotEntry {
    /// Which stage map the entry belongs to: `"schedule"`, `"netlist"`,
    /// `"placement"`, `"routing"`, or `"optimize"`.
    pub stage: String,
    /// The content-hash key of the slot, as produced by the stage's key
    /// builder.
    pub key: u64,
    /// The stage's *output* content hash for stages that record one
    /// (schedule, placement); zero otherwise.
    pub output_hash: u64,
    /// Payload of a `"schedule"` entry.
    pub schedule: Option<Schedule>,
    /// Payload of a `"netlist"` entry.
    pub netlist: Option<NetList>,
    /// Payload of a `"placement"` entry.
    pub placement: Option<Placement>,
    /// Payload of a `"routing"` or `"optimize"` entry.
    pub routing: Option<Routing>,
}

impl SnapshotEntry {
    fn new(stage: &str, key: u64, output_hash: u64) -> Self {
        SnapshotEntry {
            stage: stage.to_owned(),
            key,
            output_hash,
            schedule: None,
            netlist: None,
            placement: None,
            routing: None,
        }
    }
}

/// A slot is either a finished result or a computation in flight whose
/// requesters should wait rather than duplicate the work.
enum Slot<T> {
    InFlight,
    Ready(T),
}

/// A schedule entry: the bound schedule and its output content hash, or
/// the (deterministic) scheduling error.
type SchedEntry = Result<(Arc<Schedule>, ContentHash), SchedError>;
/// A placement entry: the placement and its output content hash, or the
/// placement error.
type PlaceEntry = Result<(Arc<Placement>, ContentHash), PlaceError>;
/// A routing entry. Routing errors are stored **without** an attempt
/// number (the caller stamps its own on the way out).
type RouteEntry = Result<Arc<Routing>, RouteError>;

#[derive(Default)]
struct CacheState {
    schedules: HashMap<u64, Slot<SchedEntry>>,
    netlists: HashMap<u64, Slot<Arc<NetList>>>,
    places: HashMap<u64, Slot<PlaceEntry>>,
    routes: HashMap<u64, Slot<RouteEntry>>,
    optimized: HashMap<u64, Slot<Arc<Routing>>>,
    /// Output hashes of schedules that have passed full validation.
    validated: HashSet<u64>,
    stats: CacheStats,
}

/// The shared content-addressed stage cache. See the [module docs](self).
///
/// Create one per batch (or reuse across calls for a warm cache) and pass
/// it to [`Synthesizer::synthesize_with`](crate::flow::Synthesizer::synthesize_with)
/// or [`Synthesizer::synthesize_resilient`](crate::flow::Synthesizer::synthesize_resilient).
/// Entries live until the cache is dropped.
pub struct StageCache {
    state: Mutex<CacheState>,
    ready: Condvar,
}

impl std::fmt::Debug for StageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("StageCache").field("stats", &stats).finish()
    }
}

impl Default for StageCache {
    fn default() -> Self {
        StageCache::new()
    }
}

impl StageCache {
    /// An empty cache.
    pub fn new() -> Self {
        StageCache {
            state: Mutex::new(CacheState::default()),
            ready: Condvar::new(),
        }
    }

    /// A snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// True when a **finished** schedule result is stored under `key`
    /// (see [`Synthesizer::schedule_cache_key`](crate::flow::Synthesizer::schedule_cache_key)).
    pub fn contains_schedule(&self, key: ContentHash) -> bool {
        matches!(
            self.lock().schedules.get(&key.as_u64()),
            Some(Slot::Ready(_))
        )
    }

    /// The lock, recovered from poisoning: the state is only ever mutated
    /// by small panic-free map operations, so a poisoned mutex (a panic in
    /// *another* critical section user) leaves it consistent.
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached value for `key`, computing (and storing) it with
    /// `compute` on a miss. Concurrent requesters of an in-flight key
    /// block until the computer finishes; if it panics instead, the
    /// in-flight marker is released and a waiter takes over the
    /// computation.
    ///
    /// A value `cacheable` rejects is returned but **not** stored, and the
    /// in-flight marker is released exactly as after a panic: waiters wake
    /// and recompute instead of observing it. Budget-interrupted stage
    /// results go through this path — they reflect one request's deadline,
    /// not the inputs, so caching them would poison every later request
    /// for the same key.
    fn get_or_compute<T: Clone>(
        &self,
        stage: &'static str,
        map: fn(&mut CacheState) -> &mut HashMap<u64, Slot<T>>,
        count: fn(&mut CacheStats, bool),
        key: ContentHash,
        cacheable: impl FnOnce(&T) -> bool,
        compute: impl FnOnce() -> T,
    ) -> T {
        let k = key.as_u64();
        // Dedup attribution: true when this requester blocked on another
        // thread's in-flight computation of the same key.
        let mut waited = false;
        {
            let mut st = self.lock();
            loop {
                match map(&mut st).get(&k) {
                    Some(Slot::Ready(v)) => {
                        let v = v.clone();
                        count(&mut st.stats, true);
                        drop(st);
                        emit_cache_event(stage, "hit", waited);
                        return v;
                    }
                    Some(Slot::InFlight) => {
                        waited = true;
                        st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                    None => {
                        map(&mut st).insert(k, Slot::InFlight);
                        count(&mut st.stats, false);
                        break;
                    }
                }
            }
        }
        emit_cache_event(stage, "miss", waited);

        // The in-flight marker is ours now; it must not survive a panic in
        // `compute`, or every waiter on this key would block forever.
        struct Reservation<'a, T> {
            cache: &'a StageCache,
            map: fn(&mut CacheState) -> &mut HashMap<u64, Slot<T>>,
            k: u64,
            armed: bool,
        }
        impl<T> Drop for Reservation<'_, T> {
            fn drop(&mut self) {
                if self.armed {
                    let mut st = self.cache.lock();
                    (self.map)(&mut st).remove(&self.k);
                    drop(st);
                    self.cache.ready.notify_all();
                }
            }
        }
        let mut reservation = Reservation {
            cache: self,
            map,
            k,
            armed: true,
        };

        let v = compute();

        if cacheable(&v) {
            let mut st = self.lock();
            map(&mut st).insert(k, Slot::Ready(v.clone()));
            reservation.armed = false;
            drop(st);
            self.ready.notify_all();
        } else {
            emit_cache_event(stage, "uncacheable", false);
        }
        // An uncacheable value leaves the reservation armed; its drop (here)
        // removes the in-flight marker and wakes waiters to recompute.
        v
    }

    /// Number of finished, successful entries currently stored — the
    /// number [`export_entries`](StageCache::export_entries) would return.
    pub fn ready_entries(&self) -> usize {
        fn ready<T>(m: &HashMap<u64, Slot<T>>, ok: impl Fn(&T) -> bool) -> usize {
            m.values()
                .filter(|s| matches!(s, Slot::Ready(v) if ok(v)))
                .count()
        }
        let st = self.lock();
        ready(&st.schedules, |e| e.is_ok())
            + ready(&st.netlists, |_| true)
            + ready(&st.places, |e| e.is_ok())
            + ready(&st.routes, |e| e.is_ok())
            + ready(&st.optimized, |_| true)
    }

    /// Every finished, **successful** entry as a persistable snapshot,
    /// sorted by `(stage, key)` so exports are deterministic. Errors are
    /// not exported even though they are cached in memory: a persisted
    /// error could outlive the configuration that produced it, and
    /// recomputing one is cheap (it is the success path that is slow).
    pub fn export_entries(&self) -> Vec<SnapshotEntry> {
        let mut out = Vec::new();
        {
            let st = self.lock();
            for (k, slot) in &st.schedules {
                if let Slot::Ready(Ok((s, h))) = slot {
                    let mut e = SnapshotEntry::new("schedule", *k, h.as_u64());
                    e.schedule = Some((**s).clone());
                    out.push(e);
                }
            }
            for (k, slot) in &st.netlists {
                if let Slot::Ready(n) = slot {
                    let mut e = SnapshotEntry::new("netlist", *k, 0);
                    e.netlist = Some((**n).clone());
                    out.push(e);
                }
            }
            for (k, slot) in &st.places {
                if let Slot::Ready(Ok((p, h))) = slot {
                    let mut e = SnapshotEntry::new("placement", *k, h.as_u64());
                    e.placement = Some((**p).clone());
                    out.push(e);
                }
            }
            for (k, slot) in &st.routes {
                if let Slot::Ready(Ok(r)) = slot {
                    let mut e = SnapshotEntry::new("routing", *k, 0);
                    e.routing = Some((**r).clone());
                    out.push(e);
                }
            }
            for (k, slot) in &st.optimized {
                if let Slot::Ready(r) = slot {
                    let mut e = SnapshotEntry::new("optimize", *k, 0);
                    e.routing = Some((**r).clone());
                    out.push(e);
                }
            }
        }
        out.sort_by(|a, b| (a.stage.as_str(), a.key).cmp(&(b.stage.as_str(), b.key)));
        out
    }

    /// Installs one snapshot entry into its stage map, if that slot is
    /// vacant. Returns `false` — changing nothing — when the entry names
    /// an unknown stage, is missing its payload, or the slot is already
    /// occupied (ready *or* in flight). A malformed entry is therefore a
    /// recompute, never an error: snapshot corruption cannot poison the
    /// cache. Imported schedules are **not** marked validated; the
    /// independent validator re-runs on first use, so even a plausible
    /// but wrong persisted schedule is caught.
    pub fn import_entry(&self, entry: &SnapshotEntry) -> bool {
        let mut st = self.lock();
        let k = entry.key;
        match entry.stage.as_str() {
            "schedule" => {
                let Some(s) = &entry.schedule else {
                    return false;
                };
                if st.schedules.contains_key(&k) {
                    return false;
                }
                let payload = (
                    Arc::new(s.clone()),
                    ContentHash::from_u64(entry.output_hash),
                );
                st.schedules.insert(k, Slot::Ready(Ok(payload)));
            }
            "netlist" => {
                let Some(n) = &entry.netlist else {
                    return false;
                };
                if st.netlists.contains_key(&k) {
                    return false;
                }
                st.netlists.insert(k, Slot::Ready(Arc::new(n.clone())));
            }
            "placement" => {
                let Some(p) = &entry.placement else {
                    return false;
                };
                if st.places.contains_key(&k) {
                    return false;
                }
                let payload = (
                    Arc::new(p.clone()),
                    ContentHash::from_u64(entry.output_hash),
                );
                st.places.insert(k, Slot::Ready(Ok(payload)));
            }
            "routing" => {
                let Some(r) = &entry.routing else {
                    return false;
                };
                if st.routes.contains_key(&k) {
                    return false;
                }
                st.routes.insert(k, Slot::Ready(Ok(Arc::new(r.clone()))));
            }
            "optimize" => {
                let Some(r) = &entry.routing else {
                    return false;
                };
                if st.optimized.contains_key(&k) {
                    return false;
                }
                st.optimized.insert(k, Slot::Ready(Arc::new(r.clone())));
            }
            _ => return false,
        }
        true
    }

    /// Runs `run` if no schedule with output hash `schedule_h` has been
    /// validated through this cache yet. The claim is atomic, so exactly
    /// one requester validates each distinct schedule.
    fn validate_once(&self, schedule_h: ContentHash, run: impl FnOnce()) {
        {
            let mut st = self.lock();
            if !st.validated.insert(schedule_h.as_u64()) {
                return;
            }
            st.stats.schedule_validations += 1;
        }
        mfb_obs::obs_instant!("cache.schedule.validate");
        run();
    }
}

/// Emits one `cache.<stage>.<hit|miss>` instant; `dedup_wait` marks
/// requests that blocked on another thread computing the same key.
fn emit_cache_event(stage: &'static str, outcome: &str, waited: bool) {
    if mfb_obs::enabled() {
        mfb_obs::instant(
            &format!("cache.{stage}.{outcome}"),
            vec![mfb_obs::Field::new("dedup_wait", waited)],
        );
    }
}

fn count_schedule(s: &mut CacheStats, hit: bool) {
    if hit {
        s.schedule_hits += 1;
    } else {
        s.schedule_misses += 1;
    }
}
fn count_netlist(s: &mut CacheStats, hit: bool) {
    if hit {
        s.netlist_hits += 1;
    } else {
        s.netlist_misses += 1;
    }
}
fn count_place(s: &mut CacheStats, hit: bool) {
    if hit {
        s.placement_hits += 1;
    } else {
        s.placement_misses += 1;
    }
}
fn count_route(s: &mut CacheStats, hit: bool) {
    if hit {
        s.routing_hits += 1;
    } else {
        s.routing_misses += 1;
    }
}
fn count_optimize(s: &mut CacheStats, hit: bool) {
    if hit {
        s.optimize_hits += 1;
    } else {
        s.optimize_misses += 1;
    }
}

/// Content hashes of the four pipeline-wide inputs every stage key builds
/// on. Computing them costs one JSON serialization each, so the uncached
/// path never constructs one.
pub(crate) struct BaseKeys {
    graph_h: ContentHash,
    comps_h: ContentHash,
    wash_h: ContentHash,
    defects_h: ContentHash,
}

impl BaseKeys {
    pub(crate) fn new(
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
    ) -> Self {
        BaseKeys {
            graph_h: content_hash(graph),
            comps_h: content_hash(components),
            wash_h: wash_fingerprint(wash, graph),
            defects_h: content_hash(defects),
        }
    }

    pub(crate) fn schedule_key(&self, sched_cfg: &SchedulerConfig) -> ContentHash {
        let mut h = StableHasher::new();
        h.write_str("sched-v1");
        h.write_hash(self.graph_h);
        h.write_hash(self.comps_h);
        h.write_hash(self.wash_h);
        h.write_hash(self.defects_h);
        h.write_u64(sched_cfg.t_c.as_ticks());
        h.write_hash(content_hash(&sched_cfg.rule));
        h.finish()
    }

    fn netlist_key(&self, schedule_h: ContentHash, beta: f64, gamma: f64) -> ContentHash {
        let mut h = StableHasher::new();
        h.write_str("nets-v1");
        h.write_hash(schedule_h);
        h.write_hash(self.graph_h);
        h.write_hash(self.wash_h);
        h.write_f64(beta);
        h.write_f64(gamma);
        h.finish()
    }

    fn place_key(
        &self,
        netlist_key: ContentHash,
        grid: GridSpec,
        cfg: &SynthesisConfig,
        seed: u64,
    ) -> ContentHash {
        let mut h = StableHasher::new();
        h.write_str("place-v1");
        h.write_hash(netlist_key);
        h.write_hash(self.comps_h);
        h.write_hash(self.defects_h);
        h.write_u32(grid.width);
        h.write_u32(grid.height);
        h.write_f64(grid.pitch_mm);
        match cfg.placement {
            PlacementStrategy::SimulatedAnnealing => {
                h.write_str("sa");
                h.write_f64(cfg.sa.t0);
                h.write_f64(cfg.sa.t_min);
                h.write_f64(cfg.sa.alpha);
                h.write_u32(cfg.sa.i_max);
                h.write_u64(seed);
                write_spacing(&mut h, cfg.sa.spacing);
                // The single-chain count and ladder ratio the key carried
                // when tempering was configurable; kept so keys (and
                // persisted snapshots) stay valid.
                h.write_u32(1);
                h.write_f64(1.6);
            }
            PlacementStrategy::Constructive => {
                h.write_str("constructive");
                // The constructive placer's fixed congestion guard.
                write_spacing(&mut h, SpacingParams::default_routing());
            }
        }
        h.finish()
    }

    fn route_key(
        &self,
        schedule_h: ContentHash,
        place_h: ContentHash,
        cfg: &SynthesisConfig,
    ) -> ContentHash {
        let mut h = StableHasher::new();
        h.write_str("route-v1");
        h.write_hash(schedule_h);
        h.write_hash(place_h);
        h.write_hash(self.graph_h);
        h.write_hash(self.wash_h);
        h.write_hash(self.defects_h);
        h.write_str(match cfg.routing {
            RoutingStrategy::ConflictAware => "conflict-aware",
            RoutingStrategy::ConstructionByCorrection => "corrected",
        });
        h.write_u64(cfg.router.w_e.as_ticks());
        h.write_bool(cfg.router.wash_aware_weights);
        h.write_u32(cfg.router.plug_cells);
        h.finish()
    }

    fn optimize_key(&self, route_key: ContentHash) -> ContentHash {
        let mut h = StableHasher::new();
        h.write_str("opt-v1");
        h.write_hash(route_key);
        h.finish()
    }
}

fn write_spacing(h: &mut StableHasher, spacing: SpacingParams) {
    h.write_u32(spacing.min_gap);
    h.write_f64(spacing.weight);
}

/// Algorithm 1's configuration under `cfg` with transport time `t_c` (the
/// recovery ladder's relax rung varies `t_c`; every other caller passes
/// `cfg.t_c`).
pub(crate) fn scheduler_config(cfg: &SynthesisConfig, t_c: Duration) -> SchedulerConfig {
    SchedulerConfig {
        t_c,
        rule: cfg.binding,
    }
}

/// The pipeline's stages, each run exactly one way. A `StageCtx` holds
/// every input the stages read — assay, chip, wash model, defect map,
/// configuration, budget — and each method both calls its stage function
/// and, when a [`StageCache`] is attached, derives the stage key from the
/// same inputs. Uncached, the [`BaseKeys`] are never built, so an
/// uncached run hashes nothing.
pub(crate) struct StageCtx<'a> {
    graph: &'a SequencingGraph,
    components: &'a ComponentSet,
    wash: &'a dyn WashModel,
    defects: &'a DefectMap,
    pub(crate) cfg: &'a SynthesisConfig,
    pub(crate) budget: &'a Budget,
    cache: Option<(&'a StageCache, BaseKeys)>,
}

impl<'a> StageCtx<'a> {
    pub(crate) fn new(
        cache: Option<&'a StageCache>,
        graph: &'a SequencingGraph,
        components: &'a ComponentSet,
        wash: &'a dyn WashModel,
        defects: &'a DefectMap,
        cfg: &'a SynthesisConfig,
        budget: &'a Budget,
    ) -> Self {
        StageCtx {
            graph,
            components,
            wash,
            defects,
            cfg,
            budget,
            cache: cache.map(|c| (c, BaseKeys::new(graph, components, wash, defects))),
        }
    }

    /// Algorithm 1 at transport time `t_c`. Returns the schedule and its
    /// output content hash (zero when uncached — nothing downstream reads
    /// it then). Cached schedules are validated once per distinct output
    /// hash.
    pub(crate) fn schedule(&self, t_c: Duration) -> Result<(Schedule, ContentHash), SchedError> {
        let sched_cfg = scheduler_config(self.cfg, t_c);
        let compute = || {
            schedule_with_defects(
                self.graph,
                self.components,
                self.wash,
                &sched_cfg,
                self.defects,
            )
        };
        let Some((cache, keys)) = &self.cache else {
            return compute().map(|s| (s, ContentHash::from_u64(0)));
        };
        let entry = cache.get_or_compute(
            "schedule",
            |s| &mut s.schedules,
            count_schedule,
            keys.schedule_key(&sched_cfg),
            |_| true,
            || {
                compute().map(|schedule| {
                    let h = content_hash(&schedule);
                    (Arc::new(schedule), h)
                })
            },
        );
        let (schedule, schedule_h) = entry?;
        cache.validate_once(schedule_h, || {
            let violations = validate(&schedule, self.graph, self.components);
            assert!(
                violations.is_empty(),
                "bound schedule failed post-binding validation: {violations:?}"
            );
        });
        Ok(((*schedule).clone(), schedule_h))
    }

    /// The Eq. (4) netlist of `schedule` (output hash `schedule_h`).
    /// Returns the netlist and the netlist *key* (not an output hash — the
    /// key is already fully content-addressed, so downstream keys build on
    /// it without serializing the netlist).
    pub(crate) fn netlist(
        &self,
        schedule: &Schedule,
        schedule_h: ContentHash,
    ) -> (NetList, ContentHash) {
        let (beta, gamma) = (self.cfg.beta, self.cfg.gamma);
        let compute = || NetList::build(schedule, self.graph, self.wash, beta, gamma);
        let Some((cache, keys)) = &self.cache else {
            return (compute(), ContentHash::from_u64(0));
        };
        let key = keys.netlist_key(schedule_h, beta, gamma);
        let netlist = cache.get_or_compute(
            "netlist",
            |s| &mut s.netlists,
            count_netlist,
            key,
            |_| true,
            || Arc::new(compute()),
        );
        ((*netlist).clone(), key)
    }

    /// The configured placer on `grid`; `seed` is the attempt's effective
    /// SA seed (ignored by the seedless constructive placer). Returns the
    /// placement and its output content hash.
    pub(crate) fn place(
        &self,
        netlist: &NetList,
        netlist_key: ContentHash,
        grid: GridSpec,
        seed: u64,
    ) -> Result<(Placement, ContentHash), PlaceError> {
        let (cfg, components, defects) = (self.cfg, self.components, self.defects);
        let compute = || match cfg.placement {
            PlacementStrategy::SimulatedAnnealing => {
                let sa = SaConfig { seed, ..cfg.sa };
                place_sa_budgeted(components, netlist, grid, &sa, defects, self.budget)
                    .map(|(p, _)| p)
            }
            PlacementStrategy::Constructive => {
                place_constructive_with_defects(components, netlist, grid, defects)
            }
        };
        let Some((cache, keys)) = &self.cache else {
            return compute().map(|p| (p, ContentHash::from_u64(0)));
        };
        let entry = cache.get_or_compute(
            "placement",
            |s| &mut s.places,
            count_place,
            keys.place_key(netlist_key, grid, cfg, seed),
            // A budget interrupt is a property of the request, not the key.
            |e| !matches!(e, Err(PlaceError::Interrupted(_))),
            || {
                compute().map(|placement| {
                    let h = content_hash(&placement);
                    (Arc::new(placement), h)
                })
            },
        );
        entry.map(|(placement, h)| ((*placement).clone(), h))
    }

    /// The configured router on one placement. Returns the routing and the
    /// routing *key* (for [`optimize`](StageCtx::optimize)); errors come
    /// back without an attempt number — the caller stamps its own.
    pub(crate) fn route(
        &self,
        schedule: &Schedule,
        schedule_h: ContentHash,
        placement: &Placement,
        place_h: ContentHash,
    ) -> (Result<Routing, RouteError>, ContentHash) {
        let (cfg, graph, wash, defects) = (self.cfg, self.graph, self.wash, self.defects);
        let compute = || match cfg.routing {
            RoutingStrategy::ConflictAware => route_dcsa_budgeted(
                schedule,
                graph,
                placement,
                wash,
                &cfg.router,
                defects,
                self.budget,
            ),
            RoutingStrategy::ConstructionByCorrection => {
                route_corrected_with_defects(schedule, graph, placement, wash, &cfg.router, defects)
            }
        };
        let Some((cache, keys)) = &self.cache else {
            return (compute(), ContentHash::from_u64(0));
        };
        let key = keys.route_key(schedule_h, place_h, cfg);
        let entry = cache.get_or_compute(
            "routing",
            |s| &mut s.routes,
            count_route,
            key,
            // A budget interrupt is a property of the request, not the key.
            |e| !matches!(e, Err(RouteError::Interrupted(_))),
            || compute().map(Arc::new),
        );
        (entry.map(|routing| (*routing).clone()), key)
    }

    /// Channel-length optimization of `routing`, keyed off its routing key
    /// (which already pins the routed solution and every optimizer input).
    pub(crate) fn optimize(
        &self,
        routing: &Routing,
        route_key: ContentHash,
        schedule: &Schedule,
        placement: &Placement,
    ) -> Routing {
        let compute = || {
            optimize_channel_length_with_defects(
                routing,
                schedule,
                self.graph,
                placement,
                self.wash,
                &self.cfg.router,
                self.defects,
            )
        };
        let Some((cache, keys)) = &self.cache else {
            return compute();
        };
        let routing = cache.get_or_compute(
            "optimize",
            |s| &mut s.optimized,
            count_optimize,
            keys.optimize_key(route_key),
            |_| true,
            || Arc::new(compute()),
        );
        (*routing).clone()
    }
}

impl std::fmt::Debug for StageCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageCtx")
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn schedules(s: &mut CacheState) -> &mut HashMap<u64, Slot<SchedEntry>> {
        &mut s.schedules
    }

    #[test]
    fn second_request_is_a_hit_and_skips_compute() {
        let cache = StageCache::new();
        let calls = AtomicU32::new(0);
        let key = ContentHash::from_u64(42);
        let compute = || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(SchedError::NoComponentForKind {
                op: OpId::new(0),
                kind: ComponentKind::Mixer,
            })
        };
        let a = cache.get_or_compute(
            "schedule",
            schedules,
            count_schedule,
            key,
            |_| true,
            compute,
        );
        let b = cache.get_or_compute(
            "schedule",
            schedules,
            count_schedule,
            key,
            |_| true,
            || unreachable!("hit must not recompute"),
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(a.clone().unwrap_err(), b.unwrap_err());
        let stats = cache.stats();
        assert_eq!((stats.schedule_misses, stats.schedule_hits), (1, 1));
    }

    #[test]
    fn panicking_compute_releases_the_slot() {
        let cache = StageCache::new();
        let key = ContentHash::from_u64(7);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_compute(
                "schedule",
                schedules,
                count_schedule,
                key,
                |_| true,
                || panic!("stage bug"),
            );
        }));
        assert!(boom.is_err());
        // The key must be computable again, not deadlocked in flight.
        let v = cache.get_or_compute(
            "schedule",
            schedules,
            count_schedule,
            key,
            |_| true,
            || {
                Err(SchedError::NoComponentForKind {
                    op: OpId::new(1),
                    kind: ComponentKind::Heater,
                })
            },
        );
        assert!(v.is_err());
        assert_eq!(cache.stats().schedule_misses, 2);
    }

    #[test]
    fn uncacheable_value_is_returned_but_not_stored() {
        let cache = StageCache::new();
        let calls = AtomicU32::new(0);
        let key = ContentHash::from_u64(9);
        let err = || {
            Err(SchedError::NoComponentForKind {
                op: OpId::new(2),
                kind: ComponentKind::Mixer,
            })
        };
        let a = cache.get_or_compute(
            "schedule",
            schedules,
            count_schedule,
            key,
            |_| false,
            || {
                calls.fetch_add(1, Ordering::SeqCst);
                err()
            },
        );
        assert!(a.is_err());
        // Not stored: the next request recomputes (a second miss).
        let b = cache.get_or_compute(
            "schedule",
            schedules,
            count_schedule,
            key,
            |_| true,
            || {
                calls.fetch_add(1, Ordering::SeqCst);
                err()
            },
        );
        assert!(b.is_err());
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let stats = cache.stats();
        assert_eq!((stats.schedule_misses, stats.schedule_hits), (2, 0));
    }

    /// Pins the stage keys of the two paper configurations, so any change
    /// to the key layout or to the config bytes it hashes shows up here
    /// (and would leave persisted serve snapshots cold).
    #[test]
    fn paper_stage_keys_are_pinned_for_pcr() {
        let bench = mfb_bench_suite::benchmark_by_name("PCR").unwrap();
        let comps = bench.components(&ComponentLibrary::default());
        let wash = LogLinearWash::paper_calibrated();
        let keys = BaseKeys::new(&bench.graph, &comps, &wash, &DefectMap::pristine());
        let grid = mfb_place::prelude::auto_grid(&comps);
        // Fixed stand-ins for the upstream stage outputs: the pins cover
        // the key layout and the configuration bytes, not the stages.
        let (netlist_key, schedule_h, place_h) = (
            ContentHash::from_u64(1),
            ContentHash::from_u64(2),
            ContentHash::from_u64(3),
        );
        let hex = |cfg: &SynthesisConfig| {
            let sched_cfg = SchedulerConfig {
                t_c: cfg.t_c,
                rule: cfg.binding,
            };
            [
                keys.schedule_key(&sched_cfg).to_hex(),
                keys.place_key(netlist_key, grid, cfg, cfg.sa.seed).to_hex(),
                keys.route_key(schedule_h, place_h, cfg).to_hex(),
            ]
        };
        assert_eq!(
            hex(&SynthesisConfig::paper_dcsa()),
            ["75f75ad7f09ad09f", "a7332ef49f312d30", "fe49b1e4f720d31e"]
        );
        assert_eq!(
            hex(&SynthesisConfig::paper_baseline()),
            ["f568a7cd3fd1054a", "1d083c842b7322c6", "dd7626fea07bea3d"]
        );
    }

    #[test]
    fn validate_once_runs_once_per_hash() {
        let cache = StageCache::new();
        let runs = AtomicU32::new(0);
        for _ in 0..3 {
            cache.validate_once(ContentHash::from_u64(1), || {
                runs.fetch_add(1, Ordering::SeqCst);
            });
        }
        cache.validate_once(ContentHash::from_u64(2), || {
            runs.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        assert_eq!(cache.stats().schedule_validations, 2);
    }
}
