//! The top-down synthesis flow: scheduling → placement → routing, with
//! routing-feedback placement retries.

use crate::cache::{scheduler_config, BaseKeys, StageCache, StageCtx};
use crate::config::SynthesisConfig;
use crate::error::{ends_retry, SynthesisError};
use mfb_analyze::analysis_registry;
use mfb_model::hash::ContentHash;
use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_route::prelude::*;
use mfb_sched::prelude::*;
use mfb_sim::prelude::{replay, SimReport};
use mfb_verify::prelude::{RuleRegistry, VerifyInput, VerifyReport};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A complete flow-layer physical design for one bioassay.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Solution {
    /// The binding and scheduling scheme.
    pub schedule: Schedule,
    /// The routing netlist with its connection priorities.
    pub netlist: NetList,
    /// Component locations.
    pub placement: Placement,
    /// Flow channels and realized times.
    pub routing: Routing,
    /// How many placements were tried before routing succeeded.
    pub attempts: u32,
}

impl Solution {
    /// Replays the solution through the independent validator.
    pub fn verify(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
    ) -> SimReport {
        replay(
            graph,
            components,
            &self.schedule,
            &self.placement,
            &self.routing,
            wash,
        )
    }

    /// Runs the full design-rule checker over the solution with every rule
    /// enabled, the paper's router configuration and a pristine chip. Use
    /// [`drc_with`](Solution::drc_with) to toggle rules, pass the chip's
    /// defects or match a custom router setup.
    pub fn drc(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
    ) -> VerifyReport {
        self.drc_with(
            graph,
            components,
            wash,
            &DefectMap::pristine(),
            RouterConfig::paper(),
            &RuleRegistry::with_all_rules(),
        )
    }

    /// Runs the design-rule checker against the chip's `defects`, with an
    /// explicit router configuration (consulted when the wash plan must be
    /// rebuilt) and rule registry.
    pub fn drc_with(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
        router: RouterConfig,
        registry: &RuleRegistry,
    ) -> VerifyReport {
        let input = VerifyInput::new(
            graph,
            components,
            &self.schedule,
            &self.placement,
            &self.routing,
            wash,
            router,
            defects,
        );
        registry.run(&input)
    }

    /// Runs the cross-stage dataflow analyses (contamination taint,
    /// storage liveness, valve conflicts) with every `ANA-*` rule enabled,
    /// the paper's router configuration and a pristine chip. Use
    /// [`analyze_with`](Solution::analyze_with) to toggle rules.
    pub fn analyze(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
    ) -> VerifyReport {
        self.analyze_with(
            graph,
            components,
            wash,
            &DefectMap::pristine(),
            RouterConfig::paper(),
            &analysis_registry(),
        )
    }

    /// Runs the dataflow analyses against the chip's `defects`, with an
    /// explicit router configuration (consulted for wash-plan feasibility)
    /// and `ANA-*` rule registry (see `mfb_analyze::analysis_registry`).
    /// The analyses read the same [`VerifyInput`] as the DRC; only the
    /// rules and the trace span differ from [`drc_with`](Solution::drc_with).
    pub fn analyze_with(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
        router: RouterConfig,
        registry: &RuleRegistry,
    ) -> VerifyReport {
        let _span = mfb_obs::obs_span!("analyze.run");
        let report = self.drc_with(graph, components, wash, defects, router, registry);
        mfb_obs::obs_counter!("analyze.findings", report.diagnostics.len() as u64);
        report
    }
}

/// The top-down synthesizer. Owns a [`SynthesisConfig`] and runs the full
/// pipeline on any (assay, component set) pair.
///
/// # Examples
///
/// ```
/// use mfb_core::prelude::*;
/// use mfb_model::prelude::*;
///
/// let mut b = SequencingGraph::builder();
/// let wash = LogLinearWash::paper_calibrated();
/// let d = DiffusionCoefficient::PROTEIN;
/// let mix = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
/// let det = b.operation(OperationKind::Detect, Duration::from_secs(4), d);
/// b.edge(mix, det).unwrap();
/// let assay = b.build().unwrap();
/// let chip = Allocation::new(1, 0, 0, 1).instantiate(&ComponentLibrary::default());
///
/// let solution = Synthesizer::paper_dcsa()
///     .synthesize(&assay, &chip, &wash)
///     .unwrap();
/// assert!(solution.verify(&assay, &chip, &wash).is_valid());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Synthesizer {
    config: SynthesisConfig,
}

impl Synthesizer {
    /// A synthesizer with an explicit configuration.
    pub fn new(config: SynthesisConfig) -> Self {
        Synthesizer { config }
    }

    /// The paper's flow (storage-aware scheduling, SA placement,
    /// conflict-aware routing).
    pub fn paper_dcsa() -> Self {
        Synthesizer::new(SynthesisConfig::paper_dcsa())
    }

    /// The paper's baseline flow (BA).
    pub fn paper_baseline() -> Self {
        Synthesizer::new(SynthesisConfig::paper_baseline())
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Runs the complete flow.
    ///
    /// Scheduling and netlist construction run once; placement and routing
    /// iterate — when routing fails on a placement, the flow re-places with
    /// a fresh annealing seed, growing the grid every eighth attempt, up to
    /// [`SynthesisConfig::max_placement_attempts`].
    ///
    /// # Errors
    ///
    /// Any stage error; see [`SynthesisError`].
    pub fn synthesize(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
    ) -> Result<Solution, SynthesisError> {
        self.synthesize_with(
            graph,
            components,
            wash,
            &DefectMap::pristine(),
            None,
            &Budget::unlimited(),
        )
    }

    /// The fully general flat flow: any defect map, an optional shared
    /// [`StageCache`], and an execution [`Budget`].
    ///
    /// * **Defects** — dead components are excluded from binding, blocked
    ///   cells from placement footprints and from every routed or parked
    ///   path, and degraded cells pay their extra wash weight in the
    ///   router's Eq. (5) cost. A pristine map is exactly the plain flow.
    /// * **Cache** — every stage result is looked up by the content hash
    ///   of its inputs before being computed, so related jobs (a perturbed
    ///   seed, a warm batch) skip unchanged stages. Cached results, errors
    ///   included, are byte-identical to uncached synthesis; `None` hashes
    ///   nothing.
    /// * **Budget** — polled at stage boundaries and inside the placement
    ///   and routing inner loops (the annealer once per temperature epoch,
    ///   the router every few thousand A* expansions), so an expired
    ///   deadline or a flipped [`CancelToken`] stops the run promptly. A
    ///   checkpoint only ever *aborts*: a run that finishes within its
    ///   budget is byte-identical to an unlimited run, and interrupted
    ///   stage results are never stored in the cache.
    ///
    /// The retry loop **fails fast** on errors that re-placing cannot fix
    /// (see [`SynthesisError::is_deterministic`]) instead of burning the
    /// whole attempt budget; for escalation beyond fresh seeds — larger
    /// grids, relaxed `t_c`, rebinding around broken components — see
    /// [`synthesize_resilient`](Synthesizer::synthesize_resilient).
    ///
    /// # Errors
    ///
    /// Any stage error, plus [`SynthesisError::DeadlineExceeded`] /
    /// [`SynthesisError::Cancelled`] when the budget trips first.
    pub fn synthesize_with(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
        cache: Option<&StageCache>,
        budget: &Budget,
    ) -> Result<Solution, SynthesisError> {
        let _flow_span = mfb_obs::obs_span!(
            "flow.synthesize",
            ops = graph.ops().count() as u64,
            components = components.len() as u64,
            cached = cache.is_some(),
        );
        let cfg = &self.config;
        let ctx = StageCtx::new(cache, graph, components, wash, defects, cfg, budget);
        budget.check().map_err(SynthesisError::from)?;
        let (schedule, schedule_h) = {
            let _span = mfb_obs::obs_span!("stage.schedule");
            ctx.schedule(cfg.t_c)?
        };
        budget.check().map_err(SynthesisError::from)?;
        let (netlist, netlist_key) = {
            let _span = mfb_obs::obs_span!("stage.netlist");
            ctx.netlist(&schedule, schedule_h)
        };

        let prep = Prepared {
            schedule,
            schedule_h,
            netlist,
            netlist_key,
        };

        // Attempt `i` re-anneals with seed `seed + i` and grows the grid
        // every eighth attempt.
        let base_grid = cfg.grid.unwrap_or_else(|| auto_grid(components));
        let (attempt, routed) = retry(
            cfg.max_placement_attempts,
            budget,
            |i| {
                let grid = grown_grid(base_grid, i / 8);
                let seed = cfg.sa.seed.wrapping_add(u64::from(i));
                place_and_route(&ctx, &prep, grid, seed, i, false)
            },
            |i, res| res.map(|routed| (i, routed)),
        )?;
        budget.check().map_err(SynthesisError::from)?;
        Ok(prep.finish(&ctx, routed, attempt + 1))
    }

    /// Runs only the scheduling and netlist stages, leaving their results
    /// in `cache` for a later cached [`synthesize_with`](Synthesizer::synthesize_with)
    /// to pick up warm. The batch executor runs it as each job's timed
    /// prep step, so a batch report splits a job's time into schedule +
    /// netlist and the rest of the flow.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Sched`] when the assay cannot be bound; the error
    /// is cached, so the later full run replays it cheaply.
    pub fn prepare_cached(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
        cache: &StageCache,
    ) -> Result<(), SynthesisError> {
        let budget = Budget::unlimited();
        let cfg = &self.config;
        let ctx = StageCtx::new(Some(cache), graph, components, wash, defects, cfg, &budget);
        let (schedule, schedule_h) = ctx.schedule(cfg.t_c)?;
        ctx.netlist(&schedule, schedule_h);
        Ok(())
    }

    /// The cache key under which this synthesizer's schedule for
    /// `(graph, components, wash, defects)` is stored. Useful with
    /// [`StageCache::contains_schedule`] to attribute warm hits
    /// deterministically before launching a batch.
    pub fn schedule_cache_key(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
    ) -> ContentHash {
        BaseKeys::new(graph, components, wash, defects)
            .schedule_key(&scheduler_config(&self.config, self.config.t_c))
    }
}

/// The schedule and netlist every attempt of one run places and routes,
/// with the hashes their downstream cache keys build on.
#[derive(Clone)]
pub(crate) struct Prepared {
    pub(crate) schedule: Schedule,
    pub(crate) schedule_h: ContentHash,
    pub(crate) netlist: NetList,
    pub(crate) netlist_key: ContentHash,
}

impl Prepared {
    /// The solution of the winning attempt `routed`, numbered `attempts`,
    /// with its channels optimized when the configuration asks for it.
    /// Only the winner is optimized, however many attempts ran.
    pub(crate) fn finish(self, ctx: &StageCtx<'_>, routed: Routed, attempts: u32) -> Solution {
        let Routed {
            placement,
            mut routing,
            route_key,
        } = routed;
        if ctx.cfg.optimize_channels {
            let _span = mfb_obs::obs_span!("stage.optimize");
            routing = ctx.optimize(&routing, route_key, &self.schedule, &placement);
        }
        Solution {
            schedule: self.schedule,
            netlist: self.netlist,
            placement,
            routing,
            attempts,
        }
    }
}

/// A routed attempt: its placement, the routing, and the routing key the
/// optimizer's cache key builds on.
pub(crate) struct Routed {
    placement: Placement,
    routing: Routing,
    route_key: ContentHash,
}

/// One place-then-route attempt on `grid` with SA seed `seed`: the attempt
/// body of both the flat loop and the recovery ladder. It is a pure
/// function of its arguments, so attempts can run in any order, or
/// concurrently, without changing any result.
///
/// `attempt` is the 0-based index the `stage.place`/`stage.route` spans
/// record; a routing error is stamped with the 1-based `attempt + 1`. A
/// budget interrupt, whether caught at the attempt's own checkpoint or
/// inside a stage, comes back as the flow-level typed error. With `catch`,
/// a panicking stage comes back as [`SynthesisError::StagePanic`] instead
/// of unwinding.
pub(crate) fn place_and_route(
    ctx: &StageCtx<'_>,
    prep: &Prepared,
    grid: GridSpec,
    seed: u64,
    attempt: u32,
    catch: bool,
) -> Result<Routed, SynthesisError> {
    let failed = |error: SynthesisError| error.interrupt().map_or(error, SynthesisError::from);
    ctx.budget.check()?;
    let (placement, place_h) = guard("place", catch, || {
        let _span = mfb_obs::obs_span!("stage.place", attempt = attempt, seed = seed);
        Ok(ctx.place(&prep.netlist, prep.netlist_key, grid, seed)?)
    })
    .map_err(failed)?;
    let (routing, route_key) = guard("route", catch, || {
        let _span = mfb_obs::obs_span!("stage.route", attempt = attempt);
        match ctx.route(&prep.schedule, prep.schedule_h, &placement, place_h) {
            (Ok(routing), route_key) => Ok((routing, route_key)),
            (Err(last), _) => Err(SynthesisError::Route {
                last,
                attempts: attempt + 1,
            }),
        }
    })
    .map_err(failed)?;
    Ok(Routed {
        placement,
        routing,
        route_key,
    })
}

/// The retry loop shared by the flat flow and the recovery ladder: runs
/// `run(i)` for `i` in `0..attempts` (at least one) and hands each result
/// to `visit` in index order, which turns it into a winner or an error.
/// The loop stops at the first winner, or at the first error that another
/// attempt cannot fix ([`ends_retry`]).
///
/// Attempt 0 runs alone (the common case succeeds first try, and a
/// deterministic error must surface after exactly one run); later attempts
/// fan out in [`thread_limit`](mfb_model::par::thread_limit)-sized chunks.
/// `run` must be a pure function of the index, so the outcome — which
/// attempt wins, which error surfaces, how many attempts are counted — is
/// byte-identical to the serial loop for any `MFB_THREADS`. The budget is
/// checked before each chunk.
///
/// # Errors
///
/// The error that stopped the loop, the last attempt's error when none
/// won, or the budget interrupt that tripped between chunks.
pub(crate) fn retry<T: Send, W>(
    attempts: u32,
    budget: &Budget,
    run: impl Fn(u32) -> T + Sync,
    mut visit: impl FnMut(u32, T) -> Result<W, SynthesisError>,
) -> Result<W, SynthesisError> {
    let attempts = attempts.max(1);
    let batch = mfb_model::par::thread_limit().max(1) as u32;
    let mut last = None;
    let mut start = 0u32;
    while start < attempts {
        budget.check()?;
        let chunk = if start == 0 {
            1
        } else {
            (attempts - start).min(batch)
        };
        let results = mfb_model::par::par_map_ordered(chunk as usize, |k| run(start + k as u32));
        for (k, res) in results.into_iter().enumerate() {
            match visit(start + k as u32, res) {
                Ok(winner) => return Ok(winner),
                Err(e) if ends_retry(&e) => return Err(e),
                Err(e) => last = Some(e),
            }
        }
        start += chunk;
    }
    match last {
        Some(e) => Err(e),
        None => unreachable!("attempts >= 1 and every visited attempt errs"),
    }
}

/// Runs `f`, converting a panic into [`SynthesisError::StagePanic`] when
/// `catch` is set.
pub(crate) fn guard<T>(
    stage: &'static str,
    catch: bool,
    f: impl FnOnce() -> Result<T, SynthesisError>,
) -> Result<T, SynthesisError> {
    if !catch {
        return f();
    }
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(SynthesisError::StagePanic { stage, message })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wash() -> LogLinearWash {
        LogLinearWash::paper_calibrated()
    }

    fn tiny() -> (SequencingGraph, ComponentSet) {
        let mut b = SequencingGraph::builder();
        let d = DiffusionCoefficient::PROTEIN;
        let m0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
        let m1 = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
        let m2 = b.operation(OperationKind::Mix, Duration::from_secs(4), d);
        let dt = b.operation(OperationKind::Detect, Duration::from_secs(3), d);
        b.edge(m0, m2).unwrap();
        b.edge(m1, m2).unwrap();
        b.edge(m2, dt).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 0, 0, 1).instantiate(&ComponentLibrary::default());
        (g, comps)
    }

    #[test]
    fn paper_flow_produces_verified_solution() {
        let (g, comps) = tiny();
        let s = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash())
            .unwrap();
        let report = s.verify(&g, &comps, &wash());
        assert!(report.is_valid(), "{:?}", report.violations);
        assert_eq!(s.routing.completion(), s.schedule.completion_time());
        assert!(s.attempts >= 1);
    }

    #[test]
    fn baseline_flow_produces_verified_solution() {
        let (g, comps) = tiny();
        let s = Synthesizer::paper_baseline()
            .synthesize(&g, &comps, &wash())
            .unwrap();
        let report = s.verify(&g, &comps, &wash());
        assert!(report.is_valid(), "{:?}", report.violations);
        assert!(s.routing.completion() >= s.schedule.completion_time());
    }

    #[test]
    fn synthesis_is_deterministic() {
        let (g, comps) = tiny();
        let a = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash())
            .unwrap();
        let b = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash())
            .unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.routing, b.routing);
    }

    #[test]
    fn missing_component_kind_fails_cleanly() {
        let mut b = SequencingGraph::builder();
        b.operation(
            OperationKind::Filter,
            Duration::from_secs(2),
            DiffusionCoefficient::PROTEIN,
        );
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let err = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash())
            .unwrap_err();
        assert!(matches!(err, SynthesisError::Sched(_)));
    }

    #[test]
    fn explicit_grid_is_respected() {
        let (g, comps) = tiny();
        let mut cfg = SynthesisConfig::paper_dcsa();
        cfg.grid = Some(GridSpec::new(30, 20, 10.0));
        let s = Synthesizer::new(cfg)
            .synthesize(&g, &comps, &wash())
            .unwrap();
        assert_eq!(s.placement.grid().width, 30);
        assert_eq!(s.placement.grid().height, 20);
    }
}
