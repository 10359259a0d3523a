//! The resilient synthesis driver: an explicit escalation ladder.
//!
//! [`Synthesizer::synthesize`] retries failed routings with fresh annealing
//! seeds and an occasional larger grid, but it has a single lever and no
//! memory of *why* an attempt failed. This module climbs a typed ladder of
//! recovery rungs instead, in order:
//!
//! 1. **Reseed** — re-anneal the same problem with 8 fresh seeds. Cheap,
//!    and sufficient when a destination was merely boxed in by wash
//!    shadows at exactly the wrong moment.
//! 2. **Grow grid** — enlarge the chip 3 times (4/3 linear per step).
//!    Recovers placements that are infeasible by area — including chips
//!    whose defect map has consumed too many cells, since defect
//!    coordinates are absolute and growth only adds pristine area.
//! 3. **Relax `t_c`** — lengthen the constant transport time twice (+1 s
//!    each) and re-run Algorithm 1. Slower schedules overlap less, easing
//!    congestion the router could not untangle geometrically.
//! 4. **Rebind** — up to twice, mark the component implicated in the last
//!    failure as dead and re-run Algorithm 1 on the reduced allocation,
//!    routing the assay around the broken resource entirely.
//!
//! The reseed rung is one run of the flat flow's retry loop over 8 seeds
//! on the base grid; every later step is a single attempt. Every attempt
//! runs the flat flow's place-and-route body, is deterministically
//! seeded, and contains panics: a stage that panics surfaces as
//! [`SynthesisError::StagePanic`] and the ladder climbs on. Errors that are
//! deterministic properties of the inputs (see
//! [`SynthesisError::is_deterministic`]) skip the remaining reseeds, and
//! infeasibility proofs that no rung can fix abort the ladder immediately.
//! When every rung is exhausted, the caller still receives the best
//! partial artifacts as a [`DegradedSolution`].

use crate::cache::{StageCache, StageCtx};
use crate::error::{globally_fatal, SynthesisError};
use crate::flow::{guard, place_and_route, retry, Failed, Prepared, Solution, Synthesizer};
use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_route::prelude::*;
use mfb_sched::prelude::*;

/// Fresh-seed attempts on the base grid (rung 1).
const RESEEDS: u32 = 8;
/// Grid-growth steps, 4/3 linear each (rung 2).
const GROW_STEPS: u32 = 3;
/// `t_c` relaxation steps, +1 s each (rung 3).
const RELAX_TC_STEPS: u32 = 2;
/// Rebind-around-failure steps (rung 4).
const REBINDS: u32 = 2;

/// One rung of the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// Re-anneal with a fresh seed on the original grid.
    Reseed,
    /// Enlarge the chip grid.
    GrowGrid,
    /// Lengthen the constant transport time `t_c` and reschedule.
    RelaxTc,
    /// Mark the implicated component dead and rebind around it.
    Rebind,
}

impl Rung {
    /// How many attempts the ladder makes on this rung at most. Every
    /// budget is an exact attempt count, so the ladder's behavior on a
    /// given input is fixed — there is no wall-clock or randomized cutoff
    /// anywhere.
    pub fn attempts(self) -> u32 {
        match self {
            Rung::Reseed => RESEEDS,
            Rung::GrowGrid => GROW_STEPS,
            Rung::RelaxTc => RELAX_TC_STEPS,
            Rung::Rebind => REBINDS,
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rung::Reseed => "reseed",
            Rung::GrowGrid => "grow-grid",
            Rung::RelaxTc => "relax-tc",
            Rung::Rebind => "rebind",
        })
    }
}

/// One recorded ladder attempt: which rung, with what parameters, and how
/// it failed (successful attempts end the ladder and are not recorded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungAttempt {
    /// The rung that made the attempt.
    pub rung: Rung,
    /// 1-based global attempt number across the whole ladder.
    pub attempt: u32,
    /// Human-readable parameters of the attempt (seed, grid, `t_c`, …).
    pub detail: String,
    /// Display form of the error the attempt produced.
    pub error: String,
}

/// The full failure history of one ladder run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryTrace {
    /// Every failed attempt, in execution order.
    pub attempts: Vec<RungAttempt>,
}

impl RecoveryTrace {
    /// Number of failed attempts recorded.
    pub fn len(&self) -> usize {
        self.attempts.len()
    }

    /// True when the first attempt succeeded outright.
    pub fn is_empty(&self) -> bool {
        self.attempts.is_empty()
    }

    /// The distinct rungs that were tried, in first-use order.
    pub fn rungs_tried(&self) -> Vec<Rung> {
        let mut out = Vec::new();
        for a in &self.attempts {
            if !out.contains(&a.rung) {
                out.push(a.rung);
            }
        }
        out
    }
}

/// Best-effort artifacts from an exhausted ladder: whatever stages did
/// succeed on some attempt, for post-mortem inspection or manual repair.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedSolution {
    /// The last schedule that bound successfully, if any attempt got that
    /// far.
    pub schedule: Option<Schedule>,
    /// The last placement that legalized successfully, if any attempt got
    /// that far.
    pub placement: Option<Placement>,
}

/// The complete result of a resilient synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientOutcome {
    /// The solution, or the last error once every rung was exhausted.
    pub result: Result<Solution, SynthesisError>,
    /// Every failed attempt along the way.
    pub trace: RecoveryTrace,
    /// Best partial artifacts when `result` is an error; `None` on
    /// success.
    pub degraded: Option<DegradedSolution>,
}

impl ResilientOutcome {
    /// The solution, when synthesis succeeded.
    pub fn solution(&self) -> Option<&Solution> {
        self.result.as_ref().ok()
    }

    /// True when synthesis succeeded on some rung.
    pub fn is_success(&self) -> bool {
        self.result.is_ok()
    }
}

/// One step of the ladder, in climbing order.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The retry over [`RESEEDS`] seeds on the base grid.
    Reseed,
    /// Grow the grid `g` times, with seed `seed + RESEEDS + g`.
    Grow(u32),
    /// Relax `t_c` by `k` seconds on the largest grid.
    RelaxTc(u32),
    /// Kill the component the last error implicates, on the largest grid.
    Rebind,
}

/// The ladder's running record: the failure trace, the latest artifacts
/// for the [`DegradedSolution`], and the global attempt number.
struct Ladder {
    trace: RecoveryTrace,
    partial: DegradedSolution,
    attempt: u32,
}

impl Ladder {
    /// Schedules at `t_c` through `ctx`, then retries `tries` place-and-
    /// route attempts, attempt `i` on the `(grid, seed)` of `plan(i)`.
    /// Records every failure under `rung` with `detail(i)`. Returns the
    /// solution, or the error that ended the step.
    fn climb(
        &mut self,
        ctx: &StageCtx<'_>,
        rung: Rung,
        t_c: Duration,
        tries: u32,
        plan: impl Fn(u32) -> (GridSpec, u64) + Sync,
        detail: impl Fn(u32) -> String,
    ) -> Result<Solution, SynthesisError> {
        let first = self.attempt;
        let scheduled = guard("schedule", true, || Ok(ctx.schedule(t_c)?));
        let (schedule, schedule_h) = match scheduled {
            Ok(s) => s,
            Err(e) => {
                self.attempt += 1;
                return Err(self.record(rung, detail(0), e));
            }
        };
        self.partial.schedule = Some(schedule.clone());
        let (netlist, netlist_key) = ctx.netlist(&schedule, schedule_h);
        let prep = Prepared {
            schedule,
            schedule_h,
            netlist,
            netlist_key,
        };
        retry(
            tries,
            ctx.budget,
            |i| {
                let (grid, seed) = plan(i);
                place_and_route(ctx, &prep, grid, seed, first + i, true)
            },
            |i, res| {
                let attempt = first + i + 1;
                self.attempt = attempt;
                let failed = match res {
                    Ok(routed) => {
                        let placement = routed.placement.clone();
                        match guard("route", true, || {
                            Ok(prep.clone().finish(ctx, routed, attempt))
                        }) {
                            Ok(solution) => {
                                mfb_obs::obs_instant!(
                                    "recovery.rung",
                                    rung = rung.to_string(),
                                    attempt = attempt,
                                    outcome = "recovered",
                                );
                                return Ok(solution);
                            }
                            Err(error) => Failed {
                                error,
                                placement: Some(placement),
                            },
                        }
                    }
                    Err(failed) => failed,
                };
                if failed.placement.is_some() {
                    self.partial.placement = failed.placement;
                }
                Err(self.record(rung, detail(i), failed.error))
            },
        )
    }

    /// Records the failure of the current attempt in the trace, mirrors it
    /// as a `recovery.rung` instant event, and hands the error back.
    fn record(&mut self, rung: Rung, detail: String, e: SynthesisError) -> SynthesisError {
        let error = e.to_string();
        mfb_obs::obs_instant!(
            "recovery.rung",
            rung = rung.to_string(),
            attempt = self.attempt,
            outcome = "failed",
            error = error.clone(),
        );
        self.trace.attempts.push(RungAttempt {
            rung,
            attempt: self.attempt,
            detail,
            error,
        });
        e
    }
}

impl Synthesizer {
    /// Runs the full flow under the escalation ladder described in the
    /// [module docs](self), honoring `defects` in every stage.
    ///
    /// Unlike [`synthesize`](Synthesizer::synthesize) this never panics on
    /// a stage bug and never returns empty-handed: an exhausted ladder
    /// still reports its failure history and best partial artifacts.
    ///
    /// The ladder always climbs through a stage cache — `cache`, or a
    /// fresh one when `None` — so rungs that vary only one lever (a fresh
    /// SA seed, a grown grid) reuse the bound schedule and netlist of
    /// earlier rungs, and validation runs once per distinct schedule. A
    /// caller-owned cache lets batch drivers share warm stage results
    /// across ladder runs; the ladder's behavior — which rungs climb, the
    /// recorded trace, the result — is byte-identical with any cache
    /// state.
    ///
    /// The budget is polled at every step boundary and inside each
    /// attempt's stages; when it trips, the ladder stops climbing and the
    /// outcome carries [`SynthesisError::DeadlineExceeded`] or
    /// [`SynthesisError::Cancelled`] **plus** the trace and best partial
    /// artifacts accumulated so far — an expired job still reports how far
    /// it got. A run that finishes within its budget is byte-identical to
    /// an unlimited run.
    pub fn synthesize_resilient(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
        cache: Option<&StageCache>,
        budget: &Budget,
    ) -> ResilientOutcome {
        let _span = mfb_obs::obs_span!(
            "flow.resilient",
            ops = graph.ops().count() as u64,
            components = components.len() as u64,
        );
        let fresh = StageCache::new();
        let cache = cache.unwrap_or(&fresh);
        let cfg = self.config();
        let base_grid = cfg.grid.unwrap_or_else(|| auto_grid(components));
        let max_grid = grown_grid(base_grid, GROW_STEPS);
        let seed_of = |i: u32| cfg.sa.seed.wrapping_add(u64::from(i));
        let steps = std::iter::once(Step::Reseed)
            .chain((1..=GROW_STEPS).map(Step::Grow))
            .chain((1..=RELAX_TC_STEPS).map(Step::RelaxTc))
            .chain((0..REBINDS).map(|_| Step::Rebind));

        // Every step but a rebind keeps the caller's defect map and shares
        // one stage context; a rebind builds a fresh one after each kill,
        // since the defect map participates in every stage key.
        let ctx = StageCtx::new(Some(cache), graph, components, wash, defects, cfg, budget);
        let mut defects_now = defects.clone();
        let mut ladder = Ladder {
            trace: RecoveryTrace::default(),
            partial: DegradedSolution {
                schedule: None,
                placement: None,
            },
            attempt: 0,
        };
        let mut last_err = None;
        for step in steps {
            if let Err(why) = budget.check() {
                last_err = Some(why.into());
                break;
            }
            let result = match step {
                // Only the seed varies here, so an error that does not
                // depend on it ends the retry early.
                Step::Reseed => {
                    let (w, h) = (base_grid.width, base_grid.height);
                    ladder.climb(
                        &ctx,
                        Rung::Reseed,
                        cfg.t_c,
                        RESEEDS,
                        |i| (base_grid, seed_of(i)),
                        |i| format!("seed {} on {w}x{h} grid", seed_of(i)),
                    )
                }
                Step::Grow(g) => {
                    let grid = grown_grid(base_grid, g);
                    ladder.climb(
                        &ctx,
                        Rung::GrowGrid,
                        cfg.t_c,
                        1,
                        |_| (grid, seed_of(RESEEDS + g)),
                        |_| format!("grown to {}x{} grid", grid.width, grid.height),
                    )
                }
                Step::RelaxTc(k) => {
                    let t_c = cfg.t_c + Duration::from_secs(u64::from(k));
                    ladder.climb(
                        &ctx,
                        Rung::RelaxTc,
                        t_c,
                        1,
                        |_| (max_grid, cfg.sa.seed),
                        |_| format!("t_c relaxed to {t_c}"),
                    )
                }
                Step::Rebind => {
                    let Some(victim) = implicated_component(
                        last_err.as_ref(),
                        ladder.partial.schedule.as_ref(),
                        components,
                        &defects_now,
                    ) else {
                        break;
                    };
                    defects_now.kill_component(victim);
                    let rebound = StageCtx::new(
                        Some(cache),
                        graph,
                        components,
                        wash,
                        &defects_now,
                        cfg,
                        budget,
                    );
                    ladder.climb(
                        &rebound,
                        Rung::Rebind,
                        cfg.t_c,
                        1,
                        |_| (max_grid, cfg.sa.seed),
                        |_| format!("component {victim} marked dead, rebound"),
                    )
                }
            };
            match result {
                Ok(solution) => {
                    return ResilientOutcome {
                        result: Ok(solution),
                        trace: ladder.trace,
                        degraded: None,
                    }
                }
                Err(e) => {
                    let fatal = globally_fatal(&e);
                    last_err = Some(e);
                    if fatal {
                        break;
                    }
                }
            }
        }

        let last = last_err.unwrap_or(SynthesisError::StagePanic {
            stage: "ladder",
            message: "no attempt was made".to_string(),
        });
        ResilientOutcome {
            result: Err(last),
            trace: ladder.trace,
            degraded: Some(ladder.partial),
        }
    }
}

/// The component most plausibly responsible for `err`, when one can be
/// named and killing it leaves at least one live component of its kind.
fn implicated_component(
    err: Option<&SynthesisError>,
    schedule: Option<&Schedule>,
    components: &ComponentSet,
    defects: &DefectMap,
) -> Option<ComponentId> {
    let candidate = match err? {
        SynthesisError::Route { last, .. } => match last {
            RouteError::NoPorts { component } => Some(*component),
            // An unroutable transport most often cannot *reach* its
            // destination; retire the destination so rebinding moves the
            // consuming operation elsewhere.
            RouteError::Unroutable { task } | RouteError::CorrectionDiverged { task } => {
                schedule.map(|s| s.transport(*task).dst)
            }
            _ => None,
        },
        _ => None,
    }?;
    if defects.is_dead(candidate) {
        return None;
    }
    let kind = components.component(candidate).kind();
    let live_peers = components
        .of_kind(kind)
        .filter(|&c| c != candidate && !defects.is_dead(c))
        .count();
    (live_peers >= 1).then_some(candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthesisConfig;

    fn wash() -> LogLinearWash {
        LogLinearWash::paper_calibrated()
    }

    fn tiny() -> (SequencingGraph, ComponentSet) {
        let mut b = SequencingGraph::builder();
        let d = DiffusionCoefficient::PROTEIN;
        let m0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
        let m1 = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
        let dt = b.operation(OperationKind::Detect, Duration::from_secs(3), d);
        b.edge(m0, m1).unwrap();
        b.edge(m1, dt).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 0, 0, 1).instantiate(&ComponentLibrary::default());
        (g, comps)
    }

    #[test]
    fn first_attempt_success_leaves_an_empty_trace() {
        let (g, comps) = tiny();
        let out = Synthesizer::paper_dcsa().synthesize_resilient(
            &g,
            &comps,
            &wash(),
            &DefectMap::pristine(),
            None,
            &Budget::unlimited(),
        );
        assert!(out.is_success());
        assert!(out.trace.is_empty());
        assert!(out.degraded.is_none());
        let plain = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash())
            .unwrap();
        assert_eq!(out.solution().unwrap().placement, plain.placement);
        assert_eq!(out.solution().unwrap().routing, plain.routing);
    }

    #[test]
    fn grow_grid_rung_recovers_a_too_small_chip() {
        let (g, comps) = tiny();
        // A 6x6 grid cannot hold two 4x3 mixers and a detector with
        // clearance: the flat loop dies instantly on the placement error...
        let mut cfg = SynthesisConfig::paper_dcsa();
        cfg.grid = Some(GridSpec::new(6, 6, 10.0));
        let flat = Synthesizer::new(cfg.clone()).synthesize(&g, &comps, &wash());
        assert!(matches!(flat, Err(SynthesisError::Place(_))));
        // ...which no seed can fix, so reseeding alone cannot help...
        assert!(flat.as_ref().is_err_and(SynthesisError::is_deterministic));
        // ...but the grid-growth rung does.
        let out = Synthesizer::new(cfg).synthesize_resilient(
            &g,
            &comps,
            &wash(),
            &DefectMap::pristine(),
            None,
            &Budget::unlimited(),
        );
        assert!(out.is_success(), "{:?}", out.result);
        assert!(out.trace.rungs_tried().contains(&Rung::GrowGrid));
        // The deterministic placement error must not have burnt the whole
        // reseed budget: one attempt, then escalate.
        let reseeds = out
            .trace
            .attempts
            .iter()
            .filter(|a| a.rung == Rung::Reseed)
            .count();
        assert_eq!(reseeds, 1);
    }

    #[test]
    fn infeasible_allocation_fails_fast_with_degraded_report() {
        let mut b = SequencingGraph::builder();
        b.operation(
            OperationKind::Filter,
            Duration::from_secs(2),
            DiffusionCoefficient::PROTEIN,
        );
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let out = Synthesizer::paper_dcsa().synthesize_resilient(
            &g,
            &comps,
            &wash(),
            &DefectMap::pristine(),
            None,
            &Budget::unlimited(),
        );
        assert!(matches!(out.result, Err(SynthesisError::Sched(_))));
        // A scheduling infeasibility proof aborts the ladder after one
        // attempt — no rung adds components.
        assert_eq!(out.trace.len(), 1);
        let degraded = out.degraded.unwrap();
        assert!(degraded.schedule.is_none());
        assert!(degraded.placement.is_none());
    }

    #[test]
    fn fully_dead_allocation_is_a_structured_error() {
        let (g, comps) = tiny();
        let mut defects = DefectMap::pristine();
        for c in comps.ids() {
            defects.kill_component(c);
        }
        let out = Synthesizer::paper_dcsa().synthesize_resilient(
            &g,
            &comps,
            &wash(),
            &defects,
            None,
            &Budget::unlimited(),
        );
        assert!(matches!(out.result, Err(SynthesisError::Sched(_))));
    }

    #[test]
    fn panic_guard_produces_stage_panic() {
        let r: Result<(), SynthesisError> = guard("test-stage", true, || panic!("boom"));
        match r {
            Err(SynthesisError::StagePanic { stage, message }) => {
                assert_eq!(stage, "test-stage");
                assert!(message.contains("boom"));
            }
            other => panic!("expected StagePanic, got {other:?}"),
        }
    }

    #[test]
    fn panic_guard_disabled_lets_panics_through() {
        let caught = std::panic::catch_unwind(|| {
            let _ = guard::<()>("test-stage", false, || panic!("boom"));
        });
        assert!(caught.is_err());
    }

    #[test]
    fn implicated_component_respects_last_live_guard() {
        let (_g, comps) = tiny();
        // Two mixers c0, c1: killing one is allowed while the other lives.
        let err = SynthesisError::Route {
            last: RouteError::NoPorts {
                component: ComponentId::new(0),
            },
            attempts: 1,
        };
        let defects = DefectMap::pristine();
        assert_eq!(
            implicated_component(Some(&err), None, &comps, &defects),
            Some(ComponentId::new(0))
        );
        let mut one_dead = DefectMap::pristine();
        one_dead.kill_component(ComponentId::new(1));
        assert_eq!(
            implicated_component(Some(&err), None, &comps, &one_dead),
            None,
            "must refuse to kill the last live component of a kind"
        );
    }
}
