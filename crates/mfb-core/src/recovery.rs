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
//!
//! The ladder returns the same `Result` as the flat flow: the solution, or
//! the last typed error once every rung is exhausted. Its history is the
//! `mfb-obs` trace: one `recovery.rung` instant per failed attempt, with
//! `rung`, the 1-based global `attempt`, `outcome = "failed"`, the
//! `error` and the attempt's `detail` (seed and grid, grown grid, relaxed
//! `t_c`, or the component marked dead), then one `recovered` instant
//! naming the rung and attempt that produced the solution.

use crate::cache::{StageCache, StageCtx};
use crate::error::{globally_fatal, SynthesisError};
use crate::flow::{guard, place_and_route, retry, Prepared, Solution, Synthesizer};
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

/// The ladder's running state: the global attempt number, and the last
/// schedule that bound, from which a rebind names its victim.
struct Ladder {
    attempt: u32,
    schedule: Option<Schedule>,
}

impl Ladder {
    /// Schedules at `t_c` through `ctx`, then retries `tries` place-and-
    /// route attempts, attempt `i` on the `(grid, seed)` of `plan(i)`.
    /// Reports every failure under `rung` with `detail(i)`. Returns the
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
                return Err(self.failed(rung, || detail(0), e));
            }
        };
        self.schedule = Some(schedule.clone());
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
                let solved = res.and_then(|routed| {
                    guard("route", true, || {
                        Ok(prep.clone().finish(ctx, routed, attempt))
                    })
                });
                match solved {
                    Ok(solution) => {
                        mfb_obs::obs_instant!(
                            "recovery.rung",
                            rung = rung.to_string(),
                            attempt = attempt,
                            outcome = "recovered",
                        );
                        Ok(solution)
                    }
                    Err(e) => Err(self.failed(rung, || detail(i), e)),
                }
            },
        )
    }

    /// Reports the failure of the current attempt as a `recovery.rung`
    /// instant event, and hands the error back. `detail` runs only when
    /// tracing is enabled.
    fn failed(
        &self,
        rung: Rung,
        detail: impl FnOnce() -> String,
        e: SynthesisError,
    ) -> SynthesisError {
        mfb_obs::obs_instant!(
            "recovery.rung",
            rung = rung.to_string(),
            attempt = self.attempt,
            outcome = "failed",
            error = e.to_string(),
            detail = detail(),
        );
        e
    }
}

impl Synthesizer {
    /// Runs the full flow under the escalation ladder described in the
    /// [module docs](self), honoring `defects` in every stage.
    ///
    /// Unlike [`synthesize`](Synthesizer::synthesize) this never panics on
    /// a stage bug: a panicking stage is one more failed attempt. An
    /// exhausted ladder returns its last typed error; the failure history
    /// is in the `recovery.rung` trace events.
    ///
    /// The ladder always climbs through a stage cache — `cache`, or a
    /// fresh one when `None` — so rungs that vary only one lever (a fresh
    /// SA seed, a grown grid) reuse the bound schedule and netlist of
    /// earlier rungs, and validation runs once per distinct schedule. A
    /// caller-owned cache lets batch drivers share warm stage results
    /// across ladder runs; the ladder's behavior — which rungs climb, the
    /// reported events, the result — is byte-identical with any cache
    /// state.
    ///
    /// The budget is polled at every step boundary and inside each
    /// attempt's stages; when it trips, the ladder stops climbing and
    /// returns [`SynthesisError::DeadlineExceeded`] or
    /// [`SynthesisError::Cancelled`]. A run that finishes within its
    /// budget is byte-identical to an unlimited run.
    ///
    /// # Errors
    ///
    /// The error of the last attempt once every rung is exhausted, the
    /// first error that no rung can fix (see
    /// [`SynthesisError::is_deterministic`]), or the budget interrupt.
    pub fn synthesize_resilient(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
        cache: Option<&StageCache>,
        budget: &Budget,
    ) -> Result<Solution, SynthesisError> {
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
        // Step `k` (1-based) of each rung, in climbing order; the reseed
        // rung is a single step that retries over all its seeds.
        let steps = [Rung::Reseed, Rung::GrowGrid, Rung::RelaxTc, Rung::Rebind]
            .into_iter()
            .flat_map(|rung| {
                let n = if rung == Rung::Reseed {
                    1
                } else {
                    rung.attempts()
                };
                (1..=n).map(move |k| (rung, k))
            });

        // Every step but a rebind keeps the caller's defect map and shares
        // one stage context; a rebind builds a fresh one after each kill,
        // since the defect map participates in every stage key.
        let ctx = StageCtx::new(Some(cache), graph, components, wash, defects, cfg, budget);
        let mut defects_now = defects.clone();
        let mut ladder = Ladder {
            attempt: 0,
            schedule: None,
        };
        let mut last_err = None;
        for (rung, k) in steps {
            if let Err(why) = budget.check() {
                last_err = Some(why.into());
                break;
            }
            let result = match rung {
                // Only the seed varies here, so an error that does not
                // depend on it ends the retry early.
                Rung::Reseed => {
                    let (w, h) = (base_grid.width, base_grid.height);
                    ladder.climb(
                        &ctx,
                        rung,
                        cfg.t_c,
                        RESEEDS,
                        |i| (base_grid, seed_of(i)),
                        |i| format!("seed {} on {w}x{h} grid", seed_of(i)),
                    )
                }
                // Grow the grid `k` times, with seed `seed + RESEEDS + k`.
                Rung::GrowGrid => {
                    let grid = grown_grid(base_grid, k);
                    ladder.climb(
                        &ctx,
                        rung,
                        cfg.t_c,
                        1,
                        |_| (grid, seed_of(RESEEDS + k)),
                        |_| format!("grown to {}x{} grid", grid.width, grid.height),
                    )
                }
                // Relax `t_c` by `k` seconds on the largest grid.
                Rung::RelaxTc => {
                    let t_c = cfg.t_c + Duration::from_secs(u64::from(k));
                    ladder.climb(
                        &ctx,
                        rung,
                        t_c,
                        1,
                        |_| (max_grid, cfg.sa.seed),
                        |_| format!("t_c relaxed to {t_c}"),
                    )
                }
                // Kill the component the last error implicates, on the
                // largest grid.
                Rung::Rebind => {
                    let Some(victim) = implicated_component(
                        last_err.as_ref(),
                        ladder.schedule.as_ref(),
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
                        rung,
                        cfg.t_c,
                        1,
                        |_| (max_grid, cfg.sa.seed),
                        |_| format!("component {victim} marked dead, rebound"),
                    )
                }
            };
            match result {
                Ok(solution) => return Ok(solution),
                Err(e) => {
                    let fatal = globally_fatal(&e);
                    last_err = Some(e);
                    if fatal {
                        break;
                    }
                }
            }
        }

        Err(last_err.unwrap_or(SynthesisError::StagePanic {
            stage: "ladder",
            message: "no attempt was made".to_string(),
        }))
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
        let collector = mfb_obs::TraceCollector::new();
        let sol = mfb_obs::with_collector(&collector, || {
            Synthesizer::paper_dcsa().synthesize_resilient(
                &g,
                &comps,
                &wash(),
                &DefectMap::pristine(),
                None,
                &Budget::unlimited(),
            )
        })
        .unwrap();
        assert_eq!(sol.attempts, 1);
        #[cfg(feature = "obs-trace")]
        {
            let trace = collector.finish();
            let rungs: Vec<_> = trace
                .events
                .iter()
                .filter(|e| e.name == "recovery.rung")
                .collect();
            assert_eq!(rungs.len(), 1, "only the `recovered` event");
            assert_eq!(rungs[0].str_field("outcome"), Some("recovered"));
        }
        let plain = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash())
            .unwrap();
        assert_eq!(sol.placement, plain.placement);
        assert_eq!(sol.routing, plain.routing);
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
        let sol = Synthesizer::new(cfg)
            .synthesize_resilient(
                &g,
                &comps,
                &wash(),
                &DefectMap::pristine(),
                None,
                &Budget::unlimited(),
            )
            .unwrap();
        assert!(sol.placement.grid().width > 6);
        // The deterministic placement error must not have burnt the whole
        // reseed budget: one reseed attempt, then the second growth wins.
        assert_eq!(sol.attempts, 3);
    }

    #[test]
    fn infeasible_allocation_fails_after_one_attempt() {
        let mut b = SequencingGraph::builder();
        b.operation(
            OperationKind::Filter,
            Duration::from_secs(2),
            DiffusionCoefficient::PROTEIN,
        );
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let collector = mfb_obs::TraceCollector::new();
        let out = mfb_obs::with_collector(&collector, || {
            Synthesizer::paper_dcsa().synthesize_resilient(
                &g,
                &comps,
                &wash(),
                &DefectMap::pristine(),
                None,
                &Budget::unlimited(),
            )
        });
        assert!(matches!(out, Err(SynthesisError::Sched(_))));
        // A scheduling infeasibility proof aborts the ladder after one
        // attempt — no rung adds components.
        #[cfg(feature = "obs-trace")]
        assert_eq!(collector.finish().instant_count("recovery.rung"), 1);
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
        assert!(matches!(out, Err(SynthesisError::Sched(_))));
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
