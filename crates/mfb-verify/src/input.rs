//! The bundle of synthesis artifacts every checker rule inspects, with
//! memoised access to the (potentially expensive) shared checkers.

use mfb_model::prelude::*;
use mfb_place::prelude::Placement;
use mfb_route::prelude::{plan_washes, RouterConfig, Routing, WashPlan};
use mfb_sched::prelude::{validate, Schedule, ScheduleViolation};
use mfb_sim::prelude::{replay, shape_problems, OccupancyIr, SimReport};
use std::cell::OnceCell;

/// Borrowed view of one complete synthesis result: the one input of both
/// the DRC rules and the `mfb-analyze` analyses.
///
/// Rules never recompute the shared checkers: [`schedule_violations`]
/// (`mfb-sched`'s `validate`), [`replay_report`] (`mfb-sim`'s `replay`),
/// [`occupancy`] (`mfb-sim`'s occupancy model) and [`wash_plan`]
/// (`mfb-route`'s `plan_washes`) each run at most once per input, however
/// many rules consult them. All but the replay (which guards itself) sit
/// behind [`is_checkable`] and yield `None` on an input it rejects.
///
/// [`schedule_violations`]: VerifyInput::schedule_violations
/// [`replay_report`]: VerifyInput::replay_report
/// [`occupancy`]: VerifyInput::occupancy
/// [`wash_plan`]: VerifyInput::wash_plan
/// [`is_checkable`]: VerifyInput::is_checkable
#[derive(Debug)]
pub struct VerifyInput<'a> {
    /// The bioassay being synthesised.
    pub graph: &'a SequencingGraph,
    /// The component allocation.
    pub components: &'a ComponentSet,
    /// Stage 1 result: operation schedule with transport tasks.
    pub schedule: &'a Schedule,
    /// Stage 2 result: the floorplan.
    pub placement: &'a Placement,
    /// Stage 3 result: routed paths with realized times.
    pub routing: &'a Routing,
    /// Wash model the solution was synthesised under.
    pub wash: &'a dyn WashModel,
    /// Router configuration used when the wash plan must be rebuilt.
    pub router_config: RouterConfig,
    /// The chip's defects the solution was synthesised against
    /// ([`DefectMap::pristine`] for an undamaged chip): `DRC-FAULT-001`
    /// asserts no artifact touches one, and the wash plan routes around
    /// blocked cells.
    pub defects: &'a DefectMap,
    checkable: OnceCell<bool>,
    sched_cache: OnceCell<Vec<ScheduleViolation>>,
    replay_cache: OnceCell<SimReport>,
    occupancy_cache: OnceCell<OccupancyIr>,
    wash_plan_cache: OnceCell<WashPlan>,
}

impl<'a> VerifyInput<'a> {
    /// Bundles the artifacts of one synthesis run for checking.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: &'a SequencingGraph,
        components: &'a ComponentSet,
        schedule: &'a Schedule,
        placement: &'a Placement,
        routing: &'a Routing,
        wash: &'a dyn WashModel,
        router_config: RouterConfig,
        defects: &'a DefectMap,
    ) -> Self {
        VerifyInput {
            graph,
            components,
            schedule,
            placement,
            routing,
            wash,
            router_config,
            defects,
            checkable: OnceCell::new(),
            sched_cache: OnceCell::new(),
            replay_cache: OnceCell::new(),
            occupancy_cache: OnceCell::new(),
            wash_plan_cache: OnceCell::new(),
        }
    }

    /// `true` when `mfb-sim`'s `shape_problems` accepts the artifacts
    /// (memoised).
    ///
    /// On a `false` result every accessor below except
    /// [`replay_report`](Self::replay_report) yields `None`, so the rules
    /// built on them stand down instead of indexing out of range, and the
    /// replay reports each problem under `DRC-SHAPE-001`: a rejected input
    /// never checks clean.
    pub fn is_checkable(&self) -> bool {
        *self.checkable.get_or_init(|| {
            shape_problems(
                self.graph,
                self.components,
                self.schedule,
                self.placement,
                self.routing,
            )
            .is_empty()
        })
    }

    /// The legacy schedule checker's findings (memoised).
    pub fn schedule_violations(&self) -> Option<&[ScheduleViolation]> {
        self.is_checkable().then(|| {
            self.sched_cache
                .get_or_init(|| validate(self.schedule, self.graph, self.components))
                .as_slice()
        })
    }

    /// The replay engine's report (memoised). Always available: replay
    /// reports a rejected input as shape mismatches.
    pub fn replay_report(&self) -> &SimReport {
        self.replay_cache.get_or_init(|| {
            replay(
                self.graph,
                self.components,
                self.schedule,
                self.placement,
                self.routing,
                self.wash,
            )
        })
    }

    /// `true` once [`occupancy`](Self::occupancy) has built the model, so
    /// a caller can trace the build without building it twice.
    pub fn has_occupancy(&self) -> bool {
        self.occupancy_cache.get().is_some()
    }

    /// The occupancy model of the routed solution (memoised).
    pub fn occupancy(&self) -> Option<&OccupancyIr> {
        self.is_checkable().then(|| {
            self.occupancy_cache.get_or_init(|| {
                OccupancyIr::build(
                    self.graph,
                    self.schedule,
                    self.placement.grid(),
                    self.routing,
                    self.wash,
                )
            })
        })
    }

    /// The buffer-flush wash plan for the routed solution (memoised).
    pub fn wash_plan(&self) -> Option<&WashPlan> {
        self.is_checkable().then(|| {
            self.wash_plan_cache.get_or_init(|| {
                plan_washes(
                    self.routing,
                    self.graph,
                    self.placement,
                    self.wash,
                    &self.router_config,
                    self.defects,
                )
            })
        })
    }
}
