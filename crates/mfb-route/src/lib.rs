//! Flow-channel routing for DCSA-based biochips.
//!
//! Implements the routing half of the paper's **Algorithm 2**: the layout is
//! partitioned into grid cells carrying weights and occupancy time slots
//! ([`grid`]); transport tasks are routed in start-time order with a
//! time-windowed, wash-weighted A* ([`astar`], Eq. (5)) that makes the three
//! transportation-conflict classes of §II-C.2 unrepresentable
//! ([`router::route_dcsa`]). The baseline's construction-by-correction
//! router, which fixes conflicts after the fact by re-routing or postponing
//! tasks, lives in [`baseline::route_corrected`].
//!
//! The result type [`router::Routing`] carries Table I's *total channel
//! length*, Fig. 9's *total channel wash time*, and the **realized**
//! operation times after any correction delays — the quantity Table I's
//! execution-time column actually compares.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod astar;
pub mod baseline;
pub mod error;
pub mod grid;
pub mod optimize;
pub mod reference;
pub mod router;
pub mod washplan;

/// One-stop import of the routing API.
pub mod prelude {
    pub use crate::astar::{
        find_park_with, find_path, find_path_with, AstarOptions, Park, SearchScratch, SearchStats,
    };
    pub use crate::baseline::{route_corrected, route_corrected_with_defects};
    pub use crate::error::RouteError;
    pub use crate::grid::{ChannelWash, Reservation, RoutingGrid};
    pub use crate::optimize::{optimize_channel_length, optimize_channel_length_with_defects};
    pub use crate::router::{
        ports, route_dcsa, route_dcsa_budgeted, RealizedTimes, RoutedPath, RouterConfig, Routing,
    };
    pub use crate::washplan::{plan_washes, Flush, WashPlan};
}
