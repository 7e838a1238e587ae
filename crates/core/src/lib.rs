#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! Via-based RDL routing for InFO packages with irregular pad structures.
//!
//! This crate implements the five-stage flow of Wen, Cai, Hsu and Chang
//! (DAC 2020):
//!
//! 1. **Preprocessing** ([`preprocess`]) — peripheral I/O identification,
//!    fan-out region partitioning (Ohtsuki line extension + Lee merging),
//!    MST construction over the fan-out grid graph, and the circular model.
//! 2. **Weighted-MPSC-based concurrent routing** ([`assign`],
//!    [`concurrent`]) — layer assignment maximizing total chord weight
//!    (Eq. (2): detour rate + congestion overflow penalties), then pattern
//!    routing of the assigned nets along their MST paths.
//! 3. **Routing-graph construction** ([`info_tile::RoutingSpace`]) —
//!    global cells, frames, octagonal tiles, via insertion.
//! 4. **Sequential A\*-search routing** ([`sequential`]) — remaining nets
//!    routed one at a time on the multi-layer tile graph, with the graph
//!    rebuilt under each committed net.
//! 5. **LP-based layout optimization** ([`lpopt`]) — x/y/c variables,
//!    fixed/route/interactive constraints, iterative wirelength
//!    minimization with crossing repair.
//!
//! The entry point is [`InfoRouter`]:
//!
//! ```
//! use info_geom::{Point, Rect};
//! use info_model::{DesignRules, PackageBuilder};
//! use info_router::{InfoRouter, RouterConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = PackageBuilder::new(
//!     Rect::new(Point::new(0, 0), Point::new(500_000, 500_000)),
//!     DesignRules::default(),
//!     2,
//! );
//! let chip = b.add_chip(Rect::new(Point::new(50_000, 50_000), Point::new(200_000, 200_000)));
//! let io = b.add_io_pad(chip, Point::new(120_000, 120_000))?;
//! let bump = b.add_bump_pad(Point::new(400_000, 400_000))?;
//! b.add_net(io, bump)?;
//! let pkg = b.build()?;
//!
//! let outcome = InfoRouter::new(RouterConfig::default()).route(&pkg);
//! assert!(outcome.stats.routability_pct > 99.0);
//! # Ok(())
//! # }
//! ```

pub mod assign;
pub mod concurrent;
pub mod eco;
pub mod lpopt;
pub mod preprocess;
pub mod resilience;
pub mod sequential;
pub mod serve;
pub mod trial;
pub mod warm;

mod config;
mod flow;

pub use config::RouterConfig;
pub use eco::{EcoChangeSet, EcoPlan, EcoStash, EcoStats};
pub use flow::{Completion, InfoRouter, NetStatus, RouteOutcome, StageTimings};
pub use info_tile::{CancelToken, SearchOptions, SearchStats};
pub use resilience::{
    FaultDirective, FaultKind, FaultPlan, FaultSite, FlowCtx, FlowDiagnostics, RouterError, Stage,
    StageOutcome,
};
pub use warm::WarmSpaceCache;
