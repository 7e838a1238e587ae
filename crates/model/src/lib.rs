//! Data model of a via-based multi-chip multi-layer InFO package.
//!
//! This crate captures the problem instance of the paper (§II): the die
//! outline, chips with their fan-in regions, rectangular I/O pads attached
//! to the top RDL, octagonal bump pads attached to the bottom RDL,
//! pre-assigned two-pad nets, rectangular obstacles, the wire/via layer
//! stack, and the design rules (minimum spacing, wire width, via width).
//!
//! It also captures routing *results*: planar [`Route`]s (X-architecture
//! polylines on a wire layer), [`Via`]s (regular octagons spanning adjacent
//! wire layers), the aggregate [`Layout`], a full design-rule checker
//! ([`drc`]) that validates spacing, angle rules, non-crossing, and net
//! connectivity, plus statistics ([`stats`]) and an SVG renderer ([`svg`]).
//!
//! # Units
//!
//! All coordinates and widths are integer **nanometers**; lengths in
//! reports are **micrometers** (`f64`).
//!
//! # Example
//!
//! ```
//! use info_geom::{Point, Rect};
//! use info_model::{DesignRules, PackageBuilder};
//!
//! # fn main() -> Result<(), info_model::BuildError> {
//! let mut b = PackageBuilder::new(
//!     Rect::new(Point::new(0, 0), Point::new(1_000_000, 1_000_000)),
//!     DesignRules::default(),
//!     2, // wire layers
//! );
//! let chip = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(400_000, 400_000)));
//! let a = b.add_io_pad(chip, Point::new(150_000, 150_000))?;
//! let bump = b.add_bump_pad(Point::new(700_000, 700_000))?;
//! b.add_net(a, bump)?;
//! let pkg = b.build()?;
//! assert_eq!(pkg.nets().len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod drc;
pub mod stats;
pub mod svg;

mod ids;
mod layout;
mod netlist;
mod package;
mod route;
mod rules;

pub use ids::{ChipId, NetId, ObstacleId, PadId, RouteId, ViaId, WireLayer};
pub use layout::Layout;
pub use netlist::{pad_by_file_order, parse_package, write_package, ParseError};
pub use package::{
    BuildError, Chip, Net, Obstacle, Pad, PadKind, Package, PackageBuilder, PreVia,
    MAX_WIRE_LAYERS,
};
pub use route::{Route, Via};
pub use rules::DesignRules;

/// Nanometers per micrometer, for reporting conversions.
pub const NM_PER_UM: f64 = 1_000.0;
