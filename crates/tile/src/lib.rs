//! Layout partitioning and the octagonal-tile routing graph.
//!
//! This crate provides the geometric search substrate of the paper's flow:
//!
//! - [`partition`] — Ohtsuki-style line-extension partitioning of a region
//!   with rectangular holes into rectangular cells \[15\], plus the grid
//!   merging of Lee et al. \[6\] to combat fragmentation (§III-A2).
//! - [`cell_graph`] — the fan-out grid graph with boundary capacities and
//!   its minimum spanning tree (§III-A3).
//! - [`space`] — global cells, frame partitioning, octagonal tiles split by
//!   diagonal wires, blockage tagging, and via-site insertion (§III-C).
//! - [`astar`] — A\*-search over the multi-layer tile graph (§III-D).
//! - [`realize`] — turning a tile path into X-architecture wire segments
//!   that honor the 90°/135° turn rule.

pub mod astar;
pub mod bucket;
pub mod cancel;
pub mod cell_graph;
pub mod partition;
pub mod realize;
pub mod space;

pub use astar::{AstarResult, PathStep, SearchOptions, SearchStats};
pub use bucket::BucketQueue;
pub use cancel::CancelToken;
pub use cell_graph::{CellGraph, MstEdge};
pub use partition::{line_extension_partition, merge_cells};
pub use space::{RoutingSpace, SpaceConfig, TileId, TileNode};
