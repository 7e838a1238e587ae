//! Feature-driven net ordering for the negotiated-congestion driver
//! (DESIGN.md §4h).
//!
//! The legacy sequential stage orders nets shortest-first and lets the
//! rip-up pass pay for every ordering mistake. The negotiated driver
//! instead routes the *hardest* nets first, where "hard" is scored from
//! three deterministic features of the stage-start state:
//!
//! - **detour rate** — authoritative failed-attempt A\* expansions per
//!   unit of pad-pair X-architecture distance (how hard the net searched
//!   relative to its size the last time it failed; 0 before any failure);
//! - **walled-ness** — blocked-tile fraction of the 3×3 global-cell
//!   neighborhood around each terminal, on that terminal's layer (a pad
//!   starved at the source dies no matter how empty the middle is);
//! - **bbox congestion** — mean blocked-tile fraction over every wire
//!   layer of the cells touching the pad-pair bounding box.
//!
//! All three read only the package, the routing space, and the
//! failed-expansion map — state that is identical at every thread count —
//! so the resulting order is thread-invariant by construction
//! (`tests/ordering_differential.rs` pins this).

use info_geom::{x_arch_len, Rect};
use info_model::{NetId, Package, WireLayer};
use info_tile::RoutingSpace;
use std::collections::BTreeMap;

/// Ordering features of one net (all finite, all `≥ 0`; the fractions are
/// in `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFeatures {
    /// The net.
    pub net: NetId,
    /// Pad-pair X-architecture distance (nm).
    pub length: f64,
    /// Mean blocked-tile fraction of the pad-pair bounding box, over all
    /// wire layers.
    pub bbox_congestion: f64,
    /// Mean blocked-tile fraction of the 3×3 cell neighborhoods around
    /// the two terminals, each on its own pad layer.
    pub walledness: f64,
    /// Failed-attempt expansions per nm of pad-pair distance (0 until the
    /// net has an authoritative failure on record).
    pub detour_rate: f64,
}

/// Blocked-tile fraction of one `(layer, cell)`; empty cells count as
/// open (0.0).
fn cell_fraction(space: &RoutingSpace, layer: WireLayer, cx: usize, cy: usize) -> f64 {
    let (blocked, total) = space.cell_occupancy(layer, cx, cy);
    if total == 0 {
        0.0
    } else {
        blocked as f64 / total as f64
    }
}

/// Mean blocked-tile fraction of the 3×3 cell ring around `cell` on
/// `layer`, clipped to the grid.
fn ring_fraction(space: &RoutingSpace, layer: WireLayer, cell: (usize, usize)) -> f64 {
    let (nx, ny) = (space.config().cells_x, space.config().cells_y);
    let mut sum = 0.0;
    let mut n = 0usize;
    for dy in -1i64..=1 {
        for dx in -1i64..=1 {
            let (x, y) = (cell.0 as i64 + dx, cell.1 as i64 + dy);
            if x >= 0 && y >= 0 && (x as usize) < nx && (y as usize) < ny {
                sum += cell_fraction(space, layer, x as usize, y as usize);
                n += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Computes the ordering features of `nets` against the current space,
/// on `threads` workers. Each net's features read only the shared
/// (package, space, failure-map) state, so the per-net closure is pure
/// and [`parallel_map`](crate::pool::parallel_map) returns the rows in
/// net order — the output is byte-identical at every thread count.
pub fn net_features(
    package: &Package,
    space: &RoutingSpace,
    nets: &[NetId],
    fail_expansions: &BTreeMap<NetId, u64>,
    threads: usize,
) -> Vec<NetFeatures> {
    crate::pool::parallel_map(nets, threads, |_, &id| {
        let n = package.net(id);
        let (pa, pb) = (package.pad(n.a).center, package.pad(n.b).center);
        let length = x_arch_len(pa, pb);
        let detour_rate = fail_expansions.get(&id).copied().unwrap_or(0) as f64 / length.max(1.0);
        let walledness = {
            let mut sum = 0.0;
            let mut terms = 0usize;
            for (pad, p) in [(n.a, pa), (n.b, pb)] {
                if let Some(cell) = space.cell_of(p) {
                    sum += ring_fraction(space, package.pad_layer(pad), cell);
                    terms += 1;
                }
            }
            if terms == 0 { 0.0 } else { sum / terms as f64 }
        };
        let bbox_congestion = {
            let cells = space.cells_touching(Rect::new(pa, pb));
            let layers = space.layer_count();
            let mut sum = 0.0;
            let mut terms = 0usize;
            for &(cx, cy) in &cells {
                for l in 0..layers {
                    sum += cell_fraction(space, WireLayer(l as u8), cx, cy);
                    terms += 1;
                }
            }
            if terms == 0 { 0.0 } else { sum / terms as f64 }
        };
        NetFeatures { net: id, length, bbox_congestion, walledness, detour_rate }
    })
}

/// Orders `nets` hardest-first in coarse tiers: each feature is
/// normalized by its maximum over the batch (so no single scale
/// dominates), summed, and *bucketed* to quarter steps — within a tier
/// the order stays shortest-first (then net id), which the legacy front
/// showed packs a layout well. The buckets matter: raw continuous scores
/// would reorder the entire queue by congestion estimates alone, and the
/// estimates are only strong signals at their extremes. A batch with no
/// failures and a uniform space degrades to plain shortest-first.
///
/// Only the feature computation is spread over `threads`; scoring,
/// bucketing and the sort run on the caller's thread against the
/// order-preserved rows, so the order is identical at every thread count.
pub fn feature_order(
    package: &Package,
    space: &RoutingSpace,
    nets: &[NetId],
    fail_expansions: &BTreeMap<NetId, u64>,
    threads: usize,
) -> Vec<NetId> {
    let feats = net_features(package, space, nets, fail_expansions, threads);
    let max_of = |f: fn(&NetFeatures) -> f64| {
        feats.iter().map(f).fold(0.0f64, f64::max).max(f64::MIN_POSITIVE)
    };
    let (md, mw, mb) = (
        max_of(|f| f.detour_rate),
        max_of(|f| f.walledness),
        max_of(|f| f.bbox_congestion),
    );
    let mut scored: Vec<(i64, f64, NetId)> = feats
        .iter()
        .map(|f| {
            let score = f.detour_rate / md + f.walledness / mw + f.bbox_congestion / mb;
            ((score * 4.0).round() as i64, f.length, f.net)
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
    scored.into_iter().map(|(_, _, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterConfig;
    use crate::sequential::space_config;
    use info_geom::Point;
    use info_model::{DesignRules, Layout, PackageBuilder};

    fn pkg() -> Package {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 800_000)),
            DesignRules::default(),
            2,
        );
        let c = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(400_000, 700_000)));
        for i in 0..3 {
            let y = 150_000 + 120_000 * i as i64;
            let io = b.add_io_pad(c, Point::new(380_000, y)).unwrap();
            let g = b.add_bump_pad(Point::new(700_000, y)).unwrap();
            b.add_net(io, g).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn features_are_deterministic_and_bounded() {
        let pkg = pkg();
        let cfg = RouterConfig::default().with_global_cells(8);
        let layout = Layout::new(&pkg);
        let space = RoutingSpace::build(&pkg, &layout, space_config(&pkg, &cfg));
        let nets: Vec<NetId> = pkg.nets().iter().map(|n| n.id).collect();
        let fails = BTreeMap::new();
        let a = net_features(&pkg, &space, &nets, &fails, 1);
        let b = net_features(&pkg, &space, &nets, &fails, 1);
        assert_eq!(a, b, "features must be a pure function of the inputs");
        for f in &a {
            assert!((0.0..=1.0).contains(&f.bbox_congestion), "{f:?}");
            assert!((0.0..=1.0).contains(&f.walledness), "{f:?}");
            assert!(f.detour_rate >= 0.0 && f.length > 0.0, "{f:?}");
        }
    }

    #[test]
    fn failed_nets_sort_first() {
        let pkg = pkg();
        let cfg = RouterConfig::default().with_global_cells(8);
        let layout = Layout::new(&pkg);
        let space = RoutingSpace::build(&pkg, &layout, space_config(&pkg, &cfg));
        let nets: Vec<NetId> = pkg.nets().iter().map(|n| n.id).collect();
        let mut fails = BTreeMap::new();
        fails.insert(NetId(2), 500_000u64);
        let order = feature_order(&pkg, &space, &nets, &fails, 1);
        assert_eq!(order[0], NetId(2), "the net with a failure on record goes first: {order:?}");
        // Without failures the order degrades to shortest-first + id.
        let base = feature_order(&pkg, &space, &nets, &BTreeMap::new(), 1);
        assert_eq!(base.len(), 3);
    }

    #[test]
    fn threaded_features_match_serial() {
        let pkg = pkg();
        let cfg = RouterConfig::default().with_global_cells(8);
        let layout = Layout::new(&pkg);
        let space = RoutingSpace::build(&pkg, &layout, space_config(&pkg, &cfg));
        let nets: Vec<NetId> = pkg.nets().iter().map(|n| n.id).collect();
        let mut fails = BTreeMap::new();
        fails.insert(NetId(1), 250_000u64);
        let serial = net_features(&pkg, &space, &nets, &fails, 1);
        for threads in [2, 4, 8] {
            let par = net_features(&pkg, &space, &nets, &fails, threads);
            assert_eq!(serial, par, "feature rows must be thread-invariant ({threads} threads)");
            assert_eq!(
                feature_order(&pkg, &space, &nets, &fails, 1),
                feature_order(&pkg, &space, &nets, &fails, threads),
            );
        }
    }
}
