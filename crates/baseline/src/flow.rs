//! The Lin-ext routing flow: concentric assignment + single-layer routing
//! + via-free sequential A\*.

use crate::concentric::concentric_assignment;
use info_model::{drc::DrcReport, stats::LayoutStats, Layout, NetId, Package, PadKind, WireLayer};
use info_router::RouterConfig;
use info_tile::{astar, realize, RoutingSpace, SearchOptions, SearchStats};
use std::time::{Duration, Instant};

/// Everything the baseline produced.
#[derive(Debug, Clone)]
pub struct LinExtOutcome {
    /// Final layout.
    pub layout: Layout,
    /// DRC-verified statistics.
    pub stats: LayoutStats,
    /// Full DRC report.
    pub drc: DrcReport,
    /// Total runtime.
    pub runtime: Duration,
    /// Nets committed by the concurrent (concentric) stage.
    pub concurrent_routed: usize,
    /// Nets committed by the sequential extension.
    pub sequential_routed: usize,
    /// Nets that failed to route.
    pub failed: Vec<NetId>,
}

/// The baseline router. Reuses the main router's tile-space configuration
/// so runtime comparisons are apples-to-apples, but never uses flexible
/// vias: every net lives on one wire layer, reached through fixed pad via
/// stacks.
#[derive(Debug, Clone, Default)]
pub struct LinExtRouter {
    cfg: RouterConfig,
}

impl LinExtRouter {
    /// Creates a baseline router (only the tile-space fields of the
    /// configuration are used).
    pub fn new(cfg: RouterConfig) -> Self {
        LinExtRouter { cfg }
    }

    /// Routes all nets of a package under the no-flexible-via regime.
    pub fn route(&self, package: &Package) -> LinExtOutcome {
        let t0 = Instant::now();
        let mut layout = Layout::new(package);
        let asg = concentric_assignment(package);

        // --- Concurrent stage: each assigned net is routed on its
        // assigned layer only (the ring-by-ring detailed router of the
        // prior work, realized here with the same tile A\* used everywhere
        // for comparability, vias disabled).
        let mut space = RoutingSpace::build(
            package,
            &layout,
            info_router::sequential::space_config(package, &self.cfg),
        );
        let mut leftover: Vec<NetId> = asg.unassigned.clone();
        let mut concurrent_routed = 0usize;
        for (&net, &layer) in &asg.layer_of {
            if try_layer(package, &mut layout, &mut space, net, WireLayer(layer as u8)) {
                concurrent_routed += 1;
            } else {
                leftover.push(net);
            }
        }

        // --- Sequential extension: via-free A\* per net, trying each layer.
        let mut sequential_routed = 0usize;
        let mut failed = Vec::new();
        leftover.sort_unstable();
        for net in leftover {
            if try_sequential_single_layer(package, &mut layout, &mut space, net) {
                sequential_routed += 1;
            } else {
                failed.push(net);
            }
        }

        let report = info_model::drc::check(package, &layout);
        let stats = LayoutStats::from_report(package, &layout, &report);
        LinExtOutcome {
            layout,
            stats,
            drc: report,
            runtime: t0.elapsed(),
            concurrent_routed,
            sequential_routed,
            failed,
        }
    }
}

/// Attempts one net on one specific layer with the via-free A\*; commits
/// (with fixed pad stacks) on success.
fn try_layer(
    package: &Package,
    layout: &mut Layout,
    space: &mut RoutingSpace,
    net: NetId,
    wl: WireLayer,
) -> bool {
    let n = package.net(net);
    let pa = package.pad(n.a).center;
    let pb = package.pad(n.b).center;
    // The prior-work baseline has no flexible vias: one layer per net.
    let opts = SearchOptions { allow_vias: false, ..SearchOptions::default() };
    let mut stats = SearchStats::default();
    let found = astar::route_cancellable(space, net, (wl, pa), (wl, pb), opts, None, &mut stats);
    let Ok(found) = found else {
        return false;
    };
    let Some(real) = realize::realize(&found, (wl, pa), (wl, pb)) else {
        return false;
    };
    if real.routes.iter().any(|(_, pl)| pl.validate().is_err()) {
        return false;
    }
    let crossing = real
        .routes
        .iter()
        .any(|(l, pl)| layout.routes_on(*l).any(|r| r.net != net && pl.crosses(&r.path)));
    if crossing {
        return false;
    }
    // Clearance trial incl. the fixed stacks this layer choice needs.
    let mut proposal =
        info_router::trial::Proposal { routes: real.routes.clone(), vias: Vec::new() };
    let n2 = package.net(net);
    for pad_id in [n2.a, n2.b] {
        let pad = package.pad(pad_id);
        match pad.kind {
            PadKind::Io { .. } if wl > WireLayer::TOP => {
                proposal.vias.push((pad.center, WireLayer::TOP, wl));
            }
            PadKind::Bump if wl < package.bottom_layer() => {
                proposal.vias.push((pad.center, wl, package.bottom_layer()));
            }
            _ => {}
        }
    }
    if !info_router::trial::clearance_ok(package, layout, net, &proposal) {
        return false;
    }
    let dirty = real.bbox();
    add_pad_stacks(package, layout, net, wl);
    for (l, pl) in real.routes {
        layout.add_route(net, l, pl);
    }
    if let Some(d) = dirty {
        space.rebuild_dirty_multi(package, layout, &[d]);
    }
    true
}

/// Fixed via stacks connecting both pads of `net` to `layer`.
fn add_pad_stacks(package: &Package, layout: &mut Layout, net: NetId, layer: WireLayer) {
    let n = package.net(net);
    let sv = package.rules().via_width;
    for pad_id in [n.a, n.b] {
        let pad = package.pad(pad_id);
        match pad.kind {
            PadKind::Io { .. } => {
                if layer > WireLayer::TOP {
                    layout.add_via(net, pad.center, sv, WireLayer::TOP, layer, true);
                }
            }
            PadKind::Bump => {
                let bottom = package.bottom_layer();
                if layer < bottom {
                    layout.add_via(net, pad.center, sv, layer, bottom, true);
                }
            }
        }
    }
}

/// Via-free A\* on each layer in turn; commits on the first success.
fn try_sequential_single_layer(
    package: &Package,
    layout: &mut Layout,
    space: &mut RoutingSpace,
    net: NetId,
) -> bool {
    for layer in 0..package.wire_layer_count() {
        if try_layer(package, layout, space, net, WireLayer(layer as u8)) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use info_geom::{Point, Rect};
    use info_model::{DesignRules, PackageBuilder};

    #[test]
    fn entangled_nets_need_three_layers_without_vias() {
        // The Fig. 2 pattern from the shared generator: three reversed
        // nets in a sealed channel. With 3 layers the baseline routes
        // everything…
        let out3 = LinExtRouter::default().route(&info_gen::patterns::entangled(3, 3));
        assert!(out3.stats.fully_routed(), "{}; failed {:?}", out3.stats, out3.failed);
        // …but with 2 layers at least one net must fail (no flexible
        // vias) — exactly the Fig. 2 contrast with the via-based router.
        let out2 = LinExtRouter::default().route(&info_gen::patterns::entangled(3, 2));
        assert!(
            out2.stats.routed_nets < 3,
            "two layers cannot hold three pairwise-crossing single-layer nets: {}",
            out2.stats
        );
    }

    #[test]
    fn stacks_are_fixed_vias() {
        let out = LinExtRouter::default().route(&info_gen::patterns::entangled(3, 3));
        assert!(out.layout.vias().all(|v| v.fixed));
        // Nets on layers below the top need stacks.
        assert!(out.layout.via_count() >= 2, "vias: {}", out.layout.via_count());
    }

    #[test]
    fn simple_board_nets_route_cleanly() {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 800_000)),
            DesignRules::default(),
            2,
        );
        let c = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(400_000, 700_000)));
        for i in 0..3i64 {
            let y = 200_000 + 150_000 * i;
            let io = b.add_io_pad(c, Point::new(380_000, y)).unwrap();
            let g = b.add_bump_pad(Point::new(700_000, y)).unwrap();
            b.add_net(io, g).unwrap();
        }
        let pkg = b.build().unwrap();
        let out = LinExtRouter::default().route(&pkg);
        assert!(out.stats.fully_routed(), "{}; {:?}", out.stats, out.failed);
        assert_eq!(out.stats.violation_count, 0, "{:#?}", out.drc.violations());
    }
}
