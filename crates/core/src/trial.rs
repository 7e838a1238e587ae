//! Pre-commit clearance trial: a realized net is only committed when its
//! geometry keeps the minimum spacing to everything already in the layout
//! (and to pads/obstacles). Nets failing the trial fall through to later,
//! more careful stages instead of poisoning the layout.

use info_geom::{Coord, Octagon, Point, Polyline, Rect, Segment};
use info_model::{Layout, NetId, Package, WireLayer};

/// Proposed geometry of one net.
#[derive(Debug, Clone, Default)]
pub struct Proposal {
    /// Planar routes `(layer, centerline)`.
    pub routes: Vec<(WireLayer, Polyline)>,
    /// Vias `(center, top, bottom)`.
    pub vias: Vec<(Point, WireLayer, WireLayer)>,
}

impl Proposal {
    /// Bounding box of the proposal.
    pub fn bbox(&self) -> Option<Rect> {
        let mut pts = self
            .routes
            .iter()
            .flat_map(|(_, p)| p.points().iter().copied())
            .chain(self.vias.iter().map(|(p, _, _)| *p));
        let first = pts.next()?;
        let (mut lo, mut hi) = (first, first);
        for p in pts {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        Some(Rect::new(lo, hi))
    }
}

/// Whether the proposal clears all foreign geometry by the design rules.
///
/// Checks, per layer: proposed wire centerlines vs foreign wires
/// (`≥ s + s_w`), vs foreign/unowned pads and obstacles (`≥ s + s_w/2`
/// edge), vs foreign vias; and proposed via octagons against the same
/// (`≥ s` edge-to-edge). Same-net geometry is exempt.
///
/// Each proposed segment or via is measured only against the foreign
/// items whose bboxes come within `reach` of its own bbox. Every spacing
/// above is shorter than `reach`, so an item farther off cannot fail it,
/// and the verdict equals that of measuring every item near the
/// proposal's hull: a long route's hull spans most of the die, while
/// each of its segments passes only a handful of items.
pub fn clearance_ok(
    package: &Package,
    layout: &Layout,
    net: NetId,
    proposal: &Proposal,
) -> bool {
    let rules = package.rules();
    let s = rules.min_spacing as f64;
    let half_w = rules.wire_width as f64 / 2.0;
    let tol = 0.5f64;

    let mut pad_nets = vec![None; package.pads().len()];
    for n in package.nets() {
        pad_nets[n.a.index()] = Some(n.id);
        pad_nets[n.b.index()] = Some(n.id);
    }

    let layers: std::collections::BTreeSet<WireLayer> = proposal
        .routes
        .iter()
        .map(|(l, _)| *l)
        .chain(proposal.vias.iter().flat_map(|(_, t, b)| {
            (t.0..=b.0).map(WireLayer)
        }))
        .collect();

    let reach: Coord = rules.min_spacing + rules.wire_width + rules.via_width;
    let prop_bbox = match proposal.bbox() {
        Some(b) => b.inflate(reach),
        None => return true,
    };

    for &layer in &layers {
        // Foreign items on this layer near the proposal, each with its
        // bbox. The trial checks the *rules*, exactly; escape-lane
        // keepouts around unrouted pads live in the tile space (search
        // steering), not here (legality).
        let mut solids: Vec<(Octagon, Rect)> = Vec::new();
        for p in package.pads() {
            let owner = pad_nets[p.id.index()];
            if package.pad_layer(p.id) == layer
                && owner != Some(net)
                && p.bbox().intersects(prop_bbox)
            {
                solids.push((p.shape(), p.bbox()));
            }
        }
        for o in package.obstacles() {
            if o.layer == layer && o.rect.intersects(prop_bbox) {
                solids.push((Octagon::from_rect(o.rect), o.rect));
            }
        }
        for v in layout.vias_on(layer) {
            let shape = v.shape();
            if v.net != net && shape.bbox().intersects(prop_bbox) {
                solids.push((shape, shape.bbox()));
            }
        }
        let foreign_wires: Vec<(Segment, Rect)> = layout
            .routes_on(layer)
            .filter(|r| r.net != net)
            .flat_map(|r| r.path.segments())
            .map(|seg| (seg, seg_bbox(seg)))
            .filter(|(_, bb)| bb.intersects(prop_bbox))
            .collect();
        let near = |bb: Rect| {
            let probe = bb.inflate(reach);
            (
                solids.iter().filter(move |(_, sb)| sb.intersects(probe)).map(|(o, _)| o),
                foreign_wires.iter().filter(move |(_, wb)| wb.intersects(probe)).map(|(w, _)| *w),
            )
        };

        // Proposed wires on this layer.
        for (l, pl) in &proposal.routes {
            if *l != layer {
                continue;
            }
            for seg in pl.segments() {
                let (near_solids, near_wires) = near(seg_bbox(seg));
                for solid in near_solids {
                    if solid.distance_to_segment(seg) - half_w < s - tol {
                        return false;
                    }
                }
                for fw in near_wires {
                    if seg.distance_to_segment(fw) - 2.0 * half_w < s - tol {
                        return false;
                    }
                }
            }
        }
        // Proposed vias spanning this layer.
        for &(at, top, bot) in &proposal.vias {
            if layer < top || layer > bot {
                continue;
            }
            let shape = Octagon::regular(at, rules.via_width);
            let (near_solids, near_wires) = near(shape.bbox());
            for solid in near_solids {
                if shape.distance_to_octagon(solid) < s - tol {
                    return false;
                }
            }
            for fw in near_wires {
                if shape.distance_to_segment(fw) - half_w < s - tol {
                    return false;
                }
            }
        }
    }
    true
}

/// The bounding box of a segment.
fn seg_bbox(seg: Segment) -> Rect {
    let (lo, hi) = seg.bbox();
    Rect::new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use info_model::{DesignRules, PackageBuilder};

    fn pkg_two_nets() -> Package {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 500_000)),
            DesignRules::default(),
            2,
        );
        let c1 = b.add_chip(Rect::new(Point::new(50_000, 100_000), Point::new(300_000, 400_000)));
        let c2 = b.add_chip(Rect::new(Point::new(700_000, 100_000), Point::new(950_000, 400_000)));
        let a1 = b.add_io_pad(c1, Point::new(250_000, 200_000)).unwrap();
        let a2 = b.add_io_pad(c2, Point::new(750_000, 200_000)).unwrap();
        let b1 = b.add_io_pad(c1, Point::new(250_000, 300_000)).unwrap();
        let b2 = b.add_io_pad(c2, Point::new(750_000, 300_000)).unwrap();
        b.add_net(a1, a2).unwrap();
        b.add_net(b1, b2).unwrap();
        b.build().unwrap()
    }

    fn pl(pts: &[(i64, i64)]) -> Polyline {
        Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn clean_route_passes() {
        let pkg = pkg_two_nets();
        let layout = Layout::new(&pkg);
        let prop = Proposal {
            routes: vec![(WireLayer(0), pl(&[(250_000, 200_000), (750_000, 200_000)]))],
            vias: vec![],
        };
        assert!(clearance_ok(&pkg, &layout, NetId(0), &prop));
    }

    #[test]
    fn route_through_foreign_pad_rejected() {
        let pkg = pkg_two_nets();
        let layout = Layout::new(&pkg);
        // Net 0's wire slicing through net 1's pad at (250k, 300k).
        let prop = Proposal {
            routes: vec![(WireLayer(0), pl(&[(150_000, 300_000), (400_000, 300_000)]))],
            vias: vec![],
        };
        assert!(!clearance_ok(&pkg, &layout, NetId(0), &prop));
    }

    #[test]
    fn route_near_foreign_wire_rejected() {
        let pkg = pkg_two_nets();
        let mut layout = Layout::new(&pkg);
        layout.add_route(NetId(1), WireLayer(0), pl(&[(300_000, 250_000), (700_000, 250_000)]));
        // 3 µm parallel offset < 4 µm required.
        let prop = Proposal {
            routes: vec![(WireLayer(0), pl(&[(300_000, 253_000), (700_000, 253_000)]))],
            vias: vec![],
        };
        assert!(!clearance_ok(&pkg, &layout, NetId(0), &prop));
        // 4 µm is legal.
        let prop_ok = Proposal {
            routes: vec![(WireLayer(0), pl(&[(300_000, 254_000), (700_000, 254_000)]))],
            vias: vec![],
        };
        assert!(clearance_ok(&pkg, &layout, NetId(0), &prop_ok));
    }

    #[test]
    fn via_too_close_to_foreign_via_rejected() {
        let pkg = pkg_two_nets();
        let mut layout = Layout::new(&pkg);
        layout.add_via(NetId(1), Point::new(500_000, 250_000), 5_000, WireLayer(0), WireLayer(1), false);
        let prop = Proposal {
            routes: vec![],
            vias: vec![(Point::new(505_000, 250_000), WireLayer(0), WireLayer(1))],
        };
        assert!(!clearance_ok(&pkg, &layout, NetId(0), &prop));
        let prop_far = Proposal {
            routes: vec![],
            vias: vec![(Point::new(520_000, 250_000), WireLayer(0), WireLayer(1))],
        };
        assert!(clearance_ok(&pkg, &layout, NetId(0), &prop_far));
    }

    /// The hull scan `clearance_ok` replaced: every foreign item near the
    /// proposal's inflated hull against every proposed segment and via.
    fn clearance_ok_hull_scan(
        package: &Package,
        layout: &Layout,
        net: NetId,
        proposal: &Proposal,
    ) -> bool {
        let rules = package.rules();
        let s = rules.min_spacing as f64;
        let half_w = rules.wire_width as f64 / 2.0;
        let tol = 0.5f64;
        let mut pad_nets = vec![None; package.pads().len()];
        for n in package.nets() {
            pad_nets[n.a.index()] = Some(n.id);
            pad_nets[n.b.index()] = Some(n.id);
        }
        let layers: std::collections::BTreeSet<WireLayer> = proposal
            .routes
            .iter()
            .map(|(l, _)| *l)
            .chain(proposal.vias.iter().flat_map(|(_, t, b)| (t.0..=b.0).map(WireLayer)))
            .collect();
        let reach: Coord = rules.min_spacing + rules.wire_width + rules.via_width;
        let Some(prop_bbox) = proposal.bbox().map(|b| b.inflate(reach)) else {
            return true;
        };
        for &layer in &layers {
            let mut solids: Vec<Octagon> = Vec::new();
            for p in package.pads() {
                if package.pad_layer(p.id) == layer
                    && pad_nets[p.id.index()] != Some(net)
                    && p.bbox().intersects(prop_bbox)
                {
                    solids.push(p.shape());
                }
            }
            for o in package.obstacles() {
                if o.layer == layer && o.rect.intersects(prop_bbox) {
                    solids.push(Octagon::from_rect(o.rect));
                }
            }
            for v in layout.vias_on(layer) {
                if v.net != net && v.shape().bbox().intersects(prop_bbox) {
                    solids.push(v.shape());
                }
            }
            let foreign_wires: Vec<Segment> = layout
                .routes_on(layer)
                .filter(|r| r.net != net)
                .flat_map(|r| r.path.segments())
                .filter(|seg| seg_bbox(*seg).intersects(prop_bbox))
                .collect();
            for (l, pl) in &proposal.routes {
                if *l != layer {
                    continue;
                }
                for seg in pl.segments() {
                    if solids.iter().any(|o| o.distance_to_segment(seg) - half_w < s - tol) {
                        return false;
                    }
                    if foreign_wires
                        .iter()
                        .any(|fw| seg.distance_to_segment(*fw) - 2.0 * half_w < s - tol)
                    {
                        return false;
                    }
                }
            }
            for &(at, top, bot) in &proposal.vias {
                if layer < top || layer > bot {
                    continue;
                }
                let shape = Octagon::regular(at, rules.via_width);
                if solids.iter().any(|o| shape.distance_to_octagon(o) < s - tol) {
                    return false;
                }
                if foreign_wires
                    .iter()
                    .any(|fw| shape.distance_to_segment(*fw) - half_w < s - tol)
                {
                    return false;
                }
            }
        }
        true
    }

    /// Proposals drawn from a routed layout: each net's own geometry,
    /// the same shifted by a few µm in four directions, and the same
    /// claimed by the next net (so it collides with its true owner).
    fn proposals_from(package: &Package, layout: &Layout) -> Vec<(NetId, Proposal)> {
        let mut out = Vec::new();
        let nets: Vec<NetId> = package.nets().iter().map(|n| n.id).collect();
        for (i, &net) in nets.iter().enumerate() {
            let own = Proposal {
                routes: layout.routes_of(net).map(|r| (r.layer, r.path.clone())).collect(),
                vias: layout.vias_of(net).map(|v| (v.center, v.top, v.bottom)).collect(),
            };
            if own.routes.is_empty() && own.vias.is_empty() {
                continue;
            }
            for (dx, dy) in [(3, 0), (0, -3), (6, 6), (-6, -6)] {
                let d = info_geom::Vector::new(dx * 1_000, dy * 1_000);
                let moved = Proposal {
                    routes: own
                        .routes
                        .iter()
                        .map(|(l, pl)| {
                            (*l, Polyline::new(pl.points().iter().map(|&p| p + d).collect()))
                        })
                        .collect(),
                    vias: own.vias.iter().map(|&(at, t, b)| (at + d, t, b)).collect(),
                };
                out.push((net, moved));
            }
            out.push((nets[(i + 1) % nets.len()], own.clone()));
            out.push((net, own));
        }
        out
    }

    /// Differential check: the per-item filter gives the hull scan's
    /// verdict on accepted and rejected proposals drawn from the routed
    /// dense1 layout and from dense2 routed until a cancel token trips
    /// after 40 checkpoints (a deterministic partial layout of 29 nets,
    /// cheap enough for a debug build).
    #[test]
    fn per_item_filter_matches_the_hull_scan() {
        let dense2 = info_tile::cancel::CancelToken::new();
        dense2.trip_after_checks(40);
        let layouts = [(1, None), (2, Some(dense2))].map(|(idx, token)| {
            let pkg = info_gen::dense(idx);
            let router = crate::InfoRouter::new(crate::RouterConfig::default().without_lp());
            let router = match token {
                Some(t) => router.with_cancel_token(t),
                None => router,
            };
            let layout = router.route(&pkg).layout;
            (pkg, layout)
        });
        let (mut accepted, mut rejected) = (0, 0);
        for (pkg, layout) in &layouts {
            for (net, prop) in proposals_from(pkg, layout) {
                let want = clearance_ok_hull_scan(pkg, layout, net, &prop);
                assert_eq!(clearance_ok(pkg, layout, net, &prop), want, "net {net:?}: {prop:?}");
                if want {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        assert!(accepted >= 20 && rejected >= 20, "{accepted} accepted, {rejected} rejected");
    }

    #[test]
    fn own_geometry_exempt() {
        let pkg = pkg_two_nets();
        let mut layout = Layout::new(&pkg);
        layout.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 200_000), (500_000, 200_000)]));
        // Extending the same net right next to itself is fine.
        let prop = Proposal {
            routes: vec![(WireLayer(0), pl(&[(500_000, 200_000), (750_000, 200_000)]))],
            vias: vec![],
        };
        assert!(clearance_ok(&pkg, &layout, NetId(0), &prop));
    }
}
