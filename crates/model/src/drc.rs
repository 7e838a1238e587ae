//! Design-rule checking and net-connectivity verification.
//!
//! Every experiment in this workspace validates its final layout here
//! before reporting routability: a net only counts as *routed* if it is
//! electrically connected pad-to-pad and implicated in no violation.
//!
//! Checked rules (§II-B):
//!
//! - **Minimum spacing** between components of different nets (and against
//!   obstacles) on every wire layer, with wire metal width accounted for.
//! - **Non-crossing**: routes of different nets must not cross on a layer.
//! - **X-architecture + routing-angle** rules for every polyline.
//! - **Die containment** of all geometry.
//! - **Connectivity**: each net's two pads joined through routes and vias.

use crate::ids::{NetId, ObstacleId, PadId, RouteId, ViaId, WireLayer};
use crate::layout::Layout;
use crate::package::Package;
use info_geom::{GridIndex, Octagon, Rect, Segment, TurnRuleViolation};
use info_telemetry::{Metric, Sink};
use std::collections::BTreeSet;
use std::fmt;

/// Reference to a checked item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemRef {
    /// A planar route.
    Route(RouteId),
    /// A via.
    Via(ViaId),
    /// A pad.
    Pad(PadId),
    /// An obstacle.
    Obstacle(ObstacleId),
}

impl fmt::Display for ItemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ItemRef::Route(r) => write!(f, "{r}"),
            ItemRef::Via(v) => write!(f, "{v}"),
            ItemRef::Pad(p) => write!(f, "{p}"),
            ItemRef::Obstacle(o) => write!(f, "{o}"),
        }
    }
}

/// One design-rule or connectivity violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Two items of different nets are closer than the minimum spacing.
    Spacing {
        /// Layer on which the violation occurs.
        layer: WireLayer,
        /// First item.
        a: ItemRef,
        /// Second item.
        b: ItemRef,
        /// Measured edge-to-edge distance in nm.
        distance_nm: f64,
        /// Required distance in nm.
        required_nm: f64,
    },
    /// Routes of two different nets cross on a layer.
    Crossing {
        /// Layer of the crossing.
        layer: WireLayer,
        /// First route.
        a: RouteId,
        /// Second route.
        b: RouteId,
    },
    /// A route violates the X-architecture or turn rules.
    TurnRule {
        /// Offending route.
        route: RouteId,
        /// Detail from the polyline validator.
        violation: TurnRuleViolation,
    },
    /// Geometry escapes the die outline.
    OutOfDie {
        /// Offending item.
        item: ItemRef,
    },
    /// A net is not electrically connected pad-to-pad.
    Disconnected {
        /// The net.
        net: NetId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Spacing { layer, a, b, distance_nm, required_nm } => write!(
                f,
                "spacing on {layer}: {a} vs {b} at {distance_nm:.0} nm (need {required_nm:.0})"
            ),
            Violation::Crossing { layer, a, b } => {
                write!(f, "crossing on {layer}: {a} x {b}")
            }
            Violation::TurnRule { route, violation } => {
                write!(f, "turn rule on {route}: {violation}")
            }
            Violation::OutOfDie { item } => write!(f, "{item} escapes the die"),
            Violation::Disconnected { net } => write!(f, "{net} is not connected"),
        }
    }
}

/// Result of a full DRC pass.
#[derive(Debug, Clone, Default)]
pub struct DrcReport {
    violations: Vec<Violation>,
    dirty_nets: BTreeSet<NetId>,
}

impl DrcReport {
    /// All violations found.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether the layout is violation-free.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Nets implicated in at least one violation (including disconnection).
    pub fn dirty_nets(&self) -> &BTreeSet<NetId> {
        &self.dirty_nets
    }

    fn push(&mut self, v: Violation, nets: impl IntoIterator<Item = NetId>) {
        self.violations.push(v);
        self.dirty_nets.extend(nets);
    }
}

/// Tolerance (nm) applied to spacing measurements so exact-at-rule layouts
/// produced by integer arithmetic do not flag due to `f64` rounding.
const TOL: f64 = 0.5;

/// Contact slack (nm) for same-net connectivity: a wire whose centerline
/// comes within half a wire width of a shape overlaps it with metal.
fn contact_reach(package: &Package) -> f64 {
    package.rules().wire_width as f64 / 2.0 + TOL
}

/// One geometric item on a layer, with net affiliation for exemptions.
struct LayerItem {
    item: ItemRef,
    net: Option<NetId>,
    shape: ItemShape,
    bbox: Rect,
}

enum ItemShape {
    /// A wire centerline segment (metal extends `wire_width / 2` each side).
    Wire(Segment),
    /// A filled convex octagon (via, pad, or rectangular obstacle).
    Solid(Octagon),
}

/// Runs the full check.
///
/// ```
/// use info_geom::{Point, Rect};
/// use info_model::{drc, DesignRules, Layout, PackageBuilder};
/// # fn main() -> Result<(), info_model::BuildError> {
/// let mut b = PackageBuilder::new(
///     Rect::new(Point::new(0, 0), Point::new(100_000, 100_000)),
///     DesignRules::default(), 1);
/// let pkg = b.build()?;
/// let report = drc::check(&pkg, &Layout::new(&pkg));
/// assert!(report.is_clean()); // nothing to violate
/// # Ok(())
/// # }
/// ```
pub fn check(package: &Package, layout: &Layout) -> DrcReport {
    check_impl(package, layout, true, &Sink::disabled())
}

/// [`check`] that additionally records per-sweep telemetry (how many
/// items each layer's sweep scanned) into `tel`.
pub fn check_with(package: &Package, layout: &Layout, tel: &Sink) -> DrcReport {
    check_impl(package, layout, true, tel)
}

/// [`check`] with the spacing/crossing sweep done by the naive O(n²)
/// all-pairs scan instead of the grid-bucket spatial index.
///
/// Kept as the differential-testing reference and the baseline the
/// `table1` bench times the indexed query path against; the two must
/// produce byte-identical reports on every layout.
pub fn check_naive(package: &Package, layout: &Layout) -> DrcReport {
    check_impl(package, layout, false, &Sink::disabled())
}

fn check_impl(package: &Package, layout: &Layout, indexed: bool, tel: &Sink) -> DrcReport {
    let mut report = DrcReport::default();
    check_geometry_rules(package, layout, &mut report);
    check_spacing_and_crossing(package, layout, &mut report, indexed, tel);
    for net in package.nets() {
        if !is_connected(package, layout, net.id) {
            report.push(Violation::Disconnected { net: net.id }, [net.id]);
        }
    }
    report
}

/// Checks only angle/off-axis rules and die containment.
fn check_geometry_rules(package: &Package, layout: &Layout, report: &mut DrcReport) {
    let die = package.die();
    for r in layout.routes() {
        if let Err(v) = r.path.validate() {
            report.push(Violation::TurnRule { route: r.id, violation: v }, [r.net]);
        }
        if r.path.points().iter().any(|&p| !die.contains(p)) {
            report.push(Violation::OutOfDie { item: ItemRef::Route(r.id) }, [r.net]);
        }
    }
    for v in layout.vias() {
        if !die.contains_rect(v.shape().bbox()) {
            report.push(Violation::OutOfDie { item: ItemRef::Via(v.id) }, [v.net]);
        }
    }
}

fn pad_net_map(package: &Package) -> Vec<Option<NetId>> {
    let mut map = vec![None; package.pads().len()];
    for n in package.nets() {
        map[n.a.index()] = Some(n.id);
        map[n.b.index()] = Some(n.id);
    }
    map
}

fn layer_items(package: &Package, layout: &Layout, layer: WireLayer) -> Vec<LayerItem> {
    let pad_nets = pad_net_map(package);
    let mut items = Vec::new();
    for r in layout.routes_on(layer) {
        for seg in r.path.segments() {
            let (lo, hi) = seg.bbox();
            items.push(LayerItem {
                item: ItemRef::Route(r.id),
                net: Some(r.net),
                shape: ItemShape::Wire(seg),
                bbox: Rect::new(lo, hi),
            });
        }
    }
    for v in layout.vias_on(layer) {
        let shape = v.shape();
        items.push(LayerItem {
            item: ItemRef::Via(v.id),
            net: Some(v.net),
            shape: ItemShape::Solid(shape),
            bbox: shape.bbox(),
        });
    }
    for p in package.pads() {
        if package.pad_layer(p.id) == layer {
            let shape = p.shape();
            items.push(LayerItem {
                item: ItemRef::Pad(p.id),
                net: pad_nets[p.id.index()],
                shape: ItemShape::Solid(shape),
                bbox: shape.bbox(),
            });
        }
    }
    for o in package.obstacles() {
        if o.layer == layer {
            items.push(LayerItem {
                item: ItemRef::Obstacle(o.id),
                net: None,
                shape: ItemShape::Solid(Octagon::from_rect(o.rect)),
                bbox: o.rect,
            });
        }
    }
    items
}

fn check_spacing_and_crossing(
    package: &Package,
    layout: &Layout,
    report: &mut DrcReport,
    indexed: bool,
    tel: &Sink,
) {
    let rules = package.rules();
    for li in 0..package.wire_layer_count() {
        let layer = WireLayer(li as u8);
        let items = layer_items(package, layout, layer);
        // The bbox prefilter inflates by the largest possible clearance
        // (spacing + full wire width).
        let reach = rules.min_spacing + rules.wire_width + 1;
        tel.observe(Metric::DrcItemsPerSweep, items.len() as u64);
        if indexed {
            // Each item id equals its position in `items`, and queries
            // return ids in ascending order, so the (i, j>i) pair stream —
            // and therefore the violation list — is byte-identical to the
            // naive scan below.
            let mut index: GridIndex<()> =
                GridIndex::with_capacity_hint(package.die(), items.len());
            for it in &items {
                index.insert(it.bbox, ());
            }
            for i in 0..items.len() {
                let abox = items[i].bbox.inflate(reach);
                for id in index.query(abox) {
                    let j = id.index();
                    if j > i {
                        check_pair(rules, layer, &items[i], &items[j], report);
                    }
                }
            }
        } else {
            for i in 0..items.len() {
                let abox = items[i].bbox.inflate(reach);
                for b in items.iter().skip(i + 1) {
                    if abox.intersects(b.bbox) {
                        check_pair(rules, layer, &items[i], b, report);
                    }
                }
            }
        }
    }
}

/// Exact spacing/crossing check of one candidate pair (bbox-prefiltered by
/// the caller). Pushes at most one violation.
fn check_pair(
    rules: &crate::rules::DesignRules,
    layer: WireLayer,
    a: &LayerItem,
    b: &LayerItem,
    report: &mut DrcReport,
) {
    let s = rules.min_spacing as f64;
    let half_wire = rules.wire_width as f64 / 2.0;
    // Same-net (and pads vs their own routes) are exempt; two
    // distinct nets or a net against a no-net obstacle are not.
    let exempt = match (a.net, b.net) {
        (Some(x), Some(y)) => x == y,
        // Two netless items (pads without nets / obstacles) are
        // static input geometry — the builder validated them.
        (None, None) => true,
        _ => false,
    };
    if exempt {
        return;
    }
    // A proper crossing (route-route only) is reported as such;
    // mere touches fall through to the spacing check, which
    // records them as zero-distance spacing violations.
    if let (ItemShape::Wire(sa), ItemShape::Wire(sb)) = (&a.shape, &b.shape) {
        if sa.crosses_properly(*sb) {
            if let (ItemRef::Route(ra), ItemRef::Route(rb)) = (a.item, b.item) {
                report.push(
                    Violation::Crossing { layer, a: ra, b: rb },
                    [a.net, b.net].into_iter().flatten(),
                );
                return;
            }
        }
    }
    let (distance, required) = match (&a.shape, &b.shape) {
        (ItemShape::Wire(sa), ItemShape::Wire(sb)) => {
            (sa.distance_to_segment(*sb) - 2.0 * half_wire, s)
        }
        (ItemShape::Wire(seg), ItemShape::Solid(oct))
        | (ItemShape::Solid(oct), ItemShape::Wire(seg)) => {
            (oct.distance_to_segment(*seg) - half_wire, s)
        }
        (ItemShape::Solid(oa), ItemShape::Solid(ob)) => (oa.distance_to_octagon(ob), s),
    };
    if distance < required - TOL {
        report.push(
            Violation::Spacing {
                layer,
                a: a.item,
                b: b.item,
                distance_nm: distance.max(0.0),
                required_nm: required,
            },
            [a.net, b.net].into_iter().flatten(),
        );
    }
}

/// Union-find over a net's conductive items.
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let root = self.find(self.0[x]);
            self.0[x] = root;
        }
        self.0[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra] = rb;
        }
    }
}

/// Whether `net` is electrically connected from pad to pad through its
/// routes and vias.
///
/// Contact model: a route touches a shape (pad or via) when its centerline
/// comes within half a wire width; two routes on the same layer touch when
/// their centerlines share a point; two vias connect when their spans share
/// a layer and their octagons intersect.
pub fn is_connected(package: &Package, layout: &Layout, net: NetId) -> bool {
    let n = package.net(net);
    let reach = contact_reach(package);
    let routes: Vec<_> = layout.routes_of(net).collect();
    let vias: Vec<_> = layout.vias_of(net).collect();
    // Node ids: 0 = pad a, 1 = pad b, 2.. routes, then vias.
    let nr = routes.len();
    let mut dsu = Dsu::new(2 + nr + vias.len());

    let pads = [package.pad(n.a), package.pad(n.b)];
    let pad_layers = [package.pad_layer(n.a), package.pad_layer(n.b)];
    for (pi, (pad, pl)) in pads.iter().zip(pad_layers.iter()).enumerate() {
        let shape = pad.shape();
        for (ri, r) in routes.iter().enumerate() {
            if r.layer == *pl
                && r.path.segments().any(|seg| shape.distance_to_segment(seg) <= reach)
            {
                dsu.union(pi, 2 + ri);
            }
        }
        for (vi, v) in vias.iter().enumerate() {
            if v.spans(*pl) && v.shape().intersects(&shape) {
                dsu.union(pi, 2 + nr + vi);
            }
        }
    }
    for (ri, r) in routes.iter().enumerate() {
        for (rj, r2) in routes.iter().enumerate().skip(ri + 1) {
            if r.layer == r2.layer
                && r.path
                    .segments()
                    .any(|a| r2.path.segments().any(|b| a.touches(b)))
            {
                dsu.union(2 + ri, 2 + rj);
            }
        }
        for (vi, v) in vias.iter().enumerate() {
            if v.spans(r.layer)
                && r.path.segments().any(|seg| v.shape().distance_to_segment(seg) <= reach)
            {
                dsu.union(2 + ri, 2 + nr + vi);
            }
        }
    }
    for (vi, v) in vias.iter().enumerate() {
        for (vj, v2) in vias.iter().enumerate().skip(vi + 1) {
            let spans_overlap = v.top.max(v2.top) <= v.bottom.min(v2.bottom);
            if spans_overlap && v.shape().intersects(&v2.shape()) {
                dsu.union(2 + nr + vi, 2 + nr + vj);
            }
        }
    }
    dsu.find(0) == dsu.find(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::PackageBuilder;
    use crate::rules::DesignRules;
    use info_geom::{Point, Polyline};

    /// Two chips side by side, one inter-chip net, two wire layers.
    fn two_chip_package() -> (Package, PadId, PadId) {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 500_000)),
            DesignRules::default(),
            2,
        );
        let c1 = b.add_chip(Rect::new(Point::new(50_000, 100_000), Point::new(300_000, 400_000)));
        let c2 = b.add_chip(Rect::new(Point::new(700_000, 100_000), Point::new(950_000, 400_000)));
        let p1 = b.add_io_pad(c1, Point::new(250_000, 250_000)).unwrap();
        let p2 = b.add_io_pad(c2, Point::new(750_000, 250_000)).unwrap();
        b.add_net(p1, p2).unwrap();
        let pkg = b.build().unwrap();
        (pkg, p1, p2)
    }

    fn pl(pts: &[(i64, i64)]) -> Polyline {
        Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn straight_connection_is_clean_and_connected() {
        let (pkg, _, _) = two_chip_package();
        let mut l = Layout::new(&pkg);
        l.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 250_000), (750_000, 250_000)]));
        let rep = check(&pkg, &l);
        assert!(rep.is_clean(), "{:?}", rep.violations());
        assert!(is_connected(&pkg, &l, NetId(0)));
    }

    #[test]
    fn missing_route_reports_disconnected() {
        let (pkg, _, _) = two_chip_package();
        let l = Layout::new(&pkg);
        let rep = check(&pkg, &l);
        assert_eq!(rep.violations().len(), 1);
        assert!(matches!(rep.violations()[0], Violation::Disconnected { .. }));
        assert!(rep.dirty_nets().contains(&NetId(0)));
    }

    #[test]
    fn partial_route_reports_disconnected() {
        let (pkg, _, _) = two_chip_package();
        let mut l = Layout::new(&pkg);
        // Stops 100 µm short of the second pad.
        l.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 250_000), (650_000, 250_000)]));
        let rep = check(&pkg, &l);
        assert!(rep.violations().iter().any(|v| matches!(v, Violation::Disconnected { .. })));
    }

    #[test]
    fn via_bridges_layers() {
        let (pkg, _, _) = two_chip_package();
        let mut l = Layout::new(&pkg);
        // Top layer to the midpoint, via down, bottom layer onward, via up.
        l.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 250_000), (500_000, 250_000)]));
        l.add_via(NetId(0), Point::new(500_000, 250_000), 5_000, WireLayer(0), WireLayer(1), false);
        l.add_route(NetId(0), WireLayer(1), pl(&[(500_000, 250_000), (600_000, 250_000)]));
        l.add_via(NetId(0), Point::new(600_000, 250_000), 5_000, WireLayer(0), WireLayer(1), false);
        l.add_route(NetId(0), WireLayer(0), pl(&[(600_000, 250_000), (750_000, 250_000)]));
        let rep = check(&pkg, &l);
        assert!(rep.is_clean(), "{:?}", rep.violations());
        assert!(is_connected(&pkg, &l, NetId(0)));
    }

    #[test]
    fn broken_via_chain_is_disconnected() {
        let (pkg, _, _) = two_chip_package();
        let mut l = Layout::new(&pkg);
        l.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 250_000), (500_000, 250_000)]));
        // Route continues on the bottom layer but no via joins them.
        l.add_route(NetId(0), WireLayer(1), pl(&[(500_000, 250_000), (750_000, 250_000)]));
        assert!(!is_connected(&pkg, &l, NetId(0)));
    }

    #[test]
    fn crossing_detected() {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 500_000)),
            DesignRules::default(),
            1,
        );
        let c1 = b.add_chip(Rect::new(Point::new(50_000, 100_000), Point::new(300_000, 400_000)));
        let c2 = b.add_chip(Rect::new(Point::new(700_000, 100_000), Point::new(950_000, 400_000)));
        let a1 = b.add_io_pad(c1, Point::new(250_000, 200_000)).unwrap();
        let a2 = b.add_io_pad(c2, Point::new(750_000, 300_000)).unwrap();
        let b1 = b.add_io_pad(c1, Point::new(250_000, 300_000)).unwrap();
        let b2 = b.add_io_pad(c2, Point::new(750_000, 200_000)).unwrap();
        b.add_net(a1, a2).unwrap();
        b.add_net(b1, b2).unwrap();
        let pkg = b.build().unwrap();
        let mut l = Layout::new(&pkg);
        // Two straight diagonal-ish routes that cross in the middle.
        l.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 200_000), (350_000, 300_000), (750_000, 300_000)]));
        l.add_route(NetId(1), WireLayer(0), pl(&[(250_000, 300_000), (350_000, 200_000), (750_000, 200_000)]));
        let rep = check(&pkg, &l);
        assert!(
            rep.violations().iter().any(|v| matches!(v, Violation::Crossing { .. })),
            "{:?}",
            rep.violations()
        );
        assert_eq!(rep.dirty_nets().len(), 2);
    }

    #[test]
    fn spacing_violation_between_parallel_wires() {
        let (pkg, _, _) = two_chip_package();
        // Second net on the same package is absent; craft two routes of
        // different nets by abusing net ids — net 1 doesn't exist in the
        // package, but spacing only needs distinct net tags.
        let mut l = Layout::new(&pkg);
        l.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 250_000), (750_000, 250_000)]));
        // 3 µm centerline offset < wire(2) + spacing(2) = 4 µm. The foreign
        // wire stays clear of the pads in x so only wire-wire spacing trips.
        l.add_route(NetId(1), WireLayer(0), pl(&[(300_000, 253_000), (700_000, 253_000)]));
        let rep = check(&pkg, &l);
        assert!(
            rep.violations()
                .iter()
                .any(|v| matches!(v, Violation::Spacing { .. })),
            "{:?}",
            rep.violations()
        );
        // At 4 µm exactly the pair is legal.
        let mut l2 = Layout::new(&pkg);
        l2.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 250_000), (750_000, 250_000)]));
        l2.add_route(NetId(1), WireLayer(0), pl(&[(300_000, 254_000), (700_000, 254_000)]));
        let rep2 = check(&pkg, &l2);
        assert!(
            !rep2.violations().iter().any(|v| matches!(v, Violation::Spacing { .. })),
            "{:?}",
            rep2.violations()
        );
    }

    #[test]
    fn wire_too_close_to_foreign_pad() {
        let (pkg, _, p2) = two_chip_package();
        let mut l = Layout::new(&pkg);
        // A wire of a phantom net whose metal edge comes 1.5 µm from pad
        // p2's top edge (pad is 8 µm wide, wire 2 µm): centerline at
        // pad-top + 2.5 µm → edge gap 1.5 µm < 2 µm spacing.
        let y = 250_000 + 4_000 + 2_500;
        l.add_route(NetId(7), WireLayer(0), pl(&[(700_000, y), (800_000, y)]));
        let rep = check(&pkg, &l);
        let hit = rep.violations().iter().any(|v| match v {
            Violation::Spacing { a, b, .. } => {
                matches!(a, ItemRef::Pad(p) if *p == p2) || matches!(b, ItemRef::Pad(p) if *p == p2)
            }
            _ => false,
        });
        assert!(hit, "{:?}", rep.violations());
    }

    #[test]
    fn turn_rule_violation_detected() {
        let (pkg, _, _) = two_chip_package();
        let mut l = Layout::new(&pkg);
        // Off-axis segment.
        l.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 250_000), (750_000, 251_000)]));
        let rep = check(&pkg, &l);
        assert!(rep.violations().iter().any(|v| matches!(v, Violation::TurnRule { .. })));
    }

    #[test]
    fn out_of_die_detected() {
        let (pkg, _, _) = two_chip_package();
        let mut l = Layout::new(&pkg);
        l.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 250_000), (1_100_000, 250_000)]));
        let rep = check(&pkg, &l);
        assert!(rep.violations().iter().any(|v| matches!(v, Violation::OutOfDie { .. })));
    }

    #[test]
    fn indexed_check_matches_naive_reference() {
        // A layout with a crossing, a spacing violation, a turn-rule
        // violation, and a disconnected net: the indexed sweep must
        // reproduce the naive report *exactly*, including order.
        let (pkg, _, _) = two_chip_package();
        let mut l = Layout::new(&pkg);
        l.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 250_000), (750_000, 250_000)]));
        l.add_route(NetId(1), WireLayer(0), pl(&[(300_000, 253_000), (700_000, 253_000)]));
        l.add_route(NetId(2), WireLayer(0), pl(&[(400_000, 100_000), (500_000, 400_000)]));
        l.add_route(NetId(3), WireLayer(1), pl(&[(400_000, 300_000), (600_000, 100_000)]));
        l.add_route(NetId(4), WireLayer(1), pl(&[(400_000, 100_000), (600_000, 300_000)]));
        let fast = check(&pkg, &l);
        let slow = check_naive(&pkg, &l);
        assert_eq!(fast.violations(), slow.violations());
        assert_eq!(fast.dirty_nets(), slow.dirty_nets());
        assert!(!fast.is_clean());
    }

    /// `(bucket_hi, count)` pairs of the `drc_items_per_sweep` histogram:
    /// one observation per layer sweep.
    fn sweep_histogram(tel: &Sink) -> Vec<(u64, u64)> {
        let report = tel.report().unwrap();
        let (_, buckets) =
            report.histograms.iter().find(|(l, _)| *l == "drc_items_per_sweep").unwrap();
        buckets.clone()
    }

    #[test]
    fn every_layer_is_swept_through_the_index() {
        // Layer 0 holds a wire and both pads; layer 1 is empty. Both take
        // the one indexed sweep, and the report equals the reference.
        let (pkg, _, _) = two_chip_package();
        let mut l = Layout::new(&pkg);
        l.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 250_000), (750_000, 250_000)]));
        let tel = Sink::enabled();
        let rep = check_with(&pkg, &l, &tel);
        assert!(rep.is_clean(), "{:?}", rep.violations());
        let slow = check_naive(&pkg, &l);
        assert_eq!(rep.violations(), slow.violations());
        assert_eq!(rep.dirty_nets(), slow.dirty_nets());
        // Three items on layer 0 land in bucket [2, 4); the empty layer 1
        // in bucket 0. One sweep per layer, and no other.
        assert_eq!(sweep_histogram(&tel), [(0, 1), (3, 1)], "one sweep per layer");
    }

    #[test]
    fn indexed_sweep_of_a_wire_grid_matches_naive_reference() {
        // A grid of 1,089 short wires on layer 0 (some of them deliberately
        // too close): the indexed sweep must reproduce the naive report
        // exactly.
        let (pkg, _, _) = two_chip_package();
        let mut l = Layout::new(&pkg);
        let mut n = 0u32;
        'outer: for row in 0..40i64 {
            for col in 0..40i64 {
                let x = 20_000 + col * 24_000;
                // Every eighth row sits 3 µm from its neighbor — a real
                // spacing violation the indexed sweep must also find.
                let y = 20_000 + row * 11_000 + if row % 8 == 0 { 8_000 } else { 0 };
                l.add_route(
                    NetId(n),
                    WireLayer(0),
                    pl(&[(x, y), (x + 12_000, y)]),
                );
                n += 1;
                if n == 1_089 {
                    break 'outer;
                }
            }
        }
        let tel = Sink::enabled();
        let fast = check_with(&pkg, &l, &tel);
        let slow = check_naive(&pkg, &l);
        assert_eq!(fast.violations(), slow.violations());
        assert_eq!(fast.dirty_nets(), slow.dirty_nets());
        assert!(!fast.is_clean());
        assert_eq!(sweep_histogram(&tel).iter().map(|&(_, n)| n).sum::<u64>(), 2);
    }

    #[test]
    fn obstacle_spacing_enforced() {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 500_000)),
            DesignRules::default(),
            1,
        );
        let c1 = b.add_chip(Rect::new(Point::new(50_000, 100_000), Point::new(300_000, 400_000)));
        let p1 = b.add_io_pad(c1, Point::new(250_000, 250_000)).unwrap();
        let c2 = b.add_chip(Rect::new(Point::new(700_000, 100_000), Point::new(950_000, 400_000)));
        let p2 = b.add_io_pad(c2, Point::new(750_000, 250_000)).unwrap();
        b.add_net(p1, p2).unwrap();
        b.add_obstacle(
            WireLayer(0),
            Rect::new(Point::new(480_000, 230_000), Point::new(520_000, 249_500)),
        )
        .unwrap();
        let pkg = b.build().unwrap();
        let mut l = Layout::new(&pkg);
        // Route passes 500 nm above the obstacle — way below 2 µm + half wire.
        l.add_route(NetId(0), WireLayer(0), pl(&[(250_000, 250_000), (750_000, 250_000)]));
        let rep = check(&pkg, &l);
        assert!(rep.violations().iter().any(|v| matches!(
            v,
            Violation::Spacing { b: ItemRef::Obstacle(_), .. }
                | Violation::Spacing { a: ItemRef::Obstacle(_), .. }
        )));
    }
}
