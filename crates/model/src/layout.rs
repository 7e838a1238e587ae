//! The aggregate routing state of a package.

use crate::ids::{NetId, RouteId, ViaId, WireLayer};
use crate::package::Package;
use crate::route::{Route, Via};
use info_geom::{Coord, Point, Polyline};
use serde::{Deserialize, Serialize};

/// All routes and vias produced for a package so far.
///
/// Routes and vias are stored in slot arrays so nets can be ripped up
/// (e.g. when sequential routing revisits a decision) without invalidating
/// the ids of unrelated objects.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Layout {
    wire_layer_count: usize,
    routes: Vec<Option<Route>>,
    vias: Vec<Option<Via>>,
}

impl Layout {
    /// A layout for the given package, pre-seeded with the package's
    /// fixed vias (`V_p`) so every router starts from the same mandated
    /// geometry.
    pub fn new(package: &Package) -> Self {
        let mut layout = Layout {
            wire_layer_count: package.wire_layer_count(),
            routes: Vec::new(),
            vias: Vec::new(),
        };
        for v in package.pre_vias() {
            layout.add_via(v.net, v.center, package.rules().via_width, v.top, v.bottom, true);
        }
        layout
    }

    /// An empty layout with an explicit wire layer count: no fixed vias
    /// seeded.
    pub fn with_layer_count(wire_layer_count: usize) -> Self {
        Layout { wire_layer_count, routes: Vec::new(), vias: Vec::new() }
    }

    /// Number of wire layers.
    pub fn wire_layer_count(&self) -> usize {
        self.wire_layer_count
    }

    /// Adds a planar route for a net.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn add_route(&mut self, net: NetId, layer: WireLayer, path: Polyline) -> RouteId {
        assert!(layer.index() < self.wire_layer_count, "layer {layer} out of range");
        let id = RouteId::from_index(self.routes.len());
        self.routes.push(Some(Route { id, net, layer, path }));
        id
    }

    /// Adds a via for a net spanning wire layers `top..=bottom`.
    ///
    /// # Panics
    ///
    /// Panics if the span is out of range or inverted.
    pub fn add_via(
        &mut self,
        net: NetId,
        center: Point,
        width: Coord,
        top: WireLayer,
        bottom: WireLayer,
        fixed: bool,
    ) -> ViaId {
        assert!(top < bottom, "via span must be strictly downward");
        assert!(bottom.index() < self.wire_layer_count, "via bottom out of range");
        let id = ViaId::from_index(self.vias.len());
        self.vias.push(Some(Via { id, net, center, width, top, bottom, fixed }));
        id
    }

    /// Iterates over live routes.
    pub fn routes(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter().flatten()
    }

    /// Iterates over live vias.
    pub fn vias(&self) -> impl Iterator<Item = &Via> {
        self.vias.iter().flatten()
    }

    /// Mutable iteration over live routes (the LP optimizer moves joints).
    pub fn routes_mut(&mut self) -> impl Iterator<Item = &mut Route> {
        self.routes.iter_mut().flatten()
    }

    /// Mutable iteration over live vias.
    pub fn vias_mut(&mut self) -> impl Iterator<Item = &mut Via> {
        self.vias.iter_mut().flatten()
    }

    /// Route lookup (`None` if ripped up).
    pub fn route(&self, id: RouteId) -> Option<&Route> {
        self.routes.get(id.index()).and_then(Option::as_ref)
    }

    /// Via lookup (`None` if ripped up).
    pub fn via(&self, id: ViaId) -> Option<&Via> {
        self.vias.get(id.index()).and_then(Option::as_ref)
    }

    /// Routes on a given wire layer.
    pub fn routes_on(&self, layer: WireLayer) -> impl Iterator<Item = &Route> {
        self.routes().filter(move |r| r.layer == layer)
    }

    /// Vias whose span touches a given wire layer.
    pub fn vias_on(&self, layer: WireLayer) -> impl Iterator<Item = &Via> {
        self.vias().filter(move |v| v.spans(layer))
    }

    /// Routes belonging to a net.
    pub fn routes_of(&self, net: NetId) -> impl Iterator<Item = &Route> {
        self.routes().filter(move |r| r.net == net)
    }

    /// Vias belonging to a net.
    pub fn vias_of(&self, net: NetId) -> impl Iterator<Item = &Via> {
        self.vias().filter(move |v| v.net == net)
    }

    /// Whether a net has any routing geometry at all.
    pub fn has_geometry(&self, net: NetId) -> bool {
        self.routes_of(net).next().is_some() || self.vias_of(net).next().is_some()
    }

    /// Removes a single route (e.g. one that layout optimization collapsed
    /// to zero length). No-op if already removed.
    pub fn remove_route(&mut self, id: RouteId) {
        if let Some(slot) = self.routes.get_mut(id.index()) {
            *slot = None;
        }
    }

    /// Removes every route and via of a net (rip-up).
    pub fn remove_net(&mut self, net: NetId) {
        for slot in &mut self.routes {
            if slot.as_ref().is_some_and(|r| r.net == net) {
                *slot = None;
            }
        }
        for slot in &mut self.vias {
            if slot.as_ref().is_some_and(|v| v.net == net) {
                *slot = None;
            }
        }
    }

    /// Total centerline length of a net's routes, in nanometers.
    pub fn net_wirelength(&self, net: NetId) -> f64 {
        self.routes_of(net).map(Route::length).sum()
    }

    /// Total centerline length over the given nets, in nanometers.
    pub fn wirelength_over<I: IntoIterator<Item = NetId>>(&self, nets: I) -> f64 {
        nets.into_iter().map(|n| self.net_wirelength(n)).sum()
    }

    /// Canonical 64-bit hash of all live geometry (FNV-1a over a sorted
    /// serialization of routes and vias).
    ///
    /// Two layouts hash equal iff they contain the same set of
    /// `(net, layer, centerline)` routes and `(net, center, width, span,
    /// fixed)` vias — slot order, rip-up history, and id assignment do not
    /// matter. This is the fingerprint the golden-layout suite pins and the
    /// determinism test compares across repeat routes.
    pub fn canonical_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mix = |h: &mut u64, v: i64| {
            for b in v.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(PRIME);
            }
        };
        type RouteKey = (i64, i64, Vec<(i64, i64)>);
        let mut routes: Vec<RouteKey> = self
            .routes()
            .map(|r| {
                (
                    i64::from(r.net.0),
                    i64::from(r.layer.0),
                    r.path.points().iter().map(|p| (p.x, p.y)).collect(),
                )
            })
            .collect();
        routes.sort();
        let mut vias: Vec<[i64; 7]> = self
            .vias()
            .map(|v| {
                [
                    i64::from(v.net.0),
                    v.center.x,
                    v.center.y,
                    v.width,
                    i64::from(v.top.0),
                    i64::from(v.bottom.0),
                    i64::from(v.fixed),
                ]
            })
            .collect();
        vias.sort();
        let mut h = OFFSET;
        mix(&mut h, routes.len() as i64);
        for (net, layer, pts) in routes {
            mix(&mut h, net);
            mix(&mut h, layer);
            mix(&mut h, pts.len() as i64);
            for (x, y) in pts {
                mix(&mut h, x);
                mix(&mut h, y);
            }
        }
        mix(&mut h, vias.len() as i64);
        for v in vias {
            for c in v {
                mix(&mut h, c);
            }
        }
        h
    }

    /// Count of live vias.
    pub fn via_count(&self) -> usize {
        self.vias().count()
    }

    /// Count of live routes.
    pub fn route_count(&self) -> usize {
        self.routes().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(pts: &[(i64, i64)]) -> Polyline {
        Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn add_query_remove() {
        let mut l = Layout::with_layer_count(3);
        let n0 = NetId(0);
        let n1 = NetId(1);
        let r0 = l.add_route(n0, WireLayer(0), pl(&[(0, 0), (10, 0)]));
        l.add_route(n1, WireLayer(0), pl(&[(0, 5), (10, 5)]));
        l.add_via(n0, Point::new(10, 0), 5, WireLayer(0), WireLayer(1), false);
        assert_eq!(l.route_count(), 2);
        assert_eq!(l.via_count(), 1);
        assert_eq!(l.routes_on(WireLayer(0)).count(), 2);
        assert_eq!(l.routes_on(WireLayer(1)).count(), 0);
        assert_eq!(l.vias_on(WireLayer(1)).count(), 1);
        assert_eq!(l.routes_of(n0).count(), 1);
        assert!(l.has_geometry(n0));

        l.remove_net(n0);
        assert!(!l.has_geometry(n0));
        assert!(l.route(r0).is_none());
        assert_eq!(l.route_count(), 1);
        assert_eq!(l.via_count(), 0);
        // Other net untouched.
        assert!(l.has_geometry(n1));
    }

    #[test]
    fn wirelength_accounting() {
        let mut l = Layout::with_layer_count(2);
        let n = NetId(0);
        l.add_route(n, WireLayer(0), pl(&[(0, 0), (3_000, 0)]));
        l.add_route(n, WireLayer(1), pl(&[(0, 0), (0, 4_000)]));
        assert!((l.net_wirelength(n) - 7_000.0).abs() < 1e-9);
        assert!((l.wirelength_over([n]) - 7_000.0).abs() < 1e-9);
        assert_eq!(l.net_wirelength(NetId(9)), 0.0);
    }

    #[test]
    #[should_panic(expected = "layer")]
    fn bad_layer_panics() {
        let mut l = Layout::with_layer_count(1);
        l.add_route(NetId(0), WireLayer(1), pl(&[(0, 0), (1, 0)]));
    }

    #[test]
    #[should_panic(expected = "strictly downward")]
    fn inverted_via_panics() {
        let mut l = Layout::with_layer_count(2);
        l.add_via(NetId(0), Point::new(0, 0), 5, WireLayer(1), WireLayer(1), false);
    }
}
