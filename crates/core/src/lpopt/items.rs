//! Layout Mapping (§III-E1): extracting LP items and variables.

use info_geom::{Coord, Dir8, Orient4, Point, Segment};
use info_lp::{Cmp, Model, Solution, VarId};
use info_model::{Layout, NetId, Package, RouteId, ViaId, WireLayer};
use std::collections::HashMap;

/// How a route point is anchored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointAnchor {
    /// Pinned to a pad: immovable.
    Fixed,
    /// Rides a via center (index into [`ItemModel::vias`]).
    Via(usize),
    /// Freely movable joint.
    Free,
}

/// A route point item.
#[derive(Debug, Clone)]
pub struct PointItem {
    /// Owning route.
    pub route: RouteId,
    /// The net of the route.
    pub net: NetId,
    /// Wire layer.
    pub layer: WireLayer,
    /// Initial position.
    pub initial: Point,
    /// Anchoring.
    pub anchor: PointAnchor,
}

/// A wire segment item.
#[derive(Debug, Clone)]
pub struct SegItem {
    /// Owning route.
    pub route: RouteId,
    /// The net of the route.
    pub net: NetId,
    /// Wire layer.
    pub layer: WireLayer,
    /// Frozen orientation.
    pub orient: Orient4,
    /// Frozen direction (from point `p0` to `p1`).
    pub dir: Dir8,
    /// Initial geometry.
    pub initial: Segment,
    /// Index of the first endpoint in [`ItemModel::points`].
    pub p0: usize,
    /// Index of the second endpoint.
    pub p1: usize,
}

/// A via item.
#[derive(Debug, Clone)]
pub struct ViaItem {
    /// Layout via id.
    pub id: ViaId,
    /// Owning net.
    pub net: NetId,
    /// Initial center.
    pub initial: Point,
    /// Whether the optimizer may move it (flexible vias only).
    pub movable: bool,
    /// Octagon width.
    pub width: Coord,
    /// Top wire layer of the span.
    pub top: WireLayer,
    /// Bottom wire layer of the span.
    pub bottom: WireLayer,
}

/// Per-route item bookkeeping.
#[derive(Debug, Clone)]
pub struct RouteItem {
    /// Layout route id.
    pub id: RouteId,
    /// Net and layer for convenience.
    pub net: NetId,
    /// Wire layer.
    pub layer: WireLayer,
    /// Point item indices, in polyline order.
    pub point_items: Vec<usize>,
    /// Segment item indices, in polyline order.
    pub seg_items: Vec<usize>,
}

/// The complete item model of a layout.
#[derive(Debug, Clone)]
pub struct ItemModel {
    /// All route points.
    pub points: Vec<PointItem>,
    /// All wire segments.
    pub segs: Vec<SegItem>,
    /// All vias.
    pub vias: Vec<ViaItem>,
    /// Routes with their item indices.
    pub routes: Vec<RouteItem>,
    /// Trust-region radius in nm: no variable moves farther than this.
    pub move_bound: f64,
}

/// A variable or a constant, per coordinate.
#[derive(Debug, Clone, Copy)]
pub enum VRef {
    /// Immovable value.
    Const(f64),
    /// LP variable.
    Var(VarId),
}

/// Variable handles created by [`ItemModel::build_variables`].
#[derive(Debug, Clone)]
pub struct Vars {
    /// `(x, y)` per point item.
    pub point_xy: Vec<(VRef, VRef)>,
    /// `(x, y)` per via item.
    pub via_xy: Vec<(VRef, VRef)>,
    /// `c` per segment item.
    pub seg_c: Vec<VRef>,
}

/// Solved positions (floating, pre-snapping).
#[derive(Debug, Clone)]
pub struct SolvedPositions {
    /// `(x, y)` per point item.
    pub points: Vec<(f64, f64)>,
    /// `(x, y)` per via item.
    pub vias: Vec<(f64, f64)>,
    /// `c` per segment item.
    pub segs: Vec<f64>,
}

/// A small linear expression over LP variables.
#[derive(Debug, Clone, Default)]
pub struct LinExpr {
    /// Variable terms.
    pub terms: Vec<(VarId, f64)>,
    /// Constant offset.
    pub constant: f64,
}

impl LinExpr {
    /// `coef · v`.
    pub fn push(&mut self, v: VRef, coef: f64) {
        if coef == 0.0 {
            return;
        }
        match v {
            VRef::Const(c) => self.constant += coef * c,
            VRef::Var(id) => self.terms.push((id, coef)),
        }
    }

    /// Appends the negation of another expression.
    pub fn sub(&mut self, other: &LinExpr) {
        self.constant -= other.constant;
        for &(v, c) in &other.terms {
            self.terms.push((v, -c));
        }
    }
}

/// The algebraic scale of an orientation: diagonal line offsets measure
/// `√2 ×` the Euclidean distance.
pub fn alg_scale(orient: Orient4) -> f64 {
    if orient.is_diagonal() {
        std::f64::consts::SQRT_2
    } else {
        1.0
    }
}

/// Builds the `a·x + b·y` expression of a point-like item.
pub fn point_expr(xy: (VRef, VRef), orient: Orient4) -> LinExpr {
    let (a, b) = orient.coeffs();
    let mut e = LinExpr::default();
    e.push(xy.0, a as f64);
    e.push(xy.1, b as f64);
    e
}

/// `global → local` index map produced by [`ItemModel::filter_nets`].
pub type IndexMap = HashMap<usize, usize>;

impl ItemModel {
    /// Restricts the model to the routes and vias of the given nets,
    /// returning the sub-model plus index maps (`global → local`) for
    /// points, segments, and vias.
    pub fn filter_nets(
        &self,
        nets: &std::collections::BTreeSet<info_model::NetId>,
    ) -> (ItemModel, IndexMap, IndexMap, IndexMap) {
        let mut point_map = HashMap::new();
        let mut seg_map = HashMap::new();
        let mut via_map = HashMap::new();
        let mut points = Vec::new();
        let mut segs = Vec::new();
        let mut vias = Vec::new();
        let mut routes = Vec::new();
        for (vi, v) in self.vias.iter().enumerate() {
            if nets.contains(&v.net) {
                via_map.insert(vi, vias.len());
                vias.push(v.clone());
            }
        }
        for r in &self.routes {
            if !nets.contains(&r.net) {
                continue;
            }
            let mut point_items = Vec::with_capacity(r.point_items.len());
            for &pi in &r.point_items {
                let mut p = self.points[pi].clone();
                if let PointAnchor::Via(v) = p.anchor {
                    p.anchor = PointAnchor::Via(via_map[&v]);
                }
                point_map.insert(pi, points.len());
                point_items.push(points.len());
                points.push(p);
            }
            let mut seg_items = Vec::with_capacity(r.seg_items.len());
            for &si in &r.seg_items {
                let mut s = self.segs[si].clone();
                s.p0 = point_map[&s.p0];
                s.p1 = point_map[&s.p1];
                seg_map.insert(si, segs.len());
                seg_items.push(segs.len());
                segs.push(s);
            }
            routes.push(RouteItem {
                id: r.id,
                net: r.net,
                layer: r.layer,
                point_items,
                seg_items,
            });
        }
        (
            ItemModel { points, segs, vias, routes, move_bound: self.move_bound },
            point_map,
            seg_map,
            via_map,
        )
    }
}

/// Extracts the item model from a layout. Returns `None` when the layout
/// has no optimizable geometry.
pub fn extract(package: &Package, layout: &Layout) -> Option<ItemModel> {
    let mut vias: Vec<ViaItem> = Vec::new();
    let mut via_index: HashMap<ViaId, usize> = HashMap::new();
    for v in layout.vias() {
        via_index.insert(v.id, vias.len());
        vias.push(ViaItem {
            id: v.id,
            net: v.net,
            initial: v.center,
            movable: !v.fixed,
            width: v.width,
            top: v.top,
            bottom: v.bottom,
        });
    }

    // Pad anchor lookup: centers of the two pads of each net.
    let mut pad_anchor: HashMap<(NetId, Point), ()> = HashMap::new();
    for n in package.nets() {
        pad_anchor.insert((n.id, package.pad(n.a).center), ());
        pad_anchor.insert((n.id, package.pad(n.b).center), ());
    }

    let mut points = Vec::new();
    let mut segs = Vec::new();
    let mut routes = Vec::new();
    for r in layout.routes() {
        if r.path.len() < 2 || r.path.validate().is_err() {
            continue;
        }
        let pts = r.path.points();
        let mut point_items = Vec::with_capacity(pts.len());
        for (i, &p) in pts.iter().enumerate() {
            let endpoint = i == 0 || i == pts.len() - 1;
            let anchor = if endpoint {
                if pad_anchor.contains_key(&(r.net, p)) {
                    PointAnchor::Fixed
                } else if let Some(&vi) = layout
                    .vias_of(r.net)
                    .filter(|v| v.center == p && v.spans(r.layer))
                    .map(|v| via_index.get(&v.id).expect("indexed"))
                    .next()
                {
                    PointAnchor::Via(vi)
                } else {
                    PointAnchor::Free
                }
            } else {
                PointAnchor::Free
            };
            point_items.push(points.len());
            points.push(PointItem { route: r.id, net: r.net, layer: r.layer, initial: p, anchor });
        }
        let mut seg_items = Vec::with_capacity(pts.len() - 1);
        for w in 0..pts.len() - 1 {
            let seg = Segment::new(pts[w], pts[w + 1]);
            let orient = seg.orient()?;
            let dir = seg.dir()?;
            seg_items.push(segs.len());
            segs.push(SegItem {
                route: r.id,
                net: r.net,
                layer: r.layer,
                orient,
                dir,
                initial: seg,
                p0: point_items[w],
                p1: point_items[w + 1],
            });
        }
        routes.push(RouteItem {
            id: r.id,
            net: r.net,
            layer: r.layer,
            point_items,
            seg_items,
        });
    }

    let move_bound = 8.0 * (package.rules().min_spacing + package.rules().wire_width) as f64;
    Some(ItemModel { points, segs, vias, routes, move_bound })
}

impl ItemModel {
    /// Creates the LP variables: `x`/`y` per movable point and via within
    /// the trust region, `c` per segment, and the wirelength objective.
    pub fn build_variables(&self, model: &mut Model, package: &Package) -> Vars {
        let m = self.move_bound;
        let die = package.die();
        let mut obj: HashMap<VarId, f64> = HashMap::new();

        let mut via_xy = Vec::with_capacity(self.vias.len());
        for v in &self.vias {
            if v.movable {
                let hw = (v.width / 2) as f64;
                let x = model.add_var(
                    (v.initial.x as f64 - m).max(die.lo.x as f64 + hw),
                    (v.initial.x as f64 + m).min(die.hi.x as f64 - hw),
                    0.0,
                );
                let y = model.add_var(
                    (v.initial.y as f64 - m).max(die.lo.y as f64 + hw),
                    (v.initial.y as f64 + m).min(die.hi.y as f64 - hw),
                    0.0,
                );
                via_xy.push((VRef::Var(x), VRef::Var(y)));
            } else {
                via_xy.push((VRef::Const(v.initial.x as f64), VRef::Const(v.initial.y as f64)));
            }
        }

        let mut point_xy = Vec::with_capacity(self.points.len());
        for p in &self.points {
            match p.anchor {
                PointAnchor::Fixed => point_xy
                    .push((VRef::Const(p.initial.x as f64), VRef::Const(p.initial.y as f64))),
                PointAnchor::Via(vi) => point_xy.push(via_xy[vi]),
                PointAnchor::Free => {
                    let x = model.add_var(
                        (p.initial.x as f64 - m).max(die.lo.x as f64),
                        (p.initial.x as f64 + m).min(die.hi.x as f64),
                        0.0,
                    );
                    let y = model.add_var(
                        (p.initial.y as f64 - m).max(die.lo.y as f64),
                        (p.initial.y as f64 + m).min(die.hi.y as f64),
                        0.0,
                    );
                    point_xy.push((VRef::Var(x), VRef::Var(y)));
                }
            }
        }

        // Segment line variables and the wirelength objective. With the
        // direction frozen, the length of a segment is a signed difference
        // of its endpoints' primary coordinates (scaled √2 on diagonals).
        let mut seg_c = Vec::with_capacity(self.segs.len());
        for s in &self.segs {
            let (a, b) = s.orient.coeffs();
            let c0 = (a * s.initial.a.x + b * s.initial.a.y) as f64;
            let both_fixed = matches!(
                (point_xy[s.p0], point_xy[s.p1]),
                ((VRef::Const(_), VRef::Const(_)), (VRef::Const(_), VRef::Const(_)))
            );
            if both_fixed {
                seg_c.push(VRef::Const(c0));
            } else {
                let c = model.add_var(c0 - 2.0 * m, c0 + 2.0 * m, 0.0);
                seg_c.push(VRef::Var(c));
            }
            // Objective contribution: primary axis is x unless vertical.
            let step = s.dir.step();
            let (primary_of, sign, scale) = if s.orient == Orient4::V {
                (1usize, step.dy as f64, 1.0)
            } else {
                (
                    0usize,
                    step.dx as f64,
                    if s.orient.is_diagonal() { std::f64::consts::SQRT_2 } else { 1.0 },
                )
            };
            let coef = sign * scale;
            for (pt, dirn) in [(s.p1, 1.0), (s.p0, -1.0)] {
                let v = if primary_of == 0 { point_xy[pt].0 } else { point_xy[pt].1 };
                if let VRef::Var(id) = v {
                    *obj.entry(id).or_insert(0.0) += coef * dirn;
                }
            }
        }
        for (v, c) in obj {
            model.set_obj(v, c);
        }
        Vars { point_xy, via_xy, seg_c }
    }

    /// Adds the route constraints (§III-E2): every point lies on the lines
    /// of its adjacent segments, and every segment keeps its direction.
    pub fn add_route_constraints(&self, model: &mut Model, vars: &Vars) {
        for (si, s) in self.segs.iter().enumerate() {
            for pt in [s.p0, s.p1] {
                let mut e = point_expr(vars.point_xy[pt], s.orient);
                let mut c_e = LinExpr::default();
                c_e.push(vars.seg_c[si], 1.0);
                e.sub(&c_e);
                if e.terms.is_empty() {
                    continue;
                }
                model.add_row(e.terms.clone(), Cmp::Eq, -e.constant);
            }
            // Direction preservation: signed primary extent ≥ 0.
            let step = s.dir.step();
            let (use_y, sign) = if s.orient == Orient4::V {
                (true, step.dy as f64)
            } else {
                (false, step.dx as f64)
            };
            let mut e = LinExpr::default();
            let get = |pt: usize| -> (VRef, VRef) { vars.point_xy[pt] };
            let (v1, v0) = if use_y { (get(s.p1).1, get(s.p0).1) } else { (get(s.p1).0, get(s.p0).0) };
            e.push(v1, sign);
            e.push(v0, -sign);
            if !e.terms.is_empty() {
                model.add_row(e.terms.clone(), Cmp::Ge, -e.constant);
            }
        }
    }

    /// The positions of the layout the model was extracted from.
    pub fn initial_positions(&self) -> SolvedPositions {
        SolvedPositions {
            points: self.points.iter().map(|p| (p.initial.x as f64, p.initial.y as f64)).collect(),
            vias: self.vias.iter().map(|v| (v.initial.x as f64, v.initial.y as f64)).collect(),
            segs: self
                .segs
                .iter()
                .map(|s| {
                    let (a, b) = s.orient.coeffs();
                    (a * s.initial.a.x + b * s.initial.a.y) as f64
                })
                .collect(),
        }
    }

    /// Makes `pos` the model's start point: the inverse of
    /// [`ItemModel::positions_from`].
    pub fn set_start(&self, model: &mut Model, vars: &Vars, pos: &SolvedPositions) {
        let mut set = |v: VRef, value: f64| {
            if let VRef::Var(id) = v {
                model.set_start(id, value);
            }
        };
        for (&(x, y), &(px, py)) in vars.via_xy.iter().zip(&pos.vias) {
            set(x, px);
            set(y, py);
        }
        for (&(x, y), &(px, py)) in vars.point_xy.iter().zip(&pos.points) {
            set(x, px);
            set(y, py);
        }
        for (&c, &pc) in vars.seg_c.iter().zip(&pos.segs) {
            set(c, pc);
        }
    }

    /// Reads solved positions out of an LP solution.
    pub fn positions_from(&self, sol: &Solution, vars: &Vars) -> SolvedPositions {
        let val = |v: VRef| -> f64 {
            match v {
                VRef::Const(c) => c,
                VRef::Var(id) => sol[id],
            }
        };
        SolvedPositions {
            points: vars.point_xy.iter().map(|&(x, y)| (val(x), val(y))).collect(),
            vias: vars.via_xy.iter().map(|&(x, y)| (val(x), val(y))).collect(),
            segs: vars.seg_c.iter().map(|&c| val(c)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use info_geom::{Polyline, Rect};
    use info_model::{DesignRules, PackageBuilder};

    fn one_net_package() -> (Package, Layout) {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 500_000)),
            DesignRules::default(),
            2,
        );
        let c1 = b.add_chip(Rect::new(Point::new(50_000, 100_000), Point::new(300_000, 400_000)));
        let p1 = b.add_io_pad(c1, Point::new(250_000, 250_000)).unwrap();
        let g = b.add_bump_pad(Point::new(750_000, 250_000)).unwrap();
        b.add_net(p1, g).unwrap();
        let pkg = b.build().unwrap();
        let mut layout = Layout::new(&pkg);
        layout.add_route(
            NetId(0),
            WireLayer(0),
            Polyline::new(vec![
                Point::new(250_000, 250_000),
                Point::new(400_000, 250_000),
                Point::new(450_000, 300_000),
                Point::new(500_000, 300_000),
            ]),
        );
        layout.add_via(NetId(0), Point::new(500_000, 300_000), 5_000, WireLayer(0), WireLayer(1), false);
        layout.add_route(
            NetId(0),
            WireLayer(1),
            Polyline::new(vec![
                Point::new(500_000, 300_000),
                Point::new(700_000, 300_000),
                Point::new(750_000, 250_000),
            ]),
        );
        (pkg, layout)
    }

    #[test]
    fn extraction_classifies_anchors() {
        let (pkg, layout) = one_net_package();
        let m = extract(&pkg, &layout).unwrap();
        assert_eq!(m.routes.len(), 2);
        assert_eq!(m.vias.len(), 1);
        // First route: pad-fixed start, via-anchored end.
        let r0 = &m.routes[0];
        assert_eq!(m.points[r0.point_items[0]].anchor, PointAnchor::Fixed);
        assert_eq!(
            m.points[*r0.point_items.last().unwrap()].anchor,
            PointAnchor::Via(0)
        );
        // Interior joints are free.
        assert_eq!(m.points[r0.point_items[1]].anchor, PointAnchor::Free);
        // Second route: via-anchored start, pad-fixed end.
        let r1 = &m.routes[1];
        assert_eq!(m.points[r1.point_items[0]].anchor, PointAnchor::Via(0));
        assert_eq!(m.points[*r1.point_items.last().unwrap()].anchor, PointAnchor::Fixed);
        // Segment metadata is frozen from the initial layout.
        assert_eq!(m.segs[r1.seg_items[1]].orient, Orient4::D135);
    }

    #[test]
    fn objective_tracks_wirelength() {
        let (pkg, layout) = one_net_package();
        let m = extract(&pkg, &layout).unwrap();
        let mut model = Model::new();
        let vars = m.build_variables(&mut model, &pkg);
        m.add_route_constraints(&mut model, &vars);
        let sol = model.solve().expect("route constraints are consistent");
        let got = m.positions_from(&sol, &vars);
        assert_eq!(got.points.len(), m.points.len());
        // Fixed anchors keep their positions exactly.
        for (pi, p) in m.points.iter().enumerate() {
            if p.anchor == PointAnchor::Fixed {
                assert_eq!(got.points[pi].0, p.initial.x as f64);
                assert_eq!(got.points[pi].1, p.initial.y as f64);
            }
        }
    }
}
