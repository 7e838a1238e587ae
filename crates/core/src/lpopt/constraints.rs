//! Constraint Generation (§III-E2): interactive spacing constraints.
//!
//! For every route point (and movable via center), the nearest blockage on
//! each side of each of the four line orientations contributes one linear
//! separation constraint — the paper's "nearest blockage in each of the
//! cardinal and intercardinal directions". Blockages are foreign wire
//! segments (whose line offset `c` is itself a variable), foreign vias
//! (variables when flexible), and fixed shapes (pads, obstacles).
//!
//! Each requirement is clamped to the separation the initial layout
//! already achieves, so the initial layout is always feasible and the LP
//! can only improve it.

use super::items::{alg_scale, point_expr, ItemModel, LinExpr, Vars};
use info_geom::{Octagon, Orient4, Point};
use info_lp::{Cmp, Model};
use info_model::{NetId, Package, WireLayer};

/// Safety margin (nm, algebraic) absorbing lattice snapping after solve.
const SNAP_MARGIN: f64 = 4.0;

/// One side of a separation: the item expression compared against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExprRef {
    /// `a·x + b·y` of a route point.
    Point(usize),
    /// The `c` variable of a segment's line.
    SegLine(usize),
    /// `a·x + b·y` of a via center.
    Via(usize),
    /// A fixed bound (obstacle/pad face, algebraic).
    Const(f64),
}

/// A linear separation constraint `sign · (expr(a) − expr(b)) ≥ required`.
#[derive(Debug, Clone, PartialEq)]
pub struct Separation {
    /// Orientation of the comparison (defines the `a`, `b` coefficients).
    pub orient: Orient4,
    /// `+1.0` when `a` must stay on the positive side of `b`.
    pub sign: f64,
    /// Movable item.
    pub a: ExprRef,
    /// The blockage.
    pub b: ExprRef,
    /// Required algebraic separation (≥ 0).
    pub required: f64,
}

impl Separation {
    /// Emits the constraint into the model.
    pub fn add_to(&self, model: &mut Model, vars: &Vars, _items: &ItemModel) {
        let expr_of = |r: ExprRef| -> LinExpr {
            match r {
                ExprRef::Point(i) => point_expr(vars.point_xy[i], self.orient),
                ExprRef::Via(i) => point_expr(vars.via_xy[i], self.orient),
                ExprRef::SegLine(i) => {
                    let mut e = LinExpr::default();
                    e.push(vars.seg_c[i], 1.0);
                    e
                }
                ExprRef::Const(c) => LinExpr { terms: Vec::new(), constant: c },
            }
        };
        let mut e = expr_of(self.a);
        e.sub(&expr_of(self.b));
        // sign · e ≥ required
        let terms: Vec<_> = e.terms.iter().map(|&(v, c)| (v, c * self.sign)).collect();
        if terms.is_empty() {
            return; // both sides immovable
        }
        model.add_row(terms, Cmp::Ge, self.required - self.sign * e.constant);
    }
}

/// `along` coordinate of a point for an orientation: position measured
/// *along* the line direction (used for span-overlap tests).
fn along(orient: Orient4, p: Point) -> i64 {
    match orient {
        Orient4::H => p.x,
        Orient4::V => p.y,
        Orient4::D45 => p.sum(),  // lines x−y=c run along +x+y
        Orient4::D135 => p.diff(), // lines x+y=c run along +x−y
    }
}

/// `a·x + b·y` of a point for an orientation.
fn across(orient: Orient4, p: Point) -> i64 {
    let (a, b) = orient.coeffs();
    a * p.x + b * p.y
}

/// The blockage interval of an octagon in an orientation:
/// `(across_min, across_max, along_min, along_max)`.
fn shape_interval(orient: Orient4, o: &Octagon) -> (i64, i64, i64, i64) {
    let (xmin, xmax, ymin, ymax, smin, smax, dmin, dmax) = o.bounds();
    match orient {
        Orient4::H => (ymin, ymax, xmin, xmax),
        Orient4::V => (xmin, xmax, ymin, ymax),
        Orient4::D45 => (dmin, dmax, smin, smax),
        Orient4::D135 => (smin, smax, dmin, dmax),
    }
}

/// A candidate blockage for one (orientation, side) bucket.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    expr: ExprRef,
    /// Initial algebraic gap (positive).
    initial: f64,
    /// Rule requirement (algebraic).
    rule: f64,
}

/// Keeps the nearest candidate per (orientation, side).
#[derive(Debug, Default)]
struct Buckets {
    best: [Option<Candidate>; 8],
}

impl Buckets {
    fn offer(&mut self, orient: Orient4, side: f64, cand: Candidate) {
        let oi = match orient {
            Orient4::H => 0,
            Orient4::V => 1,
            Orient4::D45 => 2,
            Orient4::D135 => 3,
        };
        let k = oi * 2 + if side > 0.0 { 0 } else { 1 };
        if self.best[k].is_none_or(|b| cand.initial < b.initial) {
            self.best[k] = Some(cand);
        }
    }
}

/// Fixed blockage shapes per layer: pads and obstacles with their owner.
fn fixed_shapes(package: &Package, layer: WireLayer) -> Vec<(Option<NetId>, Octagon)> {
    let mut pad_nets = vec![None; package.pads().len()];
    for n in package.nets() {
        pad_nets[n.a.index()] = Some(n.id);
        pad_nets[n.b.index()] = Some(n.id);
    }
    let mut out = Vec::new();
    for p in package.pads() {
        if package.pad_layer(p.id) == layer {
            out.push((pad_nets[p.id.index()], p.shape()));
        }
    }
    for o in package.obstacles() {
        if o.layer == layer {
            out.push((None, Octagon::from_rect(o.rect)));
        }
    }
    out
}

/// Generates the interactive constraint set for the whole item model,
/// layer by layer in layer order.
pub fn generate(package: &Package, items: &ItemModel) -> Vec<Separation> {
    let rules = package.rules();
    let s = rules.min_spacing as f64;
    let sw = rules.wire_width as f64;
    let sv = rules.via_width as f64;
    // Pairing radius: two trust regions plus the largest rule gap.
    let radius = 2.0 * items.move_bound + s + sw + sv;

    let mut out = Vec::new();
    for li in 0..package.wire_layer_count() {
        let layer = WireLayer(li as u8);
        let shapes = fixed_shapes(package, layer);
        let seg_ids: Vec<usize> =
            (0..items.segs.len()).filter(|&i| items.segs[i].layer == layer).collect();
        let via_ids: Vec<usize> =
            (0..items.vias.len()).filter(|&i| items.vias[i].top <= layer && items.vias[i].bottom >= layer).collect();

        // --- Point constraints.
        for (pi, p) in items.points.iter().enumerate() {
            if p.layer != layer {
                continue;
            }
            let mut buckets = Buckets::default();
            // vs foreign segments.
            for &si in &seg_ids {
                let seg = &items.segs[si];
                if seg.net == p.net {
                    continue;
                }
                let o = seg.orient;
                let scale = alg_scale(o);
                let c0 = across(o, seg.initial.a) as f64;
                let e0 = across(o, p.initial) as f64 - c0;
                if e0 == 0.0 || e0.abs() > radius * scale {
                    continue;
                }
                // Span check with slack for movement along the line.
                let (lo, hi) = {
                    let a1 = along(o, seg.initial.a);
                    let a2 = along(o, seg.initial.b);
                    (a1.min(a2), a1.max(a2))
                };
                let ap = along(o, p.initial);
                let slack = (2.0 * items.move_bound * scale) as i64;
                if ap < lo - slack || ap > hi + slack {
                    continue;
                }
                buckets.offer(
                    o,
                    e0.signum(),
                    Candidate {
                        expr: ExprRef::SegLine(si),
                        initial: e0.abs(),
                        rule: (s + sw) * scale,
                    },
                );
            }
            // vs foreign vias.
            for &vi in &via_ids {
                let via = &items.vias[vi];
                if via.net == p.net {
                    continue;
                }
                for o in Orient4::ALL {
                    let scale = alg_scale(o);
                    let e0 = (across(o, p.initial) - across(o, via.initial)) as f64;
                    if e0 == 0.0 || e0.abs() > radius * scale {
                        continue;
                    }
                    buckets.offer(
                        o,
                        e0.signum(),
                        Candidate {
                            expr: ExprRef::Via(vi),
                            initial: e0.abs(),
                            rule: (s + sw / 2.0 + sv / 2.0) * scale,
                        },
                    );
                }
            }
            // vs fixed shapes.
            for (owner, shape) in &shapes {
                if *owner == Some(p.net) {
                    continue;
                }
                for o in Orient4::ALL {
                    let scale = alg_scale(o);
                    let (amin, amax, lmin, lmax) = shape_interval(o, shape);
                    let ap = along(o, p.initial);
                    let slack = (2.0 * items.move_bound * scale) as i64;
                    if ap < lmin - slack || ap > lmax + slack {
                        continue;
                    }
                    let e = across(o, p.initial);
                    let (bound, side) = if e >= amax {
                        (amax as f64, 1.0)
                    } else if e <= amin {
                        (amin as f64, -1.0)
                    } else {
                        continue; // point inside the shape's band: cannot separate along o
                    };
                    let e0 = (e as f64 - bound).abs();
                    if e0 > radius * scale {
                        continue;
                    }
                    buckets.offer(
                        o,
                        side,
                        Candidate {
                            expr: ExprRef::Const(bound),
                            initial: e0,
                            rule: (s + sw / 2.0) * scale,
                        },
                    );
                }
            }
            for k in 0..8 {
                if let Some(c) = buckets.best[k] {
                    let orient = [Orient4::H, Orient4::V, Orient4::D45, Orient4::D135][k / 2];
                    let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                    let required = (c.rule + SNAP_MARGIN).min(c.initial);
                    out.push(Separation {
                        orient,
                        sign,
                        a: ExprRef::Point(pi),
                        b: c.expr,
                        required,
                    });
                }
            }
        }

        // --- Segment-vs-segment (parallel) and segment-vs-shape, so long
        // straight wires cannot slide into things their endpoints miss.
        for (idx, &si) in seg_ids.iter().enumerate() {
            let seg = &items.segs[si];
            let o = seg.orient;
            let scale = alg_scale(o);
            let c_self = across(o, seg.initial.a) as f64;
            let (lo, hi) = {
                let a1 = along(o, seg.initial.a);
                let a2 = along(o, seg.initial.b);
                (a1.min(a2), a1.max(a2))
            };
            let slack = (2.0 * items.move_bound * scale) as i64;
            let mut nearest: [Option<Candidate>; 2] = [None, None];
            for &sj in seg_ids.iter().skip(idx + 1) {
                let other = &items.segs[sj];
                if other.net == seg.net || other.orient != o {
                    continue;
                }
                let c_other = across(o, other.initial.a) as f64;
                let gap = c_self - c_other;
                if gap == 0.0 || gap.abs() > radius * scale {
                    continue;
                }
                let (olo, ohi) = {
                    let a1 = along(o, other.initial.a);
                    let a2 = along(o, other.initial.b);
                    (a1.min(a2), a1.max(a2))
                };
                if ohi < lo - slack || olo > hi + slack {
                    continue;
                }
                let k = if gap > 0.0 { 0 } else { 1 };
                let cand = Candidate {
                    expr: ExprRef::SegLine(sj),
                    initial: gap.abs(),
                    rule: (s + sw) * scale,
                };
                if nearest[k].is_none_or(|b| cand.initial < b.initial) {
                    nearest[k] = Some(cand);
                }
            }
            for (owner, shape) in &shapes {
                if *owner == Some(seg.net) {
                    continue;
                }
                let (amin, amax, lmin, lmax) = shape_interval(o, shape);
                if lmax < lo - slack || lmin > hi + slack {
                    continue;
                }
                let e = c_self;
                let (bound, k) = if e >= amax as f64 {
                    (amax as f64, 0)
                } else if e <= amin as f64 {
                    (amin as f64, 1)
                } else {
                    continue;
                };
                let gap = (e - bound).abs();
                if gap > radius * scale {
                    continue;
                }
                let cand = Candidate {
                    expr: ExprRef::Const(bound),
                    initial: gap,
                    rule: (s + sw / 2.0) * scale,
                };
                if nearest[k].is_none_or(|b| cand.initial < b.initial) {
                    nearest[k] = Some(cand);
                }
            }
            for (k, cand) in nearest.iter().enumerate() {
                if let Some(c) = cand {
                    out.push(Separation {
                        orient: o,
                        sign: if k == 0 { 1.0 } else { -1.0 },
                        a: ExprRef::SegLine(si),
                        b: c.expr,
                        required: (c.rule + SNAP_MARGIN).min(c.initial),
                    });
                }
            }
        }

        // --- Movable vias vs everything (their own adjacent wires are
        // same-net and exempt).
        for &vi in &via_ids {
            let via = &items.vias[vi];
            if !via.movable {
                continue;
            }
            let mut buckets = Buckets::default();
            for &vj in &via_ids {
                if vj == vi || items.vias[vj].net == via.net {
                    continue;
                }
                for o in Orient4::ALL {
                    let scale = alg_scale(o);
                    let e0 = (across(o, via.initial) - across(o, items.vias[vj].initial)) as f64;
                    if e0 == 0.0 || e0.abs() > radius * scale {
                        continue;
                    }
                    buckets.offer(
                        o,
                        e0.signum(),
                        Candidate {
                            expr: ExprRef::Via(vj),
                            initial: e0.abs(),
                            rule: (s + sv) * scale,
                        },
                    );
                }
            }
            for &si in &seg_ids {
                let seg = &items.segs[si];
                if seg.net == via.net {
                    continue;
                }
                let o = seg.orient;
                let scale = alg_scale(o);
                let e0 = across(o, via.initial) as f64 - across(o, seg.initial.a) as f64;
                if e0 == 0.0 || e0.abs() > radius * scale {
                    continue;
                }
                let ap = along(o, via.initial);
                let (lo, hi) = {
                    let a1 = along(o, seg.initial.a);
                    let a2 = along(o, seg.initial.b);
                    (a1.min(a2), a1.max(a2))
                };
                let slack = (2.0 * items.move_bound * scale) as i64;
                if ap < lo - slack || ap > hi + slack {
                    continue;
                }
                buckets.offer(
                    o,
                    e0.signum(),
                    Candidate {
                        expr: ExprRef::SegLine(si),
                        initial: e0.abs(),
                        rule: (s + sw / 2.0 + sv / 2.0) * scale,
                    },
                );
            }
            for (owner, shape) in &shapes {
                if *owner == Some(via.net) {
                    continue;
                }
                for o in Orient4::ALL {
                    let scale = alg_scale(o);
                    let (amin, amax, lmin, lmax) = shape_interval(o, shape);
                    let ap = along(o, via.initial);
                    let slack = (2.0 * items.move_bound * scale) as i64;
                    if ap < lmin - slack || ap > lmax + slack {
                        continue;
                    }
                    let e = across(o, via.initial);
                    let (bound, side) = if e >= amax {
                        (amax as f64, 1.0)
                    } else if e <= amin {
                        (amin as f64, -1.0)
                    } else {
                        continue;
                    };
                    let e0 = (e as f64 - bound).abs();
                    if e0 > radius * scale {
                        continue;
                    }
                    buckets.offer(
                        o,
                        side,
                        Candidate {
                            expr: ExprRef::Const(bound),
                            initial: e0,
                            rule: (s + sv / 2.0) * scale,
                        },
                    );
                }
            }
            for k in 0..8 {
                if let Some(c) = buckets.best[k] {
                    let orient = [Orient4::H, Orient4::V, Orient4::D45, Orient4::D135][k / 2];
                    let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                    out.push(Separation {
                        orient,
                        sign,
                        a: ExprRef::Via(vi),
                        b: c.expr,
                        required: (c.rule + SNAP_MARGIN).min(c.initial),
                    });
                }
            }
        }
    }
    out
}

/// Constraints repairing one crossing found after a solve: each endpoint of
/// either segment is pinned to its *initial* side of the other segment's
/// line (§III-E4).
pub fn repair_crossing(items: &ItemModel, sa: usize, sb: usize) -> Vec<Separation> {
    let mut out = Vec::new();
    let rule_gap = SNAP_MARGIN; // keep strictly on the correct side
    for (s_pts, s_line) in [(sa, sb), (sb, sa)] {
        let line_seg = &items.segs[s_line];
        let o = line_seg.orient;
        let c0 = across(o, line_seg.initial.a) as f64;
        for pt in [items.segs[s_pts].p0, items.segs[s_pts].p1] {
            let e0 = across(o, items.points[pt].initial) as f64 - c0;
            if e0 == 0.0 {
                continue;
            }
            out.push(Separation {
                orient: o,
                sign: e0.signum(),
                a: ExprRef::Point(pt),
                b: ExprRef::SegLine(s_line),
                required: rule_gap.min(e0.abs()),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::super::items::extract;
    use info_geom::{Polyline, Rect};
    use info_model::{DesignRules, Layout, PackageBuilder};

    fn two_wire_layout() -> (Package, Layout) {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 500_000)),
            DesignRules::default(),
            1,
        );
        let c1 = b.add_chip(Rect::new(Point::new(50_000, 100_000), Point::new(300_000, 400_000)));
        let c2 = b.add_chip(Rect::new(Point::new(700_000, 100_000), Point::new(950_000, 400_000)));
        let a1 = b.add_io_pad(c1, Point::new(250_000, 240_000)).unwrap();
        let a2 = b.add_io_pad(c2, Point::new(750_000, 240_000)).unwrap();
        let b1 = b.add_io_pad(c1, Point::new(250_000, 280_000)).unwrap();
        let b2 = b.add_io_pad(c2, Point::new(750_000, 280_000)).unwrap();
        b.add_net(a1, a2).unwrap();
        b.add_net(b1, b2).unwrap();
        let pkg = b.build().unwrap();
        let mut layout = Layout::new(&pkg);
        layout.add_route(
            NetId(0),
            WireLayer(0),
            Polyline::new(vec![Point::new(250_000, 240_000), Point::new(750_000, 240_000)]),
        );
        layout.add_route(
            NetId(1),
            WireLayer(0),
            Polyline::new(vec![Point::new(250_000, 280_000), Point::new(750_000, 280_000)]),
        );
        (pkg, layout)
    }

    #[test]
    fn parallel_wires_generate_mutual_constraints() {
        let (pkg, layout) = two_wire_layout();
        let items = extract(&pkg, &layout).unwrap();
        let cons = generate(&pkg, &items);
        // Every wire segment is separated from its nearest blockage on the
        // H orientation: here the *foreign pads* (36 µm) are nearer than
        // the foreign wire line (40 µm), so Const bounds win the buckets —
        // exactly the paper's nearest-blockage-per-direction rule.
        let seg_h = cons
            .iter()
            .filter(|c| matches!(c.a, ExprRef::SegLine(_)) && c.orient == Orient4::H)
            .count();
        assert!(seg_h >= 2, "expected H-separations on both wires, got {cons:#?}");
        let pt_cons = cons
            .iter()
            .filter(|c| matches!(c.a, ExprRef::Point(_)))
            .count();
        assert!(pt_cons >= 4);
        // When the wires are moved away from any pads, they must see each
        // other as SegLine-vs-SegLine.
        let mut far = Layout::new(&pkg);
        far.add_route(
            NetId(0),
            WireLayer(0),
            Polyline::new(vec![Point::new(400_000, 440_000), Point::new(600_000, 440_000)]),
        );
        far.add_route(
            NetId(1),
            WireLayer(0),
            Polyline::new(vec![Point::new(400_000, 460_000), Point::new(600_000, 460_000)]),
        );
        let items2 = extract(&pkg, &far).unwrap();
        let cons2 = generate(&pkg, &items2);
        let seg_seg = cons2
            .iter()
            .filter(|c| matches!(c.a, ExprRef::SegLine(_)) && matches!(c.b, ExprRef::SegLine(_)))
            .count();
        assert!(seg_seg >= 1, "isolated parallel wires must see each other: {cons2:#?}");
        // All requirements are feasible initially (≤ initial separation of
        // 40 µm... algebraically the wires sit 40k apart; rule is 4k + 4).
        for c in &cons {
            assert!(c.required >= 0.0);
            assert!(c.required <= 40_000.0 + 1.0);
        }
    }

    #[test]
    fn requirements_clamped_when_initially_tight() {
        // Wires only 3 µm apart (violating the 4 µm rule): the constraint
        // must clamp to 3 µm so the LP stays feasible.
        let (pkg, _) = two_wire_layout();
        let mut layout = Layout::new(&pkg);
        layout.add_route(
            NetId(0),
            WireLayer(0),
            Polyline::new(vec![Point::new(250_000, 240_000), Point::new(750_000, 240_000)]),
        );
        layout.add_route(
            NetId(1),
            WireLayer(0),
            Polyline::new(vec![Point::new(300_000, 243_000), Point::new(700_000, 243_000)]),
        );
        let items = extract(&pkg, &layout).unwrap();
        let cons = generate(&pkg, &items);
        let tight: Vec<_> = cons
            .iter()
            .filter(|c| {
                matches!((c.a, c.b), (ExprRef::SegLine(_), ExprRef::SegLine(_)))
                    && c.orient == Orient4::H
            })
            .collect();
        assert!(!tight.is_empty());
        for c in tight {
            assert!(c.required <= 3_000.0, "clamped to initial: {c:?}");
        }
    }

    #[test]
    fn repair_constraints_pin_initial_sides() {
        let (pkg, layout) = two_wire_layout();
        let items = extract(&pkg, &layout).unwrap();
        // Pretend segments 0 and 1 (the two wires) crossed.
        let fixes = repair_crossing(&items, 0, 1);
        assert_eq!(fixes.len(), 4, "two endpoints on each side");
        for f in &fixes {
            // Net 0 is below net 1 initially: its points carry sign −1
            // against net 1's line and vice versa.
            assert!(f.required >= 0.0);
        }
    }
}
