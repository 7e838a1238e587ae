//! Stage 5 — LP-based layout optimization (§III-E).
//!
//! The layout is mapped to LP variables (`x`/`y` per movable point and via
//! center, `c` per wire segment line); fixed constraints tie via shapes and
//! terminal anchors, route constraints keep every point on its two
//! adjacent segment lines, and interactive constraints keep the minimum
//! spacing toward the nearest blockage on each side. The objective is the
//! total wirelength, which is linear because segment orientations and
//! directions are frozen at mapping time.
//!
//! Solving iterates: if the optimized layout contains a wire crossing that
//! the sparse constraint set failed to forbid, a constraint pinning the
//! initial relative order of the two segments is added and the LP is
//! re-solved (§III-E4). Convergence is guaranteed because each repaired
//! pair can never cross again and the pair count is finite; the iteration
//! cap defaults to the paper's observed bound of 50.
//!
//! Three engineering safeguards (documented deviations):
//!
//! - **Feasibility clamp**: each interactive constraint's required gap is
//!   clamped to the gap the *initial* layout achieves, so the initial
//!   layout is always LP-feasible and optimization can only improve it.
//!   The current positions are also each sub-LP's simplex start point,
//!   so no solve spends phase 1 searching for a feasible point.
//! - **Trust region**: every variable may move at most a bounded distance
//!   from its initial value, which makes the nearest-blockage constraint
//!   set sufficient (far-apart items cannot teleport into collision).
//! - **Decomposition**: interactive constraints only couple nearby nets,
//!   so the LP splits into independent connected components solved
//!   separately; crossing repairs merge components when needed.

mod apply;
mod constraints;
mod items;

pub use constraints::{ExprRef as SepExprRef, Separation};
pub use items::{extract as extract_items, ItemModel, PointAnchor, SolvedPositions, Vars};

use crate::config::RouterConfig;
use crate::resilience::{FaultSite, FlowCtx, RouterError};
use constraints::ExprRef;
use info_lp::Model;
use info_model::{Layout, NetId, Package};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of the optimization stage.
#[derive(Debug, Clone, PartialEq)]
pub struct LpOptReport {
    /// Wirelength before, in nm.
    pub wirelength_before: f64,
    /// Wirelength after, in nm.
    pub wirelength_after: f64,
    /// Crossing-repair iterations performed (1 = no repair needed).
    pub iterations: usize,
    /// Whether optimization was applied (false = kept the initial layout).
    pub applied: bool,
    /// Whether the solved layout was thrown away by the safety net because
    /// applying it added DRC violations or wirelength.
    pub reverted: bool,
    /// Solver failures encountered; each froze exactly one component at
    /// its pre-LP geometry while the rest kept optimizing.
    pub failures: Vec<RouterError>,
    /// Component visits that actually solved (over all iterations).
    pub components_solved: usize,
    /// Component visits skipped because the component was disjoint from
    /// the dirty set — untouched geometry an ECO pass never re-solves.
    pub components_skipped: usize,
    /// Simplex iterations summed over every sub-LP solve.
    pub simplex_iterations: usize,
}

fn net_of(items: &ItemModel, e: ExprRef) -> Option<NetId> {
    match e {
        ExprRef::Point(i) => Some(items.points[i].net),
        ExprRef::SegLine(i) => Some(items.segs[i].net),
        ExprRef::Via(i) => Some(items.vias[i].net),
        ExprRef::Const(_) => None,
    }
}

struct NetDsu {
    ids: Vec<NetId>,
    index: BTreeMap<NetId, usize>,
    parent: Vec<usize>,
}

impl NetDsu {
    fn new(nets: BTreeSet<NetId>) -> Self {
        let ids: Vec<NetId> = nets.into_iter().collect();
        let index = ids.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let parent = (0..ids.len()).collect();
        NetDsu { ids, index, parent }
    }
    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let r = self.find(self.parent[i]);
            self.parent[i] = r;
        }
        self.parent[i]
    }
    fn union(&mut self, a: NetId, b: NetId) {
        let (ia, ib) = (self.index[&a], self.index[&b]);
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
    fn components(&mut self) -> Vec<BTreeSet<NetId>> {
        let mut by_root: BTreeMap<usize, BTreeSet<NetId>> = BTreeMap::new();
        for i in 0..self.ids.len() {
            let r = self.find(i);
            by_root.entry(r).or_default().insert(self.ids[i]);
        }
        by_root.into_values().collect()
    }
}

/// Runs LP-based layout optimization in place.
///
/// On any LP failure within a component — a real solver error or an
/// injected `lp.factorize` fault — that component keeps its initial
/// geometry (recorded in the report's `failures`); the rest still
/// optimizes. A tripped stage budget stops iterating; the layout is only
/// applied if the positions reached so far are crossing-free.
pub fn optimize(
    package: &Package,
    layout: &mut Layout,
    cfg: &RouterConfig,
    ctx: &FlowCtx,
) -> LpOptReport {
    optimize_seeded(package, layout, cfg, ctx, None)
}

/// [`optimize`] with an initial dirty set: components disjoint from
/// `seed` keep their current geometry without a solve. `None` treats
/// every component as dirty (the full-route behavior). The ECO path
/// seeds this with the nets whose geometry the delta re-route actually
/// changed, so the LP re-runs only on touched components.
pub fn optimize_seeded(
    package: &Package,
    layout: &mut Layout,
    cfg: &RouterConfig,
    ctx: &FlowCtx,
    seed: Option<&BTreeSet<NetId>>,
) -> LpOptReport {
    let before: f64 = layout.routes().map(|r| r.length()).sum();
    let mut report = LpOptReport {
        wirelength_before: before,
        wirelength_after: before,
        iterations: 0,
        applied: false,
        reverted: false,
        failures: Vec::new(),
        components_solved: 0,
        components_skipped: 0,
        simplex_iterations: 0,
    };
    let Some(items) = items::extract(package, layout) else {
        return report;
    };
    if items.points.is_empty() {
        return report;
    }
    let base = constraints::generate(package, &items);

    // Net components from constraint coupling.
    let nets: BTreeSet<NetId> = items.routes.iter().map(|r| r.net).collect();
    let mut dsu = NetDsu::new(nets);
    for c in &base {
        if let (Some(a), Some(b)) = (net_of(&items, c.a), net_of(&items, c.b)) {
            if a != b {
                dsu.union(a, b);
            }
        }
    }

    // Global solved positions, initialized to the current layout.
    let mut solved = items.initial_positions();

    let mut extra: Vec<Separation> = Vec::new();
    let mut frozen: BTreeSet<NetId> = BTreeSet::new();
    let mut dirty: Option<BTreeSet<NetId>> = seed.cloned(); // None = all dirty
    let max_iters = if cfg.lp_max_iterations > 0 {
        cfg.lp_max_iterations
    } else {
        2 * items.points.len() + items.vias.len() + 8
    };

    // Size threshold above which a component is optimized by block
    // coordinate descent (per-net sub-LPs, two sweeps) instead of one
    // monolithic LP. Each sub-LP fixes the other nets at their current
    // positions; every step is feasible and monotonically shortens the
    // wirelength, so quality approaches the joint optimum at a fraction
    // of the simplex iterations.
    const SWEEP_POINT_THRESHOLD: usize = 220;

    let comp_points = |comp: &BTreeSet<NetId>| -> usize {
        items
            .points
            .iter()
            .filter(|p| comp.contains(&p.net))
            .count()
    };

    for iter in 1..=max_iters {
        // Cooperative budget: stop iterating; the positions reached so far
        // are applied below only if they are crossing-free.
        if ctx.interrupted() {
            break;
        }
        report.iterations = iter;
        for comp in dsu.components() {
            if comp.iter().any(|n| frozen.contains(n)) {
                continue;
            }
            if let Some(d) = &dirty {
                if comp.is_disjoint(d) {
                    report.components_skipped += 1;
                    continue;
                }
            }
            report.components_solved += 1;
            let subsets: Vec<BTreeSet<NetId>> = if comp_points(&comp) > SWEEP_POINT_THRESHOLD {
                // Two Gauss-Seidel sweeps over the nets of the component.
                let one: Vec<BTreeSet<NetId>> = comp.iter().map(|&n| BTreeSet::from([n])).collect();
                let mut twice = one.clone();
                twice.extend(one);
                twice
            } else {
                vec![comp.clone()]
            };
            for subset in subsets {
                // Per-subset interrupt check: a big component's sweep list
                // can dwarf the outer iteration, and a cancelled job must
                // not wait for it. Positions solved so far are still only
                // applied below if crossing-free.
                if ctx.interrupted() {
                    break;
                }
                match solve_subset(package, &items, &base, &extra, &subset, &mut solved, ctx) {
                    Ok(iterations) => report.simplex_iterations += iterations,
                    Err(e) => {
                        // Solver failure: this component keeps its pre-LP
                        // geometry; everything else continues to optimize.
                        frozen.extend(comp.iter().copied());
                        reset_to_initial(&items, &comp, &mut solved);
                        report.failures.push(e);
                        break;
                    }
                }
            }
        }

        // Crossing repair across the whole layout.
        let crossings = apply::find_crossings(&items, &solved);
        if crossings.is_empty() {
            break;
        }
        let mut progressed = false;
        let mut now_dirty = BTreeSet::new();
        for (sa, sb) in crossings {
            let (na, nb) = (items.segs[sa].net, items.segs[sb].net);
            dsu.union(na, nb);
            now_dirty.insert(na);
            now_dirty.insert(nb);
            for c in constraints::repair_crossing(&items, sa, sb) {
                if !extra.contains(&c) {
                    extra.push(c);
                    progressed = true;
                }
            }
        }
        if !progressed {
            // The same crossing persists without new information: freeze
            // the offenders at their initial geometry.
            frozen.extend(now_dirty.iter().copied());
            reset_to_initial(&items, &now_dirty, &mut solved);
            if apply::find_crossings(&items, &solved).is_empty() {
                break;
            }
            return report;
        }
        dirty = Some(now_dirty);
    }

    if !apply::find_crossings(&items, &solved).is_empty() {
        return report;
    }
    // Apply with a safety net: the lattice snapping (and the xarch
    // fallback paths) can deviate slightly from the LP's exact lines, so
    // re-verify with the full DRC and revert if the violation count grew.
    let snapshot = layout.clone();
    let violations_before = info_model::drc::check(package, layout).violations().len();
    if apply::apply(&items, &solved, layout) {
        let violations_after = info_model::drc::check(package, layout).violations().len();
        let wl_after: f64 = layout.routes().map(|r| r.length()).sum();
        if violations_after > violations_before || wl_after > report.wirelength_before {
            *layout = snapshot;
            report.reverted = true;
            return report;
        }
        report.applied = true;
        report.wirelength_after = wl_after;
    }
    report
}

/// Evaluates an expression at the current solved positions.
fn eval_expr(
    _items: &ItemModel,
    solved: &items::SolvedPositions,
    e: ExprRef,
    orient: info_geom::Orient4,
) -> f64 {
    let (a, b) = orient.coeffs();
    match e {
        ExprRef::Point(i) => a as f64 * solved.points[i].0 + b as f64 * solved.points[i].1,
        ExprRef::Via(i) => a as f64 * solved.vias[i].0 + b as f64 * solved.vias[i].1,
        ExprRef::SegLine(i) => solved.segs[i],
        ExprRef::Const(v) => v,
    }
}

/// Resets the solved positions of a set of nets to the initial layout.
fn reset_to_initial(
    items: &ItemModel,
    nets: &BTreeSet<NetId>,
    solved: &mut items::SolvedPositions,
) {
    for (pi, p) in items.points.iter().enumerate() {
        if nets.contains(&p.net) {
            solved.points[pi] = (p.initial.x as f64, p.initial.y as f64);
        }
    }
    for (si, s) in items.segs.iter().enumerate() {
        if nets.contains(&s.net) {
            let (a, b) = s.orient.coeffs();
            solved.segs[si] = (a * s.initial.a.x + b * s.initial.a.y) as f64;
        }
    }
    for (vi, v) in items.vias.iter().enumerate() {
        if nets.contains(&v.net) {
            solved.vias[vi] = (v.initial.x as f64, v.initial.y as f64);
        }
    }
}

/// Builds and solves the LP restricted to `subset`, with all other nets
/// fixed at their current solved positions; writes the solution back into
/// `solved`. The subset's current positions are the simplex's start point:
/// every constraint is clamped to its current gap, so that start is
/// feasible and the solve skips phase 1. Returns the simplex iterations
/// spent, or the typed solver error on an LP failure.
fn solve_subset(
    package: &Package,
    items: &ItemModel,
    base: &[Separation],
    extra: &[Separation],
    subset: &BTreeSet<NetId>,
    solved: &mut items::SolvedPositions,
    ctx: &FlowCtx,
) -> Result<usize, RouterError> {
    let (sub, pmap, smap, vmap) = items.filter_nets(subset);
    let mut model = Model::new();
    let vars = sub.build_variables(&mut model, package);
    sub.add_route_constraints(&mut model, &vars);
    for c in base.iter().chain(extra.iter()) {
        // A constant lhs would mean a malformed constraint; skip it rather
        // than poison the whole component.
        let Some(owner) = net_of(items, c.a) else {
            continue;
        };
        if !subset.contains(&owner) {
            continue;
        }
        let remap = |e: ExprRef| -> ExprRef {
            match e {
                ExprRef::Point(i) if subset.contains(&items.points[i].net) => {
                    ExprRef::Point(pmap[&i])
                }
                ExprRef::SegLine(i) if subset.contains(&items.segs[i].net) => {
                    ExprRef::SegLine(smap[&i])
                }
                ExprRef::Via(i) if subset.contains(&items.vias[i].net) => ExprRef::Via(vmap[&i]),
                // Foreign or constant: freeze at the current value.
                other => ExprRef::Const(eval_expr(items, solved, other, c.orient)),
            }
        };
        // Re-clamp against the *current* gap so the present positions stay
        // feasible even after other nets have moved.
        let cur_a = eval_expr(items, solved, c.a, c.orient);
        let cur_b = eval_expr(items, solved, c.b, c.orient);
        let cur_gap = c.sign * (cur_a - cur_b);
        let rc = Separation {
            orient: c.orient,
            sign: c.sign,
            a: remap(c.a),
            b: remap(c.b),
            required: c.required.min(cur_gap),
        };
        rc.add_to(&mut model, &vars, &sub);
    }
    ctx.check(FaultSite::LpFactorize)?;
    let mut start = sub.initial_positions();
    for (&g, &l) in &pmap {
        start.points[l] = solved.points[g];
    }
    for (&g, &l) in &smap {
        start.segs[l] = solved.segs[g];
    }
    for (&g, &l) in &vmap {
        start.vias[l] = solved.vias[g];
    }
    sub.set_start(&mut model, &vars, &start);
    match model.solve() {
        Ok(sol) => {
            let sub_solved = sub.positions_from(&sol, &vars);
            for (&g, &l) in &pmap {
                solved.points[g] = sub_solved.points[l];
            }
            for (&g, &l) in &smap {
                solved.segs[g] = sub_solved.segs[l];
            }
            for (&g, &l) in &vmap {
                solved.vias[g] = sub_solved.vias[l];
            }
            Ok(sol.iterations)
        }
        Err(e) => Err(RouterError::Lp(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use info_geom::{Point, Polyline, Rect};
    use info_model::{drc, DesignRules, NetId, PackageBuilder, WireLayer};

    /// A deliberately wasteful route between two pads: LP should pull the
    /// detour flat.
    #[test]
    fn shortens_detoured_route() {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 500_000)),
            DesignRules::default(),
            1,
        );
        let c1 = b.add_chip(Rect::new(
            Point::new(50_000, 100_000),
            Point::new(300_000, 400_000),
        ));
        let c2 = b.add_chip(Rect::new(
            Point::new(700_000, 100_000),
            Point::new(950_000, 400_000),
        ));
        let p1 = b.add_io_pad(c1, Point::new(250_000, 250_000)).unwrap();
        let p2 = b.add_io_pad(c2, Point::new(750_000, 250_000)).unwrap();
        b.add_net(p1, p2).unwrap();
        let pkg = b.build().unwrap();
        let mut layout = Layout::new(&pkg);
        // A detour: up 100 µm, across, back down.
        layout.add_route(
            NetId(0),
            WireLayer(0),
            Polyline::new(vec![
                Point::new(250_000, 250_000),
                Point::new(250_000, 350_000),
                Point::new(750_000, 350_000),
                Point::new(750_000, 250_000),
            ]),
        );
        let before: f64 = layout.routes().map(|r| r.length()).sum();
        let rep = optimize(
            &pkg,
            &mut layout,
            &RouterConfig::default(),
            &crate::resilience::FlowCtx::default(),
        );
        assert!(rep.applied, "{rep:?}");
        let after: f64 = layout.routes().map(|r| r.length()).sum();
        assert!(
            after < before - 50_000.0,
            "expected large shortening, before {before} after {after}"
        );
        // Still connected and clean.
        assert!(drc::is_connected(&pkg, &layout, NetId(0)));
        assert!(drc::check(&pkg, &layout).is_clean());
    }

    /// Two parallel routes at minimum spacing: optimization must not
    /// squeeze them into a violation.
    #[test]
    fn respects_spacing_between_nets() {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 500_000)),
            DesignRules::default(),
            1,
        );
        let c1 = b.add_chip(Rect::new(
            Point::new(50_000, 100_000),
            Point::new(300_000, 400_000),
        ));
        let c2 = b.add_chip(Rect::new(
            Point::new(700_000, 100_000),
            Point::new(950_000, 400_000),
        ));
        let a1 = b.add_io_pad(c1, Point::new(250_000, 240_000)).unwrap();
        let a2 = b.add_io_pad(c2, Point::new(750_000, 240_000)).unwrap();
        let b1 = b.add_io_pad(c1, Point::new(250_000, 270_000)).unwrap();
        let b2 = b.add_io_pad(c2, Point::new(750_000, 270_000)).unwrap();
        b.add_net(a1, a2).unwrap();
        b.add_net(b1, b2).unwrap();
        let pkg = b.build().unwrap();
        let mut layout = Layout::new(&pkg);
        // Net 0 straight; net 1 with a bulge toward net 0.
        layout.add_route(
            NetId(0),
            WireLayer(0),
            Polyline::new(vec![
                Point::new(250_000, 240_000),
                Point::new(750_000, 240_000),
            ]),
        );
        layout.add_route(
            NetId(1),
            WireLayer(0),
            Polyline::new(vec![
                Point::new(250_000, 270_000),
                Point::new(400_000, 270_000),
                Point::new(430_000, 300_000),
                Point::new(600_000, 300_000),
                Point::new(630_000, 270_000),
                Point::new(750_000, 270_000),
            ]),
        );
        let rep = optimize(
            &pkg,
            &mut layout,
            &RouterConfig::default(),
            &crate::resilience::FlowCtx::default(),
        );
        assert!(rep.applied);
        let report = drc::check(&pkg, &layout);
        assert!(report.is_clean(), "{:#?}", report.violations());
        // The bulge should flatten toward 270k but stay ≥ 4 µm from net 0.
        let net1_len: f64 = layout.routes_of(NetId(1)).map(|r| r.length()).sum();
        assert!(
            net1_len < 530_000.0,
            "bulge should shrink, len = {net1_len}"
        );
    }

    /// A route pinned between two fixed obstacles cannot move; optimization
    /// must keep it legal and terminate.
    #[test]
    fn fixed_corridor_stays_put() {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 500_000)),
            DesignRules::default(),
            1,
        );
        let c1 = b.add_chip(Rect::new(
            Point::new(50_000, 100_000),
            Point::new(300_000, 400_000),
        ));
        let c2 = b.add_chip(Rect::new(
            Point::new(700_000, 100_000),
            Point::new(950_000, 400_000),
        ));
        let p1 = b.add_io_pad(c1, Point::new(250_000, 250_000)).unwrap();
        let p2 = b.add_io_pad(c2, Point::new(750_000, 250_000)).unwrap();
        b.add_net(p1, p2).unwrap();
        b.add_obstacle(
            WireLayer(0),
            Rect::new(Point::new(450_000, 220_000), Point::new(550_000, 246_000)),
        )
        .unwrap();
        b.add_obstacle(
            WireLayer(0),
            Rect::new(Point::new(450_000, 254_000), Point::new(550_000, 280_000)),
        )
        .unwrap();
        let pkg = b.build().unwrap();
        let mut layout = Layout::new(&pkg);
        layout.add_route(
            NetId(0),
            WireLayer(0),
            Polyline::new(vec![
                Point::new(250_000, 250_000),
                Point::new(750_000, 250_000),
            ]),
        );
        let rep = optimize(
            &pkg,
            &mut layout,
            &RouterConfig::default(),
            &crate::resilience::FlowCtx::default(),
        );
        // Straight line through the corridor: nothing to improve, nothing
        // to break.
        let after: f64 = layout.routes().map(|r| r.length()).sum();
        assert!((after - 500_000.0).abs() < 1.0, "{rep:?}");
        assert!(drc::check(&pkg, &layout).is_clean());
    }

    /// Independent far-apart nets decompose into separate components and
    /// all still optimize.
    #[test]
    fn components_optimize_independently() {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(2_000_000, 2_000_000)),
            DesignRules::default(),
            1,
        );
        let c1 = b.add_chip(Rect::new(
            Point::new(50_000, 50_000),
            Point::new(400_000, 1_950_000),
        ));
        let c2 = b.add_chip(Rect::new(
            Point::new(1_600_000, 50_000),
            Point::new(1_950_000, 1_950_000),
        ));
        let mut nets = Vec::new();
        for i in 0..3i64 {
            let y = 300_000 + 600_000 * i; // far apart: separate components
            let p1 = b.add_io_pad(c1, Point::new(380_000, y)).unwrap();
            let p2 = b.add_io_pad(c2, Point::new(1_620_000, y)).unwrap();
            nets.push(b.add_net(p1, p2).unwrap());
        }
        let pkg = b.build().unwrap();
        let mut layout = Layout::new(&pkg);
        for (i, &net) in nets.iter().enumerate() {
            let y = 300_000 + 600_000 * i as i64;
            layout.add_route(
                net,
                WireLayer(0),
                Polyline::new(vec![
                    Point::new(380_000, y),
                    Point::new(380_000, y + 20_000),
                    Point::new(1_620_000, y + 20_000),
                    Point::new(1_620_000, y),
                ]),
            );
        }
        let before: f64 = layout.routes().map(|r| r.length()).sum();
        let rep = optimize(
            &pkg,
            &mut layout,
            &RouterConfig::default(),
            &crate::resilience::FlowCtx::default(),
        );
        assert!(rep.applied);
        let after: f64 = layout.routes().map(|r| r.length()).sum();
        assert!(
            after < before - 30_000.0,
            "all three detours flatten: {before} -> {after}"
        );
        assert!(drc::check(&pkg, &layout).is_clean());
    }
}
