//! Deterministic fault-injection suite: under any single injected fault —
//! error-return or panic, at every [`FaultSite`] — `route()` must return
//! normally with a DRC-clean (possibly partial) layout, record the fault in
//! [`FlowDiagnostics`], and lose at most the nets the fault touched.

use info_geom::{Point, Rect};
use info_model::{drc, DesignRules, NetId, Package, PackageBuilder, WireLayer};
use info_router::{
    FaultDirective, FaultKind, FaultPlan, FaultSite, InfoRouter, NetStatus, RouteOutcome,
    RouterConfig, RouterError, StageOutcome,
};
use info_telemetry::{AttemptOutcome, FailureReason, Pass};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Two facing chips with `nets_per_side` straight-across nets — small
/// enough to route fully, rich enough to exercise every stage.
fn two_chip_package(nets_per_side: usize) -> Package {
    let mut b = PackageBuilder::new(
        Rect::new(Point::new(0, 0), Point::new(1_400_000, 900_000)),
        DesignRules::default(),
        2,
    );
    let c1 = b.add_chip(Rect::new(Point::new(150_000, 250_000), Point::new(500_000, 650_000)));
    let c2 = b.add_chip(Rect::new(Point::new(900_000, 250_000), Point::new(1_250_000, 650_000)));
    for i in 0..nets_per_side {
        let y = 300_000 + 70_000 * i as i64;
        let a = b.add_io_pad(c1, Point::new(480_000, y)).unwrap();
        let z = b.add_io_pad(c2, Point::new(920_000, y)).unwrap();
        b.add_net(a, z).unwrap();
    }
    b.build().unwrap()
}

/// The config under which `site`'s check is guaranteed to be reached on the
/// two-chip package: per-net sites need every net in the sequential stage.
fn config_for(site: FaultSite) -> RouterConfig {
    let cfg = RouterConfig::default().with_global_cells(10);
    match site {
        FaultSite::AstarExpand | FaultSite::TileViaInsert => cfg.without_concurrent(),
        _ => cfg,
    }
}

/// Routes under `plan`, asserting no panic escapes `route()`.
fn route_with_plan(pkg: &Package, cfg: RouterConfig, plan: FaultPlan) -> RouteOutcome {
    let router = InfoRouter::new(cfg.with_fault_plan(plan));
    catch_unwind(AssertUnwindSafe(|| router.route(pkg)))
        .expect("a panic escaped InfoRouter::route")
}

/// The invariants every faulted run must keep.
fn assert_isolated(out: &RouteOutcome, site: FaultSite, baseline_routed: usize, max_lost: usize) {
    // The fault actually fired and was recorded.
    assert!(
        out.diagnostics.faults_fired.iter().any(|(s, n)| *s == site && *n >= 1),
        "{site}: fault did not fire: {:?}",
        out.diagnostics.faults_fired
    );
    // The layout is DRC-clean apart from unrouted nets.
    for v in out.drc.violations() {
        assert!(
            matches!(v, drc::Violation::Disconnected { .. }),
            "{site}: non-disconnection violation {v}"
        );
    }
    // Every net is accounted for: routed or reported dirty.
    assert_eq!(
        out.stats.routed_nets + out.drc.dirty_nets().len(),
        out.stats.total_nets,
        "{site}: nets unaccounted for"
    );
    // Bounded degradation: the fault costs at most `max_lost` nets.
    assert!(
        out.stats.routed_nets + max_lost >= baseline_routed,
        "{site}: routed {} of baseline {} (allowed loss {max_lost})",
        out.stats.routed_nets,
        baseline_routed,
    );
}

/// Which diagnostics slot a stage-level site lands in, plus the loss bound.
fn stage_slot(out: &RouteOutcome, site: FaultSite) -> Option<&StageOutcome> {
    match site {
        FaultSite::PreprocessPartition => Some(&out.diagnostics.preprocess),
        FaultSite::AssignPeel => Some(&out.diagnostics.assign),
        FaultSite::ConcurrentCommit => Some(&out.diagnostics.concurrent),
        _ => None,
    }
}

fn check_site(site: FaultSite, kind: FaultKind) {
    let pkg = two_chip_package(4);
    let cfg = config_for(site);
    let baseline = InfoRouter::new(cfg).route(&pkg);
    assert!(baseline.diagnostics.all_ok(), "{site}: baseline not clean");
    let baseline_routed = baseline.stats.routed_nets;

    let plan = match kind {
        FaultKind::Error => FaultPlan::single(site),
        FaultKind::Panic => FaultPlan::single_panic(site),
    };
    let out = route_with_plan(&pkg, cfg, plan);

    // Stage-level faults degrade to all-sequential (no nets lost); per-net
    // faults cost at most the one net whose check fired; an LP fault only
    // freezes geometry.
    let max_lost = match site {
        FaultSite::AstarExpand | FaultSite::TileViaInsert => 1,
        _ => 0,
    };
    assert_isolated(&out, site, baseline_routed, max_lost);

    match site {
        // Stage-level sites mark their stage recovered...
        FaultSite::PreprocessPartition | FaultSite::AssignPeel | FaultSite::ConcurrentCommit => {
            let slot = stage_slot(&out, site).unwrap();
            match (kind, slot) {
                (FaultKind::Error, StageOutcome::Recovered(RouterError::FaultInjected { site: s })) => {
                    assert_eq!(*s, site)
                }
                (FaultKind::Panic, StageOutcome::Recovered(RouterError::Panic { .. })) => {}
                other => panic!("{site}: unexpected stage outcome {other:?}"),
            }
        }
        // ...an LP fault surfaces on whichever LP pass ran it...
        FaultSite::LpFactorize => {
            let recovered = [&out.diagnostics.lp_mid, &out.diagnostics.lp_final]
                .into_iter()
                .any(|o| matches!(o, StageOutcome::Recovered(_)));
            assert!(recovered, "{site}: no LP pass recorded the fault");
        }
        // ...and per-net sites cost exactly one attributed net failure.
        FaultSite::AstarExpand | FaultSite::TileViaInsert => {
            assert!(
                !out.diagnostics.net_failures.is_empty(),
                "{site}: per-net fault not attributed"
            );
        }
        // Service-layer sites never fire inside `route()`; they are
        // exercised by the serve fault suite (tests/serve_faults.rs).
        FaultSite::ServeParse | FaultSite::ServeWorker | FaultSite::ServeCancel => {
            unreachable!("check_site is only called with flow sites")
        }
    }
}

#[test]
fn error_fault_at_preprocess_partition_is_isolated() {
    check_site(FaultSite::PreprocessPartition, FaultKind::Error);
}

#[test]
fn panic_fault_at_preprocess_partition_is_isolated() {
    check_site(FaultSite::PreprocessPartition, FaultKind::Panic);
}

#[test]
fn error_fault_at_assign_peel_is_isolated() {
    check_site(FaultSite::AssignPeel, FaultKind::Error);
}

#[test]
fn panic_fault_at_assign_peel_is_isolated() {
    check_site(FaultSite::AssignPeel, FaultKind::Panic);
}

#[test]
fn error_fault_at_concurrent_commit_is_isolated() {
    check_site(FaultSite::ConcurrentCommit, FaultKind::Error);
}

#[test]
fn panic_fault_at_concurrent_commit_is_isolated() {
    check_site(FaultSite::ConcurrentCommit, FaultKind::Panic);
}

#[test]
fn error_fault_at_lp_factorize_is_isolated() {
    check_site(FaultSite::LpFactorize, FaultKind::Error);
}

#[test]
fn panic_fault_at_lp_factorize_is_isolated() {
    check_site(FaultSite::LpFactorize, FaultKind::Panic);
}

#[test]
fn error_fault_at_astar_expand_is_isolated() {
    check_site(FaultSite::AstarExpand, FaultKind::Error);
}

#[test]
fn panic_fault_at_astar_expand_is_isolated() {
    check_site(FaultSite::AstarExpand, FaultKind::Panic);
}

#[test]
fn error_fault_at_tile_via_insert_is_isolated() {
    check_site(FaultSite::TileViaInsert, FaultKind::Error);
}

#[test]
fn panic_fault_at_tile_via_insert_is_isolated() {
    check_site(FaultSite::TileViaInsert, FaultKind::Panic);
}

#[test]
fn repeated_per_net_faults_cost_only_the_faulted_nets() {
    // Three consecutive A* faults cost at most three nets; the rest of the
    // flow is untouched.
    let pkg = two_chip_package(5);
    let cfg = RouterConfig::default().with_global_cells(10).without_concurrent();
    let baseline = InfoRouter::new(cfg).route(&pkg).stats.routed_nets;
    let plan = FaultPlan::none().with(FaultDirective {
        site: FaultSite::AstarExpand,
        kind: FaultKind::Error,
        skip: 1,
        fires: 3,
    });
    let out = route_with_plan(&pkg, cfg, plan);
    assert!(out.stats.routed_nets + 3 >= baseline);
    assert!(out
        .diagnostics
        .faults_fired
        .iter()
        .any(|(s, n)| *s == FaultSite::AstarExpand && *n == 3));
    for v in out.drc.violations() {
        assert!(matches!(v, drc::Violation::Disconnected { .. }));
    }
}

#[test]
fn empty_fault_plan_changes_nothing() {
    let pkg = two_chip_package(3);
    let cfg = RouterConfig::default().with_global_cells(10);
    let clean = InfoRouter::new(cfg).route(&pkg);
    let planned = route_with_plan(&pkg, cfg, FaultPlan::none());
    assert!(planned.diagnostics.all_ok());
    assert_eq!(planned.stats.routed_nets, clean.stats.routed_nets);
}

/// g5 of the golden suite (six chips, 10 nets): routed sequential-only
/// at 20 global cells, passes 1–2 leave a net to the rip-up pass, whose
/// trials both search and refute.
fn g5() -> Package {
    let mut spec = info_gen::dense_spec(3);
    spec.io_pads = 20;
    spec.nets = 10;
    spec.bump_pads = 40;
    spec.seed = 41;
    info_gen::build_dense(spec, false)
}

/// Asserts the accounting every faulted route keeps (`at` names the
/// fault): every net has exactly one status, `failed` is exactly the
/// non-routed nets, every recovered net is failed, and the only DRC
/// violations are unrouted nets.
fn assert_faulted_run_accounts_for_every_net(pkg: &Package, out: &RouteOutcome, at: &str) {
    let ids: Vec<NetId> = out.net_status.iter().map(|&(id, _)| id).collect();
    let all: Vec<NetId> = pkg.nets().iter().map(|n| n.id).collect();
    assert_eq!(ids, all, "{at}: every net needs exactly one status, in net order");
    let not_routed: BTreeSet<NetId> =
        out.net_status.iter().filter(|(_, s)| *s != NetStatus::Routed).map(|&(id, _)| id).collect();
    let failed: BTreeSet<NetId> = out.failed.iter().copied().collect();
    assert_eq!(failed.len(), out.failed.len(), "{at}: a net is failed twice: {:?}", out.failed);
    assert_eq!(failed, not_routed, "{at}: `failed` must be exactly the non-routed nets");
    for (id, e) in &out.diagnostics.net_failures {
        assert!(failed.contains(id), "{at}: recovered net {id} ({e}) is not failed");
    }
    for v in out.drc.violations() {
        assert!(
            matches!(v, drc::Violation::Disconnected { .. }),
            "{at}: non-disconnection violation {v}"
        );
    }
}

/// A fault at every `AstarExpand` check a clean run makes: one per
/// attempt in passes 1–2, per target and victim attempt inside a rip-up
/// trial, and per refuted attempt. A faulted run matches the clean run up
/// to its fault, so the fault at check `k` fires exactly when the clean
/// run makes more than `k` checks; the first run whose fault does not
/// fire ends the sweep.
#[test]
fn a_fault_at_any_search_check_keeps_every_net_accounted_for() {
    let pkg = g5();
    let cfg = RouterConfig::default().with_global_cells(20).without_concurrent();
    let clean = InfoRouter::new(cfg.with_telemetry()).route(&pkg);
    let report = clean.telemetry.as_ref().expect("telemetry on");
    let front =
        report.journal.iter().filter(|r| matches!(r.pass, Pass::First | Pass::Retry)).count();
    assert!(
        report.counter("ripup_attempts") > 0 && report.counter("ripup_refuted") > 0,
        "g5 must reach rip-up trials that refute attempts"
    );
    for kind in [FaultKind::Error, FaultKind::Panic] {
        let mut checks = 0u32;
        loop {
            let plan = FaultPlan::none().with(FaultDirective {
                site: FaultSite::AstarExpand,
                kind,
                skip: checks,
                fires: 1,
            });
            let out = route_with_plan(&pkg, cfg, plan);
            if !out.diagnostics.faults_fired.contains(&(FaultSite::AstarExpand, 1)) {
                break;
            }
            let at = format!("{kind:?} fault at check {checks}");
            assert_faulted_run_accounts_for_every_net(&pkg, &out, &at);
            checks += 1;
        }
        assert!(
            checks as usize > front,
            "{kind:?}: the sweep must reach past passes 1-2 ({checks} checks, {front} in passes 1-2)"
        );
    }
}

/// g3 of the golden suite (three chips, 8 nets) at 10 global cells: the
/// rip-up pass tries net 4 (every eviction set fails) and then net 6
/// (an eviction set sticks).
fn g3() -> Package {
    let mut spec = info_gen::dense_spec(2);
    spec.io_pads = 16;
    spec.nets = 8;
    spec.bump_pads = 48;
    spec.seed = 23;
    info_gen::build_dense(spec, false)
}

/// Faults inside a rip-up trial: the `skip` of each site is the number of
/// its checks a clean run makes in passes 1–2 (one `AstarExpand` per
/// search, one `TileViaInsert` per commit), so the fault fires at that
/// site's first check in the rip-up pass — after the trial has evicted
/// its victims and rebuilt their cells. An error rolls the trial back; a
/// panic rebuilds the space. Either way the faulted net is the only loss.
/// The `AstarExpand` fault hits net 4's first trial, and the later rip-up
/// of net 6 on the same space still commits as on the clean run; the
/// first `TileViaInsert` check of the pass is net 6's own committing
/// trial (no trial of net 4 routes its target).
#[test]
fn faults_inside_a_ripup_trial_cost_only_the_faulted_net() {
    let pkg = g3();
    let cfg = RouterConfig::default().with_global_cells(10);
    let clean = InfoRouter::new(cfg.with_telemetry()).route(&pkg);
    let journal = clean.telemetry.as_ref().expect("telemetry on").journal.clone();
    let front: Vec<_> =
        journal.iter().filter(|r| matches!(r.pass, Pass::First | Pass::Retry)).collect();
    let searches = front.len() as u32;
    let commits =
        front.iter().filter(|r| matches!(r.outcome, AttemptOutcome::Routed { .. })).count();
    let mut ripup_order: Vec<NetId> = Vec::new();
    for r in journal.iter().filter(|r| r.pass == Pass::RipUp) {
        if !ripup_order.contains(&NetId(r.net)) {
            ripup_order.push(NetId(r.net));
        }
    }
    let ripup_commits: Vec<NetId> = journal
        .iter()
        .filter(|r| r.pass == Pass::RipUp && matches!(r.outcome, AttemptOutcome::Routed { .. }))
        .map(|r| NetId(r.net))
        .collect();
    assert_eq!(ripup_order, vec![NetId(4), NetId(6)], "g3 must rip up nets 4 then 6");
    assert_eq!(ripup_commits, vec![NetId(6)], "g3's rip-up must commit net 6 only");

    for (site, skip, hit) in [
        (FaultSite::AstarExpand, searches, NetId(4)),
        (FaultSite::TileViaInsert, commits as u32, NetId(6)),
    ] {
        for kind in [FaultKind::Error, FaultKind::Panic] {
            let plan = FaultPlan::none().with(FaultDirective { site, kind, skip, fires: 1 });
            let out = route_with_plan(&pkg, cfg, plan);
            let at = format!("{kind:?} fault at {site} check {skip}");
            assert!(
                out.diagnostics.faults_fired.contains(&(site, 1)),
                "{at}: fault did not fire: {:?}",
                out.diagnostics.faults_fired
            );
            let faulted: Vec<NetId> =
                out.diagnostics.net_failures.iter().map(|&(id, _)| id).collect();
            assert_eq!(faulted, vec![hit], "{at}: the fault must cost net {hit} alone");
            for v in out.drc.violations() {
                assert!(
                    matches!(v, drc::Violation::Disconnected { .. }),
                    "{at}: non-disconnection violation {v}"
                );
            }
            assert_eq!(
                out.stats.routed_nets + out.drc.dirty_nets().len(),
                out.stats.total_nets,
                "{at}: nets unaccounted for"
            );
            assert!(
                out.stats.routed_nets + 1 >= clean.stats.routed_nets,
                "{at}: routed {} of clean {}",
                out.stats.routed_nets,
                clean.stats.routed_nets
            );
            for &id in ripup_commits.iter().filter(|&&id| id != hit) {
                assert!(
                    !out.failed.contains(&id),
                    "{at}: net {id} committed by rip-up on the clean run but not after the fault"
                );
            }
        }
    }
}

/// Net 0 runs from an I/O pad to a bump pad walled in by an obstacle ring
/// on both layers; nets 1 and 2 cross its pad-pair corridor to a second
/// chip. Net 0 fails passes 1–2, and every rip-up trial (evict net 1, net
/// 2, or both) leaves the ring standing, so the refutation probe settles
/// each trial's target attempt without a search.
fn walled_bump_package() -> Package {
    let mut b = PackageBuilder::new(
        Rect::new(Point::new(0, 0), Point::new(1_400_000, 900_000)),
        DesignRules::default(),
        2,
    );
    let c1 = b.add_chip(Rect::new(Point::new(150_000, 250_000), Point::new(500_000, 650_000)));
    let c2 = b.add_chip(Rect::new(Point::new(900_000, 250_000), Point::new(1_250_000, 650_000)));
    let io = b.add_io_pad(c1, Point::new(480_000, 400_000)).unwrap();
    let bump = b.add_bump_pad(Point::new(700_000, 300_000)).unwrap();
    b.add_net(io, bump).unwrap();
    for y in [420_000, 360_000] {
        let a = b.add_io_pad(c1, Point::new(480_000, y)).unwrap();
        let z = b.add_io_pad(c2, Point::new(920_000, y)).unwrap();
        b.add_net(a, z).unwrap();
    }
    let (lo, hi, t) = (Point::new(657_000, 257_000), Point::new(743_000, 343_000), 8_000);
    for layer in [WireLayer(0), WireLayer(1)] {
        for side in [
            Rect::new(lo, Point::new(hi.x, lo.y + t)),
            Rect::new(Point::new(lo.x, hi.y - t), hi),
            Rect::new(lo, Point::new(lo.x + t, hi.y)),
            Rect::new(Point::new(hi.x - t, lo.y), hi),
        ] {
            b.add_obstacle(layer, side).unwrap();
        }
    }
    b.build().unwrap()
}

/// A fault armed on a rip-up attempt that the refutation probe settles
/// without a search still fires — the `AstarExpand` check runs before the
/// probe — and costs only that attempt's net. A refuted target attempt
/// journals as a failed rip-up record that ran no search and
/// makes exactly one check, so each trial's check is indexed from the
/// front passes' count.
#[test]
fn faults_on_refuted_ripup_attempts_still_fire_and_cost_only_that_net() {
    let pkg = walled_bump_package();
    let cfg = RouterConfig::default().with_global_cells(10).without_concurrent();
    let clean = InfoRouter::new(cfg.with_telemetry()).route(&pkg);
    assert_eq!(clean.failed, vec![NetId(0)], "only the walled-in net may fail");
    let report = clean.telemetry.as_ref().expect("telemetry on");
    let front =
        report.journal.iter().filter(|r| matches!(r.pass, Pass::First | Pass::Retry)).count();
    let trials: Vec<_> = report.journal.iter().filter(|r| r.pass == Pass::RipUp).collect();
    assert_eq!(trials.len(), 3, "evict net 1, net 2, then both");
    for r in &trials {
        assert_eq!(r.net, 0);
        assert!(!r.searched, "every trial's target attempt must be refuted");
        assert_eq!(r.outcome, AttemptOutcome::Failed(FailureReason::Unreachable));
    }
    assert_eq!(report.counter("ripup_refuted"), 3);
    for skip in front as u32..(front + trials.len()) as u32 {
        for kind in [FaultKind::Error, FaultKind::Panic] {
            let site = FaultSite::AstarExpand;
            let plan = FaultPlan::none().with(FaultDirective { site, kind, skip, fires: 1 });
            let out = route_with_plan(&pkg, cfg, plan);
            assert_isolated(&out, site, clean.stats.routed_nets, 0);
            let faulted: Vec<NetId> =
                out.diagnostics.net_failures.iter().map(|&(id, _)| id).collect();
            assert_eq!(faulted, vec![NetId(0)], "{kind:?} fault at check {skip}: only net 0");
        }
    }
}
