//! Deterministic fault-injection suite: under any single injected fault —
//! error-return or panic, at every [`FaultSite`] — `route()` must return
//! normally with a DRC-clean (possibly partial) layout, record the fault in
//! [`FlowDiagnostics`], and lose at most the nets the fault touched.

use info_geom::{Point, Rect};
use info_model::{drc, DesignRules, Package, PackageBuilder};
use info_router::{
    FaultDirective, FaultKind, FaultPlan, FaultSite, InfoRouter, RouteOutcome, RouterConfig,
    RouterError, StageOutcome,
};
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
