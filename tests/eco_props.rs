//! Property tests of the incremental ECO engine (DESIGN.md §4i):
//! random add/remove/re-pair sequences stay DRC-legal, a warm space cache
//! never changes an ECO's layout, change-set application is insensitive
//! to the order edits were recorded in, and the empty change set is a
//! byte-identical no-op.
//!
//! No proptest dependency in this workspace — cases are generated from a
//! seeded LCG, so every run explores the same inputs and failures
//! reproduce by seed.

use info_rdl::model::{drc, NetId, Package, PadId};
use info_rdl::{EcoChangeSet, InfoRouter, NetStatus, RouteOutcome, RouterConfig, WarmSpaceCache};
use std::collections::BTreeSet;
use std::sync::Arc;

mod circuits;

fn cfg() -> RouterConfig {
    RouterConfig::default().with_global_cells(14)
}

/// Geometrically legal: no violation beyond `Disconnected` reports on
/// nets the outcome itself declares unrouted.
fn assert_geom_clean(out: &RouteOutcome, what: &str) {
    let unrouted: BTreeSet<usize> = out
        .net_status
        .iter()
        .filter(|(_, st)| *st != NetStatus::Routed)
        .map(|(id, _)| id.index())
        .collect();
    for v in out.drc.violations() {
        assert!(
            matches!(v, drc::Violation::Disconnected { net } if unrouted.contains(&net.index())),
            "{what}: ECO layout must stay DRC-legal: {v}"
        );
    }
}

/// Tiny deterministic PRNG (PCG-ish LCG) — keeps cases reproducible
/// without pulling in a crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Pads not terminating any (kept) net, split io/bump.
fn free_pads(pkg: &Package, removed: &BTreeSet<usize>) -> (Vec<usize>, Vec<usize>) {
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for (i, n) in pkg.nets().iter().enumerate() {
        if !removed.contains(&i) {
            used.insert(n.a.index());
            used.insert(n.b.index());
        }
    }
    let (mut io, mut bump) = (Vec::new(), Vec::new());
    for (i, p) in pkg.pads().iter().enumerate() {
        if !used.contains(&i) {
            if p.is_io() {
                io.push(i);
            } else {
                bump.push(i);
            }
        }
    }
    (io, bump)
}

/// A random valid change set: up to two removals, up to one re-pair, up
/// to two additions, on disjoint nets and free pads.
fn random_changes(pkg: &Package, rng: &mut Lcg) -> EcoChangeSet {
    let nets = pkg.nets().len();
    let mut removed: BTreeSet<usize> = BTreeSet::new();
    let mut changes = EcoChangeSet::new();
    for _ in 0..rng.below(3) {
        let i = rng.below(nets);
        if removed.insert(i) {
            changes = changes.remove_net(NetId::from_index(i));
        }
    }
    let (mut io, mut bump) = free_pads(pkg, &removed);
    if rng.below(2) == 1 && !io.is_empty() && !bump.is_empty() {
        let i = rng.below(nets);
        if !removed.contains(&i) {
            removed.insert(i);
            let a = io.swap_remove(rng.below(io.len()));
            let b = bump.swap_remove(rng.below(bump.len()));
            changes = changes.re_pair(
                NetId::from_index(i),
                PadId::from_index(a),
                PadId::from_index(b),
            );
        }
    }
    for _ in 0..rng.below(3) {
        if io.is_empty() || bump.is_empty() {
            break;
        }
        let a = io.swap_remove(rng.below(io.len()));
        let b = bump.swap_remove(rng.below(bump.len()));
        changes = changes.add_net(PadId::from_index(a), PadId::from_index(b));
    }
    changes
}

/// An empty change set is a byte-identical no-op: same canonical hash,
/// zero nets re-routed, every net reused.
#[test]
fn empty_change_set_is_byte_identical() {
    let (_, pkg) = circuits::golden(0);
    let router = InfoRouter::new(cfg());
    let prior = router.route(&pkg);
    let out = router
        .reroute_delta(&pkg, &prior, &EcoChangeSet::new())
        .expect("empty change set is valid");
    assert_eq!(
        out.layout.canonical_hash(),
        prior.layout.canonical_hash(),
        "empty ECO must reproduce the prior layout byte for byte"
    );
    let stats = out.eco.as_ref().expect("EcoStats");
    assert_eq!(stats.nets_rerouted, 0, "empty ECO must re-route nothing");
    assert_eq!(stats.nets_reused, pkg.nets().len());
    assert_eq!(out.net_status, prior.net_status);
}

/// Random single-step edits on two golden circuits: the ECO layout is
/// always DRC-legal and its bookkeeping adds up.
#[test]
fn random_edits_stay_drc_legal() {
    for (circuit, seeds) in [(0usize, 0u64..6), (2usize, 6u64..10)] {
        let (name, pkg) = circuits::golden(circuit);
        let router = InfoRouter::new(cfg());
        let prior = router.route(&pkg);
        for seed in seeds {
            let mut rng = Lcg(0x9e3779b97f4a7c15 ^ seed.wrapping_mul(0xdeadbeef));
            let changes = random_changes(&pkg, &mut rng);
            let plan = changes.plan(&pkg).expect("generated change sets are valid");
            let out = router
                .reroute_delta(&pkg, &prior, &changes)
                .unwrap_or_else(|e| panic!("{name}/seed{seed}: {e:?}"));
            assert_geom_clean(&out, &format!("{name}/seed{seed}"));
            assert_eq!(
                out.net_status.len(),
                plan.package.nets().len(),
                "{name}/seed{seed}: one status per net of the edited design"
            );
            let stats = out.eco.as_ref().expect("EcoStats");
            assert_eq!(stats.nets_removed, changes.removals().len());
            assert_eq!(stats.nets_added, changes.additions().len());
            assert_eq!(stats.nets_re_paired, changes.re_pairs().len());
            assert_eq!(
                stats.nets_rerouted + stats.nets_reused,
                plan.package.nets().len(),
                "{name}/seed{seed}: every net is either re-routed or reused"
            );
        }
    }
}

/// Random multi-step sequences: each step's edited design becomes the
/// next step's base, staying DRC-legal throughout.
#[test]
fn random_edit_sequences_chain_legally() {
    let (name, pkg) = circuits::golden(0);
    let router = InfoRouter::new(cfg());
    for seed in 0..3u64 {
        let mut rng = Lcg(0xc0ffee ^ seed.wrapping_mul(0x1234567));
        let mut cur_pkg = pkg.clone();
        let mut cur_out = router.route(&cur_pkg);
        for step in 0..3 {
            let changes = random_changes(&cur_pkg, &mut rng);
            let plan = changes.plan(&cur_pkg).expect("valid change set");
            let out = router
                .reroute_delta(&cur_pkg, &cur_out, &changes)
                .unwrap_or_else(|e| panic!("{name}/seed{seed}/step{step}: {e:?}"));
            assert_geom_clean(&out, &format!("{name}/seed{seed}/step{step}"));
            cur_pkg = plan.package;
            cur_out = out;
        }
    }
}

/// The warm cache only saves time: along the random edit sequences
/// above, and for repeated single edits against one prior (which hit
/// the cached prior space), an ECO with a shared warm cache returns the
/// canonical hash and net statuses of the same ECO without one.
#[test]
fn warm_cache_never_changes_an_eco() {
    let (name, pkg) = circuits::golden(0);
    let cold = InfoRouter::new(cfg());
    let cache = Arc::new(WarmSpaceCache::new(4));
    let warm = InfoRouter::new(cfg()).with_warm_cache(Arc::clone(&cache));
    let check = |base: &Package, prior: &RouteOutcome, changes: &EcoChangeSet, what: &str| {
        let want = cold.reroute_delta(base, prior, changes).expect(what);
        let got = warm.reroute_delta(base, prior, changes).expect(what);
        assert_eq!(
            got.layout.canonical_hash(),
            want.layout.canonical_hash(),
            "{what}: the warm cache changed the ECO layout ({changes:?})"
        );
        assert_eq!(got.net_status, want.net_status, "{what}");
        want
    };
    for seed in 0..3u64 {
        let mut rng = Lcg(0xc0ffee ^ seed.wrapping_mul(0x1234567));
        let mut cur_pkg = pkg.clone();
        let mut cur_out = cold.route(&cur_pkg);
        for step in 0..3 {
            let changes = random_changes(&cur_pkg, &mut rng);
            let plan = changes.plan(&cur_pkg).expect("valid change set");
            let what = format!("{name}/seed{seed}/step{step}");
            cur_out = check(&cur_pkg, &cur_out, &changes, &what);
            cur_pkg = plan.package;
        }
    }
    let prior = cold.route(&pkg);
    for seed in 0..6u64 {
        let mut rng = Lcg(0x9e3779b97f4a7c15 ^ seed.wrapping_mul(0xdeadbeef));
        let changes = random_changes(&pkg, &mut rng);
        check(&pkg, &prior, &changes, &format!("{name}/single{seed}"));
    }
    let (hits, misses) = cache.stats();
    assert!(hits > 0 && misses > 0, "warm cache never exercised: {hits} hits, {misses} misses");
}

/// Recording order does not matter: the same disjoint edits recorded in
/// two different orders produce byte-identical layouts.
#[test]
fn application_is_order_insensitive_for_disjoint_edits() {
    let (name, pkg) = circuits::golden(0);
    let router = InfoRouter::new(cfg());
    let prior = router.route(&pkg);
    // Goldens use every io pad (nets = io/2, io-io pairing), so the added
    // net pairs an io pad freed by one of the removals with a spare bump
    // pad — valid because plan() applies removals and additions as one
    // canonical set, not sequentially.
    let (n1, n2) = (NetId::from_index(1), NetId::from_index(3));
    let (_, bump) = free_pads(&pkg, &BTreeSet::from([n1.index(), n2.index()]));
    assert!(!bump.is_empty(), "golden circuits have spare bump pads");
    let (a, b) = (pkg.nets()[n1.index()].a, PadId::from_index(bump[0]));

    let forward = EcoChangeSet::new()
        .remove_net(n1)
        .add_net(a, b)
        .remove_net(n2);
    let reversed = EcoChangeSet::new()
        .remove_net(n2)
        .add_net(a, b)
        .remove_net(n1);
    let out_f = router
        .reroute_delta(&pkg, &prior, &forward)
        .expect("forward");
    let out_r = router
        .reroute_delta(&pkg, &prior, &reversed)
        .expect("reversed");
    assert_eq!(
        out_f.layout.canonical_hash(),
        out_r.layout.canonical_hash(),
        "{name}: edit recording order changed the layout"
    );
    assert_eq!(out_f.net_status, out_r.net_status);
    assert_eq!(out_f.eco, out_r.eco);
}

/// Invalid change sets are typed rejections, not panics: unknown ids,
/// double edits, and pad conflicts all come back as `BadInput`.
#[test]
fn invalid_change_sets_are_rejected() {
    use info_rdl::router::RouterError;
    let (_, pkg) = circuits::golden(0);
    let router = InfoRouter::new(cfg());
    let prior = router.route(&pkg);
    let nets = pkg.nets().len();
    // Every io pad is in use on the goldens; spare pads are all bumps.
    let (_, bump) = free_pads(&pkg, &BTreeSet::new());
    assert!(!bump.is_empty(), "golden circuits have spare bump pads");
    let bad_cases: Vec<(&str, EcoChangeSet)> = vec![
        (
            "unknown net",
            EcoChangeSet::new().remove_net(NetId::from_index(nets + 7)),
        ),
        (
            "double removal",
            EcoChangeSet::new()
                .remove_net(NetId::from_index(0))
                .remove_net(NetId::from_index(0)),
        ),
        (
            "removed and re-paired",
            EcoChangeSet::new()
                .remove_net(NetId::from_index(0))
                .re_pair(
                    NetId::from_index(0),
                    pkg.nets()[0].a,
                    PadId::from_index(bump[0]),
                ),
        ),
        (
            "pad already in use",
            EcoChangeSet::new().add_net(pkg.nets()[0].a, PadId::from_index(bump[0])),
        ),
        (
            "self loop",
            EcoChangeSet::new().add_net(PadId::from_index(bump[0]), PadId::from_index(bump[0])),
        ),
    ];
    for (what, changes) in bad_cases {
        match router.reroute_delta(&pkg, &prior, &changes) {
            Err(RouterError::BadInput { .. }) => {}
            other => panic!("{what}: expected BadInput, got {other:?}"),
        }
    }
}
