//! Bounded-termination guarantees of fine-grained cancellation: a cancel
//! (or deadline) observed mid-sequential-search stops the flow within a
//! bounded number of A* expansions — not at the next stage boundary —
//! and still returns a legal, fully-accounted partial layout.

use info_rdl::generators::dense;
use info_rdl::model::drc;
use info_rdl::router::{Completion, NetStatus};
use info_rdl::tile::cancel::CHECK_INTERVAL;
use info_rdl::tile::CancelToken;
use info_rdl::{InfoRouter, RouteOutcome, RouterConfig};
use std::time::{Duration, Instant};

/// Sequential-only config: every expansion goes through one token, so
/// the deterministic trip bound is exact.
fn seq_only() -> RouterConfig {
    RouterConfig::default().without_concurrent().without_lp()
}

/// Shared invariants of any interrupted run: legal layout, every net
/// accounted for, degraded completion.
fn assert_legal_partial(out: &RouteOutcome, total_nets: usize) {
    assert_eq!(out.completion, Completion::Degraded);
    assert_eq!(out.net_status.len(), total_nets, "per-net status covers every net");
    for v in out.drc.violations() {
        assert!(
            matches!(v, drc::Violation::Disconnected { .. }),
            "interrupted layout must stay legal: {v}"
        );
    }
    // Status counts agree with the outcome's own bookkeeping.
    let routed = out.net_status.iter().filter(|(_, s)| *s == NetStatus::Routed).count();
    assert_eq!(routed, out.stats.routed_nets, "net_status vs stats disagree on routed");
}

/// A token tripped after `k` checkpoints stops the dense2 sequential
/// search within `(k + 2) * CHECK_INTERVAL` expansions — the flow never
/// runs to a stage boundary before noticing.
#[test]
fn mid_search_cancel_terminates_within_the_checkpoint_bound() {
    let pkg = dense(2);
    let token = CancelToken::new();
    let k = 4u64;
    token.trip_after_checks(k);
    let out = InfoRouter::new(seq_only()).with_cancel_token(token.clone()).route(&pkg);

    assert!(token.is_cancelled(), "the trip must have fired");
    assert!(out.cancelled, "outcome records the cancellation");
    assert_legal_partial(&out, pkg.nets().len());
    assert!(
        out.timings.search.nodes_expanded <= (k + 2) * CHECK_INTERVAL,
        "cancel was not observed mid-search: {} expansions for a trip at check {k} \
         (interval {CHECK_INTERVAL})",
        out.timings.search.nodes_expanded,
    );
    // dense2 has 46 nets; a trip after ~4 checkpoints leaves most of the
    // work untouched, and that work is reported as skipped, not failed.
    assert!(
        out.net_status.iter().any(|(_, s)| *s == NetStatus::Skipped),
        "an early cancel must leave skipped nets: {:?}",
        out.net_status
    );
}

/// An immediate trip (first checkpoint) degenerates to a near-empty run:
/// a handful of expansions, everything skipped or failed, still legal.
#[test]
fn first_checkpoint_trip_is_nearly_free() {
    let pkg = dense(2);
    let token = CancelToken::new();
    token.trip_after_checks(1);
    let out = InfoRouter::new(seq_only()).with_cancel_token(token).route(&pkg);
    assert!(out.cancelled);
    assert_legal_partial(&out, pkg.nets().len());
    assert!(
        out.timings.search.nodes_expanded <= 3 * CHECK_INTERVAL,
        "{} expansions after a first-checkpoint trip",
        out.timings.search.nodes_expanded
    );
    assert_eq!(out.stats.routed_nets, 0, "nothing can commit after an immediate trip");
}

/// A token cancelled before `route()` even starts yields a degraded
/// all-skipped answer without touching the search.
#[test]
fn pre_cancelled_token_skips_everything() {
    let pkg = dense(2);
    let token = CancelToken::new();
    token.cancel();
    let out = InfoRouter::new(seq_only()).with_cancel_token(token).route(&pkg);
    assert!(out.cancelled);
    assert_legal_partial(&out, pkg.nets().len());
    assert_eq!(out.stats.routed_nets, 0);
    assert_eq!(out.timings.search.nodes_expanded, 0, "no search runs on a dead token");
}

/// A tiny wall-clock job deadline is observed mid-flow (deadline, not
/// cancel: `cancelled` stays false) and the run ends promptly with a
/// degraded answer instead of running dense2 to completion.
#[test]
fn job_deadline_is_observed_mid_search() {
    let pkg = dense(2);
    let token = CancelToken::new();
    token.arm_job_deadline(Some(Duration::from_millis(5)));
    let t0 = Instant::now();
    let out = InfoRouter::new(seq_only()).with_cancel_token(token).route(&pkg);
    let elapsed = t0.elapsed();

    assert!(!out.cancelled, "a deadline truncation is not a cancellation");
    assert_legal_partial(&out, pkg.nets().len());
    assert!(
        out.net_status.iter().any(|(_, s)| *s != NetStatus::Routed),
        "a 5 ms budget cannot route all of dense2"
    );
    // Generous bound: the point is "seconds, not the full run", robust to
    // slow debug builds and loaded CI machines.
    assert!(
        elapsed < Duration::from_secs(60),
        "deadline-bounded run took {elapsed:?}"
    );
}
