//! Serve-path byte-identity: jobs routed through the concurrent
//! [`JobServer`] must produce layouts byte-identical (canonical hash) to
//! the same configuration run through [`InfoRouter::route`] directly —
//! warm-cache reuse, worker scheduling, and result interleaving are all
//! observational.

use info_rdl::generators::{build_dense, dense_spec};
use info_rdl::model::Package;
use info_rdl::router::serve::{json, JobRequest, JobServer, Request, ServeConfig};
use info_rdl::router::Completion;
use info_rdl::{InfoRouter, RouterConfig};
use std::sync::Arc;
use std::time::Duration;

/// A scaled-down dense1 (debug builds route it in seconds; the release
/// loadtest bin exercises the full-size dense1 through the same path).
fn small_dense1() -> Package {
    let mut spec = dense_spec(1);
    spec.io_pads = 16;
    spec.nets = 8;
    spec.bump_pads = 40;
    spec.seed = 11;
    build_dense(spec, false)
}

/// Eight concurrent dense1-family jobs on a four-worker pool all
/// hash-match the single-job direct route, and the shared warm cache
/// sees reuse.
#[test]
fn eight_concurrent_dense1_jobs_match_direct_route() {
    let pkg = Arc::new(small_dense1());
    let rcfg = RouterConfig::default().with_global_cells(12);
    let direct = InfoRouter::new(rcfg).route(&pkg);
    let want = direct.layout.canonical_hash();

    let scfg = ServeConfig { workers: 4, ..ServeConfig::default() };
    let (server, results) = JobServer::start(scfg);
    for i in 0..8 {
        server
            .submit(JobRequest {
                id: format!("job-{i}"),
                package: Arc::clone(&pkg),
                cfg: rcfg,
                deadline: None,
                changes: None,
            })
            .expect("queue holds 8 jobs");
    }
    for _ in 0..8 {
        let r = results
            .recv_timeout(Duration::from_secs(600))
            .expect("every job completes");
        let out = r.outcome.unwrap_or_else(|e| panic!("{}: job failed: {e}", r.id));
        assert!(!r.retried, "{}: clean jobs never retry", r.id);
        assert_eq!(out.completion, Completion::Full, "{}: full answer expected", r.id);
        assert_eq!(
            out.layout.canonical_hash(),
            want,
            "{}: serve layout differs from direct route",
            r.id
        );
        assert_eq!(out.failed, direct.failed, "{}: failed-net sets differ", r.id);
    }
    let (hits, misses) = server.warm_cache().stats();
    assert!(hits >= 1, "8 identical jobs must reuse the warm space (hits={hits})");
    assert!(misses >= 1, "the first job must build cold (misses={misses})");
    assert_eq!(hits + misses, 8, "every job consults the cache exactly once");
    server.shutdown();
}

/// The wire path end to end: the same job encoded as a JSON line through
/// `serve_lines` reports the direct route's hash.
#[test]
fn serve_lines_reports_the_direct_hash() {
    let pkg = small_dense1();
    let rcfg = RouterConfig::default().with_global_cells(12);
    let want = format!("{:016x}", InfoRouter::new(rcfg).route(&pkg).layout.canonical_hash());

    let netlist = info_rdl::model::write_package(&pkg);
    let line = json::Json::Obj(vec![
        ("op".to_string(), json::Json::Str("route".to_string())),
        ("id".to_string(), json::Json::Str("wire-1".to_string())),
        ("netlist".to_string(), json::Json::Str(netlist)),
        (
            "config".to_string(),
            json::Json::Obj(vec![("global_cells".to_string(), json::Json::Num(12.0))]),
        ),
    ])
    .to_string();

    // Sanity: the request round-trips through the parser as a Route op.
    match info_rdl::router::serve::parse_request(&line) {
        Ok(Request::Route(req, _)) => assert_eq!(req.id, "wire-1"),
        other => panic!("expected a route request, got {other:?}"),
    }

    let input = format!("{line}\n{{\"op\":\"shutdown\"}}\n");
    let mut out = Vec::new();
    info_rdl::router::serve::serve_lines(input.as_bytes(), &mut out, ServeConfig::default())
        .expect("serve runs");
    let text = String::from_utf8(out).expect("utf8 responses");
    let resp = json::parse(text.lines().next().expect("one response")).expect("valid json");
    assert_eq!(resp.get("id").and_then(json::Json::as_str), Some("wire-1"));
    assert_eq!(resp.get("status").and_then(json::Json::as_str), Some("done"));
    assert_eq!(resp.get("hash").and_then(json::Json::as_str), Some(want.as_str()));
}

/// The `"eco"` op over the wire: the response hash matches a direct
/// `reroute_delta` against the full route of the same netlist, and the
/// response carries the ECO ledger. Works from a cold priors cache (the
/// server full-routes the base on the spot), so a lone eco job is valid.
#[test]
fn serve_lines_eco_matches_direct_reroute_delta() {
    use info_rdl::EcoChangeSet;
    let pkg = small_dense1();
    let rcfg = RouterConfig::default().with_global_cells(12);
    let router = InfoRouter::new(rcfg);
    let prior = router.route(&pkg);
    let changes = EcoChangeSet::new().remove_net(pkg.nets()[0].id);
    let direct = router.reroute_delta(&pkg, &prior, &changes).expect("valid deletion");
    let want = format!("{:016x}", direct.layout.canonical_hash());

    let netlist = info_rdl::model::write_package(&pkg);
    let line = json::Json::Obj(vec![
        ("op".to_string(), json::Json::Str("eco".to_string())),
        ("id".to_string(), json::Json::Str("eco-1".to_string())),
        ("netlist".to_string(), json::Json::Str(netlist)),
        (
            "changes".to_string(),
            json::Json::Obj(vec![(
                "remove".to_string(),
                json::Json::Arr(vec![json::Json::Num(0.0)]),
            )]),
        ),
        (
            "config".to_string(),
            json::Json::Obj(vec![("global_cells".to_string(), json::Json::Num(12.0))]),
        ),
    ])
    .to_string();

    let input = format!("{line}\n{{\"op\":\"shutdown\"}}\n");
    let mut out = Vec::new();
    info_rdl::router::serve::serve_lines(input.as_bytes(), &mut out, ServeConfig::default())
        .expect("serve runs");
    let text = String::from_utf8(out).expect("utf8 responses");
    let resp = json::parse(text.lines().next().expect("one response")).expect("valid json");
    assert_eq!(resp.get("id").and_then(json::Json::as_str), Some("eco-1"));
    assert_eq!(resp.get("status").and_then(json::Json::as_str), Some("done"));
    assert_eq!(resp.get("hash").and_then(json::Json::as_str), Some(want.as_str()));
    let eco = resp.get("eco").expect("eco responses carry the EcoStats ledger");
    assert!(eco.get("nets_reused").is_some(), "ledger lists reused nets: {eco}");
    let reverted = direct.eco.as_ref().expect("an ECO outcome carries EcoStats").lp_reverted;
    assert_eq!(eco.get("lp_reverted"), Some(&json::Json::Bool(reverted)), "{eco}");
}
