//! Ingestion hardening: whatever bytes arrive on the wire, `parse_request`
//! returns `Ok` or a typed `RouterError::BadInput` — it never panics and
//! never produces any other error class. Randomized mutation tests plus a
//! gallery of deliberately adversarial inputs.

use info_rdl::geom::{Point, Rect};
use info_rdl::model::{write_package, DesignRules, PackageBuilder};
use info_rdl::router::serve::{json, parse_request, Request};
use info_rdl::router::RouterError;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn valid_netlist() -> String {
    let mut b = PackageBuilder::new(
        Rect::new(Point::new(0, 0), Point::new(600_000, 400_000)),
        DesignRules::default(),
        2,
    );
    let c = b.add_chip(Rect::new(Point::new(50_000, 50_000), Point::new(200_000, 350_000)));
    let io = b.add_io_pad(c, Point::new(180_000, 200_000)).unwrap();
    let g = b.add_bump_pad(Point::new(450_000, 200_000)).unwrap();
    b.add_net(io, g).unwrap();
    write_package(&b.build().unwrap())
}

fn valid_route_line(netlist: &str) -> String {
    json::Json::Obj(vec![
        ("op".to_string(), json::Json::Str("route".to_string())),
        ("id".to_string(), json::Json::Str("p1".to_string())),
        ("netlist".to_string(), json::Json::Str(netlist.to_string())),
        (
            "config".to_string(),
            json::Json::Obj(vec![("global_cells".to_string(), json::Json::Num(8.0))]),
        ),
    ])
    .to_string()
}

/// The single property everything funnels through: no panic, and every
/// failure is `BadInput` — not `Serve`, not `Panic`, not anything else.
fn assert_total(line: &str) {
    let got = catch_unwind(AssertUnwindSafe(|| parse_request(line)));
    match got {
        Ok(Ok(_)) => {}
        Ok(Err(RouterError::BadInput { .. })) => {}
        Ok(Err(other)) => panic!("non-BadInput error for {line:?}: {other}"),
        Err(_) => panic!("parse_request panicked on {line:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes (interpreted lossily as UTF-8) never panic the
    /// parser.
    #[test]
    fn random_bytes_never_panic(seed in 0u64..1_000_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0..400);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255) as u8).collect();
        assert_total(&String::from_utf8_lossy(&bytes));
    }

    /// Mutations of a *valid* request line — truncations, splices, and
    /// byte flips — stay total: the near-misses are where naive parsers
    /// index out of bounds.
    #[test]
    fn mutated_valid_lines_never_panic(seed in 0u64..1_000_000) {
        let netlist = valid_netlist();
        let line = valid_route_line(&netlist);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s: Vec<u8> = line.into_bytes();
        for _ in 0..rng.gen_range(1..6) {
            match rng.gen_range(0..4) {
                // Truncate anywhere (possibly mid-escape, mid-UTF-8).
                0 => s.truncate(rng.gen_range(0..=s.len())),
                // Flip one byte.
                1 if !s.is_empty() => {
                    let i = rng.gen_range(0..s.len());
                    s[i] = rng.gen_range(0..=255) as u8;
                }
                // Duplicate a random slice (creates duplicate keys).
                2 if !s.is_empty() => {
                    let a = rng.gen_range(0..s.len());
                    let b = rng.gen_range(a..s.len());
                    let slice: Vec<u8> = s[a..b].to_vec();
                    s.extend_from_slice(&slice);
                }
                // Splice in a hostile token.
                _ => {
                    let tok: &[u8] =
                        [&b"NaN"[..], b"1e999", b"\\ud800", b"\x00", b"{{{{"][rng.gen_range(0..5)];
                    let i = rng.gen_range(0..=s.len());
                    for (o, byte) in tok.iter().enumerate() {
                        s.insert(i + o, *byte);
                    }
                }
            }
        }
        assert_total(&String::from_utf8_lossy(&s));
    }
}

/// The deliberate-adversary gallery: each of these must come back as a
/// typed `BadInput`, with the parser alive to tell the tale.
#[test]
fn adversarial_inputs_get_typed_errors() {
    let cases: &[&str] = &[
        // Truncated / malformed JSON.
        "",
        "{",
        "{\"op\":\"route\",",
        "{\"op\":\"route\"}\0trailing",
        "[1,2,3",
        "{\"op\": }",
        // Non-finite and overflow numbers.
        "{\"op\":\"route\",\"id\":\"x\",\"netlist\":\"n\",\"config\":{\"global_cells\":NaN}}",
        "{\"op\":\"route\",\"id\":\"x\",\"netlist\":\"n\",\"config\":{\"global_cells\":1e999}}",
        "{\"op\":\"route\",\"id\":\"x\",\"netlist\":\"n\",\"config\":{\"global_cells\":-3}}",
        "{\"op\":\"route\",\"id\":\"x\",\"netlist\":\"n\",\"config\":{\"global_cells\":2.5}}",
        "{\"op\":\"route\",\"id\":\"x\",\"netlist\":\"n\",\"config\":{\"deadline_ms\":1e300}}",
        // Bad escapes and control characters.
        "{\"op\":\"route\",\"id\":\"\\ud800\",\"netlist\":\"n\"}",
        "{\"op\":\"route\",\"id\":\"a\u{0001}b\",\"netlist\":\"n\"}",
        // Schema violations.
        "{\"op\":42}",
        "{\"op\":\"launch_missiles\"}",
        "{\"op\":\"route\"}",
        "{\"op\":\"route\",\"id\":\"\",\"netlist\":\"n\"}",
        "{\"op\":\"route\",\"id\":\"x\"}",
        "{\"op\":\"route\",\"id\":\"x\",\"netlist\":17}",
        "{\"op\":\"route\",\"id\":\"x\",\"netlist\":\"n\",\"config\":3}",
        "{\"op\":\"cancel\"}",
        // Garbage netlists: syntax errors, absurd coordinates.
        "{\"op\":\"route\",\"id\":\"x\",\"netlist\":\"not a netlist\"}",
        "{\"op\":\"route\",\"id\":\"x\",\"netlist\":\"chip 0 0 0 0\\nnet -1 -1\"}",
    ];
    for line in cases {
        let got = catch_unwind(AssertUnwindSafe(|| parse_request(line)));
        match got {
            Ok(Err(RouterError::BadInput { reason })) => {
                assert!(!reason.is_empty(), "empty reason for {line:?}")
            }
            Ok(Ok(req)) => panic!("adversarial input accepted: {line:?} -> {req:?}"),
            Ok(Err(other)) => panic!("non-BadInput error for {line:?}: {other}"),
            Err(_) => panic!("parse_request panicked on {line:?}"),
        }
    }
    // Netlist numbers outside their field's range are rejected on their
    // own line, not wrapped into range: a layer of 257 on a 2-layer die is
    // not layer 1, net 2^32 is not net 0, and `layers -1` is not 2^64 - 1
    // layers.
    let netlist = valid_netlist();
    let line = netlist.lines().count() + 1;
    for bad in [
        "obstacle 257 0 0 10 10",
        "fixedvia 0 300000 200000 0 257",
        "fixedvia 4294967296 300000 200000 0 1",
        "layers -1",
        "layers 257",
        "layers 300",
    ] {
        let request = valid_route_line(&format!("{netlist}{bad}\n"));
        match parse_request(&request) {
            Err(RouterError::BadInput { reason }) => {
                assert!(reason.contains(&format!("line {line}:")), "{bad}: {reason}")
            }
            other => panic!("out-of-range netlist line accepted: {bad:?} -> {other:?}"),
        }
    }
    // Deep nesting is cut off by the parser's depth limit, not the stack.
    let deep = format!("{}1{}", "[".repeat(5_000), "]".repeat(5_000));
    assert_total(&deep);
    let deep_obj = format!("{}\"x\"{}", "{\"a\":".repeat(5_000), "}".repeat(5_000));
    assert_total(&deep_obj);
}

/// An id of exactly 256 characters is accepted; 257 is rejected — the
/// boundary itself is the interesting byte.
#[test]
fn id_length_boundary() {
    let netlist = valid_netlist();
    let mk = |n: usize| {
        json::Json::Obj(vec![
            ("op".to_string(), json::Json::Str("route".to_string())),
            ("id".to_string(), json::Json::Str("i".repeat(n))),
            ("netlist".to_string(), json::Json::Str(netlist.clone())),
        ])
        .to_string()
    };
    assert!(matches!(parse_request(&mk(256)), Ok(Request::Route(..))));
    assert!(matches!(parse_request(&mk(257)), Err(RouterError::BadInput { .. })));
}

/// The `config` object takes exactly its six keys: all six together are
/// accepted, and any other key is rejected by name rather than ignored —
/// a client still sending `congestion`, `threads` or `window` must not
/// silently get a different router than it asked for.
#[test]
fn config_accepts_its_six_keys_and_names_any_other() {
    let netlist = valid_netlist();
    let mk = |config: &str| {
        format!(
            "{{\"op\":\"route\",\"id\":\"c1\",\"netlist\":{},\"config\":{config}}}",
            json::Json::Str(netlist.clone())
        )
    };
    let all = mk(
        "{\"global_cells\":8,\"lp\":false,\"concurrent\":true,\
         \"stage_budget_ms\":60000,\"deadline_ms\":120000,\"net_status\":true}",
    );
    match parse_request(&all) {
        Ok(Request::Route(job, net_status)) => {
            assert!(net_status);
            assert_eq!(job.cfg.global_cells, 8);
            assert!(!job.cfg.lp_enabled);
            assert_eq!(
                job.deadline,
                Some(std::time::Duration::from_millis(120_000))
            );
        }
        other => panic!("all six config keys must be accepted: {other:?}"),
    }
    for (config, key) in [
        ("{\"global_cells\":8,\"congestion\":true}", "'congestion'"),
        ("{\"threads\":2}", "'threads'"),
        ("{\"window\":true}", "'window'"),
    ] {
        match parse_request(&mk(config)) {
            Err(RouterError::BadInput { reason }) => assert_eq!(
                reason,
                format!("unknown config key {key}"),
                "reason must name the key"
            ),
            other => panic!("unknown config key in {config} must be rejected: {other:?}"),
        }
    }
}

#[test]
fn changes_accept_their_three_keys_and_name_any_other() {
    let netlist = valid_netlist();
    let mk = |changes: &str| {
        format!(
            "{{\"op\":\"eco\",\"id\":\"e1\",\"netlist\":{},\"changes\":{changes}}}",
            json::Json::Str(netlist.clone())
        )
    };
    match parse_request(&mk("{\"remove\":[0],\"add\":[[0,1]],\"re_pair\":[[0,0,1]]}")) {
        Ok(Request::Route(job, _)) => {
            let changes = job.changes.expect("an eco request carries its change set");
            assert!(!changes.is_empty());
        }
        other => panic!("all three changes keys must be accepted: {other:?}"),
    }
    // A misspelled key must not come back as a successful empty ECO.
    for (changes, key) in [
        ("{\"removes\":[0]}", "'removes'"),
        ("{\"remove\":[0],\"repair\":[[0,0,1]]}", "'repair'"),
        ("{\"\":[]}", "''"),
    ] {
        match parse_request(&mk(changes)) {
            Err(RouterError::BadInput { reason }) => {
                assert!(reason.contains(key), "reason must name {key}: {reason}")
            }
            other => panic!("unknown changes key in {changes} must be rejected: {other:?}"),
        }
    }
}
