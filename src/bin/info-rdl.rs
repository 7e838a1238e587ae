//! `info-rdl` — command-line front end for the router.
//!
//! Three subcommands:
//!
//! - `info-rdl route <netlist> [options]` — route one circuit and print a
//!   one-line JSON summary (layout hash, routability, per-net counts).
//!   The single-job reference path the serve smoke test compares against.
//! - `info-rdl eco <netlist> [edits] [options]` — full-route the base
//!   circuit, apply the requested net edits as an incremental delta
//!   re-route (`InfoRouter::reroute_delta`), and print both summaries
//!   plus the ECO telemetry.
//! - `info-rdl serve [options]` — run the JSON-lines job server on
//!   stdin/stdout, or on a unix socket with `--socket PATH`.
//!
//! The JSON job schema is documented in `README.md`.

use info_router::serve::{self, json::Json, ServeConfig};
use info_router::{CancelToken, Completion, EcoChangeSet, InfoRouter, RouteOutcome, RouterConfig};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         info-rdl route <netlist-file> [--global-cells N] [--threads N]\n                 \
         [--no-lp] [--no-concurrent] [--deadline-ms N] [--net-status]\n  \
         info-rdl eco <netlist-file> [--remove NET]... [--add PADA:PADB]...\n                 \
         [--re-pair NET:PADA:PADB]... [route options]\n  \
         info-rdl serve [--socket PATH] [--workers N] [--queue N] [--warm N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("route") => cmd_route(&args[1..]),
        Some("eco") => cmd_eco(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => usage(),
    }
}

/// Parses `--flag N` style options; returns None (after printing) on a
/// malformed value so callers can exit with a usage error.
fn parse_num(flag: &str, value: Option<&String>) -> Option<u64> {
    match value.and_then(|v| v.parse::<u64>().ok()) {
        Some(n) => Some(n),
        None => {
            eprintln!("error: {flag} requires a non-negative integer value");
            None
        }
    }
}

fn cmd_route(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut cfg = RouterConfig::default();
    let mut deadline = None;
    let mut net_status = false;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--global-cells" => match parse_num(a, it.next()) {
                Some(n) => cfg.global_cells = (n as usize).max(1),
                None => return usage(),
            },
            "--threads" => match parse_num(a, it.next()) {
                Some(n) => cfg.threads = (n as usize).max(1),
                None => return usage(),
            },
            "--deadline-ms" => match parse_num(a, it.next()) {
                Some(n) => deadline = Some(Duration::from_millis(n)),
                None => return usage(),
            },
            "--no-lp" => cfg.lp_enabled = false,
            "--no-concurrent" => cfg.concurrent_enabled = false,
            "--net-status" => net_status = true,
            _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
            other => {
                eprintln!("error: unknown argument '{other}'");
                return usage();
            }
        }
    }
    let Some(file) = file else {
        return usage();
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let package = match info_model::parse_package(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: netlist: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut router = InfoRouter::new(cfg);
    if let Some(d) = deadline {
        let token = CancelToken::new();
        token.arm_job_deadline(Some(d));
        router = router.with_cancel_token(token);
    }
    let out = router.route(&package);

    let mut members = vec![
        (
            "status".to_string(),
            Json::Str(
                match (out.cancelled, out.completion) {
                    (true, _) => "cancelled",
                    (false, Completion::Degraded) => "degraded",
                    (false, Completion::Full) => "done",
                }
                .to_string(),
            ),
        ),
        ("hash".to_string(), Json::Str(format!("{:016x}", out.layout.canonical_hash()))),
        ("routability_pct".to_string(), Json::Num(out.stats.routability_pct)),
        ("routed".to_string(), Json::Num(out.stats.routed_nets as f64)),
        ("failed".to_string(), Json::Num(out.failed.len() as f64)),
        ("runtime_s".to_string(), Json::Num(out.timings.total().as_secs_f64())),
    ];
    if net_status {
        let nets = out
            .net_status
            .iter()
            .map(|(id, st)| {
                Json::Obj(vec![
                    ("net".to_string(), Json::Num(id.0 as f64)),
                    ("status".to_string(), Json::Str(st.as_str().to_string())),
                ])
            })
            .collect();
        members.push(("nets".to_string(), Json::Arr(nets)));
    }
    println!("{}", Json::Obj(members));
    ExitCode::SUCCESS
}

/// One-line JSON summary members shared by `route` and `eco` output.
fn summary_members(out: &RouteOutcome) -> Vec<(String, Json)> {
    vec![
        (
            "status".to_string(),
            Json::Str(
                match (out.cancelled, out.completion) {
                    (true, _) => "cancelled",
                    (false, Completion::Degraded) => "degraded",
                    (false, Completion::Full) => "done",
                }
                .to_string(),
            ),
        ),
        ("hash".to_string(), Json::Str(format!("{:016x}", out.layout.canonical_hash()))),
        ("routability_pct".to_string(), Json::Num(out.stats.routability_pct)),
        ("routed".to_string(), Json::Num(out.stats.routed_nets as f64)),
        ("failed".to_string(), Json::Num(out.failed.len() as f64)),
        ("runtime_s".to_string(), Json::Num(out.timings.total().as_secs_f64())),
    ]
}

/// Splits `value` on ':' into exactly `arity` indices.
fn parse_indices(flag: &str, value: Option<&String>, arity: usize) -> Option<Vec<usize>> {
    let parts: Option<Vec<usize>> =
        value.map(|v| v.split(':').map(|p| p.parse::<usize>().ok()).collect())?;
    match parts {
        Some(p) if p.len() == arity => Some(p),
        _ => {
            eprintln!("error: {flag} requires {arity} ':'-separated non-negative integers");
            None
        }
    }
}

fn cmd_eco(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut cfg = RouterConfig::default();
    let mut changes = EcoChangeSet::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--remove" => match parse_num(a, it.next()) {
                Some(n) => changes = changes.remove_net(info_model::NetId::from_index(n as usize)),
                None => return usage(),
            },
            "--add" => match parse_indices(a, it.next(), 2) {
                Some(p) => {
                    changes = changes.add_net(
                        info_model::PadId::from_index(p[0]),
                        info_model::PadId::from_index(p[1]),
                    )
                }
                None => return usage(),
            },
            "--re-pair" => match parse_indices(a, it.next(), 3) {
                Some(p) => {
                    changes = changes.re_pair(
                        info_model::NetId::from_index(p[0]),
                        info_model::PadId::from_index(p[1]),
                        info_model::PadId::from_index(p[2]),
                    )
                }
                None => return usage(),
            },
            "--global-cells" => match parse_num(a, it.next()) {
                Some(n) => cfg.global_cells = (n as usize).max(1),
                None => return usage(),
            },
            "--threads" => match parse_num(a, it.next()) {
                Some(n) => cfg.threads = (n as usize).max(1),
                None => return usage(),
            },
            "--no-lp" => cfg.lp_enabled = false,
            "--no-concurrent" => cfg.concurrent_enabled = false,
            _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
            other => {
                eprintln!("error: unknown argument '{other}'");
                return usage();
            }
        }
    }
    let Some(file) = file else {
        return usage();
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let package = match info_model::parse_package(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: netlist: {e}");
            return ExitCode::FAILURE;
        }
    };
    let router = InfoRouter::new(cfg);
    let prior = router.route(&package);
    let out = match router.reroute_delta(&package, &prior, &changes) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: eco: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut eco_members = summary_members(&out);
    if let Some(s) = &out.eco {
        eco_members.push((
            "eco".to_string(),
            Json::Obj(vec![
                ("nets_rerouted".to_string(), Json::Num(s.nets_rerouted as f64)),
                ("nets_reused".to_string(), Json::Num(s.nets_reused as f64)),
                ("dirty_rects".to_string(), Json::Num(s.dirty_rects as f64)),
                ("cells_invalidated".to_string(), Json::Num(s.cells_invalidated as f64)),
                ("space_warm_hit".to_string(), Json::Bool(s.space_warm_hit)),
                ("lp_dirty_nets".to_string(), Json::Num(s.lp_dirty_nets as f64)),
            ]),
        ));
    }
    println!(
        "{}",
        Json::Obj(vec![
            ("base".to_string(), Json::Obj(summary_members(&prior))),
            ("eco".to_string(), Json::Obj(eco_members)),
        ])
    );
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut cfg = ServeConfig::default();
    let mut socket = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(p) => socket = Some(std::path::PathBuf::from(p)),
                None => return usage(),
            },
            "--workers" => match parse_num(a, it.next()) {
                Some(n) => cfg.workers = (n as usize).max(1),
                None => return usage(),
            },
            "--queue" => match parse_num(a, it.next()) {
                Some(n) => cfg.queue_capacity = (n as usize).max(1),
                None => return usage(),
            },
            "--warm" => match parse_num(a, it.next()) {
                Some(n) => cfg.warm_capacity = (n as usize).max(1),
                None => return usage(),
            },
            other => {
                eprintln!("error: unknown argument '{other}'");
                return usage();
            }
        }
    }
    let result = match socket {
        Some(path) => serve::serve_unix(&path, cfg),
        None => {
            // Stdout (unlike StdoutLock) is Send, which serve_lines needs
            // for its response-drain thread.
            let stdin = std::io::stdin().lock();
            serve::serve_lines(stdin, std::io::stdout(), cfg)
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve: {e}");
            ExitCode::FAILURE
        }
    }
}
