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

use info_model::{NetId, Package, PadId};
use info_router::serve::{self, json::Json, ServeConfig};
use info_router::{CancelToken, Completion, EcoChangeSet, InfoRouter, RouteOutcome, RouterConfig};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         info-rdl route <netlist-file> [--global-cells N] [--no-lp] [--no-concurrent]\n                 \
         [--deadline-ms N] [--net-status]\n  \
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

/// A `route`/`eco` command line: the netlist path and the route options
/// both subcommands share.
struct RouteArgs {
    file: String,
    cfg: RouterConfig,
    deadline: Option<Duration>,
    net_status: bool,
}

/// Parses a `route`/`eco` command line. A flag that is not a shared
/// route option goes to `extra` with the argument iterator, to take its
/// value from: `extra` returns `None` for a flag it does not know and
/// `Some(false)` for a malformed value. Returns `None`, after printing
/// what is wrong, on a bad argument or a missing netlist path.
fn parse_route_args<'a>(
    args: &'a [String],
    mut extra: impl FnMut(&str, &mut std::slice::Iter<'a, String>) -> Option<bool>,
) -> Option<RouteArgs> {
    let mut file = None;
    let mut cfg = RouterConfig::default();
    let mut deadline = None;
    let mut net_status = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--global-cells" => cfg.global_cells = (parse_num(a, it.next())? as usize).max(1),
            "--deadline-ms" => deadline = Some(Duration::from_millis(parse_num(a, it.next())?)),
            "--no-lp" => cfg.lp_enabled = false,
            "--no-concurrent" => cfg.concurrent_enabled = false,
            "--net-status" => net_status = true,
            _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
            other => match extra(other, &mut it) {
                Some(true) => {}
                Some(false) => return None,
                None => {
                    eprintln!("error: unknown argument '{other}'");
                    return None;
                }
            },
        }
    }
    Some(RouteArgs { file: file?, cfg, deadline, net_status })
}

/// Reads and parses the netlist at `file`, printing what went wrong.
fn read_package(file: &str) -> Option<Package> {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {file}: {e}");
            return None;
        }
    };
    match info_model::parse_package(&text) {
        Ok(p) => Some(p),
        Err(e) => {
            eprintln!("error: netlist: {e}");
            None
        }
    }
}

/// The router for a parsed command line, with its deadline (if any)
/// armed on one token for the whole command.
fn router_for(args: &RouteArgs) -> InfoRouter {
    let router = InfoRouter::new(args.cfg);
    match args.deadline {
        Some(d) => {
            let token = CancelToken::new();
            token.arm_job_deadline(Some(d));
            router.with_cancel_token(token)
        }
        None => router,
    }
}

fn cmd_route(args: &[String]) -> ExitCode {
    let Some(args) = parse_route_args(args, |_, _| None) else {
        return usage();
    };
    let Some(package) = read_package(&args.file) else {
        return ExitCode::FAILURE;
    };
    let out = router_for(&args).route(&package);
    println!("{}", Json::Obj(summary_members(&out, args.net_status)));
    ExitCode::SUCCESS
}

/// One-line JSON summary members shared by `route` and `eco` output,
/// with each net's status when `net_status` is set.
fn summary_members(out: &RouteOutcome, net_status: bool) -> Vec<(String, Json)> {
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
    members
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

/// Takes one `eco` edit flag's value from `it` into `changes`; the
/// `extra` hook of [`parse_route_args`].
fn eco_edit(
    changes: &mut EcoChangeSet,
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Option<bool> {
    let edited = match flag {
        "--remove" => parse_num(flag, it.next())
            .map(|n| std::mem::take(changes).remove_net(NetId::from_index(n as usize))),
        "--add" => parse_indices(flag, it.next(), 2).map(|p| {
            std::mem::take(changes).add_net(PadId::from_index(p[0]), PadId::from_index(p[1]))
        }),
        "--re-pair" => parse_indices(flag, it.next(), 3).map(|p| {
            std::mem::take(changes).re_pair(
                NetId::from_index(p[0]),
                PadId::from_index(p[1]),
                PadId::from_index(p[2]),
            )
        }),
        _ => return None,
    };
    match edited {
        Some(c) => {
            *changes = c;
            Some(true)
        }
        None => Some(false),
    }
}

fn cmd_eco(args: &[String]) -> ExitCode {
    let mut changes = EcoChangeSet::new();
    let Some(args) = parse_route_args(args, |flag, it| eco_edit(&mut changes, flag, it)) else {
        return usage();
    };
    let Some(package) = read_package(&args.file) else {
        return ExitCode::FAILURE;
    };
    let router = router_for(&args);
    let prior = router.route(&package);
    let out = match router.reroute_delta(&package, &prior, &changes) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: eco: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut eco_members = summary_members(&out, args.net_status);
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
                ("lp_reverted".to_string(), Json::Bool(s.lp_reverted)),
            ]),
        ));
    }
    println!(
        "{}",
        Json::Obj(vec![
            ("base".to_string(), Json::Obj(summary_members(&prior, args.net_status))),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn eco(line: &str) -> Option<(RouteArgs, EcoChangeSet)> {
        let mut changes = EcoChangeSet::new();
        let parsed = parse_route_args(&args(line), |f, it| eco_edit(&mut changes, f, it))?;
        Some((parsed, changes))
    }

    #[test]
    fn route_and_eco_share_the_route_options() {
        let opts = "--global-cells 12 --no-lp --no-concurrent --deadline-ms 250 --net-status";
        let route = parse_route_args(&args(&format!("c.netlist {opts}")), |_, _| None).unwrap();
        let (eco, changes) = eco(&format!("c.netlist --remove 3 {opts} --re-pair 5:43:44")).unwrap();
        for parsed in [&route, &eco] {
            assert_eq!(parsed.file, "c.netlist");
            assert_eq!(parsed.cfg.global_cells, 12);
            assert!(!parsed.cfg.lp_enabled && !parsed.cfg.concurrent_enabled);
            assert_eq!(parsed.deadline, Some(Duration::from_millis(250)));
            assert!(parsed.net_status);
        }
        let want = EcoChangeSet::new().remove_net(NetId::from_index(3)).re_pair(
            NetId::from_index(5),
            PadId::from_index(43),
            PadId::from_index(44),
        );
        assert_eq!(changes, want);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let route = |line: &str| parse_route_args(&args(line), |_, _| None);
        assert!(route("c.netlist").is_some());
        assert!(route("").is_none(), "netlist path is required");
        assert!(route("c.netlist --threads 2").is_none(), "--threads is not an option");
        assert!(route("c.netlist --remove 3").is_none(), "edits are eco-only");
        assert!(route("c.netlist --global-cells x").is_none());
        assert!(route("c.netlist --deadline-ms").is_none());
        assert!(eco("c.netlist --add 1").is_none(), "--add takes two pads");
        assert!(eco("c.netlist --re-pair 1:2").is_none(), "--re-pair takes a net and two pads");
        assert!(eco("c.netlist --bogus").is_none());
    }
}
