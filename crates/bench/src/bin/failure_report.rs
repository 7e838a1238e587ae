//! Per-net failure report for a dense-suite circuit.
//!
//! Routes the circuit with telemetry enabled, then renders what the route
//! journal says about every unrouted net: how many attempts it got, how
//! much search work they burned, why the last one failed, and which
//! victims rip-up evicted along the way. Alongside the text report it
//! writes an SVG of the final layout with the failed nets' terminals
//! circled (`failure_report_dense<N>.svg`), so "where is the wall?" is a
//! one-glance question.
//!
//! Usage: `failure_report [index]` (default 2 — the congested circuit).

use info_model::svg::{self, Mark};
use info_router::{InfoRouter, RouterConfig};
use info_telemetry::NetSummary;
use std::time::Instant;

fn main() {
    let idx: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let pkg = info_gen::dense(idx);
    let cfg = RouterConfig::default().with_telemetry();
    let t = Instant::now();
    let out = InfoRouter::new(cfg).route(&pkg);
    let elapsed = t.elapsed().as_secs_f64();
    let report = out.telemetry.expect("telemetry was enabled");

    println!(
        "dense{idx}: {}/{} nets routed ({:.3}%) in {elapsed:.2}s",
        out.stats.routed_nets,
        pkg.nets().len(),
        out.stats.routability_pct
    );
    println!(
        "search: {} searches, {} expansions",
        report.counter("searches"),
        report.counter("nodes_expanded"),
    );
    println!(
        "rip-up: {} trials, {} committed, {} restored, {} attempts refuted without a search",
        report.counter("ripup_attempts"),
        report.counter("ripup_commits"),
        report.counter("snapshot_restores"),
        report.counter("ripup_refuted"),
    );
    println!(
        "rebuilds: {} cells rebuilt, {} layer-cells reused their tiles",
        report.counter("cells_rebuilt"),
        report.counter("layer_cells_reused"),
    );
    let reasons: Vec<String> = report
        .failure_counts()
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|&(label, n)| format!("{label}={n}"))
        .collect();
    println!(
        "failed attempts by reason: {}",
        if reasons.is_empty() { "none".to_string() } else { reasons.join(", ") }
    );

    let failed: Vec<NetSummary> =
        report.net_summaries().into_iter().filter(|s| !s.routed).collect();
    if failed.is_empty() {
        println!("\nno unrouted nets — nothing to report.");
    } else {
        println!("\nunrouted nets ({}):", failed.len());
        for s in &failed {
            let reason = s.last_failure.map_or("unknown", |f| f.label());
            let victims: Vec<String> = s.victims.iter().map(|v| v.to_string()).collect();
            println!(
                "  net {:>3}: {} attempts, {} expansions, last failure {}",
                s.net, s.attempts, s.expansions, reason
            );
            println!(
                "           rip-up victims tried: {}",
                if victims.is_empty() { "none".to_string() } else { victims.join(", ") }
            );
        }
    }

    // SVG overlay: circle both terminals of every unrouted net.
    let mut marks = Vec::new();
    for s in &failed {
        let id = info_model::NetId(s.net);
        let net = pkg.net(id);
        let reason = s.last_failure.map_or("unknown", |f| f.label());
        marks.push(Mark {
            at: pkg.pad(net.a).center,
            label: format!("net {} ({reason})", s.net),
            color: "#c00".into(),
        });
        marks.push(Mark {
            at: pkg.pad(net.b).center,
            label: format!("net {}", s.net),
            color: "#c00".into(),
        });
    }
    let doc = svg::render_with_marks(&pkg, Some(&out.layout), &marks);
    let path = format!("failure_report_dense{idx}.svg");
    match std::fs::write(&path, doc) {
        Ok(()) => println!("\nwrote {path} ({} failed-net marks)", marks.len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
