//! Thread-scaling determinism suite.
//!
//! The worker count only parallelizes read-only scans around the serial
//! per-net loop (the rip-up victim scan, LP constraint rows), so it must
//! never change what gets routed. This suite pins that across the
//! published scaling matrix (1/2/4/8 threads):
//!
//! 1. layout hash **and** route journal are identical at every thread
//!    count, on placid and rip-up-heavy circuits alike;
//! 2. (release CI, env-gated) dense2's scaling matrix is hash-stable.

use info_rdl::generators::{build_dense, dense, dense_spec};
use info_rdl::model::Package;
use info_rdl::{InfoRouter, RouterConfig, TelemetryReport};

const MATRIX: [usize; 4] = [1, 2, 4, 8];

fn mk(idx: usize, io: usize, bumps: usize, seed: u64) -> Package {
    let mut spec = dense_spec(idx);
    spec.io_pads = io;
    spec.nets = io / 2;
    spec.bump_pads = bumps;
    spec.seed = seed;
    build_dense(spec, false)
}

fn route(pkg: &Package, cells: usize, threads: usize) -> (u64, TelemetryReport) {
    let cfg = RouterConfig::default().with_global_cells(cells).with_threads(threads).with_telemetry();
    let out = InfoRouter::new(cfg).route(pkg);
    (out.layout.canonical_hash(), out.telemetry.expect("telemetry enabled"))
}

/// Contract 1: the full matrix reproduces the single-threaded layout and
/// journal, on a placid circuit and on a congested one that rip-ups.
#[test]
fn matrix_reproduces_single_threaded_layout_and_journal() {
    let circuits =
        [("g4_three_chip_dense", mk(2, 20, 56, 31), 14), ("g3_congested", mk(2, 16, 48, 23), 10)];
    for (name, pkg, cells) in circuits {
        let (base_hash, base_report) = route(&pkg, cells, 1);
        for threads in MATRIX {
            let (hash, report) = route(&pkg, cells, threads);
            assert_eq!(hash, base_hash, "{name}: layout diverged at {threads} threads");
            assert_eq!(
                report.journal, base_report.journal,
                "{name}: journal diverged at {threads} threads"
            );
        }
    }
}

/// Contract 2, full-size: dense2 across the matrix (the circuit the CI
/// scaling gate times). Minutes of routing, so it only runs when asked:
/// `RDL_SCALING_TEST=1 cargo test --release -- dense2_matrix`.
#[test]
fn dense2_matrix_is_hash_stable() {
    if std::env::var("RDL_SCALING_TEST").map_or(true, |v| v.is_empty() || v == "0") {
        eprintln!("skipping dense2 scaling matrix (set RDL_SCALING_TEST=1 to run)");
        return;
    }
    let pkg = dense(2);
    let mut hashes = Vec::new();
    for threads in MATRIX {
        let cfg = RouterConfig::default().with_threads(threads);
        hashes.push((threads, InfoRouter::new(cfg).route(&pkg).layout.canonical_hash()));
    }
    let (_, want) = hashes[0];
    for (threads, hash) in hashes {
        assert_eq!(hash, want, "dense2 layout diverged at {threads} threads");
    }
}
