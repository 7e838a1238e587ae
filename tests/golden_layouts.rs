//! Golden-layout regression suite.
//!
//! Routes six small seeded circuits through the full five-stage flow and
//! pins, per circuit: routability (routed/failed counts), total
//! wirelength, via count, and the canonical layout hash — against the
//! checked-in snapshots in `tests/golden/*.json`. Any change to routing
//! behavior (ordering, tie-breaks, geometry) shows up here as a hash
//! mismatch with a field-by-field diff. Each final layout's DRC report
//! must also equal the naive all-pairs reference's.
//!
//! - `UPDATE_GOLDEN=1 cargo test --test golden_layouts` regenerates the
//!   snapshots (review the diff before committing!).

use info_rdl::generators::{build_dense, dense_spec};
use info_rdl::model::{drc, Package};
use info_rdl::{InfoRouter, RouteOutcome, RouterConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The six pinned circuits: scaled-down dense-family instances spanning
/// 2–9 chips, 3–5 wire layers, and different RNG seeds.
fn circuits() -> Vec<(&'static str, Package)> {
    let mk = |idx: usize, io: usize, bumps: usize, seed: u64| {
        let mut spec = dense_spec(idx);
        spec.io_pads = io;
        spec.nets = io / 2;
        spec.bump_pads = bumps;
        spec.seed = seed;
        build_dense(spec, false)
    };
    vec![
        ("g1_two_chip", mk(1, 12, 30, 7)),
        ("g2_two_chip_alt_seed", mk(1, 16, 40, 11)),
        ("g3_three_chip", mk(2, 16, 48, 23)),
        ("g4_three_chip_dense", mk(2, 20, 56, 31)),
        ("g5_six_chip", mk(3, 20, 40, 41)),
        ("g6_six_chip_dense", mk(3, 24, 48, 53)),
    ]
}

fn route(pkg: &Package) -> RouteOutcome {
    InfoRouter::new(RouterConfig::default().with_global_cells(14)).route(pkg)
}

#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    circuit: String,
    nets: usize,
    routed: usize,
    failed: usize,
    wirelength_um: String,
    vias: usize,
    layout_hash: String,
}

impl Snapshot {
    fn take(name: &str, pkg: &Package, out: &RouteOutcome) -> Self {
        Snapshot {
            circuit: name.to_string(),
            nets: pkg.nets().len(),
            routed: out.stats.routed_nets,
            failed: out.failed.len(),
            wirelength_um: format!("{:.3}", out.stats.total_wirelength_um),
            vias: out.stats.via_count,
            layout_hash: format!("{:016x}", out.layout.canonical_hash()),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\n  \"circuit\": \"{}\",\n  \"nets\": {},\n  \"routed\": {},\n  \
             \"failed\": {},\n  \"wirelength_um\": {},\n  \"vias\": {},\n  \
             \"layout_hash\": \"{}\"\n}}\n",
            self.circuit,
            self.nets,
            self.routed,
            self.failed,
            self.wirelength_um,
            self.vias,
            self.layout_hash,
        )
    }

    /// Parses the snapshot JSON we write ourselves (flat string/number
    /// fields only — no external JSON dependency in this workspace).
    fn from_json(text: &str) -> Option<Self> {
        let field = |key: &str| -> Option<String> {
            let tag = format!("\"{key}\":");
            let rest = &text[text.find(&tag)? + tag.len()..];
            let rest = rest.trim_start();
            if let Some(stripped) = rest.strip_prefix('"') {
                Some(stripped[..stripped.find('"')?].to_string())
            } else {
                let end = rest.find([',', '\n', '}'])?;
                Some(rest[..end].trim().to_string())
            }
        };
        Some(Snapshot {
            circuit: field("circuit")?,
            nets: field("nets")?.parse().ok()?,
            routed: field("routed")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            wirelength_um: field("wirelength_um")?.trim().to_string(),
            vias: field("vias")?.parse().ok()?,
            layout_hash: field("layout_hash")?,
        })
    }

    fn diff(&self, other: &Snapshot) -> String {
        let mut out = String::new();
        let mut row = |name: &str, want: &str, got: &str| {
            if want != got {
                let _ = writeln!(out, "    {name}: golden {want} != got {got}");
            }
        };
        row("nets", &self.nets.to_string(), &other.nets.to_string());
        row("routed", &self.routed.to_string(), &other.routed.to_string());
        row("failed", &self.failed.to_string(), &other.failed.to_string());
        row("wirelength_um", &self.wirelength_um, &other.wirelength_um);
        row("vias", &self.vias.to_string(), &other.vias.to_string());
        row("layout_hash", &self.layout_hash, &other.layout_hash);
        out
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// Per-circuit snapshot comparison against `tests/golden/*.json`.
#[test]
fn golden_layouts_match() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0");
    let dir = golden_dir();
    let mut failures = String::new();
    for (name, pkg) in circuits() {
        let out = route(&pkg);
        let (fast, slow) = (drc::check(&pkg, &out.layout), drc::check_naive(&pkg, &out.layout));
        assert_eq!(fast.violations(), slow.violations(), "{name}: indexed DRC != naive");
        assert_eq!(fast.dirty_nets(), slow.dirty_nets(), "{name}: indexed DRC != naive");
        let got = Snapshot::take(name, &pkg, &out);
        let path = dir.join(format!("{name}.json"));
        if update {
            std::fs::create_dir_all(&dir).expect("create golden dir");
            std::fs::write(&path, got.to_json()).expect("write golden");
            continue;
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                let _ = writeln!(
                    failures,
                    "  {name}: missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
                    path.display()
                );
                continue;
            }
        };
        let want = Snapshot::from_json(&text)
            .unwrap_or_else(|| panic!("unparseable golden file {}", path.display()));
        if want != got {
            let _ = writeln!(failures, "  {name}:\n{}", want.diff(&got));
        }
    }
    assert!(
        failures.is_empty(),
        "golden layout mismatches:\n{failures}\n(intended change? regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden_layouts and review the diff)"
    );
}
