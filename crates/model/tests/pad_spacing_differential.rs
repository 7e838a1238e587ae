//! Differential test of the pad-spacing check in `PackageBuilder::build`.
//!
//! `build` finds spacing candidates with a `GridIndex` prefilter and
//! reports the first violating pair. This suite keeps the all-pairs scan
//! that the index replaced as its reference, and asserts that `build`
//! returns exactly the reference's answer on random pad fields: `Ok`, or
//! the same `PadSpacing(p, q)`. The fields cover:
//!
//! - pairs at exactly the minimum spacing (legal) and 1 nm under it;
//! - I/O and bump pads on a one-layer package, where they share a layer;
//! - pads on several abutting chips, close across the chip boundaries;
//! - pads on both sides of, and straddling, index bucket boundaries.
//!
//! It also asserts that dense1–5 and the six golden circuits still build.

use info_gen::{build_dense, dense, dense_spec};
use info_geom::{GridIndex, Point, Rect};
use info_model::{
    parse_package, write_package, BuildError, ChipId, DesignRules, PackageBuilder, Pad, PadId,
    PadKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The builder's default I/O pad side and bump pad width.
const IO_PAD: i64 = 8_000;
const BUMP_PAD: i64 = 30_000;

fn min_spacing() -> i64 {
    DesignRules::default().min_spacing
}

fn rect(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
    Rect::new(Point::new(x0, y0), Point::new(x1, y1))
}

/// A pad field as the builder receives it.
#[derive(Debug, Clone)]
struct Field {
    die: Rect,
    layers: usize,
    chips: Vec<Rect>,
    /// Pads in insertion order: `Some(chip)` for an I/O pad, `None` for a
    /// bump pad.
    pads: Vec<(Option<usize>, Point)>,
}

/// The pad the builder makes for `(chip, center)` as its `i`-th pad.
fn make_pad(i: usize, chip: Option<usize>, center: Point) -> Pad {
    let (kind, width) = match chip {
        Some(c) => (
            PadKind::Io {
                chip: ChipId::from_index(c),
            },
            IO_PAD,
        ),
        None => (PadKind::Bump, BUMP_PAD),
    };
    Pad {
        id: PadId::from_index(i),
        kind,
        center,
        width,
        height: width,
    }
}

impl Field {
    fn pad(&self, i: usize) -> Pad {
        let (chip, center) = self.pads[i];
        make_pad(i, chip, center)
    }

    /// Whether a pad at `center` lies inside its chip (I/O) or the die
    /// (bump), as the builder requires.
    fn fits(&self, chip: Option<usize>, center: Point) -> bool {
        let outline = chip.map_or(self.die, |c| self.chips[c]);
        outline.contains_rect(make_pad(0, chip, center).bbox())
    }

    /// `build()`'s verdict: `None` when the field builds, else the pair
    /// it reports.
    fn build(&self) -> Option<(PadId, PadId)> {
        let mut b = PackageBuilder::new(self.die, DesignRules::default(), self.layers);
        let chips: Vec<ChipId> = self.chips.iter().map(|&r| b.add_chip(r)).collect();
        for &(chip, center) in &self.pads {
            match chip {
                Some(c) => b.add_io_pad(chips[c], center),
                None => b.add_bump_pad(center),
            }
            .expect("generated pads lie inside their chip and the die");
        }
        match b.build() {
            Ok(_) => None,
            Err(BuildError::PadSpacing(p, q)) => Some((p, q)),
            Err(e) => panic!("unexpected build error: {e}"),
        }
    }

    /// Asserts that `build` agrees with the reference and returns the
    /// shared verdict.
    fn check(&self) -> Option<(PadId, PadId)> {
        let pads: Vec<Pad> = (0..self.pads.len()).map(|i| self.pad(i)).collect();
        let want = reference(&pads, self.layers, min_spacing());
        assert_eq!(
            self.build(),
            want,
            "build disagrees with the all-pairs scan on {self:?}"
        );
        want
    }
}

/// The all-pairs scan `build` ran before the index: every pair on a
/// shared attachment layer, exact octagon distance, first violating
/// `(i, j)` in lexicographic order.
fn reference(pads: &[Pad], layers: usize, min_spacing: i64) -> Option<(PadId, PadId)> {
    let s = min_spacing as f64;
    for (i, p) in pads.iter().enumerate() {
        for q in &pads[i + 1..] {
            if p.is_io() != q.is_io() && layers > 1 {
                continue;
            }
            if p.shape().distance_to_octagon(&q.shape()) < s {
                return Some((p.id, q.id));
            }
        }
    }
    None
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `kx × ky` abutting square chips of side `side`, inside a die with a
/// 50 µm margin.
fn chip_grid(kx: usize, ky: usize, side: i64) -> (Rect, Vec<Rect>) {
    const MARGIN: i64 = 50_000;
    let die = rect(
        0,
        0,
        2 * MARGIN + kx as i64 * side,
        2 * MARGIN + ky as i64 * side,
    );
    let chips = (0..ky)
        .flat_map(|gy| (0..kx).map(move |gx| (gx as i64, gy as i64)))
        .map(|(gx, gy)| {
            let (x0, y0) = (MARGIN + gx * side, MARGIN + gy * side);
            rect(x0, y0, x0 + side, y0 + side)
        })
        .collect();
    (die, chips)
}

/// Sites `lo + half + pitch·k` whose pad of half-width `half` stays in
/// `[lo, hi]`.
fn sites(lo: i64, hi: i64, half: i64, pitch: i64) -> impl Iterator<Item = i64> + Clone {
    (0..)
        .map(move |k| lo + half + pitch * k)
        .take_while(move |c| c + half <= hi)
}

/// A lattice field. I/O sites sit `IO_PAD + min_spacing` apart on every
/// chip, so neighbours within a chip and across a chip boundary are
/// exactly `min_spacing` apart; bump sites sit `BUMP_PAD + min_spacing`
/// apart over the whole die. A random subset is kept in shuffled order,
/// and a few pads are then nudged by 1 nm, which puts a pair 1 nm under
/// the spacing (or 1 nm over it).
fn lattice_field(rng: &mut StdRng) -> Field {
    let s = min_spacing();
    let (die, chips) = chip_grid(rng.gen_range(1..=3), rng.gen_range(1..=2), 60_000);
    let layers = rng.gen_range(1..=2);
    let mut field = Field {
        die,
        layers,
        chips,
        pads: Vec::new(),
    };
    let keep_io = rng.gen_range(0.05..0.6);
    for (c, chip) in field.chips.iter().enumerate() {
        let xs = sites(chip.lo.x, chip.hi.x, IO_PAD / 2, IO_PAD + s);
        for y in sites(chip.lo.y, chip.hi.y, IO_PAD / 2, IO_PAD + s) {
            for x in xs.clone() {
                if rng.gen_bool(keep_io) {
                    field.pads.push((Some(c), Point::new(x, y)));
                }
            }
        }
    }
    // On one layer, bumps over a chip would nearly always collide with
    // its I/O pads; half the fields keep them off the chips.
    let off_chips = rng.gen_bool(0.5);
    let keep_bump = rng.gen_range(0.1..0.8);
    let xs = sites(die.lo.x, die.hi.x, BUMP_PAD / 2, BUMP_PAD + s);
    for y in sites(die.lo.y, die.hi.y, BUMP_PAD / 2, BUMP_PAD + s) {
        for x in xs.clone() {
            let c = Point::new(x, y);
            let bbox = Rect::centered_square(c, BUMP_PAD / 2).inflate(s);
            if off_chips && field.chips.iter().any(|chip| chip.intersects(bbox)) {
                continue;
            }
            if rng.gen_bool(keep_bump) {
                field.pads.push((None, c));
            }
        }
    }
    shuffle(rng, &mut field.pads);
    if !field.pads.is_empty() {
        for _ in 0..rng.gen_range(0..=3) {
            let i = rng.gen_range(0..field.pads.len());
            let (chip, c) = field.pads[i];
            let nudged = match rng.gen_range(0..4) {
                0 => Point::new(c.x + 1, c.y),
                1 => Point::new(c.x - 1, c.y),
                2 => Point::new(c.x, c.y + 1),
                _ => Point::new(c.x, c.y - 1),
            };
            if field.fits(chip, nudged) {
                field.pads[i].1 = nudged;
            }
        }
    }
    field
}

/// A crowded field: pads on a fine lattice with ±2 nm jitter, so most
/// fields have many violations and pads with several violating
/// partners, and which pair is *first* matters.
fn jittered_field(rng: &mut StdRng) -> Field {
    let (die, chips) = chip_grid(rng.gen_range(1..=3), rng.gen_range(1..=2), 60_000);
    let mut field = Field {
        die,
        layers: rng.gen_range(1..=2),
        chips,
        pads: Vec::new(),
    };
    for _ in 0..rng.gen_range(1..=60) {
        let (chip, bounds, half, step) = if rng.gen_bool(0.7) {
            let c = rng.gen_range(0..field.chips.len());
            (Some(c), field.chips[c], IO_PAD / 2, 2_500)
        } else {
            (None, die, BUMP_PAD / 2, 8_000)
        };
        let pick = |rng: &mut StdRng, lo: i64, hi: i64| {
            let k = rng.gen_range(0..=(hi - lo - 2 * half - 4) / step);
            lo + half + 2 + k * step + rng.gen_range(-2..=2)
        };
        let c = Point::new(
            pick(rng, bounds.lo.x, bounds.hi.x),
            pick(rng, bounds.lo.y, bounds.hi.y),
        );
        assert!(field.fits(chip, c));
        field.pads.push((chip, c));
    }
    field
}

#[test]
fn exact_min_spacing_is_legal_and_one_nm_under_is_not() {
    let s = min_spacing();
    let (die, chips) = chip_grid(2, 1, 60_000);
    let (a, b) = (PadId::from_index(0), PadId::from_index(1));
    let io_x = chips[0].lo.x + 10_000;
    let io_y = chips[0].lo.y + 10_000;
    let bump = |x: i64, y: i64| (None, Point::new(x, y));
    for layers in [1, 2] {
        let field = |pads| Field {
            die,
            layers,
            chips: chips.clone(),
            pads,
        };
        for (gap, want) in [(s + 1, None), (s, None), (s - 1, Some((a, b)))] {
            // Two I/O pads side by side, then one above the other.
            let io = |dx, dy| (Some(0), Point::new(io_x + dx, io_y + dy));
            assert_eq!(field(vec![io(0, 0), io(IO_PAD + gap, 0)]).check(), want);
            assert_eq!(field(vec![io(0, 0), io(0, IO_PAD + gap)]).check(), want);
            // Two bump pads, flat edge to flat edge.
            let pair = vec![bump(20_000, 20_000), bump(20_000 + BUMP_PAD + gap, 20_000)];
            assert_eq!(field(pair).check(), want);
            // An I/O pad on the second chip beside one on the first, across
            // the chip boundary.
            let edge = chips[0].hi.x;
            let pair = vec![
                (Some(0), Point::new(edge - IO_PAD / 2, io_y)),
                (Some(1), Point::new(edge + IO_PAD / 2 + gap, io_y)),
            ];
            assert_eq!(field(pair).check(), want);
            // A bump pad left of an I/O pad: they share the only layer of a
            // one-layer package and never clash on two layers.
            let io_left = chips[0].lo.x + IO_PAD / 2;
            let pair = vec![
                bump(io_left - IO_PAD / 2 - gap - BUMP_PAD / 2, io_y),
                (Some(0), Point::new(io_left, io_y)),
            ];
            assert_eq!(field(pair).check(), if layers == 1 { want } else { None });
        }
        // An I/O pad right on top of a bump pad.
        let stacked = field(vec![
            (Some(0), Point::new(io_x, io_y)),
            (None, Point::new(io_x, io_y)),
        ]);
        assert_eq!(
            stacked.check(),
            if layers == 1 { Some((a, b)) } else { None }
        );
    }
}

#[test]
fn random_lattice_fields_match_the_all_pairs_scan() {
    let (mut ok, mut rejected) = (0, 0);
    for seed in 0..48 {
        let field = lattice_field(&mut StdRng::seed_from_u64(seed));
        match field.check() {
            None => ok += 1,
            Some(_) => rejected += 1,
        }
    }
    // Both verdicts must be exercised, or the comparison proves little.
    assert!(
        ok >= 8 && rejected >= 8,
        "{ok} fields built, {rejected} rejected"
    );
}

#[test]
fn random_jittered_fields_match_the_all_pairs_scan() {
    let mut later_firsts = 0;
    for seed in 0..64 {
        let field = jittered_field(&mut StdRng::seed_from_u64(1_000 + seed));
        if let Some((p, _)) = field.check() {
            later_firsts += usize::from(p.index() > 0);
        }
    }
    // Fields whose first violation does not start at pad 0 check that
    // the scan order, not just the verdict, is preserved.
    assert!(
        later_firsts >= 8,
        "only {later_firsts} fields start their first violation past pad 0"
    );
}

/// The index `build` uses covers the union of the pad bboxes with a
/// `cols × rows` grid. Pin that grid with two anchor pads, then put
/// violating and legal pairs on both sides of every column boundary,
/// and a pad across one.
#[test]
fn pairs_across_index_buckets_are_found() {
    let s = min_spacing();
    let side = 400_000;
    let die = rect(0, 0, side, side);
    let half = IO_PAD / 2;
    let mut pads = vec![
        (Some(0), Point::new(half, half)),
        (Some(0), Point::new(side - half, side - half)),
    ];
    // Four columns of 100 µm: boundaries at x = 100, 200 and 300 µm.
    let cols = 4;
    let width = side / cols;
    for k in 1..cols {
        let boundary = k * width;
        let y = 50_000 * k;
        // A legal pair, then a pair 1 nm under the spacing, each with the
        // left pad ending just before the boundary.
        for (dy, gap) in [(0, s), (20_000, s - 1)] {
            pads.push((Some(0), Point::new(boundary - 1 - half, y + dy)));
            pads.push((Some(0), Point::new(boundary - 1 + gap + half, y + dy)));
        }
    }
    // A pad straddling the middle boundary, clear of everything.
    pads.push((Some(0), Point::new(2 * width, 300_000)));
    let field = Field {
        die,
        layers: 2,
        chips: vec![die],
        pads,
    };

    // Built as `build` builds it, the index has a column boundary at
    // x = `width`, and the violating pair there sits in two columns.
    let index: GridIndex<()> = (0..field.pads.len())
        .map(|i| (field.pad(i).bbox(), ()))
        .collect();
    assert_eq!(index.bounds(), die);
    assert_eq!(index.grid(), (cols as usize, cols as usize));
    let (left, right) = (field.pad(4).bbox(), field.pad(5).bbox());
    assert!(left.hi.x < width && right.lo.x >= width);

    assert_eq!(
        field.check(),
        Some((PadId::from_index(4), PadId::from_index(5)))
    );
    // Drop each violating pair in turn: the next one is found, then none.
    let mut rest = field.clone();
    for (first, want) in [(4, Some((8, 9))), (8, Some((12, 13))), (12, None)] {
        rest.pads[first].1.y -= 10_000;
        rest.pads[first + 1].1.y += 10_000;
        let want = want.map(|(p, q)| (PadId::from_index(p), PadId::from_index(q)));
        assert_eq!(rest.check(), want);
    }
}

/// The six golden circuits, as `tests/golden_layouts.rs` builds them.
fn golden_packages() -> Vec<info_model::Package> {
    let mk = |idx: usize, io: usize, bumps: usize, seed: u64| {
        let mut spec = dense_spec(idx);
        spec.io_pads = io;
        spec.nets = io / 2;
        spec.bump_pads = bumps;
        spec.seed = seed;
        build_dense(spec, false)
    };
    vec![
        mk(1, 12, 30, 7),
        mk(1, 16, 40, 11),
        mk(2, 16, 48, 23),
        mk(2, 20, 56, 31),
        mk(3, 20, 40, 41),
        mk(3, 24, 48, 53),
    ]
}

/// dense1–5 and the goldens still build, from the generator and again
/// from their netlist text; the reference agrees on the goldens and
/// dense1 (the larger circuits would make the all-pairs scan the
/// slowest test of the crate).
#[test]
fn benchmark_and_golden_packages_still_build() {
    let cheap = golden_packages().into_iter().chain([dense(1)]);
    for pkg in cheap {
        let spacing = pkg.rules().min_spacing;
        assert_eq!(reference(pkg.pads(), pkg.wire_layer_count(), spacing), None);
    }
    for pkg in golden_packages().into_iter().chain((1..=5).map(dense)) {
        let text = write_package(&pkg);
        let back = parse_package(&text).expect("a generated package re-parses");
        assert_eq!(write_package(&back), text);
    }
}
