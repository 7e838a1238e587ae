//! Plain-text benchmark format for packages.
//!
//! A simple line-oriented format so benchmark circuits can be stored,
//! diffed, and shared without external parser dependencies:
//!
//! ```text
//! # comments and blank lines are ignored
//! die 0 0 1000000 1000000
//! rules 2000 2000 5000
//! layers 3
//! chip 50000 100000 300000 400000
//! iopad 0 250000 250000          # iopad <chip-index> <cx> <cy>
//! bumppad 700000 700000
//! obstacle 1 400000 400000 450000 450000
//! net 0 1                        # net <pad-index> <pad-index>
//! ```
//!
//! Entity indices follow insertion order per kind-independent pad
//! numbering (pads share one index space, in file order).

use crate::package::{BuildError, Package, PackageBuilder, PadKind, MAX_WIRE_LAYERS};
use crate::ids::NetId;
use crate::rules::DesignRules;
use crate::ids::{PadId, WireLayer};
use info_geom::{Point, Rect};
use std::fmt;

/// Errors from [`parse_package`].
#[derive(Debug)]
pub enum ParseError {
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The entities parsed fine but the package failed validation.
    Build(BuildError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseError::Build(e) => write!(f, "package validation failed: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<BuildError> for ParseError {
    fn from(e: BuildError) -> Self {
        ParseError::Build(e)
    }
}

fn nums(rest: &str, line: usize, expect: usize) -> Result<Vec<i64>, ParseError> {
    let vals: Result<Vec<i64>, _> = rest.split_whitespace().map(str::parse).collect();
    match vals {
        Ok(v) if v.len() == expect => Ok(v),
        Ok(v) => Err(ParseError::Syntax {
            line,
            message: format!("expected {expect} numbers, found {}", v.len()),
        }),
        Err(e) => Err(ParseError::Syntax { line, message: format!("bad number: {e}") }),
    }
}

/// `v` as a `T` (an index or layer), or a syntax error naming the line,
/// so an out-of-range number is rejected instead of wrapping.
fn narrow<T: TryFrom<i64>>(v: i64, line: usize, what: &str) -> Result<T, ParseError> {
    T::try_from(v)
        .map_err(|_| ParseError::Syntax { line, message: format!("{what} {v} is out of range") })
}

/// Parses the text format into a validated [`Package`].
///
/// # Errors
///
/// [`ParseError::Syntax`] for malformed lines, [`ParseError::Build`] when
/// the entities do not form a valid package.
pub fn parse_package(text: &str) -> Result<Package, ParseError> {
    let mut die: Option<Rect> = None;
    let mut rules = DesignRules::default();
    let mut layers = 1usize;
    // Collect entities first; the builder needs die/rules up front.
    let mut chips: Vec<Rect> = Vec::new();
    // Pads and nets keep their line, so an unknown reference names it.
    let mut pads: Vec<(Option<usize>, Point, usize)> = Vec::new(); // chip idx (None = bump)
    let mut obstacles: Vec<(WireLayer, Rect)> = Vec::new();
    let mut nets: Vec<(usize, usize, usize)> = Vec::new();
    let mut fixed_vias: Vec<(NetId, Point, WireLayer, WireLayer)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let (kw, rest) = content.split_once(char::is_whitespace).unwrap_or((content, ""));
        match kw {
            "die" => {
                let v = nums(rest, line, 4)?;
                die = Some(Rect::new(Point::new(v[0], v[1]), Point::new(v[2], v[3])));
            }
            "rules" => {
                let v = nums(rest, line, 3)?;
                rules = DesignRules { min_spacing: v[0], wire_width: v[1], via_width: v[2] };
            }
            "layers" => {
                let v = nums(rest, line, 1)?;
                layers = narrow(v[0], line, "layer count")?;
                if layers > MAX_WIRE_LAYERS {
                    return Err(ParseError::Syntax {
                        line,
                        message: format!("{layers} layers exceed the maximum of {MAX_WIRE_LAYERS}"),
                    });
                }
            }
            "chip" => {
                let v = nums(rest, line, 4)?;
                chips.push(Rect::new(Point::new(v[0], v[1]), Point::new(v[2], v[3])));
            }
            "iopad" => {
                let v = nums(rest, line, 3)?;
                pads.push((Some(narrow(v[0], line, "chip index")?), Point::new(v[1], v[2]), line));
            }
            "bumppad" => {
                let v = nums(rest, line, 2)?;
                pads.push((None, Point::new(v[0], v[1]), line));
            }
            "obstacle" => {
                let v = nums(rest, line, 5)?;
                let layer = WireLayer(narrow(v[0], line, "obstacle layer")?);
                obstacles.push((layer, Rect::new(Point::new(v[1], v[2]), Point::new(v[3], v[4]))));
            }
            "net" => {
                let v = nums(rest, line, 2)?;
                nets.push((narrow(v[0], line, "pad index")?, narrow(v[1], line, "pad index")?, line));
            }
            "fixedvia" => {
                let v = nums(rest, line, 5)?;
                fixed_vias.push((
                    NetId(narrow(v[0], line, "net index")?),
                    Point::new(v[1], v[2]),
                    WireLayer(narrow(v[3], line, "via top layer")?),
                    WireLayer(narrow(v[4], line, "via bottom layer")?),
                ));
            }
            other => {
                return Err(ParseError::Syntax {
                    line,
                    message: format!("unknown keyword `{other}`"),
                })
            }
        }
    }

    let die = die.ok_or(ParseError::Syntax { line: 0, message: "missing `die` line".into() })?;
    let mut b = PackageBuilder::new(die, rules, layers);
    let chip_ids: Vec<_> = chips.into_iter().map(|r| b.add_chip(r)).collect();
    let mut pad_ids = Vec::with_capacity(pads.len());
    for (chip, center, line) in pads {
        let id = match chip {
            Some(ci) => {
                let cid = *chip_ids.get(ci).ok_or(ParseError::Syntax {
                    line,
                    message: format!("iopad references unknown chip {ci}"),
                })?;
                b.add_io_pad(cid, center)?
            }
            None => b.add_bump_pad(center)?,
        };
        pad_ids.push(id);
    }
    for (layer, rect) in obstacles {
        b.add_obstacle(layer, rect)?;
    }
    for (a, bx, line) in nets {
        let pad = |i: usize| {
            pad_ids.get(i).copied().ok_or_else(|| ParseError::Syntax {
                line,
                message: format!("net references unknown pad {i}"),
            })
        };
        let (pa, pb) = (pad(a)?, pad(bx)?);
        b.add_net(pa, pb)?;
    }
    for (net, center, top, bottom) in fixed_vias {
        b.add_fixed_via(net, center, top, bottom)?;
    }
    Ok(b.build()?)
}

/// Serializes a package into the text format accepted by
/// [`parse_package`].
pub fn write_package(package: &Package) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let die = package.die();
    let _ = writeln!(s, "die {} {} {} {}", die.lo.x, die.lo.y, die.hi.x, die.hi.y);
    let r = package.rules();
    let _ = writeln!(s, "rules {} {} {}", r.min_spacing, r.wire_width, r.via_width);
    let _ = writeln!(s, "layers {}", package.wire_layer_count());
    for c in package.chips() {
        let o = c.outline;
        let _ = writeln!(s, "chip {} {} {} {}", o.lo.x, o.lo.y, o.hi.x, o.hi.y);
    }
    for p in package.pads() {
        match p.kind {
            PadKind::Io { chip } => {
                let _ = writeln!(s, "iopad {} {} {}", chip.index(), p.center.x, p.center.y);
            }
            PadKind::Bump => {
                let _ = writeln!(s, "bumppad {} {}", p.center.x, p.center.y);
            }
        }
    }
    for o in package.obstacles() {
        let r = o.rect;
        let _ = writeln!(s, "obstacle {} {} {} {} {}", o.layer.index(), r.lo.x, r.lo.y, r.hi.x, r.hi.y);
    }
    for n in package.nets() {
        let _ = writeln!(s, "net {} {}", n.a.index(), n.b.index());
    }
    for v in package.pre_vias() {
        let _ = writeln!(
            s,
            "fixedvia {} {} {} {} {}",
            v.net.index(),
            v.center.x,
            v.center.y,
            v.top.index(),
            v.bottom.index()
        );
    }
    s
}

/// Convenience: pad id of the `i`-th pad in file order.
pub fn pad_by_file_order(package: &Package, i: usize) -> Option<PadId> {
    package.pads().get(i).map(|p| p.id)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
# a two-chip sample
die 0 0 1000000 500000
rules 2000 2000 5000
layers 2
chip 50000 100000 300000 400000
chip 700000 100000 950000 400000
iopad 0 250000 250000
iopad 1 750000 250000
bumppad 500000 450000
net 0 1
";

    #[test]
    fn parse_sample() {
        let pkg = parse_package(SAMPLE).unwrap();
        assert_eq!(pkg.chips().len(), 2);
        assert_eq!(pkg.io_pad_count(), 2);
        assert_eq!(pkg.bump_pad_count(), 1);
        assert_eq!(pkg.nets().len(), 1);
        assert_eq!(pkg.wire_layer_count(), 2);
    }

    #[test]
    fn roundtrip() {
        let pkg = parse_package(SAMPLE).unwrap();
        let text = write_package(&pkg);
        let pkg2 = parse_package(&text).unwrap();
        assert_eq!(pkg.chips().len(), pkg2.chips().len());
        assert_eq!(pkg.pads().len(), pkg2.pads().len());
        assert_eq!(pkg.nets().len(), pkg2.nets().len());
        assert_eq!(write_package(&pkg2), text);
    }

    #[test]
    fn syntax_errors_reported_with_line() {
        let bad = "die 0 0 100 100\nchip nope\n";
        match parse_package(bad) {
            Err(ParseError::Syntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_keyword_rejected() {
        assert!(matches!(
            parse_package("die 0 0 10 10\nfrobnicate 1 2\n"),
            Err(ParseError::Syntax { .. })
        ));
    }

    #[test]
    fn missing_die_rejected() {
        assert!(parse_package("layers 2\n").is_err());
    }

    /// Numbers that do not fit their field are syntax errors on their own
    /// line, not values wrapped into range.
    #[test]
    fn out_of_range_numbers_are_rejected_with_their_line() {
        let head = "die 0 0 1000000 1000000\nlayers 2\nchip 0 0 500000 500000\n\
                    iopad 0 100000 100000\nbumppad 800000 800000\nnet 0 1\n";
        for bad in [
            "obstacle 257 0 0 10 10",
            "obstacle -1 0 0 10 10",
            "fixedvia 0 900000 900000 0 257",
            "fixedvia 0 900000 900000 -1 1",
            "fixedvia 4294967296 900000 900000 0 1",
            "fixedvia -1 900000 900000 0 1",
            "net -1 0",
            "iopad -1 10 10",
            "layers -1",
            "layers 257",
            "layers 300",
        ] {
            match parse_package(&format!("{head}{bad}\n")) {
                Err(ParseError::Syntax { line, .. }) => assert_eq!(line, 7, "{bad}"),
                other => panic!("{bad}: expected a syntax error, got {other:?}"),
            }
        }
        // References past the entities declared are named by line too.
        for (bad, line) in [("iopad 3 10 10", 7), ("net 0 99", 7)] {
            match parse_package(&format!("{head}{bad}\n")) {
                Err(ParseError::Syntax { line: got, .. }) => assert_eq!(got, line, "{bad}"),
                other => panic!("{bad}: expected a syntax error, got {other:?}"),
            }
        }
        // The largest addressable stack still parses.
        let max = format!("{head}layers {MAX_WIRE_LAYERS}\n");
        assert_eq!(parse_package(&max).unwrap().wire_layer_count(), MAX_WIRE_LAYERS);
    }

    #[test]
    fn build_errors_propagate() {
        // I/O pad outside its chip.
        let bad = "die 0 0 1000000 500000\nchip 50000 50000 100000 100000\niopad 0 99000 99000\n";
        assert!(matches!(parse_package(bad), Err(ParseError::Build(_))));
    }
}
