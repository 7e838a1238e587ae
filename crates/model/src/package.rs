//! The package instance: die, chips, pads, nets, obstacles, layer stack.

use crate::ids::{ChipId, NetId, ObstacleId, PadId, WireLayer};
use crate::rules::DesignRules;
use info_geom::{Coord, GridIndex, Octagon, Point, Rect};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A chip placed in the package; its outline is the *fan-in region* of the
/// RDL structure (Fig. 1(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chip {
    /// Identifier.
    pub id: ChipId,
    /// Chip outline; the shaded fan-in region beneath the chip.
    pub outline: Rect,
}

/// Which family a pad belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PadKind {
    /// A rectangular I/O pad on the top RDL, owned by a chip.
    Io {
        /// The chip the pad belongs to.
        chip: ChipId,
    },
    /// An octagonal bump pad on the bottom RDL (toward the PCB).
    Bump,
}

/// A pad: rectangular I/O pad or octagonal bump pad, at an arbitrary
/// (irregular-structure) position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pad {
    /// Identifier.
    pub id: PadId,
    /// I/O or bump.
    pub kind: PadKind,
    /// Center position.
    pub center: Point,
    /// Width of the bounding box (also the height for bump pads).
    pub width: Coord,
    /// Height of the bounding box (ignored for bump pads, which are
    /// regular octagons of `width`).
    pub height: Coord,
}

impl Pad {
    /// The pad's shape as an octagon (a rectangle for I/O pads).
    pub fn shape(&self) -> Octagon {
        match self.kind {
            PadKind::Io { .. } => Octagon::from_rect(self.bbox()),
            PadKind::Bump => Octagon::regular(self.center, self.width),
        }
    }

    /// Bounding box of the pad.
    pub fn bbox(&self) -> Rect {
        let hw = self.width / 2;
        let hh = match self.kind {
            PadKind::Io { .. } => self.height / 2,
            PadKind::Bump => self.width / 2,
        };
        Rect::new(
            Point::new(self.center.x - hw, self.center.y - hh),
            Point::new(self.center.x + hw, self.center.y + hh),
        )
    }

    /// Whether this is an I/O pad.
    pub fn is_io(&self) -> bool {
        matches!(self.kind, PadKind::Io { .. })
    }

    /// The chip owning this pad, if it is an I/O pad.
    pub fn chip(&self) -> Option<ChipId> {
        match self.kind {
            PadKind::Io { chip } => Some(chip),
            PadKind::Bump => None,
        }
    }
}

/// A pre-assigned net: a pad pair that must be connected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    /// Identifier.
    pub id: NetId,
    /// First pad (always an I/O pad).
    pub a: PadId,
    /// Second pad (an I/O pad for inter-chip nets, a bump pad for
    /// chip-to-board nets).
    pub b: PadId,
}

/// A pre-assigned (fixed) via from the problem input — the paper's `V_p`.
///
/// Fixed vias belong to a net (e.g. a pad stack mandated by the package
/// designer) and may not be moved by layout optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreVia {
    /// The owning net.
    pub net: NetId,
    /// Center position.
    pub center: Point,
    /// Topmost wire layer of the span.
    pub top: WireLayer,
    /// Bottommost wire layer of the span.
    pub bottom: WireLayer,
}

/// A rectangular routing obstacle on one wire layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Obstacle {
    /// Identifier.
    pub id: ObstacleId,
    /// Wire layer the obstacle blocks.
    pub layer: WireLayer,
    /// Blocked area.
    pub rect: Rect,
}

/// The most wire layers a package may have: every layer index must fit
/// in a [`WireLayer`]'s `u8`, so 256 layers (indices 0..=255) is the
/// largest stack that can be addressed.
pub const MAX_WIRE_LAYERS: usize = u8::MAX as usize + 1;

/// Errors reported while building a [`Package`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Design rules contain non-positive values.
    InvalidRules,
    /// The package needs at least one wire layer.
    NoWireLayers,
    /// The layer count exceeds [`MAX_WIRE_LAYERS`].
    TooManyWireLayers(usize),
    /// A chip outline is not contained in the die.
    ChipOutsideDie(ChipId),
    /// An I/O pad is not inside its owning chip's outline.
    PadOutsideChip(PadId),
    /// A pad is not inside the die.
    PadOutsideDie(PadId),
    /// An obstacle is not inside the die.
    ObstacleOutsideDie(ObstacleId),
    /// An obstacle references a nonexistent wire layer.
    BadObstacleLayer(ObstacleId),
    /// Two same-layer pads violate the minimum spacing rule.
    PadSpacing(PadId, PadId),
    /// A net references an unknown pad.
    UnknownPad(PadId),
    /// A net is malformed (self-loop, bump-to-bump, duplicate terminal use).
    BadNet(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidRules => write!(f, "design rules must be positive"),
            BuildError::NoWireLayers => write!(f, "at least one wire layer is required"),
            BuildError::TooManyWireLayers(n) => {
                write!(f, "{n} wire layers exceed the maximum of {MAX_WIRE_LAYERS}")
            }
            BuildError::ChipOutsideDie(c) => write!(f, "{c} extends beyond the die"),
            BuildError::PadOutsideChip(p) => write!(f, "{p} lies outside its chip"),
            BuildError::PadOutsideDie(p) => write!(f, "{p} lies outside the die"),
            BuildError::ObstacleOutsideDie(o) => write!(f, "{o} extends beyond the die"),
            BuildError::BadObstacleLayer(o) => write!(f, "{o} references a bad layer"),
            BuildError::PadSpacing(a, b) => write!(f, "pads {a} and {b} violate min spacing"),
            BuildError::UnknownPad(p) => write!(f, "net references unknown {p}"),
            BuildError::BadNet(msg) => write!(f, "bad net: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// An immutable, validated problem instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Package {
    die: Rect,
    rules: DesignRules,
    wire_layer_count: usize,
    chips: Vec<Chip>,
    pads: Vec<Pad>,
    nets: Vec<Net>,
    obstacles: Vec<Obstacle>,
    pre_vias: Vec<PreVia>,
}

impl Package {
    /// Derives a package sharing this one's validated floorplan — die,
    /// rules, chips, pads, obstacles — with a replacement net list and
    /// pre-assigned via set. Net edits never move pads, so the
    /// floorplan is not re-validated (chip containment, pad spacing);
    /// only the net-level constraints are re-checked (known pads, no
    /// self-loops, no bump-to-bump pairs, disjoint terminals, valid via
    /// spans).
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownPad`] or [`BuildError::BadNet`], exactly as
    /// [`PackageBuilder::add_net`] / [`PackageBuilder::add_fixed_via`]
    /// would report them.
    pub fn with_nets(
        &self,
        pairs: &[(PadId, PadId)],
        pre_vias: &[(NetId, Point, WireLayer, WireLayer)],
    ) -> Result<Package, BuildError> {
        let mut nets = Vec::with_capacity(pairs.len());
        let mut used = vec![false; self.pads.len()];
        for &(a, b) in pairs {
            for p in [a, b] {
                if p.index() >= self.pads.len() {
                    return Err(BuildError::UnknownPad(p));
                }
            }
            if a == b {
                return Err(BuildError::BadNet(format!("self-loop on {a}")));
            }
            let (pa, pb) = (&self.pads[a.index()], &self.pads[b.index()]);
            if !pa.is_io() && !pb.is_io() {
                return Err(BuildError::BadNet(format!("{a}-{b} connects two bump pads")));
            }
            // Normalize: terminal `a` is always an I/O pad (as add_net does).
            let (a, b) = if pa.is_io() { (a, b) } else { (b, a) };
            for t in [a, b] {
                if used[t.index()] {
                    return Err(BuildError::BadNet(format!("{t} terminates two nets")));
                }
                used[t.index()] = true;
            }
            nets.push(Net { id: NetId::from_index(nets.len()), a, b });
        }
        let mut vias = Vec::with_capacity(pre_vias.len());
        for &(net, center, top, bottom) in pre_vias {
            if net.index() >= nets.len() {
                return Err(BuildError::BadNet(format!("fixed via references unknown {net}")));
            }
            if top >= bottom || bottom.index() >= self.wire_layer_count {
                return Err(BuildError::BadNet(format!(
                    "fixed via for {net} has a bad span {top}..{bottom}"
                )));
            }
            if !self.die.contains(center) {
                return Err(BuildError::BadNet(format!("fixed via for {net} escapes the die")));
            }
            vias.push(PreVia { net, center, top, bottom });
        }
        Ok(Package {
            die: self.die,
            rules: self.rules,
            wire_layer_count: self.wire_layer_count,
            chips: self.chips.clone(),
            pads: self.pads.clone(),
            nets,
            obstacles: self.obstacles.clone(),
            pre_vias: vias,
        })
    }

    /// The pre-assigned (fixed) vias `V_p`.
    pub fn pre_vias(&self) -> &[PreVia] {
        &self.pre_vias
    }

    /// The die (routing region) outline.
    pub fn die(&self) -> Rect {
        self.die
    }

    /// The design rules.
    pub fn rules(&self) -> &DesignRules {
        &self.rules
    }

    /// Number of wire layers `|L_w|` (via layers are `|L_w| + 1`).
    pub fn wire_layer_count(&self) -> usize {
        self.wire_layer_count
    }

    /// Number of via layers `|L_v| = |L_w| + 1` as reported in Table I.
    pub fn via_layer_count(&self) -> usize {
        self.wire_layer_count + 1
    }

    /// The bottom wire layer (where bump pads attach).
    pub fn bottom_layer(&self) -> WireLayer {
        WireLayer((self.wire_layer_count - 1) as u8)
    }

    /// All chips.
    pub fn chips(&self) -> &[Chip] {
        &self.chips
    }

    /// All pads.
    pub fn pads(&self) -> &[Pad] {
        &self.pads
    }

    /// All pre-assigned nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All obstacles.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// Pad lookup.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this package.
    pub fn pad(&self, id: PadId) -> &Pad {
        &self.pads[id.index()]
    }

    /// Chip lookup.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this package.
    pub fn chip(&self, id: ChipId) -> &Chip {
        &self.chips[id.index()]
    }

    /// Net lookup.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this package.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The wire layer a pad attaches to: top RDL for I/O pads, bottom RDL
    /// for bump pads.
    pub fn pad_layer(&self, id: PadId) -> WireLayer {
        match self.pad(id).kind {
            PadKind::Io { .. } => WireLayer::TOP,
            PadKind::Bump => self.bottom_layer(),
        }
    }

    /// Whether a net connects two chips (both terminals are I/O pads).
    pub fn is_inter_chip(&self, id: NetId) -> bool {
        let n = self.net(id);
        self.pad(n.a).is_io() && self.pad(n.b).is_io()
    }

    /// The number of I/O pads `|Q|`.
    pub fn io_pad_count(&self) -> usize {
        self.pads.iter().filter(|p| p.is_io()).count()
    }

    /// The number of bump pads `|G|`.
    pub fn bump_pad_count(&self) -> usize {
        self.pads.iter().filter(|p| !p.is_io()).count()
    }
}

/// Incremental builder for a [`Package`], validating as it goes.
#[derive(Debug, Clone)]
pub struct PackageBuilder {
    die: Rect,
    rules: DesignRules,
    wire_layer_count: usize,
    chips: Vec<Chip>,
    pads: Vec<Pad>,
    nets: Vec<Net>,
    obstacles: Vec<Obstacle>,
    pre_vias: Vec<PreVia>,
    io_pad_size: (Coord, Coord),
    bump_pad_width: Coord,
}

impl PackageBuilder {
    /// Starts a package with the given die outline, rules, and wire layer
    /// count.
    pub fn new(die: Rect, rules: DesignRules, wire_layers: usize) -> Self {
        PackageBuilder {
            die,
            rules,
            wire_layer_count: wire_layers,
            chips: Vec::new(),
            pads: Vec::new(),
            nets: Vec::new(),
            obstacles: Vec::new(),
            pre_vias: Vec::new(),
            io_pad_size: (8_000, 8_000),
            bump_pad_width: 30_000,
        }
    }

    /// Overrides the default I/O pad dimensions (8 µm × 8 µm).
    pub fn set_io_pad_size(&mut self, width: Coord, height: Coord) -> &mut Self {
        self.io_pad_size = (width, height);
        self
    }

    /// Overrides the default bump pad width (30 µm).
    pub fn set_bump_pad_width(&mut self, width: Coord) -> &mut Self {
        self.bump_pad_width = width;
        self
    }

    /// Adds a chip with the given outline.
    pub fn add_chip(&mut self, outline: Rect) -> ChipId {
        let id = ChipId::from_index(self.chips.len());
        self.chips.push(Chip { id, outline });
        id
    }

    /// Adds an I/O pad centered at `center` on the given chip.
    ///
    /// # Errors
    ///
    /// [`BuildError::PadOutsideChip`] if the pad escapes the chip outline.
    pub fn add_io_pad(&mut self, chip: ChipId, center: Point) -> Result<PadId, BuildError> {
        let id = PadId::from_index(self.pads.len());
        let (w, h) = self.io_pad_size;
        let pad = Pad { id, kind: PadKind::Io { chip }, center, width: w, height: h };
        let outline = self.chips[chip.index()].outline;
        if !outline.contains_rect(pad.bbox()) {
            return Err(BuildError::PadOutsideChip(id));
        }
        self.pads.push(pad);
        Ok(id)
    }

    /// Adds a bump pad centered at `center`.
    ///
    /// # Errors
    ///
    /// [`BuildError::PadOutsideDie`] if the pad escapes the die.
    pub fn add_bump_pad(&mut self, center: Point) -> Result<PadId, BuildError> {
        let id = PadId::from_index(self.pads.len());
        let pad =
            Pad { id, kind: PadKind::Bump, center, width: self.bump_pad_width, height: self.bump_pad_width };
        if !self.die.contains_rect(pad.bbox()) {
            return Err(BuildError::PadOutsideDie(id));
        }
        self.pads.push(pad);
        Ok(id)
    }

    /// Adds an obstacle on a wire layer.
    ///
    /// # Errors
    ///
    /// [`BuildError::ObstacleOutsideDie`] or [`BuildError::BadObstacleLayer`].
    pub fn add_obstacle(&mut self, layer: WireLayer, rect: Rect) -> Result<ObstacleId, BuildError> {
        let id = ObstacleId::from_index(self.obstacles.len());
        if !self.die.contains_rect(rect) {
            return Err(BuildError::ObstacleOutsideDie(id));
        }
        if layer.index() >= self.wire_layer_count {
            return Err(BuildError::BadObstacleLayer(id));
        }
        self.obstacles.push(Obstacle { id, layer, rect });
        Ok(id)
    }

    /// Adds a pre-assigned (fixed) via for a net (the paper's `V_p`). The
    /// net must already exist; the span must be strictly downward and
    /// inside the layer stack; the via must lie within the die.
    ///
    /// # Errors
    ///
    /// [`BuildError::BadNet`] for an unknown net or a malformed span,
    /// [`BuildError::PadOutsideDie`]-style containment is reported as
    /// [`BuildError::BadNet`] with a message.
    pub fn add_fixed_via(
        &mut self,
        net: NetId,
        center: Point,
        top: WireLayer,
        bottom: WireLayer,
    ) -> Result<(), BuildError> {
        if net.index() >= self.nets.len() {
            return Err(BuildError::BadNet(format!("fixed via references unknown {net}")));
        }
        if top >= bottom || bottom.index() >= self.wire_layer_count {
            return Err(BuildError::BadNet(format!(
                "fixed via for {net} has a bad span {top}..{bottom}"
            )));
        }
        if !self.die.contains(center) {
            return Err(BuildError::BadNet(format!("fixed via for {net} escapes the die")));
        }
        self.pre_vias.push(PreVia { net, center, top, bottom });
        Ok(())
    }

    /// Adds a pre-assigned net between two pads. The first terminal must be
    /// an I/O pad; bump-to-bump connections are not valid InFO nets.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownPad`] or [`BuildError::BadNet`].
    pub fn add_net(&mut self, a: PadId, b: PadId) -> Result<NetId, BuildError> {
        for p in [a, b] {
            if p.index() >= self.pads.len() {
                return Err(BuildError::UnknownPad(p));
            }
        }
        if a == b {
            return Err(BuildError::BadNet(format!("self-loop on {a}")));
        }
        let (pa, pb) = (&self.pads[a.index()], &self.pads[b.index()]);
        if !pa.is_io() && !pb.is_io() {
            return Err(BuildError::BadNet(format!("{a}-{b} connects two bump pads")));
        }
        // Normalize: terminal `a` is always an I/O pad.
        let (a, b) = if pa.is_io() { (a, b) } else { (b, a) };
        let id = NetId::from_index(self.nets.len());
        self.nets.push(Net { id, a, b });
        Ok(id)
    }

    /// Validates cross-entity rules and freezes the package.
    ///
    /// # Errors
    ///
    /// Any [`BuildError`] variant; notably [`BuildError::PadSpacing`] if two
    /// pads on the same layer sit closer than the minimum spacing, and
    /// [`BuildError::BadNet`] if one pad terminates two different nets
    /// (pre-assigned pairs must be disjoint).
    pub fn build(self) -> Result<Package, BuildError> {
        if !self.rules.is_valid() {
            return Err(BuildError::InvalidRules);
        }
        if self.wire_layer_count == 0 {
            return Err(BuildError::NoWireLayers);
        }
        if self.wire_layer_count > MAX_WIRE_LAYERS {
            return Err(BuildError::TooManyWireLayers(self.wire_layer_count));
        }
        for c in &self.chips {
            if !self.die.contains_rect(c.outline) {
                return Err(BuildError::ChipOutsideDie(c.id));
            }
        }
        // Pad spacing within each attachment layer (top = I/O, bottom =
        // bump). A pad's shape lies inside its bbox, so a pad whose bbox
        // misses `bbox(p).inflate(min_spacing)` is more than `min_spacing`
        // from `p` on one axis and cannot violate: the index only
        // prefilters, and the exact octagon distance decides every
        // candidate. Entry ids are pad indices and queries return them in
        // ascending order, so the first violation found is the first
        // `(p, q)` in lexicographic order, as an all-pairs scan finds it.
        let margin = self.rules.min_spacing;
        let s = margin as f64;
        let mut index: GridIndex<()> = self.pads.iter().map(|p| (p.bbox(), ())).collect();
        for (i, p) in self.pads.iter().enumerate() {
            let shape = p.shape();
            for id in index.query(p.bbox().inflate(margin)) {
                let q = &self.pads[id.index()];
                if id.index() <= i || (p.is_io() != q.is_io() && self.wire_layer_count > 1) {
                    continue; // an earlier pair, or different attachment layers
                }
                if shape.distance_to_octagon(&q.shape()) < s {
                    return Err(BuildError::PadSpacing(p.id, q.id));
                }
            }
        }
        // Each pad may terminate at most one pre-assigned net.
        let mut used = vec![false; self.pads.len()];
        for n in &self.nets {
            for t in [n.a, n.b] {
                if used[t.index()] {
                    return Err(BuildError::BadNet(format!("{t} terminates two nets")));
                }
                used[t.index()] = true;
            }
        }
        Ok(Package {
            die: self.die,
            rules: self.rules,
            wire_layer_count: self.wire_layer_count,
            chips: self.chips,
            pads: self.pads,
            nets: self.nets,
            obstacles: self.obstacles,
            pre_vias: self.pre_vias,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die() -> Rect {
        Rect::new(Point::new(0, 0), Point::new(1_000_000, 1_000_000))
    }

    fn builder() -> PackageBuilder {
        PackageBuilder::new(die(), DesignRules::default(), 2)
    }

    #[test]
    fn basic_build() {
        let mut b = builder();
        let c = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(400_000, 400_000)));
        let p1 = b.add_io_pad(c, Point::new(150_000, 150_000)).unwrap();
        let p2 = b.add_io_pad(c, Point::new(350_000, 350_000)).unwrap();
        let g = b.add_bump_pad(Point::new(700_000, 700_000)).unwrap();
        b.add_net(p1, p2).unwrap();
        assert!(b.clone().build().is_ok());
        // Terminal reuse is only detectable once all nets are known, so
        // add_net accepts it and build() rejects it.
        b.add_net(g, p2).unwrap();
        assert!(matches!(b.build(), Err(BuildError::BadNet(_))));
    }

    #[test]
    fn io_pad_must_stay_inside_chip() {
        let mut b = builder();
        let c = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(200_000, 200_000)));
        assert!(matches!(
            b.add_io_pad(c, Point::new(199_000, 150_000)),
            Err(BuildError::PadOutsideChip(_))
        ));
        assert!(b.add_io_pad(c, Point::new(150_000, 150_000)).is_ok());
    }

    #[test]
    fn bump_bump_net_rejected() {
        let mut b = builder();
        let g1 = b.add_bump_pad(Point::new(100_000, 100_000)).unwrap();
        let g2 = b.add_bump_pad(Point::new(200_000, 200_000)).unwrap();
        assert!(matches!(b.add_net(g1, g2), Err(BuildError::BadNet(_))));
    }

    #[test]
    fn net_terminal_order_normalized() {
        let mut b = builder();
        let c = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(400_000, 400_000)));
        let io = b.add_io_pad(c, Point::new(150_000, 150_000)).unwrap();
        let g = b.add_bump_pad(Point::new(700_000, 700_000)).unwrap();
        b.add_net(g, io).unwrap(); // bump listed first, should be flipped
        let pkg = b.build().unwrap();
        assert_eq!(pkg.nets()[0].a, io);
        assert_eq!(pkg.nets()[0].b, g);
        assert!(!pkg.is_inter_chip(NetId(0)));
    }

    #[test]
    fn pad_spacing_enforced() {
        let mut b = builder();
        let c = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(400_000, 400_000)));
        b.add_io_pad(c, Point::new(150_000, 150_000)).unwrap();
        b.add_io_pad(c, Point::new(158_000, 150_000)).unwrap(); // 8 µm apart, pads 8 µm wide → 0 gap
        assert!(matches!(b.build(), Err(BuildError::PadSpacing(..))));
    }

    #[test]
    fn io_and_bump_on_different_layers_may_overlap_in_plan() {
        let mut b = builder();
        let c = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(400_000, 400_000)));
        b.add_io_pad(c, Point::new(150_000, 150_000)).unwrap();
        // Bump pad directly beneath the chip: legal because it attaches to
        // the bottom RDL while the I/O pad attaches to the top RDL.
        b.add_bump_pad(Point::new(150_000, 150_000)).unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn layer_counts_match_table1_convention() {
        let mut b = PackageBuilder::new(die(), DesignRules::default(), 3);
        let _ = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(400_000, 400_000)));
        let pkg = b.build().unwrap();
        assert_eq!(pkg.wire_layer_count(), 3);
        assert_eq!(pkg.via_layer_count(), 4); // |L_v| = |L_w| + 1, as in dense1
        assert_eq!(pkg.bottom_layer(), WireLayer(2));
    }

    #[test]
    fn layer_count_must_fit_a_wire_layer_index() {
        let build = |n| PackageBuilder::new(die(), DesignRules::default(), n).build();
        assert_eq!(build(MAX_WIRE_LAYERS).unwrap().bottom_layer(), WireLayer(u8::MAX));
        assert!(matches!(
            build(MAX_WIRE_LAYERS + 1),
            Err(BuildError::TooManyWireLayers(n)) if n == MAX_WIRE_LAYERS + 1
        ));
        assert!(matches!(build(usize::MAX), Err(BuildError::TooManyWireLayers(_))));
    }

    #[test]
    fn pad_shapes() {
        let mut b = builder();
        let c = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(400_000, 400_000)));
        let io = b.add_io_pad(c, Point::new(150_000, 150_000)).unwrap();
        let g = b.add_bump_pad(Point::new(700_000, 700_000)).unwrap();
        let pkg = b.build().unwrap();
        // IO pad shape is its rectangle (4 edges), bump pad a regular octagon.
        assert_eq!(pkg.pad(io).shape().edges().len(), 4);
        assert_eq!(pkg.pad(g).shape().edges().len(), 8);
        assert_eq!(pkg.pad_layer(io), WireLayer::TOP);
        assert_eq!(pkg.pad_layer(g), WireLayer(1));
    }
}
