//! Integration tests for pre-assigned (fixed) vias `V_p`.

use info_rdl::geom::{Point, Rect};
use info_rdl::model::{
    parse_package, write_package, ChipId, DesignRules, NetId, Package, PackageBuilder, PadId,
    WireLayer,
};
use info_rdl::{EcoChangeSet, InfoRouter, RouterConfig};

/// One chip and one net, I/O pad 0 to bump 1, with a fixed via.
fn fixed_via_builder() -> (PackageBuilder, ChipId) {
    let mut b = PackageBuilder::new(
        Rect::new(Point::new(0, 0), Point::new(1_000_000, 600_000)),
        DesignRules::default(),
        2,
    );
    let chip = b.add_chip(Rect::new(Point::new(100_000, 150_000), Point::new(350_000, 450_000)));
    let io = b.add_io_pad(chip, Point::new(330_000, 300_000)).unwrap();
    let bump = b.add_bump_pad(Point::new(800_000, 300_000)).unwrap();
    let net = b.add_net(io, bump).unwrap();
    // The designer mandates a layer change at x = 500 µm.
    b.add_fixed_via(net, Point::new(500_000, 300_000), WireLayer(0), WireLayer(1)).unwrap();
    (b, chip)
}

fn package_with_fixed_via() -> Package {
    fixed_via_builder().0.build().unwrap()
}

/// Routes the fixed-via package plus a second net (I/O pad 2 to bump 3)
/// and a spare bump (pad 4), applies `changes` as an ECO and returns the
/// edited layout's fixed vias as `(net, center)`.
fn fixed_vias_after_eco(changes: EcoChangeSet) -> Vec<(NetId, Point)> {
    let (mut b, chip) = fixed_via_builder();
    let io2 = b.add_io_pad(chip, Point::new(330_000, 200_000)).unwrap();
    let bump2 = b.add_bump_pad(Point::new(800_000, 150_000)).unwrap();
    b.add_bump_pad(Point::new(800_000, 450_000)).unwrap();
    b.add_net(io2, bump2).unwrap();
    let pkg = b.build().unwrap();
    let router = InfoRouter::new(RouterConfig::default().with_global_cells(12));
    let prior = router.route(&pkg);
    assert_eq!(prior.layout.vias().filter(|v| v.fixed).count(), 1);
    let out = router.reroute_delta(&pkg, &prior, &changes).unwrap();
    out.layout.vias().filter(|v| v.fixed).map(|v| (v.net, v.center)).collect()
}

#[test]
fn fixed_vias_seed_the_layout() {
    let pkg = package_with_fixed_via();
    let layout = info_rdl::model::Layout::new(&pkg);
    let vias: Vec<_> = layout.vias().collect();
    assert_eq!(vias.len(), 1);
    assert!(vias[0].fixed);
    assert_eq!(vias[0].center, Point::new(500_000, 300_000));
    assert_eq!(vias[0].net, NetId(0));
}

#[test]
fn router_keeps_fixed_vias_in_place() {
    let pkg = package_with_fixed_via();
    let out = InfoRouter::new(RouterConfig::default().with_global_cells(12)).route(&pkg);
    assert!(out.stats.fully_routed(), "{}; {:?}", out.stats, out.failed);
    // The mandated via is still exactly where the input put it.
    let fixed: Vec<_> = out.layout.vias().filter(|v| v.fixed).collect();
    assert_eq!(fixed.len(), 1);
    assert_eq!(fixed[0].center, Point::new(500_000, 300_000));
}

#[test]
fn fixed_vias_roundtrip_through_netlist() {
    let pkg = package_with_fixed_via();
    let text = write_package(&pkg);
    assert!(text.contains("fixedvia 0 500000 300000 0 1"), "{text}");
    let back = parse_package(&text).unwrap();
    assert_eq!(back.pre_vias().len(), 1);
    assert_eq!(back.pre_vias()[0].center, Point::new(500_000, 300_000));
    assert_eq!(write_package(&back), text);
}

#[test]
fn builder_rejects_bad_fixed_vias() {
    let mut b = PackageBuilder::new(
        Rect::new(Point::new(0, 0), Point::new(100_000, 100_000)),
        DesignRules::default(),
        2,
    );
    let chip = b.add_chip(Rect::new(Point::new(10_000, 10_000), Point::new(60_000, 60_000)));
    let io = b.add_io_pad(chip, Point::new(30_000, 30_000)).unwrap();
    let g = b.add_bump_pad(Point::new(80_000, 80_000)).unwrap();
    let net = b.add_net(io, g).unwrap();
    // Unknown net.
    assert!(b.add_fixed_via(NetId(9), Point::new(50_000, 50_000), WireLayer(0), WireLayer(1)).is_err());
    // Inverted span.
    assert!(b.add_fixed_via(net, Point::new(50_000, 50_000), WireLayer(1), WireLayer(1)).is_err());
    // Outside the die.
    assert!(b
        .add_fixed_via(net, Point::new(500_000, 50_000), WireLayer(0), WireLayer(1))
        .is_err());
    // A valid one.
    assert!(b.add_fixed_via(net, Point::new(70_000, 70_000), WireLayer(0), WireLayer(1)).is_ok());
}

#[test]
fn eco_removal_keeps_each_fixed_via_once() {
    let got = fixed_vias_after_eco(EcoChangeSet::new().remove_net(NetId(1)));
    assert_eq!(got, vec![(NetId(0), Point::new(500_000, 300_000))]);
}

#[test]
fn eco_re_pair_keeps_each_fixed_via_once() {
    let changes =
        EcoChangeSet::new().re_pair(NetId(1), PadId::from_index(2), PadId::from_index(4));
    let got = fixed_vias_after_eco(changes);
    assert_eq!(got, vec![(NetId(0), Point::new(500_000, 300_000))]);
}

#[test]
fn eco_removing_the_owner_drops_its_fixed_via() {
    let got = fixed_vias_after_eco(EcoChangeSet::new().remove_net(NetId(0)));
    assert_eq!(got, vec![]);
}
