//! Independent checks of every layout the router hands back.

use info_rdl::model::{drc, drc::Violation, Layout, NetId, Package};
use info_rdl::NetStatus;

/// Checks one output against the reference DRC sweep
/// ([`drc::check_naive`], not the indexed path the router itself used):
/// the only violations allowed are `Disconnected` on nets the outcome
/// reports as not routed, and every net it reports routed must be
/// connected pad to pad.
pub fn check_layout(
    package: &Package,
    layout: &Layout,
    status: &[(NetId, NetStatus)],
) -> Result<(), String> {
    let routed = |id: NetId| {
        status
            .iter()
            .any(|&(n, s)| n == id && s == NetStatus::Routed)
    };
    for v in drc::check_naive(package, layout).violations() {
        match v {
            Violation::Disconnected { net } if !routed(*net) => {}
            other => return Err(format!("DRC: {other}")),
        }
    }
    for &(id, s) in status {
        if s == NetStatus::Routed && !drc::is_connected(package, layout, id) {
            return Err(format!("{id} is reported routed but is not connected"));
        }
    }
    Ok(())
}

/// `(routed nets, attempted nets, routed wirelength in µm)` of one
/// outcome.
pub fn quality(layout: &Layout, status: &[(NetId, NetStatus)]) -> (usize, usize, f64) {
    let routed: Vec<NetId> = status
        .iter()
        .filter(|(_, s)| *s == NetStatus::Routed)
        .map(|(n, _)| *n)
        .collect();
    (
        routed.len(),
        status.len(),
        layout.wirelength_over(routed.iter().copied()) / 1e3,
    )
}
