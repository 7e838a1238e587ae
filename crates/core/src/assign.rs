//! Stage 2a — Weighted-MPSC-based layer assignment (§III-B1).

use crate::config::RouterConfig;
use crate::preprocess::Preprocessed;
use crate::resilience::{FaultSite, FlowCtx, RouterError};
use info_mpsc::{peel_layers, Chord};

/// Layer assignment of the concurrent-routing candidates.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `per_layer[k]` = candidate indices assigned to wire layer `k`.
    pub per_layer: Vec<Vec<usize>>,
    /// Candidates left for sequential routing.
    pub unassigned: Vec<usize>,
}

impl Assignment {
    /// Total number of candidates assigned to some layer.
    pub fn assigned_count(&self) -> usize {
        self.per_layer.iter().map(Vec::len).sum()
    }
}

/// Assigns candidates to wire layers by peeling maximum-weight planar
/// subsets of the circular model, one wire layer at a time.
///
/// With `cfg.weighted_mpsc == false` the chords carry unit weights
/// (plain Supowit MPSC — the paper's Fig. 5 "before" behavior).
///
/// Fails on a malformed circular model (peel error) or an injected
/// `assign.peel` fault; the flow then routes every candidate sequentially.
pub fn assign_layers(
    pre: &Preprocessed,
    cfg: &RouterConfig,
    wire_layers: usize,
    ctx: &FlowCtx,
) -> Result<Assignment, RouterError> {
    let chords: Vec<Chord> = pre
        .candidates
        .iter()
        .map(|c| {
            let w = if cfg.weighted_mpsc { c.weight() } else { 1.0 };
            Chord::new(c.a.circle, c.b.circle, w)
        })
        .collect();
    ctx.check(FaultSite::AssignPeel)?;
    match peel_layers(pre.circle_points, &chords, wire_layers) {
        Ok(asg) => Ok(Assignment { per_layer: asg.layers, unassigned: asg.unassigned }),
        Err(e) => {
            // Malformed circle (should not happen — preprocessing allocates
            // unique positions). The flow degrades to all-sequential.
            Err(RouterError::Assign(format!("MPSC peel rejected the circular model: {e:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use info_geom::{Point, Rect};
    use info_model::{DesignRules, PackageBuilder};

    /// Two chips with several facing peripheral pads → parallel candidate
    /// nets that are planar in the circular model.
    fn parallel_nets_package(n: usize) -> info_model::Package {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_200_000, 800_000)),
            DesignRules::default(),
            3,
        );
        let c1 = b.add_chip(Rect::new(Point::new(100_000, 200_000), Point::new(400_000, 600_000)));
        let c2 = b.add_chip(Rect::new(Point::new(800_000, 200_000), Point::new(1_100_000, 600_000)));
        for i in 0..n {
            let y = 250_000 + 60_000 * i as i64;
            let a = b.add_io_pad(c1, Point::new(380_000, y)).unwrap();
            let z = b.add_io_pad(c2, Point::new(820_000, y)).unwrap();
            b.add_net(a, z).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn parallel_nets_share_a_layer() {
        let pkg = parallel_nets_package(4);
        let cfg = RouterConfig::default();
        let pre = preprocess(&pkg, &cfg, &crate::resilience::FlowCtx::default()).unwrap();
        assert_eq!(pre.candidates.len(), 4);
        let asg = assign_layers(&pre, &cfg, 3, &crate::resilience::FlowCtx::default()).unwrap();
        assert_eq!(asg.assigned_count(), 4);
        // Parallel facing nets are planar: first layer takes them all.
        assert_eq!(asg.per_layer[0].len(), 4, "{asg:?}");
    }

    #[test]
    fn zero_layers_assigns_nothing() {
        let pkg = parallel_nets_package(2);
        let cfg = RouterConfig::default();
        let pre = preprocess(&pkg, &cfg, &crate::resilience::FlowCtx::default()).unwrap();
        let asg = assign_layers(&pre, &cfg, 0, &crate::resilience::FlowCtx::default()).unwrap();
        assert_eq!(asg.assigned_count(), 0);
        assert_eq!(asg.unassigned.len(), 2);
    }

    #[test]
    fn unweighted_flag_changes_only_weights() {
        let pkg = parallel_nets_package(3);
        let cfg = RouterConfig::default();
        let pre = preprocess(&pkg, &cfg, &crate::resilience::FlowCtx::default()).unwrap();
        let w = assign_layers(&pre, &cfg, 3, &crate::resilience::FlowCtx::default()).unwrap();
        let u = assign_layers(&pre, &cfg.with_unweighted_mpsc(), 3, &crate::resilience::FlowCtx::default()).unwrap();
        // On an uncongested instance both assign everything.
        assert_eq!(w.assigned_count(), 3);
        assert_eq!(u.assigned_count(), 3);
    }
}
