//! Inspect the preprocessing congestion model (Eq. (1)): fan-out grids,
//! MST edges with capacities and demands, and the per-net chord weights
//! (Eq. (2)) that drive layer assignment.
//!
//! ```sh
//! cargo run --release --example congestion_map
//! ```

use info_rdl::generators::patterns::congested_channel;
use info_rdl::router::preprocess::preprocess;
use info_rdl::router::FlowCtx;
use info_rdl::RouterConfig;

fn main() {
    let pkg = congested_channel(8, 4, 1);
    let cfg = RouterConfig::default();
    let pre = match preprocess(&pkg, &cfg, &FlowCtx::default()) {
        Ok(pre) => pre,
        Err(e) => {
            eprintln!("congestion_map: preprocess failed: {e}");
            std::process::exit(1);
        }
    };

    println!("fan-out grids ({}):", pre.grids.len());
    for (i, g) in pre.grids.iter().enumerate() {
        println!(
            "  grid{i}: ({}, {}) .. ({}, {})  [{} x {} µm]",
            g.lo.x,
            g.lo.y,
            g.hi.x,
            g.hi.y,
            g.width() / 1_000,
            g.height() / 1_000
        );
    }

    println!("\nMST edges (capacity vs demand, Eq. (1) overflow):");
    for (i, e) in pre.mst.iter().enumerate() {
        let cap = pre.capacities[i];
        let dem = pre.demands[i];
        let overflow = if dem > cap { dem / cap } else { 0.0 };
        println!(
            "  grid{} -- grid{}: cap {:.1}, dem {:.0}, overflow {:.2}{}",
            e.a,
            e.b,
            cap,
            dem,
            overflow,
            if overflow > 0.0 { "  <-- congested" } else { "" }
        );
    }

    println!("\nchord weights (Eq. (2), alpha/beta/gamma/delta = 0.1/1/1/2):");
    for c in &pre.candidates {
        println!(
            "  {}: detour {:.2}, f_max {:.2}, f_avg {:.2} -> weight {:.3}",
            c.net,
            c.detour_rate,
            c.f_max,
            c.f_avg,
            c.weight()
        );
    }
}
