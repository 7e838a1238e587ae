//! The info-rdl benchmark: seeded workload generators, output checks,
//! in-memory spans, and a stage-by-stage traced route. `main.rs` runs the
//! workloads; `README.md` explains the design.

pub mod check;
pub mod gen;
pub mod staged;
pub mod stats;
pub mod trace;
