//! A self-contained linear-programming solver.
//!
//! This crate is the substrate that stands in for the Gurobi Optimizer in
//! the paper's *LP-based Layout Optimization* stage (§III-E). It implements
//! a **bounded-variable two-phase revised simplex** method:
//!
//! - constraint columns are stored sparse ([`sparse::SparseVec`]);
//! - the basis is factorized by a left-looking sparse LU with partial
//!   pivoting and sparsity-ordered columns ([`lu`]);
//! - pivots between refactorizations are applied in product form
//!   (eta vectors, [`basis`]);
//! - all variables carry individual `[lower, upper]` bounds (either may be
//!   infinite), so geometric LPs with free coordinates need no variable
//!   splitting;
//! - the solve starts from a caller-given point ([`Model::set_start`]):
//!   every column sits nonbasic at its start value and slacks take up the
//!   rows' residuals, so a feasible start goes straight to phase 2; phase 1
//!   minimizes the sum of artificial variables on the rows a start
//!   violates, phase 2 the real objective.
//!
//! A deliberately simple dense-inverse basis engine backs the same simplex
//! driver and serves as a cross-checking oracle in the test suite.
//!
//! # Example
//!
//! ```
//! use info_lp::{Model, Cmp};
//!
//! # fn main() -> Result<(), info_lp::LpError> {
//! // minimize x + 2y  s.t.  x + y ≥ 3, y ≤ 5, 0 ≤ x, 0 ≤ y
//! let mut m = Model::new();
//! let x = m.add_var(0.0, f64::INFINITY, 1.0);
//! let y = m.add_var(0.0, 5.0, 2.0);
//! m.add_row([(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
//! let sol = m.solve()?;
//! assert!((sol.objective - 3.0).abs() < 1e-7); // x = 3, y = 0
//! assert!((sol[x] - 3.0).abs() < 1e-7);
//! # Ok(())
//! # }
//! ```

pub mod basis;
pub mod lu;
pub mod sparse;

mod error;
mod model;
mod simplex;

pub use error::LpError;
pub use model::{Cmp, Model, RowId, Solution, VarId};
pub use simplex::{CoreLp, SimplexOptions, SolveStatus};
