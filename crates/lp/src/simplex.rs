//! Bounded-variable two-phase revised simplex.

use crate::basis::BasisEngine;
use crate::error::LpError;
use crate::sparse::{ColMatrix, SparseVec};

/// Solver status of a completed solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal basic solution was found.
    Optimal,
}

/// Tuning knobs for the simplex driver.
#[derive(Debug, Clone, Copy)]
pub struct SimplexOptions {
    /// Hard iteration cap (`0` = automatic: `10_000 + 50·(rows + cols)`).
    pub max_iterations: usize,
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Dual (reduced-cost) tolerance.
    pub opt_tol: f64,
    /// Refactorize after this many eta updates.
    pub refactor_every: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 0,
            feas_tol: 1e-7,
            opt_tol: 1e-7,
            refactor_every: 64,
        }
    }
}

/// A linear program in computational form:
/// `min objᵀx  s.t.  cols·x = rhs,  lb ≤ x ≤ ub`
/// (bounds may be ±∞; equality rows are expected to have been given slack
/// columns by the modeling layer, though the solver survives without them
/// by introducing artificials).
#[derive(Debug, Clone)]
pub struct CoreLp {
    /// Constraint matrix, one [`SparseVec`] per column.
    pub cols: ColMatrix,
    /// Objective coefficients per column.
    pub obj: Vec<f64>,
    /// Lower bounds per column (`-inf` allowed).
    pub lb: Vec<f64>,
    /// Upper bounds per column (`+inf` allowed).
    pub ub: Vec<f64>,
    /// Right-hand side per row.
    pub rhs: Vec<f64>,
    /// Starting value per column, clamped into its bounds. Every column
    /// starts nonbasic there except one per row, which takes up the row's
    /// residual `rhs − cols·start`; a start that satisfies every row within
    /// the feasibility tolerance therefore skips phase 1.
    pub start: Vec<f64>,
}

/// The conventional starting value of a column with bounds `[lb, ub]`: its
/// finite lower bound, else its finite upper bound, else zero.
pub(crate) fn bound_start(lb: f64, ub: f64) -> f64 {
    if lb.is_finite() {
        lb
    } else if ub.is_finite() {
        ub
    } else {
        0.0
    }
}

/// Optimal solution of a [`CoreLp`].
#[derive(Debug, Clone)]
pub struct CoreSolution {
    /// Value per column (same indexing as the input).
    pub x: Vec<f64>,
    /// Objective value.
    pub objective: f64,
    /// Total simplex iterations across both phases.
    pub iterations: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarState {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Nonbasic strictly between its bounds (a free column at zero, or a
    /// column left at its start value); it may move either way.
    Between,
}

struct Solver<'a, E: BasisEngine> {
    nrows: usize,
    /// Extended columns: the problem's columns followed by artificials.
    cols: ColMatrix,
    lb: Vec<f64>,
    ub: Vec<f64>,
    rhs: &'a [f64],
    start: &'a [f64],
    n_orig: usize,
    state: Vec<VarState>,
    /// Basis position -> column.
    basis: Vec<usize>,
    /// Basic values by position.
    xb: Vec<f64>,
    /// Current value of every column (authoritative for nonbasic columns;
    /// refreshed from `xb` for basic ones where needed).
    xval: Vec<f64>,
    engine: E,
    opts: SimplexOptions,
    iterations: usize,
    pivots_since_refactor: usize,
}

impl CoreLp {
    /// Number of structural columns.
    pub fn ncols(&self) -> usize {
        self.cols.ncols()
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.cols.nrows()
    }

    /// Solves the program with the given basis engine, starting from
    /// [`CoreLp::start`].
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`],
    /// [`LpError::IterationLimit`] or [`LpError::SingularBasis`].
    pub fn solve_with<E: BasisEngine>(
        &self,
        engine: E,
        opts: SimplexOptions,
    ) -> Result<CoreSolution, LpError> {
        self.validate()?;
        let mut solver = Solver::new(self, engine, opts);
        solver.crash_basis();
        solver.refactorize_and_recompute()?;

        // Phase 1: minimize the sum of artificial variables, if any carry
        // a nonzero value (only rows the start violates have one).
        let needs_phase1 =
            solver.basis.iter().enumerate().any(|(p, &j)| j >= solver.n_orig && solver.xb[p] > opts.feas_tol);
        if needs_phase1 {
            let mut c1 = vec![0.0; solver.cols.ncols()];
            for c in c1.iter_mut().skip(solver.n_orig) {
                *c = 1.0;
            }
            solver.optimize(&c1)?;
            let infeas: f64 = solver
                .basis
                .iter()
                .enumerate()
                .filter(|&(_, &j)| j >= solver.n_orig)
                .map(|(p, _)| solver.xb[p].max(0.0))
                .sum();
            if infeas > opts.feas_tol * 10.0 {
                return Err(LpError::Infeasible);
            }
        }
        // Fix artificials at zero for phase 2.
        for j in solver.n_orig..solver.cols.ncols() {
            solver.ub[j] = 0.0;
            if !matches!(solver.state[j], VarState::Basic(_)) {
                solver.state[j] = VarState::AtLower;
                solver.xval[j] = 0.0;
            }
        }

        // Phase 2: the real objective (zero on artificials).
        let mut c2 = vec![0.0; solver.cols.ncols()];
        c2[..self.ncols()].copy_from_slice(&self.obj);
        solver.optimize(&c2)?;

        let mut x = solver.xval.clone();
        for (p, &j) in solver.basis.iter().enumerate() {
            x[j] = solver.xb[p];
        }
        x.truncate(self.ncols());
        let objective = x.iter().zip(self.obj.iter()).map(|(a, b)| a * b).sum();
        Ok(CoreSolution { x, objective, iterations: solver.iterations })
    }

    fn validate(&self) -> Result<(), LpError> {
        let n = self.ncols();
        if [self.obj.len(), self.lb.len(), self.ub.len(), self.start.len()] != [n; 4] {
            return Err(LpError::InvalidModel("mismatched column array lengths".into()));
        }
        if self.rhs.len() != self.nrows() {
            return Err(LpError::InvalidModel("mismatched rhs length".into()));
        }
        for j in 0..n {
            if self.lb[j] > self.ub[j] {
                return Err(LpError::InvalidModel(format!(
                    "column {j} has lb {} > ub {}",
                    self.lb[j], self.ub[j]
                )));
            }
            if [self.obj[j], self.lb[j], self.ub[j], self.start[j]].iter().any(|v| v.is_nan()) {
                return Err(LpError::InvalidModel(format!("column {j} has NaN data")));
            }
        }
        if self.rhs.iter().any(|v| !v.is_finite()) {
            return Err(LpError::InvalidModel("rhs must be finite".into()));
        }
        Ok(())
    }
}

impl<'a, E: BasisEngine> Solver<'a, E> {
    fn new(lp: &'a CoreLp, engine: E, opts: SimplexOptions) -> Self {
        Solver {
            nrows: lp.nrows(),
            cols: lp.cols.clone(),
            lb: lp.lb.clone(),
            ub: lp.ub.clone(),
            rhs: &lp.rhs,
            start: &lp.start,
            n_orig: lp.ncols(),
            state: Vec::new(),
            basis: Vec::new(),
            xb: Vec::new(),
            xval: Vec::new(),
            engine,
            opts,
            iterations: 0,
            pivots_since_refactor: 0,
        }
    }

    fn max_iterations(&self) -> usize {
        if self.opts.max_iterations > 0 {
            self.opts.max_iterations
        } else {
            10_000 + 50 * (self.nrows + self.n_orig)
        }
    }

    /// Builds the initial basis: every column nonbasic at its start value,
    /// then per row a singleton column whose value on the row's residual
    /// fits its bounds (a slack, typically), else an artificial column.
    fn crash_basis(&mut self) {
        let n = self.n_orig;
        self.state = Vec::with_capacity(n);
        self.xval = Vec::with_capacity(n);
        for j in 0..n {
            let v = self.start[j].max(self.lb[j]).min(self.ub[j]);
            self.state.push(if v == self.lb[j] {
                VarState::AtLower
            } else if v == self.ub[j] {
                VarState::AtUpper
            } else {
                VarState::Between
            });
            self.xval.push(v);
        }

        // Row activities with everything nonbasic.
        let mut acc = vec![0.0f64; self.nrows];
        for j in 0..n {
            if self.xval[j] != 0.0 {
                self.cols.axpy_col(j, self.xval[j], &mut acc);
            }
        }

        // Index singleton columns by row for the crash.
        let mut singleton: Vec<Vec<usize>> = vec![Vec::new(); self.nrows];
        for j in 0..n {
            let col = self.cols.col(j);
            if col.nnz() == 1 {
                let (i, _) = col.iter().next().expect("nnz == 1");
                singleton[i].push(j);
            }
        }

        self.basis = Vec::with_capacity(self.nrows);
        let mut used = vec![false; n];
        for i in 0..self.nrows {
            let resid = self.rhs[i] - acc[i];
            let mut chosen: Option<(usize, f64)> = None;
            for &j in &singleton[i] {
                if used[j] {
                    continue;
                }
                let a = self.cols.col(j).iter().next().expect("singleton").1;
                if a.abs() < 1e-12 {
                    continue;
                }
                let v = self.xval[j] + resid / a;
                if v >= self.lb[j] - self.opts.feas_tol && v <= self.ub[j] + self.opts.feas_tol {
                    chosen = Some((j, v));
                    break;
                }
            }
            match chosen {
                Some((j, v)) => {
                    used[j] = true;
                    // Remove the old nonbasic contribution; the column is
                    // now basic with value v satisfying the row exactly.
                    self.state[j] = VarState::Basic(self.basis.len());
                    self.basis.push(j);
                    self.xb.push(v);
                }
                None => {
                    // Artificial with sign matching the residual.
                    let sign = if resid >= 0.0 { 1.0 } else { -1.0 };
                    let j = self.cols.push_col(SparseVec::from_entries([(i, sign)]));
                    self.lb.push(0.0);
                    self.ub.push(f64::INFINITY);
                    self.state.push(VarState::Basic(self.basis.len()));
                    self.xval.push(0.0);
                    self.basis.push(j);
                    self.xb.push(resid.abs());
                }
            }
        }
    }

    fn refactorize_and_recompute(&mut self) -> Result<(), LpError> {
        let cols: Vec<&SparseVec> = self.basis.iter().map(|&j| self.cols.col(j)).collect();
        self.engine.refactorize(self.nrows, &cols)?;
        self.pivots_since_refactor = 0;
        // xb = B⁻¹ (rhs − A_N x_N).
        let mut b: Vec<f64> = self.rhs.to_vec();
        for j in 0..self.cols.ncols() {
            if !matches!(self.state[j], VarState::Basic(_)) && self.xval[j] != 0.0 {
                self.cols.axpy_col(j, -self.xval[j], &mut b);
            }
        }
        self.engine.ftran(&mut b);
        self.xb.copy_from_slice(&b);
        Ok(())
    }

    /// Runs primal simplex iterations for the cost vector `costs` until
    /// optimality (no eligible entering column).
    fn optimize(&mut self, costs: &[f64]) -> Result<(), LpError> {
        let max_iters = self.max_iterations();
        let mut degenerate_streak = 0usize;
        loop {
            if self.iterations >= max_iters {
                return Err(LpError::IterationLimit { iterations: self.iterations });
            }
            if self.engine.wants_refactorize()
                || self.pivots_since_refactor >= self.opts.refactor_every
            {
                self.refactorize_and_recompute()?;
            }
            let bland = degenerate_streak > 200;

            // Duals y = Bᵀ⁻¹ c_B.
            let mut y = vec![0.0f64; self.nrows];
            for (p, &j) in self.basis.iter().enumerate() {
                y[p] = costs[j];
            }
            self.engine.btran(&mut y);

            // Pricing.
            let mut entering: Option<(usize, f64, f64)> = None; // (col, |viol|, sigma)
            for (j, &cost) in costs.iter().enumerate().take(self.cols.ncols()) {
                match self.state[j] {
                    VarState::Basic(_) => continue,
                    _ if self.lb[j] == self.ub[j] => continue, // fixed
                    st => {
                        let d = cost - self.cols.col(j).dot_dense(&y);
                        let (viol, sigma) = match st {
                            VarState::AtLower => (-d, 1.0),
                            VarState::AtUpper => (d, -1.0),
                            VarState::Between => (d.abs(), if d < 0.0 { 1.0 } else { -1.0 }),
                            VarState::Basic(_) => unreachable!(),
                        };
                        if viol > self.opts.opt_tol {
                            if bland {
                                entering = Some((j, viol, sigma));
                                break;
                            }
                            if entering.is_none_or(|(_, best, _)| viol > best) {
                                entering = Some((j, viol, sigma));
                            }
                        }
                    }
                }
            }
            let Some((q, _, sigma)) = entering else {
                return Ok(()); // optimal for this cost vector
            };

            // Direction w = B⁻¹ a_q.
            let mut w = vec![0.0f64; self.nrows];
            self.cols.col(q).scatter_into(&mut w);
            self.engine.ftran(&mut w);

            // Ratio test over the basic variables.
            let mut t = f64::INFINITY;
            let mut leaving: Option<(usize, bool)> = None; // (position, hits_upper)
            for (p, &wp) in w.iter().enumerate() {
                if wp.abs() < 1e-9 {
                    continue;
                }
                let jb = self.basis[p];
                let delta = sigma * wp;
                let (bound, hits_upper) = if delta > 0.0 {
                    (self.lb[jb], false)
                } else {
                    (self.ub[jb], true)
                };
                if !bound.is_finite() {
                    continue;
                }
                let tp = ((self.xb[p] - bound) / delta).max(0.0);
                let replace = match leaving {
                    None => tp < t,
                    Some((cur, _)) => {
                        let tie = (tp - t).abs() <= 1e-12;
                        if tie {
                            // Anti-cycling tie-break: Bland prefers the
                            // lowest column index; otherwise prefer the
                            // largest pivot magnitude for stability.
                            if bland {
                                jb < self.basis[cur]
                            } else {
                                wp.abs() > w[cur].abs()
                            }
                        } else {
                            tp < t
                        }
                    }
                };
                if replace {
                    t = tp;
                    leaving = Some((p, hits_upper));
                }
            }
            // The entering variable's own bound in its direction of travel
            // may bind first, in which case the step is a bound flip with
            // no basis change.
            let flip_limit = if sigma > 0.0 {
                self.ub[q] - self.xval[q]
            } else {
                self.xval[q] - self.lb[q]
            };
            if flip_limit < t {
                leaving = None;
                t = flip_limit;
            }
            if !t.is_finite() {
                return Err(LpError::Unbounded);
            }

            // Apply the step.
            self.iterations += 1;
            degenerate_streak = if t <= 1e-10 { degenerate_streak + 1 } else { 0 };
            for (p, &wp) in w.iter().enumerate() {
                if wp != 0.0 {
                    self.xb[p] -= t * sigma * wp;
                }
            }
            match leaving {
                None => {
                    // Bound flip: q stays nonbasic at the bound it reached.
                    (self.state[q], self.xval[q]) = if sigma > 0.0 {
                        (VarState::AtUpper, self.ub[q])
                    } else {
                        (VarState::AtLower, self.lb[q])
                    };
                }
                Some((r, hits_upper)) => {
                    let leaving_col = self.basis[r];
                    let leave_bound =
                        if hits_upper { self.ub[leaving_col] } else { self.lb[leaving_col] };
                    self.state[leaving_col] =
                        if hits_upper { VarState::AtUpper } else { VarState::AtLower };
                    self.xval[leaving_col] = leave_bound;

                    let new_val = self.xval[q] + sigma * t;
                    self.state[q] = VarState::Basic(r);
                    self.basis[r] = q;
                    self.xb[r] = new_val;
                    self.engine.update(r, &SparseVec::from_dense(&w));
                    self.pivots_since_refactor += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{DenseBasis, LuBasis};
    use crate::sparse::{ColMatrix, SparseVec};

    /// min cᵀx s.t. Ax = b (rows dense), bounds.
    #[allow(clippy::needless_range_loop)]
    fn lp(a_rows: &[&[f64]], rhs: &[f64], obj: &[f64], lb: &[f64], ub: &[f64]) -> CoreLp {
        let m = a_rows.len();
        let n = obj.len();
        let mut cols = ColMatrix::new(m);
        for j in 0..n {
            cols.push_col(SparseVec::from_entries((0..m).map(|i| (i, a_rows[i][j]))));
        }
        CoreLp {
            cols,
            obj: obj.to_vec(),
            lb: lb.to_vec(),
            ub: ub.to_vec(),
            rhs: rhs.to_vec(),
            start: lb.iter().zip(ub).map(|(&l, &u)| bound_start(l, u)).collect(),
        }
    }

    fn solve(lp: &CoreLp) -> Result<CoreSolution, LpError> {
        let s1 = lp.solve_with(LuBasis::new(32), SimplexOptions::default())?;
        let s2 = lp.solve_with(DenseBasis::new(), SimplexOptions::default())?;
        assert!(
            (s1.objective - s2.objective).abs() < 1e-6 * (1.0 + s1.objective.abs()),
            "LU ({}) vs dense ({}) objective mismatch",
            s1.objective,
            s2.objective
        );
        Ok(s1)
    }

    const INF: f64 = f64::INFINITY;

    #[test]
    fn trivial_box() {
        // min x + y over [1, 4] x [2, 5], no constraints beyond a vacuous row.
        let p = lp(&[&[1.0, 0.0]], &[4.0], &[1.0, 1.0], &[1.0, 2.0], &[4.0, 5.0]);
        // Row forces x = 4 exactly? No: row is x = 4 (equality form). So min = 4 + 2.
        let s = solve(&p).unwrap();
        assert!((s.objective - 6.0).abs() < 1e-7);
        assert!((s.x[0] - 4.0).abs() < 1e-7);
        assert!((s.x[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn classic_2d() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 (Dantzig's example);
        // as min with slacks explicit.
        let p = lp(
            &[
                &[1.0, 0.0, 1.0, 0.0, 0.0],
                &[0.0, 2.0, 0.0, 1.0, 0.0],
                &[3.0, 2.0, 0.0, 0.0, 1.0],
            ],
            &[4.0, 12.0, 18.0],
            &[-3.0, -5.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0, 0.0],
            &[INF, INF, INF, INF, INF],
        );
        let s = solve(&p).unwrap();
        assert!((s.objective + 36.0).abs() < 1e-7, "objective {}", s.objective);
        assert!((s.x[0] - 2.0).abs() < 1e-7);
        assert!((s.x[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_rows_need_phase1() {
        // min x + y s.t. x + y = 10, x − y = 2  → x = 6, y = 4.
        let p = lp(
            &[&[1.0, 1.0], &[1.0, -1.0]],
            &[10.0, 2.0],
            &[1.0, 1.0],
            &[0.0, 0.0],
            &[INF, INF],
        );
        let s = solve(&p).unwrap();
        assert!((s.x[0] - 6.0).abs() < 1e-7);
        assert!((s.x[1] - 4.0).abs() < 1e-7);
        assert!((s.objective - 10.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        // x ≥ 0, x = -5.
        let p = lp(&[&[1.0]], &[-5.0], &[1.0], &[0.0], &[INF]);
        assert_eq!(solve(&p).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn infeasible_conflicting_rows() {
        // x + y = 1 and x + y = 3 with slacks absent.
        let p = lp(
            &[&[1.0, 1.0], &[1.0, 1.0]],
            &[1.0, 3.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[INF, INF],
        );
        assert_eq!(solve(&p).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x s.t. x − y = 0, x, y ≥ 0 → x can grow forever.
        let p = lp(&[&[1.0, -1.0]], &[0.0], &[-1.0, 0.0], &[0.0, 0.0], &[INF, INF]);
        assert_eq!(solve(&p).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn free_variables() {
        // min |style| objective via free vars: min x s.t. x − y = 3, y free in
        // [-10, 10], x free → x = y + 3, min at y = -10 → x = -7.
        let p = lp(&[&[1.0, -1.0]], &[3.0], &[1.0, 0.0], &[-INF, -10.0], &[INF, 10.0]);
        let s = solve(&p).unwrap();
        assert!((s.x[0] + 7.0).abs() < 1e-7, "x = {}", s.x[0]);
        assert!((s.objective + 7.0).abs() < 1e-7);
    }

    #[test]
    fn upper_bounded_variables_flip() {
        // max x + y s.t. x + y ≤ 1.5 with x, y ∈ [0, 1]: optimum on a
        // bound-flip-rich path.
        let p = lp(
            &[&[1.0, 1.0, 1.0]],
            &[1.5],
            &[-1.0, -1.0, 0.0],
            &[0.0, 0.0, 0.0],
            &[1.0, 1.0, INF],
        );
        let s = solve(&p).unwrap();
        assert!((s.objective + 1.5).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant rows through the same vertex.
        let p = lp(
            &[
                &[1.0, 0.0, 1.0, 0.0, 0.0],
                &[0.0, 1.0, 0.0, 1.0, 0.0],
                &[1.0, 1.0, 0.0, 0.0, 1.0],
            ],
            &[1.0, 1.0, 2.0],
            &[-1.0, -1.0, 0.0, 0.0, 0.0],
            &[0.0; 5],
            &[INF; 5],
        );
        let s = solve(&p).unwrap();
        assert!((s.objective + 2.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_rows() {
        // min x s.t. -x ≤ -3 (i.e. x ≥ 3) with slack.
        let p = lp(
            &[&[-1.0, 1.0]],
            &[-3.0],
            &[1.0, 0.0],
            &[0.0, 0.0],
            &[INF, INF],
        );
        let s = solve(&p).unwrap();
        assert!((s.x[0] - 3.0).abs() < 1e-7);
    }

    /// The crash basis a solver builds for `lp`: (artificial columns, the
    /// row count that needs phase 1).
    fn crash(lp: &CoreLp) -> (usize, usize) {
        let mut solver = Solver::new(lp, LuBasis::new(32), SimplexOptions::default());
        solver.crash_basis();
        let artificials = solver.cols.ncols() - solver.n_orig;
        let violated = solver
            .basis
            .iter()
            .zip(&solver.xb)
            .filter(|&(&j, &v)| j >= solver.n_orig && v > solver.opts.feas_tol)
            .count();
        (artificials, violated)
    }

    /// min x + 2y s.t. x + y − s₁ = 10 (s₁ ≥ 0), x − y + s₂ = 2 (s₂ ≥ 0),
    /// x, y ∈ [0, 10]: optimum (6, 4), objective 14.
    fn ge_le_pair() -> CoreLp {
        lp(
            &[&[1.0, 1.0, -1.0, 0.0], &[1.0, -1.0, 0.0, 1.0]],
            &[10.0, 2.0],
            &[1.0, 2.0, 0.0, 0.0],
            &[0.0; 4],
            &[10.0, 10.0, INF, INF],
        )
    }

    #[test]
    fn feasible_start_creates_no_artificial_column() {
        // The default start (0, 0) violates x + y ≥ 10, so its crash needs
        // an artificial; the feasible start (6, 5) leaves both slacks at 1.
        let mut p = ge_le_pair();
        assert_eq!(crash(&p), (1, 1));
        p.start = vec![6.0, 5.0, 0.0, 0.0];
        assert_eq!(crash(&p), (0, 0));
        let s = p.solve_with(LuBasis::new(32), SimplexOptions::default()).unwrap();
        assert!((s.objective - 14.0).abs() < 1e-7, "objective {}", s.objective);
    }

    #[test]
    fn infeasible_start_runs_phase1_on_violated_rows_only() {
        // (9, 4) violates only x − y ≤ 2; (5, 1) violates both rows.
        let mut p = ge_le_pair();
        p.start = vec![9.0, 4.0, 0.0, 0.0];
        assert_eq!(crash(&p), (1, 1));
        let s = p.solve_with(LuBasis::new(32), SimplexOptions::default()).unwrap();
        assert!((s.objective - 14.0).abs() < 1e-7, "objective {}", s.objective);
        p.start = vec![5.0, 1.0, 0.0, 0.0];
        assert_eq!(crash(&p), (2, 2));
    }

    #[test]
    fn start_between_bounds_prices_both_ways() {
        // min x − y over x, y ∈ [0, 10] with x + y ≤ 12 (slack s), started
        // mid-box: x must fall to its lower bound, y climb to its upper.
        let mut p =
            lp(&[&[1.0, 1.0, 1.0]], &[12.0], &[1.0, -1.0, 0.0], &[0.0; 3], &[10.0, 10.0, INF]);
        p.start = vec![3.0, 4.0, 0.0];
        for engine_lu in [true, false] {
            let s = if engine_lu {
                p.solve_with(LuBasis::new(32), SimplexOptions::default())
            } else {
                p.solve_with(DenseBasis::new(), SimplexOptions::default())
            }
            .unwrap();
            assert!((s.x[0]).abs() < 1e-7 && (s.x[1] - 10.0).abs() < 1e-7, "{:?}", s.x);
            assert!((s.objective + 10.0).abs() < 1e-7);
        }
    }

    #[test]
    fn fixed_variables_respected() {
        // y fixed at 2: min x s.t. x + y = 5 → x = 3.
        let p = lp(&[&[1.0, 1.0]], &[5.0], &[1.0, 0.0], &[0.0, 2.0], &[INF, 2.0]);
        let s = solve(&p).unwrap();
        assert!((s.x[0] - 3.0).abs() < 1e-7);
        assert!((s.x[1] - 2.0).abs() < 1e-7);
    }
}
