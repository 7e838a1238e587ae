//! User-facing LP model builder.

use crate::basis::LuBasis;
use crate::error::LpError;
use crate::simplex::{bound_start, CoreLp, SimplexOptions, SolveStatus};
use crate::sparse::{ColMatrix, SparseVec};
use std::ops::Index;

/// Handle to a variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

/// Handle to a constraint row in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub(crate) usize);

/// Comparison operator of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

#[derive(Debug, Clone)]
struct RowData {
    entries: Vec<(usize, f64)>,
    cmp: Cmp,
    rhs: f64,
}

/// An LP model under construction: variables with bounds and objective
/// coefficients, plus `≤ / ≥ / =` constraint rows. Minimization only (negate
/// the objective to maximize).
///
/// # Example
///
/// ```
/// use info_lp::{Model, Cmp};
/// # fn main() -> Result<(), info_lp::LpError> {
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 10.0, -1.0); // maximize x
/// m.add_row([(x, 2.0)], Cmp::Le, 8.0);
/// let sol = m.solve()?;
/// assert!((sol[x] - 4.0).abs() < 1e-7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Model {
    lb: Vec<f64>,
    ub: Vec<f64>,
    obj: Vec<f64>,
    start: Vec<Option<f64>>,
    rows: Vec<RowData>,
    options: SimplexOptions,
}

/// Optimal solution of a [`Model`]. Index it by [`VarId`] for values.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Always [`SolveStatus::Optimal`]; non-optimal outcomes are reported
    /// as [`LpError`]s instead.
    pub status: SolveStatus,
    /// Optimal objective value.
    pub objective: f64,
    /// Variable values, indexed by [`VarId`] position.
    pub values: Vec<f64>,
    /// Simplex iterations used.
    pub iterations: usize,
}

impl Index<VarId> for Solution {
    type Output = f64;
    fn index(&self, v: VarId) -> &f64 {
        &self.values[v.0]
    }
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Overrides the default simplex options.
    pub fn set_options(&mut self, options: SimplexOptions) {
        self.options = options;
    }

    /// Adds a variable with bounds `[lb, ub]` (either may be infinite) and
    /// objective coefficient `obj`.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        self.lb.push(lb);
        self.ub.push(ub);
        self.obj.push(obj);
        self.start.push(None);
        VarId(self.lb.len() - 1)
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.lb.len()
    }

    /// Number of constraint rows added so far.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Adds the constraint `Σ coefᵢ·varᵢ  cmp  rhs`.
    pub fn add_row<I>(&mut self, terms: I, cmp: Cmp, rhs: f64) -> RowId
    where
        I: IntoIterator<Item = (VarId, f64)>,
    {
        let entries = terms.into_iter().map(|(v, c)| (v.0, c)).collect();
        self.rows.push(RowData { entries, cmp, rhs });
        RowId(self.rows.len() - 1)
    }

    /// Changes a variable's objective coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this model.
    pub fn set_obj(&mut self, v: VarId, obj: f64) {
        self.obj[v.0] = obj;
    }

    /// Changes a variable's bounds.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this model.
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        self.lb[v.0] = lb;
        self.ub[v.0] = ub;
    }

    /// Sets the value `v` takes in the simplex's starting point (clamped
    /// into its bounds). A variable without one starts at its finite lower
    /// bound, else its finite upper bound, else zero. A start that
    /// satisfies every row goes straight to phase 2; rows it violates are
    /// repaired by phase 1.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this model.
    pub fn set_start(&mut self, v: VarId, value: f64) {
        self.start[v.0] = Some(value);
    }

    /// Lowers the model into computational form: every row gets a slack
    /// column (`≤` → slack in `[0, ∞)`, `≥` → `(-∞, 0]`, `=` → fixed 0),
    /// turning all rows into equalities.
    pub fn to_core(&self) -> CoreLp {
        let n = self.num_vars();
        let m = self.rows.len();
        let mut cols = ColMatrix::new(m);
        // Structural columns: gather entries row-by-row into columns.
        let mut per_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (i, row) in self.rows.iter().enumerate() {
            for &(j, c) in &row.entries {
                per_col[j].push((i, c));
            }
        }
        for entries in per_col {
            cols.push_col(SparseVec::from_entries(entries));
        }
        let mut lb = self.lb.clone();
        let mut ub = self.ub.clone();
        let mut obj = self.obj.clone();
        let mut start: Vec<f64> = (0..n)
            .map(|j| self.start[j].unwrap_or_else(|| bound_start(self.lb[j], self.ub[j])))
            .collect();
        let mut rhs = Vec::with_capacity(m);
        for (i, row) in self.rows.iter().enumerate() {
            cols.push_col(SparseVec::from_entries([(i, 1.0)]));
            let (slb, sub) = match row.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lb.push(slb);
            ub.push(sub);
            obj.push(0.0);
            start.push(0.0);
            rhs.push(row.rhs);
        }
        CoreLp { cols, obj, lb, ub, rhs, start }
    }

    /// Solves the model to optimality with the sparse LU engine, from the
    /// start point set by [`Model::set_start`].
    ///
    /// A light presolve runs first: every one-variable row is folded into
    /// its variable's bounds (an `=` row fixes it), then variables fixed by
    /// their bounds (`lb == ub`) are substituted into the rows, and rows
    /// left without variables are checked for consistency. Crossed bounds
    /// and inconsistent constants make the model [`LpError::Infeasible`]
    /// without a simplex run.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`], or a numerical
    /// failure ([`LpError::SingularBasis`], [`LpError::IterationLimit`]).
    pub fn solve(&self) -> Result<Solution, LpError> {
        for (j, (&l, &u)) in self.lb.iter().zip(self.ub.iter()).enumerate() {
            if l > u {
                return Err(LpError::InvalidModel(format!("variable {j}: lb {l} > ub {u}")));
            }
        }
        for (i, row) in self.rows.iter().enumerate() {
            if !row.rhs.is_finite() {
                return Err(LpError::InvalidModel(format!("row {i}: non-finite rhs")));
            }
            for &(j, c) in &row.entries {
                if j >= self.num_vars() {
                    return Err(LpError::InvalidModel(format!("row {i}: unknown variable {j}")));
                }
                if !c.is_finite() {
                    return Err(LpError::InvalidModel(format!("row {i}: non-finite coefficient")));
                }
            }
        }
        const FEAS_EPS: f64 = 1e-7;

        // --- Presolve 1: fold one-variable rows into bounds.
        let n = self.num_vars();
        let (mut lb, mut ub) = (self.lb.clone(), self.ub.clone());
        let mut rows: Vec<&RowData> = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let Some(&(j, _)) = row.entries.first() else {
                rows.push(row);
                continue;
            };
            let a: f64 = row.entries.iter().map(|&(_, c)| c).sum();
            if a == 0.0 || row.entries.iter().any(|&(k, _)| k != j) {
                rows.push(row); // several variables, or a vanishing one
                continue;
            }
            let v = row.rhs / a;
            match (row.cmp, a > 0.0) {
                (Cmp::Eq, _) => (lb[j], ub[j]) = (lb[j].max(v), ub[j].min(v)),
                (Cmp::Le, true) | (Cmp::Ge, false) => ub[j] = ub[j].min(v),
                (Cmp::Ge, true) | (Cmp::Le, false) => lb[j] = lb[j].max(v),
            }
            if lb[j] > ub[j] {
                if lb[j] - ub[j] > FEAS_EPS {
                    return Err(LpError::Infeasible);
                }
                let mid = 0.5 * (lb[j] + ub[j]);
                (lb[j], ub[j]) = (mid, mid);
            }
        }

        // --- Presolve 2: substitute fixed variables, drop empty rows.
        let fixed: Vec<bool> = (0..n).map(|j| lb[j] == ub[j]).collect();
        let mut reduced = Model::new();
        reduced.set_options(self.options);
        let mut map = vec![usize::MAX; n];
        let mut fixed_obj = 0.0;
        for j in 0..n {
            if fixed[j] {
                fixed_obj += self.obj[j] * lb[j];
            } else {
                let v = reduced.add_var(lb[j], ub[j], self.obj[j]);
                reduced.start[v.0] = self.start[j];
                map[j] = v.0;
            }
        }
        for row in rows {
            let mut rhs = row.rhs;
            let mut terms: Vec<(VarId, f64)> = Vec::with_capacity(row.entries.len());
            for &(j, c) in &row.entries {
                if fixed[j] {
                    rhs -= c * lb[j];
                } else {
                    terms.push((VarId(map[j]), c));
                }
            }
            if terms.is_empty() {
                // Constant row: verify it holds.
                let ok = match row.cmp {
                    Cmp::Le => 0.0 <= rhs + FEAS_EPS,
                    Cmp::Ge => 0.0 >= rhs - FEAS_EPS,
                    Cmp::Eq => rhs.abs() <= FEAS_EPS,
                };
                if !ok {
                    return Err(LpError::Infeasible);
                }
                continue;
            }
            reduced.add_row(terms, row.cmp, rhs);
        }
        let engine = LuBasis::new(self.options.refactor_every);
        let sol = reduced.to_core().solve_with(engine, self.options)?;
        // Scatter back to the full variable space.
        let values: Vec<f64> =
            (0..n).map(|j| if fixed[j] { lb[j] } else { sol.x[map[j]] }).collect();
        let objective: f64 = sol
            .x
            .iter()
            .take(reduced.num_vars())
            .zip(reduced.obj.iter())
            .map(|(a, b)| a * b)
            .sum::<f64>()
            + fixed_obj;
        Ok(Solution {
            status: SolveStatus::Optimal,
            objective,
            values,
            iterations: sol.iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_ge_eq_rows() {
        // min 2x + 3y  s.t. x + y ≥ 4, x − y ≤ 2, x + 2y = 6, x, y ≥ 0.
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY, 2.0);
        let y = m.add_var(0.0, f64::INFINITY, 3.0);
        m.add_row([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        m.add_row([(x, 1.0), (y, -1.0)], Cmp::Le, 2.0);
        m.add_row([(x, 1.0), (y, 2.0)], Cmp::Eq, 6.0);
        let s = m.solve().unwrap();
        // Feasible points satisfy x + 2y = 6; objective 2x + 3y.
        // From x = 6 − 2y: obj = 12 − y, so maximize y subject to
        // x + y ≥ 4 → 6 − y ≥ 4 → y ≤ 2, and x − y ≤ 2 → 6 − 3y ≤ 2 → y ≥ 4/3.
        // Optimum at y = 2, x = 2, obj = 10.
        assert!((s.objective - 10.0).abs() < 1e-6, "objective {}", s.objective);
        assert!((s[x] - 2.0).abs() < 1e-6);
        assert!((s[y] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut m = Model::new();
        m.add_var(2.0, 1.0, 0.0);
        assert!(matches!(m.solve(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn empty_model_solves() {
        let m = Model::new();
        let s = m.solve().unwrap();
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn wirelength_style_lp() {
        // A miniature of the layout LP: points p1, p2 on a horizontal wire
        // y = c, length = x2 − x1 (x2 ≥ x1 frozen by the initial layout);
        // spacing: c ≤ 10 − 2; endpoints pinned at x1 = 0, x2 ≥ 5.
        let mut m = Model::new();
        let x1 = m.add_var(0.0, 0.0, 0.0); // fixed pin
        let x2 = m.add_var(5.0, f64::INFINITY, 1.0); // minimize x2 (length)
        let c = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        m.add_row([(c, 1.0)], Cmp::Le, 8.0);
        m.add_row([(c, 1.0)], Cmp::Ge, 1.0);
        m.add_row([(x2, 1.0), (x1, -1.0)], Cmp::Ge, 5.0);
        let s = m.solve().unwrap();
        assert!((s[x2] - 5.0).abs() < 1e-7);
        assert!(s[c] >= 1.0 - 1e-7 && s[c] <= 8.0 + 1e-7);
    }

    #[test]
    fn presolve_substitutes_fixed_variables() {
        // y fixed at 4; row x + y ≤ 10 becomes x ≤ 6.
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY, -1.0); // maximize x
        let y = m.add_var(4.0, 4.0, 3.0);
        m.add_row([(x, 1.0), (y, 1.0)], Cmp::Le, 10.0);
        let s = m.solve().unwrap();
        assert!((s[x] - 6.0).abs() < 1e-7);
        assert_eq!(s[y], 4.0);
        // Objective includes the fixed contribution 3·4.
        assert!((s.objective - (-6.0 + 12.0)).abs() < 1e-7);
    }

    #[test]
    fn presolve_detects_constant_row_infeasibility() {
        let mut m = Model::new();
        let x = m.add_var(2.0, 2.0, 1.0);
        let y = m.add_var(3.0, 3.0, 1.0);
        m.add_row([(x, 1.0), (y, 1.0)], Cmp::Eq, 6.0); // 5 ≠ 6
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
        // And a consistent constant row is fine.
        let mut m2 = Model::new();
        let x2 = m2.add_var(2.0, 2.0, 1.0);
        m2.add_row([(x2, 1.0)], Cmp::Le, 2.0);
        assert!(m2.solve().is_ok());
    }

    #[test]
    fn presolve_all_fixed_model() {
        let mut m = Model::new();
        let x = m.add_var(1.5, 1.5, 2.0);
        let y = m.add_var(-0.5, -0.5, 4.0);
        m.add_row([(x, 1.0), (y, 1.0)], Cmp::Le, 2.0);
        let s = m.solve().unwrap();
        assert_eq!(s[x], 1.5);
        assert_eq!(s[y], -0.5);
        assert!((s.objective - 1.0).abs() < 1e-9);
    }

    /// `min obj·x` over one variable in `[lb, ub]` with one extra row.
    fn one_var(lb: f64, ub: f64, obj: f64, coef: f64, cmp: Cmp, rhs: f64) -> Result<f64, LpError> {
        let mut m = Model::new();
        let x = m.add_var(lb, ub, obj);
        m.add_row([(x, coef)], cmp, rhs);
        m.solve().map(|s| s[x])
    }

    #[test]
    fn fold_keeps_the_tightest_bound() {
        // x ∈ [0, 10], 2x ≤ 8 → x ≤ 4 binds; 2x ≤ 30 leaves ub = 10.
        assert!((one_var(0.0, 10.0, -1.0, 2.0, Cmp::Le, 8.0).unwrap() - 4.0).abs() < 1e-9);
        assert!((one_var(0.0, 10.0, -1.0, 2.0, Cmp::Le, 30.0).unwrap() - 10.0).abs() < 1e-9);
        // A lower-bound row tighter than lb: x ≥ 3.
        assert!((one_var(0.0, 10.0, 1.0, 1.0, Cmp::Ge, 3.0).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fold_flips_on_a_negative_coefficient() {
        // −2x ≤ −6 is x ≥ 3; −x ≥ −5 is x ≤ 5.
        assert!((one_var(0.0, 10.0, 1.0, -2.0, Cmp::Le, -6.0).unwrap() - 3.0).abs() < 1e-9);
        assert!((one_var(0.0, 10.0, -1.0, -1.0, Cmp::Ge, -5.0).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fold_eq_fixes_the_variable() {
        // 4x = 6 fixes x = 1.5, which then substitutes into x + y ≥ 4.
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, -1.0);
        let y = m.add_var(0.0, 10.0, 1.0);
        m.add_row([(x, 4.0)], Cmp::Eq, 6.0);
        m.add_row([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        let s = m.solve().unwrap();
        assert_eq!(s[x], 1.5);
        assert!((s[y] - 2.5).abs() < 1e-9);
        assert!((s.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fold_detects_crossed_singletons() {
        // x ≥ 5 and x ≤ 4 cross; so does x = 11 against ub 10.
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, 1.0);
        m.add_row([(x, 1.0)], Cmp::Ge, 5.0);
        m.add_row([(x, 1.0)], Cmp::Le, 4.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
        assert_eq!(one_var(0.0, 10.0, 0.0, 1.0, Cmp::Eq, 11.0).unwrap_err(), LpError::Infeasible);
        // Bounds that cross by less than the tolerance collapse instead.
        let x = one_var(0.0, 10.0, 1.0, 1.0, Cmp::Ge, 10.0 + 1e-9).unwrap();
        assert!((x - 10.0).abs() < 1e-8);
    }

    #[test]
    fn maximize_by_negation() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 3.0, -1.0);
        let y = m.add_var(0.0, 3.0, -2.0);
        m.add_row([(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let s = m.solve().unwrap();
        // max x + 2y: y = 3, x = 1 → value 7, objective −7.
        assert!((s.objective + 7.0).abs() < 1e-7);
        assert!((s[y] - 3.0).abs() < 1e-7);
        assert!((s[x] - 1.0).abs() < 1e-7);
    }
}
