//! Randomized validation of the simplex solver.
//!
//! Strategy: generate LPs that are feasible by construction (rows are built
//! around a known interior point), solve them, and then *verify* the answer
//! independently — primal feasibility plus optimality certified against a
//! sampling of random feasible directions and against the dense-engine
//! oracle.

use info_lp::basis::{DenseBasis, LuBasis};
use info_lp::{Cmp, Model, SimplexOptions};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// One raw constraint row: terms, comparison, rhs.
type RawRow = (Vec<(usize, f64)>, Cmp, f64);

/// Raw LP data: (lb, ub, obj, rows, known interior point).
type RawLp = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<RawRow>, Vec<f64>);

/// Checks primal feasibility of `x` for the model-building data.
#[allow(clippy::too_many_arguments)]
fn assert_feasible(
    x: &[f64],
    lb: &[f64],
    ub: &[f64],
    rows: &[RawRow],
    tol: f64,
) {
    for (j, &v) in x.iter().enumerate() {
        assert!(v >= lb[j] - tol, "x[{j}] = {v} below lb {}", lb[j]);
        assert!(v <= ub[j] + tol, "x[{j}] = {v} above ub {}", ub[j]);
    }
    for (i, (terms, cmp, rhs)) in rows.iter().enumerate() {
        let lhs: f64 = terms.iter().map(|&(j, c)| c * x[j]).sum();
        match cmp {
            Cmp::Le => assert!(lhs <= rhs + tol, "row {i}: {lhs} > {rhs}"),
            Cmp::Ge => assert!(lhs >= rhs - tol, "row {i}: {lhs} < {rhs}"),
            Cmp::Eq => assert!((lhs - rhs).abs() <= tol, "row {i}: {lhs} != {rhs}"),
        }
    }
}

/// Builds a model from the raw data, optionally with a start point.
fn build(lb: &[f64], ub: &[f64], obj: &[f64], rows: &[RawRow], start: Option<&[f64]>) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..lb.len()).map(|j| m.add_var(lb[j], ub[j], obj[j])).collect();
    for (&v, &x) in vars.iter().zip(start.unwrap_or_default()) {
        m.set_start(v, x);
    }
    for (terms, cmp, rhs) in rows {
        m.add_row(terms.iter().map(|&(j, c)| (vars[j], c)), *cmp, *rhs);
    }
    m
}

/// Random feasible-by-construction LP; returns (lb, ub, obj, rows, interior).
fn random_lp(
    rng: &mut impl Rng,
    n: usize,
    m: usize,
) -> RawLp {
    // Interior point inside a box.
    let lb: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..0.0)).collect();
    let ub: Vec<f64> = lb.iter().map(|&l| l + rng.gen_range(1.0..10.0)).collect();
    let x0: Vec<f64> = (0..n)
        .map(|j| {
            let t: f64 = rng.gen_range(0.2..0.8);
            lb[j] + t * (ub[j] - lb[j])
        })
        .collect();
    let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let mut rows = Vec::with_capacity(m);
    for _ in 0..m {
        let k = rng.gen_range(1..=3.min(n));
        let mut terms = Vec::with_capacity(k);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..k {
            let j = rng.gen_range(0..n);
            if seen.insert(j) {
                terms.push((j, rng.gen_range(-3.0..3.0)));
            }
        }
        let lhs0: f64 = terms.iter().map(|&(j, c)| c * x0[j]).sum();
        // Keep x0 feasible with positive slack so the LP stays feasible.
        let slack = rng.gen_range(0.5..3.0);
        let cmp = if rng.gen_bool(0.5) { Cmp::Le } else { Cmp::Ge };
        let rhs = match cmp {
            Cmp::Le => lhs0 + slack,
            Cmp::Ge => lhs0 - slack,
            Cmp::Eq => unreachable!(),
        };
        rows.push((terms, cmp, rhs));
    }
    (lb, ub, obj, rows, x0)
}

#[test]
fn random_lps_solve_and_verify() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    for trial in 0..60 {
        let n = rng.gen_range(2..12);
        let m = rng.gen_range(1..15);
        let (lb, ub, obj, rows, x0) = random_lp(&mut rng, n, m);
        let model = build(&lb, &ub, &obj, &rows, None);
        let sol = model
            .solve()
            .unwrap_or_else(|e| panic!("trial {trial}: solver failed on feasible LP: {e}"));
        assert_feasible(&sol.values, &lb, &ub, &rows, 1e-6);
        // The known interior point is feasible, so the optimum can be no worse.
        let obj0: f64 = x0.iter().zip(obj.iter()).map(|(a, b)| a * b).sum();
        assert!(
            sol.objective <= obj0 + 1e-6,
            "trial {trial}: optimum {} worse than interior point {obj0}",
            sol.objective
        );
        // Monte-Carlo optimality spot check: random feasible perturbations
        // of the optimum should never improve the objective.
        for _ in 0..50 {
            let xr: Vec<f64> = (0..n)
                .map(|j| {
                    let t: f64 = rng.gen_range(0.0..1.0);
                    lb[j] + t * (ub[j] - lb[j])
                })
                .collect();
            let feas = rows.iter().all(|(terms, cmp, rhs)| {
                let lhs: f64 = terms.iter().map(|&(j, c)| c * xr[j]).sum();
                match cmp {
                    Cmp::Le => lhs <= *rhs,
                    Cmp::Ge => lhs >= *rhs,
                    Cmp::Eq => (lhs - rhs).abs() < 1e-9,
                }
            });
            if feas {
                let o: f64 = xr.iter().zip(obj.iter()).map(|(a, b)| a * b).sum();
                assert!(
                    sol.objective <= o + 1e-6,
                    "trial {trial}: sampled point beats 'optimum' ({o} < {})",
                    sol.objective
                );
            }
        }
    }
}

#[test]
fn sparse_and_dense_engines_agree_on_random_lps() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    for _ in 0..40 {
        let n = rng.gen_range(2..10);
        let m = rng.gen_range(1..10);
        let (lb, ub, obj, rows, _) = random_lp(&mut rng, n, m);
        let model = build(&lb, &ub, &obj, &rows, None);
        let core = model.to_core();
        let s_sparse = model.solve().expect("sparse solve");
        let s_dense = core
            .solve_with(DenseBasis::new(), SimplexOptions::default())
            .expect("dense solve");
        assert!(
            (s_sparse.objective - s_dense.objective).abs()
                < 1e-6 * (1.0 + s_sparse.objective.abs()),
            "objective mismatch: sparse {} vs dense {}",
            s_sparse.objective,
            s_dense.objective
        );
    }
}

#[test]
fn equality_systems_with_known_solutions() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for _ in 0..30 {
        // Square nonsingular-ish system A x = b with x0 the designated
        // solution and bounds wide enough that x0 is the unique feasible
        // point of the equalities within a full-rank square system.
        let n = rng.gen_range(2..8);
        let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let mut rows = Vec::new();
        for i in 0..n {
            let terms: Vec<(usize, f64)> = (0..n)
                .map(|j| {
                    let base: f64 = rng.gen_range(-2.0..2.0);
                    (j, if i == j { base + 5.0 } else { base })
                })
                .collect();
            let rhs: f64 = terms.iter().map(|&(j, c)| c * x0[j]).sum();
            rows.push((terms, Cmp::Eq, rhs));
        }
        let lb = vec![-100.0; n];
        let ub = vec![100.0; n];
        let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let model = build(&lb, &ub, &obj, &rows, None);
        let sol = model.solve().expect("full-rank equality system is feasible");
        for (j, (sv, xv)) in sol.values.iter().zip(&x0).enumerate() {
            assert!((sv - xv).abs() < 1e-5, "x[{j}] = {sv} expected {xv}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn starting_at_a_feasible_point_reaches_the_cold_optimum(seed in 0u64..10_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..10);
        let m = rng.gen_range(1..12);
        let (lb, ub, obj, rows, x0) = random_lp(&mut rng, n, m);
        let cold = build(&lb, &ub, &obj, &rows, None);
        let started = build(&lb, &ub, &obj, &rows, Some(&x0));
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()));
        let opts = SimplexOptions::default();
        let want = cold.solve().expect("feasible by construction").objective;
        let lu = started.solve().expect("solve from the start");
        assert_feasible(&lu.values, &lb, &ub, &rows, 1e-6);
        prop_assert!(close(lu.objective, want), "LU from start {} vs cold {want}", lu.objective);
        let core = started.to_core();
        let lu_core = core.solve_with(LuBasis::new(opts.refactor_every), opts).expect("LU core");
        prop_assert!(close(lu_core.objective, want), "LU core {} vs {want}", lu_core.objective);
        let dense = core.solve_with(DenseBasis::new(), opts).expect("dense core");
        prop_assert!(close(dense.objective, want), "dense {} vs {want}", dense.objective);
    }

    #[test]
    fn seeded_lps_never_violate_feasibility(seed in 0u64..10_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..8);
        let m = rng.gen_range(1..8);
        let (lb, ub, obj, rows, _) = random_lp(&mut rng, n, m);
        let model = build(&lb, &ub, &obj, &rows, None);
        let sol = model.solve().expect("feasible by construction");
        assert_feasible(&sol.values, &lb, &ub, &rows, 1e-6);
    }

    #[test]
    fn scaling_objective_scales_optimum(seed in 0u64..3_000, k in 1.0f64..10.0) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..6);
        let m = rng.gen_range(1..6);
        let (lb, ub, obj, rows, _) = random_lp(&mut rng, n, m);
        let m1 = build(&lb, &ub, &obj, &rows, None);
        let scaled: Vec<f64> = obj.iter().map(|c| c * k).collect();
        let m2 = build(&lb, &ub, &scaled, &rows, None);
        let s1 = m1.solve().expect("feasible");
        let s2 = m2.solve().expect("feasible");
        prop_assert!(
            (s2.objective - k * s1.objective).abs() < 1e-5 * (1.0 + s2.objective.abs()),
            "scaling mismatch: {} vs {}", s2.objective, k * s1.objective
        );
    }
}
