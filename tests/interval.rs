//! Integration tests for the interval/box-constrained extension
//! (Harrigan–Buchanan 1984 interval estimates; Ohuchi–Kaji 1984 bounds).

#![allow(clippy::needless_range_loop)] // parallel-array numeric idiom

use proptest::prelude::*;
use sea::core::interval::BoundedSolution;
use sea::core::{solve_bounded_supervised, solve_diagonal_supervised, BoundedProblem, SeaOptions};
use sea::core::{DiagonalProblem, NullObserver, SeaError, SupervisorOptions, TotalSpec};
use sea::linalg::DenseMatrix;

/// A default-options bounded solve, returning just the solution.
fn solve_bounded(
    p: &BoundedProblem,
    epsilon: f64,
    max_iterations: usize,
) -> Result<BoundedSolution, SeaError> {
    let opts = SeaOptions {
        max_iterations,
        ..SeaOptions::with_epsilon(epsilon)
    };
    solve_bounded_supervised(p, &opts, &SupervisorOptions::default(), &mut NullObserver)
        .map(|s| s.solution)
}

fn growth_problem(n: usize, seed: u64) -> (DenseMatrix, DenseMatrix, Vec<f64>, Vec<f64>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let x0 = DenseMatrix::from_vec(
        n,
        n,
        (0..n * n).map(|_| rng.random_range(1.0..50.0)).collect(),
    )
    .unwrap();
    let gamma =
        DenseMatrix::from_vec(n, n, x0.as_slice().iter().map(|&v| 1.0 / v).collect()).unwrap();
    let s0: Vec<f64> = x0
        .row_sums()
        .iter()
        .map(|v| v * rng.random_range(0.9..1.3))
        .collect();
    let mut d0: Vec<f64> = x0
        .col_sums()
        .iter()
        .map(|v| v * rng.random_range(0.9..1.3))
        .collect();
    let f: f64 = s0.iter().sum::<f64>() / d0.iter().sum::<f64>();
    for v in &mut d0 {
        *v *= f;
    }
    (x0, gamma, s0, d0)
}

#[test]
fn interval_constraints_tighten_the_estimate() {
    let (x0, gamma, s0, d0) = growth_problem(6, 1);
    // Free solve first.
    let free_p = DiagonalProblem::new(
        x0.clone(),
        gamma.clone(),
        TotalSpec::Fixed {
            s0: s0.clone(),
            d0: d0.clone(),
        },
    )
    .unwrap();
    let sup = SupervisorOptions::default();
    let free = solve_diagonal_supervised(
        &free_p,
        &SeaOptions::with_epsilon(1e-10),
        &sup,
        &mut NullObserver,
    )
    .unwrap()
    .solution;

    // Harrigan–Buchanan style intervals: each entry within ±20 % of prior.
    let lo = DenseMatrix::from_vec(6, 6, x0.as_slice().iter().map(|&v| 0.8 * v).collect()).unwrap();
    let hi =
        DenseMatrix::from_vec(6, 6, x0.as_slice().iter().map(|&v| 1.45 * v).collect()).unwrap();
    let bounded_p = BoundedProblem::new(x0.clone(), gamma, lo, hi, s0, d0).unwrap();
    let bounded = solve_bounded(&bounded_p, 1e-9, 100_000).unwrap();
    assert!(bounded.converged);

    // Bounds respected everywhere; objective no better than the free one.
    for (k, &v) in bounded.x.as_slice().iter().enumerate() {
        let x0v = x0.as_slice()[k];
        assert!(v >= 0.8 * x0v - 1e-9 && v <= 1.45 * x0v + 1e-9, "entry {k}");
    }
    assert!(bounded.objective >= free.stats.objective - 1e-9);
}

#[test]
fn equal_bounds_fix_entries_exactly() {
    let (x0, gamma, s0, d0) = growth_problem(4, 2);
    let mut lo = DenseMatrix::filled(4, 4, 0.0).unwrap();
    let mut hi = DenseMatrix::filled(4, 4, 1e9).unwrap();
    // Pin two entries at prescribed values.
    lo.set(1, 2, 7.5);
    hi.set(1, 2, 7.5);
    lo.set(3, 0, 3.25);
    hi.set(3, 0, 3.25);
    let p = BoundedProblem::new(x0, gamma, lo, hi, s0, d0).unwrap();
    let sol = solve_bounded(&p, 1e-10, 100_000).unwrap();
    assert!(sol.converged);
    assert!((sol.x.get(1, 2) - 7.5).abs() < 1e-9);
    assert!((sol.x.get(3, 0) - 3.25).abs() < 1e-9);
    assert!(sol.residuals.rel_row_inf < 1e-8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bounded_solutions_feasible_within_bounds(
        n in 2usize..6,
        seed in 0u64..200,
        width in 0.3f64..1.0,
    ) {
        let (x0, gamma, s0, d0) = growth_problem(n, seed);
        // Wide enough bounds that margins remain attainable: guaranteed by
        // checking construction feasibility and skipping otherwise.
        let lo = DenseMatrix::from_vec(n, n,
            x0.as_slice().iter().map(|&v| (1.0 - width) * v).collect()).unwrap();
        let hi = DenseMatrix::from_vec(n, n,
            x0.as_slice().iter().map(|&v| (1.0 + width) * 1.6 * v).collect()).unwrap();
        let p = match BoundedProblem::new(x0.clone(), gamma, lo.clone(), hi.clone(), s0.clone(), d0.clone()) {
            Ok(p) => p,
            Err(_) => return Ok(()), // margins outside bound envelope: skip
        };
        let sol = solve_bounded(&p, 1e-8, 100_000).unwrap();
        prop_assume!(sol.converged);
        let scale: f64 = s0.iter().sum();
        let rs = sol.x.row_sums();
        let cs = sol.x.col_sums();
        for i in 0..n {
            prop_assert!((rs[i] - s0[i]).abs() / scale < 1e-6);
        }
        for j in 0..n {
            prop_assert!((cs[j] - d0[j]).abs() / scale < 1e-6);
        }
        for k in 0..n*n {
            prop_assert!(sol.x.as_slice()[k] >= lo.as_slice()[k] - 1e-8);
            prop_assert!(sol.x.as_slice()[k] <= hi.as_slice()[k] + 1e-8);
        }
    }
}
