//! Property-based tests over randomly generated problems: feasibility,
//! KKT conditions, duality, and agreement with the independent KKT
//! reference, across all three problem classes.

#![allow(clippy::needless_range_loop)] // parallel-array numeric idiom

mod common;

use proptest::prelude::*;
use sea::core::{
    solve_diagonal_supervised, verify_solution, ConvergenceCriterion, DiagonalProblem,
    NullObserver, SeaOptions, Solution, SupervisorOptions, TotalSpec,
};
use sea::linalg::DenseMatrix;

fn random_prior(m: usize, n: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let x0 = DenseMatrix::from_vec(
        m,
        n,
        (0..m * n).map(|_| rng.random_range(0.1..100.0)).collect(),
    )
    .unwrap();
    let gamma = DenseMatrix::from_vec(
        m,
        n,
        (0..m * n).map(|_| rng.random_range(0.05..5.0)).collect(),
    )
    .unwrap();
    (x0, gamma)
}

fn tight_opts() -> SeaOptions {
    let mut o = SeaOptions::with_epsilon(1e-11);
    o.criterion = Some(ConvergenceCriterion::ConstraintNorm);
    o.max_iterations = 200_000;
    o
}

/// SEA at [`tight_opts`] under default supervision; the solution alone.
fn tight_solve(p: &DiagonalProblem) -> Solution {
    let sup = SupervisorOptions::default();
    solve_diagonal_supervised(p, &tight_opts(), &sup, &mut NullObserver)
        .unwrap()
        .solution
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fixed_solutions_satisfy_kkt_and_feasibility(
        m in 2usize..7,
        n in 2usize..7,
        seed in 0u64..500,
        row_scale in 0.3f64..3.0,
    ) {
        let (x0, gamma) = random_prior(m, n, seed);
        let s0: Vec<f64> = x0.row_sums().iter().map(|v| v * row_scale).collect();
        let total: f64 = s0.iter().sum();
        let cs = x0.col_sums();
        let ct: f64 = cs.iter().sum();
        let d0: Vec<f64> = cs.iter().map(|v| v * total / ct).collect();
        let p = DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0: s0.clone(), d0: d0.clone() }).unwrap();
        let sol = tight_solve(&p);
        prop_assert!(sol.stats.converged);

        // Feasibility.
        let scale = total.max(1.0);
        let rs = sol.x.row_sums();
        let csx = sol.x.col_sums();
        for i in 0..m {
            prop_assert!((rs[i] - s0[i]).abs() / scale < 1e-8);
        }
        for j in 0..n {
            prop_assert!((csx[j] - d0[j]).abs() / scale < 1e-8);
        }
        // Nonnegativity.
        prop_assert!(sol.x.as_slice().iter().all(|&v| v >= 0.0));
        // KKT stationarity/sign with the returned multipliers.
        for i in 0..m {
            for j in 0..n {
                let grad = 2.0 * p.gamma().get(i, j) * (sol.x.get(i, j) - p.x0().get(i, j))
                    - sol.lambda[i] - sol.mu[j];
                if sol.x.get(i, j) > 1e-6 * scale {
                    prop_assert!(grad.abs() < 1e-4 * (1.0 + grad.abs()), "grad({i},{j})={grad}");
                } else {
                    prop_assert!(grad > -1e-4, "sign({i},{j})={grad}");
                }
            }
        }
        // Weak duality at the solution (gap closes at optimum).
        let zeta = sea::core::dual::dual_value(&p, &sol.lambda, &sol.mu);
        prop_assert!(zeta <= sol.stats.objective + 1e-6 * sol.stats.objective.abs().max(1.0));
        prop_assert!((zeta - sol.stats.objective).abs() <= 1e-4 * sol.stats.objective.abs().max(1.0),
            "gap too large: {} vs {}", zeta, sol.stats.objective);
    }

    #[test]
    fn elastic_solutions_satisfy_total_stationarity(
        m in 2usize..6,
        n in 2usize..6,
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xE1A5);
        let (x0, gamma) = random_prior(m, n, seed);
        let alpha: Vec<f64> = (0..m).map(|_| rng.random_range(0.1..2.0)).collect();
        let beta: Vec<f64> = (0..n).map(|_| rng.random_range(0.1..2.0)).collect();
        let s0: Vec<f64> = x0.row_sums().iter().map(|v| v * rng.random_range(0.5..2.0)).collect();
        let d0: Vec<f64> = x0.col_sums().iter().map(|v| v * rng.random_range(0.5..2.0)).collect();
        let p = DiagonalProblem::new(
            x0, gamma,
            TotalSpec::Elastic { alpha: alpha.clone(), s0: s0.clone(), beta: beta.clone(), d0: d0.clone() },
        ).unwrap();
        let sol = tight_solve(&p);
        prop_assert!(sol.stats.converged);
        // Stationarity of the totals: λᵢ = 2αᵢ(s⁰ᵢ − sᵢ), μⱼ = 2βⱼ(d⁰ⱼ − dⱼ).
        for i in 0..m {
            let expect = 2.0 * alpha[i] * (s0[i] - sol.s[i]);
            prop_assert!((sol.lambda[i] - expect).abs() < 1e-6 * (1.0 + expect.abs()));
        }
        for j in 0..n {
            let expect = 2.0 * beta[j] * (d0[j] - sol.d[j]);
            prop_assert!((sol.mu[j] - expect).abs() < 1e-6 * (1.0 + expect.abs()));
        }
        // Flow conservation against estimated totals.
        let rs = sol.x.row_sums();
        let scale = sol.s.iter().cloned().fold(1.0_f64, f64::max);
        for i in 0..m {
            prop_assert!((rs[i] - sol.s[i]).abs() / scale < 1e-7);
        }
    }

    #[test]
    fn balanced_solutions_balance(
        n in 2usize..7,
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xBA1A);
        let (x0, gamma) = random_prior(n, n, seed);
        let alpha: Vec<f64> = (0..n).map(|_| rng.random_range(0.1..2.0)).collect();
        let s0: Vec<f64> = x0.row_sums().iter().zip(x0.col_sums())
            .map(|(r, c)| 0.5 * (r + c) * rng.random_range(0.8..1.2)).collect();
        let p = DiagonalProblem::new(x0, gamma, TotalSpec::Balanced { alpha, s0 }).unwrap();
        let sol = tight_solve(&p);
        prop_assert!(sol.stats.converged);
        let rs = sol.x.row_sums();
        let cs = sol.x.col_sums();
        let scale = rs.iter().cloned().fold(1.0_f64, f64::max);
        for i in 0..n {
            prop_assert!((rs[i] - cs[i]).abs() / scale < 1e-7,
                "account {} unbalanced: {} vs {}", i, rs[i], cs[i]);
            prop_assert!((rs[i] - sol.s[i]).abs() / scale < 1e-7);
        }
    }

    #[test]
    fn interior_fixed_solutions_match_kkt_reference(
        m in 2usize..5,
        n in 2usize..5,
        seed in 0u64..300,
    ) {
        // Margins close to the prior's own keep the equality-QP optimum
        // nonnegative, making the independent dense reference valid.
        let (x0, gamma) = random_prior(m, n, seed);
        let s0 = x0.row_sums();
        let d0 = x0.col_sums();
        let reference = common::equality_qp_reference(&x0, &gamma, &s0, &d0).unwrap();
        prop_assume!(reference.as_slice().iter().all(|&v| v >= 0.0));
        let p = DiagonalProblem::new(x0.clone(), gamma, TotalSpec::Fixed { s0, d0 }).unwrap();
        let sol = tight_solve(&p);
        let scale = x0.as_slice().iter().cloned().fold(1.0_f64, f64::max);
        prop_assert!(sol.x.max_abs_diff(&reference) / scale < 1e-7,
            "diff {}", sol.x.max_abs_diff(&reference));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One oracle to rule them all: the public `verify_solution` KKT report
    /// must certify optimality on random instances of every problem class.
    #[test]
    fn kkt_oracle_certifies_all_classes(
        m in 2usize..6,
        n in 2usize..6,
        seed in 0u64..300,
        class in 0u8..3,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x0C1A55);
        let side = if class == 2 { m } else { n }; // balanced needs square
        let (x0, gamma) = random_prior(m, if class == 2 { m } else { side }, seed);
        let spec = match class {
            0 => {
                let s0: Vec<f64> = x0.row_sums().iter().map(|v| v * 1.2).collect();
                let total: f64 = s0.iter().sum();
                let cs = x0.col_sums();
                let ct: f64 = cs.iter().sum();
                let d0: Vec<f64> = cs.iter().map(|v| v * total / ct).collect();
                TotalSpec::Fixed { s0, d0 }
            }
            1 => TotalSpec::Elastic {
                alpha: (0..x0.rows()).map(|_| rng.random_range(0.1..2.0)).collect(),
                s0: x0.row_sums().iter().map(|v| v * rng.random_range(0.5..2.0)).collect(),
                beta: (0..x0.cols()).map(|_| rng.random_range(0.1..2.0)).collect(),
                d0: x0.col_sums().iter().map(|v| v * rng.random_range(0.5..2.0)).collect(),
            },
            _ => TotalSpec::Balanced {
                alpha: (0..x0.rows()).map(|_| rng.random_range(0.1..2.0)).collect(),
                s0: x0.row_sums().iter().zip(x0.col_sums())
                    .map(|(r, c)| 0.5 * (r + c)).collect(),
            },
        };
        let p = DiagonalProblem::new(x0, gamma, spec).unwrap();
        let sol = tight_solve(&p);
        prop_assume!(sol.stats.converged);
        let report = verify_solution(&p, &sol);
        prop_assert!(report.is_optimal(1e-5), "class {}: {:?}", class, report);
    }
}
