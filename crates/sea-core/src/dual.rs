//! The dual functions `ζ₁`, `ζ₂`, `ζ₃` and their gradients (paper
//! eq. 24, 41, 51).
//!
//! SEA *is* block-coordinate ascent on these concave functions, and the
//! paper's convergence analysis rests on two of their properties, both of
//! which are verified by this module's tests:
//!
//! 1. **Weak duality** — `ζ(λ, μ)` never exceeds the primal objective of a
//!    feasible point, so the duality gap brackets the optimum.
//! 2. **Gradient = constraint violation** (eq. 25–27, 42–43) — `∂ζ/∂λᵢ` is
//!    exactly the violation of row constraint `i` by the multiplier-defined
//!    primal point, which justifies using the constraint residual as the
//!    stopping criterion.

use crate::problem::{DiagonalProblem, TotalSpec};
use crate::storage::Storage;
#[cfg(test)]
use sea_linalg::DenseMatrix;

/// One entry's term of ζ, at the entry's `λᵢ + μⱼ`.
#[inline]
pub(crate) fn entry_term(gamma: f64, x0: f64, lam_plus_mu: f64) -> f64 {
    let t = (2.0 * gamma * x0 + lam_plus_mu).max(0.0);
    -t * t / (4.0 * gamma) + gamma * x0 * x0
}

/// Evaluate the dual function of `p`'s problem class at `(λ, μ)`.
///
/// Each column's entry terms are summed in row order and the column sums
/// in column order, the association a solve's finishing sweep uses, so the
/// two agree bit for bit.
///
/// # Panics
/// Debug-panics on length mismatches.
pub fn dual_value<S: Storage>(p: &DiagonalProblem<S>, lambda: &[f64], mu: &[f64]) -> f64 {
    dual_value_with(p, lambda, mu, &mut vec![0.0; p.n()])
}

/// [`dual_value`] summing the columns in `cols` (length n), a buffer the
/// caller owns, so a solve that evaluates ζ at its checks allocates
/// nothing.
pub(crate) fn dual_value_with<S: Storage>(
    p: &DiagonalProblem<S>,
    lambda: &[f64],
    mu: &[f64],
    cols: &mut [f64],
) -> f64 {
    let (m, n) = (p.m(), p.n());
    debug_assert_eq!(lambda.len(), m);
    debug_assert_eq!(mu.len(), n);
    debug_assert_eq!(cols.len(), n);
    let x0 = p.x0();
    let gamma = p.gamma();

    cols.fill(0.0);
    for i in 0..m {
        let li = lambda[i];
        let range = x0.row_range(i);
        let (x0r, gr) = (&x0.values()[range.clone()], &gamma.values()[range]);
        // Each column sees its entries in row order in every layout, so
        // sums agree bitwise for the same logical problem.
        p.vars(i).for_each(|j, k| {
            cols[j] += entry_term(gr[k], x0r[k], li + mu[j]);
        });
    }
    dual_of_columns(p.totals(), cols.iter().copied(), lambda, mu)
}

/// ζ from each column's sum of entry terms, summed in column order, plus
/// the totals' terms at `(λ, μ)`.
pub(crate) fn dual_of_columns(
    totals: &TotalSpec,
    cols: impl IntoIterator<Item = f64>,
    lambda: &[f64],
    mu: &[f64],
) -> f64 {
    let mut z = 0.0;
    for c in cols {
        z += c;
    }
    match totals {
        TotalSpec::Fixed { s0, d0 } => {
            for i in 0..lambda.len() {
                z += lambda[i] * s0[i];
            }
            for j in 0..mu.len() {
                z += mu[j] * d0[j];
            }
        }
        TotalSpec::Elastic {
            alpha,
            s0,
            beta,
            d0,
        } => {
            for i in 0..lambda.len() {
                let t = 2.0 * alpha[i] * s0[i] - lambda[i];
                z += -t * t / (4.0 * alpha[i]) + alpha[i] * s0[i] * s0[i];
            }
            for j in 0..mu.len() {
                let t = 2.0 * beta[j] * d0[j] - mu[j];
                z += -t * t / (4.0 * beta[j]) + beta[j] * d0[j] * d0[j];
            }
        }
        TotalSpec::Balanced { alpha, s0 } => {
            for j in 0..mu.len() {
                let t = 2.0 * alpha[j] * s0[j] - lambda[j] - mu[j];
                z += -t * t / (4.0 * alpha[j]) + alpha[j] * s0[j] * s0[j];
            }
        }
    }
    z
}

/// The multiplier-defined primal point `X(λ,μ), S(λ,μ), D(λ,μ)`
/// (eq. 23a–c / 40a–b): the inner minimizer of the Lagrangian. Structural
/// zeros are kept at zero.
// Allowed: `DiagonalProblem` construction guarantees m, n >= 1 and a valid
// prior, so mirroring its pattern into a workspace cannot fail.
#[allow(clippy::expect_used)]
pub fn primal_from_multipliers<S: Storage>(
    p: &DiagonalProblem<S>,
    lambda: &[f64],
    mu: &[f64],
) -> (S, Vec<f64>, Vec<f64>) {
    let (m, n) = (p.m(), p.n());
    let mut x = p.x0().zeros_like().expect("nonempty problem");
    let x0 = p.x0();
    let gamma = p.gamma();
    for i in 0..m {
        let li = lambda[i];
        let range = x0.row_range(i);
        let (x0r, gr) = (&x0.values()[range.clone()], &gamma.values()[range]);
        let xr = x.row_values_mut(i);
        p.vars(i).for_each(|j, k| {
            xr[k] = (x0r[k] + (li + mu[j]) / (2.0 * gr[k])).max(0.0);
        });
    }
    let (s, d) = match p.totals() {
        TotalSpec::Fixed { s0, d0 } => (s0.clone(), d0.clone()),
        TotalSpec::Elastic {
            alpha,
            s0,
            beta,
            d0,
        } => {
            let s = (0..m)
                .map(|i| s0[i] - lambda[i] / (2.0 * alpha[i]))
                .collect();
            let d = (0..n).map(|j| d0[j] - mu[j] / (2.0 * beta[j])).collect();
            (s, d)
        }
        TotalSpec::Balanced { alpha, s0 } => {
            let s: Vec<f64> = (0..n)
                .map(|j| s0[j] - (lambda[j] + mu[j]) / (2.0 * alpha[j]))
                .collect();
            (s.clone(), s)
        }
    };
    (x, s, d)
}

/// Gradient of the dual at `(λ, μ)`: `grad_lambda[i] = ∂ζ/∂λᵢ =
/// Sᵢ(λ,μ) − Σⱼ Xᵢⱼ(λ,μ)` and symmetrically for `μ` — i.e. the row and
/// column constraint violations of the multiplier-defined primal point.
pub fn dual_gradient<S: Storage>(
    p: &DiagonalProblem<S>,
    lambda: &[f64],
    mu: &[f64],
    grad_lambda: &mut [f64],
    grad_mu: &mut [f64],
) {
    let (x, s, d) = primal_from_multipliers(p, lambda, mu);
    let mut row_sums = vec![0.0; p.m()];
    let mut col_sums = vec![0.0; p.n()];
    x.row_sums_into(&mut row_sums);
    x.col_sums_into(&mut col_sums);
    for i in 0..p.m() {
        grad_lambda[i] = s[i] - row_sums[i];
    }
    for j in 0..p.n() {
        grad_mu[j] = d[j] - col_sums[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ZeroPolicy;
    use proptest::prelude::*;

    fn fixed_problem() -> DiagonalProblem {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap()
    }

    fn elastic_problem() -> DiagonalProblem {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 2.0).unwrap();
        DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Elastic {
                alpha: vec![1.0, 2.0],
                s0: vec![4.0, 6.0],
                beta: vec![0.5, 1.5],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap()
    }

    #[test]
    fn zero_multipliers_give_prior_point() {
        let p = elastic_problem();
        let (x, s, d) = primal_from_multipliers(&p, &[0.0; 2], &[0.0; 2]);
        assert_eq!(x, p.x0().clone());
        assert_eq!(s, vec![4.0, 6.0]);
        assert_eq!(d, vec![5.0, 5.0]);
        // ζ at 0 equals the Lagrangian at the unconstrained minimum: for
        // elastic, all quadratic terms vanish → ζ(0,0) = 0.
        assert!(dual_value(&p, &[0.0; 2], &[0.0; 2]).abs() < 1e-12);
    }

    #[test]
    fn weak_duality_fixed() {
        let p = fixed_problem();
        // A feasible matrix for totals s0=(4,6), d0=(5,5):
        let xf = DenseMatrix::from_rows(&[vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let primal = p.objective(&xf, &[], &[]);
        for (l, u) in [([0.0, 0.0], [0.0, 0.0]), ([1.0, -1.0], [0.5, 2.0])] {
            let z = dual_value(&p, &l, &u);
            assert!(
                z <= primal + 1e-9,
                "weak duality violated: zeta={z}, primal={primal}"
            );
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let p = elastic_problem();
        let lambda = [0.7, -0.3];
        let mu = [0.2, 0.9];
        let mut gl = [0.0; 2];
        let mut gm = [0.0; 2];
        dual_gradient(&p, &lambda, &mu, &mut gl, &mut gm);
        let h = 1e-6;
        for i in 0..2 {
            let mut lp = lambda;
            lp[i] += h;
            let mut lm = lambda;
            lm[i] -= h;
            let fd = (dual_value(&p, &lp, &mu) - dual_value(&p, &lm, &mu)) / (2.0 * h);
            assert!(
                (fd - gl[i]).abs() < 1e-5,
                "dzeta/dlambda[{i}]: fd={fd} vs {}",
                gl[i]
            );
        }
        for j in 0..2 {
            let mut up = mu;
            up[j] += h;
            let mut um = mu;
            um[j] -= h;
            let fd = (dual_value(&p, &lambda, &up) - dual_value(&p, &lambda, &um)) / (2.0 * h);
            assert!(
                (fd - gm[j]).abs() < 1e-5,
                "dzeta/dmu[{j}]: fd={fd} vs {}",
                gm[j]
            );
        }
    }

    #[test]
    fn gradient_matches_finite_differences_fixed() {
        let p = fixed_problem();
        let lambda = [1.5, -2.0];
        let mu = [0.0, 3.0];
        let mut gl = [0.0; 2];
        let mut gm = [0.0; 2];
        dual_gradient(&p, &lambda, &mu, &mut gl, &mut gm);
        let h = 1e-6;
        for i in 0..2 {
            let mut lp = lambda;
            lp[i] += h;
            let mut lm = lambda;
            lm[i] -= h;
            let fd = (dual_value(&p, &lp, &mu) - dual_value(&p, &lm, &mu)) / (2.0 * h);
            assert!((fd - gl[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn gradient_matches_finite_differences_balanced() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 4.0], vec![2.0, 3.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.5).unwrap();
        let p = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Balanced {
                alpha: vec![0.7, 1.3],
                s0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let lambda = [0.4, -0.9];
        let mu = [-0.2, 0.6];
        let mut gl = [0.0; 2];
        let mut gm = [0.0; 2];
        dual_gradient(&p, &lambda, &mu, &mut gl, &mut gm);
        let h = 1e-6;
        for i in 0..2 {
            let mut lp = lambda;
            lp[i] += h;
            let mut lm = lambda;
            lm[i] -= h;
            let fd = (dual_value(&p, &lp, &mu) - dual_value(&p, &lm, &mu)) / (2.0 * h);
            assert!(
                (fd - gl[i]).abs() < 1e-5,
                "balanced dλ[{i}]: {fd} vs {}",
                gl[i]
            );
        }
        for j in 0..2 {
            let mut up = mu;
            up[j] += h;
            let mut um = mu;
            um[j] -= h;
            let fd = (dual_value(&p, &lambda, &up) - dual_value(&p, &lambda, &um)) / (2.0 * h);
            assert!(
                (fd - gm[j]).abs() < 1e-5,
                "balanced dμ[{j}]: {fd} vs {}",
                gm[j]
            );
        }
    }

    #[test]
    fn structural_zeros_excluded_from_dual() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let p = DiagonalProblem::with_zero_policy(
            x0,
            gamma,
            TotalSpec::Balanced {
                alpha: vec![1.0, 1.0],
                s0: vec![3.0, 5.0],
            },
            ZeroPolicy::Structural,
        )
        .unwrap();
        // Large positive multipliers would activate the (0,1) entry if it
        // were free; structurally it contributes nothing.
        let (x, _, _) = primal_from_multipliers(&p, &[10.0, 0.0], &[0.0, 10.0]);
        assert_eq!(x.get(0, 1), 0.0);
    }

    proptest! {
        #[test]
        fn dual_is_concave_along_random_segments(
            l0 in proptest::array::uniform2(-5.0f64..5.0),
            l1 in proptest::array::uniform2(-5.0f64..5.0),
            u0 in proptest::array::uniform2(-5.0f64..5.0),
            u1 in proptest::array::uniform2(-5.0f64..5.0),
        ) {
            let p = elastic_problem();
            let mid_l = [(l0[0]+l1[0])/2.0, (l0[1]+l1[1])/2.0];
            let mid_u = [(u0[0]+u1[0])/2.0, (u0[1]+u1[1])/2.0];
            let z_mid = dual_value(&p, &mid_l, &mid_u);
            let z_avg = 0.5*(dual_value(&p, &l0, &u0) + dual_value(&p, &l1, &u1));
            prop_assert!(z_mid >= z_avg - 1e-9 * (1.0 + z_avg.abs()));
        }
    }
}
