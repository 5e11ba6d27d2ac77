//! Dykstra's method of alternating weighted projections — an additional
//! primal baseline for the fixed-totals diagonal problem.
//!
//! Repeatedly project the iterate onto the row-sum affine subspace, the
//! column-sum affine subspace, and the nonnegative orthant in the
//! `Γ`-weighted norm, carrying Boyle–Dykstra correction vectors for the
//! non-affine orthant so the iteration converges to the *constrained
//! minimizer* (not merely a feasible point). Converges linearly at a rate
//! set by the angle between the constraint subspaces — fast on
//! well-conditioned instances, slow when margins conflict strongly.

use sea_core::problem::{DiagonalProblem, TotalSpec};
use sea_core::SeaError;
use sea_linalg::DenseMatrix;
use std::time::{Duration, Instant};

/// Result of a Dykstra solve.
#[derive(Debug, Clone)]
pub struct DykstraSolution {
    /// The estimate.
    pub x: DenseMatrix,
    /// Projection sweeps performed.
    pub sweeps: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Final relative balance residual.
    pub residual: f64,
    /// Objective value.
    pub objective: f64,
    /// Wall clock.
    pub elapsed: Duration,
}

/// Weighted projection onto the row-sum affine subspace, in place.
fn project_rows(
    x: &mut DenseMatrix,
    inv_gamma: &DenseMatrix,
    inv_gamma_rowsum: &[f64],
    s0: &[f64],
) {
    for i in 0..x.rows() {
        let row_sum: f64 = x.row(i).iter().sum();
        let corr = (s0[i] - row_sum) / inv_gamma_rowsum[i];
        let wr = inv_gamma.row(i);
        for (xv, &w) in x.row_mut(i).iter_mut().zip(wr) {
            *xv += corr * w;
        }
    }
}

/// Weighted projection onto the column-sum affine subspace, in place.
fn project_cols(
    x: &mut DenseMatrix,
    inv_gamma: &DenseMatrix,
    inv_gamma_colsum: &[f64],
    d0: &[f64],
) {
    let n = x.cols();
    let mut col_sums = vec![0.0; n];
    for i in 0..x.rows() {
        for (cs, &v) in col_sums.iter_mut().zip(x.row(i)) {
            *cs += v;
        }
    }
    let corr: Vec<f64> = (0..n)
        .map(|j| (d0[j] - col_sums[j]) / inv_gamma_colsum[j])
        .collect();
    for i in 0..x.rows() {
        let wr = inv_gamma.row(i);
        for ((xv, &w), &c) in x.row_mut(i).iter_mut().zip(wr).zip(&corr) {
            *xv += c * w;
        }
    }
}

/// Core Dykstra loop on `min Σ γ(x−q)² s.t. margins (s⁰, d⁰), x ≥ 0`.
/// Returns `(x, sweeps, converged, residual)`. Shared with the B-K module's
/// tests and the general diagonalization wrapper.
pub(crate) fn dykstra_core(
    q: &DenseMatrix,
    gamma: &DenseMatrix,
    s0: &[f64],
    d0: &[f64],
    epsilon: f64,
    max_sweeps: usize,
) -> (DenseMatrix, usize, bool, f64) {
    let (m, n) = (q.rows(), q.cols());
    let inv_gamma = {
        let data: Vec<f64> = gamma.as_slice().iter().map(|&g| 1.0 / g).collect();
        DenseMatrix::from_vec(m, n, data).expect("same shape")
    };
    let inv_gamma_rowsum = inv_gamma.row_sums();
    let inv_gamma_colsum = inv_gamma.col_sums();

    let mut x = q.clone();
    // Correction only for the (non-affine) orthant; affine sets need none.
    let mut z = vec![0.0_f64; m * n];
    let mut converged = false;
    let mut residual = f64::INFINITY;
    let mut sweeps = 0;

    let scale: f64 = s0
        .iter()
        .map(|v| v.abs())
        .fold(0.0_f64, f64::max)
        .max(1e-12);

    for sweep in 1..=max_sweeps {
        sweeps = sweep;
        project_rows(&mut x, &inv_gamma, &inv_gamma_rowsum, s0);
        project_cols(&mut x, &inv_gamma, &inv_gamma_colsum, d0);
        let xs = x.as_mut_slice();
        for (xv, zv) in xs.iter_mut().zip(z.iter_mut()) {
            let w = *xv + *zv;
            let clipped = w.max(0.0);
            *zv = w - clipped;
            *xv = clipped;
        }
        let rs = x.row_sums();
        let cs = x.col_sums();
        let mut worst: f64 = 0.0;
        for i in 0..m {
            worst = worst.max((rs[i] - s0[i]).abs() / s0[i].abs().max(scale * 1e-6));
        }
        for j in 0..n {
            worst = worst.max((cs[j] - d0[j]).abs() / d0[j].abs().max(scale * 1e-6));
        }
        residual = worst;
        if worst <= epsilon {
            converged = true;
            break;
        }
    }
    (x, sweeps, converged, residual)
}

/// Solve a fixed-totals diagonal problem by Dykstra alternating
/// projections.
///
/// # Errors
/// [`SeaError::Shape`] if the problem is not of the fixed-totals class.
pub fn solve_diagonal_dykstra(
    p: &DiagonalProblem,
    epsilon: f64,
    max_sweeps: usize,
) -> Result<DykstraSolution, SeaError> {
    let (s0, d0) = match p.totals() {
        TotalSpec::Fixed { s0, d0 } => (s0.clone(), d0.clone()),
        _ => {
            return Err(SeaError::Shape {
                context: "Dykstra requires fixed totals",
                expected: 0,
                actual: 1,
            })
        }
    };
    let start = Instant::now();
    let (x, sweeps, converged, residual) =
        dykstra_core(p.x0(), p.gamma(), &s0, &d0, epsilon, max_sweeps);
    let objective = p.objective(&x, &s0, &d0);
    Ok(DykstraSolution {
        x,
        sweeps,
        converged,
        residual,
        objective,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_core::{solve_diagonal_supervised, NullObserver, SeaOptions, SupervisorOptions};

    fn problem() -> DiagonalProblem {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        gamma.set(0, 0, 3.0);
        gamma.set(1, 1, 0.5);
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

    #[test]
    fn dykstra_matches_sea() {
        let p = problem();
        let dy = solve_diagonal_dykstra(&p, 1e-10, 1_000_000).unwrap();
        let sup = SupervisorOptions::default();
        let sea = solve_diagonal_supervised(
            &p,
            &SeaOptions::with_epsilon(1e-12),
            &sup,
            &mut NullObserver,
        )
        .unwrap()
        .solution;
        assert!(dy.converged);
        assert!(dy.x.max_abs_diff(&sea.x) < 1e-5);
    }

    #[test]
    fn dykstra_rejects_elastic() {
        let x0 = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let p = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Elastic {
                alpha: vec![1.0; 2],
                s0: vec![2.0; 2],
                beta: vec![1.0; 2],
                d0: vec![2.0; 2],
            },
        )
        .unwrap();
        assert!(solve_diagonal_dykstra(&p, 1e-8, 100).is_err());
    }

    #[test]
    fn dykstra_respects_nonnegativity() {
        let x0 = DenseMatrix::from_rows(&[vec![50.0, 1.0], vec![1.0, 50.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let p = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: vec![2.0, 51.0],
                d0: vec![1.0, 52.0],
            },
        )
        .unwrap();
        let dy = solve_diagonal_dykstra(&p, 1e-9, 1_000_000).unwrap();
        assert!(dy.converged);
        assert!(dy.x.as_slice().iter().all(|&v| v >= -1e-12));
        let sup = SupervisorOptions::default();
        let sea = solve_diagonal_supervised(
            &p,
            &SeaOptions::with_epsilon(1e-12),
            &sup,
            &mut NullObserver,
        )
        .unwrap()
        .solution;
        assert!(dy.x.max_abs_diff(&sea.x) < 1e-4);
    }
}
