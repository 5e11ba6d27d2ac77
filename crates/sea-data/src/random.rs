//! Large-scale random instances (Table 1 and Table 7).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sea_core::{DiagonalProblem, GeneralProblem, GeneralTotalSpec, TotalSpec};
use sea_linalg::{DenseMatrix, SymMatrix};

/// Generate one of the paper's Table 1 instances: an `size × size`
/// fixed-totals diagonal problem, 100 % dense, entries
/// `x⁰ᵢⱼ ~ U[0.1, 10000]` ("to simulate the wide spread of the initial data
/// ... characteristic of both input/output and social accounting
/// matrices"), chi-square weights `γ = 1/x⁰`, and doubled margins
/// `s⁰ᵢ = 2Σⱼx⁰ᵢⱼ`, `d⁰ⱼ = 2Σᵢx⁰ᵢⱼ` (§4.1.1).
///
/// # Panics
/// Panics if `size == 0`.
pub fn table1_instance(size: usize, seed: u64) -> DiagonalProblem {
    assert!(size > 0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x007A_B1E1);
    let data: Vec<f64> = (0..size * size)
        .map(|_| rng.random_range(0.1..10_000.0))
        .collect();
    let x0 = DenseMatrix::from_vec(size, size, data).expect("nonempty");
    let gamma = DenseMatrix::from_vec(size, size, x0.as_slice().iter().map(|&v| 1.0 / v).collect())
        .expect("same shape");
    let s0: Vec<f64> = x0.row_sums().iter().map(|v| 2.0 * v).collect();
    let d0: Vec<f64> = x0.col_sums().iter().map(|v| 2.0 * v).collect();
    DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 }).expect("valid by construction")
}

/// Generate a symmetric, strictly diagonally dominant, 100 % dense weight
/// matrix with diagonal in `[500, 800]` and (mostly negative) off-diagonal
/// entries "to simulate variance-covariance matrices" (§5.1.1).
pub fn dense_dd_weight_matrix(order: usize, rng: &mut ChaCha8Rng) -> SymMatrix {
    let mut g = DenseMatrix::zeros(order, order).expect("nonempty");
    // Off-diagonal magnitude budget: strict dominance needs
    // Σ_{j≠i}|g_ij| < 500 for every row; with symmetric U[−c, c/4] entries,
    // the worst-case row sum is c·(order−1), so pick c below 500/(order−1)
    // with margin.
    let c = if order > 1 {
        0.9 * 500.0 / (order as f64 - 1.0)
    } else {
        0.0
    };
    for i in 0..order {
        for j in (i + 1)..order {
            let v = rng.random_range(-c..c * 0.25);
            g.set(i, j, v);
            g.set(j, i, v);
        }
    }
    for i in 0..order {
        let v = rng.random_range(500.0..800.0);
        g.set(i, i, v);
    }
    SymMatrix::from_dense_unchecked(g).expect("square by construction")
}

/// Generate one of the paper's Table 7 instances: a general fixed-totals
/// problem whose `X⁰` is `rows × rows` (10…120), with a 100 % dense
/// `G` of order `rows²` from [`dense_dd_weight_matrix`], priors
/// `x⁰ ~ U[1, 10]`, and margins from per-line growth factors
/// `U[0.8, 1.5]` (rebalanced to a common grand total).
///
/// # Panics
/// Panics if `rows == 0`.
pub fn table7_instance(rows: usize, seed: u64) -> GeneralProblem {
    assert!(rows > 0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x007A_B1E7);
    let n = rows;
    let x0 = DenseMatrix::from_vec(
        n,
        n,
        (0..n * n).map(|_| rng.random_range(1.0..10.0)).collect(),
    )
    .expect("nonempty");
    let g = dense_dd_weight_matrix(n * n, &mut rng);
    let s0: Vec<f64> = x0
        .row_sums()
        .iter()
        .map(|v| v * rng.random_range(0.8..1.5))
        .collect();
    let mut d0: Vec<f64> = x0
        .col_sums()
        .iter()
        .map(|v| v * rng.random_range(0.8..1.5))
        .collect();
    let scale: f64 = s0.iter().sum::<f64>() / d0.iter().sum::<f64>();
    for v in &mut d0 {
        *v *= scale;
    }
    GeneralProblem::new(x0, g, GeneralTotalSpec::Fixed { s0, d0 }).expect("valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_documented_statistics() {
        let p = table1_instance(40, 1);
        assert_eq!(p.m(), 40);
        assert_eq!(p.variable_count(), 1600);
        // 100% dense, entries in [0.1, 10000].
        assert!(p
            .x0()
            .as_slice()
            .iter()
            .all(|&v| (0.1..10_000.0).contains(&v)));
        assert!((p.x0().density() - 1.0).abs() < 1e-12);
        // Chi-square weights.
        for (x, g) in p.x0().as_slice().iter().zip(p.gamma().as_slice()) {
            assert!((g - 1.0 / x).abs() < 1e-12);
        }
        // Doubled margins.
        match p.totals() {
            TotalSpec::Fixed { s0, .. } => {
                let rs = p.x0().row_sums();
                assert!((s0[0] - 2.0 * rs[0]).abs() < 1e-9);
            }
            _ => panic!("expected fixed totals"),
        }
    }

    #[test]
    fn table1_is_deterministic() {
        let a = table1_instance(10, 9);
        let b = table1_instance(10, 9);
        assert_eq!(a.x0(), b.x0());
        let c = table1_instance(10, 10);
        assert_ne!(a.x0(), c.x0());
    }

    #[test]
    fn table7_g_matrix_matches_spec() {
        let p = table7_instance(6, 3);
        let g = p.g();
        assert_eq!(g.order(), 36);
        assert!(g.is_strictly_diagonally_dominant());
        let mut has_negative = false;
        for i in 0..g.order() {
            assert!((500.0..800.0).contains(&g.get(i, i)));
            for j in 0..g.order() {
                if i != j && g.get(i, j) < 0.0 {
                    has_negative = true;
                }
            }
        }
        assert!(has_negative, "off-diagonals should include negatives");
    }

    #[test]
    fn table7_totals_consistent() {
        let p = table7_instance(8, 5);
        match p.totals() {
            GeneralTotalSpec::Fixed { s0, d0 } => {
                let rs: f64 = s0.iter().sum();
                let cs: f64 = d0.iter().sum();
                assert!((rs - cs).abs() < 1e-9 * rs);
            }
            _ => panic!("expected fixed"),
        }
    }

    #[test]
    fn table1_instance_is_solvable() {
        let p = table1_instance(15, 2);
        let sup = sea_core::SupervisorOptions::default();
        let sol = sea_core::solve_diagonal_supervised(
            &p,
            &sea_core::SeaOptions::with_epsilon(1e-6),
            &sup,
            &mut sea_core::NullObserver,
        )
        .unwrap()
        .solution;
        assert!(sol.stats.converged);
        assert!(sol.stats.residuals.rel_row_inf < 1e-5);
    }
}
