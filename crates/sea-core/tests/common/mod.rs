//! Shared fixture problems and golden-solution helpers for the sea-core
//! integration tests.
//!
//! The three fixtures cover the three diagonal problem classes of the paper
//! (fixed totals, elastic totals, SAM balancing) with fixed-seed data, and
//! `golden_*.csv` files in this directory hold KKT-verified solutions
//! produced by the sort-scan reference kernel.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sea_core::{
    solve_diagonal_supervised, DiagonalProblem, KernelKind, NullObserver, Parallelism, SeaOptions,
    Solution, SupervisorOptions, TotalSpec, WeightScheme,
};
use sea_linalg::DenseMatrix;

/// Deterministic positive matrix from a fixed seed.
fn random_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..cols).map(|_| rng.random_range(0.5..10.0)).collect())
        .collect();
    DenseMatrix::from_rows(&data).unwrap()
}

/// Fixed-totals fixture: 6×5 prior, totals perturbed away from the prior's
/// margins so every row/column subproblem does real work.
pub fn fixture_fixed() -> DiagonalProblem {
    let x0 = random_matrix(6, 5, 0xF1DE);
    let gamma = WeightScheme::ChiSquare.entry_weights(&x0).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0xF1DF);
    let mut s0: Vec<f64> = x0
        .row_sums()
        .iter()
        .map(|&r| r * rng.random_range(0.8..1.3))
        .collect();
    let target: f64 = s0.iter().sum();
    let cs = x0.col_sums();
    let cs_sum: f64 = cs.iter().sum();
    let mut d0: Vec<f64> = cs.iter().map(|&c| c * target / cs_sum).collect();
    // Make Σ s⁰ = Σ d⁰ exact (the scaling only gets within rounding).
    let drift: f64 = target - d0.iter().sum::<f64>();
    d0[0] += drift;
    s0[0] += 0.0;
    DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 }).unwrap()
}

/// Elastic-totals fixture: 5×6 prior with per-row/column total weights.
pub fn fixture_elastic() -> DiagonalProblem {
    let x0 = random_matrix(5, 6, 0xE1A5);
    let gamma = WeightScheme::InverseSqrt.entry_weights(&x0).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0xE1A6);
    let s0: Vec<f64> = x0
        .row_sums()
        .iter()
        .map(|&r| r * rng.random_range(0.7..1.4))
        .collect();
    let d0: Vec<f64> = x0
        .col_sums()
        .iter()
        .map(|&c| c * rng.random_range(0.7..1.4))
        .collect();
    let alpha: Vec<f64> = (0..5).map(|_| rng.random_range(0.3..2.0)).collect();
    let beta: Vec<f64> = (0..6).map(|_| rng.random_range(0.3..2.0)).collect();
    DiagonalProblem::new(
        x0,
        gamma,
        TotalSpec::Elastic {
            alpha,
            s0,
            beta,
            d0,
        },
    )
    .unwrap()
}

/// SAM-balancing fixture: square prior, shared account totals estimated
/// alongside the matrix.
pub fn fixture_balanced() -> DiagonalProblem {
    let x0 = random_matrix(6, 6, 0xBA1A);
    let gamma = WeightScheme::ChiSquare.entry_weights(&x0).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0xBA1B);
    let rs = x0.row_sums();
    let cs = x0.col_sums();
    let s0: Vec<f64> = rs
        .iter()
        .zip(&cs)
        .map(|(&r, &c)| 0.5 * (r + c) * rng.random_range(0.9..1.1))
        .collect();
    let alpha: Vec<f64> = s0.iter().map(|&t| 1.0 / t.max(1.0)).collect();
    DiagonalProblem::new(x0, gamma, TotalSpec::Balanced { alpha, s0 }).unwrap()
}

/// All three fixtures, tagged for assertion messages.
pub fn all_fixtures() -> Vec<(&'static str, DiagonalProblem)> {
    vec![
        ("fixed", fixture_fixed()),
        ("elastic", fixture_elastic()),
        ("balanced", fixture_balanced()),
    ]
}

/// Solve a fixture with an explicit kernel and parallelism mode.
#[allow(dead_code)]
pub fn solve_with(p: &DiagonalProblem, kernel: KernelKind, parallelism: Parallelism) -> Solution {
    solve_at_depth(
        p,
        kernel,
        parallelism,
        SeaOptions::default().extrapolation_depth,
    )
}

/// [`solve_with`] at an explicit extrapolation depth (`0` is the paper's
/// SEA).
// Not every test binary that pulls in this module pins a depth.
#[allow(dead_code)]
pub fn solve_at_depth(
    p: &DiagonalProblem,
    kernel: KernelKind,
    parallelism: Parallelism,
    depth: usize,
) -> Solution {
    let mut opts = SeaOptions::with_epsilon(1e-10);
    opts.kernel = kernel;
    opts.parallelism = parallelism;
    opts.extrapolation_depth = depth;
    let sol = solve_diagonal_supervised(p, &opts, &SupervisorOptions::default(), &mut NullObserver)
        .expect("fixture must solve")
        .solution;
    assert!(sol.stats.converged, "fixture must converge");
    sol
}

/// Parse a golden CSV (one matrix row per line) into a row-major vector.
// Not every test binary that pulls in this module reads golden files.
#[allow(dead_code)]
pub fn parse_golden(csv: &str) -> Vec<f64> {
    csv.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .flat_map(|l| l.split(',').map(|t| t.trim().parse::<f64>().unwrap()))
        .collect()
}
