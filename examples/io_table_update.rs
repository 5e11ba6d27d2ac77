//! Input/output table updating: SEA vs RAS on a sparse synthetic I/O table.
//!
//! ```sh
//! cargo run --release --example io_table_update
//! ```
//!
//! The workhorse application from the paper's introduction: update a base
//! I/O table to new sectoral margins. We solve the same updating problem
//! with (a) SEA under chi-square weights with structural zeros, and
//! (b) the RAS method, then compare. On well-posed problems the two give
//! similar biproportional-flavoured answers; unlike RAS, SEA also handles
//! weights other than chi-square and reports a certified objective value.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sea::baselines::ras::{ras_balance, RasOptions};
use sea::core::{
    solve_diagonal_supervised, DiagonalProblem, NullObserver, SeaOptions, SupervisorOptions,
    TotalSpec, ZeroPolicy,
};
use sea::data::io_tables::synthetic_io_matrix;
use sea::linalg::DenseMatrix;

fn main() {
    // A 30-sector economy, ~50% of inter-sector flows active.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let x0 = synthetic_io_matrix(30, 0.5, &mut rng);
    println!(
        "base table: 30 x 30, {} nonzero flows ({:.0}% dense)",
        x0.count_nonzero(),
        100.0 * x0.density()
    );

    // New margins: each sector grows by a distinct factor in [0%, 10%].
    use rand::Rng;
    let s0: Vec<f64> = x0
        .row_sums()
        .iter()
        .map(|v| v * (1.0 + rng.random_range(0.0..0.10)))
        .collect();
    let mut d0: Vec<f64> = x0
        .col_sums()
        .iter()
        .map(|v| v * (1.0 + rng.random_range(0.0..0.10)))
        .collect();
    let f: f64 = s0.iter().sum::<f64>() / d0.iter().sum::<f64>();
    for v in &mut d0 {
        *v *= f;
    }

    // --- SEA under chi-square weights, zeros structural. ---
    let gamma = DenseMatrix::from_vec(
        30,
        30,
        x0.as_slice()
            .iter()
            .map(|&v| if v > 0.0 { 1.0 / v } else { 1.0 })
            .collect(),
    )
    .expect("shape");
    let problem = DiagonalProblem::with_zero_policy(
        x0.clone(),
        gamma,
        TotalSpec::Fixed {
            s0: s0.clone(),
            d0: d0.clone(),
        },
        ZeroPolicy::Structural,
    )
    .expect("consistent");
    let sup = SupervisorOptions::default();
    let sea_sol = solve_diagonal_supervised(
        &problem,
        &SeaOptions::with_epsilon(1e-10),
        &sup,
        &mut NullObserver,
    )
    .expect("feasible")
    .solution;
    println!(
        "SEA: converged={} iterations={} objective={:.4}",
        sea_sol.stats.converged, sea_sol.stats.iterations, sea_sol.stats.objective
    );

    // --- RAS on the same problem. ---
    let ras = ras_balance(&x0, &s0, &d0, &RasOptions::default()).expect("valid inputs");
    println!(
        "RAS: converged={} iterations={}",
        ras.converged, ras.iterations
    );

    // --- Compare. ---
    let diff = sea_sol.x.max_abs_diff(&ras.x);
    let scale = x0.as_slice().iter().cloned().fold(0.0_f64, f64::max);
    println!(
        "max |SEA − RAS| = {:.4} ({:.2}% of the largest flow)",
        diff,
        100.0 * diff / scale
    );
    // Both preserve zeros.
    for k in 0..900 {
        if x0.as_slice()[k] == 0.0 {
            assert_eq!(sea_sol.x.as_slice()[k], 0.0);
            assert_eq!(ras.x.as_slice()[k], 0.0);
        }
    }
    println!("both methods preserve all structural zeros");
    assert!(sea_sol.stats.residuals.row_inf < 1e-6);
}
