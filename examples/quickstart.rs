//! Quickstart: estimate a matrix with known row/column totals.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! A 3×3 trade table must be updated so that its row totals (producers'
//! outputs) and column totals (consumers' inputs) match newly published
//! margins, staying as close as possible to the observed table in the
//! chi-square sense — the classical constrained matrix problem, solved by
//! the splitting equilibration algorithm.

use sea::core::{
    solve_diagonal_supervised, DiagonalProblem, NullObserver, SeaOptions, SupervisorOptions,
    TotalSpec, WeightScheme,
};
use sea::linalg::DenseMatrix;

fn main() {
    // The observed (prior) table.
    let x0 = DenseMatrix::from_rows(&[
        vec![10.0, 4.0, 6.0],
        vec![3.0, 12.0, 5.0],
        vec![7.0, 2.0, 11.0],
    ])
    .expect("static data");

    // New margins: the economy grew unevenly.
    let s0 = vec![24.0, 22.0, 24.0]; // row totals (sum 70)
    let d0 = vec![25.0, 20.0, 25.0]; // column totals (sum 70)

    // Chi-square weights (gamma = 1/x0): the Deming–Stephan objective.
    let gamma = WeightScheme::ChiSquare
        .entry_weights(&x0)
        .expect("positive prior");

    let problem = DiagonalProblem::new(x0.clone(), gamma, TotalSpec::Fixed { s0, d0 })
        .expect("consistent margins");

    let sup = SupervisorOptions::default();
    let solution = solve_diagonal_supervised(
        &problem,
        &SeaOptions::with_epsilon(1e-10),
        &sup,
        &mut NullObserver,
    )
    .expect("feasible problem")
    .solution;

    println!(
        "converged: {} in {} iterations",
        solution.stats.converged, solution.stats.iterations
    );
    println!(
        "objective (weighted squared deviation): {:.6}",
        solution.stats.objective
    );
    println!("estimate X:");
    for i in 0..3 {
        let row: Vec<String> = solution
            .x
            .row(i)
            .iter()
            .map(|v| format!("{v:7.3}"))
            .collect();
        println!("  [{}]", row.join(", "));
    }
    println!("row sums:    {:?}", solution.x.row_sums());
    println!("column sums: {:?}", solution.x.col_sums());
    assert!(solution.stats.residuals.row_inf < 1e-8);
    assert!(solution.stats.residuals.col_inf < 1e-8);
}
