//! Migration-flow projection with uncertain totals.
//!
//! ```sh
//! cargo run --release --example migration_projection
//! ```
//!
//! Project a 48×48 state-to-state migration table to a new period when the
//! future in/out-migration totals are themselves only estimates — the
//! paper's elastic-totals problem (objective 5): the solver balances
//! fidelity to the old flow pattern against fidelity to the projected
//! totals, and returns *estimated* totals alongside the flows.

use sea::core::{
    solve_diagonal_supervised, ConvergenceCriterion, NullObserver, SeaOptions, SupervisorOptions,
    TotalSpec,
};
use sea::data::migration::{migration_problem, MigrationVariant, Period};

fn main() {
    let problem = migration_problem(Period::P7580, MigrationVariant::B);
    let TotalSpec::Elastic { s0, d0, .. } = problem.totals() else {
        unreachable!("migration problems have elastic totals")
    };

    let mut opts = SeaOptions::with_epsilon(1e-6);
    opts.criterion = Some(ConvergenceCriterion::MaxAbsChange);
    let sup = SupervisorOptions::default();
    let sol = solve_diagonal_supervised(&problem, &opts, &sup, &mut NullObserver)
        .expect("solvable")
        .solution;
    println!(
        "48x48 projection solved in {} iterations (converged: {})",
        sol.stats.iterations, sol.stats.converged
    );

    // The estimated totals compromise between the prior flows and the
    // projected targets.
    let base_out = problem.x0().row_sums();
    println!("\nfirst five states, out-migration:");
    println!("{:>10} {:>12} {:>12}", "base", "target s0", "estimated s");
    for i in 0..5 {
        println!("{:>10.0} {:>12.0} {:>12.0}", base_out[i], s0[i], sol.s[i]);
        let lo = base_out[i].min(s0[i]) - 1e-6;
        let hi = base_out[i].max(s0[i]) + 1e-6;
        assert!(
            sol.s[i] >= lo && sol.s[i] <= hi,
            "estimate should interpolate base and target"
        );
    }

    // Flow conservation against the estimated totals.
    let rows = sol.x.row_sums();
    let cols = sol.x.col_sums();
    let max_row_gap = rows
        .iter()
        .zip(&sol.s)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    let max_col_gap = cols
        .iter()
        .zip(&sol.d)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    println!("\nmax |row sum − s| = {max_row_gap:.2e}, max |col sum − d| = {max_col_gap:.2e}");
    // Flows are in the hundreds of thousands; judge gaps relative to scale.
    let scale = sol.s.iter().cloned().fold(1.0_f64, f64::max);
    assert!(max_row_gap / scale < 1e-6 && max_col_gap / scale < 1e-9);

    // No self-migration (structural diagonal zeros).
    for i in 0..48 {
        assert_eq!(sol.x.get(i, i), 0.0);
    }
    println!("diagonal (same-state) flows remain structurally zero");
    let _ = d0;
}
