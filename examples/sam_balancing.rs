//! Social accounting matrix balancing: estimate account totals and
//! transactions simultaneously.
//!
//! ```sh
//! cargo run --release --example sam_balancing
//! ```
//!
//! A SAM's defining ("definitional") constraint is that every account's
//! receipts (row total) equal its expenditures (column total). Raw data
//! assembled from disparate sources never balance, so the totals must be
//! *estimated together with the entries* — the paper's problem (9),
//! objective `Σ αᵢ(sᵢ−s⁰ᵢ)² + Σ γᵢⱼ(xᵢⱼ−x⁰ᵢⱼ)²`, solved by the SAM
//! variant of SEA (§3.1.2).

use sea::core::{solve_diagonal_supervised, NullObserver, SeaOptions, SupervisorOptions};
use sea::data::sam::{sam_problem, SamInstance};

fn main() {
    let problem = sam_problem(SamInstance::Stone, 0);
    let names = ["production", "households", "government", "capital", "row"];

    println!("raw SAM (receipts vs expenditures disagree):");
    let raw_rows = problem.x0().row_sums();
    let raw_cols = problem.x0().col_sums();
    for i in 0..5 {
        println!(
            "  {:<11} receipts {:7.2}  expenditures {:7.2}  gap {:+.2}",
            names[i],
            raw_rows[i],
            raw_cols[i],
            raw_rows[i] - raw_cols[i]
        );
    }

    let sup = SupervisorOptions::default();
    let sol = solve_diagonal_supervised(
        &problem,
        &SeaOptions::with_epsilon(1e-10),
        &sup,
        &mut NullObserver,
    )
    .expect("solvable")
    .solution;
    println!(
        "\nSEA balanced the SAM in {} iterations ({} )",
        sol.stats.iterations,
        if sol.stats.converged {
            "converged"
        } else {
            "NOT converged"
        }
    );

    println!("balanced accounts:");
    let rows = sol.x.row_sums();
    let cols = sol.x.col_sums();
    for i in 0..5 {
        println!(
            "  {:<11} total {:8.3} (row {:8.3} / col {:8.3})",
            names[i], sol.s[i], rows[i], cols[i]
        );
        assert!(
            (rows[i] - cols[i]).abs() < 1e-6 * rows[i].max(1.0),
            "account must balance"
        );
    }

    println!("\nbalanced transactions:");
    for i in 0..5 {
        let row: Vec<String> = sol.x.row(i).iter().map(|v| format!("{v:7.2}")).collect();
        println!("  [{}]", row.join(", "));
    }
    // Structural zeros (impossible transactions) stay exactly zero.
    assert_eq!(sol.x.get(0, 0), 0.0);
    println!(
        "\nstructural zeros preserved; objective = {:.4}",
        sol.stats.objective
    );
}
