//! Table 2 — SEA on United States input/output matrix datasets (§4.1.2).
//!
//! Nine fixed-totals datasets: IOC72a/b/c (205², 52 % dense),
//! IOC77a/b/c (205², 58 %), IO72a/b/c (485², 16 %). The `c` datapoints are
//! the average of 10 perturbed replications, exactly as in the paper.

use sea_bench::{paper_options, results_dir, Scale};
use sea_core::{solve_diagonal_supervised, NullObserver, SupervisorOptions};
use sea_data::io_tables::{all_variants, io_dataset};
use sea_report::{fmt_seconds, ExperimentRecord, Table};

fn main() {
    let (scale, _seed) = Scale::from_args();
    // The I/O datasets are fixed-size real-data stand-ins; `small` trims
    // the replication count of the averaged `c` datapoints.
    let c_replications: u64 = match scale {
        Scale::Small => 2,
        Scale::Medium => 5,
        Scale::Paper => 10,
    };

    let mut record = ExperimentRecord::new(
        "table2",
        "Table 2: SEA on United States input/output matrix datasets",
    );
    let mut table = Table::new(
        "CPU time per dataset",
        &["Dataset", "size", "% nonzero", "iterations", "CPU time (s)"],
    );

    for v in all_variants() {
        let reps = if v.variant == 'c' { c_replications } else { 1 };
        let mut total_secs = 0.0;
        let mut total_iters = 0usize;
        let mut density = 0.0;
        for r in 0..reps {
            let problem = io_dataset(v, r);
            density = problem.x0().density();
            let sup = SupervisorOptions::default();
            let sol =
                solve_diagonal_supervised(&problem, &paper_options(0.01), &sup, &mut NullObserver)
                    .expect("feasible by construction")
                    .solution;
            assert!(sol.stats.converged, "{} did not converge", v.name());
            total_secs += sol.stats.elapsed.as_secs_f64();
            total_iters += sol.stats.iterations;
        }
        table.push_row(vec![
            v.name(),
            format!("{0} x {0}", v.size()),
            format!("{:.0}%", 100.0 * density),
            format!("{:.1}", total_iters as f64 / reps as f64),
            fmt_seconds(total_secs / reps as f64),
        ]);
        eprintln!("table2: {} done", v.name());
    }

    record.push_table(table);
    record.push_note(format!(
        "scale = {scale:?}; 'c' rows average {c_replications} replications (paper: 10)"
    ));
    record.push_note(
        "Paper CPU seconds: IOC72a 18.7, IOC72b 19.0, IOC72c 25.6, IOC77a 13.6, \
         IOC77b 19.1, IOC77c 30.2, IO72a 333.3, IO72b 438.4, IO72c 335.6 — the \
         485^2 series should be roughly an order of magnitude above the 205^2 series.",
    );
    record.print();
    if let Ok(path) = record.save_markdown(&results_dir(scale)) {
        eprintln!("saved {}", path.display());
    }
}
