//! Table 6 — Parallel speedup and efficiency measurements for SEA on
//! diagonal problems (§4.2), plus the Figure 5 series.
//!
//! Four examples (IO72b, the 1000×1000 Table 1 instance, SP500×500,
//! SP750×750) run with per-task trace recording; speedups for
//! N ∈ {2, 4, 6} come from the `sea-parsim` machine simulator (DESIGN.md
//! substitution S2 — this container has one CPU, the paper had six).

use sea_bench::{
    experiments::diagonal_speedup_experiment, results_dir, speedup_rows_to_table, Scale,
};
use sea_report::{ExperimentRecord, Table};

fn main() {
    let (scale, seed) = Scale::from_args();
    let results = diagonal_speedup_experiment(scale, seed);

    let mut record = ExperimentRecord::new(
        "table6",
        "Table 6: parallel speedup and efficiency, SEA on diagonal problems (simulated machine)",
    );
    let mut table = Table::new("Speedups", &["Example", "N", "S_N", "E_N"]);
    for (name, rows) in &results {
        speedup_rows_to_table(&mut table, name, rows);
    }
    record.push_table(table);
    record.push_note(format!("scale = {scale:?}, seed = {seed}"));
    record.push_note(
        "Speedups from the deterministic N-processor scheduling simulator over \
         measured per-task traces (substitution S2). Paper (IBM 3090-600E, \
         standalone): IO72b 1.93/3.74/5.15, 1000x1000 1.93/3.57/4.71, \
         SP500 1.86/3.52/4.66, SP750 1.87/3.19/3.86 for N = 2/4/6.",
    );
    record.push_note(
        "Expected shape: near-linear at N=2 (~93-97% efficiency), degrading \
         with N as the serial convergence-verification phase grows relative to \
         the parallel equilibration work; elastic (SP) examples degrade faster \
         because they verify convergence far more often (84-104 iterations).",
    );
    record.print();
    if let Ok(path) = record.save_markdown(&results_dir(scale)) {
        eprintln!("saved {}", path.display());
    }
}
