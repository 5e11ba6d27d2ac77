//! Table 9 — Parallel speedup and efficiency measurements for SEA and RC
//! on general problems (§5.2), plus the Figure 7 series.
//!
//! The paper's 10000×10000-G example (X⁰ 100×100) solved by both SEA and
//! RC with trace recording; speedups for N ∈ {2, 4} from the scheduling
//! simulator (substitution S2). The structural expectation: SEA verifies
//! projection convergence once, RC once per projection iteration inside
//! every half-step, so SEA parallelizes better.

use sea_bench::{
    experiments::general_speedup_experiment, results_dir, speedup_rows_to_table, Scale,
};
use sea_report::{ExperimentRecord, Table};

fn main() {
    let (scale, seed) = Scale::from_args();
    let results = general_speedup_experiment(scale, seed);

    let mut record = ExperimentRecord::new(
        "table9",
        "Table 9: parallel speedup and efficiency, SEA vs RC on general problems (simulated machine)",
    );
    let mut table = Table::new("Speedups", &["Example", "N", "S_N", "E_N"]);
    for (name, rows) in &results {
        speedup_rows_to_table(&mut table, name, rows);
    }
    record.push_table(table);
    record.push_note(format!("scale = {scale:?}, seed = {seed}"));
    record.push_note(
        "Paper (10000x10000 G, standalone): SEA 1.82 (N=2) / 2.62 (N=4) vs \
         RC 1.75 / 2.24 — SEA ahead by ~3% absolute efficiency at N=2 and \
         ~10% at N=4. Check that SEA's speedup exceeds RC's at each N.",
    );
    // Make the SEA-vs-RC comparison explicit for both machine models.
    for pair in results.chunks(2) {
        if let [(sea_name, sea_rows), (rc_name, rc_rows)] = pair {
            for (s, r) in sea_rows.iter().zip(rc_rows) {
                if s.processors == 1 {
                    continue;
                }
                record.push_note(format!(
                    "N={}: {} speedup {:.2} vs {} speedup {:.2} ({})",
                    s.processors,
                    sea_name,
                    s.speedup,
                    rc_name,
                    r.speedup,
                    if s.speedup >= r.speedup {
                        "SEA ahead, as in the paper"
                    } else {
                        "RC ahead — differs from the paper"
                    }
                ));
            }
        }
    }
    record.push_note(
        "Two machine models are reported: the modern measured-trace machine \
         (where compiler-vectorized convergence checks erase RC's serial-phase \
         penalty, so SEA and RC parallelize alike) and the 'vector-era' machine \
         (serial scalar phases 30x the cost of vectorized parallel work, as on \
         the 3090's Vector Facility), which reproduces the paper's mechanism: \
         RC's extra projection-convergence verifications drag its efficiency \
         below SEA's.",
    );
    record.print();
    if let Ok(path) = record.save_markdown(&results_dir(scale)) {
        eprintln!("saved {}", path.display());
    }
}
