//! Figure 7 — speedup curves for SEA vs RC on the general 10000×10000-G
//! example, as CSV series (`algorithm,processors,speedup,efficiency`).
//! Same data as Table 9, including the N = 1 anchor points.

use sea_bench::{experiments::general_speedup_experiment, results_dir, Scale};
use std::io::Write;

fn main() {
    let (scale, seed) = Scale::from_args();
    let results = general_speedup_experiment(scale, seed);

    let mut csv = String::from("algorithm,processors,speedup,efficiency\n");
    for (name, rows) in &results {
        for r in rows {
            csv.push_str(&format!(
                "{name},{},{:.4},{:.4}\n",
                r.processors, r.speedup, r.efficiency
            ));
        }
    }
    print!("{csv}");

    let dir = results_dir(scale);
    if std::fs::create_dir_all(&dir).is_ok() {
        if let Ok(mut f) = std::fs::File::create(dir.join("fig7.csv")) {
            let _ = f.write_all(csv.as_bytes());
            eprintln!("saved {}", dir.join("fig7.csv").display());
        }
    }
}
