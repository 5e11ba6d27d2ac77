//! Figure 5 — speedup curves for SEA on diagonal problems, as CSV series
//! (`example,processors,speedup,efficiency`) suitable for plotting. Same
//! data as Table 6, including the N = 1 anchor points the figure plots.

use sea_bench::{experiments::diagonal_speedup_experiment, results_dir, Scale};
use std::io::Write;

fn main() {
    let (scale, seed) = Scale::from_args();
    let results = diagonal_speedup_experiment(scale, seed);

    let mut csv = String::from("example,processors,speedup,efficiency\n");
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
        if let Ok(mut f) = std::fs::File::create(dir.join("fig5.csv")) {
            let _ = f.write_all(csv.as_bytes());
            eprintln!("saved {}", dir.join("fig5.csv").display());
        }
    }
}
