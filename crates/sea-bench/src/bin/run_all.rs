//! Run every experiment binary in sequence at the chosen scale, producing
//! `*.md` and `*.csv` records in the scale's results directory
//! (`sea_bench::results_dir`) for all nine tables and both figures plus
//! the extension studies.

use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bins = [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "table8",
        "table9",
        "fig5",
        "fig7",
        "ablation",
        "weights_study",
        "theory_check",
    ];
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let mut failures = Vec::new();
    for bin in bins {
        eprintln!("==== running {bin} {} ====", args.join(" "));
        let status = Command::new(exe_dir.join(bin)).args(&args).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failures.push(bin);
            }
            Err(e) => {
                eprintln!("failed to launch {bin}: {e}");
                failures.push(bin);
            }
        }
    }
    if failures.is_empty() {
        eprintln!("all experiments completed; see the scale's results directory");
    } else {
        eprintln!("failed experiments: {failures:?}");
        std::process::exit(1);
    }
}
