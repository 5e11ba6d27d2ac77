//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sparse_banded|batch_classes \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a metadata line and, last, the result line (see
//! `perfbench::report`). Exits 2 on bad arguments.

use perfbench::{Config, Scale, Workload};

fn usage(message: &str) -> ! {
    eprintln!(
        "perfbench: {message}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    Config {
        workload: workload.unwrap_or_else(|| usage("missing or unknown --workload")),
        seed: seed.unwrap_or_else(|| usage("missing or invalid --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing or invalid --seconds")),
        trace: trace.unwrap_or_else(|| usage("missing or invalid --trace")),
        scale: Scale::Full,
    }
}

fn main() {
    let cfg = parse_args();
    let outcome = perfbench::run(&cfg);
    println!("{}", outcome.meta_line());
    println!("{}", outcome.result_line(cfg.trace));
}
