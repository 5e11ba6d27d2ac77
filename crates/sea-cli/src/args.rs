//! Hand-rolled argument parsing (kept dependency-free).

use sea_batch::BatchParallelism;
use sea_core::KernelKind;
use std::collections::HashMap;
use std::path::PathBuf;

/// Options shared by every subcommand.
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// Prior matrix file.
    pub matrix: PathBuf,
    /// Output file (`None` = stdout).
    pub out: Option<PathBuf>,
    /// Weight scheme name: `unit`, `chi2`, or `sqrt`.
    pub weights: String,
    /// Stopping tolerance.
    pub epsilon: f64,
    /// Treat zeros of the prior as structural.
    pub structural_zeros: bool,
    /// Problem storage backend: `dense` or `sparse` (CSR over the prior's
    /// support; with `--zeros structural` only nonzero cells are stored).
    pub storage: String,
    /// Equilibration kernel.
    pub kernel: KernelKind,
    /// Write a JSONL solve log (one event per line) to this file.
    pub observe: Option<PathBuf>,
    /// Write Prometheus text-exposition metrics to this file.
    pub metrics: Option<PathBuf>,
    /// Write a chrome-trace span profile (JSON) to this file.
    pub trace_spans: Option<PathBuf>,
    /// Write a folded-stack flamegraph text file to this path.
    pub flamegraph: Option<PathBuf>,
    /// Render a live convergence progress line (with an ETA) on stderr.
    pub progress: bool,
    /// Wall-clock budget in seconds; on expiry the partial estimate is
    /// emitted with a `deadline_exceeded` stop reason.
    pub deadline: Option<f64>,
    /// Hard iteration cap override (default: the solver's built-in cap).
    pub max_iterations: Option<usize>,
    /// Write crash-safe solver checkpoints to this path.
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint cadence in iterations (with `--checkpoint`; default 64).
    pub checkpoint_every: usize,
    /// Resume a solve from a checkpoint written by `--checkpoint`.
    pub resume: Option<PathBuf>,
}

/// Options for the `batch` subcommand (one set for every instance).
#[derive(Debug, Clone)]
pub struct BatchOpts {
    /// Results file (`None` = stdout), one JSONL line per instance.
    pub out: Option<PathBuf>,
    /// Stopping tolerance.
    pub epsilon: f64,
    /// Equilibration kernel.
    pub kernel: KernelKind,
    /// Hard iteration cap override (default: the engine's built-in cap).
    pub max_iterations: Option<usize>,
    /// Thread-budget policy: instance-level vs in-solve parallelism.
    pub parallel: BatchParallelism,
    /// Seed repeated families with their cached dual multipliers.
    pub warm_start: bool,
    /// Write the batch JSONL event stream to this file.
    pub observe: Option<PathBuf>,
    /// Write Prometheus text-exposition metrics to this file.
    pub metrics: Option<PathBuf>,
    /// Write a chrome-trace span profile (JSON) to this file.
    pub trace_spans: Option<PathBuf>,
    /// Write a folded-stack flamegraph text file to this path.
    pub flamegraph: Option<PathBuf>,
    /// Per-instance wall-clock budget in seconds.
    pub deadline: Option<f64>,
}

/// Parsed subcommand.
#[derive(Debug, Clone)]
pub enum Command {
    /// Fixed row/column totals.
    Fixed {
        /// Common options.
        common: CommonOpts,
        /// Row totals file.
        row_totals: PathBuf,
        /// Column totals file.
        col_totals: PathBuf,
    },
    /// Elastic (estimated) totals.
    Elastic {
        /// Common options.
        common: CommonOpts,
        /// Prior row totals file.
        row_totals: PathBuf,
        /// Prior column totals file.
        col_totals: PathBuf,
        /// Weight on the total deviations.
        total_weight: f64,
    },
    /// SAM balancing (row total i = column total i, estimated).
    Sam {
        /// Common options.
        common: CommonOpts,
        /// Optional prior totals file (default: average of the prior's
        /// row/column sums).
        totals: Option<PathBuf>,
    },
    /// RAS / iterative proportional fitting.
    Ras {
        /// Common options (weights ignored).
        common: CommonOpts,
        /// Row totals file.
        row_totals: PathBuf,
        /// Column totals file.
        col_totals: PathBuf,
    },
    /// Print matrix statistics.
    Info {
        /// Matrix file.
        matrix: PathBuf,
    },
    /// Solve many instances from a JSONL manifest in one batch.
    Batch {
        /// Manifest file: one JSON instance object per line.
        manifest: PathBuf,
        /// Batch-wide options.
        opts: BatchOpts,
    },
    /// Summarize a recorded JSONL solve log and/or a span profile.
    Report {
        /// Events file written by `--observe`.
        events: Option<PathBuf>,
        /// Chrome-trace span profile written by `--trace-spans`.
        spans: Option<PathBuf>,
        /// Replay the log on a simulated machine with this many processors.
        processors: Option<usize>,
    },
    /// Print usage.
    Help,
}

/// Parse errors are plain strings shown to the user.
pub type ParseError = String;

fn take_flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), ParseError> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if name == "structural-zeros" || name == "zeros" && it.peek().is_none() {
                flags.insert("structural-zeros".to_string(), "true".to_string());
                continue;
            }
            if name == "progress" {
                flags.insert("progress".to_string(), "true".to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} requires a value"))?;
            flags.insert(name.to_string(), value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

/// `--kernel`, in any spelling [`KernelKind::parse`] accepts; absent, the
/// library default.
fn kernel_from(flags: &mut HashMap<String, String>) -> Result<KernelKind, ParseError> {
    match flags.remove("kernel") {
        None => Ok(KernelKind::default()),
        Some(v) => KernelKind::parse(&v)
            .ok_or_else(|| format!("unknown --kernel {v:?} (expected sortscan or quickselect)")),
    }
}

fn common_from(flags: &mut HashMap<String, String>) -> Result<CommonOpts, ParseError> {
    let matrix = flags
        .remove("matrix")
        .ok_or("missing required --matrix <file>")?;
    let out = flags.remove("out").map(PathBuf::from);
    let weights = flags
        .remove("weights")
        .unwrap_or_else(|| "chi2".to_string());
    if !["unit", "chi2", "sqrt"].contains(&weights.as_str()) {
        return Err(format!(
            "unknown --weights {weights:?} (expected unit, chi2, or sqrt)"
        ));
    }
    let epsilon: f64 = match flags.remove("epsilon") {
        None => 1e-8,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--epsilon {v:?} is not a number"))?,
    };
    let structural_zeros = match flags.remove("zeros").as_deref() {
        None => flags.remove("structural-zeros").is_some(),
        Some("structural") => true,
        Some("free") => false,
        Some(other) => return Err(format!("unknown --zeros {other:?} (structural|free)")),
    };
    let kernel = kernel_from(flags)?;
    let storage = flags
        .remove("storage")
        .unwrap_or_else(|| "dense".to_string());
    if !["dense", "sparse"].contains(&storage.as_str()) {
        return Err(format!(
            "unknown --storage {storage:?} (expected dense or sparse)"
        ));
    }
    let observe = flags.remove("observe").map(PathBuf::from);
    let metrics = flags.remove("metrics").map(PathBuf::from);
    let trace_spans = flags.remove("trace-spans").map(PathBuf::from);
    let flamegraph = flags.remove("flamegraph").map(PathBuf::from);
    let progress = flags.remove("progress").is_some();
    let deadline = match flags.remove("deadline") {
        None => None,
        Some(v) => {
            let secs: f64 = v
                .parse()
                .map_err(|_| format!("--deadline {v:?} is not a number of seconds"))?;
            if !(secs > 0.0) {
                return Err("--deadline must be strictly positive".to_string());
            }
            Some(secs)
        }
    };
    let max_iterations = match flags.remove("max-iterations") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("--max-iterations {v:?} is not a positive integer"))?,
        ),
    };
    let checkpoint = flags.remove("checkpoint").map(PathBuf::from);
    let checkpoint_every = match flags.remove("checkpoint-every") {
        None => 64,
        Some(v) => {
            if checkpoint.is_none() {
                return Err("--checkpoint-every requires --checkpoint <path>".to_string());
            }
            v.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("--checkpoint-every {v:?} is not a positive integer"))?
        }
    };
    let resume = flags.remove("resume").map(PathBuf::from);
    Ok(CommonOpts {
        matrix: PathBuf::from(matrix),
        out,
        weights,
        epsilon,
        structural_zeros,
        storage,
        kernel,
        observe,
        metrics,
        trace_spans,
        flamegraph,
        progress,
        deadline,
        max_iterations,
        checkpoint,
        checkpoint_every,
        resume,
    })
}

fn batch_opts_from(flags: &mut HashMap<String, String>) -> Result<BatchOpts, ParseError> {
    let out = flags.remove("out").map(PathBuf::from);
    let epsilon: f64 = match flags.remove("epsilon") {
        None => 1e-8,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--epsilon {v:?} is not a number"))?,
    };
    let kernel = kernel_from(flags)?;
    let max_iterations = match flags.remove("max-iterations") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("--max-iterations {v:?} is not a positive integer"))?,
        ),
    };
    let parallel = match flags.remove("parallel") {
        None => BatchParallelism::Serial,
        Some(v) => BatchParallelism::parse(&v).ok_or_else(|| {
            format!("unknown --parallel {v:?} (expected serial, outer[:K], or inner[:K])")
        })?,
    };
    let warm_start = match flags.remove("warm-start").as_deref() {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => return Err(format!("unknown --warm-start {other:?} (on|off)")),
    };
    let observe = flags.remove("observe").map(PathBuf::from);
    let metrics = flags.remove("metrics").map(PathBuf::from);
    let trace_spans = flags.remove("trace-spans").map(PathBuf::from);
    let flamegraph = flags.remove("flamegraph").map(PathBuf::from);
    let deadline = match flags.remove("deadline") {
        None => None,
        Some(v) => {
            let secs: f64 = v
                .parse()
                .map_err(|_| format!("--deadline {v:?} is not a number of seconds"))?;
            if !(secs > 0.0) {
                return Err("--deadline must be strictly positive".to_string());
            }
            Some(secs)
        }
    };
    Ok(BatchOpts {
        out,
        epsilon,
        kernel,
        max_iterations,
        parallel,
        warm_start,
        observe,
        metrics,
        trace_spans,
        flamegraph,
        deadline,
    })
}

fn required_path(flags: &mut HashMap<String, String>, name: &str) -> Result<PathBuf, ParseError> {
    flags
        .remove(name)
        .map(PathBuf::from)
        .ok_or_else(|| format!("missing required --{name} <file>"))
}

/// Parse a full argv (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    let (mut flags, positional) = take_flags(rest)?;
    // Only `batch` takes a positional argument (its manifest file).
    if sub != "batch" && !positional.is_empty() {
        return Err(format!("unexpected argument {:?}", positional[0]));
    }
    let cmd = match sub.as_str() {
        "batch" => {
            let manifest = match positional.as_slice() {
                [one] => PathBuf::from(one),
                [] => return Err("missing manifest file (sea-solve batch <manifest>)".to_string()),
                [_, extra, ..] => return Err(format!("unexpected argument {extra:?}")),
            };
            Command::Batch {
                manifest,
                opts: batch_opts_from(&mut flags)?,
            }
        }
        "fixed" => {
            let row_totals = required_path(&mut flags, "row-totals")?;
            let col_totals = required_path(&mut flags, "col-totals")?;
            Command::Fixed {
                common: common_from(&mut flags)?,
                row_totals,
                col_totals,
            }
        }
        "elastic" => {
            let row_totals = required_path(&mut flags, "row-totals")?;
            let col_totals = required_path(&mut flags, "col-totals")?;
            let total_weight: f64 = match flags.remove("total-weight") {
                None => 1.0,
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("--total-weight {v:?} is not a number"))?,
            };
            if !(total_weight > 0.0) {
                return Err("--total-weight must be strictly positive".to_string());
            }
            Command::Elastic {
                common: common_from(&mut flags)?,
                row_totals,
                col_totals,
                total_weight,
            }
        }
        "sam" => {
            let totals = flags.remove("totals").map(PathBuf::from);
            Command::Sam {
                common: common_from(&mut flags)?,
                totals,
            }
        }
        "ras" => {
            let row_totals = required_path(&mut flags, "row-totals")?;
            let col_totals = required_path(&mut flags, "col-totals")?;
            Command::Ras {
                common: common_from(&mut flags)?,
                row_totals,
                col_totals,
            }
        }
        "info" => {
            let matrix = required_path(&mut flags, "matrix")?;
            Command::Info { matrix }
        }
        "report" => {
            let events = flags.remove("events").map(PathBuf::from);
            let spans = flags.remove("spans").map(PathBuf::from);
            if events.is_none() && spans.is_none() {
                return Err("report needs --events <file> and/or --spans <file>".to_string());
            }
            let processors = match flags.remove("processors") {
                None => None,
                Some(v) => Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--processors {v:?} is not a positive integer"))?,
                ),
            };
            Command::Report {
                events,
                spans,
                processors,
            }
        }
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(format!("unknown subcommand {other:?}")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(cmd)
}

/// The usage text.
pub const USAGE: &str = "\
sea-solve — balance matrices with the splitting equilibration algorithm

USAGE:
  sea-solve fixed   --matrix X0.csv --row-totals s.csv --col-totals d.csv [opts]
  sea-solve elastic --matrix X0.csv --row-totals s.csv --col-totals d.csv
                    [--total-weight W] [opts]
  sea-solve sam     --matrix X0.csv [--totals s.csv] [opts]
  sea-solve ras     --matrix X0.csv --row-totals s.csv --col-totals d.csv [--out F]
  sea-solve batch   manifest.jsonl [--parallel serial|outer[:K]|inner[:K]]
                    [--warm-start on|off] [--epsilon E] [--max-iterations N]
                    [--deadline S] [--kernel K] [--observe F] [--metrics F]
                    [--trace-spans F] [--flamegraph F] [--progress]
                    [--out results.jsonl]
  sea-solve info    --matrix X0.csv
  sea-solve report  [--events events.jsonl] [--spans trace.json] [--processors N]

OPTIONS (solver subcommands):
  --weights unit|chi2|sqrt   deviation weights (default chi2 = 1/x0)
  --epsilon <f64>            stopping tolerance (default 1e-8)
  --zeros structural|free    zero handling (default free)
  --kernel quickselect|sortscan
                             equilibration kernel (default quickselect; both
                             produce the same solution, sortscan is the
                             paper's breakpoint sort, kept as the oracle)
  --storage dense|sparse     problem storage (default dense). sparse keeps
                             only the prior's support in CSR form — with
                             --zeros structural only nonzero cells are
                             stored; results match the dense path bitwise
                             on the shared support
  --out <file>               write the estimate as CSV (default stdout)

OBSERVABILITY (quadratic solver subcommands):
  --observe <file>           stream typed solver events as JSONL; the log
                             carries the per-phase execution trace that
                             `report --events F --processors N` replays
  --metrics <file>           write Prometheus text-format metrics
  --trace-spans <file>       profile the solve as hierarchical spans and
                             write a chrome-trace JSON (load in
                             chrome://tracing or Perfetto; feed back to
                             `report --spans`). Bounded overhead: spans go
                             to a preallocated ring with adaptive sampling
  --flamegraph <file>        write the span profile as folded stacks
                             (one `path;to;frame <self-us>` line each) for
                             flamegraph.pl / inferno
  --progress                 live one-line convergence progress on stderr
                             (iteration, residual, convergence-rate ETA);
                             also accepted by `batch`

ROBUSTNESS (quadratic solver subcommands):
  --deadline <secs>          wall-clock budget; on expiry the partial
                             estimate is emitted with a stop reason and a
                             KKT-residual certificate
  --max-iterations <n>       hard iteration cap (partial estimate on hit)
  --checkpoint <file>        write crash-safe solver checkpoints
                             (tmp-then-rename; safe to kill at any time)
  --checkpoint-every <k>     checkpoint cadence in iterations (default 64)
  --resume <file>            resume a solve from a checkpoint

BATCH (`sea-solve batch manifest.jsonl`):
  The manifest holds one JSON instance per line (blank and # lines are
  skipped). Each instance gives an id, an optional warm-start family, a
  class mirroring the solver subcommands, and inline data:
    {\"id\":\"q1\",\"family\":\"trade\",\"class\":\"fixed\",\"matrix\":[[1,2],[3,4]],
     \"row_totals\":[4,6],\"col_totals\":[5,5],\"weights\":\"unit\"}
  classes: fixed (row_totals + col_totals), elastic (also total_weight),
  sam (square matrix, optional totals); optional per-instance fields
  weights (unit|chi2|sqrt), zeros (structural|free), and
  storage (dense|sparse — sparse solves over CSR support-only storage).
  Instances sharing a family are seeded with the family's last converged
  dual multipliers (--warm-start off disables). --parallel splits the
  thread budget across instances (outer[:K]) or inside each equilibration
  (inner[:K]); every policy returns bitwise-identical results. One JSONL
  result line per instance goes to --out (default stdout), then a
  `# batch:` summary. Exit 0 iff every instance converged; otherwise the
  first non-converged instance's stop-reason code below.

SIGINT (Ctrl-C) cancels a running solve cooperatively: the partial
estimate is emitted with stop reason `cancelled` and exit code 130.

EXIT CODES:
  0   converged                  1   I/O or internal error
  2   usage error
  stopped early (partial estimate on stdout):
  5   iteration cap              6   deadline exceeded
  7   kernel work cap            8   residual stagnated
  9   numerical breakdown (recovered snapshot)
  130 cancelled (SIGINT)
  invalid problem or solver failure:
  10  shape mismatch             11  non-positive weight
  12  inconsistent fixed totals  13  negative total
  14  non-finite input           15  SAM prior not square
  16  infeasible subproblem      17  numerical breakdown
  18  linear-algebra error       19  inconsistent bounds
  20  worker panic (contained)   21  sparse pattern mismatch

`report` summarizes a JSONL log recorded with --observe: per-phase wall
time, serial fraction, and iterations to convergence; with --processors N
it also replays the log on a simulated N-processor machine. With
--spans trace.json it additionally breaks the solve down per span kind
(self vs inclusive time, kernel work), computes the measured critical
path, serial fraction, and speedup ceiling from the real spans, and —
with --processors — simulates the replay over the *measured* phase
durations instead of the event log's synthetic ones.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_fixed_command() {
        let cmd = parse_args(&argv(
            "fixed --matrix m.csv --row-totals s.csv --col-totals d.csv --weights unit --epsilon 1e-6 --zeros structural --out x.csv",
        ))
        .unwrap();
        match cmd {
            Command::Fixed {
                common,
                row_totals,
                col_totals,
            } => {
                assert_eq!(common.matrix, PathBuf::from("m.csv"));
                assert_eq!(common.weights, "unit");
                assert_eq!(common.epsilon, 1e-6);
                assert!(common.structural_zeros);
                assert_eq!(common.out, Some(PathBuf::from("x.csv")));
                assert_eq!(row_totals, PathBuf::from("s.csv"));
                assert_eq!(col_totals, PathBuf::from("d.csv"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn defaults_are_sensible() {
        let cmd = parse_args(&argv("sam --matrix m.csv")).unwrap();
        match cmd {
            Command::Sam { common, totals } => {
                assert_eq!(common.weights, "chi2");
                assert_eq!(common.epsilon, 1e-8);
                assert!(!common.structural_zeros);
                assert!(totals.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_kernel_flag() {
        // Every spelling `KernelKind::parse` knows, on both parsers.
        for (flag, kernel) in [
            ("quickselect", KernelKind::Quickselect),
            ("qs", KernelKind::Quickselect),
            ("sortscan", KernelKind::SortScan),
            ("sort-scan", KernelKind::SortScan),
        ] {
            match parse_args(&argv(&format!("sam --matrix m.csv --kernel {flag}"))).unwrap() {
                Command::Sam { common, .. } => assert_eq!(common.kernel, kernel),
                other => panic!("wrong command {other:?}"),
            }
            match parse_args(&argv(&format!("batch jobs.jsonl --kernel {flag}"))).unwrap() {
                Command::Batch { opts, .. } => assert_eq!(opts.kernel, kernel),
                other => panic!("wrong command {other:?}"),
            }
        }
        // No flag: the library default, which is quickselect.
        match parse_args(&argv("sam --matrix m.csv")).unwrap() {
            Command::Sam { common, .. } => {
                assert_eq!(common.kernel, KernelKind::default());
                assert_eq!(common.kernel, KernelKind::Quickselect);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(USAGE.contains(&format!("(default {}", KernelKind::default())));
        assert!(parse_args(&argv("sam --matrix m.csv --kernel mergesort")).is_err());
        assert!(parse_args(&argv("batch jobs.jsonl --kernel mergesort")).is_err());
    }

    #[test]
    fn parses_storage_flag() {
        match parse_args(&argv("sam --matrix m.csv --storage sparse")).unwrap() {
            Command::Sam { common, .. } => assert_eq!(common.storage, "sparse"),
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&argv("sam --matrix m.csv")).unwrap() {
            Command::Sam { common, .. } => assert_eq!(common.storage, "dense"),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&argv("sam --matrix m.csv --storage coo")).is_err());
    }

    #[test]
    fn parses_observability_flags() {
        let cmd = parse_args(&argv(
            "sam --matrix m.csv --observe e.jsonl --metrics m.prom",
        ))
        .unwrap();
        match cmd {
            Command::Sam { common, .. } => {
                assert_eq!(common.observe, Some(PathBuf::from("e.jsonl")));
                assert_eq!(common.metrics, Some(PathBuf::from("m.prom")));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Both default to off.
        match parse_args(&argv("sam --matrix m.csv")).unwrap() {
            Command::Sam { common, .. } => {
                assert!(common.observe.is_none() && common.metrics.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_robustness_flags() {
        let cmd = parse_args(&argv(
            "sam --matrix m.csv --deadline 1.5 --max-iterations 500 \
             --checkpoint ck.txt --checkpoint-every 8 --resume old.txt",
        ))
        .unwrap();
        match cmd {
            Command::Sam { common, .. } => {
                assert_eq!(common.deadline, Some(1.5));
                assert_eq!(common.max_iterations, Some(500));
                assert_eq!(common.checkpoint, Some(PathBuf::from("ck.txt")));
                assert_eq!(common.checkpoint_every, 8);
                assert_eq!(common.resume, Some(PathBuf::from("old.txt")));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: supervision off, cadence 64.
        match parse_args(&argv("sam --matrix m.csv")).unwrap() {
            Command::Sam { common, .. } => {
                assert!(common.deadline.is_none() && common.max_iterations.is_none());
                assert!(common.checkpoint.is_none() && common.resume.is_none());
                assert_eq!(common.checkpoint_every, 64);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&argv("sam --matrix m.csv --deadline -1")).is_err());
        assert!(parse_args(&argv("sam --matrix m.csv --deadline soon")).is_err());
        assert!(parse_args(&argv("sam --matrix m.csv --max-iterations 0")).is_err());
        // Cadence without a checkpoint destination is a usage error.
        assert!(parse_args(&argv("sam --matrix m.csv --checkpoint-every 8")).is_err());
    }

    #[test]
    fn parses_report_command() {
        match parse_args(&argv("report --events e.jsonl")).unwrap() {
            Command::Report {
                events,
                spans,
                processors,
            } => {
                assert_eq!(events, Some(PathBuf::from("e.jsonl")));
                assert!(spans.is_none());
                assert!(processors.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&argv("report --events e.jsonl --processors 8")).unwrap() {
            Command::Report { processors, .. } => assert_eq!(processors, Some(8)),
            other => panic!("wrong command {other:?}"),
        }
        // --spans alone is enough; either source satisfies the command.
        match parse_args(&argv("report --spans t.json")).unwrap() {
            Command::Report { events, spans, .. } => {
                assert!(events.is_none());
                assert_eq!(spans, Some(PathBuf::from("t.json")));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&argv("report")).is_err());
        assert!(parse_args(&argv("report --events e.jsonl --processors 0")).is_err());
        assert!(parse_args(&argv("report --events e.jsonl --processors many")).is_err());
    }

    #[test]
    fn parses_span_profiling_flags() {
        let cmd = parse_args(&argv(
            "sam --matrix m.csv --trace-spans t.json --flamegraph f.folded --progress",
        ))
        .unwrap();
        match cmd {
            Command::Sam { common, .. } => {
                assert_eq!(common.trace_spans, Some(PathBuf::from("t.json")));
                assert_eq!(common.flamegraph, Some(PathBuf::from("f.folded")));
                assert!(common.progress);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: all off.
        match parse_args(&argv("sam --matrix m.csv")).unwrap() {
            Command::Sam { common, .. } => {
                assert!(common.trace_spans.is_none() && common.flamegraph.is_none());
                assert!(!common.progress);
            }
            other => panic!("wrong command {other:?}"),
        }
        // `--progress` is a bare boolean: the next token is not swallowed.
        match parse_args(&argv("sam --progress --matrix m.csv")).unwrap() {
            Command::Sam { common, .. } => {
                assert!(common.progress);
                assert_eq!(common.matrix, PathBuf::from("m.csv"));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Batch takes span exports too.
        match parse_args(&argv(
            "batch jobs.jsonl --trace-spans t.json --flamegraph f.txt",
        ))
        .unwrap()
        {
            Command::Batch { opts, .. } => {
                assert_eq!(opts.trace_spans, Some(PathBuf::from("t.json")));
                assert_eq!(opts.flamegraph, Some(PathBuf::from("f.txt")));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("fixed --matrix m.csv")).is_err()); // missing totals
        assert!(parse_args(&argv(
            "fixed --matrix m.csv --row-totals s --col-totals d --weights bogus"
        ))
        .is_err());
        assert!(parse_args(&argv("nonsense")).is_err());
        assert!(parse_args(&argv(
            "fixed --matrix m.csv --row-totals s --col-totals d --mystery 1"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "elastic --matrix m.csv --row-totals s --col-totals d --total-weight -2"
        ))
        .is_err());
        // Removed with the SIMD and f32 kernels: now unknown flags.
        assert!(parse_args(&argv("batch jobs.jsonl --simd off")).is_err());
        assert!(parse_args(&argv("batch jobs.jsonl --precision f64")).is_err());
    }

    #[test]
    fn parses_batch_command() {
        let cmd = parse_args(&argv(
            "batch jobs.jsonl --parallel outer:4 --warm-start off --epsilon 1e-9 \
             --max-iterations 500 --kernel quickselect --out r.jsonl --observe e.jsonl \
             --metrics m.prom --deadline 2.5",
        ))
        .unwrap();
        match cmd {
            Command::Batch { manifest, opts } => {
                assert_eq!(manifest, PathBuf::from("jobs.jsonl"));
                assert_eq!(opts.parallel, BatchParallelism::OuterThreads(4));
                assert!(!opts.warm_start);
                assert_eq!(opts.epsilon, 1e-9);
                assert_eq!(opts.max_iterations, Some(500));
                assert_eq!(opts.kernel, KernelKind::Quickselect);
                assert_eq!(opts.out, Some(PathBuf::from("r.jsonl")));
                assert_eq!(opts.observe, Some(PathBuf::from("e.jsonl")));
                assert_eq!(opts.metrics, Some(PathBuf::from("m.prom")));
                assert_eq!(opts.deadline, Some(2.5));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: serial scheduling, warm starts on, no sinks.
        match parse_args(&argv("batch jobs.jsonl")).unwrap() {
            Command::Batch { opts, .. } => {
                assert_eq!(opts.parallel, BatchParallelism::Serial);
                assert!(opts.warm_start);
                assert_eq!(opts.epsilon, 1e-8);
                assert_eq!(opts.kernel, KernelKind::default());
                assert!(opts.out.is_none() && opts.observe.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn batch_rejects_bad_input() {
        assert!(parse_args(&argv("batch")).is_err()); // missing manifest
        assert!(parse_args(&argv("batch a.jsonl b.jsonl")).is_err());
        assert!(parse_args(&argv("batch jobs.jsonl --parallel sideways")).is_err());
        assert!(parse_args(&argv("batch jobs.jsonl --parallel outer:0")).is_err());
        assert!(parse_args(&argv("batch jobs.jsonl --warm-start maybe")).is_err());
        assert!(parse_args(&argv("batch jobs.jsonl --mystery 1")).is_err());
        // Positional manifests stay exclusive to `batch`.
        assert!(parse_args(&argv("info stray.csv --matrix m.csv")).is_err());
    }

    #[test]
    fn no_args_prints_help() {
        assert!(matches!(parse_args(&[]), Ok(Command::Help)));
        assert!(matches!(parse_args(&argv("help")), Ok(Command::Help)));
    }
}
