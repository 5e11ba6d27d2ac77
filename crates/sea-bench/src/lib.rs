//! # sea-bench — the paper's experiment harness
//!
//! One binary per table/figure of the evaluation section; each prints the
//! same rows/series the paper reports and writes `<id>.md` to the
//! scale's [`results_dir`]:
//!
//! | binary    | reproduces |
//! |-----------|------------|
//! | `table1`  | Table 1 — SEA on large-scale diagonal problems |
//! | `table2`  | Table 2 — SEA on US input/output datasets |
//! | `table3`  | Table 3 — SEA on social accounting matrices |
//! | `table4`  | Table 4 — SEA on US migration tables |
//! | `table5`  | Table 5 — SEA on spatial price equilibrium problems |
//! | `table6`  | Table 6 + Figure 5 — parallel speedups, diagonal problems |
//! | `table7`  | Table 7 — SEA vs RC vs B-K, general problems, dense G |
//! | `table8`  | Table 8 — SEA on general migration problems |
//! | `table9`  | Table 9 + Figure 7 — parallel speedups, general problems |
//! | `fig5`    | Figure 5 speedup series (CSV) |
//! | `fig7`    | Figure 7 speedup series (CSV) |
//! | `ablation`| extra: sorting / check-cadence ablations (DESIGN.md §8) |
//! | `theory_check` | extra: empirical validation of the §3.1 convergence theory |
//! | `weights_study` | extra: weight-scheme conditioning study |
//! | `run_all` | everything above in sequence |
//!
//! Every binary accepts `--scale {small|medium|paper}` (default `medium`)
//! to trade fidelity for runtime, and `--seed <u64>`.

pub mod experiments;

use sea_core::{GeneralSeaOptions, SeaOptions};
use std::path::PathBuf;

/// Options for the paper's SEA at tolerance `eps`: the tables and figures
/// reproduce its iteration counts and dual ascent, so extrapolation is
/// off.
pub fn paper_options(eps: f64) -> SeaOptions {
    SeaOptions {
        extrapolation_depth: 0,
        ..SeaOptions::with_epsilon(eps)
    }
}

/// [`paper_options`] for the general solver: inner solves without
/// extrapolation.
pub fn paper_general_options(eps: f64) -> GeneralSeaOptions {
    let mut o = GeneralSeaOptions::with_epsilon(eps);
    o.inner.extrapolation_depth = 0;
    o
}

/// Problem-size scaling for the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes (seconds).
    Small,
    /// Reduced but representative sizes (default).
    Medium,
    /// The paper's full problem sizes.
    Paper,
}

impl Scale {
    /// Parse a `--scale` value (`small`, `medium` or `paper`).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Parse `--scale` and `--seed` from `std::env::args`. Unknown
    /// arguments are ignored so binaries can add their own flags; an
    /// unknown `--scale` value exits with status 2.
    pub fn from_args() -> (Scale, u64) {
        let args: Vec<String> = std::env::args().collect();
        let mut scale = Scale::Medium;
        let mut seed = 1990; // the paper's year, for determinism
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    let v = it.next().map_or("", String::as_str);
                    scale = Scale::parse(v).unwrap_or_else(|| {
                        eprintln!("unknown --scale {v:?}: expected small, medium or paper");
                        std::process::exit(2);
                    });
                }
                "--seed" => {
                    if let Some(v) = it.next() {
                        seed = v.parse().unwrap_or(seed);
                    }
                }
                _ => {}
            }
        }
        (scale, seed)
    }
}

/// Directory a run at `scale` writes its records to: the committed
/// paper-scale records live in `results/` and the medium-scale snapshots
/// in `results_medium/`; small-scale smoke runs go to the untracked
/// `target/results_small/`, so no run overwrites another scale's records.
pub fn results_dir(scale: Scale) -> PathBuf {
    PathBuf::from(match scale {
        Scale::Paper => "results",
        Scale::Medium => "results_medium",
        Scale::Small => "target/results_small",
    })
}

/// Standard speedup columns used by Tables 6 and 9.
pub fn speedup_rows_to_table(
    table: &mut sea_report::Table,
    example: &str,
    rows: &[sea_parsim::SpeedupRow],
) {
    for r in rows {
        if r.processors == 1 {
            continue; // the paper lists N ≥ 2 only
        }
        table.push_row(vec![
            example.to_string(),
            r.processors.to_string(),
            format!("{:.2}", r.speedup),
            format!("{:.2}%", 100.0 * r.efficiency),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_scale_writes_its_own_results_dir() {
        assert_eq!(results_dir(Scale::Paper), PathBuf::from("results"));
        assert_eq!(results_dir(Scale::Medium), PathBuf::from("results_medium"));
        assert_eq!(
            results_dir(Scale::Small),
            PathBuf::from("target/results_small")
        );
        for scale in [Scale::Small, Scale::Medium, Scale::Paper] {
            let name = format!("{scale:?}").to_lowercase();
            assert_eq!(Scale::parse(&name), Some(scale));
        }
        assert_eq!(Scale::parse("large"), None);
    }

    #[test]
    fn vector_era_scaling_penalizes_serial_phases_only() {
        use crate::experiments::{vector_era_phases, VECTOR_ERA_SCALAR_PENALTY};
        use sea_parsim::SimPhase;
        let phases = vec![
            SimPhase::parallel(vec![1.0, 2.0]),
            SimPhase::serial(vec![0.5]),
            SimPhase::parallel_memory_bound(vec![3.0]),
        ];
        let scaled = vector_era_phases(&phases);
        assert_eq!(scaled[0].tasks, vec![1.0, 2.0]);
        assert_eq!(scaled[1].tasks, vec![0.5 * VECTOR_ERA_SCALAR_PENALTY]);
        assert_eq!(scaled[2].tasks, vec![3.0]);
        assert!(scaled[2].memory_bound);
    }

    #[test]
    fn speedup_table_skips_n1() {
        let mut t = sea_report::Table::new("t", &["Example", "N", "S_N", "E_N"]);
        let rows = vec![
            sea_parsim::SpeedupRow {
                processors: 1,
                time: 1.0,
                speedup: 1.0,
                efficiency: 1.0,
            },
            sea_parsim::SpeedupRow {
                processors: 2,
                time: 0.52,
                speedup: 1.92,
                efficiency: 0.96,
            },
        ];
        speedup_rows_to_table(&mut t, "X", &rows);
        assert_eq!(t.len(), 1);
    }
}
