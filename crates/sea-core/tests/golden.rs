//! Golden regression fixtures: one KKT-verified solution per diagonal
//! problem class, asserted under both equilibration kernels. The fixtures
//! were recorded by the paper's SEA, so every solve here runs without
//! extrapolation (depth 0).
//!
//! Regenerate the CSVs (after an intentional solver change) with
//! `cargo test -p sea-core --test golden -- --ignored regenerate`.

mod common;

use common::{all_fixtures, parse_golden, solve_at_depth};
use sea_core::{verify_solution, KernelKind, Parallelism};

const GOLDEN: [(&str, &str); 3] = [
    ("fixed", include_str!("common/golden_fixed.csv")),
    ("elastic", include_str!("common/golden_elastic.csv")),
    ("balanced", include_str!("common/golden_balanced.csv")),
];

#[test]
fn golden_solutions_reproduce_under_both_kernels() {
    for (tag, problem) in all_fixtures() {
        let golden = parse_golden(
            GOLDEN
                .iter()
                .find(|(t, _)| *t == tag)
                .unwrap_or_else(|| panic!("no golden for {tag}"))
                .1,
        );
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            let sol = solve_at_depth(&problem, kernel, Parallelism::Serial, 0);
            assert_eq!(
                sol.x.as_slice().len(),
                golden.len(),
                "{tag}/{kernel}: golden shape drifted"
            );
            for (k, (&got, &want)) in sol.x.as_slice().iter().zip(&golden).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-8 * (1.0 + want.abs()),
                    "{tag}/{kernel}: x[{k}] = {got} deviates from golden {want}"
                );
            }
            let report = verify_solution(&problem, &sol);
            assert!(
                report.is_optimal(1e-6),
                "{tag}/{kernel}: KKT violated: {report:?}"
            );
        }
    }
}

#[test]
fn golden_kernels_agree_tightly() {
    // Beyond matching the stored golden at 1e-8, the two kernels must agree
    // with each other to full differential tolerance on the final solve.
    for (tag, problem) in all_fixtures() {
        let a = solve_at_depth(&problem, KernelKind::SortScan, Parallelism::Serial, 0);
        let b = solve_at_depth(&problem, KernelKind::Quickselect, Parallelism::Serial, 0);
        for (k, (&xa, &xb)) in a.x.as_slice().iter().zip(b.x.as_slice()).enumerate() {
            assert!(
                (xa - xb).abs() <= 1e-10 * (1.0 + xa.abs()),
                "{tag}: x[{k}] sortscan {xa} vs quickselect {xb}"
            );
        }
    }
}

/// Writes fresh golden CSVs from the sort-scan reference kernel. Ignored by
/// default; run explicitly when a solver change intentionally moves the
/// fixture solutions.
#[test]
#[ignore]
fn regenerate() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/common");
    for (tag, problem) in all_fixtures() {
        let sol = solve_at_depth(&problem, KernelKind::SortScan, Parallelism::Serial, 0);
        let report = verify_solution(&problem, &sol);
        assert!(
            report.is_optimal(1e-6),
            "{tag}: refusing to store non-KKT golden"
        );
        let mut out =
            format!("# golden solution for the `{tag}` fixture (sort-scan, serial, eps 1e-10)\n");
        let cols = sol.x.cols();
        for (k, v) in sol.x.as_slice().iter().enumerate() {
            out.push_str(&format!("{v:.17e}"));
            out.push(if (k + 1) % cols == 0 { '\n' } else { ',' });
        }
        std::fs::write(dir.join(format!("golden_{tag}.csv")), out).unwrap();
    }
}
