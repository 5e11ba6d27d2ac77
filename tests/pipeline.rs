//! Cross-crate pipeline tests: dataset generator → problem → SEA →
//! verification, for every problem class the paper evaluates.

#![allow(clippy::needless_range_loop)] // parallel-array numeric idiom

mod common;

use sea::core::{
    solve_diagonal_supervised, solve_general_supervised, DiagonalProblem, GeneralProblem,
    GeneralSeaOptions, GeneralSolution, NullObserver, SeaOptions, Solution, SupervisorOptions,
    TotalSpec,
};
use sea::data::io_tables::{io_dataset, IoVariant};
use sea::data::migration::{migration_problem, MigrationVariant, Period};
use sea::data::sam::{sam_problem, SamInstance};
use sea::data::{table1_instance, table7_instance};

/// Diagonal SEA under default supervision; the solution alone.
fn sea_diagonal(p: &DiagonalProblem, opts: &SeaOptions) -> Solution {
    solve_diagonal_supervised(p, opts, &SupervisorOptions::default(), &mut NullObserver)
        .unwrap()
        .solution
}

/// General SEA under default supervision; the solution alone.
fn sea_general(p: &GeneralProblem, opts: &GeneralSeaOptions) -> GeneralSolution {
    solve_general_supervised(p, opts, &SupervisorOptions::default(), &mut NullObserver)
        .unwrap()
        .solution
}

#[test]
fn table1_pipeline_reaches_paper_tolerance() {
    let p = table1_instance(60, 99);
    let sol = sea_diagonal(&p, &SeaOptions::with_epsilon(0.01));
    assert!(sol.stats.converged);
    // Paper criterion: relative row balance ≤ .01; columns exact.
    assert!(sol.stats.residuals.rel_row_inf <= 0.01);
    assert!(sol.stats.residuals.col_inf < 1e-6 * p.x0().total());
    assert!(sol.x.as_slice().iter().all(|&v| v >= 0.0));
}

#[test]
fn io_pipeline_all_families() {
    for family in 0..3u8 {
        let v = IoVariant {
            family,
            variant: 'a',
        };
        let p = io_dataset(v, 0);
        let sol = sea_diagonal(&p, &SeaOptions::with_epsilon(0.01));
        assert!(sol.stats.converged, "{} failed", v.name());
        // Structural zeros preserved across the whole pipeline.
        for (x0v, xv) in p.x0().as_slice().iter().zip(sol.x.as_slice()) {
            if *x0v == 0.0 {
                assert_eq!(*xv, 0.0);
            }
        }
    }
}

#[test]
fn sam_pipeline_balances_every_instance() {
    for inst in [
        SamInstance::Stone,
        SamInstance::Turk,
        SamInstance::Sri,
        SamInstance::Usda82e,
    ] {
        let p = sam_problem(inst, 3);
        let sol = sea_diagonal(&p, &SeaOptions::with_epsilon(0.001));
        assert!(sol.stats.converged, "{} failed", inst.name());
        let rows = sol.x.row_sums();
        let cols = sol.x.col_sums();
        for i in 0..p.m() {
            let scale = rows[i].abs().max(1.0);
            assert!(
                (rows[i] - cols[i]).abs() / scale < 0.01,
                "{} account {i}: {} vs {}",
                inst.name(),
                rows[i],
                cols[i]
            );
        }
    }
}

#[test]
fn migration_pipeline_interpolates_totals() {
    let p = migration_problem(Period::P6570, MigrationVariant::A);
    let sol = sea_diagonal(&p, &SeaOptions::with_epsilon(1e-4));
    assert!(sol.stats.converged);
    let TotalSpec::Elastic { s0, .. } = p.totals() else {
        panic!("elastic expected")
    };
    // Estimated totals are an elastic compromise between prior margins and
    // targets. The column penalties couple the rows, so a state can
    // overshoot its own bracket slightly — allow a quarter of the gap as
    // slack, and require the aggregate to interpolate strictly.
    let base = p.x0().row_sums();
    for i in 0..48 {
        let slack = 0.25 * (s0[i] - base[i]).abs() + 0.01 * base[i];
        let lo = base[i].min(s0[i]) - slack;
        let hi = base[i].max(s0[i]) + slack;
        assert!(
            sol.s[i] >= lo && sol.s[i] <= hi,
            "state {i}: {} not in [{lo}, {hi}]",
            sol.s[i]
        );
    }
    let total_base: f64 = base.iter().sum();
    let total_target: f64 = s0.iter().sum();
    let total_est: f64 = sol.s.iter().sum();
    assert!(total_est > total_base && total_est < total_target);
}

#[test]
fn general_pipeline_table7_instance() {
    let p = table7_instance(8, 4);
    let sol = sea_general(&p, &GeneralSeaOptions::with_epsilon(1e-6));
    assert!(sol.converged);
    assert!(sol.residuals.row_inf < 1e-4);
    assert!(sol.residuals.col_inf < 1e-4);
    assert!(sol.x.as_slice().iter().all(|&v| v >= 0.0));
    // Objective must not exceed the feasible proportional-fill start.
    let (xi, si, di) = p.initial_feasible();
    assert!(sol.objective <= p.objective(&xi, &si, &di) + 1e-9);
}

#[test]
fn general_class_matches_dense_kkt_when_interior() {
    // Interior instance: margins equal to the prior's own sums keep the
    // unconstrained-sign optimum at x0 itself... so perturb slightly to
    // exercise the off-diagonal coupling while staying interior.
    use sea::core::GeneralTotalSpec;
    let base = table7_instance(4, 21);
    let x0 = base.x0().clone();
    let g = base.g().clone();
    let s0: Vec<f64> = x0.row_sums().iter().map(|v| v * 1.02).collect();
    let mut d0: Vec<f64> = x0.col_sums().to_vec();
    let f: f64 = s0.iter().sum::<f64>() / d0.iter().sum::<f64>();
    for v in &mut d0 {
        *v *= f;
    }
    let reference =
        common::general_equality_qp_reference(&x0, &g, &s0, &d0).expect("nonsingular KKT");
    assert!(
        reference.as_slice().iter().all(|&v| v >= 0.0),
        "instance not interior; adjust the perturbation"
    );
    let p =
        sea::core::GeneralProblem::new(x0.clone(), g, GeneralTotalSpec::Fixed { s0, d0 }).unwrap();
    let sol = sea_general(&p, &GeneralSeaOptions::with_epsilon(1e-10));
    assert!(sol.converged);
    let scale = x0.as_slice().iter().cloned().fold(1.0_f64, f64::max);
    assert!(
        sol.x.max_abs_diff(&reference) / scale < 1e-6,
        "general SEA vs dense KKT differ by {}",
        sol.x.max_abs_diff(&reference)
    );
}

#[test]
fn fixed_class_matches_equality_qp_when_interior() {
    // When the equality-only optimum is already nonnegative, SEA must find
    // exactly it — checked against an independent dense KKT solve.
    let p = table1_instance(6, 5);
    let TotalSpec::Fixed { s0, d0 } = p.totals() else {
        panic!("fixed expected")
    };
    let reference =
        common::equality_qp_reference(p.x0(), p.gamma(), s0, d0).expect("nonsingular KKT");
    assert!(
        reference.as_slice().iter().all(|&v| v >= 0.0),
        "instance not interior; pick a different seed"
    );
    let sol = sea_diagonal(&p, &SeaOptions::with_epsilon(1e-12));
    let diff = sol.x.max_abs_diff(&reference);
    let scale = p.x0().as_slice().iter().cloned().fold(1.0_f64, f64::max);
    assert!(
        diff / scale < 1e-7,
        "SEA vs KKT reference differ by {diff} (scale {scale})"
    );
}
