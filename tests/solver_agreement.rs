//! Cross-solver agreement: SEA, RC, B-K, and RAS computed answers must be
//! mutually consistent wherever their problem classes overlap. This is the
//! strongest correctness evidence in the suite — four algorithmically
//! unrelated methods converging to the same matrices.

#![allow(clippy::needless_range_loop)] // parallel-array numeric idiom

mod common;

use sea::baselines::bachem_korte::{solve_diagonal_bk, solve_general_bk, BkOptions};
use sea::baselines::ras::{ras_balance, RasOptions};
use sea::baselines::rc::{solve_general_rc, RcOptions};
use sea::core::{
    solve_diagonal_supervised, solve_general_supervised, DiagonalProblem, GeneralProblem,
    GeneralSeaOptions, GeneralSolution, NullObserver, SeaOptions, Solution, SupervisorOptions,
    TotalSpec,
};
use sea::data::{table1_instance, table7_instance};
use sea::linalg::DenseMatrix;

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
fn sea_and_bk_agree_on_diagonal_fixed_problems() {
    for seed in [1u64, 2, 3] {
        let p = table1_instance(8, seed);
        let sea = sea_diagonal(&p, &SeaOptions::with_epsilon(1e-10));
        // Frank-Wolfe's O(1/k) rate makes very tight gaps impractical;
        // 1e-5 relative gap still pins the objective to ~5 digits.
        let bk = solve_diagonal_bk(&p, &BkOptions::with_epsilon(3e-5)).unwrap();
        assert!(sea.stats.converged && bk.converged);
        let scale = p.x0().as_slice().iter().cloned().fold(1.0_f64, f64::max);
        assert!(
            sea.x.max_abs_diff(&bk.x) / scale < 1e-2,
            "seed {seed}: SEA vs B-K iterates differ by {}",
            sea.x.max_abs_diff(&bk.x)
        );
        let rel_obj =
            (sea.stats.objective - bk.objective).abs() / sea.stats.objective.abs().max(1.0);
        assert!(
            rel_obj < 1e-4,
            "seed {seed}: objectives differ by {rel_obj}"
        );
        // B-K's value can never beat the optimum SEA certifies.
        assert!(bk.objective >= sea.stats.objective - 1e-7 * sea.stats.objective.abs());
    }
}

#[test]
fn sea_rc_bk_agree_on_general_problems() {
    for seed in [10u64, 20] {
        let p = table7_instance(6, seed);
        let sea = sea_general(&p, &GeneralSeaOptions::with_epsilon(1e-9));
        let rc = solve_general_rc(&p, &RcOptions::with_epsilon(1e-9), &mut NullObserver).unwrap();
        let bk = solve_general_bk(&p, &BkOptions::with_epsilon(1e-5)).unwrap();
        assert!(sea.converged && rc.converged && bk.converged);
        let scale = p.x0().as_slice().iter().cloned().fold(1.0_f64, f64::max);
        assert!(
            sea.x.max_abs_diff(&rc.x) / scale < 1e-5,
            "seed {seed} SEA/RC"
        );
        assert!(
            sea.x.max_abs_diff(&bk.x) / scale < 1e-2,
            "seed {seed} SEA/B-K"
        );
        assert!((sea.objective - bk.objective).abs() / sea.objective.max(1.0) < 1e-4);
        // Objectives agree even more tightly (flat near the optimum).
        assert!((sea.objective - rc.objective).abs() / sea.objective.max(1.0) < 1e-6);
    }
}

#[test]
fn objectives_ranked_by_weight_scheme_consistency() {
    // SEA's chi-square solution and RAS's biproportional solution minimize
    // *different* objectives on the same feasible set: each must win its
    // own contest.
    let p = table1_instance(10, 77);
    let TotalSpec::Fixed { s0, d0 } = p.totals() else {
        panic!()
    };
    let sea = sea_diagonal(&p, &SeaOptions::with_epsilon(1e-12));
    let ras = ras_balance(p.x0(), s0, d0, &RasOptions::default()).unwrap();
    assert!(ras.converged);
    // Chi-square objective: SEA at most RAS.
    let chi = |x: &DenseMatrix| p.objective(x, &[], &[]);
    assert!(
        chi(&sea.x) <= chi(&ras.x) + 1e-9 * chi(&ras.x).max(1.0),
        "SEA should minimize its own objective: {} vs {}",
        chi(&sea.x),
        chi(&ras.x)
    );
    // Entropy objective (RAS's implicit criterion): RAS at most SEA.
    let ent = |x: &DenseMatrix| -> f64 {
        x.as_slice()
            .iter()
            .zip(p.x0().as_slice())
            .filter(|(_, &x0v)| x0v > 0.0)
            .map(|(&xv, &x0v)| {
                if xv > 0.0 {
                    xv * (xv / x0v).ln() - xv + x0v
                } else {
                    x0v
                }
            })
            .sum()
    };
    assert!(
        ent(&ras.x) <= ent(&sea.x) + 1e-6 * ent(&sea.x).abs().max(1.0),
        "RAS should minimize relative entropy: {} vs {}",
        ent(&ras.x),
        ent(&sea.x)
    );
}

#[test]
fn dual_value_brackets_every_solver() {
    // SEA's dual value at its multipliers lower-bounds the primal value of
    // *any* feasible solution — including B-K's and RAS's.
    let p = table1_instance(10, 5);
    let TotalSpec::Fixed { s0, d0 } = p.totals() else {
        panic!()
    };
    let sea = sea_diagonal(&p, &SeaOptions::with_epsilon(1e-12));
    let zeta = sea::core::dual::dual_value(&p, &sea.lambda, &sea.mu);
    let bk = solve_diagonal_bk(&p, &BkOptions::with_epsilon(1e-5)).unwrap();
    let ras = ras_balance(p.x0(), s0, d0, &RasOptions::default()).unwrap();
    for (name, x) in [("B-K", &bk.x), ("RAS", &ras.x)] {
        let primal = p.objective(x, &[], &[]);
        assert!(
            zeta <= primal + 1e-7 * primal.abs().max(1.0),
            "weak duality vs {name}: zeta {zeta} > primal {primal}"
        );
    }
}

#[test]
fn boundary_active_case_agrees_across_solvers() {
    // Force the nonnegativity constraints active: a large entry must
    // shrink to (near) zero to meet a tiny margin.
    let x0 = DenseMatrix::from_rows(&[vec![50.0, 1.0], vec![1.0, 50.0]]).unwrap();
    let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
    let p = DiagonalProblem::new(
        x0,
        gamma,
        TotalSpec::Fixed {
            s0: vec![2.0, 51.0],
            d0: vec![1.0, 52.0],
        },
    )
    .unwrap();
    let sea = sea_diagonal(&p, &SeaOptions::with_epsilon(1e-12));
    let bk = solve_diagonal_bk(&p, &BkOptions::with_epsilon(1e-6)).unwrap();
    assert!(sea.x.max_abs_diff(&bk.x) < 1e-2);
    assert!((sea.stats.objective - bk.objective).abs() < 1e-5 * sea.stats.objective.max(1.0));
    // The equality-only reference is NOT valid here (it goes negative) —
    // confirming the test exercises the active-set machinery.
    let reference =
        common::equality_qp_reference(p.x0(), p.gamma(), &[2.0, 51.0], &[1.0, 52.0]).unwrap();
    assert!(reference.as_slice().iter().any(|&v| v < 0.0));
    assert!(sea.x.as_slice().iter().all(|&v| v >= 0.0));
}
