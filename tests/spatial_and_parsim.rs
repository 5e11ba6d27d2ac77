//! Integration tests for the spatial price equilibrium substrate and the
//! scheduling simulator pipeline (trace → simulated speedups).

#![allow(clippy::needless_range_loop)] // parallel-array numeric idiom

use proptest::prelude::*;
use sea::core::{
    solve_diagonal_supervised, DiagonalProblem, SeaOptions, Solution, SupervisorOptions,
    VecObserver,
};
use sea::data::table1_instance;
use sea::parsim::{speedup_table, MachineModel, SimPhase};
use sea::spatial::{check_equilibrium, random_spe, solve_spe};
use sea_cli::commands::trace_to_sim_phases;

/// Solve with an event recorder and turn the recorded `PhaseEnd` events
/// into simulator phases.
fn traced_solve(p: &DiagonalProblem, opts: &SeaOptions) -> (Solution, Vec<SimPhase>) {
    let mut obs = VecObserver::new();
    let sol = solve_diagonal_supervised(p, opts, &SupervisorOptions::default(), &mut obs)
        .unwrap()
        .solution;
    (sol, trace_to_sim_phases(&obs.events))
}

#[test]
fn spe_solutions_satisfy_wardrop_style_conditions() {
    for seed in [1u64, 2, 3] {
        let p = random_spe(12, 9, seed);
        let sol = solve_spe(&p, &SeaOptions::with_epsilon(1e-10)).unwrap();
        assert!(sol.converged, "seed {seed}");
        let scale = sol.report.total_flow.max(1.0);
        assert!(sol.report.max_price_violation < 1e-5, "seed {seed}");
        assert!(
            sol.report.max_complementarity_gap / scale < 1e-5,
            "seed {seed}"
        );
    }
}

#[test]
fn spe_supply_shift_reduces_trade() {
    // Comparative statics: raising every supply intercept (costlier
    // production) must not increase total equilibrium flow.
    let base = random_spe(8, 8, 42);
    let mut costly = base.clone();
    for a in &mut costly.supply_intercept {
        *a += 50.0;
    }
    let sol_base = solve_spe(&base, &SeaOptions::with_epsilon(1e-10)).unwrap();
    let sol_costly = solve_spe(&costly, &SeaOptions::with_epsilon(1e-10)).unwrap();
    assert!(
        sol_costly.report.total_flow <= sol_base.report.total_flow + 1e-6,
        "{} vs {}",
        sol_costly.report.total_flow,
        sol_base.report.total_flow
    );
}

#[test]
fn trace_replay_is_consistent_with_measured_solve() {
    // T1 from the trace (sum of phase work) must approximate the measured
    // serial wall time of the same solve. The solve takes about a
    // millisecond, so a lost timeslice can inflate one run's wall time
    // (never its traced time): every run must respect the upper bound,
    // and the lower bound is judged on the median of five runs.
    let p = table1_instance(80, 3);
    let mut ratios: Vec<f64> = (0..5)
        .map(|_| {
            let (sol, phases) = traced_solve(&p, &SeaOptions::with_epsilon(0.01));
            let t1: f64 = phases.iter().flat_map(|ph| &ph.tasks).sum();
            let wall = sol.stats.elapsed.as_secs_f64();
            assert!(t1 > 0.0);
            assert!(
                t1 <= wall * 1.05,
                "trace time {t1} cannot exceed wall time {wall}"
            );
            t1 / wall
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    // Most of the solve is accounted for by the traced phases.
    assert!(
        ratios[2] >= 0.3,
        "median trace/wall {} of {ratios:?}: too much untraced time",
        ratios[2]
    );
}

#[test]
fn simulated_speedups_have_paper_shape() {
    let p = table1_instance(150, 7);
    let (_, phases) = traced_solve(&p, &SeaOptions::with_epsilon(0.01));
    let rows = speedup_table(
        &phases,
        &[1, 2, 4, 6],
        MachineModel::DEFAULT_DISPATCH_OVERHEAD,
        MachineModel::DEFAULT_FORK_JOIN_OVERHEAD,
    );
    // N=1 anchor.
    assert!((rows[0].speedup - 1.0).abs() < 1e-9);
    // Monotone increasing speedups, decreasing efficiencies — the paper's
    // Table 6 shape.
    for w in rows.windows(2) {
        assert!(
            w[1].speedup >= w[0].speedup * 0.99,
            "speedup not increasing"
        );
        assert!(
            w[1].efficiency <= w[0].efficiency + 1e-9,
            "efficiency not decreasing"
        );
    }
    // Sub-linear but substantial: between 50% and 100% efficiency at N=2.
    assert!(rows[1].efficiency > 0.5 && rows[1].efficiency <= 1.0 + 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spe_equilibrium_invariants_hold_for_random_instances(
        m in 2usize..8,
        n in 2usize..8,
        seed in 0u64..200,
    ) {
        let p = random_spe(m, n, seed);
        let sol = solve_spe(&p, &SeaOptions::with_epsilon(1e-9)).unwrap();
        prop_assume!(sol.converged);
        let report = check_equilibrium(&p, &sol.x, &sol.s, &sol.d);
        let scale = report.total_flow.max(1.0);
        prop_assert!(report.max_price_violation < 1e-4);
        prop_assert!(report.max_complementarity_gap / scale < 1e-4);
        // Supplies and demands are nonnegative and conserve flow.
        prop_assert!(sol.s.iter().all(|&v| v >= -1e-9));
        prop_assert!(sol.d.iter().all(|&v| v >= -1e-9));
        prop_assert!(report.max_conservation_violation / scale < 1e-6);
    }
}
