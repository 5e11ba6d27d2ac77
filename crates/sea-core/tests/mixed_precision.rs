//! Mixed-precision certificate suite.
//!
//! `Precision::F32Mixed` runs the λ-search in `f32` (with `f64` residual
//! and dual accumulation) and finishes with a full-`f64` polish epoch; a
//! solve may only report `Converged` from the polish. The contract under
//! test: **every** converged mixed-precision solve passes the same
//! first-principles `f64` KKT certificate a pure-`f64` solve must pass —
//! the fast path buys time, never certainty.
//!
//! The suite also pins the rescue story on a crafted ill-conditioned
//! fixture (weight spreads of 1e±6): pure `f32` stalls at its noise floor
//! and honestly reports non-convergence (its residual is measured on
//! `f64`-materialized iterates, so it stalls rather than lies), while
//! `f32-mixed` polishes through to a certified optimum.

#[path = "common/generator.rs"]
mod generator;

use proptest::prelude::*;
use sea_core::{
    solve_bounded_supervised, solve_diagonal, verify_solution, DiagonalProblem, GapCheck,
    KernelKind, NullObserver, Parallelism, Precision, SeaOptions, SimdMode, SupervisorOptions,
    TotalSpec,
};
use sea_linalg::DenseMatrix;

const SEED: u64 = 0xF32_F1C5;

/// SIMD policy under test, honouring the `SEA_SIMD` CI matrix variable
/// (`off` / `auto` / `force`); `force` degrades to `auto` on CPUs without
/// AVX2 so the certificate contract is still exercised there.
fn simd_under_test() -> SimdMode {
    match std::env::var("SEA_SIMD").ok().as_deref() {
        Some("off") => SimdMode::Off,
        Some("force") if sea_core::SimdLevel::detect() == sea_core::SimdLevel::Avx2 => {
            SimdMode::Force
        }
        _ => SimdMode::Auto,
    }
}

/// Pinned to sort-scan: the f32 λ-search stands in for that kernel only
/// (quickselect routes every precision to its f64 search), so under the
/// default kernel these tests would run f64 alone.
fn opts(epsilon: f64, precision: Precision) -> SeaOptions {
    let mut o = SeaOptions::with_epsilon(epsilon);
    o.kernel = KernelKind::SortScan;
    o.simd = simd_under_test();
    o.precision = precision;
    o.max_iterations = 50_000;
    o
}

/// Weight spreads of 1e±6 inside every row: the `f32` λ-search cannot
/// resolve the small-weight entries' contributions against the large ones
/// (f32 carries ~7 significant digits), so an ε = 1e-9 residual target
/// sits below its noise floor.
fn ill_conditioned(m: usize, n: usize) -> DiagonalProblem {
    let mut x0 = DenseMatrix::zeros(m, n).expect("valid dims");
    let mut gamma = DenseMatrix::zeros(m, n).expect("valid dims");
    for i in 0..m {
        for j in 0..n {
            let k = i * n + j;
            x0.set(i, j, 1.0 + (k % 5) as f64);
            gamma.set(i, j, if k.is_multiple_of(2) { 1e-6 } else { 1e6 });
        }
    }
    let s0: Vec<f64> = (0..m).map(|i| 3.2 * n as f64 + (i % 3) as f64).collect();
    let total: f64 = s0.iter().sum();
    let mut d0: Vec<f64> = (0..n).map(|j| 2.0 + (j % 4) as f64).collect();
    let dsum: f64 = d0.iter().sum();
    for v in &mut d0 {
        *v *= total / dsum;
    }
    let resid = total - d0.iter().sum::<f64>();
    d0[0] += resid;
    DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 })
        .expect("ill-conditioned fixture is constructible")
}

/// The headline rescue: pure `f32` fails the tight tolerance on the
/// 1e±6 fixture, `f32-mixed` converges and passes the `f64` certificate.
#[test]
fn f32_fails_where_mixed_polish_rescues() {
    let p = ill_conditioned(12, 18);
    let eps = 1e-9;

    let f32_only = solve_diagonal(&p, &opts(eps, Precision::F32)).expect("f32 solve runs");
    assert!(
        !f32_only.stats.converged,
        "pure f32 should stall at its noise floor on a 1e±6 spread \
         (residual {:.3e} vs ε {eps:.0e})",
        f32_only.stats.residuals.rel_row_inf
    );

    let mixed = solve_diagonal(&p, &opts(eps, Precision::F32Mixed)).expect("mixed solve runs");
    assert!(
        mixed.stats.converged,
        "the f64 polish epoch must rescue the f32 iterates"
    );
    let report = verify_solution(&p, &mixed);
    assert!(
        report.is_optimal_with(1e-6, GapCheck::RelativeToObjective),
        "converged mixed solve must pass the f64 KKT certificate: {report:?}"
    );

    // And the pure-f64 reference agrees the problem is solvable.
    let f64_ref = solve_diagonal(&p, &opts(eps, Precision::F64)).expect("f64 solve runs");
    assert!(f64_ref.stats.converged);
}

/// The f32 diagnostic mode must not lie: its reported residual is the
/// honest f64 measurement of its iterates, so on the ill-conditioned
/// fixture the final residual really is above the requested ε.
#[test]
fn f32_reports_its_true_residual() {
    let p = ill_conditioned(10, 14);
    let eps = 1e-10;
    let sol = solve_diagonal(&p, &opts(eps, Precision::F32)).expect("f32 solve runs");
    assert!(!sol.stats.converged);
    assert!(
        sol.stats.residuals.rel_row_inf > eps,
        "reported residual {:.3e} must reflect the stall",
        sol.stats.residuals.rel_row_inf
    );
}

/// The stall above is the f32 phase's doing: the same pure-`f32` request
/// under quickselect runs the f64 search and converges. So the stall proves
/// the sort-scan pin in [`opts`] really engages the f32 λ-search.
#[test]
fn f32_phase_engages_only_under_sortscan() {
    let p = ill_conditioned(12, 18);
    let eps = 1e-9;
    let mut o = opts(eps, Precision::F32);
    let stalled = solve_diagonal(&p, &o).expect("f32 sort-scan solve runs");
    assert!(!stalled.stats.converged, "the f32 phase did not run");
    o.kernel = KernelKind::Quickselect;
    let routed = solve_diagonal(&p, &o).expect("f32 quickselect solve runs");
    assert!(
        routed.stats.converged,
        "quickselect routes f32 to its f64 search (residual {:.3e})",
        routed.stats.residuals.rel_row_inf
    );
}

/// On well-conditioned problems all three precisions converge and the
/// mixed path's certificate matches full f64 quality.
#[test]
fn mixed_matches_f64_certificate_quality_when_well_conditioned() {
    let p = generator::heterogeneous(SEED, 11, 13);
    let eps = 1e-10;
    let f64_sol = solve_diagonal(&p, &opts(eps, Precision::F64)).expect("f64");
    let mixed = solve_diagonal(&p, &opts(eps, Precision::F32Mixed)).expect("mixed");
    assert!(f64_sol.stats.converged && mixed.stats.converged);
    let r64 = verify_solution(&p, &f64_sol);
    let rmx = verify_solution(&p, &mixed);
    assert!(
        r64.is_optimal_with(1e-6, GapCheck::RelativeToObjective),
        "{r64:?}"
    );
    assert!(
        rmx.is_optimal_with(1e-6, GapCheck::RelativeToObjective),
        "{rmx:?}"
    );
}

/// Box-bounded problems: the mixed-precision phase runs the boxed f32
/// kernel and still converges to a feasible, in-bounds estimate.
#[test]
fn bounded_mixed_precision_converges_in_bounds() {
    let p = generator::try_bounded(SEED ^ 2, 9, 12, 3, 1.0).expect("constructible");
    let mut o = SeaOptions::with_epsilon(1e-8);
    o.max_iterations = 50_000;
    o.kernel = KernelKind::SortScan;
    o.simd = simd_under_test();
    o.precision = Precision::F32Mixed;
    let sol = solve_bounded_supervised(&p, &o, &SupervisorOptions::default(), &mut NullObserver)
        .expect("bounded mixed solve")
        .solution;
    assert!(sol.converged, "residual {:?}", sol.residuals);
    assert!(sol.residuals.rel_row_inf <= 1e-8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The certificate property: every seeded instance whose mixed-precision
    /// solve reports `Converged` passes the f64 KKT certificate. Instances
    /// that fail to construct or converge are vacuously fine — the property
    /// polices converged claims, not solvability.
    #[test]
    fn every_converged_mixed_solve_passes_the_f64_certificate(
        seed in 0u64..1 << 48,
        m in 2usize..14,
        n in 2usize..14,
        decades in 0i32..6,
        scale_sel in 0u8..3,
        kernel_sel in 0u8..2,
        par_sel in 0u8..2,
    ) {
        let scale = generator::scale_of(scale_sel);
        let kernel = [KernelKind::SortScan, KernelKind::Quickselect][kernel_sel as usize];
        let par = if par_sel == 0 { Parallelism::Serial } else { Parallelism::RayonThreads(2) };
        if let Ok(p) = generator::try_fixed_diagonal(seed, m, n, decades, scale) {
            let mut o = opts(1e-8, Precision::F32Mixed);
            o.kernel = kernel;
            o.parallelism = par;
            if let Ok(sol) = solve_diagonal(&p, &o) {
                if sol.stats.converged {
                    let report = verify_solution(&p, &sol);
                    prop_assert!(
                        report.is_optimal_with(1e-5, GapCheck::RelativeToObjective),
                        "converged mixed solve failed its certificate: {report:?}"
                    );
                }
            }
        }
    }
}
