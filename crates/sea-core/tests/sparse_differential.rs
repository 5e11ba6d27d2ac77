//! Dense-vs-sparse differential suite.
//!
//! Every seeded sparse family from `common/generator.rs` is solved twice:
//! once over CSR storage and once over its dense image
//! (`to_dense_problem`, which carries `ZeroPolicy::Structural` so both
//! sides describe the same feasible set). The contract under test is the
//! storage-abstraction invariant from DESIGN.md §12: storage changes the
//! *layout* of a solve, never its *mathematics*. Concretely, the sparse
//! solve must reproduce the dense oracle's per-cell values bitwise on the
//! support (and zero off it), carry the same first-principles KKT
//! certificate, and perform bitwise-identical kernel work (the cumulative
//! [`Event::KernelCounters`] stream) — across Serial and Rayon execution
//! and both storage-generic drivers (diagonal and bounded; the general
//! driver's iterate is dense by construction).
//!
//! Two banded CSR solves too large for the dense oracle close the file:
//! a 2 000 × 2 000 smoke solve to a passing supervised certificate, and
//! (ignored by default) the ≥10⁷-nonzero scale solve behind `BENCH_6.json`.

#[path = "common/generator.rs"]
mod generator;

use sea_core::{
    solve_bounded_supervised, solve_diagonal_supervised, verify_solution, BoundedProblem,
    DiagonalProblem, Event, KernelCounters, KernelKind, KktReport, NullObserver, Parallelism,
    SeaOptions, StopReason, Storage, SupervisorOptions, VecObserver,
};
use sea_linalg::{CsrMatrix, DenseMatrix};

const SEED: u64 = 0x5EA_D1FF;

/// The cumulative kernel counters a solve reported (at most one such event
/// is emitted, immediately before `SolveEnd`).
fn counters_of(obs: &VecObserver) -> Option<KernelCounters> {
    obs.events.iter().find_map(|e| match e {
        Event::KernelCounters { counters } => Some(*counters),
        _ => None,
    })
}

/// Bitwise image of a float slice (NaN-safe equality for assertions).
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every field of a certificate, as bits.
fn report_bits(r: &KktReport) -> [u64; 10] {
    let res = r.residuals;
    [
        r.max_stationarity,
        r.max_sign_violation,
        r.max_total_stationarity,
        res.row_inf,
        res.col_inf,
        res.rel_row_inf,
        res.norm2,
        r.duality_gap,
        r.objective,
        r.min_entry,
    ]
    .map(f64::to_bits)
}

fn parallel_modes() -> [Parallelism; 2] {
    [Parallelism::Serial, Parallelism::Rayon]
}

/// Sparse solve vs dense oracle: bitwise cell values on the support, exact
/// zeros off it, matching KKT certificates, and bitwise-identical kernel
/// work counts — for every family, both kernels, Serial and Rayon.
#[test]
fn sparse_families_match_dense_oracle() {
    for (name, sp) in generator::sparse_families(SEED) {
        let dp = sp.to_dense_problem().expect("dense image fits");
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            for par in parallel_modes() {
                let tag = format!("{name}/{kernel:?}/{par:?}");
                // 1e-8 keeps the slow-mixing power-law families inside the
                // iteration cap; every parity assertion below is bitwise,
                // so the stopping tolerance does not weaken the test.
                let mut opts = SeaOptions::with_epsilon(1e-8);
                opts.kernel = kernel;
                opts.parallelism = par;
                let sup = SupervisorOptions::default();

                let mut sparse_obs = VecObserver::new();
                let sparse = solve_diagonal_supervised(&sp, &opts, &sup, &mut sparse_obs)
                    .unwrap_or_else(|e| panic!("{tag}: sparse solve failed: {e}"));
                let mut dense_obs = VecObserver::new();
                let dense = solve_diagonal_supervised(&dp, &opts, &sup, &mut dense_obs)
                    .unwrap_or_else(|e| panic!("{tag}: dense solve failed: {e}"));
                let (ssol, dsol) = (&sparse.solution, &dense.solution);
                assert!(ssol.stats.converged, "{tag}: sparse did not converge");
                assert!(dsol.stats.converged, "{tag}: dense did not converge");

                // Same trajectory: iteration counts and multipliers agree
                // bitwise, not just to tolerance.
                assert_eq!(
                    ssol.stats.iterations, dsol.stats.iterations,
                    "{tag}: iteration counts diverged"
                );
                assert_eq!(bits(&ssol.lambda), bits(&dsol.lambda), "{tag}: lambda");
                assert_eq!(bits(&ssol.mu), bits(&dsol.mu), "{tag}: mu");

                // Per-cell parity: bitwise on the support, exact zero off it.
                let sx = ssol.x.to_dense().expect("densify sparse solution");
                for i in 0..sp.m() {
                    for j in 0..sp.n() {
                        let (a, b) = (sx.get(i, j), dsol.x.get(i, j));
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{tag}: cell ({i},{j}) sparse={a} dense={b}"
                        );
                    }
                }

                // Same first-principles certificate on both sides (1e-5:
                // the duality-gap check is absolute, and stopping at 1e-8
                // leaves a gap of a few 1e-6 on the larger instances).
                let sparse_cert = verify_solution(&sp, ssol);
                let dense_cert = verify_solution(&dp, dsol);
                assert!(sparse_cert.is_optimal(1e-5), "{tag}: {sparse_cert:?}");
                assert!(dense_cert.is_optimal(1e-5), "{tag}: {dense_cert:?}");
                // A certificate ranges over the variables, whatever the
                // layout: both sides' reports agree in every field, bit
                // for bit, and so do the solves' own certificates.
                assert_eq!(
                    report_bits(&sparse_cert),
                    report_bits(&dense_cert),
                    "{tag}: verify reports differ: {sparse_cert:?} vs {dense_cert:?}"
                );
                assert_eq!(
                    report_bits(&sparse.certificate),
                    report_bits(&dense.certificate),
                    "{tag}: certificates differ: {:?} vs {:?}",
                    sparse.certificate,
                    dense.certificate
                );

                // Bitwise-identical kernel work on the support.
                let sc = counters_of(&sparse_obs)
                    .unwrap_or_else(|| panic!("{tag}: sparse solve emitted no kernel counters"));
                let dc = counters_of(&dense_obs)
                    .unwrap_or_else(|| panic!("{tag}: dense solve emitted no kernel counters"));
                assert_eq!(sc, dc, "{tag}: kernel work counts diverged");
            }
        }
    }
}

/// The supervised diagonal driver reports the same stop reason and
/// certificate over sparse storage as over the dense oracle.
#[test]
fn supervised_driver_matches_dense_oracle() {
    for (name, sp) in generator::sparse_families(SEED ^ 0x5F) {
        let dp = sp.to_dense_problem().expect("dense image fits");
        for par in parallel_modes() {
            let tag = format!("{name}/{par:?}");
            let mut opts = SeaOptions::with_epsilon(1e-8);
            opts.parallelism = par;
            let sup = SupervisorOptions::default();
            let s = solve_diagonal_supervised(&sp, &opts, &sup, &mut NullObserver)
                .unwrap_or_else(|e| panic!("{tag}: sparse supervised failed: {e}"));
            let d = solve_diagonal_supervised(&dp, &opts, &sup, &mut NullObserver)
                .unwrap_or_else(|e| panic!("{tag}: dense supervised failed: {e}"));
            assert_eq!(s.stop, StopReason::Converged, "{tag}");
            assert_eq!(d.stop, StopReason::Converged, "{tag}");
            assert!(s.certificate.is_optimal(1e-5), "{tag}: {:?}", s.certificate);
            assert!(d.certificate.is_optimal(1e-5), "{tag}: {:?}", d.certificate);
            let sx = s.solution.x.to_dense().expect("densify");
            assert_eq!(
                bits(sx.as_slice()),
                bits(d.solution.x.as_slice()),
                "{tag}: supervised iterates diverged"
            );
        }
    }
}

/// Dense image of a sparse bounded problem: off-support cells get a unit
/// placeholder weight and are pinned to zero by `lo = hi = 0`, so both
/// sides describe the same feasible set and objective.
fn dense_bounded_oracle(p: &BoundedProblem<CsrMatrix>) -> BoundedProblem<DenseMatrix> {
    let x0 = p.x0().to_dense().expect("densify x0");
    let mut gamma = p.gamma().to_dense().expect("densify gamma");
    for v in gamma.values_mut() {
        if *v == 0.0 {
            *v = 1.0;
        }
    }
    let lo = p.lo().to_dense().expect("densify lo");
    let hi = p.hi().to_dense().expect("densify hi");
    BoundedProblem::new(x0, gamma, lo, hi, p.s0().to_vec(), p.d0().to_vec())
        .expect("dense bounded oracle is feasible")
}

/// The bounded driver over sparse storage agrees with its dense image to
/// well below the convergence tolerance. The dense side carries extra
/// pinned zero-width cells, so work counts (and float summation order)
/// legitimately differ — this checks values, not bits.
#[test]
fn sparse_bounded_matches_dense_oracle() {
    for seed in [SEED, SEED ^ 0xB0B] {
        let sp = generator::sparse_bounded(seed, 9, 11, 2);
        let dp = dense_bounded_oracle(&sp);
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            let tag = format!("bounded/{seed:#x}/{kernel:?}");
            let mut o = SeaOptions::with_epsilon(1e-10);
            o.max_iterations = 10_000;
            o.kernel = kernel;
            let sup = SupervisorOptions::default();
            let ssol = solve_bounded_supervised(&sp, &o, &sup, &mut NullObserver)
                .unwrap_or_else(|e| panic!("{tag}: sparse solve failed: {e}"))
                .solution;
            let dsol = solve_bounded_supervised(&dp, &o, &sup, &mut NullObserver)
                .unwrap_or_else(|e| panic!("{tag}: dense solve failed: {e}"))
                .solution;
            assert!(ssol.converged && dsol.converged, "{tag}: not converged");
            let sx = ssol.x.to_dense().expect("densify");
            assert!(
                sx.max_abs_diff(&dsol.x) <= 1e-8,
                "{tag}: max diff {}",
                sx.max_abs_diff(&dsol.x)
            );
        }

        // The sparse bounded solve is bitwise identical across
        // parallelism: its passes shard like every other class's.
        let mut o = SeaOptions::with_epsilon(1e-10);
        o.kernel = KernelKind::SortScan;
        let sup = SupervisorOptions::default();
        let serial = solve_bounded_supervised(&sp, &o, &sup, &mut NullObserver)
            .expect("sparse supervised bounded");
        assert_eq!(serial.stop, StopReason::Converged, "bounded/{seed:#x}");
        o.parallelism = Parallelism::RayonThreads(2);
        let par = solve_bounded_supervised(&sp, &o, &sup, &mut NullObserver)
            .expect("parallel sparse supervised bounded");
        assert_eq!(
            bits(par.solution.x.values()),
            bits(serial.solution.x.values()),
            "bounded/{seed:#x}: parallel iterates diverged"
        );
        assert_eq!(par.solution.iterations, serial.solution.iterations);
    }
}

/// Round-trip: a dense problem lifted to CSR (`from_dense_problem`) and
/// solved sparse reproduces the dense solve bitwise — the companion
/// direction to the sparse-first families above.
#[test]
fn dense_problem_lifted_to_csr_replays_bitwise() {
    let dp = generator::heterogeneous(SEED ^ 0xC5, 7, 9);
    let sp = DiagonalProblem::<CsrMatrix>::from_dense_problem(&dp).expect("lift to CSR");
    let opts = SeaOptions::with_epsilon(1e-10);
    let sup = SupervisorOptions::default();
    let dsol = solve_diagonal_supervised(&dp, &opts, &sup, &mut NullObserver)
        .expect("dense solve")
        .solution;
    let ssol = solve_diagonal_supervised(&sp, &opts, &sup, &mut NullObserver)
        .expect("sparse solve")
        .solution;
    let sx = ssol.x.to_dense().expect("densify");
    assert_eq!(bits(sx.as_slice()), bits(dsol.x.as_slice()));
    assert_eq!(ssol.stats.iterations, dsol.stats.iterations);
}

/// Supervised Rayon solve of a banded CSR instance at ε 1e-8 that must
/// converge to a passing certificate. Stationarity, sign and feasibility
/// are relative and pass outright; the duality gap is absolute and grows
/// with the grand total, so it is judged relative to the objective.
fn assert_banded_certifies(n: usize, hb: usize) -> usize {
    const EPSILON: f64 = 1e-8;
    let p = generator::sparse_banded(SEED, n, n, hb);
    let mut opts = SeaOptions::with_epsilon(EPSILON);
    opts.parallelism = Parallelism::Rayon;
    let sol =
        solve_diagonal_supervised(&p, &opts, &SupervisorOptions::default(), &mut NullObserver)
            .unwrap_or_else(|e| panic!("{n}x{n} banded solve failed: {e}"));
    assert_eq!(sol.stop, StopReason::Converged, "{n}x{n} banded solve");
    let cert = &sol.certificate;
    assert!(cert.max_stationarity <= 1e-6, "stationarity: {cert:?}");
    assert!(cert.max_sign_violation <= 1e-6, "sign: {cert:?}");
    assert!(
        cert.residuals.rel_row_inf <= EPSILON * 1.01,
        "rows: {cert:?}"
    );
    assert!(cert.min_entry >= -1e-9, "negativity: {cert:?}");
    assert!(
        cert.is_optimal_with(1e-6, sea_core::verify::GapCheck::RelativeToObjective),
        "relative duality gap: {cert:?}"
    );
    p.x0().stored()
}

/// A 2 000 × 2 000 banded CSR problem (half-bandwidth 120, ~4.7·10⁵
/// nonzeros) reaches a passing certificate through the supervised driver.
#[test]
fn sparse_banded_2000_solves_to_a_certificate() {
    assert_banded_certifies(2_000, 120);
}

/// The `BENCH_6.json` scale solve: 10 000 × 10 000, half-bandwidth 520,
/// ≥10⁷ stored nonzeros — a problem whose dense image needs six 800 MB
/// matrices. About 6 s and a 750 MB peak in a release build (2-vCPU
/// x86-64), so it runs only on request (`cargo test --release -p sea-core
/// --test sparse_differential -- --ignored`).
#[test]
#[ignore = "10^7-nonzero solve with a 750 MB peak: run in release mode"]
fn sparse_banded_1e7_nonzeros_solves_to_a_certificate() {
    let nnz = assert_banded_certifies(10_000, 520);
    assert!(
        nnz >= 10_000_000,
        "scale solve holds {nnz} nonzeros, want >= 1e7"
    );
}
