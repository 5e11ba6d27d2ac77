//! Bitwise determinism across execution modes.
//!
//! The SEA row/column subproblems are independent, and every per-subproblem
//! code path (including the quickselect pivot choice) is sequential and
//! input-deterministic, so Serial, global-pool Rayon, and dedicated pools of
//! any width must produce *identical* bits — same solutions, same iteration
//! counts — on all three problem classes.

mod common;
#[path = "common/generator.rs"]
mod generator;

use common::{all_fixtures, solve_with};
use sea_core::{
    solve_bounded_supervised, solve_diagonal_supervised, solve_general_supervised, DiagonalProblem,
    GeneralSeaOptions, KernelKind, NullObserver, Parallelism, SeaOptions, StopReason, Storage,
    SupervisorOptions,
};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn all_execution_modes_are_bitwise_identical() {
    let modes = [
        Parallelism::Rayon,
        Parallelism::RayonThreads(1),
        Parallelism::RayonThreads(2),
        Parallelism::RayonThreads(4),
    ];
    for (tag, problem) in all_fixtures() {
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            let reference = solve_with(&problem, kernel, Parallelism::Serial);
            for mode in modes {
                let sol = solve_with(&problem, kernel, mode);
                assert_eq!(
                    sol.stats.iterations, reference.stats.iterations,
                    "{tag}/{kernel}/{mode:?}: iteration count diverged"
                );
                assert_eq!(
                    bits(sol.x.as_slice()),
                    bits(reference.x.as_slice()),
                    "{tag}/{kernel}/{mode:?}: solution bits diverged"
                );
                assert_eq!(
                    bits(&sol.lambda),
                    bits(&reference.lambda),
                    "{tag}/{kernel}/{mode:?}: row multipliers diverged"
                );
                assert_eq!(
                    bits(&sol.mu),
                    bits(&reference.mu),
                    "{tag}/{kernel}/{mode:?}: column multipliers diverged"
                );
                assert_eq!(
                    bits(&sol.s),
                    bits(&reference.s),
                    "{tag}/{kernel}/{mode:?}: row totals diverged"
                );
                assert_eq!(
                    bits(&sol.d),
                    bits(&reference.d),
                    "{tag}/{kernel}/{mode:?}: column totals diverged"
                );
            }
        }
    }
}

#[test]
fn supervised_diagonal_driver_is_bitwise_identical_across_modes() {
    // The supervisor wraps the same iteration loop (budget checks and
    // watchdogs read state, they never perturb it), so supervised solves
    // inherit the bitwise-determinism contract of the bare driver.
    let p = generator::heterogeneous(0x5EAD, 5, 5);
    let sup = SupervisorOptions::default();
    for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
        let mut opts = SeaOptions::with_epsilon(1e-10);
        opts.kernel = kernel;
        opts.parallelism = Parallelism::Serial;
        let reference =
            solve_diagonal_supervised(&p, &opts, &sup, &mut NullObserver).expect("serial solve");
        for mode in [
            Parallelism::Rayon,
            Parallelism::RayonThreads(1),
            Parallelism::RayonThreads(2),
            Parallelism::RayonThreads(4),
        ] {
            let mut opts = SeaOptions::with_epsilon(1e-10);
            opts.kernel = kernel;
            opts.parallelism = mode;
            let sol = solve_diagonal_supervised(&p, &opts, &sup, &mut NullObserver).expect("solve");
            assert_eq!(
                sol.stop, reference.stop,
                "{kernel}/{mode:?}: stop reason diverged"
            );
            assert_eq!(
                sol.solution.stats.iterations, reference.solution.stats.iterations,
                "{kernel}/{mode:?}: supervised iteration count diverged"
            );
            assert_eq!(
                bits(sol.solution.x.as_slice()),
                bits(reference.solution.x.as_slice()),
                "{kernel}/{mode:?}: supervised solution bits diverged"
            );
            assert_eq!(
                bits(&sol.solution.lambda),
                bits(&reference.solution.lambda),
                "{kernel}/{mode:?}: supervised row multipliers diverged"
            );
            assert_eq!(
                bits(&sol.solution.mu),
                bits(&reference.solution.mu),
                "{kernel}/{mode:?}: supervised column multipliers diverged"
            );
            assert_eq!(
                bits(&sol.solution.s),
                bits(&reference.solution.s),
                "{kernel}/{mode:?}: supervised row totals diverged"
            );
            assert_eq!(
                bits(&sol.solution.d),
                bits(&reference.solution.d),
                "{kernel}/{mode:?}: supervised column totals diverged"
            );
        }
    }
}

#[test]
fn supervised_general_driver_is_bitwise_identical_across_modes() {
    let p = generator::try_general(0x9E_4E, 3, 3, 3).expect("general instance");
    let sup = SupervisorOptions::default();
    let mut opts = GeneralSeaOptions::with_epsilon(1e-8);
    opts.max_outer = 20;
    opts.inner.parallelism = Parallelism::Serial;
    let reference =
        solve_general_supervised(&p, &opts, &sup, &mut NullObserver).expect("serial solve");
    for mode in [Parallelism::Rayon, Parallelism::RayonThreads(2)] {
        let mut opts = GeneralSeaOptions::with_epsilon(1e-8);
        opts.max_outer = 20;
        opts.inner.parallelism = mode;
        let sol = solve_general_supervised(&p, &opts, &sup, &mut NullObserver).expect("solve");
        assert_eq!(sol.stop, reference.stop, "{mode:?}: stop reason diverged");
        assert_eq!(
            bits(sol.solution.x.as_slice()),
            bits(reference.solution.x.as_slice()),
            "{mode:?}: supervised general solution bits diverged"
        );
        assert_eq!(
            bits(&sol.solution.mu),
            bits(&reference.solution.mu),
            "{mode:?}: supervised general column multipliers diverged"
        );
    }
}

#[test]
fn kernels_have_independent_trajectories_but_equal_iteration_counts() {
    // The two kernels compute the same λ per subproblem (up to rounding), so
    // the dual ascent should walk the same path: equal iteration counts on
    // every fixture is a cheap canary for kernel-induced drift.
    for (tag, problem) in all_fixtures() {
        let a = solve_with(&problem, KernelKind::SortScan, Parallelism::Serial);
        let b = solve_with(&problem, KernelKind::Quickselect, Parallelism::Serial);
        assert_eq!(
            a.stats.iterations, b.stats.iterations,
            "{tag}: kernels took different iteration counts"
        );
    }
}

/// Sparse storage preserves the determinism contract: for every sparse
/// family, both kernels, any pool width, and any shard size — including
/// single-row shards, which exercise the shard boundaries hardest — the
/// solve is bitwise identical to the Serial, default-shard reference.
#[test]
fn sparse_solves_are_bitwise_identical_across_modes_and_shards() {
    let sup = SupervisorOptions::default();
    let modes = [
        Parallelism::Rayon,
        Parallelism::RayonThreads(2),
        Parallelism::RayonThreads(4),
    ];
    let shard_sizes = [Some(1), Some(3), Some(64)];
    for (tag, problem) in generator::sparse_families(0x5EA_DE7) {
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            let mut ref_opts = SeaOptions::with_epsilon(1e-8);
            ref_opts.kernel = kernel;
            let reference = solve_diagonal_supervised(&problem, &ref_opts, &sup, &mut NullObserver)
                .expect("reference sparse solve")
                .solution;
            for mode in modes {
                for block in shard_sizes {
                    let mut opts = ref_opts.clone();
                    opts.parallelism = mode;
                    opts.block_size = block;
                    let sol = solve_diagonal_supervised(&problem, &opts, &sup, &mut NullObserver)
                        .expect("sharded sparse solve")
                        .solution;
                    assert_eq!(
                        sol.stats.iterations, reference.stats.iterations,
                        "{tag}/{kernel}/{mode:?}/{block:?}: iteration count diverged"
                    );
                    assert_eq!(
                        bits(sol.x.values()),
                        bits(reference.x.values()),
                        "{tag}/{kernel}/{mode:?}/{block:?}: solution bits diverged"
                    );
                    assert_eq!(
                        bits(&sol.lambda),
                        bits(&reference.lambda),
                        "{tag}/{kernel}/{mode:?}/{block:?}: row multipliers diverged"
                    );
                    assert_eq!(
                        bits(&sol.mu),
                        bits(&reference.mu),
                        "{tag}/{kernel}/{mode:?}/{block:?}: column multipliers diverged"
                    );
                }
            }
        }
    }
}

/// Constructing the same logically-dense problem two ways — native dense
/// storage vs lifted to CSR with `from_dense_problem` — yields bitwise
/// identical solves, for both zero policies (Free keeps every cell in the
/// pattern; Structural prunes to the support).
#[test]
fn dense_and_csr_construction_agree_bitwise() {
    let sup = SupervisorOptions::default();
    use sea_core::DiagonalProblem;
    use sea_linalg::CsrMatrix;

    let mut problems = vec![("heterogeneous", generator::heterogeneous(0xD0_5EA, 8, 10))];
    if let Ok(p) = generator::try_fixed_diagonal(0xD1_5EA, 9, 7, 2, 1.0) {
        problems.push(("fixed-diagonal", p));
    }
    for (tag, dense_p) in problems {
        let sparse_p =
            DiagonalProblem::<CsrMatrix>::from_dense_problem(&dense_p).expect("lift to CSR");
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            let mut opts = SeaOptions::with_epsilon(1e-8);
            opts.kernel = kernel;
            let dsol = solve_diagonal_supervised(&dense_p, &opts, &sup, &mut NullObserver)
                .expect("dense solve")
                .solution;
            let ssol = solve_diagonal_supervised(&sparse_p, &opts, &sup, &mut NullObserver)
                .expect("sparse solve")
                .solution;
            let sx = ssol.x.to_dense().expect("densify sparse solution");
            assert_eq!(
                bits(sx.as_slice()),
                bits(dsol.x.as_slice()),
                "{tag}/{kernel}: storage backends diverged"
            );
            assert_eq!(
                ssol.stats.iterations, dsol.stats.iterations,
                "{tag}/{kernel}: iteration counts diverged"
            );
        }
    }
}

/// Iterations and the bits of `x`, `λ` and `μ` of one solve.
type Bits = (usize, Vec<u64>, Vec<u64>, Vec<u64>);

/// Every parallel mode and shard size against the serial solve.
fn assert_modes_and_shards_agree(tag: &str, solve: impl Fn(&SeaOptions) -> Bits) {
    let reference = solve(&SeaOptions::with_epsilon(1e-9));
    for mode in [Parallelism::RayonThreads(2), Parallelism::RayonThreads(3)] {
        for block in [Some(1), Some(3), None] {
            let mut opts = SeaOptions::with_epsilon(1e-9);
            opts.parallelism = mode;
            opts.block_size = block;
            assert_eq!(solve(&opts), reference, "{tag}/{mode:?}/{block:?}");
        }
    }
}

/// At the default extrapolation depth, the dense fixtures and box-bounded
/// dense and CSR instances reproduce their serial solves bit for bit under
/// every parallel mode and shard size: the extrapolation's least-squares
/// solve is serial and in a fixed order.
#[test]
fn dense_and_bounded_solves_are_bitwise_identical_across_modes_and_shards() {
    let sup = SupervisorOptions::default();
    assert!(SeaOptions::default().extrapolation_depth > 0);
    for (tag, problem) in all_fixtures() {
        assert_modes_and_shards_agree(tag, |opts| {
            let s = solve_diagonal_supervised(&problem, opts, &sup, &mut NullObserver)
                .expect("dense solve")
                .solution;
            assert!(s.stats.converged, "{tag}");
            (
                s.stats.iterations,
                bits(s.x.values()),
                bits(&s.lambda),
                bits(&s.mu),
            )
        });
    }
    let dense = generator::try_bounded(0xB0_5EA, 9, 7, 3, 1.0).expect("feasible draw");
    let csr = generator::sparse_bounded(0xB1_5EA, 12, 12, 2);
    assert_modes_and_shards_agree("bounded-dense", |opts| {
        let s = solve_bounded_supervised(&dense, opts, &sup, &mut NullObserver)
            .expect("bounded solve")
            .solution;
        assert!(s.converged, "bounded-dense");
        (
            s.iterations,
            bits(s.x.values()),
            bits(&s.lambda),
            bits(&s.mu),
        )
    });
    assert_modes_and_shards_agree("bounded-csr", |opts| {
        let s = solve_bounded_supervised(&csr, opts, &sup, &mut NullObserver)
            .expect("bounded solve")
            .solution;
        assert!(s.converged, "bounded-csr");
        (
            s.iterations,
            bits(s.x.values()),
            bits(&s.lambda),
            bits(&s.mu),
        )
    });
}

/// A supervised solve certifies its own output in one finishing sweep
/// over its column-pass layout, split across the pool: the report must
/// equal a from-scratch `verify_solution` of the returned solution
/// exactly, in every mode, for sparse and dense problems of every class.
/// The last two inputs fan the sweep out (they are above the pool's
/// fan-out size), and one of them is stopped by its iteration cap one
/// sweep after a check, so the sweep must sum its rows afresh.
#[test]
fn supervised_certificates_match_verify_solution_exactly() {
    let sup = SupervisorOptions::default();
    // (tag, problem, iteration cap, check cadence)
    let sparse = generator::sparse_families(0xCE_27);
    let mut dense: Vec<(String, DiagonalProblem, Option<usize>, usize)> = sparse
        .iter()
        .map(|(tag, p)| {
            let dp = p.to_dense_problem().expect("dense image fits");
            (format!("dense-{tag}"), dp, None, 1)
        })
        .collect();
    let fallible = [
        ("degenerate-row", generator::degenerate_row(0xCE_28, 9)),
        ("degenerate-col", generator::degenerate_col(0xCE_29, 9)),
        (
            "large-totals",
            generator::try_fixed_diagonal(0xCE_2A, 8, 7, 6, 1e6),
        ),
        ("wide-weights", generator::wide_weights(0xCE_2B, 8, 9)),
        (
            "fixed-large",
            generator::try_fixed_diagonal(0xCE_2C, 140, 130, 3, 1.0),
        ),
    ];
    for (tag, p) in fallible {
        if let Ok(p) = p {
            dense.push((tag.to_string(), p, None, 1));
        }
    }
    dense.push((
        "checkerboard".to_string(),
        generator::checkerboard_weights(8, 10),
        None,
        1,
    ));
    dense.push((
        "heterogeneous-capped".to_string(),
        generator::heterogeneous(0xCE_2D, 130, 140),
        Some(7),
        3,
    ));
    assert!(dense.len() >= sparse.len() + 7, "dense families built");

    for mode in [Parallelism::Serial, Parallelism::RayonThreads(2)] {
        for (tag, problem) in &sparse {
            let mut opts = SeaOptions::with_epsilon(1e-8);
            opts.parallelism = mode;
            let sol = solve_diagonal_supervised(problem, &opts, &sup, &mut NullObserver)
                .expect("supervised sparse solve");
            let fresh = sea_core::verify_solution(problem, &sol.solution);
            assert_eq!(
                format!("{:?}", sol.certificate),
                format!("{fresh:?}"),
                "{tag}/{mode:?}"
            );
        }
        for (tag, problem, cap, check_every) in &dense {
            let mut opts = SeaOptions::with_epsilon(1e-8);
            opts.parallelism = mode;
            opts.check_every = *check_every;
            opts.max_iterations = cap.unwrap_or(opts.max_iterations);
            let sol = solve_diagonal_supervised(problem, &opts, &sup, &mut NullObserver)
                .unwrap_or_else(|e| panic!("{tag}: {e:?}"));
            if *check_every == 3 {
                assert_eq!(sol.stop, StopReason::IterationCap, "{tag}");
                assert_eq!(
                    sol.solution.stats.iterations, 7,
                    "{tag}: unchecked last sweep"
                );
            }
            let fresh = sea_core::verify_solution(problem, &sol.solution);
            assert_eq!(
                format!("{:?}", sol.certificate),
                format!("{fresh:?}"),
                "{tag}/{mode:?}"
            );
        }
    }
}
