//! Deterministic fault-injection harness for the solve supervisor.
//!
//! Every scripted fault — poisoned multipliers, pathological kernel
//! results, worker panics, deadline expiry, cancellation — must leave the
//! supervisor in one of exactly two states: `Ok` with an honest
//! KKT-residual certificate on the returned (possibly partial) iterate, or
//! a typed [`SeaError`]. Never a process panic, never a silently wrong
//! answer. The checkpoint tests additionally prove that interrupting a
//! solve and resuming from the written snapshot reproduces the
//! uninterrupted run's final multipliers bitwise.

use sea_core::{
    solve_bounded_supervised, solve_diagonal_supervised, solve_general_supervised, BoundedProblem,
    Checkpoint, CheckpointPolicy, DiagonalProblem, Event, FaultKind, FaultPlan, GeneralProblem,
    GeneralSeaOptions, GeneralTotalSpec, KernelKind, NullObserver, Parallelism, SeaError,
    SeaOptions, StopReason, SupervisorOptions, TotalSpec, VecObserver,
};
use sea_linalg::{DenseMatrix, SymMatrix};
use std::path::PathBuf;

#[path = "common/generator.rs"]
mod generator;
use std::time::Duration;

fn fixed_problem() -> DiagonalProblem {
    DiagonalProblem::new(
        DenseMatrix::from_rows(&[
            vec![10.0, 4.0, 6.0],
            vec![3.0, 12.0, 5.0],
            vec![7.0, 2.0, 11.0],
        ])
        .unwrap(),
        DenseMatrix::filled(3, 3, 1.0).unwrap(),
        TotalSpec::Fixed {
            s0: vec![24.0, 22.0, 24.0],
            d0: vec![25.0, 20.0, 25.0],
        },
    )
    .unwrap()
}

/// A genuinely slow solve: heterogeneous weights spanning six orders of
/// magnitude stretch the alternating equilibration into a long geometric
/// tail (~7000 iterations to 1e-10). Partial iterates captured in the
/// first few iterations are honestly far from optimal, which the
/// certificate-honesty assertions below rely on. Contrast with
/// [`fixed_problem`], whose unit weights converge in a single iteration.
fn hard_problem() -> DiagonalProblem {
    let m = 5;
    let n = 5;
    let mut x0 = DenseMatrix::zeros(m, n).unwrap();
    let mut gamma = DenseMatrix::zeros(m, n).unwrap();
    for i in 0..m {
        for j in 0..n {
            x0.set(i, j, 1.0 + ((i * n + j) % 7) as f64);
            gamma.set(i, j, 10f64.powi(((i * n + j) % 7) as i32 - 3));
        }
    }
    let s0: Vec<f64> = (0..m).map(|i| 20.0 + 3.0 * i as f64).collect();
    let total: f64 = s0.iter().sum();
    let mut d0: Vec<f64> = (0..n).map(|j| 30.0 - 4.0 * j as f64).collect();
    let dsum: f64 = d0.iter().sum();
    for v in &mut d0 {
        *v *= total / dsum;
    }
    DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 }).unwrap()
}

fn bounded_problem() -> BoundedProblem {
    BoundedProblem::new(
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
        DenseMatrix::filled(2, 2, 1.0).unwrap(),
        DenseMatrix::filled(2, 2, 0.0).unwrap(),
        DenseMatrix::filled(2, 2, 10.0).unwrap(),
        vec![4.0, 6.0],
        vec![5.0, 5.0],
    )
    .unwrap()
}

fn general_problem() -> GeneralProblem {
    // Strictly diagonally dominant SPD weight matrix: dense coupling, so
    // the outer projection loop actually iterates.
    let order = 4;
    let mut g = DenseMatrix::zeros(order, order).unwrap();
    for i in 0..order {
        for j in 0..order {
            g.set(i, j, if i == j { 10.0 } else { -1.0 });
        }
    }
    GeneralProblem::new(
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
        SymMatrix::from_dense(g, 1e-12).unwrap(),
        GeneralTotalSpec::Fixed {
            s0: vec![4.0, 6.0],
            d0: vec![5.0, 5.0],
        },
    )
    .unwrap()
}

fn opts(epsilon: f64, parallelism: Parallelism, kernel: KernelKind) -> SeaOptions {
    let mut o = SeaOptions::with_epsilon(epsilon);
    o.parallelism = parallelism;
    o.kernel = kernel;
    o
}

fn supervised(
    sup: &SupervisorOptions,
    o: &SeaOptions,
) -> Result<sea_core::SupervisedSolution, SeaError> {
    solve_diagonal_supervised(&fixed_problem(), o, sup, &mut NullObserver)
}

fn supervised_hard(
    sup: &SupervisorOptions,
    o: &SeaOptions,
) -> Result<sea_core::SupervisedSolution, SeaError> {
    solve_diagonal_supervised(&hard_problem(), o, sup, &mut NullObserver)
}

fn assert_finite_solution(sol: &sea_core::SupervisedSolution) {
    assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));
    assert!(sol.solution.lambda.iter().all(|v| v.is_finite()));
    assert!(sol.solution.mu.iter().all(|v| v.is_finite()));
    assert!(sol.certificate.residuals.row_inf.is_finite());
    assert!(sol.certificate.residuals.col_inf.is_finite());
}

#[test]
fn clean_supervised_solve_converges_with_optimal_certificate() {
    let sup = SupervisorOptions::default();
    let sol = supervised(
        &sup,
        &opts(1e-10, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::Converged);
    assert!(sol.solution.stats.converged);
    assert!(sol.certificate.is_optimal(1e-6), "{:?}", sol.certificate);
    assert_eq!(sol.kernel_fallbacks, 0);
    assert!(sol.checkpoint_error.is_none());
}

#[test]
fn nan_lambda_with_a_snapshot_recovers_the_previous_iterate() {
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(3, FaultKind::NanLambda { index: 1 }),
        ..SupervisorOptions::default()
    };
    // Unattainable tolerance so the solve is still running at iteration 3.
    let sol =
        supervised_hard(&sup, &opts(-1.0, Parallelism::Serial, KernelKind::SortScan)).unwrap();
    assert_eq!(sol.stop, StopReason::Breakdown);
    assert!(!sol.solution.stats.converged);
    // The returned iterate is the last healthy snapshot, not the poison:
    // bit for bit the iterate a solve capped at that iteration returns.
    assert_eq!(sol.solution.stats.iterations, 2);
    assert_finite_solution(&sol);
    let mut capped = opts(-1.0, Parallelism::Serial, KernelKind::SortScan);
    capped.max_iterations = 2;
    let capped = supervised_hard(&SupervisorOptions::default(), &capped).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&sol.solution.mu), bits(&capped.solution.mu));
    assert_eq!(bits(&sol.solution.lambda), bits(&capped.solution.lambda));
    assert_eq!(
        bits(sol.solution.x.as_slice()),
        bits(capped.solution.x.as_slice())
    );
    // Honesty: a partial iterate must not certify as optimal.
    assert!(!sol.certificate.is_optimal(1e-10));
}

#[test]
fn nan_lambda_on_the_first_iteration_is_a_typed_breakdown() {
    // No healthy snapshot exists yet, so recovery is impossible — the
    // supervisor must fail with the typed error, not a panic or NaN x.
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(1, FaultKind::NanLambda { index: 0 }),
        ..SupervisorOptions::default()
    };
    let err = supervised(
        &sup,
        &opts(1e-300, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap_err();
    assert_eq!(err, SeaError::NumericalBreakdown { iteration: 1 });
}

#[test]
fn kernel_fault_falls_back_to_sort_scan_and_still_converges() {
    for parallelism in [Parallelism::Serial, Parallelism::RayonThreads(2)] {
        let sup = SupervisorOptions {
            faults: FaultPlan::new()
                .at(
                    1,
                    FaultKind::KernelNan {
                        side: "row",
                        index: 1,
                    },
                )
                .at(
                    2,
                    FaultKind::KernelNan {
                        side: "column",
                        index: 0,
                    },
                ),
            ..SupervisorOptions::default()
        };
        // The hard problem runs thousands of iterations, so both scripted
        // faults (iterations 1 and 2) actually fire before convergence.
        let sol =
            supervised_hard(&sup, &opts(1e-10, parallelism, KernelKind::Quickselect)).unwrap();
        assert_eq!(sol.stop, StopReason::Converged, "{parallelism:?}");
        assert!(sol.kernel_fallbacks >= 2, "{parallelism:?}");
        assert!(sol.certificate.is_optimal(1e-6));
    }
}

#[test]
fn kernel_fault_is_inert_under_the_sort_scan_kernel() {
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(
            1,
            FaultKind::KernelNan {
                side: "row",
                index: 0,
            },
        ),
        ..SupervisorOptions::default()
    };
    let sol = supervised(
        &sup,
        &opts(1e-10, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::Converged);
    assert_eq!(sol.kernel_fallbacks, 0);
}

#[test]
fn worker_panic_is_a_typed_error_not_an_abort() {
    for parallelism in [Parallelism::Serial, Parallelism::RayonThreads(2)] {
        let sup = SupervisorOptions {
            faults: FaultPlan::new().at(
                2,
                FaultKind::WorkerPanic {
                    side: "column",
                    index: 1,
                },
            ),
            ..SupervisorOptions::default()
        };
        let err = supervised(&sup, &opts(1e-300, parallelism, KernelKind::SortScan)).unwrap_err();
        match err {
            SeaError::WorkerPanic {
                side,
                index,
                message,
            } => {
                assert_eq!((side, index), ("column", 1), "{parallelism:?}");
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
}

#[test]
fn scripted_deadline_and_cancel_stop_with_partial_solutions() {
    for (fault, stop) in [
        (FaultKind::DeadlineNow, StopReason::DeadlineExceeded),
        (FaultKind::CancelNow, StopReason::Cancelled),
    ] {
        let sup = SupervisorOptions {
            faults: FaultPlan::new().at(2, fault.clone()),
            ..SupervisorOptions::default()
        };
        let sol = supervised_hard(&sup, &opts(-1.0, Parallelism::Serial, KernelKind::SortScan))
            .unwrap_or_else(|e| panic!("{fault:?}: {e}"));
        assert_eq!(sol.stop, stop, "{fault:?}");
        assert_eq!(sol.solution.stats.iterations, 2);
        assert_finite_solution(&sol);
        assert!(!sol.certificate.is_optimal(1e-10));
    }
}

#[test]
fn real_budget_limits_fire_with_their_stop_reasons() {
    // Iteration cap.
    let mut capped = opts(1e-300, Parallelism::Serial, KernelKind::SortScan);
    capped.max_iterations = 3;
    let sol = supervised(&SupervisorOptions::default(), &capped).unwrap();
    assert_eq!(sol.stop, StopReason::IterationCap);
    assert_eq!(sol.solution.stats.iterations, 3);

    // Expired wall-clock deadline.
    let mut sup = SupervisorOptions::default();
    sup.budget.deadline = Some(Duration::ZERO);
    let sol = supervised(
        &sup,
        &opts(1e-300, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::DeadlineExceeded);
    assert_eq!(sol.solution.stats.iterations, 1);

    // Kernel-work cap (any first iteration scans at least one breakpoint).
    let mut sup = SupervisorOptions::default();
    sup.budget.max_kernel_work = Some(1);
    let sol = supervised(
        &sup,
        &opts(1e-300, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::WorkCapExceeded);
    assert_eq!(sol.solution.stats.iterations, 1);

    // Pre-cancelled token.
    let mut sup = SupervisorOptions::default();
    let token = sea_core::CancelToken::new();
    token.cancel();
    sup.cancel = Some(token);
    let sol = supervised(
        &sup,
        &opts(1e-300, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::Cancelled);
    assert_eq!(sol.solution.stats.iterations, 1);
}

/// The general driver checks the kernel-work cap once per outer
/// iteration, against the work of all its inner solves so far.
#[test]
fn general_work_cap_stops_after_the_first_outer_iteration() {
    let mut sup = SupervisorOptions::default();
    sup.budget.max_kernel_work = Some(1);
    // An unattainable outer tolerance: only a budget stops the loop.
    let mut o = GeneralSeaOptions::with_epsilon(1e-10);
    o.outer_epsilon = -1.0;
    o.max_outer = 50;
    let sol = solve_general_supervised(&general_problem(), &o, &sup, &mut NullObserver).unwrap();
    assert_eq!(sol.stop, StopReason::WorkCapExceeded);
    assert_eq!(sol.solution.outer_iterations, 1);
    assert!(!sol.solution.converged);
    assert!(sol.solution.counters.work() >= 1);
    assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn residual_stagnation_is_detected_at_the_convergence_floor() {
    // Unattainable tolerance: the residual bottoms out at the floating
    // floor, stops halving, and the watchdog declares stagnation long
    // before the iteration cap.
    let sup = SupervisorOptions {
        stagnation: Some(sea_core::StagnationPolicy {
            window: 4,
            min_rel_improvement: 0.5,
        }),
        ..SupervisorOptions::default()
    };
    let sol = supervised(
        &sup,
        &opts(1e-300, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::Stagnated);
    assert!(sol.solution.stats.iterations < 10_000);
    assert_finite_solution(&sol);
    // The iterate is excellent — just not at the impossible tolerance —
    // and the certificate says exactly that.
    assert!(sol.certificate.residuals.row_inf < 1e-6);
}

#[test]
fn supervisor_stop_events_are_recorded() {
    let mut capped = opts(1e-300, Parallelism::Serial, KernelKind::SortScan);
    capped.max_iterations = 2;
    let mut obs = VecObserver::new();
    let sol = solve_diagonal_supervised(
        &fixed_problem(),
        &capped,
        &SupervisorOptions::default(),
        &mut obs,
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::IterationCap);
    assert!(
        obs.events.iter().any(|e| matches!(
            e,
            Event::SupervisorStop {
                iteration: 2,
                reason: "iteration_cap"
            }
        )),
        "missing SupervisorStop event"
    );
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

fn ckpt_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sea-fault-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run_iterations(
    total_budget: usize,
    checkpoint: Option<(PathBuf, usize)>,
    resume: Option<Checkpoint>,
) -> sea_core::SupervisedSolution {
    let mut o = opts(-1.0, Parallelism::Serial, KernelKind::SortScan);
    o.max_iterations = total_budget;
    let sup = SupervisorOptions {
        checkpoint: checkpoint.map(|(path, every)| CheckpointPolicy { path, every }),
        resume,
        ..SupervisorOptions::default()
    };
    solve_diagonal_supervised(&fixed_problem(), &o, &sup, &mut NullObserver).unwrap()
}

#[test]
fn resume_from_checkpoint_is_bitwise_identical() {
    let dir = ckpt_dir("bitwise");
    let ck_path = dir.join("state.ckpt");

    // Reference: 12 uninterrupted iterations (ε < 0 never converges).
    let full = run_iterations(12, None, None);
    assert_eq!(full.stop, StopReason::IterationCap);

    // Interrupted: 5 iterations with a checkpoint every iteration…
    let partial = run_iterations(5, Some((ck_path.clone(), 1)), None);
    assert_eq!(partial.stop, StopReason::IterationCap);
    assert!(partial.checkpoint_error.is_none());
    let ck = Checkpoint::load(&ck_path).unwrap();
    assert_eq!(ck.solver, "diagonal");
    assert_eq!(ck.iteration, 5);
    // The checkpoint captures the interrupted run's multipliers exactly.
    assert_eq!(
        ck.mu.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        partial
            .solution
            .mu
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );

    // …then 7 more from the loaded snapshot.
    let resumed = run_iterations(7, None, Some(ck));

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&full.solution.mu),
        bits(&resumed.solution.mu),
        "resumed μ diverges from the uninterrupted run"
    );
    assert_eq!(
        bits(&full.solution.lambda),
        bits(&resumed.solution.lambda),
        "resumed λ diverges from the uninterrupted run"
    );
    assert_eq!(
        bits(full.solution.x.as_slice()),
        bits(resumed.solution.x.as_slice()),
        "resumed x diverges from the uninterrupted run"
    );
    // Atomic writes leave no tmp residue behind.
    assert!(!dir.join("state.ckpt.tmp").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The default kernel's answer depends on its starting multipliers
/// through roundoff, so resuming restores both λ and μ from the checkpoint
/// and must then replay the uninterrupted run bit for bit.
#[test]
fn default_kernel_resume_from_checkpoint_is_bitwise_identical() {
    let dir = ckpt_dir("default-kernel");
    let ck_path = dir.join("state.ckpt");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for seed in 0..20 {
        let p = generator::heterogeneous(seed, 30, 25);
        let run = |budget: usize, checkpoint: bool, resume: Option<&Checkpoint>| {
            let mut o = SeaOptions::with_epsilon(-1.0);
            assert_eq!(o.kernel, KernelKind::default());
            o.max_iterations = budget;
            let sup = SupervisorOptions {
                checkpoint: checkpoint.then(|| CheckpointPolicy {
                    path: ck_path.clone(),
                    every: 1,
                }),
                resume: resume.cloned(),
                ..SupervisorOptions::default()
            };
            solve_diagonal_supervised(&p, &o, &sup, &mut NullObserver).unwrap()
        };
        let full = run(12, false, None);
        assert_eq!(full.stop, StopReason::IterationCap);
        let partial = run(5, true, None);
        assert!(partial.checkpoint_error.is_none());
        let ck = Checkpoint::load(&ck_path).unwrap();
        assert_eq!(ck.iteration, 5);
        assert_eq!(bits(&ck.lambda), bits(&partial.solution.lambda));
        let resumed = run(7, false, Some(&ck));

        assert_eq!(
            bits(&full.solution.lambda),
            bits(&resumed.solution.lambda),
            "seed {seed}: resumed λ diverges"
        );
        assert_eq!(
            bits(&full.solution.mu),
            bits(&resumed.solution.mu),
            "seed {seed}: resumed μ diverges"
        );
        assert_eq!(
            bits(full.solution.x.as_slice()),
            bits(resumed.solution.x.as_slice()),
            "seed {seed}: resumed x diverges"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The bounded twin of the test above, at the default depth: the boxed
/// kernel is warm there, so its answers depend on the hint, and a resumed
/// solve must still replay the uninterrupted one bit for bit.
#[test]
fn default_kernel_bounded_resume_from_checkpoint_is_bitwise_identical() {
    let dir = ckpt_dir("default-kernel-bounded");
    let ck_path = dir.join("state.ckpt");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for seed in 0..20 {
        let p = generator::heterogeneous_bounded(seed, 30, 25);
        let run = |budget: usize, checkpoint: bool, resume: Option<&Checkpoint>| {
            let mut o = SeaOptions::with_epsilon(-1.0);
            assert_eq!(o.kernel, KernelKind::default());
            assert!(o.extrapolation_depth > 0);
            o.max_iterations = budget;
            let sup = SupervisorOptions {
                checkpoint: checkpoint.then(|| CheckpointPolicy {
                    path: ck_path.clone(),
                    every: 1,
                }),
                resume: resume.cloned(),
                ..SupervisorOptions::default()
            };
            solve_bounded_supervised(&p, &o, &sup, &mut NullObserver).unwrap()
        };
        let full = run(12, false, None);
        assert_eq!(full.stop, StopReason::IterationCap);
        let partial = run(5, true, None);
        assert!(partial.checkpoint_error.is_none());
        let ck = Checkpoint::load(&ck_path).unwrap();
        assert_eq!(ck.solver, "bounded");
        assert_eq!(ck.iteration, 5);
        assert_eq!(bits(&ck.lambda), bits(&partial.solution.lambda));
        let resumed = run(7, false, Some(&ck));

        assert_eq!(
            bits(&full.solution.lambda),
            bits(&resumed.solution.lambda),
            "seed {seed}: resumed λ diverges"
        );
        assert_eq!(
            bits(&full.solution.mu),
            bits(&resumed.solution.mu),
            "seed {seed}: resumed μ diverges"
        );
        assert_eq!(
            bits(full.solution.x.as_slice()),
            bits(resumed.solution.x.as_slice()),
            "seed {seed}: resumed x diverges"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint in the version 1 format, written before checkpoints carried
/// an extrapolation history (iteration 5 of [`hard_problem`], default
/// kernel, serial), still loads and resumes with an empty history. At
/// depth 0 the resume replays the uninterrupted run bit for bit; at the
/// default depth it converges to a certified optimum.
#[test]
fn version_1_checkpoint_fixture_resumes() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/checkpoint_v1.ckpt"
    );
    let ck = Checkpoint::load(std::path::Path::new(path)).unwrap();
    assert_eq!(ck.solver, "diagonal");
    assert_eq!(ck.iteration, 5);
    assert!(ck.history.is_none());
    let run = |depth: usize, epsilon: f64, budget: usize, resume: Option<Checkpoint>| {
        let mut o = SeaOptions::with_epsilon(epsilon);
        o.max_iterations = budget;
        o.extrapolation_depth = depth;
        let sup = SupervisorOptions {
            resume,
            ..SupervisorOptions::default()
        };
        solve_diagonal_supervised(&hard_problem(), &o, &sup, &mut NullObserver).unwrap()
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let full = run(0, -1.0, 12, None);
    let resumed = run(0, -1.0, 7, Some(ck.clone()));
    assert_eq!(bits(&full.solution.mu), bits(&resumed.solution.mu));
    assert_eq!(bits(&full.solution.lambda), bits(&resumed.solution.lambda));
    assert_eq!(
        bits(full.solution.x.as_slice()),
        bits(resumed.solution.x.as_slice())
    );

    let depth = SeaOptions::default().extrapolation_depth;
    let converged = run(depth, 1e-9, 100_000, Some(ck));
    assert_eq!(converged.stop, StopReason::Converged);
    assert!(
        converged.certificate.is_optimal(1e-6),
        "{:?}",
        converged.certificate
    );
}

#[test]
fn resumed_checkpoints_continue_the_cumulative_iteration_count() {
    let dir = ckpt_dir("cumulative");
    let ck_path = dir.join("state.ckpt");
    let first = run_iterations(4, Some((ck_path.clone(), 1)), None);
    assert_eq!(first.stop, StopReason::IterationCap);
    let ck = Checkpoint::load(&ck_path).unwrap();
    assert_eq!(ck.iteration, 4);
    // Resume for 3 more, checkpointing into the same file: the stamp keeps
    // counting from the loaded iteration.
    let _ = run_iterations(3, Some((ck_path.clone(), 1)), Some(ck));
    let ck2 = Checkpoint::load(&ck_path).unwrap();
    assert_eq!(ck2.iteration, 7);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_write_failure_never_aborts_the_solve() {
    // An unwritable destination (directory path) must surface as
    // `checkpoint_error`, not kill the solve.
    let sol = run_iterations(3, Some((std::env::temp_dir(), 1)), None);
    assert_eq!(sol.stop, StopReason::IterationCap);
    assert!(sol.checkpoint_error.is_some());
    assert_finite_solution(&sol);
}

// ---------------------------------------------------------------------------
// Bounded and general drivers under supervision
// ---------------------------------------------------------------------------

#[test]
fn bounded_driver_honors_budgets_and_faults() {
    let never = opts(-1.0, Parallelism::Serial, KernelKind::SortScan);
    // Deadline fault.
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(1, FaultKind::DeadlineNow),
        ..SupervisorOptions::default()
    };
    let sol =
        solve_bounded_supervised(&bounded_problem(), &never, &sup, &mut NullObserver).unwrap();
    assert_eq!(sol.stop, StopReason::DeadlineExceeded);
    assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));

    // Iteration cap.
    let mut capped = never.clone();
    capped.max_iterations = 2;
    let sup = SupervisorOptions::default();
    let sol =
        solve_bounded_supervised(&bounded_problem(), &capped, &sup, &mut NullObserver).unwrap();
    assert_eq!(sol.stop, StopReason::IterationCap);
    assert_eq!(sol.solution.iterations, 2);

    // Poisoned multiplier: recovered from a snapshot or typed breakdown.
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(3, FaultKind::NanLambda { index: 0 }),
        ..SupervisorOptions::default()
    };
    match solve_bounded_supervised(&bounded_problem(), &never, &sup, &mut NullObserver) {
        Ok(sol) => {
            assert_eq!(sol.stop, StopReason::Breakdown);
            assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));
        }
        Err(e) => assert!(matches!(e, SeaError::NumericalBreakdown { .. })),
    }
}

/// The hard problem's slow tail (thousands of iterations) with box
/// constraints that bind: cells sit at both `lo` and `hi` at the optimum.
fn hard_bounded_problem() -> BoundedProblem {
    let p = hard_problem();
    let TotalSpec::Fixed { s0, d0 } = p.totals().clone() else {
        unreachable!("hard_problem has fixed totals")
    };
    BoundedProblem::new(
        p.x0().clone(),
        p.gamma().clone(),
        DenseMatrix::filled(5, 5, 0.5).unwrap(),
        DenseMatrix::filled(5, 5, 8.0).unwrap(),
        s0,
        d0,
    )
    .unwrap()
}

/// A scripted kernel fault at iteration 2 under each parallel mode:
/// returns the clean solve and the faulted ones, which must converge after
/// falling back to sort-scan.
fn bounded_fallback_runs(
    depth: usize,
) -> (
    sea_core::SupervisedBoundedSolution,
    Vec<(Parallelism, sea_core::SupervisedBoundedSolution)>,
) {
    let p = hard_bounded_problem();
    let opts_at = |parallelism| {
        let mut o = opts(1e-10, parallelism, KernelKind::Quickselect);
        o.extrapolation_depth = depth;
        o
    };
    let clean = solve_bounded_supervised(
        &p,
        &opts_at(Parallelism::Serial),
        &SupervisorOptions::default(),
        &mut NullObserver,
    )
    .unwrap();
    assert_eq!(clean.kernel_fallbacks, 0);
    let faulted = [Parallelism::Serial, Parallelism::RayonThreads(2)]
        .into_iter()
        .map(|parallelism| {
            let sup = SupervisorOptions {
                faults: FaultPlan::new().at(
                    2,
                    FaultKind::KernelNan {
                        side: "column",
                        index: 3,
                    },
                ),
                ..SupervisorOptions::default()
            };
            let sol = solve_bounded_supervised(&p, &opts_at(parallelism), &sup, &mut NullObserver)
                .unwrap();
            assert_eq!(sol.stop, StopReason::Converged, "{parallelism:?}");
            assert!(sol.kernel_fallbacks >= 1, "{parallelism:?}");
            (parallelism, sol)
        })
        .collect();
    (clean, faulted)
}

/// The paper's SEA (depth 0): the fallback re-solve reproduces the clean
/// run bit for bit.
#[test]
fn bounded_kernel_fault_falls_back_to_sort_scan() {
    let (clean, faulted) = bounded_fallback_runs(0);
    for (parallelism, sol) in faulted {
        assert_eq!(
            sol.solution.x.as_slice(),
            clean.solution.x.as_slice(),
            "{parallelism:?}"
        );
    }
}

/// At the default extrapolation depth the fallback's last-bit differences
/// feed the extrapolation, so the faulted run lands on the same optimum
/// to within the tolerance rather than bit for bit.
#[test]
fn bounded_kernel_fault_falls_back_at_default_depth() {
    let (clean, faulted) = bounded_fallback_runs(SeaOptions::default().extrapolation_depth);
    for (parallelism, sol) in faulted {
        let diff = sol
            .solution
            .x
            .as_slice()
            .iter()
            .zip(clean.solution.x.as_slice())
            .fold(0.0f64, |acc, (a, b)| acc.max((a - b).abs()));
        assert!(diff <= 1e-9, "{parallelism:?}: max |Δx| = {diff}");
    }
}

#[test]
fn bounded_resume_from_checkpoint_is_bitwise_identical() {
    let dir = ckpt_dir("bounded");
    let ck_path = dir.join("state.ckpt");
    let p = hard_bounded_problem();
    let run = |budget: usize, checkpoint: bool, resume: Option<Checkpoint>| {
        let mut o = opts(-1.0, Parallelism::Serial, KernelKind::Quickselect);
        o.max_iterations = budget;
        let sup = SupervisorOptions {
            checkpoint: checkpoint.then(|| CheckpointPolicy {
                path: ck_path.clone(),
                every: 1,
            }),
            resume,
            ..SupervisorOptions::default()
        };
        solve_bounded_supervised(&p, &o, &sup, &mut NullObserver).unwrap()
    };

    let full = run(12, false, None);
    assert_eq!(full.stop, StopReason::IterationCap);
    let partial = run(5, true, None);
    assert!(partial.checkpoint_error.is_none());
    let ck = Checkpoint::load(&ck_path).unwrap();
    assert_eq!(ck.solver, "bounded");
    assert_eq!(ck.iteration, 5);
    assert!(
        ck.history.is_some(),
        "default depth checkpoints its history"
    );
    let resumed = run(7, false, Some(ck));

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&full.solution.mu), bits(&resumed.solution.mu));
    assert_eq!(bits(&full.solution.lambda), bits(&resumed.solution.lambda));
    assert_eq!(
        bits(full.solution.x.as_slice()),
        bits(resumed.solution.x.as_slice())
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn general_driver_honors_budgets_at_outer_granularity() {
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(1, FaultKind::DeadlineNow),
        ..SupervisorOptions::default()
    };
    // Unattainable *outer* tolerance (the outer change is >= 0, never
    // <= -1) with ordinarily convergent inner solves: the outer loop spins
    // until a budget or fault stops it.
    let mut o = GeneralSeaOptions::with_epsilon(1e-10);
    o.outer_epsilon = -1.0;
    o.max_outer = 50;
    let sol = solve_general_supervised(&general_problem(), &o, &sup, &mut NullObserver).unwrap();
    assert_eq!(sol.stop, StopReason::DeadlineExceeded);
    assert_eq!(sol.solution.outer_iterations, 1);
    assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));

    o.max_outer = 2;
    let sup = SupervisorOptions::default();
    let sol = solve_general_supervised(&general_problem(), &o, &sup, &mut NullObserver).unwrap();
    assert_eq!(sol.stop, StopReason::IterationCap);
    assert_eq!(sol.solution.outer_iterations, 2);
}

// ---------------------------------------------------------------------------
// Sweep: every fault kind, every kernel, both parallel modes
// ---------------------------------------------------------------------------

/// The blanket guarantee: under every scripted fault the supervisor
/// returns `Ok` with a finite, honestly-certified iterate, or a typed
/// `SeaError`. A panic fails this test; a non-finite "solution" fails the
/// finiteness assertions.
#[test]
fn every_fault_yields_ok_with_certificate_or_typed_error() {
    let faults = [
        FaultKind::NanLambda { index: 0 },
        FaultKind::NanLambda { index: 2 },
        FaultKind::KernelNan {
            side: "row",
            index: 0,
        },
        FaultKind::KernelNan {
            side: "column",
            index: 2,
        },
        FaultKind::WorkerPanic {
            side: "row",
            index: 0,
        },
        FaultKind::WorkerPanic {
            side: "column",
            index: 2,
        },
        FaultKind::DeadlineNow,
        FaultKind::CancelNow,
    ];
    for fault in &faults {
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            for parallelism in [Parallelism::Serial, Parallelism::RayonThreads(2)] {
                for iteration in [1, 3] {
                    let sup = SupervisorOptions {
                        faults: FaultPlan::new().at(iteration, fault.clone()),
                        ..SupervisorOptions::default()
                    };
                    // ε < 0 never converges; the tiny iteration cap keeps
                    // non-stopping faults (KernelNan) from running the hard
                    // problem down to its convergence floor, so every
                    // returned iterate is honestly sub-optimal.
                    let mut o = opts(-1.0, parallelism, kernel);
                    o.max_iterations = 6;
                    match supervised_hard(&sup, &o) {
                        Ok(sol) => {
                            assert_ne!(
                                sol.stop,
                                StopReason::Converged,
                                "ε < 0 cannot converge ({fault:?})"
                            );
                            assert_finite_solution(&sol);
                            assert!(
                                !sol.certificate.is_optimal(1e-12),
                                "partial solution certified optimal ({fault:?})"
                            );
                        }
                        Err(SeaError::NumericalBreakdown { .. } | SeaError::WorkerPanic { .. }) => {
                        }
                        Err(other) => {
                            panic!("unexpected error under {fault:?}/{kernel:?}: {other:?}")
                        }
                    }
                }
            }
        }
    }
}
