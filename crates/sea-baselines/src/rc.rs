//! The RC equilibration algorithm (Nagurney, Kim & Robinson 1990).
//!
//! RC and SEA apply the same two ingredients — dual row/column splitting
//! and the Dafermos projection (diagonalization) method — but nested in
//! opposite orders (paper §5, Figs. 4 vs 6):
//!
//! * **SEA**: diagonalize once per outer iteration, then run the full
//!   diagonal SEA (row *and* column dual ascent) on the frozen subproblem.
//! * **RC**: alternate a *row equilibration* half-step and a *column
//!   equilibration* half-step at the outer level; inside each half-step the
//!   projection method runs **to convergence** on the general objective
//!   subject to only that side's constraints. Every projection iteration
//!   pays a dense `G` mat-vec *and a serial convergence verification* —
//!   the overheads responsible for RC's 3–4× serial disadvantage (Table 7)
//!   and its lower parallel efficiency (Table 9).
//!
//! For diagonal problems the projection step is exact, both nestings
//! collapse to the same iteration, and RC ≡ diagonal SEA (§3.1.3) — so
//! this module only implements the general, fixed-totals case the paper
//! benchmarks (Tables 7 and 9).
//!
//! Like SEA's drivers, RC reports each of its phases to an [`Observer`] as
//! a `PhaseStart`/`PhaseEnd` pair carrying per-task costs, which is what
//! the Table 9 / Figure 7 scheduling simulation replays.

use sea_core::equilibrate::{equilibration_pass, PassCounters, PassInputs, DEFAULT_BLOCK_ROWS};
use sea_core::general::{GeneralProblem, GeneralTotalSpec};
use sea_core::knapsack::{KernelKind, TotalMode};
use sea_core::parallel::Parallelism;
use sea_core::{Event, Observer, PhaseLabel, SeaError};
use sea_linalg::DenseMatrix;
use std::time::{Duration, Instant};

/// Options for [`solve_general_rc`].
#[derive(Debug, Clone)]
pub struct RcOptions {
    /// Outer stopping tolerance on `maxᵢⱼ |Δxᵢⱼ|` across a full
    /// row-phase + column-phase outer iteration (the paper's ε′).
    pub outer_epsilon: f64,
    /// Cap on outer iterations.
    pub max_outer: usize,
    /// Projection-method tolerance inside each half-step.
    pub projection_epsilon: f64,
    /// Cap on projection iterations per half-step.
    pub max_projection_iterations: usize,
    /// Fan-out strategy for the equilibration passes and mat-vecs.
    pub parallelism: Parallelism,
    /// Equilibration kernel for the half-step subproblems.
    pub kernel: KernelKind,
}

impl Default for RcOptions {
    fn default() -> Self {
        Self {
            outer_epsilon: 1e-6,
            max_outer: 200,
            projection_epsilon: 1e-7,
            max_projection_iterations: 500,
            parallelism: Parallelism::Serial,
            kernel: KernelKind::default(),
        }
    }
}

impl RcOptions {
    /// Paper-style options at tolerance `eps` (projection one decade
    /// tighter).
    pub fn with_epsilon(eps: f64) -> Self {
        Self {
            outer_epsilon: eps,
            projection_epsilon: eps * 0.1,
            ..Self::default()
        }
    }
}

/// Result of an RC solve.
#[derive(Debug, Clone)]
pub struct RcSolution {
    /// The matrix estimate.
    pub x: DenseMatrix,
    /// Row multipliers after the final row phase.
    pub lambda: Vec<f64>,
    /// Column multipliers after the final column phase.
    pub mu: Vec<f64>,
    /// Outer (row-phase + column-phase) iterations.
    pub outer_iterations: usize,
    /// Total projection-method iterations across all half-steps.
    pub projection_iterations: usize,
    /// Whether the outer loop converged.
    pub converged: bool,
    /// Final outer change.
    pub outer_residual: f64,
    /// Primal objective at the solution.
    pub objective: f64,
    /// Wall-clock duration.
    pub elapsed: Duration,
}

struct HalfStepBuffers {
    dev: Vec<f64>,
    g_dev: Vec<f64>,
    q: DenseMatrix,
    y: DenseMatrix,
    totals_tmp: Vec<f64>,
    costs: Vec<f64>,
}

/// Open a phase of `tasks` tasks: record its `PhaseStart` and start its
/// clock, when `obs` wants events.
fn phase_start(obs: &mut impl Observer, label: PhaseLabel, tasks: usize) -> Option<Instant> {
    obs.enabled().then(|| {
        obs.record(&Event::PhaseStart { label, tasks });
        Instant::now()
    })
}

/// Close a phase opened by [`phase_start`]; `task_seconds` turns the
/// phase's wall time into its per-task costs.
fn phase_end(
    obs: &mut impl Observer,
    label: PhaseLabel,
    tasks: usize,
    t0: Option<Instant>,
    task_seconds: impl FnOnce(f64) -> Vec<f64>,
) {
    if let Some(t0) = t0 {
        let seconds = t0.elapsed().as_secs_f64();
        obs.record(&Event::PhaseEnd {
            label,
            tasks,
            seconds,
            task_seconds: task_seconds(seconds),
        });
    }
}

/// One half-step: projection method to convergence on the general objective
/// subject to only this orientation's constraints.
///
/// `x` enters/leaves in *row orientation of this half-step* (the column
/// phase passes transposed data); `G` and `g_diag` stay indexed in the
/// canonical row-major order.
#[allow(clippy::too_many_arguments)]
fn half_step(
    p: &GeneralProblem,
    x: &mut DenseMatrix,
    x0: &DenseMatrix,
    gamma: &DenseMatrix,
    g_diag: &[f64],
    totals: &[f64],
    shift: &[f64],
    lambda_out: &mut [f64],
    transposed: bool,
    opts: &RcOptions,
    buf: &mut HalfStepBuffers,
    obs: &mut impl Observer,
) -> Result<usize, SeaError> {
    let rows = x.rows();
    let cols = x.cols();
    let mn = rows * cols;
    let parallel = opts.parallelism.is_parallel();
    // The dense mat-vec is reported as coarse chunks, like a real parallel
    // mat-vec (see general.rs).
    let chunks = mn.min(256);
    let pass_label = if transposed {
        PhaseLabel::ColumnEquilibration
    } else {
        PhaseLabel::RowEquilibration
    };
    let mut projection_iterations = 0;

    for _ in 0..opts.max_projection_iterations {
        projection_iterations += 1;

        // --- Projection step: q = y − G(y − x0)/diag(G), in G's canonical
        // (row-major, untransposed) index space.
        let t0 = phase_start(obs, PhaseLabel::Projection, chunks);
        if transposed {
            // Map this orientation (n×m) back to canonical (m×n) flat order.
            for j in 0..rows {
                let xr = x.row(j);
                let x0r = x0.row(j);
                for i in 0..cols {
                    buf.dev[i * rows + j] = xr[i] - x0r[i];
                }
            }
        } else {
            for (d, (a, b)) in buf
                .dev
                .iter_mut()
                .zip(x.as_slice().iter().zip(x0.as_slice()))
            {
                *d = a - b;
            }
        }
        if parallel {
            p.g().matvec_parallel(&buf.dev, &mut buf.g_dev)?;
        } else {
            p.g().matvec(&buf.dev, &mut buf.g_dev)?;
        }
        if transposed {
            for j in 0..rows {
                let xr = x.row(j);
                let qr = buf.q.row_mut(j);
                for i in 0..cols {
                    let k = i * rows + j;
                    qr[i] = xr[i] - buf.g_dev[k] / g_diag[k];
                }
            }
        } else {
            let qs = buf.q.as_mut_slice();
            for k in 0..mn {
                qs[k] = x.as_slice()[k] - buf.g_dev[k] / g_diag[k];
            }
        }
        phase_end(obs, PhaseLabel::Projection, chunks, t0, |secs| {
            vec![secs / chunks as f64; chunks]
        });

        // --- Equilibration pass on this orientation only, one measured
        // cost per subproblem.
        let inputs = PassInputs {
            prior: &buf.q,
            gamma,
            support: None,
            bounds: None,
            shift,
            side: if transposed { "column" } else { "row" },
            kernel: opts.kernel,
            warm: false,
            fault: None,
        };
        let t0 = phase_start(obs, pass_label, rows);
        equilibration_pass(
            &inputs,
            &|i| TotalMode::Fixed { total: totals[i] },
            lambda_out,
            &mut buf.totals_tmp,
            Some(&mut buf.y),
            opts.parallelism,
            DEFAULT_BLOCK_ROWS,
            t0.is_some().then_some(&mut buf.costs),
            &PassCounters::default(),
            None,
        )?;
        phase_end(obs, pass_label, rows, t0, |_| buf.costs.clone());

        // --- Serial projection-convergence verification (RC's extra
        // serial phase).
        let t0 = phase_start(obs, PhaseLabel::ConvergenceCheck, 1);
        let delta = buf.y.max_abs_diff(x);
        std::mem::swap(x, &mut buf.y);
        phase_end(obs, PhaseLabel::ConvergenceCheck, 1, t0, |secs| vec![secs]);
        if delta <= opts.projection_epsilon {
            break;
        }
    }
    Ok(projection_iterations)
}

/// Solve a general **fixed-totals** constrained matrix problem with the RC
/// algorithm.
///
/// # Errors
/// * [`SeaError::Shape`] if the problem's totals are not
///   [`GeneralTotalSpec::Fixed`] (RC, like B-K, was designed for the fixed
///   class — §5.1.1).
/// * Propagated equilibration failures.
///
/// Every projection step, equilibration pass and convergence check (the
/// projection checks and the outer check) is reported to `obs` as a
/// `PhaseStart`/`PhaseEnd` pair; RC emits no other events.
pub fn solve_general_rc(
    p: &GeneralProblem,
    opts: &RcOptions,
    obs: &mut (impl Observer + Send),
) -> Result<RcSolution, SeaError> {
    let (s0, d0) = match p.totals() {
        GeneralTotalSpec::Fixed { s0, d0 } => (s0.clone(), d0.clone()),
        _ => {
            return Err(SeaError::Shape {
                context: "RC requires fixed totals",
                expected: 0,
                actual: 1,
            })
        }
    };
    let start = Instant::now();
    let (m, n) = (p.m(), p.n());
    let mn = m * n;
    let g_diag = p.g().diagonal();
    let gamma = DenseMatrix::from_vec(m, n, g_diag.iter().map(|&v| 0.5 * v).collect())?;
    let gamma_t = gamma.transposed();
    let x0 = p.x0().clone();
    let x0_t = x0.transposed();
    // diag(G) in transposed orientation lookup happens via index mapping in
    // half_step, so only the canonical vector is needed.

    let (mut x, _, _) = p.initial_feasible();
    let mut x_t = x.transposed();
    let mut lambda = vec![0.0; m];
    let mut mu = vec![0.0; n];

    let mut buf_row = HalfStepBuffers {
        dev: vec![0.0; mn],
        g_dev: vec![0.0; mn],
        q: DenseMatrix::zeros(m, n)?,
        y: DenseMatrix::zeros(m, n)?,
        totals_tmp: vec![0.0; m],
        costs: Vec::new(),
    };
    let mut buf_col = HalfStepBuffers {
        dev: vec![0.0; mn],
        g_dev: vec![0.0; mn],
        q: DenseMatrix::zeros(n, m)?,
        y: DenseMatrix::zeros(n, m)?,
        totals_tmp: vec![0.0; n],
        costs: Vec::new(),
    };

    let mut outer_iterations = 0;
    let mut projection_iterations = 0;
    let mut converged = false;
    let mut outer_residual = f64::INFINITY;

    opts.parallelism.run(|| -> Result<(), SeaError> {
        let mut x_prev_outer = x.clone();
        for t in 1..=opts.max_outer {
            outer_iterations = t;

            // Row phase: general objective − Σⱼ μⱼ(Σᵢ xᵢⱼ − d⁰ⱼ), row
            // constraints only, projection to convergence.
            projection_iterations += half_step(
                p,
                &mut x,
                &x0,
                &gamma,
                &g_diag,
                &s0,
                &mu,
                &mut lambda,
                false,
                opts,
                &mut buf_row,
                obs,
            )?;

            // Column phase on the transposed orientation.
            // Refresh x_t from x.
            x_t = x.transposed();
            projection_iterations += half_step(
                p,
                &mut x_t,
                &x0_t,
                &gamma_t,
                &g_diag,
                &d0,
                &lambda,
                &mut mu,
                true,
                opts,
                &mut buf_col,
                obs,
            )?;
            x = x_t.transposed();

            // Outer convergence check (serial).
            let t0 = phase_start(obs, PhaseLabel::ConvergenceCheck, 1);
            let delta = x.max_abs_diff(&x_prev_outer);
            x_prev_outer.as_mut_slice().copy_from_slice(x.as_slice());
            phase_end(obs, PhaseLabel::ConvergenceCheck, 1, t0, |secs| vec![secs]);
            outer_residual = delta;
            if delta <= opts.outer_epsilon {
                converged = true;
                break;
            }
        }
        Ok(())
    })?;

    let objective = p.objective(&x, &s0, &d0);
    Ok(RcSolution {
        x,
        lambda,
        mu,
        outer_iterations,
        projection_iterations,
        converged,
        outer_residual,
        objective,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_core::general::{solve_general_supervised, GeneralSeaOptions};
    use sea_core::{NullObserver, SupervisorOptions, VecObserver};
    use sea_linalg::SymMatrix;

    fn rc(p: &GeneralProblem, opts: &RcOptions) -> RcSolution {
        solve_general_rc(p, opts, &mut NullObserver).unwrap()
    }

    /// `(label, tasks)` of every `PhaseEnd` in `events`, in order, checking
    /// that each has its `PhaseStart` right before it and one cost per task.
    fn phase_ends(events: &[Event]) -> Vec<(PhaseLabel, usize)> {
        let mut open = None;
        let mut ends = Vec::new();
        for e in events {
            match e {
                Event::PhaseStart { label, tasks } => {
                    assert_eq!(open.replace((*label, *tasks)), None, "nested phase");
                }
                Event::PhaseEnd {
                    label,
                    tasks,
                    task_seconds,
                    ..
                } => {
                    assert_eq!(open.take(), Some((*label, *tasks)), "unpaired PhaseEnd");
                    assert_eq!(task_seconds.len(), *tasks, "{label:?}");
                    ends.push((*label, *tasks));
                }
                other => panic!("RC emitted {other:?}"),
            }
        }
        assert_eq!(open, None, "unclosed phase");
        ends
    }

    fn count(ends: &[(PhaseLabel, usize)], label: PhaseLabel) -> usize {
        ends.iter().filter(|(l, _)| *l == label).count()
    }

    fn dd_matrix(order: usize, diag: f64, off: f64) -> SymMatrix {
        let mut mtx = DenseMatrix::zeros(order, order).unwrap();
        for i in 0..order {
            for j in 0..order {
                mtx.set(i, j, if i == j { diag } else { -off });
            }
        }
        SymMatrix::from_dense(mtx, 1e-12).unwrap()
    }

    fn fixed_problem(off: f64) -> GeneralProblem {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        GeneralProblem::new(
            x0,
            dd_matrix(4, 10.0, off),
            GeneralTotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap()
    }

    #[test]
    fn rc_rejects_elastic_problems() {
        let x0 = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let p = GeneralProblem::new(
            x0,
            dd_matrix(4, 10.0, 0.5),
            GeneralTotalSpec::Elastic {
                a: dd_matrix(2, 2.0, 0.1),
                s0: vec![2.0, 2.0],
                b: dd_matrix(2, 2.0, 0.1),
                d0: vec![2.0, 2.0],
            },
        )
        .unwrap();
        assert!(solve_general_rc(&p, &RcOptions::default(), &mut NullObserver).is_err());
    }

    #[test]
    fn rc_converges_and_is_feasible() {
        let p = fixed_problem(1.0);
        let sol = rc(&p, &RcOptions::with_epsilon(1e-9));
        assert!(sol.converged);
        let rs = sol.x.row_sums();
        let cs = sol.x.col_sums();
        assert!((rs[0] - 4.0).abs() < 1e-6 && (rs[1] - 6.0).abs() < 1e-6);
        assert!((cs[0] - 5.0).abs() < 1e-6 && (cs[1] - 5.0).abs() < 1e-6);
        assert!(sol.x.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn rc_matches_sea_optimum() {
        let p = fixed_problem(1.5);
        let rc = rc(&p, &RcOptions::with_epsilon(1e-10));
        let sup = SupervisorOptions::default();
        let sea = solve_general_supervised(
            &p,
            &GeneralSeaOptions::with_epsilon(1e-10),
            &sup,
            &mut NullObserver,
        )
        .unwrap()
        .solution;
        assert!(rc.converged && sea.converged);
        assert!(
            rc.x.max_abs_diff(&sea.x) < 1e-5,
            "RC and SEA disagree by {}",
            rc.x.max_abs_diff(&sea.x)
        );
        assert!((rc.objective - sea.objective).abs() < 1e-6);
    }

    #[test]
    fn rc_does_more_projection_work_than_sea() {
        // The structural claim behind Table 7: RC pays projection
        // iterations inside *each* half step.
        let p = fixed_problem(1.0);
        let mut rc_obs = VecObserver::new();
        solve_general_rc(&p, &RcOptions::with_epsilon(1e-8), &mut rc_obs).unwrap();
        let rc_ends = phase_ends(&rc_obs.events);
        let mut obs = VecObserver::new();
        solve_general_supervised(
            &p,
            &GeneralSeaOptions::with_epsilon(1e-8),
            &SupervisorOptions::default(),
            &mut obs,
        )
        .unwrap();
        let sea_ends: Vec<(PhaseLabel, usize)> = obs
            .events
            .iter()
            .filter_map(|e| match e {
                Event::PhaseEnd { label, tasks, .. } => Some((*label, *tasks)),
                _ => None,
            })
            .collect();
        let rc_mv = count(&rc_ends, PhaseLabel::Projection);
        let sea_mv = count(&sea_ends, PhaseLabel::Projection);
        assert!(
            rc_mv > sea_mv,
            "RC should need more G mat-vecs: rc={rc_mv} sea={sea_mv}"
        );
        // And more serial convergence checks.
        let rc_checks = count(&rc_ends, PhaseLabel::ConvergenceCheck);
        let sea_checks = count(&sea_ends, PhaseLabel::ConvergenceCheck);
        assert!(rc_checks > sea_checks);
    }

    #[test]
    fn rc_phase_events_follow_the_algorithm() {
        // 2 × 3, so row passes (2 tasks) and column passes (3 tasks) differ.
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let p = GeneralProblem::new(
            x0,
            dd_matrix(6, 10.0, 1.0),
            GeneralTotalSpec::Fixed {
                s0: vec![7.0, 14.0],
                d0: vec![6.0, 6.0, 9.0],
            },
        )
        .unwrap();
        let opts = RcOptions::with_epsilon(1e-9);
        let mut obs = VecObserver::new();
        let sol = solve_general_rc(&p, &opts, &mut obs).unwrap();
        assert!(sol.converged && sol.outer_iterations > 1);

        // Each projection iteration is a (mat-vec over min(mn, 256) = 6
        // chunks, pass, check) triple; a half step repeats it, and each
        // outer iteration is a row half step, a column half step and one
        // outer check.
        let ends = phase_ends(&obs.events);
        fn half_step(rest: &mut &[(PhaseLabel, usize)], pass: PhaseLabel, tasks: usize) -> usize {
            let iteration = [
                (PhaseLabel::Projection, 6),
                (pass, tasks),
                (PhaseLabel::ConvergenceCheck, 1),
            ];
            let mut iterations = 0;
            while rest.starts_with(&iteration) {
                iterations += 1;
                *rest = &rest[iteration.len()..];
            }
            assert!(iterations >= 1, "no {pass:?} iteration at {rest:?}");
            iterations
        }
        let mut rest = ends.as_slice();
        let (mut outer, mut projections) = (0, 0);
        while !rest.is_empty() {
            projections += half_step(&mut rest, PhaseLabel::RowEquilibration, 2);
            projections += half_step(&mut rest, PhaseLabel::ColumnEquilibration, 3);
            let [(PhaseLabel::ConvergenceCheck, 1), tail @ ..] = rest else {
                panic!("outer iteration {outer} does not end in a check: {rest:?}");
            };
            rest = tail;
            outer += 1;
        }
        assert_eq!(outer, sol.outer_iterations);
        assert_eq!(projections, sol.projection_iterations);

        // Observing changes no bit of the answer.
        let quiet = rc(&p, &opts);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(sol.x.as_slice()), bits(quiet.x.as_slice()));
        assert_eq!(bits(&sol.lambda), bits(&quiet.lambda));
        assert_eq!(bits(&sol.mu), bits(&quiet.mu));
    }

    #[test]
    fn rc_parallel_matches_serial() {
        let p = fixed_problem(1.0);
        let serial = rc(&p, &RcOptions::with_epsilon(1e-9));
        let mut opts = RcOptions::with_epsilon(1e-9);
        opts.parallelism = Parallelism::RayonThreads(2);
        let par = rc(&p, &opts);
        assert!(serial.x.max_abs_diff(&par.x) < 1e-9);
    }
}
