//! SEA for **general** quadratic constrained matrix problems (paper §3.2).
//!
//! The general problem weights deviations with dense strictly positive
//! definite matrices `G` (`mn×mn`), and — when totals are estimated — `A`
//! (`m×m`) and `B` (`n×n`). SEA handles it with the projection
//! (diagonalization) method of Dafermos (1982, 1983): each outer iteration
//! freezes the off-diagonal coupling into a linear term (eq. 79) and solves
//! the resulting *diagonal* constrained matrix problem with the diagonal
//! SEA of §3.1 — so the expensive dense `G` mat-vec happens once per outer
//! iteration, while all constraint work stays in the cheap, parallel
//! equilibration passes.

use crate::error::SeaError;
use crate::phase::{close_solve, open_solve, Phase};
use crate::problem::{DiagonalProblem, Residuals, TotalSpec, ZeroPolicy};
use crate::solver::{solve_inner, SeaOptions};
use crate::storage::Storage;
use crate::supervisor::{SolveControl, StopReason, SupervisedGeneralSolution, SupervisorOptions};
use crate::verify::Finishing;
use sea_linalg::{vector, DenseMatrix, SymMatrix};
use sea_observe::{Event, KernelCounters, Observer, PhaseLabel, SpanKind, TelemetrySample};
use std::time::{Duration, Instant};

/// Total specification for the general problem.
#[derive(Debug, Clone)]
pub enum GeneralTotalSpec {
    /// Known fixed totals (objective 10, constraints 11–12).
    Fixed {
        /// Row totals (length m).
        s0: Vec<f64>,
        /// Column totals (length n).
        d0: Vec<f64>,
    },
    /// Estimated totals with dense weight matrices (objective 1).
    Elastic {
        /// Row-total weight matrix `A` (order m, SPD).
        a: SymMatrix,
        /// Prior row totals.
        s0: Vec<f64>,
        /// Column-total weight matrix `B` (order n, SPD).
        b: SymMatrix,
        /// Prior column totals.
        d0: Vec<f64>,
    },
    /// SAM balance with a dense account-weight matrix (objective 6).
    Balanced {
        /// Account weight matrix `A` (order n, SPD).
        a: SymMatrix,
        /// Prior account totals.
        s0: Vec<f64>,
    },
}

/// A general quadratic constrained matrix problem.
#[derive(Debug, Clone)]
pub struct GeneralProblem {
    x0: DenseMatrix,
    g: SymMatrix,
    totals: GeneralTotalSpec,
}

impl GeneralProblem {
    /// Build and validate.
    ///
    /// # Errors
    /// * [`SeaError::Shape`] if `G`'s order is not `m·n` or total vectors
    ///   mismatch.
    /// * [`SeaError::NonPositiveWeight`] if any diagonal of `G`/`A`/`B` is
    ///   not strictly positive (the diagonalization step divides by them).
    /// * [`SeaError::InconsistentTotals`] for inconsistent fixed totals.
    /// * [`SeaError::NotSquareSam`] for a non-square balanced problem.
    pub fn new(x0: DenseMatrix, g: SymMatrix, totals: GeneralTotalSpec) -> Result<Self, SeaError> {
        let (m, n) = (x0.rows(), x0.cols());
        if g.order() != m * n {
            return Err(SeaError::Shape {
                context: "G order",
                expected: m * n,
                actual: g.order(),
            });
        }
        if !g.has_positive_diagonal() {
            return Err(SeaError::NonPositiveWeight {
                which: "diag(G)",
                index: 0,
                value: 0.0,
            });
        }
        match &totals {
            GeneralTotalSpec::Fixed { s0, d0 } => {
                if s0.len() != m {
                    return Err(SeaError::Shape {
                        context: "fixed s0",
                        expected: m,
                        actual: s0.len(),
                    });
                }
                if d0.len() != n {
                    return Err(SeaError::Shape {
                        context: "fixed d0",
                        expected: n,
                        actual: d0.len(),
                    });
                }
                let rs: f64 = s0.iter().sum();
                let cs: f64 = d0.iter().sum();
                if (rs - cs).abs() > 1e-9 * rs.abs().max(cs.abs()).max(1.0) {
                    return Err(SeaError::InconsistentTotals {
                        row_total: rs,
                        col_total: cs,
                    });
                }
            }
            GeneralTotalSpec::Elastic { a, s0, b, d0 } => {
                if a.order() != m || s0.len() != m {
                    return Err(SeaError::Shape {
                        context: "elastic A/s0",
                        expected: m,
                        actual: a.order().min(s0.len()),
                    });
                }
                if b.order() != n || d0.len() != n {
                    return Err(SeaError::Shape {
                        context: "elastic B/d0",
                        expected: n,
                        actual: b.order().min(d0.len()),
                    });
                }
                if !a.has_positive_diagonal() || !b.has_positive_diagonal() {
                    return Err(SeaError::NonPositiveWeight {
                        which: "diag(A)/diag(B)",
                        index: 0,
                        value: 0.0,
                    });
                }
            }
            GeneralTotalSpec::Balanced { a, s0 } => {
                if m != n {
                    return Err(SeaError::NotSquareSam { rows: m, cols: n });
                }
                if a.order() != n || s0.len() != n {
                    return Err(SeaError::Shape {
                        context: "balanced A/s0",
                        expected: n,
                        actual: a.order().min(s0.len()),
                    });
                }
                if !a.has_positive_diagonal() {
                    return Err(SeaError::NonPositiveWeight {
                        which: "diag(A)",
                        index: 0,
                        value: 0.0,
                    });
                }
            }
        }
        Ok(Self { x0, g, totals })
    }

    /// Rows of the prior.
    pub fn m(&self) -> usize {
        self.x0.rows()
    }

    /// Columns of the prior.
    pub fn n(&self) -> usize {
        self.x0.cols()
    }

    /// The prior matrix.
    pub fn x0(&self) -> &DenseMatrix {
        &self.x0
    }

    /// The entry weight matrix `G`.
    pub fn g(&self) -> &SymMatrix {
        &self.g
    }

    /// The total specification.
    pub fn totals(&self) -> &GeneralTotalSpec {
        &self.totals
    }

    /// Primal objective (eq. 1/6/10): `(x−x⁰)ᵀG(x−x⁰) [+ totals terms]`.
    // Allowed: every quadratic form is evaluated on vectors whose lengths
    // were validated against G/A/B at problem construction.
    #[allow(clippy::expect_used)]
    pub fn objective(&self, x: &DenseMatrix, s: &[f64], d: &[f64]) -> f64 {
        let dev: Vec<f64> = x
            .as_slice()
            .iter()
            .zip(self.x0.as_slice())
            .map(|(a, b)| a - b)
            .collect();
        let mut obj = self.g.quadratic_form(&dev).expect("validated dims");
        match &self.totals {
            GeneralTotalSpec::Fixed { .. } => {}
            GeneralTotalSpec::Elastic { a, s0, b, d0 } => {
                let ds: Vec<f64> = s.iter().zip(s0).map(|(a, b)| a - b).collect();
                let dd: Vec<f64> = d.iter().zip(d0).map(|(a, b)| a - b).collect();
                obj += a.quadratic_form(&ds).expect("validated dims");
                obj += b.quadratic_form(&dd).expect("validated dims");
            }
            GeneralTotalSpec::Balanced { a, s0 } => {
                let ds: Vec<f64> = s.iter().zip(s0).map(|(a, b)| a - b).collect();
                obj += a.quadratic_form(&ds).expect("validated dims");
            }
        }
        obj
    }

    /// An initial feasible point for the projection method ("start with any
    /// feasible (s, x, d)"): proportional fill for fixed totals, the prior
    /// itself for elastic totals, a balanced proportional fill for SAMs.
    // Allowed: construction guarantees m, n >= 1, so the proportional-fill
    // allocation cannot fail.
    #[allow(clippy::expect_used)]
    pub fn initial_feasible(&self) -> (DenseMatrix, Vec<f64>, Vec<f64>) {
        let (m, n) = (self.m(), self.n());
        match &self.totals {
            GeneralTotalSpec::Fixed { s0, d0 } => {
                let total: f64 = s0.iter().sum();
                let mut x = DenseMatrix::zeros(m, n).expect("nonempty");
                if total > 0.0 {
                    for i in 0..m {
                        let row = x.row_mut(i);
                        for (j, r) in row.iter_mut().enumerate() {
                            *r = s0[i] * d0[j] / total;
                        }
                    }
                }
                (x, s0.clone(), d0.clone())
            }
            GeneralTotalSpec::Elastic { .. } => {
                let s = self.x0.row_sums();
                let d = self.x0.col_sums();
                (self.x0.clone(), s, d)
            }
            GeneralTotalSpec::Balanced { .. } => {
                let rs = self.x0.row_sums();
                let cs = self.x0.col_sums();
                let t: Vec<f64> = rs.iter().zip(&cs).map(|(a, b)| 0.5 * (a + b)).collect();
                let total: f64 = t.iter().sum();
                let mut x = DenseMatrix::zeros(m, n).expect("nonempty");
                if total > 0.0 {
                    for i in 0..m {
                        let row = x.row_mut(i);
                        for (j, r) in row.iter_mut().enumerate() {
                            *r = t[i] * t[j] / total;
                        }
                    }
                }
                (x, t.clone(), t)
            }
        }
    }
}

/// Options for [`solve_general_supervised`].
#[derive(Debug, Clone)]
pub struct GeneralSeaOptions {
    /// Outer stopping tolerance on `maxᵢⱼ |xᵗᵢⱼ − xᵗ⁻¹ᵢⱼ|` (eq. Step 2 of
    /// §3.2.1; the paper's ε′).
    pub outer_epsilon: f64,
    /// Cap on projection (outer) iterations.
    pub max_outer: usize,
    /// Options for the inner diagonal SEA solves. Each inner solve after
    /// the first is warm-started from the previous one's column
    /// multipliers (an extension; the paper restarts from `μ = 0`).
    pub inner: SeaOptions,
}

impl Default for GeneralSeaOptions {
    fn default() -> Self {
        Self {
            outer_epsilon: 1e-6,
            max_outer: 200,
            inner: SeaOptions::default(),
        }
    }
}

impl GeneralSeaOptions {
    /// Paper-style options: outer tolerance `eps`, inner solves one decade
    /// tighter.
    pub fn with_epsilon(eps: f64) -> Self {
        Self {
            outer_epsilon: eps,
            inner: SeaOptions::with_epsilon(eps * 0.1),
            ..Self::default()
        }
    }
}

/// Result of a general solve.
#[derive(Debug, Clone)]
pub struct GeneralSolution {
    /// The matrix estimate.
    pub x: DenseMatrix,
    /// Row totals.
    pub s: Vec<f64>,
    /// Column totals.
    pub d: Vec<f64>,
    /// Column multipliers of the final inner diagonal solve. Seeding a
    /// related solve's `GeneralSeaOptions::inner.initial_mu` with these
    /// warm-starts its first projection step (the batch engine's cache
    /// relies on this).
    pub mu: Vec<f64>,
    /// Outer (projection) iterations performed.
    pub outer_iterations: usize,
    /// Total inner (diagonal SEA) iterations across all outer iterations.
    pub inner_iterations: usize,
    /// Whether the outer loop converged.
    pub converged: bool,
    /// Final outer change `maxᵢⱼ |Δxᵢⱼ|`.
    pub outer_residual: f64,
    /// Primal objective at the solution.
    pub objective: f64,
    /// Constraint residuals at the solution.
    pub residuals: Residuals,
    /// Kernel work of all inner solves together.
    pub counters: KernelCounters,
    /// Wall-clock duration.
    pub elapsed: Duration,
}

/// Build the diagonalized pseudo-prior `q = y − M(y − y⁰)/diag(M)` for one
/// variable block (eq. 79 rearranged; see DESIGN.md §5).
fn diagonalized_prior(
    msym: &SymMatrix,
    diag: &[f64],
    y: &[f64],
    y0: &[f64],
    scratch: &mut Vec<f64>,
    parallel: bool,
) -> Result<Vec<f64>, SeaError> {
    let k = y.len();
    scratch.clear();
    scratch.extend(y.iter().zip(y0).map(|(a, b)| a - b));
    let mut mv = vec![0.0; k];
    if parallel {
        msym.matvec_parallel(scratch, &mut mv)?;
    } else {
        msym.matvec(scratch, &mut mv)?;
    }
    Ok((0..k).map(|i| y[i] - mv[i] / diag[i]).collect())
}

/// Solve a general constrained matrix problem with SEA (projection outer
/// loop + diagonal SEA inner solves), under the fault-tolerant supervisor.
/// The budget (deadline and kernel-work cap), cancellation, stagnation,
/// and breakdown watchdogs run at *outer-iteration* granularity. Each
/// inner diagonal solve runs to its own completion under
/// [`SupervisorOptions::default()`]; a breakdown in one surfaces as
/// [`SeaError::NumericalBreakdown`], and worker panics inside the inner
/// equilibration passes as [`SeaError::WorkerPanic`]. The whole solve runs
/// in one install of `opts.inner.parallelism`.
///
/// The outer loop emits its own `SolveStart`/`SolveEnd` pair plus one
/// `Projection` phase and one `OuterIteration` event per projection step;
/// the nested diagonal solves emit their full event stream in between, so a
/// log of a general solve contains interleaved solver lifecycles.
///
/// # Errors
/// Propagates validation and inner-solver failures.
pub fn solve_general_supervised<O: Observer + Send>(
    p: &GeneralProblem,
    opts: &GeneralSeaOptions,
    sup: &SupervisorOptions,
    obs: &mut O,
) -> Result<SupervisedGeneralSolution, SeaError> {
    // One install for the whole solve: the projection mat-vecs and every
    // inner solve's passes share its workers.
    opts.inner.parallelism.run(move || {
        let mut ctrl = SolveControl::new(sup);
        let start = Instant::now();
        let (m, n) = (p.m(), p.n());
        open_solve(obs, m + n, || Event::SolveStart {
            solver: "general",
            rows: m,
            cols: n,
            kernel: opts.inner.kernel.name(),
            parallelism: opts.inner.parallelism.label(),
            // The outer loop always checks max |Δx| across a projection
            // step; the inner solves report their own criterion.
            criterion: "max_abs_change",
        });
        // Outer spans: the general driver contributes no kernel work of its
        // own, so every span here closes with zero self-counters; the inner
        // diagonal solves open nested Solve spans through the lent observer
        // and their counters roll up into the outer Epoch automatically.
        let spanning = obs.spans_enabled();
        let mn = m * n;
        let g_diag = p.g().diagonal();
        let gamma = DenseMatrix::from_vec(m, n, g_diag.iter().map(|&v| 0.5 * v).collect())?;
        let parallel = opts.inner.parallelism.is_parallel();

        let (mut x, mut s, mut d) = p.initial_feasible();
        let x0_flat = p.x0().as_slice().to_vec();

        let mut inner_iterations = 0usize;
        let mut counters = KernelCounters::default();
        let mut outer_iterations = 0usize;
        let mut converged = false;
        let mut outer_residual = f64::INFINITY;
        let mut scratch: Vec<f64> = Vec::with_capacity(mn);

        let mut inner_opts = opts.inner.clone();
        let inner_sup = SupervisorOptions::default();
        // The driver reads neither an inner solve's ζ nor its certificate;
        // only its `SolveEnd` event reports ζ, so only an observer that takes
        // events pays for them.
        let level = if obs.enabled() {
            Finishing::Certified
        } else {
            Finishing::Primal
        };

        for t in 1..=opts.max_outer {
            outer_iterations = t;
            if spanning {
                // Each epoch closes when the next opens, or after the loop.
                if t > 1 {
                    obs.span_close(&KernelCounters::default());
                }
                obs.span_open(SpanKind::Epoch, t as u64, 0);
            }

            // ---- Projection step: freeze off-diagonal coupling (eq. 79). ----
            // The dense mat-vec parallelizes over rows of G; a real scheduler
            // hands out coarse chunks, so the phase is reported as up to 256
            // equal chunks rather than mn micro-tasks.
            let projection = Phase::open(obs, PhaseLabel::Projection, t, mn.min(256), None);
            let q_flat =
                diagonalized_prior(p.g(), &g_diag, x.values(), &x0_flat, &mut scratch, parallel)?;
            let q = DenseMatrix::from_vec(m, n, q_flat)?;

            let spec = match p.totals() {
                GeneralTotalSpec::Fixed { s0, d0 } => TotalSpec::Fixed {
                    s0: s0.clone(),
                    d0: d0.clone(),
                },
                GeneralTotalSpec::Elastic { a, s0, b, d0 } => {
                    let a_diag = a.diagonal();
                    let b_diag = b.diagonal();
                    let ps = diagonalized_prior(a, &a_diag, &s, s0, &mut scratch, parallel)?;
                    let pd = diagonalized_prior(b, &b_diag, &d, d0, &mut scratch, parallel)?;
                    TotalSpec::Elastic {
                        alpha: a_diag.iter().map(|&v| 0.5 * v).collect(),
                        s0: ps,
                        beta: b_diag.iter().map(|&v| 0.5 * v).collect(),
                        d0: pd,
                    }
                }
                GeneralTotalSpec::Balanced { a, s0 } => {
                    let a_diag = a.diagonal();
                    let ps = diagonalized_prior(a, &a_diag, &s, s0, &mut scratch, parallel)?;
                    TotalSpec::Balanced {
                        alpha: a_diag.iter().map(|&v| 0.5 * v).collect(),
                        s0: ps,
                    }
                }
            };
            projection.close(obs, None, &[]);

            // ---- Inner diagonal SEA solve. -----------------------------------
            let sub = DiagonalProblem::with_signed_prior(q, gamma.clone(), spec, ZeroPolicy::Free)?;
            let mut inner_ctrl = SolveControl::new(&inner_sup);
            let (sol, _) = solve_inner(&sub, None, level, &inner_opts, &mut *obs, &mut inner_ctrl)?;
            if inner_ctrl.stop() == Some(StopReason::Breakdown) {
                return Err(SeaError::NumericalBreakdown {
                    iteration: sol.stats.iterations,
                });
            }
            inner_opts.initial_mu = Some(sol.mu);
            inner_iterations += sol.stats.iterations;
            counters = counters.merged(sol.stats.counters);

            // ---- Outer convergence check. ------------------------------------
            outer_residual = sol.x.max_abs_diff(&x);
            x = sol.x;
            s = sol.s;
            d = sol.d;
            if obs.enabled() {
                obs.record(&Event::OuterIteration {
                    iteration: t,
                    inner_iterations: sol.stats.iterations,
                    outer_residual,
                });
            }
            if spanning {
                obs.telemetry(&TelemetrySample {
                    iteration: t as u64,
                    seconds: start.elapsed().as_secs_f64(),
                    residual: outer_residual,
                });
            }
            if outer_residual <= opts.outer_epsilon {
                converged = true;
                break;
            }

            // ---- Supervisor hooks (outer-iteration granularity). -------------
            if !vector::all_finite(x.values()) {
                let Some((it, res)) =
                    ctrl.restore_snapshot(&mut [], &mut [], x.values_mut(), &mut s, &mut d)
                else {
                    return Err(SeaError::NumericalBreakdown { iteration: t });
                };
                outer_iterations = it;
                outer_residual = res;
                break;
            }
            ctrl.capture_snapshot(t, outer_residual, &[], &[], x.values(), &s, &d);
            if ctrl.note_residual(outer_residual) {
                break;
            }
            if ctrl.should_stop(t, Some(counters.work())).is_some() {
                break;
            }
        }
        if spanning && outer_iterations > 0 {
            obs.span_close(&KernelCounters::default());
        }

        // Residuals against this problem's constraints.
        let residuals = {
            let mut row_sums = vec![0.0; m];
            let mut col_sums = vec![0.0; n];
            x.row_sums_into(&mut row_sums);
            x.col_sums_into(&mut col_sums);
            let (st, dt): (&[f64], &[f64]) = match p.totals() {
                GeneralTotalSpec::Fixed { s0, d0 } => (s0, d0),
                GeneralTotalSpec::Elastic { .. } => (&s, &d),
                GeneralTotalSpec::Balanced { .. } => (&s, &s),
            };
            Residuals::of_sums(&row_sums, col_sums, st, dt)
        };
        let objective = p.objective(&x, &s, &d);
        // As in the diagonal and bounded drivers, the Solve span also covers
        // the final assembly. The inner solves report the kernel work.
        close_solve(obs, ctrl.stop(), KernelCounters::default(), || {
            Event::SolveEnd {
                iterations: outer_iterations,
                converged,
                residual: outer_residual,
                objective,
                dual_value: None,
                seconds: start.elapsed().as_secs_f64(),
            }
        });

        Ok(SupervisedGeneralSolution {
            solution: GeneralSolution {
                x,
                s,
                d,
                mu: inner_opts.initial_mu.unwrap_or_else(|| vec![0.0; n]),
                outer_iterations,
                inner_iterations,
                converged,
                outer_residual,
                objective,
                residuals,
                counters,
                elapsed: start.elapsed(),
            },
            stop: ctrl.final_stop(converged),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Parallelism;
    use crate::solver::solve_diagonal_supervised;
    use sea_observe::NullObserver;

    /// Solve under default supervision and keep the solution.
    fn solve(p: &GeneralProblem, opts: &GeneralSeaOptions) -> GeneralSolution {
        solve_general_supervised(p, opts, &SupervisorOptions::default(), &mut NullObserver)
            .unwrap()
            .solution
    }

    /// Strictly diagonally dominant SPD matrix with negative off-diagonals,
    /// as the paper's §5.1.1 generator prescribes.
    fn dd_matrix(order: usize, diag: f64, off: f64) -> SymMatrix {
        let mut mtx = DenseMatrix::zeros(order, order).unwrap();
        for i in 0..order {
            for j in 0..order {
                mtx.set(i, j, if i == j { diag } else { -off });
            }
        }
        SymMatrix::from_dense(mtx, 1e-12).unwrap()
    }

    #[test]
    fn validation_catches_bad_shapes() {
        let x0 = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let g = dd_matrix(3, 10.0, 0.1); // wrong order (should be 4)
        assert!(matches!(
            GeneralProblem::new(
                x0,
                g,
                GeneralTotalSpec::Fixed {
                    s0: vec![2.0, 2.0],
                    d0: vec![2.0, 2.0]
                }
            ),
            Err(SeaError::Shape { .. })
        ));
    }

    #[test]
    fn diagonal_g_reduces_to_diagonal_solver() {
        // With G purely diagonal, general SEA must agree with diagonal SEA.
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gd = vec![2.0, 4.0, 6.0, 8.0];
        let g = SymMatrix::from_diagonal(&gd).unwrap();
        let totals = GeneralTotalSpec::Fixed {
            s0: vec![4.0, 6.0],
            d0: vec![5.0, 5.0],
        };
        let p = GeneralProblem::new(x0.clone(), g, totals).unwrap();
        let sol = solve(&p, &GeneralSeaOptions::with_epsilon(1e-10));
        assert!(sol.converged);
        // Reference: diagonal problem with γ = diag(G)/2... but the
        // objective (x−x0)ᵀG(x−x0) with diagonal G equals Σ G_kk(x_k−x0_k)²,
        // i.e. γ_k = G_kk. Minimizers coincide for any positive scaling.
        let gamma = DenseMatrix::from_vec(2, 2, gd).unwrap();
        let dp = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let dopts = SeaOptions::with_epsilon(1e-12);
        let sup = SupervisorOptions::default();
        let dsol = solve_diagonal_supervised(&dp, &dopts, &sup, &mut NullObserver)
            .unwrap()
            .solution;
        assert!(
            sol.x.max_abs_diff(&dsol.x) < 1e-6,
            "general vs diagonal mismatch: {}",
            sol.x.max_abs_diff(&dsol.x)
        );
        // Diagonal G: a single outer iteration suffices (projection is
        // exact), plus one confirming iteration.
        assert!(sol.outer_iterations <= 2);
    }

    #[test]
    fn dense_g_converges_and_is_feasible() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let g = dd_matrix(4, 10.0, 1.0);
        let p = GeneralProblem::new(
            x0,
            g,
            GeneralTotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let sol = solve(&p, &GeneralSeaOptions::with_epsilon(1e-9));
        assert!(sol.converged, "residual {}", sol.outer_residual);
        assert!(sol.residuals.row_inf < 1e-6);
        assert!(sol.residuals.col_inf < 1e-6);
        assert!(sol.x.as_slice().iter().all(|&v| v >= 0.0));
        // The solution must beat the feasible starting point.
        let (x_init, s_init, d_init) = p.initial_feasible();
        assert!(sol.objective <= p.objective(&x_init, &s_init, &d_init) + 1e-9);
    }

    #[test]
    fn elastic_general_runs() {
        let x0 = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let g = dd_matrix(4, 8.0, 0.5);
        let a = dd_matrix(2, 4.0, 0.5);
        let b = dd_matrix(2, 4.0, 0.5);
        let p = GeneralProblem::new(
            x0,
            g,
            GeneralTotalSpec::Elastic {
                a,
                s0: vec![5.0, 5.0],
                b,
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let sol = solve(&p, &GeneralSeaOptions::with_epsilon(1e-9));
        assert!(sol.converged);
        // Row sums match estimated totals.
        let rs = sol.x.row_sums();
        for i in 0..2 {
            assert!((rs[i] - sol.s[i]).abs() < 1e-6);
        }
        // Totals pulled from prior margins (3) toward targets (5).
        assert!(sol.s[0] > 3.0 && sol.s[0] < 5.0);
    }

    #[test]
    fn balanced_general_balances() {
        let x0 = DenseMatrix::from_rows(&[vec![0.0, 3.0], vec![2.0, 1.0]]).unwrap();
        let g = dd_matrix(4, 8.0, 0.5);
        let a = dd_matrix(2, 4.0, 0.5);
        let p = GeneralProblem::new(
            x0,
            g,
            GeneralTotalSpec::Balanced {
                a,
                s0: vec![4.0, 3.0],
            },
        )
        .unwrap();
        let sol = solve(&p, &GeneralSeaOptions::with_epsilon(1e-9));
        assert!(sol.converged);
        let rs = sol.x.row_sums();
        let cs = sol.x.col_sums();
        for i in 0..2 {
            assert!((rs[i] - cs[i]).abs() < 1e-6, "account {i} unbalanced");
        }
    }

    #[test]
    fn solution_mu_warm_starts_a_repeat_solve() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let g = dd_matrix(4, 8.0, 1.5);
        let totals = GeneralTotalSpec::Fixed {
            s0: vec![4.0, 6.0],
            d0: vec![5.0, 5.0],
        };
        let p = GeneralProblem::new(x0, g, totals).unwrap();
        let opts = GeneralSeaOptions::with_epsilon(1e-10);
        let cold = solve(&p, &opts);
        assert!(cold.converged);
        assert_eq!(cold.mu.len(), p.n());
        let mut warm_opts = opts.clone();
        warm_opts.inner.initial_mu = Some(cold.mu.clone());
        let warm = solve(&p, &warm_opts);
        assert!(warm.converged);
        assert!(warm.inner_iterations <= cold.inner_iterations);
        assert!(warm.x.max_abs_diff(&cold.x) < 1e-7);
    }

    #[test]
    fn observer_interleaves_outer_and_inner_lifecycles() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let g = dd_matrix(4, 10.0, 1.0);
        let p = GeneralProblem::new(
            x0,
            g,
            GeneralTotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let mut obs = sea_observe::VecObserver::new();
        let opts = GeneralSeaOptions::with_epsilon(1e-9);
        let sol = solve_general_supervised(&p, &opts, &SupervisorOptions::default(), &mut obs)
            .unwrap()
            .solution;
        let events = &obs.events;
        assert!(matches!(
            events.first(),
            Some(Event::SolveStart {
                solver: "general",
                ..
            })
        ));
        let outer_events = events
            .iter()
            .filter(|e| matches!(e, Event::OuterIteration { .. }))
            .count();
        assert_eq!(outer_events, sol.outer_iterations);
        let proj_starts = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::PhaseStart {
                        label: PhaseLabel::Projection,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(proj_starts, sol.outer_iterations);
        // One nested diagonal lifecycle per outer iteration.
        let inner_starts = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::SolveStart {
                        solver: "diagonal",
                        ..
                    }
                )
            })
            .count();
        assert_eq!(inner_starts, sol.outer_iterations);
        // The outermost SolveEnd reports outer iterations with no dual.
        assert!(matches!(
            events.last(),
            Some(Event::SolveEnd {
                dual_value: None,
                ..
            })
        ));
    }

    /// An inner solve certifies only for an observer that takes events;
    /// its finishing level never changes what the solve computes.
    #[test]
    fn observing_changes_no_bit_of_a_general_solve() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0, 1.5], vec![3.0, 4.0, 0.5]]).unwrap();
        let g = dd_matrix(6, 10.0, 1.0);
        let fixed = GeneralTotalSpec::Fixed {
            s0: vec![5.0, 8.0],
            d0: vec![4.5, 6.5, 2.0],
        };
        let elastic = GeneralTotalSpec::Elastic {
            a: dd_matrix(2, 4.0, 0.5),
            s0: vec![6.0, 7.0],
            b: dd_matrix(3, 4.0, 0.5),
            d0: vec![4.0, 6.0, 3.0],
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for totals in [fixed, elastic] {
            let p = GeneralProblem::new(x0.clone(), g.clone(), totals).unwrap();
            for par in [Parallelism::Serial, Parallelism::RayonThreads(2)] {
                let mut opts = GeneralSeaOptions::with_epsilon(1e-9);
                opts.inner.parallelism = par;
                let sup = SupervisorOptions::default();
                let plain = solve(&p, &opts);
                let mut obs = sea_observe::VecObserver::new();
                let seen = solve_general_supervised(&p, &opts, &sup, &mut obs)
                    .unwrap()
                    .solution;
                assert!(!obs.events.is_empty());
                assert_eq!(bits(seen.x.as_slice()), bits(plain.x.as_slice()));
                assert_eq!(bits(&seen.s), bits(&plain.s));
                assert_eq!(bits(&seen.d), bits(&plain.d));
                assert_eq!(bits(&seen.mu), bits(&plain.mu));
                assert_eq!(seen.outer_iterations, plain.outer_iterations);
                assert_eq!(seen.inner_iterations, plain.inner_iterations);
                assert_eq!(seen.counters, plain.counters);
            }
        }
    }

    /// Records the pool width each event is reported at.
    struct Widths(Vec<usize>);

    impl Observer for Widths {
        fn enabled(&self) -> bool {
            true
        }

        fn record(&mut self, _event: &Event) {
            self.0.push(rayon::current_num_threads());
        }
    }

    #[test]
    fn general_solve_runs_in_one_install() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let p = GeneralProblem::new(
            x0,
            dd_matrix(4, 10.0, 1.0),
            GeneralTotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        // Wider than the machine, so no pool but the solve's own has it.
        let width = rayon::current_num_threads() + 1;
        let mut opts = GeneralSeaOptions::with_epsilon(1e-9);
        opts.inner.parallelism = Parallelism::RayonThreads(width);
        // Three projection steps: the outer change never falls below -1.
        opts.outer_epsilon = -1.0;
        opts.max_outer = 3;
        let mut obs = Widths(Vec::new());
        let sol = solve_general_supervised(&p, &opts, &SupervisorOptions::default(), &mut obs)
            .unwrap()
            .solution;
        assert_eq!(sol.outer_iterations, 3);
        // The outer events (SolveStart, projections, OuterIteration,
        // SolveEnd) and every inner solve's read the solve's one pool.
        assert!(obs.0.len() > 2 * sol.outer_iterations);
        assert!(obs.0.iter().all(|&w| w == width), "{:?}", obs.0);
    }

    #[test]
    fn trace_contains_projection_phases() {
        use sea_observe::PhaseLabel;
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let g = dd_matrix(4, 10.0, 1.0);
        let p = GeneralProblem::new(
            x0,
            g,
            GeneralTotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let opts = GeneralSeaOptions::with_epsilon(1e-8);
        let mut obs = sea_observe::VecObserver::new();
        let sol = solve_general_supervised(&p, &opts, &SupervisorOptions::default(), &mut obs)
            .unwrap()
            .solution;
        let ends = |label| {
            obs.events
                .iter()
                .filter(|e| matches!(e, Event::PhaseEnd { label: l, .. } if *l == label))
                .count()
        };
        assert_eq!(ends(PhaseLabel::Projection), sol.outer_iterations);
        assert!(ends(PhaseLabel::RowEquilibration) >= sol.outer_iterations);
    }
}
