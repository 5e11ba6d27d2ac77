//! The Bachem–Korte (1978) algorithm for quadratic optimization over
//! transportation polytopes, realized as **Frank–Wolfe (conditional
//! gradient) with exact transportation-LP subproblems** — the standard
//! 1970s technology for quadratic programs whose feasible set admits a
//! fast linear oracle (see DESIGN.md substitution S3).
//!
//! Each iteration linearizes the quadratic objective at the current
//! feasible point, solves the resulting *linear* transportation problem
//! exactly with the [`crate::transport_lp`] simplex, and takes the optimal
//! quadratic step toward the LP vertex. Iterates are always feasible
//! (margins hold exactly, entries nonnegative) and the Frank–Wolfe gap
//! `∇f(x)ᵀ(x − y)` certifies optimality.
//!
//! The method's **sublinear O(1/k) rate** — thousands of LP solves to reach
//! the paper's ε′ = .001 — is precisely why Table 7 shows B-K one to two
//! orders of magnitude behind SEA and why the paper abandoned it beyond
//! `G = 900×900` ("prohibitively expensive"). For **general** problems the
//! comparison wraps the diagonal kernel in the same Dafermos
//! diagonalization outer loop used by SEA and RC ([`solve_general_bk`]).

use crate::transport_lp::TransportSolver;
use sea_core::general::{GeneralProblem, GeneralTotalSpec};
use sea_core::problem::{DiagonalProblem, TotalSpec};
use sea_core::SeaError;
use sea_linalg::DenseMatrix;
use std::time::{Duration, Instant};

/// Stopping rule for the Frank–Wolfe iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BkCriterion {
    /// Stop when `maxₖ |xₖ⁺¹ − xₖ| ≤ ε` — the criterion the paper applies
    /// uniformly to B-K, RC, and SEA ("the same convergence criterion was
    /// used ... with ε′ = .001").
    IterateChange,
    /// Stop when the relative Frank–Wolfe gap
    /// `∇f(x)ᵀ(x − y)/max(f(x),1) ≤ ε` — a certified optimality gap,
    /// much more expensive for a sublinear method.
    RelativeGap,
}

/// Options for the B-K solvers.
#[derive(Debug, Clone)]
pub struct BkOptions {
    /// Stopping tolerance (see [`BkCriterion`]).
    pub epsilon: f64,
    /// Which stopping rule to apply.
    pub criterion: BkCriterion,
    /// Cap on Frank–Wolfe iterations (LP solves) per diagonal solve.
    pub max_iterations: usize,
    /// Outer (diagonalization) tolerance for [`solve_general_bk`].
    pub outer_epsilon: f64,
    /// Cap on outer iterations for [`solve_general_bk`].
    pub max_outer: usize,
}

impl Default for BkOptions {
    fn default() -> Self {
        Self {
            epsilon: 1e-6,
            criterion: BkCriterion::IterateChange,
            max_iterations: 500_000,
            outer_epsilon: 1e-6,
            max_outer: 200,
        }
    }
}

impl BkOptions {
    /// Paper-style options at tolerance `eps`.
    pub fn with_epsilon(eps: f64) -> Self {
        Self {
            epsilon: eps,
            outer_epsilon: eps,
            ..Self::default()
        }
    }
}

/// Result of a B-K solve.
#[derive(Debug, Clone)]
pub struct BkSolution {
    /// The estimate (always exactly feasible).
    pub x: DenseMatrix,
    /// Frank–Wolfe iterations = transportation LP solves (summed over the
    /// outer loop for general problems).
    pub sweeps: usize,
    /// Outer diagonalization iterations (1 for diagonal problems).
    pub outer_iterations: usize,
    /// Whether the gap tolerance was met.
    pub converged: bool,
    /// Final relative Frank–Wolfe gap.
    pub residual: f64,
    /// Objective value of the posed problem.
    pub objective: f64,
    /// Wall-clock duration.
    pub elapsed: Duration,
}

/// Frank–Wolfe on `min Σ γ_k (x_k − q_k)²` over the transportation
/// polytope `{margins (s⁰, d⁰), x ≥ 0}`. Returns
/// `(x, lp_solves, converged, relative gap)`.
fn frank_wolfe(
    q: &DenseMatrix,
    gamma: &DenseMatrix,
    s0: &[f64],
    d0: &[f64],
    opts: &BkOptions,
    warm_start: Option<DenseMatrix>,
) -> Result<(DenseMatrix, usize, bool, f64), SeaError> {
    let (m, n) = (q.rows(), q.cols());
    let total: f64 = s0.iter().sum();

    // Feasible start: proportional fill (or the caller's warm start).
    let mut x = match warm_start {
        Some(x) => x,
        None => {
            let mut x = DenseMatrix::zeros(m, n)?;
            if total > 0.0 {
                for i in 0..m {
                    let row = x.row_mut(i);
                    for (j, r) in row.iter_mut().enumerate() {
                        *r = s0[i] * d0[j] / total;
                    }
                }
            }
            x
        }
    };

    let mut lp_solver = TransportSolver::new(s0, d0)?;
    let mut grad = DenseMatrix::zeros(m, n)?;
    let mut y = DenseMatrix::zeros(m, n)?;
    let mut converged = false;
    let mut rel_gap = f64::INFINITY;
    let mut iters = 0usize;

    for t in 1..=opts.max_iterations {
        iters = t;
        // ∇f(x) = 2γ ⊙ (x − q).
        for ((g, &xv), (&qv, &gv)) in grad
            .as_mut_slice()
            .iter_mut()
            .zip(x.as_slice())
            .zip(q.as_slice().iter().zip(gamma.as_slice()))
        {
            *g = 2.0 * gv * (xv - qv);
        }
        // Linear oracle: exact transportation simplex, warm-started from
        // the previous iteration's basis (allocation-free).
        lp_solver.solve_into(&grad, &mut y)?;
        // Direction d = y − x; FW gap = −∇fᵀd = ∇fᵀ(x − y) ≥ 0.
        let mut gap = 0.0;
        let mut gtd = 0.0;
        let mut dgd = 0.0; // Σ γ d².
        for k in 0..m * n {
            let d = y.as_slice()[k] - x.as_slice()[k];
            let g = grad.as_slice()[k];
            gtd += g * d;
            gap -= g * d;
            dgd += gamma.as_slice()[k] * d * d;
        }
        // Objective scale for the relative gap.
        let f: f64 = x
            .as_slice()
            .iter()
            .zip(q.as_slice().iter().zip(gamma.as_slice()))
            .map(|(&xv, (&qv, &gv))| gv * (xv - qv) * (xv - qv))
            .sum();
        rel_gap = gap / f.abs().max(1.0);
        if opts.criterion == BkCriterion::RelativeGap && rel_gap <= opts.epsilon {
            converged = true;
            break;
        }
        // Exact line search for the quadratic: τ* = −∇fᵀd / (2 Σ γ d²).
        let tau = if dgd > 0.0 {
            (-gtd / (2.0 * dgd)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        if tau == 0.0 {
            // Already at a vertex-optimal point for this direction.
            converged = opts.criterion == BkCriterion::IterateChange;
            break;
        }
        let mut step_inf: f64 = 0.0;
        for (xv, &yv) in x.as_mut_slice().iter_mut().zip(y.as_slice()) {
            let dx = tau * (yv - *xv);
            step_inf = step_inf.max(dx.abs());
            *xv += dx;
        }
        if opts.criterion == BkCriterion::IterateChange && step_inf <= opts.epsilon {
            converged = true;
            break;
        }
    }
    Ok((x, iters, converged, rel_gap))
}

/// Solve a **fixed-totals diagonal** problem with B-K (Frank–Wolfe over
/// the transportation polytope).
///
/// # Errors
/// [`SeaError::Shape`] if the problem is not of the fixed-totals class;
/// propagated LP failures.
pub fn solve_diagonal_bk(p: &DiagonalProblem, opts: &BkOptions) -> Result<BkSolution, SeaError> {
    let (s0, d0) = match p.totals() {
        TotalSpec::Fixed { s0, d0 } => (s0.clone(), d0.clone()),
        _ => {
            return Err(SeaError::Shape {
                context: "B-K requires fixed totals",
                expected: 0,
                actual: 1,
            })
        }
    };
    let start = Instant::now();
    let (x, sweeps, converged, residual) = frank_wolfe(p.x0(), p.gamma(), &s0, &d0, opts, None)?;
    let objective = p.objective(&x, &s0, &d0);
    Ok(BkSolution {
        x,
        sweeps,
        outer_iterations: 1,
        converged,
        residual,
        objective,
        elapsed: start.elapsed(),
    })
}

/// Solve a **general fixed-totals** problem with B-K inside a Dafermos
/// diagonalization outer loop (the wrapper the paper's comparison uses).
///
/// # Errors
/// [`SeaError::Shape`] for non-fixed totals; propagated failures.
pub fn solve_general_bk(p: &GeneralProblem, opts: &BkOptions) -> Result<BkSolution, SeaError> {
    let (s0, d0) = match p.totals() {
        GeneralTotalSpec::Fixed { s0, d0 } => (s0.clone(), d0.clone()),
        _ => {
            return Err(SeaError::Shape {
                context: "B-K requires fixed totals",
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

    let (mut x, _, _) = p.initial_feasible();
    let mut sweeps_total = 0;
    let mut outer_iterations = 0;
    let mut converged = false;
    let mut residual = f64::INFINITY;
    let mut dev = vec![0.0; mn];
    let mut g_dev = vec![0.0; mn];

    for t in 1..=opts.max_outer {
        outer_iterations = t;
        for (dv, (a, b)) in dev
            .iter_mut()
            .zip(x.as_slice().iter().zip(p.x0().as_slice()))
        {
            *dv = a - b;
        }
        p.g().matvec(&dev, &mut g_dev).expect("validated dims");
        let q_flat: Vec<f64> = (0..mn)
            .map(|k| x.as_slice()[k] - g_dev[k] / g_diag[k])
            .collect();
        let q = DenseMatrix::from_vec(m, n, q_flat)?;

        // Warm-start each inner solve from the current feasible iterate.
        let (x_new, sweeps, _ok, _res) = frank_wolfe(&q, &gamma, &s0, &d0, opts, Some(x.clone()))?;
        sweeps_total += sweeps;
        let delta = x_new.max_abs_diff(&x);
        x = x_new;
        residual = delta;
        if delta <= opts.outer_epsilon {
            converged = true;
            break;
        }
    }

    let objective = p.objective(&x, &s0, &d0);
    Ok(BkSolution {
        x,
        sweeps: sweeps_total,
        outer_iterations,
        converged,
        residual,
        objective,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_core::{solve_diagonal_supervised, NullObserver, SeaOptions, SupervisorOptions};
    use sea_linalg::SymMatrix;

    fn diagonal_problem() -> DiagonalProblem {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        gamma.set(0, 0, 3.0);
        gamma.set(1, 1, 0.5);
        DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap()
    }

    #[test]
    fn bk_rejects_elastic() {
        let x0 = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let p = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Elastic {
                alpha: vec![1.0; 2],
                s0: vec![2.0; 2],
                beta: vec![1.0; 2],
                d0: vec![2.0; 2],
            },
        )
        .unwrap();
        assert!(solve_diagonal_bk(&p, &BkOptions::default()).is_err());
    }

    #[test]
    fn bk_matches_sea_on_diagonal_problem() {
        let p = diagonal_problem();
        let bk = solve_diagonal_bk(&p, &BkOptions::with_epsilon(1e-8)).unwrap();
        let sup = SupervisorOptions::default();
        let sea = solve_diagonal_supervised(
            &p,
            &SeaOptions::with_epsilon(1e-12),
            &sup,
            &mut NullObserver,
        )
        .unwrap()
        .solution;
        assert!(bk.converged);
        assert!(
            bk.x.max_abs_diff(&sea.x) < 1e-3,
            "B-K and SEA disagree by {}",
            bk.x.max_abs_diff(&sea.x)
        );
        // Objectives agree much more tightly than iterates (FW is flat
        // near the optimum).
        assert!((bk.objective - sea.stats.objective).abs() < 1e-6 * sea.stats.objective.max(1.0));
    }

    #[test]
    fn bk_iterates_stay_feasible() {
        let p = diagonal_problem();
        let bk = solve_diagonal_bk(&p, &BkOptions::with_epsilon(1e-6)).unwrap();
        let rs = bk.x.row_sums();
        let cs = bk.x.col_sums();
        assert!((rs[0] - 4.0).abs() < 1e-9);
        assert!((rs[1] - 6.0).abs() < 1e-9);
        assert!((cs[0] - 5.0).abs() < 1e-9);
        assert!(bk.x.as_slice().iter().all(|&v| v >= -1e-12));
    }

    #[test]
    fn bk_needs_far_more_iterations_than_sea() {
        // The Table 7 story in miniature: same optimum, orders of
        // magnitude more work at a tight tolerance.
        let x0 = DenseMatrix::from_rows(&[
            vec![10.0, 1.0, 5.0],
            vec![1.0, 8.0, 2.0],
            vec![4.0, 2.0, 9.0],
        ])
        .unwrap();
        let mut gamma = DenseMatrix::filled(3, 3, 1.0).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                gamma.set(i, j, 1.0 / x0.get(i, j));
            }
        }
        let row_growth = [2.0, 0.6, 1.3];
        let s0: Vec<f64> = x0
            .row_sums()
            .iter()
            .zip(row_growth)
            .map(|(v, g)| g * v)
            .collect();
        let col_growth = [0.7, 1.8, 1.1];
        let mut d0: Vec<f64> = x0
            .col_sums()
            .iter()
            .zip(col_growth)
            .map(|(v, g)| g * v)
            .collect();
        let scale: f64 = s0.iter().sum::<f64>() / d0.iter().sum::<f64>();
        for v in &mut d0 {
            *v *= scale;
        }
        let p = DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 }).unwrap();
        // Frank-Wolfe's O(1/k) rate means even 1e-4 relative gap takes
        // hundreds to thousands of LP solves.
        let bk = solve_diagonal_bk(&p, &BkOptions::with_epsilon(1e-4)).unwrap();
        let sup = SupervisorOptions::default();
        let sea =
            solve_diagonal_supervised(&p, &SeaOptions::with_epsilon(1e-6), &sup, &mut NullObserver)
                .unwrap()
                .solution;
        assert!(bk.converged && sea.stats.converged);
        assert!(
            bk.sweeps > 10 * sea.stats.iterations,
            "expected B-K ({}) to need far more iterations than SEA ({})",
            bk.sweeps,
            sea.stats.iterations
        );
    }

    #[test]
    fn general_bk_matches_general_sea() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut g = DenseMatrix::zeros(4, 4).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                g.set(i, j, if i == j { 10.0 } else { -1.0 });
            }
        }
        let p = GeneralProblem::new(
            x0,
            SymMatrix::from_dense(g, 1e-12).unwrap(),
            GeneralTotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let bk = solve_general_bk(&p, &BkOptions::with_epsilon(1e-7)).unwrap();
        let sup = SupervisorOptions::default();
        let sea = sea_core::solve_general_supervised(
            &p,
            &sea_core::GeneralSeaOptions::with_epsilon(1e-9),
            &sup,
            &mut NullObserver,
        )
        .unwrap()
        .solution;
        assert!(bk.converged);
        assert!(
            bk.x.max_abs_diff(&sea.x) < 1e-3,
            "disagreement {}",
            bk.x.max_abs_diff(&sea.x)
        );
        assert!((bk.objective - sea.objective).abs() < 1e-4 * sea.objective.max(1.0));
    }
}
