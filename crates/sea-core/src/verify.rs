//! Independent optimality verification of computed solutions.
//!
//! [`verify_solution`] checks, from first principles, everything that makes
//! a [`Solution`] the optimum of its [`DiagonalProblem`]: primal
//! feasibility, the KKT stationarity/sign conditions (paper eq. 20–22),
//! total-stationarity for elastic/balanced classes, and the duality gap.
//! Downstream users can call it after any solve to obtain a machine-checked
//! certificate; the test suites use it as a one-stop oracle.

use crate::dual;
use crate::parallel::Parallelism;
use crate::problem::{DiagonalProblem, Residuals, TotalSpec};
use crate::solver::Solution;
use crate::storage::{RowView, Storage};
use rayon::prelude::*;

/// A first-principles optimality report.
#[derive(Debug, Clone, Copy)]
pub struct KktReport {
    /// Worst stationarity violation `|2γᵢⱼ(xᵢⱼ−x⁰ᵢⱼ) − λᵢ − μⱼ|` over
    /// entries with `xᵢⱼ > 0` (relative to the gradient scale).
    pub max_stationarity: f64,
    /// Worst sign violation `max(0, λᵢ + μⱼ − 2γᵢⱼ(xᵢⱼ−x⁰ᵢⱼ))` over
    /// entries at zero (a positive value means the zero entry wants to be
    /// positive).
    pub max_sign_violation: f64,
    /// Worst total-stationarity violation (eq. 21/22/39): 0 for fixed
    /// totals.
    pub max_total_stationarity: f64,
    /// Constraint residuals.
    pub residuals: Residuals,
    /// `objective − ζ(λ,μ) ≥ 0`; approaches 0 at the optimum.
    pub duality_gap: f64,
    /// Primal objective value at the verified point — the natural scale
    /// for a relative duality-gap check on large problems.
    pub objective: f64,
    /// Smallest entry (must be ≥ 0).
    pub min_entry: f64,
}

/// How [`KktReport::is_optimal_with`] scales the duality gap before
/// comparing it with `tol`.
///
/// The stationarity and residual checks are always relative (to the
/// gradient and total scales); only the gap check has two useful scales.
/// On large-scale problems the objective grows with the problem, so an
/// absolute gap bound that is meaningful at `m = n = 10` is unreachably
/// tight at `m = n = 10⁴` — use [`GapCheck::RelativeToObjective`] there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapCheck {
    /// `|gap| ≤ tol · max(1, |gap|)` — an absolute bound with a unit
    /// floor (the historical behavior of [`KktReport::is_optimal`]).
    Absolute,
    /// `|gap| ≤ tol · max(1, |objective|)` — the gap measured against
    /// the objective's own magnitude.
    RelativeToObjective,
}

impl KktReport {
    /// True when every check is within `tol` (scaled checks) — a compact
    /// pass/fail for assertions. The duality gap is checked absolutely
    /// ([`GapCheck::Absolute`]); see [`Self::is_optimal_with`] for the
    /// relative variant suited to large-scale objectives.
    pub fn is_optimal(&self, tol: f64) -> bool {
        self.is_optimal_with(tol, GapCheck::Absolute)
    }

    /// [`Self::is_optimal`] with an explicit duality-gap scaling policy.
    pub fn is_optimal_with(&self, tol: f64, gap: GapCheck) -> bool {
        self.max_stationarity <= tol
            && self.max_sign_violation <= tol
            && self.max_total_stationarity <= tol
            && self.residuals.rel_row_inf <= tol
            && self.min_entry >= -tol
            && self.duality_gap.abs() <= tol * self.duality_gap_scale(gap)
    }

    fn duality_gap_scale(&self, gap: GapCheck) -> f64 {
        match gap {
            GapCheck::Absolute => 1.0_f64.max(self.duality_gap.abs()),
            GapCheck::RelativeToObjective => 1.0_f64.max(self.objective.abs()),
        }
    }
}

/// Verify `sol` against `p` from first principles.
///
/// ```
/// use sea_core::{solve_diagonal, verify_solution, DiagonalProblem, SeaOptions, TotalSpec};
/// use sea_linalg::DenseMatrix;
///
/// let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
/// let p = DiagonalProblem::new(
///     x0,
///     gamma,
///     TotalSpec::Fixed { s0: vec![4.0, 6.0], d0: vec![5.0, 5.0] },
/// ).unwrap();
/// let sol = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-12)).unwrap();
/// let report = verify_solution(&p, &sol);
/// assert!(report.is_optimal(1e-6));
/// ```
pub fn verify_solution<S: Storage>(p: &DiagonalProblem<S>, sol: &Solution<S>) -> KktReport {
    let residuals = p.residuals(&sol.x, &sol.s, &sol.d);
    let objective = p.objective(&sol.x, &sol.s, &sol.d);
    let zeta = dual::dual_value(p, &sol.lambda, &sol.mu);
    kkt_report(p, sol, residuals, objective, zeta, Parallelism::Serial)
}

/// The certificate of a solve's own output. Its assembly computed the
/// residuals, the objective and ζ from the returned `x`, `λ` and `μ`, with
/// the same code [`verify_solution`] runs, so they are reused; only the
/// stationarity sweep remains, and it runs on the solve's pool.
pub(crate) fn certify_solve<S: Storage>(
    p: &DiagonalProblem<S>,
    sol: &Solution<S>,
    par: Parallelism,
) -> KktReport {
    let st = &sol.stats;
    kkt_report(p, sol, st.residuals, st.objective, st.dual_value, par)
}

/// Largest stationarity and sign violations and smallest entry over a set
/// of rows.
#[derive(Debug, Clone, Copy)]
struct Extremes {
    stationarity: f64,
    sign: f64,
    min_entry: f64,
}

impl Extremes {
    const EMPTY: Extremes = Extremes {
        stationarity: 0.0,
        sign: 0.0,
        min_entry: f64::INFINITY,
    };

    fn merge(self, o: Extremes) -> Extremes {
        Extremes {
            stationarity: self.stationarity.max(o.stationarity),
            sign: self.sign.max(o.sign),
            min_entry: self.min_entry.min(o.min_entry),
        }
    }
}

/// Fold `body` over `0..len` in one contiguous chunk per worker of the
/// current pool (a single chunk when serial) and merge the chunks with
/// `merge`. Only exact max/min reductions go through here, so the result
/// does not depend on the split.
fn chunked<T: Copy + Send>(
    len: usize,
    par: Parallelism,
    empty: T,
    body: impl Fn(std::ops::Range<usize>) -> T + Sync,
    merge: impl Fn(T, T) -> T,
) -> T {
    let chunks = if par.is_parallel() {
        rayon::current_num_threads().clamp(1, len.max(1))
    } else {
        1
    };
    let range = |c: usize| c * len / chunks..(c + 1) * len / chunks;
    if chunks == 1 {
        return body(range(0));
    }
    let mut parts = vec![empty; chunks];
    parts
        .par_iter_mut()
        .enumerate()
        .for_each(|(c, part)| *part = body(range(c)));
    parts.into_iter().fold(empty, merge)
}

fn kkt_report<S: Storage>(
    p: &DiagonalProblem<S>,
    sol: &Solution<S>,
    residuals: Residuals,
    objective: f64,
    zeta: f64,
    par: Parallelism,
) -> KktReport {
    let (m, n) = (p.m(), p.n());
    let x0 = p.x0();
    let gamma = p.gamma();

    // Gradient scale for relative stationarity.
    let mut grad_scale: f64 = 1.0;
    for i in 0..m {
        grad_scale = grad_scale.max(sol.lambda[i].abs());
    }
    for j in 0..n {
        grad_scale = grad_scale.max(sol.mu[j].abs());
    }

    let x0v = x0.values();
    let entry_scale = chunked(
        x0v.len(),
        par,
        1e-12_f64,
        |r| x0v[r].iter().fold(1e-12_f64, |acc, &v| acc.max(v.abs())),
        f64::max,
    );
    let structural = p.support().is_some();
    let sweep = |rows: std::ops::Range<usize>| {
        let mut e = Extremes::EMPTY;
        let mut entry = |x: f64, grad: f64| {
            if x > 1e-10 * entry_scale {
                e.stationarity = e.stationarity.max(grad.abs() / grad_scale);
            } else {
                e.sign = e.sign.max((-grad).max(0.0) / grad_scale);
            }
        };
        for i in rows {
            match (x0.row_view(i), gamma.row_view(i), sol.x.row_view(i)) {
                (RowView::Dense(x0r), RowView::Dense(gr), RowView::Dense(xr)) => {
                    for j in 0..n {
                        e.min_entry = e.min_entry.min(xr[j]);
                        // Structural zeros carry no KKT condition.
                        if structural && x0r[j] == 0.0 {
                            continue;
                        }
                        entry(
                            xr[j],
                            2.0 * gr[j] * (xr[j] - x0r[j]) - sol.lambda[i] - sol.mu[j],
                        );
                    }
                }
                (
                    RowView::Indexed { idx, vals: x0v },
                    RowView::Indexed { vals: gv, .. },
                    RowView::Indexed { vals: xv, .. },
                ) => {
                    // Stored entries are the variables; missing entries are
                    // structural zeros and carry no KKT condition.
                    for t in 0..idx.len() {
                        let j = idx[t] as usize;
                        e.min_entry = e.min_entry.min(xv[t]);
                        entry(
                            xv[t],
                            2.0 * gv[t] * (xv[t] - x0v[t]) - sol.lambda[i] - sol.mu[j],
                        );
                    }
                }
                _ => debug_assert!(false, "mismatched row views in verify_solution"),
            }
        }
        e
    };
    let ext = chunked(m, par, Extremes::EMPTY, sweep, Extremes::merge);

    let mut max_total_stationarity: f64 = 0.0;
    match p.totals() {
        TotalSpec::Fixed { .. } => {}
        TotalSpec::Elastic {
            alpha,
            s0,
            beta,
            d0,
        } => {
            for i in 0..m {
                let expect = 2.0 * alpha[i] * (s0[i] - sol.s[i]);
                max_total_stationarity =
                    max_total_stationarity.max((sol.lambda[i] - expect).abs() / grad_scale);
            }
            for j in 0..n {
                let expect = 2.0 * beta[j] * (d0[j] - sol.d[j]);
                max_total_stationarity =
                    max_total_stationarity.max((sol.mu[j] - expect).abs() / grad_scale);
            }
        }
        TotalSpec::Balanced { alpha, s0 } => {
            for i in 0..n {
                let expect = 2.0 * alpha[i] * (s0[i] - sol.s[i]);
                max_total_stationarity = max_total_stationarity
                    .max((sol.lambda[i] + sol.mu[i] - expect).abs() / grad_scale);
            }
        }
    }

    KktReport {
        max_stationarity: ext.stationarity,
        max_sign_violation: ext.sign,
        max_total_stationarity,
        residuals,
        duality_gap: objective - zeta,
        objective,
        min_entry: ext.min_entry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ZeroPolicy;
    use crate::solver::{solve_diagonal, SeaOptions};
    use sea_linalg::DenseMatrix;

    fn solve(p: &DiagonalProblem) -> Solution {
        solve_diagonal(p, &SeaOptions::with_epsilon(1e-12)).unwrap()
    }

    #[test]
    fn verifies_fixed_solution() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        gamma.set(0, 0, 2.5);
        let p = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let report = verify_solution(&p, &solve(&p));
        assert!(report.is_optimal(1e-6), "{report:?}");
    }

    #[test]
    fn verifies_elastic_and_balanced_solutions() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let elastic = DiagonalProblem::new(
            x0.clone(),
            gamma.clone(),
            TotalSpec::Elastic {
                alpha: vec![1.0; 2],
                s0: vec![4.0, 8.0],
                beta: vec![1.0; 2],
                d0: vec![6.0, 6.0],
            },
        )
        .unwrap();
        let report = verify_solution(&elastic, &solve(&elastic));
        assert!(report.is_optimal(1e-6), "elastic: {report:?}");

        let balanced = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Balanced {
                alpha: vec![1.0; 2],
                s0: vec![4.0, 7.0],
            },
        )
        .unwrap();
        let report = verify_solution(&balanced, &solve(&balanced));
        assert!(report.is_optimal(1e-6), "balanced: {report:?}");
    }

    #[test]
    fn flags_a_corrupted_solution() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let p = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let mut sol = solve(&p);
        sol.x.set(0, 0, sol.x.get(0, 0) + 0.5);
        let report = verify_solution(&p, &sol);
        assert!(!report.is_optimal(1e-6));
        assert!(report.residuals.row_inf > 0.1);
    }

    #[test]
    fn gap_check_modes_disagree_on_large_objectives() {
        // The PR-6 gotcha, pinned: a solve whose objective is ~1e9 can
        // carry a duality gap that is absolutely large (handfuls of
        // units) yet relatively at machine precision. The absolute mode
        // must reject it; the relative mode must accept it.
        let report = KktReport {
            max_stationarity: 1e-10,
            max_sign_violation: 0.0,
            max_total_stationarity: 0.0,
            residuals: Residuals {
                row_inf: 1e-7,
                col_inf: 1e-7,
                rel_row_inf: 1e-10,
                norm2: 1e-7,
            },
            duality_gap: 3.0,
            objective: 1.5e9,
            min_entry: 0.0,
        };
        assert!(!report.is_optimal(1e-6), "absolute must reject gap 3.0");
        assert!(
            !report.is_optimal_with(1e-6, GapCheck::Absolute),
            "explicit absolute must match is_optimal"
        );
        assert!(
            report.is_optimal_with(1e-6, GapCheck::RelativeToObjective),
            "gap 3.0 against objective 1.5e9 is 2e-9 relative"
        );

        // And the relative mode is not a free pass: a relatively large
        // gap still fails it.
        let bad = KktReport {
            duality_gap: 1.5e4,
            ..report
        };
        assert!(!bad.is_optimal_with(1e-6, GapCheck::RelativeToObjective));
    }

    #[test]
    fn large_scale_fixture_passes_the_relative_gap_check() {
        // A solved fixture with entries ~1e6: both modes agree here
        // (the gap converges to ~0 absolutely too), and the report's
        // objective field matches the problem's own objective.
        let m = 20;
        let n = 30;
        let mut x0 = DenseMatrix::zeros(m, n).unwrap();
        let mut gamma = DenseMatrix::zeros(m, n).unwrap();
        for i in 0..m {
            for j in 0..n {
                let v = 1e6 * (1.0 + ((i * n + j) % 17) as f64);
                x0.set(i, j, v);
                gamma.set(i, j, 1.0 / v); // chi-square weights
            }
        }
        // Perturb the margins by ~3% so the solve does real work.
        let s0: Vec<f64> = x0.row_sums().iter().map(|&s| s * 1.03).collect();
        let mut d0 = x0.col_sums();
        let excess: f64 = s0.iter().sum::<f64>() - d0.iter().sum::<f64>();
        for d in &mut d0 {
            *d += excess / n as f64;
        }
        let p = DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 }).unwrap();
        let sol = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-12)).unwrap();
        assert!(sol.stats.converged);
        let report = verify_solution(&p, &sol);
        assert_eq!(
            report.objective,
            p.objective(&sol.x, &sol.s, &sol.d),
            "report must expose the primal objective it verified"
        );
        assert!(report.objective > 1e5, "fixture should be large-scale");
        assert!(
            report.is_optimal_with(1e-6, GapCheck::RelativeToObjective),
            "{report:?}"
        );
    }

    #[test]
    fn skips_structural_zeros() {
        let x0 = DenseMatrix::from_rows(&[vec![0.0, 5.0], vec![3.0, 2.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let p = DiagonalProblem::with_zero_policy(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: vec![6.0, 6.0],
                d0: vec![4.0, 8.0],
            },
            ZeroPolicy::Structural,
        )
        .unwrap();
        let report = verify_solution(&p, &solve(&p));
        assert!(report.is_optimal(1e-6), "{report:?}");
    }
}
