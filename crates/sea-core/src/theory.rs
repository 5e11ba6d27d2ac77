//! The paper's theoretical quantities: curvature bounds, iteration bounds,
//! and operation-count models (§3.1, eq. 58–64 and the complexity
//! discussion).
//!
//! These are *a priori* bounds computed from problem data alone — the paper
//! stresses that its convergence proof "specifically uses the parameters of
//! the problem without any other assumptions". They are deliberately loose
//! (worst-case) but finite, and the solver tests check the measured
//! iteration counts never exceed them.

use crate::problem::{DiagonalProblem, TotalSpec};

/// Curvature bounds `m_l ≤ |∂θ/∂τ| ≤ M_l` of the dual line search
/// (eq. 58–59), for problem class `l ∈ {1,2,3}` selected by the problem's
/// [`TotalSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvatureBounds {
    /// Lower curvature bound `m_l`.
    pub lower: f64,
    /// Upper curvature bound `M_l`.
    pub upper: f64,
}

impl CurvatureBounds {
    /// Compute `m_l` and `M_l` from the weight data.
    pub fn compute(p: &DiagonalProblem) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        let mut absorb = |w: f64| {
            let v = 1.0 / (2.0 * w);
            lo = lo.min(v);
            hi = hi.max(v);
        };
        for i in 0..p.m() {
            let gr = p.gamma().row(i);
            p.vars(i).for_each(|_, k| absorb(gr[k]));
        }
        match p.totals() {
            TotalSpec::Fixed { .. } => {}
            TotalSpec::Elastic { alpha, beta, .. } => {
                for &a in alpha {
                    absorb(a);
                }
                for &b in beta {
                    absorb(b);
                }
            }
            TotalSpec::Balanced { alpha, .. } => {
                for &a in alpha {
                    absorb(a);
                }
            }
        }
        CurvatureBounds {
            lower: lo,
            upper: hi,
        }
    }

    /// Guaranteed per-iteration dual improvement while `‖∇ζ‖ > ε`
    /// (eq. 63): `δᵗ ≥ (m_l / 2M_l²) ε²`.
    pub fn improvement_per_step(&self, epsilon: f64) -> f64 {
        self.lower / (2.0 * self.upper * self.upper) * epsilon * epsilon
    }
}

/// Worst-case iteration bound (eq. 64):
/// `T = (ζ_max − ζ(λ⁰, μ⁰)) / (m_l/2M_l²) × 1/ε²`, using the fact that the
/// negated quadratic terms of every `ζ_l` are nonpositive so `ζ_max` is
/// bounded by the constant terms.
///
/// Returns `f64` because the bound can be astronomically large for tight
/// tolerances — it is a certificate of finiteness, not a runtime estimate.
/// It is `+∞` for a fixed-totals problem whose support leaves out a cell
/// the proportional fill `s⁰ᵢd⁰ⱼ/Σs⁰` puts mass in: that fill point is then
/// infeasible, and no data-only bound on the optimum is at hand.
pub fn iteration_bound(p: &DiagonalProblem, epsilon: f64) -> f64 {
    let bounds = CurvatureBounds::compute(p);

    // ζ_max upper bound: constant terms (quadratic contributions are ≤ 0
    // for the elastic/balanced classes; for the fixed class the linear
    // terms are bounded using the boundedness cube argument of the
    // Modified Algorithm — we use the crude but finite surrogate below).
    let mut zeta_max = 0.0;
    let x0 = p.x0();
    let gamma = p.gamma();
    for (x, g) in x0.as_slice().iter().zip(gamma.as_slice()) {
        zeta_max += g * x * x;
    }
    match p.totals() {
        TotalSpec::Fixed { s0, d0 } => {
            // At the optimum, ζ₃ equals the primal optimum which is at most
            // the objective of any feasible point; the proportional-fill
            // point gives a data-only bound. It is feasible only if every
            // cell it fills is a variable: a support that leaves one out
            // gives no such bound.
            let total: f64 = s0.iter().sum();
            let mut obj = 0.0;
            if total > 0.0 {
                let mut is_var = vec![false; p.n()];
                for i in 0..p.m() {
                    is_var.fill(false);
                    p.vars(i).for_each(|j, _| is_var[j] = true);
                    for j in 0..p.n() {
                        let fill = s0[i] * d0[j] / total;
                        if fill > 0.0 && !is_var[j] {
                            return f64::INFINITY;
                        }
                        let dev = fill - x0.get(i, j);
                        obj += gamma.get(i, j) * dev * dev;
                    }
                }
            }
            zeta_max = obj;
        }
        TotalSpec::Elastic {
            alpha,
            s0,
            beta,
            d0,
        } => {
            for (a, s) in alpha.iter().zip(s0) {
                zeta_max += a * s * s;
            }
            for (b, d) in beta.iter().zip(d0) {
                zeta_max += b * d * d;
            }
        }
        TotalSpec::Balanced { alpha, s0 } => {
            for (a, s) in alpha.iter().zip(s0) {
                zeta_max += a * s * s;
            }
        }
    }

    // ζ(0, 0): evaluate directly.
    let zeta0 = crate::dual::dual_value(p, &vec![0.0; p.m()], &vec![0.0; p.n()]);
    let gap = (zeta_max - zeta0).max(0.0);
    gap / bounds.improvement_per_step(epsilon)
}

/// Geometric-rate iteration estimate (eq. 77):
/// `T̄ = ln(ε̄/δ⁰) / ln(1 − A/4M̄)`. Exposed so experiments can report the
/// paper's "additive in ε̄" property: dividing `ε̄` by 10 adds a constant
/// number of iterations.
pub fn geometric_iteration_estimate(delta0: f64, epsilon_bar: f64, rate: f64) -> f64 {
    assert!(rate > 0.0 && rate < 1.0, "rate must be in (0,1)");
    if delta0 <= epsilon_bar {
        return 0.0;
    }
    (epsilon_bar / delta0).ln() / rate.ln()
}

/// Operation-count model of one full SEA iteration on an `m×n` problem with
/// `p` processors (paper: each exact equilibration costs `7n + n ln n + 2n`;
/// all `m + n` subproblems divide over the processors; the convergence
/// check is serial and `O(m·n)`).
pub fn operation_model(m: usize, n: usize, processors: usize) -> f64 {
    let row_work: f64 = m as f64 * crate::knapsack::operation_count(n);
    let col_work: f64 = n as f64 * crate::knapsack::operation_count(m);
    let serial_check = (m * n) as f64;
    (row_work + col_work) / processors.max(1) as f64 + serial_check
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::TotalSpec;
    use sea_linalg::DenseMatrix;

    #[test]
    fn fill_point_outside_the_support_gives_no_bound() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let totals = || TotalSpec::Fixed {
            s0: vec![3.0, 3.0],
            d0: vec![3.0, 3.0],
        };
        let bound = |policy| {
            let p = DiagonalProblem::with_zero_policy(x0.clone(), gamma.clone(), totals(), policy)
                .unwrap();
            iteration_bound(&p, 1e-3)
        };
        // The fill puts 1.5 in every cell; two of them are structural.
        assert_eq!(bound(crate::ZeroPolicy::Structural), f64::INFINITY);
        let free = bound(crate::ZeroPolicy::Free);
        assert!(free.is_finite() && free > 0.0, "{free}");
    }

    fn problem() -> DiagonalProblem {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        gamma.set(0, 0, 0.25);
        gamma.set(1, 1, 4.0);
        DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Elastic {
                alpha: vec![1.0, 1.0],
                s0: vec![3.0, 7.0],
                beta: vec![1.0, 1.0],
                d0: vec![4.0, 6.0],
            },
        )
        .unwrap()
    }

    #[test]
    fn curvature_bounds_span_weights() {
        let b = CurvatureBounds::compute(&problem());
        // 1/(2γ) ranges over {2, 0.5, 0.125} plus 1/(2α)=1/(2β)=0.5.
        assert_eq!(b.lower, 0.125);
        assert_eq!(b.upper, 2.0);
        assert!(b.improvement_per_step(0.1) > 0.0);
    }

    #[test]
    fn iteration_bound_is_finite_and_positive() {
        let t = iteration_bound(&problem(), 1e-2);
        assert!(t.is_finite());
        assert!(t >= 0.0);
        // Tightening ε must not shrink the bound.
        assert!(iteration_bound(&problem(), 1e-3) >= t);
    }

    #[test]
    fn iteration_bound_fixed_class() {
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
        let t = iteration_bound(&p, 1e-2);
        assert!(t.is_finite() && t >= 0.0);
    }

    #[test]
    fn geometric_estimate_is_additive_in_log_epsilon() {
        let rate = 0.25;
        let t1 = geometric_iteration_estimate(1.0, 1e-3, rate);
        let t2 = geometric_iteration_estimate(1.0, 1e-4, rate);
        let t3 = geometric_iteration_estimate(1.0, 1e-5, rate);
        // Decreasing ε̄ tenfold adds a constant number of iterations.
        assert!(((t2 - t1) - (t3 - t2)).abs() < 1e-9);
        assert_eq!(geometric_iteration_estimate(1e-6, 1e-3, rate), 0.0);
    }

    #[test]
    fn operation_model_scales_with_processors() {
        let serial = operation_model(1000, 1000, 1);
        let six = operation_model(1000, 1000, 6);
        assert!(six < serial);
        // Perfect scaling is impossible because of the serial check.
        assert!(six > serial / 6.0);
    }
}
