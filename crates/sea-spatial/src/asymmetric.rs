//! Asymmetric spatial price equilibrium — the variational-inequality
//! problem class beyond optimization.
//!
//! Section 2 of the paper points out that the general constrained matrix
//! formulation is related to *asymmetric* spatial price equilibrium
//! problems, "for which no equivalent optimization formulations exist":
//! when supply prices at market `i` depend on the supplies of *other*
//! markets (and demand prices likewise) with a non-symmetric Jacobian, the
//! equilibrium is a variational inequality, not a minimization. The
//! Dafermos (1983) diagonalization scheme still applies: freeze the
//! cross-market terms, solve the resulting **separable** SPE through the
//! constrained-matrix isomorphism with SEA, and iterate.
//!
//! Model: supply price `πᵢ(s) = aᵢ + Σₖ Bᵢₖ sₖ`, demand price
//! `ρⱼ(d) = cⱼ − Σₗ Eⱼₗ dₗ`, transaction cost `tᵢⱼ(x) = gᵢⱼ + hᵢⱼ xᵢⱼ`,
//! with `B`, `E` row-diagonally-dominant with positive diagonals (the
//! standard strong-monotonicity condition) but **not** necessarily
//! symmetric.

use crate::model::{EquilibriumReport, SpatialPriceProblem};
use rand::Rng;
use sea_core::{
    solve_diagonal_supervised, NullObserver, SeaError, SeaOptions, StopReason, SupervisorOptions,
};
use sea_linalg::DenseMatrix;
use std::time::{Duration, Instant};

/// An asymmetric SPE instance.
#[derive(Debug, Clone)]
pub struct AsymmetricSpe {
    /// Supply price intercepts `a` (length m).
    pub supply_intercept: Vec<f64>,
    /// Supply price Jacobian `B` (m×m, positive diagonal, need not be
    /// symmetric).
    pub supply_jacobian: DenseMatrix,
    /// Demand price intercepts `c` (length n).
    pub demand_intercept: Vec<f64>,
    /// Demand price Jacobian `E` (n×n, positive diagonal).
    pub demand_jacobian: DenseMatrix,
    /// Transaction cost intercepts `g` (m×n).
    pub cost_intercept: DenseMatrix,
    /// Transaction cost slopes `h > 0` (m×n).
    pub cost_slope: DenseMatrix,
}

impl AsymmetricSpe {
    /// Validate shapes, positive diagonals/slopes.
    ///
    /// # Errors
    /// [`SeaError::Shape`] / [`SeaError::NonPositiveWeight`].
    pub fn validate(&self) -> Result<(), SeaError> {
        let (m, n) = (self.cost_intercept.rows(), self.cost_intercept.cols());
        if self.supply_jacobian.rows() != m || self.supply_jacobian.cols() != m {
            return Err(SeaError::Shape {
                context: "asymmetric B shape",
                expected: m * m,
                actual: self.supply_jacobian.rows() * self.supply_jacobian.cols(),
            });
        }
        if self.demand_jacobian.rows() != n || self.demand_jacobian.cols() != n {
            return Err(SeaError::Shape {
                context: "asymmetric E shape",
                expected: n * n,
                actual: self.demand_jacobian.rows() * self.demand_jacobian.cols(),
            });
        }
        if self.supply_intercept.len() != m || self.demand_intercept.len() != n {
            return Err(SeaError::Shape {
                context: "asymmetric intercepts",
                expected: m + n,
                actual: self.supply_intercept.len() + self.demand_intercept.len(),
            });
        }
        for i in 0..m {
            if !(self.supply_jacobian.get(i, i) > 0.0) {
                return Err(SeaError::NonPositiveWeight {
                    which: "diag(B)",
                    index: i,
                    value: self.supply_jacobian.get(i, i),
                });
            }
        }
        for j in 0..n {
            if !(self.demand_jacobian.get(j, j) > 0.0) {
                return Err(SeaError::NonPositiveWeight {
                    which: "diag(E)",
                    index: j,
                    value: self.demand_jacobian.get(j, j),
                });
            }
        }
        for (k, &h) in self.cost_slope.as_slice().iter().enumerate() {
            if !(h > 0.0) {
                return Err(SeaError::NonPositiveWeight {
                    which: "cost slope",
                    index: k,
                    value: h,
                });
            }
        }
        Ok(())
    }

    /// Supply markets.
    pub fn m(&self) -> usize {
        self.cost_intercept.rows()
    }

    /// Demand markets.
    pub fn n(&self) -> usize {
        self.cost_intercept.cols()
    }

    /// Full supply price `πᵢ(s)`.
    pub fn supply_price(&self, i: usize, s: &[f64]) -> f64 {
        self.supply_intercept[i] + sea_linalg::vector::dot(self.supply_jacobian.row(i), s)
    }

    /// Full demand price `ρⱼ(d)`.
    pub fn demand_price(&self, j: usize, d: &[f64]) -> f64 {
        self.demand_intercept[j] - sea_linalg::vector::dot(self.demand_jacobian.row(j), d)
    }

    /// Transaction cost `tᵢⱼ(x)`.
    pub fn transaction_cost(&self, i: usize, j: usize, x: f64) -> f64 {
        self.cost_intercept.get(i, j) + self.cost_slope.get(i, j) * x
    }

    /// The separable SPE obtained by freezing the cross-market terms at
    /// `(s, d)`: intercepts absorb `Σ_{k≠i} Bᵢₖ sₖ` (resp. demand side),
    /// slopes are the Jacobian diagonals.
    fn diagonalized_at(&self, s: &[f64], d: &[f64]) -> SpatialPriceProblem {
        let (m, n) = (self.m(), self.n());
        let supply_intercept: Vec<f64> = (0..m)
            .map(|i| {
                self.supply_intercept[i] + sea_linalg::vector::dot(self.supply_jacobian.row(i), s)
                    - self.supply_jacobian.get(i, i) * s[i]
            })
            .collect();
        let supply_slope: Vec<f64> = (0..m).map(|i| self.supply_jacobian.get(i, i)).collect();
        let demand_intercept: Vec<f64> = (0..n)
            .map(|j| {
                self.demand_intercept[j] - sea_linalg::vector::dot(self.demand_jacobian.row(j), d)
                    + self.demand_jacobian.get(j, j) * d[j]
            })
            .collect();
        let demand_slope: Vec<f64> = (0..n).map(|j| self.demand_jacobian.get(j, j)).collect();
        SpatialPriceProblem {
            supply_intercept,
            supply_slope,
            demand_intercept,
            demand_slope,
            cost_intercept: self.cost_intercept.clone(),
            cost_slope: self.cost_slope.clone(),
        }
    }

    /// Evaluate the equilibrium conditions with the **full** asymmetric
    /// price functions.
    pub fn check_equilibrium(&self, x: &DenseMatrix, s: &[f64], d: &[f64]) -> EquilibriumReport {
        let (m, n) = (self.m(), self.n());
        let mut max_price_violation: f64 = f64::NEG_INFINITY;
        let mut max_gap: f64 = 0.0;
        let mut active = 0usize;
        for i in 0..m {
            let pi = self.supply_price(i, s);
            for j in 0..n {
                let xij = x.get(i, j);
                let margin = pi + self.transaction_cost(i, j, xij) - self.demand_price(j, d);
                max_price_violation = max_price_violation.max(-margin);
                if xij > 0.0 {
                    active += 1;
                    max_gap = max_gap.max((xij * margin).abs());
                }
            }
        }
        let rs = x.row_sums();
        let cs = x.col_sums();
        let mut cons: f64 = 0.0;
        for i in 0..m {
            cons = cons.max((rs[i] - s[i]).abs());
        }
        for j in 0..n {
            cons = cons.max((cs[j] - d[j]).abs());
        }
        EquilibriumReport {
            max_price_violation,
            max_complementarity_gap: max_gap,
            max_conservation_violation: cons,
            total_flow: x.total(),
            active_links: active,
        }
    }
}

/// Result of an asymmetric SPE solve.
#[derive(Debug, Clone)]
pub struct AsymmetricSolution {
    /// Equilibrium flows.
    pub x: DenseMatrix,
    /// Equilibrium supplies.
    pub s: Vec<f64>,
    /// Equilibrium demands.
    pub d: Vec<f64>,
    /// Diagonalization (outer VI) iterations.
    pub outer_iterations: usize,
    /// Whether the outer loop converged.
    pub converged: bool,
    /// Final outer change `maxᵢⱼ |Δxᵢⱼ|`.
    pub outer_residual: f64,
    /// Equilibrium diagnostics under the full asymmetric functions.
    pub report: EquilibriumReport,
    /// Wall clock.
    pub elapsed: Duration,
}

/// Solve an asymmetric SPE by diagonalization: each outer iteration solves
/// a separable SPE (via the constrained-matrix isomorphism and SEA) with
/// cross-market terms frozen at the previous iterate.
///
/// # Errors
/// Propagates validation and inner-solver failures. An inner solve that
/// breaks down surfaces as [`SeaError::NumericalBreakdown`].
pub fn solve_asymmetric_spe(
    p: &AsymmetricSpe,
    inner: &SeaOptions,
    outer_epsilon: f64,
    max_outer: usize,
) -> Result<AsymmetricSolution, SeaError> {
    p.validate()?;
    let start = Instant::now();
    let (m, n) = (p.m(), p.n());
    let mut x = DenseMatrix::zeros(m, n)?;
    let mut s = vec![0.0; m];
    let mut d = vec![0.0; n];
    let mut outer_iterations = 0;
    let mut converged = false;
    let mut outer_residual = f64::INFINITY;
    let inner_sup = SupervisorOptions::default();

    for t in 1..=max_outer {
        outer_iterations = t;
        let sep = p.diagonalized_at(&s, &d);
        let cmp = sep.to_constrained_matrix()?;
        let out = solve_diagonal_supervised(&cmp, inner, &inner_sup, &mut NullObserver)?;
        if out.stop == StopReason::Breakdown {
            return Err(SeaError::NumericalBreakdown {
                iteration: out.solution.stats.iterations,
            });
        }
        let sol = out.solution;
        let delta = sol.x.max_abs_diff(&x);
        x = sol.x;
        s = sol.s;
        d = sol.d;
        outer_residual = delta;
        if delta <= outer_epsilon {
            converged = true;
            break;
        }
    }

    let report = p.check_equilibrium(&x, &s, &d);
    Ok(AsymmetricSolution {
        x,
        s,
        d,
        outer_iterations,
        converged,
        outer_residual,
        report,
        elapsed: start.elapsed(),
    })
}

/// Random asymmetric SPE instance: diagonally dominant (strongly monotone)
/// Jacobians with genuinely asymmetric off-diagonals.
///
/// # Panics
/// Panics if `m` or `n` is zero.
pub fn random_asymmetric_spe(m: usize, n: usize, seed: u64) -> AsymmetricSpe {
    use rand::SeedableRng;
    assert!(m > 0 && n > 0);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xA5E_A5E);
    let base = crate::generate::random_spe(m, n, seed);
    let mut b = DenseMatrix::zeros(m, m).expect("nonempty");
    for i in 0..m {
        let diag = base.supply_slope[i];
        // Keep Σ off-diag below the diagonal: strong monotonicity.
        let budget = 0.6 * diag / (m.max(2) - 1) as f64;
        for k in 0..m {
            if k == i {
                b.set(i, i, diag);
            } else {
                b.set(i, k, rng.random_range(-0.3 * budget..budget));
            }
        }
    }
    let mut e = DenseMatrix::zeros(n, n).expect("nonempty");
    for j in 0..n {
        let diag = base.demand_slope[j];
        let budget = 0.6 * diag / (n.max(2) - 1) as f64;
        for l in 0..n {
            if l == j {
                e.set(j, j, diag);
            } else {
                e.set(j, l, rng.random_range(-0.3 * budget..budget));
            }
        }
    }
    AsymmetricSpe {
        supply_intercept: base.supply_intercept,
        supply_jacobian: b,
        demand_intercept: base.demand_intercept,
        demand_jacobian: e,
        cost_intercept: base.cost_intercept,
        cost_slope: base.cost_slope,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::solve_spe;

    #[test]
    fn diagonal_jacobians_reduce_to_separable_spe() {
        let sep = crate::generate::random_spe(5, 5, 3);
        let asym = AsymmetricSpe {
            supply_intercept: sep.supply_intercept.clone(),
            supply_jacobian: {
                let mut b = DenseMatrix::zeros(5, 5).unwrap();
                for i in 0..5 {
                    b.set(i, i, sep.supply_slope[i]);
                }
                b
            },
            demand_intercept: sep.demand_intercept.clone(),
            demand_jacobian: {
                let mut e = DenseMatrix::zeros(5, 5).unwrap();
                for j in 0..5 {
                    e.set(j, j, sep.demand_slope[j]);
                }
                e
            },
            cost_intercept: sep.cost_intercept.clone(),
            cost_slope: sep.cost_slope.clone(),
        };
        let a = solve_asymmetric_spe(&asym, &SeaOptions::with_epsilon(1e-10), 1e-8, 100).unwrap();
        let b = solve_spe(&sep, &SeaOptions::with_epsilon(1e-10)).unwrap();
        assert!(a.converged && b.converged);
        assert!(
            a.x.max_abs_diff(&b.x) < 1e-5,
            "diagonal-Jacobian asymmetric solve must match separable: {}",
            a.x.max_abs_diff(&b.x)
        );
    }

    #[test]
    fn asymmetric_equilibrium_conditions_hold() {
        let p = random_asymmetric_spe(6, 7, 11);
        // Verify the Jacobians are genuinely asymmetric.
        let b = &p.supply_jacobian;
        let asym = (0..6)
            .flat_map(|i| (0..6).map(move |k| (i, k)))
            .any(|(i, k)| i != k && (b.get(i, k) - b.get(k, i)).abs() > 1e-12);
        assert!(asym, "generator must produce an asymmetric Jacobian");

        let sol = solve_asymmetric_spe(&p, &SeaOptions::with_epsilon(1e-10), 1e-8, 500).unwrap();
        assert!(sol.converged, "residual {}", sol.outer_residual);
        assert!(sol.report.total_flow > 0.0);
        let scale = sol.report.total_flow.max(1.0);
        assert!(
            sol.report.max_price_violation < 1e-5,
            "price violation {}",
            sol.report.max_price_violation
        );
        assert!(sol.report.max_complementarity_gap / scale < 1e-5);
        assert!(sol.report.max_conservation_violation / scale < 1e-6);
    }

    #[test]
    fn cross_market_supply_coupling_shifts_the_equilibrium() {
        // Positive cross-elasticity: other markets' output raises my
        // marginal cost, shrinking total trade relative to the decoupled
        // problem.
        let sep = crate::generate::random_spe(4, 4, 9);
        let mut coupled = random_asymmetric_spe(4, 4, 9);
        // Force strictly positive off-diagonal supply coupling.
        for i in 0..4 {
            for k in 0..4 {
                if i != k {
                    coupled
                        .supply_jacobian
                        .set(i, k, 0.2 * sep.supply_slope[i] / 3.0);
                }
            }
        }
        let decoupled = solve_spe(&sep, &SeaOptions::with_epsilon(1e-10)).unwrap();
        let sol =
            solve_asymmetric_spe(&coupled, &SeaOptions::with_epsilon(1e-10), 1e-8, 500).unwrap();
        assert!(sol.converged);
        assert!(
            sol.report.total_flow < decoupled.report.total_flow,
            "coupling should reduce trade: {} vs {}",
            sol.report.total_flow,
            decoupled.report.total_flow
        );
    }

    #[test]
    fn validation_rejects_bad_jacobians() {
        let mut p = random_asymmetric_spe(3, 3, 1);
        p.supply_jacobian.set(1, 1, 0.0);
        assert!(p.validate().is_err());
        let mut p = random_asymmetric_spe(3, 3, 1);
        p.demand_intercept.pop();
        assert!(p.validate().is_err());
    }
}
