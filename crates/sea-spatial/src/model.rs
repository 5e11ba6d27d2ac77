//! The SPE model, its constrained-matrix transformation, and equilibrium
//! verification.

use sea_core::{
    solve_diagonal_supervised, DiagonalProblem, NullObserver, SeaError, SeaOptions,
    SupervisorOptions, TotalSpec, ZeroPolicy,
};
use sea_linalg::DenseMatrix;
use std::time::Duration;

/// A spatial price equilibrium problem with linear separable functions:
///
/// * supply price   `πᵢ(sᵢ) = aᵢ + bᵢ·sᵢ` (slope `bᵢ > 0`),
/// * demand price   `ρⱼ(dⱼ) = cⱼ − eⱼ·dⱼ` (slope `eⱼ > 0`),
/// * transaction cost `tᵢⱼ(xᵢⱼ) = gᵢⱼ + hᵢⱼ·xᵢⱼ` (slope `hᵢⱼ > 0`).
///
/// Equilibrium (Samuelson/Takayama–Judge): for every pair `(i,j)`,
/// `πᵢ(sᵢ) + tᵢⱼ(xᵢⱼ) ≥ ρⱼ(dⱼ)`, with equality when `xᵢⱼ > 0`, where
/// `sᵢ = Σⱼ xᵢⱼ` and `dⱼ = Σᵢ xᵢⱼ`.
#[derive(Debug, Clone)]
pub struct SpatialPriceProblem {
    /// Supply price intercepts `a` (length m).
    pub supply_intercept: Vec<f64>,
    /// Supply price slopes `b > 0` (length m).
    pub supply_slope: Vec<f64>,
    /// Demand price intercepts `c` (length n).
    pub demand_intercept: Vec<f64>,
    /// Demand price slopes `e > 0` (length n).
    pub demand_slope: Vec<f64>,
    /// Transaction cost intercepts `g` (m×n).
    pub cost_intercept: DenseMatrix,
    /// Transaction cost slopes `h > 0` (m×n).
    pub cost_slope: DenseMatrix,
}

impl SpatialPriceProblem {
    /// Validate slopes and dimensions.
    ///
    /// # Errors
    /// [`SeaError::Shape`] / [`SeaError::NonPositiveWeight`] on bad input.
    pub fn validate(&self) -> Result<(), SeaError> {
        let (m, n) = (self.cost_intercept.rows(), self.cost_intercept.cols());
        if self.supply_intercept.len() != m || self.supply_slope.len() != m {
            return Err(SeaError::Shape {
                context: "SPE supply functions",
                expected: m,
                actual: self.supply_intercept.len().min(self.supply_slope.len()),
            });
        }
        if self.demand_intercept.len() != n || self.demand_slope.len() != n {
            return Err(SeaError::Shape {
                context: "SPE demand functions",
                expected: n,
                actual: self.demand_intercept.len().min(self.demand_slope.len()),
            });
        }
        if self.cost_slope.rows() != m || self.cost_slope.cols() != n {
            return Err(SeaError::Shape {
                context: "SPE cost slopes",
                expected: m * n,
                actual: self.cost_slope.rows() * self.cost_slope.cols(),
            });
        }
        for (k, &b) in self.supply_slope.iter().enumerate() {
            if !(b > 0.0) {
                return Err(SeaError::NonPositiveWeight {
                    which: "supply slope",
                    index: k,
                    value: b,
                });
            }
        }
        for (k, &e) in self.demand_slope.iter().enumerate() {
            if !(e > 0.0) {
                return Err(SeaError::NonPositiveWeight {
                    which: "demand slope",
                    index: k,
                    value: e,
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

    /// Number of supply markets.
    pub fn m(&self) -> usize {
        self.cost_intercept.rows()
    }

    /// Number of demand markets.
    pub fn n(&self) -> usize {
        self.cost_intercept.cols()
    }

    /// Supply price `πᵢ(s)`.
    pub fn supply_price(&self, i: usize, s: f64) -> f64 {
        self.supply_intercept[i] + self.supply_slope[i] * s
    }

    /// Demand price `ρⱼ(d)`.
    pub fn demand_price(&self, j: usize, d: f64) -> f64 {
        self.demand_intercept[j] - self.demand_slope[j] * d
    }

    /// Transaction cost `tᵢⱼ(x)`.
    pub fn transaction_cost(&self, i: usize, j: usize, x: f64) -> f64 {
        self.cost_intercept.get(i, j) + self.cost_slope.get(i, j) * x
    }

    /// The Nagurney (1989) isomorphism: complete the square on the SPE
    /// optimization objective to obtain a diagonal **elastic** constrained
    /// matrix problem (paper eq. 5) with
    ///
    /// ```text
    ///   αᵢ = bᵢ/2,   s⁰ᵢ = −aᵢ/bᵢ,
    ///   γᵢⱼ = hᵢⱼ/2, x⁰ᵢⱼ = −gᵢⱼ/hᵢⱼ,
    ///   βⱼ = eⱼ/2,   d⁰ⱼ = cⱼ/eⱼ.
    /// ```
    ///
    /// The pseudo-priors `x⁰ = −g/h` are typically negative (transport is
    /// costly at zero flow), which is why
    /// [`DiagonalProblem::with_signed_prior`] exists.
    ///
    /// # Errors
    /// Propagates validation failures.
    pub fn to_constrained_matrix(&self) -> Result<DiagonalProblem, SeaError> {
        self.validate()?;
        let (m, n) = (self.m(), self.n());
        let alpha: Vec<f64> = self.supply_slope.iter().map(|&b| 0.5 * b).collect();
        let s0: Vec<f64> = self
            .supply_intercept
            .iter()
            .zip(&self.supply_slope)
            .map(|(&a, &b)| -a / b)
            .collect();
        let beta: Vec<f64> = self.demand_slope.iter().map(|&e| 0.5 * e).collect();
        let d0: Vec<f64> = self
            .demand_intercept
            .iter()
            .zip(&self.demand_slope)
            .map(|(&c, &e)| c / e)
            .collect();
        let gamma = DenseMatrix::from_vec(
            m,
            n,
            self.cost_slope
                .as_slice()
                .iter()
                .map(|&h| 0.5 * h)
                .collect(),
        )?;
        let x0 = DenseMatrix::from_vec(
            m,
            n,
            self.cost_intercept
                .as_slice()
                .iter()
                .zip(self.cost_slope.as_slice())
                .map(|(&g, &h)| -g / h)
                .collect(),
        )?;
        DiagonalProblem::with_signed_prior(
            x0,
            gamma,
            TotalSpec::Elastic {
                alpha,
                s0,
                beta,
                d0,
            },
            ZeroPolicy::Free,
        )
    }
}

/// How well a candidate `(x, s, d)` satisfies the spatial equilibrium
/// conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquilibriumReport {
    /// Worst violation of `π + t ≥ ρ` (positive = violated).
    pub max_price_violation: f64,
    /// Worst complementarity slack `xᵢⱼ·(π + t − ρ)` over active flows.
    pub max_complementarity_gap: f64,
    /// Worst flow-conservation violation `|Σⱼ xᵢⱼ − sᵢ|`, `|Σᵢ xᵢⱼ − dⱼ|`.
    pub max_conservation_violation: f64,
    /// Total shipped quantity.
    pub total_flow: f64,
    /// Number of active (positive) trade links.
    pub active_links: usize,
}

/// Evaluate the equilibrium conditions at `(x, s, d)`.
pub fn check_equilibrium(
    p: &SpatialPriceProblem,
    x: &DenseMatrix,
    s: &[f64],
    d: &[f64],
) -> EquilibriumReport {
    let (m, n) = (p.m(), p.n());
    let mut max_price_violation: f64 = f64::NEG_INFINITY;
    let mut max_gap: f64 = 0.0;
    let mut active = 0usize;
    for i in 0..m {
        let pi = p.supply_price(i, s[i]);
        for j in 0..n {
            let xij = x.get(i, j);
            let margin = pi + p.transaction_cost(i, j, xij) - p.demand_price(j, d[j]);
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

/// A computed spatial equilibrium.
#[derive(Debug, Clone)]
pub struct SpeSolution {
    /// Trade flows.
    pub x: DenseMatrix,
    /// Supplies.
    pub s: Vec<f64>,
    /// Demands.
    pub d: Vec<f64>,
    /// Equilibrium diagnostics.
    pub report: EquilibriumReport,
    /// SEA iterations used.
    pub iterations: usize,
    /// Whether SEA converged.
    pub converged: bool,
    /// Wall clock.
    pub elapsed: Duration,
}

/// Compute the spatial equilibrium by transforming to a constrained matrix
/// problem and running SEA.
///
/// ```
/// use sea_core::SeaOptions;
/// use sea_spatial::{random_spe, solve_spe};
///
/// let problem = random_spe(4, 4, 7);
/// let sol = solve_spe(&problem, &SeaOptions::with_epsilon(1e-9)).unwrap();
/// assert!(sol.converged);
/// // Supply price + transport cost >= demand price on every route.
/// assert!(sol.report.max_price_violation < 1e-5);
/// ```
///
/// # Errors
/// Propagates validation and solver failures.
pub fn solve_spe(p: &SpatialPriceProblem, opts: &SeaOptions) -> Result<SpeSolution, SeaError> {
    let cmp = p.to_constrained_matrix()?;
    let sol =
        solve_diagonal_supervised(&cmp, opts, &SupervisorOptions::default(), &mut NullObserver)?
            .solution;
    let report = check_equilibrium(p, &sol.x, &sol.s, &sol.d);
    Ok(SpeSolution {
        x: sol.x,
        s: sol.s,
        d: sol.d,
        report,
        iterations: sol.stats.iterations,
        converged: sol.stats.converged,
        elapsed: sol.stats.elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two markets each; cheap local shipping, expensive cross shipping.
    fn small_spe() -> SpatialPriceProblem {
        SpatialPriceProblem {
            supply_intercept: vec![5.0, 5.0],
            supply_slope: vec![1.0, 1.0],
            demand_intercept: vec![40.0, 40.0],
            demand_slope: vec![1.0, 1.0],
            cost_intercept: DenseMatrix::from_rows(&[vec![1.0, 15.0], vec![15.0, 1.0]]).unwrap(),
            cost_slope: DenseMatrix::filled(2, 2, 0.5).unwrap(),
        }
    }

    #[test]
    fn sparse_convergence_checks_still_stop_with_extrapolation() {
        // Elastic problems stop on MaxAbsChange, which defers a stop met
        // after an extrapolated sweep; the deferred stop must be confirmed
        // at any check cadence.
        let cmp = crate::generate::random_spe(60, 60, 5)
            .to_constrained_matrix()
            .unwrap();
        for epsilon in [1e-2, 1e-6] {
            let solve = |check_every: usize| {
                let mut opts = SeaOptions::with_epsilon(epsilon);
                opts.check_every = check_every;
                let sup = SupervisorOptions::default();
                let sol = solve_diagonal_supervised(&cmp, &opts, &sup, &mut NullObserver)
                    .unwrap()
                    .solution;
                assert!(sol.stats.converged, "check_every {check_every}");
                sol.stats.iterations
            };
            let every = solve(1);
            for check_every in [2, 5] {
                let sparse = solve(check_every);
                assert!(
                    sparse <= every + 2 * check_every,
                    "check_every {check_every}: {sparse} vs {every} sweeps"
                );
            }
        }
    }

    #[test]
    fn validation_catches_bad_slopes() {
        let mut p = small_spe();
        p.demand_slope[1] = 0.0;
        assert!(p.validate().is_err());
        let mut p = small_spe();
        p.supply_intercept.pop();
        assert!(p.validate().is_err());
    }

    #[test]
    fn equilibrium_conditions_hold_at_solution() {
        let p = small_spe();
        let sol = solve_spe(&p, &SeaOptions::with_epsilon(1e-12)).unwrap();
        assert!(sol.converged);
        assert!(sol.report.total_flow > 0.0, "markets should trade");
        assert!(
            sol.report.max_price_violation < 1e-6,
            "price condition violated by {}",
            sol.report.max_price_violation
        );
        assert!(
            sol.report.max_complementarity_gap < 1e-5,
            "complementarity gap {}",
            sol.report.max_complementarity_gap
        );
        assert!(sol.report.max_conservation_violation < 1e-6);
    }

    #[test]
    fn symmetric_duopoly_ships_locally() {
        let p = small_spe();
        let sol = solve_spe(&p, &SeaOptions::with_epsilon(1e-12)).unwrap();
        // Cross costs are high: local links dominate.
        assert!(sol.x.get(0, 0) > sol.x.get(0, 1));
        assert!(sol.x.get(1, 1) > sol.x.get(1, 0));
        // Symmetry.
        assert!((sol.x.get(0, 0) - sol.x.get(1, 1)).abs() < 1e-8);
    }

    #[test]
    fn single_market_pair_matches_hand_solution() {
        // π(s)=2+s, ρ(d)=20−d, t(x)=1+x. Equilibrium with one link:
        // s=d=x: 2+x +1+x = 20−x ⇒ 3x = 17 ⇒ x = 17/3.
        let p = SpatialPriceProblem {
            supply_intercept: vec![2.0],
            supply_slope: vec![1.0],
            demand_intercept: vec![20.0],
            demand_slope: vec![1.0],
            cost_intercept: DenseMatrix::filled(1, 1, 1.0).unwrap(),
            cost_slope: DenseMatrix::filled(1, 1, 1.0).unwrap(),
        };
        let sol = solve_spe(&p, &SeaOptions::with_epsilon(1e-12)).unwrap();
        assert!((sol.x.get(0, 0) - 17.0 / 3.0).abs() < 1e-7);
        // Prices equalize.
        let pi = p.supply_price(0, sol.s[0]) + p.transaction_cost(0, 0, sol.x.get(0, 0));
        let rho = p.demand_price(0, sol.d[0]);
        assert!((pi - rho).abs() < 1e-6);
    }

    #[test]
    fn prohibitive_costs_shut_down_trade() {
        // Supply price at zero already exceeds what demanders will pay.
        let p = SpatialPriceProblem {
            supply_intercept: vec![100.0],
            supply_slope: vec![1.0],
            demand_intercept: vec![10.0],
            demand_slope: vec![1.0],
            cost_intercept: DenseMatrix::filled(1, 1, 5.0).unwrap(),
            cost_slope: DenseMatrix::filled(1, 1, 1.0).unwrap(),
        };
        let sol = solve_spe(&p, &SeaOptions::with_epsilon(1e-12)).unwrap();
        assert!(sol.x.get(0, 0).abs() < 1e-9);
        assert_eq!(sol.report.active_links, 0);
        // The price condition still holds (π + t ≥ ρ strictly).
        assert!(sol.report.max_price_violation <= 0.0);
    }
}
