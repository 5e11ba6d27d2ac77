//! Diagonal constrained matrix problem definitions (paper §2).
//!
//! A [`DiagonalProblem`] bundles the prior matrix `X⁰`, the strictly
//! positive per-entry weights `Γ = (γᵢⱼ)`, and a [`TotalSpec`] choosing
//! among the paper's three problem classes:
//!
//! * [`TotalSpec::Fixed`] — known totals (objective 13, constraints 11–12):
//!   the classical transportation-polytope problem of Deming–Stephan,
//!   Friedlander, Bachem–Korte.
//! * [`TotalSpec::Elastic`] — unknown totals estimated alongside the matrix
//!   (objective 5, constraints 2–4), the I/O-updating model of
//!   Harrigan–Buchanan and Nagurney (1989).
//! * [`TotalSpec::Balanced`] — the SAM model (objective 9, constraints 7–8):
//!   square, with each account's row total equal to its column total.
//!
//! Entries may be declared **structural zeros** via [`ZeroPolicy`]: a
//! structural zero stays exactly zero (excluded from equilibration), which
//! is how sparse I/O tables (16–58 % nonzero in the paper's datasets) are
//! handled. A problem's *variables* are then the cells of its CSR pattern,
//! or of a dense prior's nonzero pattern (kept with its transpose for the
//! column side); every other dense cell is a variable. Each sum the solver
//! and its certificate take ranges over exactly that set.

use crate::error::SeaError;
use crate::storage::{Storage, Vars};
use sea_linalg::{vector, CsrMatrix, DenseMatrix};

/// Specification of the row/column totals — selects the problem class.
#[derive(Debug, Clone, PartialEq)]
pub enum TotalSpec {
    /// Known fixed totals `s⁰` (length m) and `d⁰` (length n); requires
    /// `Σ s⁰ = Σ d⁰`.
    Fixed {
        /// Row totals.
        s0: Vec<f64>,
        /// Column totals.
        d0: Vec<f64>,
    },
    /// Unknown totals with quadratic penalties `αᵢ(sᵢ−s⁰ᵢ)²`,
    /// `βⱼ(dⱼ−d⁰ⱼ)²`.
    Elastic {
        /// Strictly positive row-total weights (length m).
        alpha: Vec<f64>,
        /// Prior row totals (length m).
        s0: Vec<f64>,
        /// Strictly positive column-total weights (length n).
        beta: Vec<f64>,
        /// Prior column totals (length n).
        d0: Vec<f64>,
    },
    /// SAM balance: square problem, row total i = column total i = sᵢ,
    /// penalized by `αᵢ(sᵢ−s⁰ᵢ)²`.
    Balanced {
        /// Strictly positive account weights (length n).
        alpha: Vec<f64>,
        /// Prior account totals (length n).
        s0: Vec<f64>,
    },
}

/// How zero entries of the prior are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ZeroPolicy {
    /// Zeros are ordinary free entries (may become positive in the
    /// estimate). This is Friedlander's treatment.
    #[default]
    Free,
    /// Zeros are structural: the estimate keeps them exactly zero and the
    /// equilibration subproblems skip them (the sparse-table treatment).
    Structural,
}

/// The support of a dense prior under [`ZeroPolicy::Structural`]: the
/// pattern of its nonzero cells. Both passes read it by rows (the column
/// pass walks the rows in column tiles).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Support {
    /// Row `i` lists the columns of row `i`'s nonzero prior entries.
    pub rows: CsrMatrix,
}

/// Constraint violations of a candidate solution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Residuals {
    /// `maxᵢ |Σⱼ xᵢⱼ − sᵢ|`.
    pub row_inf: f64,
    /// `maxⱼ |Σᵢ xᵢⱼ − dⱼ|`.
    pub col_inf: f64,
    /// `maxᵢ |Σⱼ xᵢⱼ − sᵢ| / max(|sᵢ|, 1e-12)` — the paper's SAM stopping
    /// quantity (§3.1.2 Step 3).
    pub rel_row_inf: f64,
    /// Euclidean norm of all constraint violations, `‖∇ζ‖` by eq. 25–27.
    pub norm2: f64,
}

impl Residuals {
    /// The violations of row sums against `s_target` and column sums
    /// against `d_target`.
    pub(crate) fn of_sums(
        row_sums: &[f64],
        col_sums: impl IntoIterator<Item = f64>,
        s_target: &[f64],
        d_target: &[f64],
    ) -> Residuals {
        let mut r = Residuals::default();
        let mut sq = 0.0;
        for (&sum, &t) in row_sums.iter().zip(s_target) {
            let v = (sum - t).abs();
            r.row_inf = r.row_inf.max(v);
            r.rel_row_inf = r.rel_row_inf.max(v / t.abs().max(1e-12));
            sq += v * v;
        }
        for (sum, &t) in col_sums.into_iter().zip(d_target) {
            let v = (sum - t).abs();
            r.col_inf = r.col_inf.max(v);
            sq += v * v;
        }
        r.norm2 = sq.sqrt();
        r
    }
}

/// A diagonal quadratic constrained matrix problem, generic over the
/// storage backend (dense by default; CSR for sparse instances).
///
/// For sparse ([`CsrMatrix`]) storage the stored pattern **is** the
/// support: missing cells are structural zeros regardless of
/// [`ZeroPolicy`], and the prior and weight table must share one pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagonalProblem<S: Storage = DenseMatrix> {
    x0: S,
    gamma: S,
    totals: TotalSpec,
    zero_policy: ZeroPolicy,
    support: Option<Support>,
}

fn validate_positive(v: &[f64], which: &'static str) -> Result<(), SeaError> {
    for (i, &w) in v.iter().enumerate() {
        if !(w > 0.0) || !w.is_finite() {
            return Err(SeaError::NonPositiveWeight {
                which,
                index: i,
                value: w,
            });
        }
    }
    Ok(())
}

fn validate_len(v: &[f64], expected: usize, context: &'static str) -> Result<(), SeaError> {
    if v.len() != expected {
        return Err(SeaError::Shape {
            context,
            expected,
            actual: v.len(),
        });
    }
    Ok(())
}

impl<S: Storage> DiagonalProblem<S> {
    /// Relative tolerance for the `Σ s⁰ = Σ d⁰` consistency check.
    pub const TOTALS_TOL: f64 = 1e-9;

    /// Build and validate a problem with [`ZeroPolicy::Free`].
    ///
    /// # Errors
    /// See [`DiagonalProblem::with_zero_policy`].
    pub fn new(x0: S, gamma: S, totals: TotalSpec) -> Result<Self, SeaError> {
        Self::with_zero_policy(x0, gamma, totals, ZeroPolicy::Free)
    }

    /// Build and validate a problem with an explicit zero policy.
    ///
    /// # Errors
    /// * [`SeaError::Shape`] on any dimension mismatch.
    /// * [`SeaError::PatternMismatch`] when sparse `Γ` does not share the
    ///   prior's support pattern.
    /// * [`SeaError::NonFinite`] if `X⁰` contains NaN/∞ or negatives are
    ///   present (priors are nonnegative matrices).
    /// * [`SeaError::NonPositiveWeight`] for non-positive `γ`, `α`, `β`.
    /// * [`SeaError::InconsistentTotals`] / [`SeaError::NegativeTotal`] for
    ///   invalid fixed totals.
    /// * [`SeaError::NotSquareSam`] for a non-square balanced problem.
    pub fn with_zero_policy(
        x0: S,
        gamma: S,
        totals: TotalSpec,
        zero_policy: ZeroPolicy,
    ) -> Result<Self, SeaError> {
        if x0.values().iter().any(|&v| v < 0.0) {
            return Err(SeaError::NonFinite {
                context: "prior X0 (negative entry)",
            });
        }
        Self::with_signed_prior(x0, gamma, totals, zero_policy)
    }

    /// Like [`DiagonalProblem::with_zero_policy`] but allowing *negative*
    /// prior entries. User-facing constrained matrix problems have
    /// nonnegative priors, but the diagonalization step of the general
    /// solvers (eq. 79) encodes its linear term as a signed pseudo-prior
    /// `q = −c/G̃` which may dip below zero; the solution stays nonnegative
    /// regardless because the constraint set is unchanged.
    ///
    /// # Errors
    /// Same as [`DiagonalProblem::with_zero_policy`] minus the
    /// prior-nonnegativity check.
    pub fn with_signed_prior(
        x0: S,
        gamma: S,
        totals: TotalSpec,
        zero_policy: ZeroPolicy,
    ) -> Result<Self, SeaError> {
        let (m, n) = (x0.rows(), x0.cols());
        if gamma.rows() != m || gamma.cols() != n {
            return Err(SeaError::Shape {
                context: "gamma shape",
                expected: m * n,
                actual: gamma.rows() * gamma.cols(),
            });
        }
        if !x0.same_pattern(&gamma) {
            return Err(SeaError::PatternMismatch {
                context: "gamma support pattern",
            });
        }
        // Keep one copy of the pattern: every later pattern check is then a
        // pointer comparison.
        let gamma = x0.with_values(gamma.into_values())?;
        if !vector::all_finite(x0.values()) {
            return Err(SeaError::NonFinite {
                context: "prior X0",
            });
        }
        validate_positive(gamma.values(), "gamma")?;

        match &totals {
            TotalSpec::Fixed { s0, d0 } => {
                validate_len(s0, m, "fixed s0")?;
                validate_len(d0, n, "fixed d0")?;
                for (i, &v) in s0.iter().enumerate() {
                    if v < 0.0 {
                        return Err(SeaError::NegativeTotal {
                            side: "row",
                            index: i,
                            value: v,
                        });
                    }
                }
                for (j, &v) in d0.iter().enumerate() {
                    if v < 0.0 {
                        return Err(SeaError::NegativeTotal {
                            side: "column",
                            index: j,
                            value: v,
                        });
                    }
                }
                let rs: f64 = s0.iter().sum();
                let cs: f64 = d0.iter().sum();
                if (rs - cs).abs() > Self::TOTALS_TOL * rs.abs().max(cs.abs()).max(1.0) {
                    return Err(SeaError::InconsistentTotals {
                        row_total: rs,
                        col_total: cs,
                    });
                }
            }
            TotalSpec::Elastic {
                alpha,
                s0,
                beta,
                d0,
            } => {
                validate_len(alpha, m, "elastic alpha")?;
                validate_len(s0, m, "elastic s0")?;
                validate_len(beta, n, "elastic beta")?;
                validate_len(d0, n, "elastic d0")?;
                validate_positive(alpha, "alpha")?;
                validate_positive(beta, "beta")?;
            }
            TotalSpec::Balanced { alpha, s0 } => {
                if m != n {
                    return Err(SeaError::NotSquareSam { rows: m, cols: n });
                }
                validate_len(alpha, n, "balanced alpha")?;
                validate_len(s0, n, "balanced s0")?;
                validate_positive(alpha, "alpha")?;
            }
        }

        // A sparse prior's pattern already is its support.
        let support = match zero_policy {
            ZeroPolicy::Free => None,
            ZeroPolicy::Structural => x0.nonzero_pattern()?.map(|rows| Support { rows }),
        };

        Ok(Self {
            x0,
            gamma,
            totals,
            zero_policy,
            support,
        })
    }

    /// A fixed-totals problem over parts the caller has validated under
    /// its own rules: the box-bounded problem admits signed priors and
    /// totals, which [`DiagonalProblem::new`] rejects.
    pub(crate) fn fixed_unchecked(x0: S, gamma: S, s0: Vec<f64>, d0: Vec<f64>) -> Self {
        Self {
            x0,
            gamma,
            totals: TotalSpec::Fixed { s0, d0 },
            zero_policy: ZeroPolicy::Free,
            support: None,
        }
    }

    /// Number of rows `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.x0.rows()
    }

    /// Number of columns `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.x0.cols()
    }

    /// The prior matrix `X⁰`.
    #[inline]
    pub fn x0(&self) -> &S {
        &self.x0
    }

    /// The per-entry weights `Γ`.
    #[inline]
    pub fn gamma(&self) -> &S {
        &self.gamma
    }

    /// The total specification.
    #[inline]
    pub fn totals(&self) -> &TotalSpec {
        &self.totals
    }

    /// The zero policy.
    #[inline]
    pub fn zero_policy(&self) -> ZeroPolicy {
        self.zero_policy
    }

    pub(crate) fn support(&self) -> Option<&Support> {
        self.support.as_ref()
    }

    /// Number of decision variables (`m·n` for a free dense problem, the
    /// support size under a structural zero policy or sparse storage) —
    /// the paper's "# of variables" column.
    pub fn variable_count(&self) -> usize {
        match &self.support {
            None => self.x0.stored(),
            Some(s) => s.rows.stored(),
        }
    }

    /// Where row `i`'s variables sit among its stored values.
    #[inline]
    pub(crate) fn vars(&self, i: usize) -> Vars<'_> {
        Vars::of(&self.x0, self.support.as_ref().map(|s| &s.rows), i)
    }

    /// Evaluate the primal objective (eq. 5 / 9 / 13) at `(x, s, d)`.
    ///
    /// For [`TotalSpec::Fixed`] the `s`/`d` arguments are ignored; for
    /// [`TotalSpec::Balanced`], `d` is ignored (totals are shared).
    /// `x` must share the problem's storage pattern (true for solver
    /// iterates by construction). Each column's terms are summed in row
    /// order and the column sums in column order, the association a
    /// solve's finishing sweep uses, so the two agree bit for bit.
    pub fn objective(&self, x: &S, s: &[f64], d: &[f64]) -> f64 {
        debug_assert!(x.same_pattern(&self.x0));
        let mut sums = vec![0.0; self.n()];
        // A slice, not the `Vec`, so the walk need not reload the length
        // after every store.
        let cols = &mut sums[..];
        for i in 0..self.m() {
            let range = x.row_range(i);
            let xr = &x.values()[range.clone()];
            let x0r = &self.x0.values()[range.clone()];
            let gr = &self.gamma.values()[range];
            self.vars(i).for_each(|j, k| {
                let dev = xr[k] - x0r[k];
                cols[j] += gr[k] * dev * dev;
            });
        }
        self.objective_of_columns(sums, s, d)
    }

    /// The objective from each column's `Σ γ(x − x⁰)²`, summed in column
    /// order, plus the totals' penalty terms at `(s, d)`.
    pub(crate) fn objective_of_columns(
        &self,
        cols: impl IntoIterator<Item = f64>,
        s: &[f64],
        d: &[f64],
    ) -> f64 {
        let mut obj = 0.0;
        for c in cols {
            obj += c;
        }
        match &self.totals {
            TotalSpec::Fixed { .. } => {}
            TotalSpec::Elastic {
                alpha,
                s0,
                beta,
                d0,
            } => {
                for i in 0..alpha.len() {
                    let dev = s[i] - s0[i];
                    obj += alpha[i] * dev * dev;
                }
                for j in 0..beta.len() {
                    let dev = d[j] - d0[j];
                    obj += beta[j] * dev * dev;
                }
            }
            TotalSpec::Balanced { alpha, s0 } => {
                for i in 0..alpha.len() {
                    let dev = s[i] - s0[i];
                    obj += alpha[i] * dev * dev;
                }
            }
        }
        obj
    }

    /// Constraint residuals of `(x, s, d)` against this problem's
    /// constraints. For fixed totals the targets are `s⁰`/`d⁰`; for elastic
    /// and balanced problems the targets are the supplied `s`/`d` (`s`
    /// doubles as the column target in the balanced case).
    pub fn residuals(&self, x: &S, s: &[f64], d: &[f64]) -> Residuals {
        let mut row_sums = vec![0.0; x.rows()];
        let mut col_sums = vec![0.0; x.cols()];
        x.row_sums_into(&mut row_sums);
        x.col_sums_into(&mut col_sums);
        self.residuals_of_sums(&row_sums, col_sums, s, d)
    }

    /// [`DiagonalProblem::residuals`] from the row and column sums of `x`.
    pub(crate) fn residuals_of_sums(
        &self,
        row_sums: &[f64],
        col_sums: impl IntoIterator<Item = f64>,
        s: &[f64],
        d: &[f64],
    ) -> Residuals {
        let (s_target, d_target): (&[f64], &[f64]) = match &self.totals {
            TotalSpec::Fixed { s0, d0 } => (s0, d0),
            TotalSpec::Elastic { .. } => (s, d),
            TotalSpec::Balanced { .. } => (s, s),
        };
        Residuals::of_sums(row_sums, col_sums, s_target, d_target)
    }

    /// Re-express this problem over dense storage (structural zeros in a
    /// sparse pattern become dense structural zeros under
    /// [`ZeroPolicy::Structural`], free zeros otherwise).
    ///
    /// # Errors
    /// Propagates allocation failures and re-validation errors. Note a
    /// sparse problem whose pattern holds stored zeros in `Γ`'s positions
    /// cannot round-trip under `ZeroPolicy::Free` — dense `Γ` must be
    /// positive everywhere — so this is primarily a debugging/interchange
    /// aid for full-pattern and structural problems.
    pub fn to_dense_problem(&self) -> Result<DiagonalProblem<DenseMatrix>, SeaError> {
        let x0 = self.x0.to_dense()?;
        let mut gamma = self.gamma.to_dense()?;
        // Structural cells have no weight in sparse storage; give them a
        // positive placeholder so dense validation accepts the table (the
        // structural policy keeps them out of the subproblems anyway).
        if gamma.as_slice().contains(&0.0) {
            gamma.map_inplace(|v| if v == 0.0 { 1.0 } else { v });
        }
        DiagonalProblem::with_signed_prior(x0, gamma, self.totals.clone(), self.zero_policy)
    }
}

impl DiagonalProblem<CsrMatrix> {
    /// Build the sparse image of a dense problem.
    ///
    /// The pattern follows the dense problem's zero policy so both describe
    /// the same feasible set: under [`ZeroPolicy::Free`] every dense cell is
    /// stored (zeros included — they are variables), under
    /// [`ZeroPolicy::Structural`] only the prior's nonzero cells are stored.
    /// `Γ` is gathered onto the prior's pattern, so the two always share it.
    ///
    /// # Errors
    /// Propagates construction failures from [`CsrMatrix`] and problem
    /// validation.
    pub fn from_dense_problem(p: &DiagonalProblem<DenseMatrix>) -> Result<Self, SeaError> {
        let x0 = match p.zero_policy() {
            ZeroPolicy::Free => CsrMatrix::from_dense_full(p.x0())?,
            ZeroPolicy::Structural => CsrMatrix::from_dense_pruned(p.x0())?,
        };
        let mut gvals = Vec::with_capacity(x0.stored());
        for i in 0..x0.rows() {
            let grow = p.gamma().row(i);
            gvals.extend(x0.row_cols(i).iter().map(|&j| grow[j as usize]));
        }
        let gamma = x0.with_values(gvals)?;
        Self::with_signed_prior(x0, gamma, p.totals().clone(), p.zero_policy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x0() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 0.0]]).unwrap()
    }

    fn ones() -> DenseMatrix {
        DenseMatrix::filled(2, 2, 1.0).unwrap()
    }

    /// A 2×3 CSR matrix with a fresh copy of one fixed pattern.
    fn csr(vals: [f64; 4]) -> CsrMatrix {
        CsrMatrix::from_parts(2, 3, vec![0, 2, 4], vec![0, 2, 1, 2], vals.to_vec()).unwrap()
    }

    #[test]
    fn equal_patterns_become_one_shared_pattern() {
        let (x0, gamma) = (csr([1.0, 2.0, 3.0, 4.0]), csr([1.0; 4]));
        assert!(x0.same_pattern(&gamma) && !x0.shares_pattern(&gamma));
        let totals = TotalSpec::Fixed {
            s0: vec![3.0, 7.0],
            d0: vec![1.0, 3.0, 6.0],
        };
        let p = DiagonalProblem::new(x0, gamma, totals).unwrap();
        assert!(p.x0().shares_pattern(p.gamma()));
        assert_eq!(p.gamma().vals(), &[1.0; 4]);
    }

    #[test]
    fn builds_fixed_problem() {
        let p = DiagonalProblem::new(
            x0(),
            ones(),
            TotalSpec::Fixed {
                s0: vec![3.0, 4.0],
                d0: vec![5.0, 2.0],
            },
        )
        .unwrap();
        assert_eq!(p.m(), 2);
        assert_eq!(p.n(), 2);
        assert_eq!(p.variable_count(), 4);
    }

    #[test]
    fn rejects_inconsistent_fixed_totals() {
        let e = DiagonalProblem::new(
            x0(),
            ones(),
            TotalSpec::Fixed {
                s0: vec![3.0, 4.0],
                d0: vec![5.0, 3.0],
            },
        );
        assert!(matches!(e, Err(SeaError::InconsistentTotals { .. })));
    }

    #[test]
    fn rejects_negative_total_and_bad_weight() {
        let e = DiagonalProblem::new(
            x0(),
            ones(),
            TotalSpec::Fixed {
                s0: vec![-1.0, 8.0],
                d0: vec![5.0, 2.0],
            },
        );
        assert!(matches!(
            e,
            Err(SeaError::NegativeTotal { side: "row", .. })
        ));

        let mut g = ones();
        g.set(0, 1, 0.0);
        let e = DiagonalProblem::new(
            x0(),
            g,
            TotalSpec::Fixed {
                s0: vec![3.0, 4.0],
                d0: vec![5.0, 2.0],
            },
        );
        assert!(matches!(
            e,
            Err(SeaError::NonPositiveWeight {
                which: "gamma",
                index: 1,
                ..
            })
        ));
    }

    #[test]
    fn rejects_negative_prior_and_nan() {
        let mut bad = x0();
        bad.set(0, 0, -1.0);
        assert!(DiagonalProblem::new(
            bad,
            ones(),
            TotalSpec::Balanced {
                alpha: vec![1.0, 1.0],
                s0: vec![1.0, 1.0]
            }
        )
        .is_err());
    }

    #[test]
    fn balanced_requires_square() {
        let rect = DenseMatrix::zeros(2, 3).unwrap();
        let g = DenseMatrix::filled(2, 3, 1.0).unwrap();
        let e = DiagonalProblem::new(
            rect,
            g,
            TotalSpec::Balanced {
                alpha: vec![1.0; 2],
                s0: vec![1.0; 2],
            },
        );
        assert!(matches!(
            e,
            Err(SeaError::NotSquareSam { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn structural_support_lists() {
        let p = DiagonalProblem::with_zero_policy(
            x0(),
            ones(),
            TotalSpec::Elastic {
                alpha: vec![1.0; 2],
                s0: vec![3.0, 3.0],
                beta: vec![1.0; 2],
                d0: vec![4.0, 2.0],
            },
            ZeroPolicy::Structural,
        )
        .unwrap();
        assert_eq!(p.variable_count(), 3);
        let sup = p.support().unwrap();
        assert_eq!(sup.rows.row_cols(1), &[0]);
    }

    #[test]
    fn objective_matches_hand_computation() {
        let p = DiagonalProblem::new(
            x0(),
            ones(),
            TotalSpec::Elastic {
                alpha: vec![2.0; 2],
                s0: vec![3.0, 3.0],
                beta: vec![1.0; 2],
                d0: vec![4.0, 2.0],
            },
        )
        .unwrap();
        let x = DenseMatrix::from_rows(&[vec![1.0, 3.0], vec![3.0, 1.0]]).unwrap();
        // Entry deviations: (0,1,0,1) → Σγ dev² = 2.
        // s = (4,4): Σα(s−s0)² = 2(1+1) = 4. d = (4,4): Σβ(d−d0)² = 0+4.
        let obj = p.objective(&x, &[4.0, 4.0], &[4.0, 4.0]);
        assert!((obj - 10.0).abs() < 1e-12);
    }

    #[test]
    fn residuals_report_violations() {
        let p = DiagonalProblem::new(
            x0(),
            ones(),
            TotalSpec::Fixed {
                s0: vec![3.0, 4.0],
                d0: vec![5.0, 2.0],
            },
        )
        .unwrap();
        let r = p.residuals(&x0(), &[], &[]);
        // Row sums (3,3) vs (3,4); col sums (4,2) vs (5,2).
        assert!((r.row_inf - 1.0).abs() < 1e-12);
        assert!((r.col_inf - 1.0).abs() < 1e-12);
        assert!((r.rel_row_inf - 0.25).abs() < 1e-12);
        assert!((r.norm2 - (2.0_f64).sqrt()).abs() < 1e-12);
    }
}
