//! Box/interval-constrained diagonal problems — the Harrigan–Buchanan
//! (1984) and Ohuchi–Kaji (1984) extensions noted in §2.
//!
//! The fixed-totals diagonal problem gains per-entry bounds
//! `loᵢⱼ ≤ xᵢⱼ ≤ hiᵢⱼ` (interval constraints on the estimates). The SEA
//! machinery carries over unchanged: each row/column subproblem becomes a
//! box-bounded continuous quadratic knapsack, still solvable exactly by a
//! breakpoint sweep ([`crate::knapsack::exact_equilibration_boxed`]), and
//! the solve runs the diagonal driver's own loop ([`crate::solver`]) with
//! the bounds handed to its passes.

use crate::equilibrate::PassBounds;
use crate::error::SeaError;
use crate::knapsack::KernelKind;
use crate::problem::{DiagonalProblem, Residuals, TotalSpec};
use crate::solver::{solve_inner, SeaOptions};
use crate::storage::{RowView, Storage};
use crate::supervisor::{SolveControl, SupervisedBoundedSolution, SupervisorOptions};
use sea_linalg::DenseMatrix;
use sea_observe::{KernelCounters, Observer};
use std::time::Duration;

/// A fixed-totals diagonal problem with entry bounds. Generic over
/// [`Storage`]: with a sparse backend, all four matrices share one support
/// pattern and entries outside it are pinned at zero (they contribute
/// nothing to either bound sum).
#[derive(Debug, Clone)]
pub struct BoundedProblem<S: Storage = DenseMatrix> {
    /// Prior, weights and fixed totals: the problem without its bounds.
    /// Built unchecked — bounded priors and totals may be negative.
    base: DiagonalProblem<S>,
    lo: S,
    hi: S,
    /// Each row's `(Σ lo, Σ hi)`, as `iter().sum()` over the row.
    row_sums: BoundSums,
    /// Each column's `(Σ lo, Σ hi)`, as `iter().sum()` over the column in
    /// row order: the bits a transposed row's sum has.
    col_sums: BoundSums,
}

/// One `(Σ lo, Σ hi)` per row or per column.
type BoundSums = Vec<(f64, f64)>;

impl<S: Storage> BoundedProblem<S> {
    /// Build and validate.
    ///
    /// # Errors
    /// * [`SeaError::Shape`] for any dimension mismatch.
    /// * [`SeaError::NonFinite`] for a NaN or infinite entry of `X⁰`, `lo`,
    ///   `hi`, `s⁰` or `d⁰`.
    /// * [`SeaError::InconsistentBounds`] if some `lo > hi` entrywise.
    /// * [`SeaError::InconsistentTotals`] if `Σ s⁰ ≠ Σ d⁰`.
    /// * [`SeaError::NonPositiveWeight`] for non-positive or infinite `γ`.
    /// * [`SeaError::InfeasibleSubproblem`] when a row/column total falls
    ///   outside its `[Σ lo, Σ hi]` range.
    pub fn new(
        x0: S,
        gamma: S,
        lo: S,
        hi: S,
        s0: Vec<f64>,
        d0: Vec<f64>,
    ) -> Result<Self, SeaError> {
        let (m, n) = (x0.rows(), x0.cols());
        for (mat, ctx) in [
            (&gamma, "bounded gamma shape"),
            (&lo, "bounded lo shape"),
            (&hi, "bounded hi shape"),
        ] {
            if mat.rows() != m || mat.cols() != n {
                return Err(SeaError::Shape {
                    context: ctx,
                    expected: m * n,
                    actual: mat.rows() * mat.cols(),
                });
            }
            if !x0.same_pattern(mat) {
                return Err(SeaError::PatternMismatch {
                    context: "bounded support pattern",
                });
            }
        }
        // Keep one copy of the pattern: every later pattern check is then a
        // pointer comparison.
        let gamma = x0.with_values(gamma.into_values())?;
        let lo = x0.with_values(lo.into_values())?;
        let hi = x0.with_values(hi.into_values())?;
        if s0.len() != m || d0.len() != n {
            return Err(SeaError::Shape {
                context: "bounded totals",
                expected: m + n,
                actual: s0.len() + d0.len(),
            });
        }
        // `index` is a storage index: a flat cell index for dense backends,
        // a position in the stored-value array for sparse ones. These loops
        // run over every cell, so each keeps its per-cell test to what the
        // validation needs and sorts out the cause only on failure:
        // `!(l <= h)` also catches a NaN bound, and an infinite one shows
        // up as a non-finite row sum below.
        for (k, (&l, &h)) in lo.values().iter().zip(hi.values()).enumerate() {
            if !(l <= h) {
                if !l.is_finite() || !h.is_finite() {
                    return Err(non_finite_bound(l));
                }
                return Err(SeaError::InconsistentBounds {
                    index: k,
                    lower: l,
                    upper: h,
                });
            }
        }
        // The bit patterns of the positive finite doubles are exactly
        // `1..=f64::MAX.to_bits()`: one integer compare per weight.
        let positive_finite = |v: f64| v.to_bits().wrapping_sub(1) < f64::MAX.to_bits();
        for (k, (&g, &x)) in gamma.values().iter().zip(x0.values()).enumerate() {
            if !positive_finite(g) || !x.is_finite() {
                if !x.is_finite() {
                    return Err(SeaError::NonFinite {
                        context: "bounded prior X0",
                    });
                }
                return Err(SeaError::NonPositiveWeight {
                    which: "gamma",
                    index: k,
                    value: g,
                });
            }
        }
        let rs: f64 = s0.iter().sum();
        let cs: f64 = d0.iter().sum();
        if (rs - cs).abs() > 1e-9 * rs.abs().max(cs.abs()).max(1.0) {
            return Err(SeaError::InconsistentTotals {
                row_total: rs,
                col_total: cs,
            });
        }
        // Per-subproblem feasibility: s⁰ᵢ ∈ [Σⱼ lo, Σⱼ hi], likewise
        // columns. Off-support entries of a sparse backend are pinned at 0
        // and add nothing to either sum, so a fully-pinned (empty) sparse
        // row is feasible only for a zero total. A non-finite total slips
        // through the grand-total comparison above and is caught here.
        let (row_sums, col_sums) = bound_sums(&lo, &hi);
        for (i, &(l, h)) in row_sums.iter().enumerate() {
            if !(s0[i].is_finite() && l.is_finite() && h.is_finite()) {
                if !s0[i].is_finite() {
                    return Err(SeaError::NonFinite {
                        context: "bounded row totals s0",
                    });
                }
                return Err(non_finite_bound(l));
            }
            if s0[i] < l - 1e-9 || s0[i] > h + 1e-9 {
                return Err(SeaError::InfeasibleSubproblem {
                    side: "row",
                    index: i,
                });
            }
        }
        for (j, &(l, h)) in col_sums.iter().enumerate() {
            if !d0[j].is_finite() {
                return Err(SeaError::NonFinite {
                    context: "bounded column totals d0",
                });
            }
            if d0[j] < l - 1e-9 || d0[j] > h + 1e-9 {
                return Err(SeaError::InfeasibleSubproblem {
                    side: "column",
                    index: j,
                });
            }
        }
        Ok(Self {
            base: DiagonalProblem::fixed_unchecked(x0, gamma, s0, d0),
            lo,
            hi,
            row_sums,
            col_sums,
        })
    }

    /// Rows.
    pub fn m(&self) -> usize {
        self.base.m()
    }

    /// Columns.
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// The prior `X⁰`.
    pub fn x0(&self) -> &S {
        self.base.x0()
    }

    /// The weight matrix `Γ`.
    pub fn gamma(&self) -> &S {
        self.base.gamma()
    }

    /// Lower bounds.
    pub fn lo(&self) -> &S {
        &self.lo
    }

    /// Upper bounds.
    pub fn hi(&self) -> &S {
        &self.hi
    }

    /// The bounds of the row pass, with each row's `(Σ lo, Σ hi)`.
    pub(crate) fn row_bounds(&self) -> PassBounds<'_, S> {
        PassBounds::new(&self.lo, &self.hi, &self.row_sums)
    }

    /// The bounds of the column pass: `(lo, hi)` transposed to its layout,
    /// with each column's `(Σ lo, Σ hi)`.
    pub(crate) fn col_bounds<'a>(&'a self, lo_t: &'a S, hi_t: &'a S) -> PassBounds<'a, S> {
        PassBounds::new(lo_t, hi_t, &self.col_sums)
    }

    /// Row totals `s⁰`.
    pub fn s0(&self) -> &[f64] {
        self.totals().0
    }

    /// Column totals `d⁰`.
    pub fn d0(&self) -> &[f64] {
        self.totals().1
    }

    fn totals(&self) -> (&[f64], &[f64]) {
        match self.base.totals() {
            TotalSpec::Fixed { s0, d0 } => (s0, d0),
            // `new` only ever builds fixed totals.
            TotalSpec::Elastic { .. } | TotalSpec::Balanced { .. } => (&[], &[]),
        }
    }

    /// Objective `Σ γᵢⱼ (xᵢⱼ − x⁰ᵢⱼ)²`.
    pub fn objective(&self, x: &S) -> f64 {
        self.base.objective(x, &[], &[])
    }
}

/// Every row's and every column's `(Σ lo, Σ hi)`, in one walk over both
/// bounds. A row folds its stored values with `iter().sum()`; a column
/// folds from `-0.0` in row order, which is what `iter().sum()` over its
/// transposed row gives, so the column pass reads the bits it would have
/// summed itself. A column with no stored entry sums to `-0.0`.
fn bound_sums<S: Storage>(lo: &S, hi: &S) -> (BoundSums, BoundSums) {
    let mut col_lo = vec![-0.0; lo.cols()];
    let mut col_hi = vec![-0.0; lo.cols()];
    let rows = (0..lo.rows())
        .map(|i| {
            let l = &lo.values()[lo.row_range(i)];
            let h = &hi.values()[hi.row_range(i)];
            match lo.row_view(i) {
                RowView::Dense(_) => {
                    for (c, v) in col_lo.iter_mut().zip(l) {
                        *c += v;
                    }
                    for (c, v) in col_hi.iter_mut().zip(h) {
                        *c += v;
                    }
                }
                RowView::Indexed { idx, .. } => {
                    for ((&j, a), b) in idx.iter().zip(l).zip(h) {
                        col_lo[j as usize] += a;
                        col_hi[j as usize] += b;
                    }
                }
            }
            (l.iter().sum(), h.iter().sum())
        })
        .collect();
    (rows, col_lo.into_iter().zip(col_hi).collect())
}

/// The error for a non-finite bound (or bound row sum), blaming `lo` when
/// its value `lo_value` is the non-finite one and `hi` otherwise.
fn non_finite_bound(lo_value: f64) -> SeaError {
    SeaError::NonFinite {
        context: if lo_value.is_finite() {
            "bounded hi"
        } else {
            "bounded lo"
        },
    }
}

/// Result of a bounded solve.
#[derive(Debug, Clone)]
pub struct BoundedSolution<S: Storage = DenseMatrix> {
    /// The estimate (same storage backend as the problem).
    pub x: S,
    /// Row multipliers.
    pub lambda: Vec<f64>,
    /// Column multipliers.
    pub mu: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the relative row-balance criterion fired.
    pub converged: bool,
    /// Final constraint residuals.
    pub residuals: Residuals,
    /// Objective value.
    pub objective: f64,
    /// Kernel work of the solve's passes.
    pub counters: KernelCounters,
    /// Wall clock.
    pub elapsed: Duration,
}

/// Kernel configuration for [`solve_bounded_supervised_configured`]: which
/// λ-search kernel. The default (`KernelKind::default()`) matches
/// [`SeaOptions::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BoundedOptions {
    /// Which equilibration kernel solves the row/column subproblems.
    pub kernel: KernelKind,
}

/// Solve a bounded problem by SEA with box-bounded exact equilibration,
/// under the fault-tolerant supervisor — the bounded counterpart of
/// [`crate::solve_diagonal_supervised`], running the same driver loop:
/// `opts` chooses the kernel, parallelism and shard size, the stopping
/// rule (relative row balance by default) and the warm start
/// (`initial_mu`); `sup` the budget, watchdogs, checkpoints and scripted
/// faults. Quickselect subproblems that go pathological fall back to
/// sort-scan and are counted in `kernel_fallbacks`.
///
/// The result carries no KKT certificate and events carry no dual value:
/// both describe the unbounded problem, not the box-bounded one.
///
/// # Errors
/// * [`SeaError::Shape`] when `opts.initial_mu` has the wrong length.
/// * [`SeaError::InfeasibleSubproblem`], [`SeaError::WorkerPanic`] from
///   the passes.
/// * [`SeaError::NumericalBreakdown`] only when iterates go non-finite
///   before any convergence check has certified a restorable snapshot.
pub fn solve_bounded_supervised<S: Storage, O: Observer + Send>(
    p: &BoundedProblem<S>,
    opts: &SeaOptions,
    sup: &SupervisorOptions,
    obs: &mut O,
) -> Result<SupervisedBoundedSolution<S>, SeaError> {
    opts.parallelism.run(move || supervised(p, opts, sup, obs))
}

/// [`solve_bounded_supervised`] for a serial solve configured by a
/// tolerance, an iteration cap, a [`BoundedOptions`] kernel configuration
/// and an optional warm-start `μ`.
///
/// # Errors
/// Same contract as [`solve_bounded_supervised`].
pub fn solve_bounded_supervised_configured<S: Storage, O: Observer>(
    p: &BoundedProblem<S>,
    epsilon: f64,
    max_iterations: usize,
    opts: &BoundedOptions,
    initial_mu: Option<&[f64]>,
    sup: &SupervisorOptions,
    obs: &mut O,
) -> Result<SupervisedBoundedSolution<S>, SeaError> {
    let opts = SeaOptions {
        max_iterations,
        kernel: opts.kernel,
        initial_mu: initial_mu.map(<[f64]>::to_vec),
        ..SeaOptions::with_epsilon(epsilon)
    };
    supervised(p, &opts, sup, obs)
}

fn supervised<S: Storage, O: Observer>(
    p: &BoundedProblem<S>,
    opts: &SeaOptions,
    sup: &SupervisorOptions,
    obs: &mut O,
) -> Result<SupervisedBoundedSolution<S>, SeaError> {
    let mut ctrl = SolveControl::new(sup);
    let (sol, _) = solve_inner(&p.base, Some(p), opts, obs, &mut ctrl)?;
    Ok(SupervisedBoundedSolution {
        stop: ctrl.final_stop(sol.stats.converged),
        solution: BoundedSolution {
            x: sol.x,
            lambda: sol.lambda,
            mu: sol.mu,
            iterations: sol.stats.iterations,
            converged: sol.stats.converged,
            residuals: sol.stats.residuals,
            objective: sol.stats.objective,
            counters: sol.stats.counters,
            elapsed: sol.stats.elapsed,
        },
        kernel_fallbacks: ctrl.fallbacks,
        checkpoint_error: ctrl.take_checkpoint_error(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::StopReason;
    use sea_observe::{Event, NullObserver};

    fn problem() -> BoundedProblem {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let lo = DenseMatrix::filled(2, 2, 0.5).unwrap();
        let hi = DenseMatrix::filled(2, 2, 10.0).unwrap();
        BoundedProblem::new(x0, gamma, lo, hi, vec![4.0, 6.0], vec![5.0, 5.0]).unwrap()
    }

    #[test]
    fn equal_patterns_become_one_shared_pattern() {
        use sea_linalg::CsrMatrix;
        let csr = |v: f64| CsrMatrix::from_parts(2, 2, vec![0, 1, 3], vec![0, 0, 1], vec![v; 3]);
        let p = BoundedProblem::new(
            csr(2.0).unwrap(),
            csr(1.0).unwrap(),
            csr(0.0).unwrap(),
            csr(9.0).unwrap(),
            vec![2.0, 4.0],
            vec![4.0, 2.0],
        )
        .unwrap();
        let x0 = p.x0();
        for (mat, want) in [(p.gamma(), 1.0), (p.lo(), 0.0), (p.hi(), 9.0)] {
            assert!(x0.shares_pattern(mat));
            assert_eq!(mat.vals(), &[want; 3]);
        }
    }

    /// A default-options supervised solve, returning just the solution.
    fn solve_bounded<S: Storage>(
        p: &BoundedProblem<S>,
        epsilon: f64,
        max_iterations: usize,
    ) -> Result<BoundedSolution<S>, SeaError> {
        let opts = SeaOptions {
            max_iterations,
            ..SeaOptions::with_epsilon(epsilon)
        };
        solve_bounded_supervised(p, &opts, &SupervisorOptions::default(), &mut NullObserver)
            .map(|s| s.solution)
    }

    /// Sort-scan options at `epsilon`, optionally warm-started.
    fn sort_scan(epsilon: f64, initial_mu: Option<Vec<f64>>) -> SeaOptions {
        SeaOptions {
            kernel: KernelKind::SortScan,
            initial_mu,
            ..SeaOptions::with_epsilon(epsilon)
        }
    }

    #[test]
    fn default_kernel_is_the_library_default() {
        assert_eq!(BoundedOptions::default().kernel, KernelKind::default());
        assert_eq!(BoundedOptions::default().kernel, KernelKind::Quickselect);
    }

    #[test]
    fn sparse_bounded_matches_dense_bitwise_on_full_pattern() {
        // A full-pattern CSR bounded problem must replay the dense driver
        // exactly: same multipliers, same entries, same bits.
        use sea_linalg::CsrMatrix;
        let p = problem();
        let sp = BoundedProblem::<CsrMatrix>::new(
            CsrMatrix::from_dense_full(
                &DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
            )
            .unwrap(),
            CsrMatrix::from_dense_full(&DenseMatrix::filled(2, 2, 1.0).unwrap()).unwrap(),
            CsrMatrix::from_dense_full(&DenseMatrix::filled(2, 2, 0.5).unwrap()).unwrap(),
            CsrMatrix::from_dense_full(&DenseMatrix::filled(2, 2, 10.0).unwrap()).unwrap(),
            vec![4.0, 6.0],
            vec![5.0, 5.0],
        )
        .unwrap();
        let dense = solve_bounded(&p, 1e-10, 10_000).unwrap();
        let sparse = solve_bounded(&sp, 1e-10, 10_000).unwrap();
        assert!(dense.converged && sparse.converged);
        assert_eq!(dense.x.as_slice(), sparse.x.values());
        assert_eq!(dense.lambda, sparse.lambda);
        assert_eq!(dense.mu, sparse.mu);
        assert_eq!(dense.iterations, sparse.iterations);
    }

    #[test]
    fn sparse_bounded_empty_row_needs_zero_total() {
        // Row 1 of the support is empty: every cell is a structural zero,
        // so a nonzero row total must be rejected at validation with a
        // typed error, and a zero total must solve cleanly.
        use sea_linalg::CsrMatrix;
        let trip = |v: f64| CsrMatrix::from_triplets(2, 2, &[(0, 0, v), (0, 1, v)]).unwrap();
        let x0 = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0)]).unwrap();
        let bad = BoundedProblem::new(
            x0.clone(),
            trip(1.0),
            trip(0.0),
            trip(10.0),
            vec![4.0, 1.0],
            vec![2.5, 2.5],
        );
        assert!(matches!(
            bad,
            Err(SeaError::InfeasibleSubproblem {
                side: "row",
                index: 1
            })
        ));
        let ok = BoundedProblem::new(
            x0,
            trip(1.0),
            trip(0.0),
            trip(10.0),
            vec![4.0, 0.0],
            vec![2.0, 2.0],
        )
        .unwrap();
        let sol = solve_bounded(&ok, 1e-10, 10_000).unwrap();
        assert!(sol.converged);
        assert_eq!(
            sol.x.row_view(1),
            RowView::Indexed {
                idx: &[],
                vals: &[]
            }
        );
        assert!((sol.x.values().iter().sum::<f64>() - 4.0).abs() < 1e-8);
    }

    /// The bound sums a problem keeps are the bits the passes would sum
    /// themselves: `iter().sum()` over each row, and over each row of the
    /// transposed bounds (each column in row order, folded from `-0.0`).
    fn assert_bound_sums_match<S: Storage>(p: &BoundedProblem<S>) {
        let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
            v.iter().map(|(a, b)| (a.to_bits(), b.to_bits())).collect()
        };
        let sums = |lo: &S, hi: &S| -> Vec<(f64, f64)> {
            (0..lo.rows())
                .map(|i| {
                    let l: f64 = lo.values()[lo.row_range(i)].iter().sum();
                    let h: f64 = hi.values()[hi.row_range(i)].iter().sum();
                    (l, h)
                })
                .collect()
        };
        assert_eq!(bits(&p.row_sums), bits(&sums(&p.lo, &p.hi)), "rows");
        let (t, _) = S::transpose_together(&[&p.lo, &p.hi], false).unwrap();
        assert_eq!(bits(&p.col_sums), bits(&sums(&t[0], &t[1])), "columns");
    }

    #[test]
    fn kept_bound_sums_match_the_passes_bit_for_bit() {
        use sea_linalg::CsrMatrix;
        // Entries whose sums round differently in different orders, and
        // an all-zero column: `-0.0` lower bounds, `0.0` upper bounds.
        let (m, n) = (5, 4);
        let base = |i: usize, j: usize| {
            if j == 2 {
                0.0
            } else {
                0.1 * (1 + i * n + j) as f64 + 1e-7 * (i as f64).sqrt()
            }
        };
        let mat = |f: &dyn Fn(usize, usize) -> f64| {
            let v = (0..m).flat_map(|i| (0..n).map(move |j| (i, j)));
            DenseMatrix::from_vec(m, n, v.map(|(i, j)| f(i, j)).collect()).unwrap()
        };
        let lo = mat(&|i, j| if j == 2 { -0.0 } else { 0.5 * base(i, j) });
        let hi = mat(&|i, j| 1.5 * base(i, j));
        let x0 = mat(&base);
        let s0 = x0.row_sums();
        let d0 = x0.col_sums();
        let gamma = DenseMatrix::filled(m, n, 1.0).unwrap();
        let dense = BoundedProblem::new(x0.clone(), gamma, lo, hi, s0.clone(), d0.clone()).unwrap();
        assert_eq!(dense.col_sums[2].0.to_bits(), (-0.0f64).to_bits());
        assert_bound_sums_match(&dense);

        // The CSR image without column 2: a column with no stored entry.
        let pruned = |a: &DenseMatrix| {
            let cells: Vec<(usize, usize, f64)> = (0..m)
                .flat_map(|i| (0..n).filter(|&j| j != 2).map(move |j| (i, j)))
                .map(|(i, j)| (i, j, a.get(i, j)))
                .collect();
            CsrMatrix::from_triplets(m, n, &cells).unwrap()
        };
        let sparse = BoundedProblem::new(
            pruned(&x0),
            pruned(&DenseMatrix::filled(m, n, 1.0).unwrap()),
            pruned(dense.lo()),
            pruned(dense.hi()),
            s0,
            d0,
        )
        .unwrap();
        assert_eq!(sparse.col_sums[2].1.to_bits(), (-0.0f64).to_bits());
        assert_bound_sums_match(&sparse);
    }

    #[test]
    fn mismatched_sparse_patterns_are_rejected() {
        use sea_linalg::CsrMatrix;
        let x0 = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
        let gamma = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let b = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
        let r = BoundedProblem::new(x0, gamma, b.clone(), b, vec![1.0, 2.0], vec![1.0, 2.0]);
        assert!(matches!(r, Err(SeaError::PatternMismatch { .. })));
    }

    #[test]
    fn bounded_solve_is_feasible_and_within_bounds() {
        let p = problem();
        let sol = solve_bounded(&p, 1e-10, 10_000).unwrap();
        assert!(sol.converged);
        assert!(sol.residuals.row_inf < 1e-8);
        assert!(sol.residuals.col_inf < 1e-9);
        for &v in sol.x.as_slice() {
            assert!((0.5..=10.0).contains(&v));
        }
    }

    #[test]
    fn loose_bounds_match_unbounded_sea() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let lo = DenseMatrix::filled(2, 2, 0.0).unwrap();
        let hi = DenseMatrix::filled(2, 2, 1e9).unwrap();
        let p = BoundedProblem::new(
            x0.clone(),
            gamma.clone(),
            lo,
            hi,
            vec![4.0, 6.0],
            vec![5.0, 5.0],
        )
        .unwrap();
        let bounded = solve_bounded(&p, 1e-12, 10_000).unwrap();
        let dp = crate::problem::DiagonalProblem::new(
            x0,
            gamma,
            crate::problem::TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let sup = SupervisorOptions::default();
        let free = crate::solver::solve_diagonal_supervised(
            &dp,
            &crate::solver::SeaOptions::with_epsilon(1e-12),
            &sup,
            &mut NullObserver,
        )
        .unwrap()
        .solution;
        assert!(bounded.x.max_abs_diff(&free.x) < 1e-6);
    }

    #[test]
    fn tight_bounds_pin_entries() {
        // Pin entry (0,0) to exactly 2.0 via lo = hi.
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let mut lo = DenseMatrix::filled(2, 2, 0.0).unwrap();
        let mut hi = DenseMatrix::filled(2, 2, 100.0).unwrap();
        lo.set(0, 0, 2.0);
        hi.set(0, 0, 2.0);
        let p = BoundedProblem::new(x0, gamma, lo, hi, vec![4.0, 6.0], vec![5.0, 5.0]).unwrap();
        let sol = solve_bounded(&p, 1e-10, 10_000).unwrap();
        assert!(sol.converged);
        assert!((sol.x.get(0, 0) - 2.0).abs() < 1e-9);
        assert!(sol.residuals.row_inf < 1e-7);
    }

    #[test]
    fn bounded_observer_reports_clamps() {
        let p = problem();
        let mut obs = sea_observe::VecObserver::new();
        let sup = SupervisorOptions::default();
        let sol = solve_bounded_supervised(&p, &sort_scan(1e-10, None), &sup, &mut obs)
            .unwrap()
            .solution;
        assert!(sol.converged);
        assert!(matches!(
            obs.events.first(),
            Some(Event::SolveStart {
                solver: "bounded",
                ..
            })
        ));
        let checks = obs
            .events
            .iter()
            .filter(|e| matches!(e, Event::ConvergenceCheck { .. }))
            .count();
        assert_eq!(checks, sol.iterations);
        let counters = obs
            .events
            .iter()
            .find_map(|e| match e {
                Event::KernelCounters { counters } => Some(*counters),
                _ => None,
            })
            .expect("kernel counters event missing");
        assert_eq!(counters.subproblems, (4 * sol.iterations) as u64);
        // ζ describes the unbounded problem, so a bounded solve reports none.
        assert!(obs.events.iter().all(|e| !matches!(
            e,
            Event::ConvergenceCheck {
                dual_value: Some(_),
                ..
            } | Event::SolveEnd {
                dual_value: Some(_),
                ..
            }
        )));
    }

    #[test]
    fn warm_start_reproduces_same_solution_and_validates_length() {
        let p = problem();
        let sup = SupervisorOptions::default();
        let cold =
            solve_bounded_supervised(&p, &sort_scan(1e-10, None), &sup, &mut NullObserver).unwrap();
        assert_eq!(cold.stop, StopReason::Converged);
        let warm_opts = sort_scan(1e-10, Some(cold.solution.mu.clone()));
        let warm = solve_bounded_supervised(&p, &warm_opts, &sup, &mut NullObserver).unwrap();
        assert_eq!(warm.stop, StopReason::Converged);
        assert!(warm.solution.iterations <= cold.solution.iterations);
        assert!(warm.solution.x.max_abs_diff(&cold.solution.x) < 1e-8);

        let err = solve_bounded_supervised(
            &p,
            &sort_scan(1e-10, Some(vec![0.0; 5])),
            &sup,
            &mut NullObserver,
        );
        assert!(matches!(
            err,
            Err(SeaError::Shape {
                context: "initial_mu",
                ..
            })
        ));
    }

    #[test]
    fn validation_rejects_infeasible_margins() {
        let x0 = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let lo = DenseMatrix::filled(2, 2, 0.0).unwrap();
        let hi = DenseMatrix::filled(2, 2, 1.0).unwrap();
        // Row 0 total 3.0 exceeds Σ hi = 2.
        assert!(matches!(
            BoundedProblem::new(x0, gamma, lo, hi, vec![3.0, 1.0], vec![2.0, 2.0]),
            Err(SeaError::InfeasibleSubproblem {
                side: "row",
                index: 0
            })
        ));
    }

    #[test]
    fn validation_rejects_crossed_bounds() {
        let x0 = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let lo = DenseMatrix::filled(2, 2, 2.0).unwrap();
        let hi = DenseMatrix::filled(2, 2, 1.0).unwrap();
        assert!(matches!(
            BoundedProblem::new(x0, gamma, lo, hi, vec![4.0, 4.0], vec![4.0, 4.0]),
            Err(SeaError::InconsistentBounds {
                index: 0,
                lower,
                upper,
            }) if lower == 2.0 && upper == 1.0
        ));
    }

    /// Build the 2×2 test problem after `edit` poisons one input.
    fn poisoned(
        edit: impl FnOnce(&mut [DenseMatrix; 3], &mut [Vec<f64>; 2]),
    ) -> Result<BoundedProblem, SeaError> {
        let mut mats = [
            DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
            DenseMatrix::filled(2, 2, 0.5).unwrap(),
            DenseMatrix::filled(2, 2, 10.0).unwrap(),
        ];
        let mut totals = [vec![4.0, 6.0], vec![5.0, 5.0]];
        edit(&mut mats, &mut totals);
        let [x0, lo, hi] = mats;
        let [s0, d0] = totals;
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        BoundedProblem::new(x0, gamma, lo, hi, s0, d0)
    }

    fn assert_non_finite(r: Result<BoundedProblem, SeaError>, expected: &str) {
        match r {
            Err(SeaError::NonFinite { context }) => assert_eq!(context, expected),
            other => panic!("expected NonFinite({expected}), got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_non_finite_prior() {
        assert_non_finite(
            poisoned(|m, _| m[0].set(1, 0, f64::NAN)),
            "bounded prior X0",
        );
    }

    #[test]
    fn validation_rejects_nan_lower_bound() {
        assert_non_finite(poisoned(|m, _| m[1].set(0, 1, f64::NAN)), "bounded lo");
    }

    #[test]
    fn validation_rejects_infinite_upper_bound() {
        assert_non_finite(poisoned(|m, _| m[2].set(1, 1, f64::INFINITY)), "bounded hi");
    }

    #[test]
    fn validation_rejects_nan_row_total() {
        assert_non_finite(poisoned(|_, t| t[0][1] = f64::NAN), "bounded row totals s0");
    }

    #[test]
    fn validation_rejects_infinite_column_total() {
        assert_non_finite(
            poisoned(|_, t| t[1][0] = f64::INFINITY),
            "bounded column totals d0",
        );
    }
}
