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
use crate::storage::{Storage, Vars};
use crate::tiles::{pattern_cols, ColumnBlock, Scaled, TILE};
use rayon::prelude::*;
use sea_linalg::dense::PARALLEL_MIN_ENTRIES;

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
    /// Smallest variable entry (must be ≥ 0). Structural zeros are not
    /// variables, so the value does not depend on the problem's storage.
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
/// This is the serial oracle: it walks `p`'s own layout one row at a
/// time, in loops of its own, and shares only the per-entry arithmetic
/// and the final assembly with a solve's finishing sweep. Sums associate
/// as the sweep's do (each column's terms in row order, the column sums
/// in column order), so a supervised solve's certificate equals this
/// report exactly.
///
/// ```
/// use sea_core::{
///     solve_diagonal_supervised, verify_solution, DiagonalProblem, NullObserver, SeaOptions,
///     SupervisorOptions, TotalSpec,
/// };
/// use sea_linalg::DenseMatrix;
///
/// let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
/// let p = DiagonalProblem::new(
///     x0,
///     gamma,
///     TotalSpec::Fixed { s0: vec![4.0, 6.0], d0: vec![5.0, 5.0] },
/// ).unwrap();
/// let opts = SeaOptions::with_epsilon(1e-12);
/// let out = solve_diagonal_supervised(&p, &opts, &SupervisorOptions::default(), &mut NullObserver)
///     .unwrap();
/// let report = verify_solution(&p, &out.solution);
/// assert!(report.is_optimal(1e-6));
/// ```
pub fn verify_solution<S: Storage>(p: &DiagonalProblem<S>, sol: &Solution<S>) -> KktReport {
    let residuals = p.residuals(&sol.x, &sol.s, &sol.d);
    let objective = p.objective(&sol.x, &sol.s, &sol.d);
    let zeta = dual::dual_value(p, &sol.lambda, &sol.mu);
    let (x0, gamma) = (p.x0(), p.gamma());
    let tau = 1e-10 * entry_scale(x0.values());
    let mut ext = Extremes::EMPTY;
    for i in 0..p.m() {
        let li = sol.lambda[i];
        let range = x0.row_range(i);
        let (x0r, gr) = (&x0.values()[range.clone()], &gamma.values()[range.clone()]);
        let xr = &sol.x.values()[range];
        // Only variables carry a KKT condition; structural zeros do not.
        p.vars(i).for_each(|j, k| {
            ext.min_entry = lower(ext.min_entry, xr[k]);
            ext.note(xr[k], 2.0 * gr[k] * (xr[k] - x0r[k]) - li - sol.mu[j], tau);
        });
    }
    let (lambda, mu) = (&sol.lambda[..], &sol.mu[..]);
    report(
        p, lambda, mu, &sol.s, &sol.d, ext, residuals, objective, zeta,
    )
}

/// `max(10⁻¹², maxₖ |vₖ|)` over finite `values`: the prior's entry scale,
/// to which a certificate's threshold between positive and zero entries
/// is relative. Finite magnitudes order like their bit patterns with the
/// sign cleared, so one integer max finds it.
fn entry_scale(values: &[f64]) -> f64 {
    let magnitude = |v: f64| v.to_bits() & !(1 << 63);
    f64::from_bits(
        values
            .iter()
            .fold(magnitude(1e-12), |m, &v| m.max(magnitude(v))),
    )
}

/// The larger of `acc` and `v`. A NaN `v` is ignored and a zero never
/// replaces a zero, so a fold's bits do not depend on the order it sees
/// its values in.
#[inline]
fn raise(acc: f64, v: f64) -> f64 {
    if v > acc {
        v
    } else {
        acc
    }
}

/// The smaller of `acc` and `v`, ignoring a NaN `v` and preferring `-0.0`
/// to `0.0`, so a fold's bits do not depend on the order either.
#[inline]
fn lower(acc: f64, v: f64) -> f64 {
    if v < acc || (v == acc && v.is_sign_negative()) {
        v
    } else {
        acc
    }
}

/// Largest stationarity and sign violations (unscaled) and smallest entry
/// over a set of entries.
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

    /// Note an entry's KKT condition: an entry above `tau` is positive and
    /// must be stationary; one at zero may only want to shrink.
    #[inline]
    fn note(&mut self, x: f64, grad: f64, tau: f64) {
        if x > tau {
            self.stationarity = raise(self.stationarity, grad.abs());
        } else {
            self.sign = raise(self.sign, -grad);
        }
    }

    fn merge(self, o: Extremes) -> Extremes {
        Extremes {
            stationarity: raise(self.stationarity, o.stationarity),
            sign: raise(self.sign, o.sign),
            min_entry: lower(self.min_entry, o.min_entry),
        }
    }
}

/// The report of a point `(x, s, d)` with multipliers `(λ, μ)`, from its
/// KKT extremes, residuals, objective and ζ.
#[allow(clippy::too_many_arguments)]
fn report<S: Storage>(
    p: &DiagonalProblem<S>,
    lambda: &[f64],
    mu: &[f64],
    s: &[f64],
    d: &[f64],
    ext: Extremes,
    residuals: Residuals,
    objective: f64,
    zeta: f64,
) -> KktReport {
    // Gradient scale for relative stationarity. Dividing the extremes
    // once is exact: rounding is monotone, so the largest quotient is
    // the quotient of the largest violation.
    let grad_scale = lambda
        .iter()
        .chain(mu)
        .fold(1.0, |acc, v| raise(acc, v.abs()));
    let mut max_total_stationarity: f64 = 0.0;
    match p.totals() {
        TotalSpec::Fixed { .. } => {}
        TotalSpec::Elastic {
            alpha,
            s0,
            beta,
            d0,
        } => {
            for i in 0..lambda.len() {
                let expect = 2.0 * alpha[i] * (s0[i] - s[i]);
                max_total_stationarity =
                    max_total_stationarity.max((lambda[i] - expect).abs() / grad_scale);
            }
            for j in 0..mu.len() {
                let expect = 2.0 * beta[j] * (d0[j] - d[j]);
                max_total_stationarity =
                    max_total_stationarity.max((mu[j] - expect).abs() / grad_scale);
            }
        }
        TotalSpec::Balanced { alpha, s0 } => {
            for i in 0..mu.len() {
                let expect = 2.0 * alpha[i] * (s0[i] - s[i]);
                max_total_stationarity =
                    max_total_stationarity.max((lambda[i] + mu[i] - expect).abs() / grad_scale);
            }
        }
    }

    KktReport {
        max_stationarity: ext.stationarity / grad_scale,
        max_sign_violation: ext.sign / grad_scale,
        max_total_stationarity,
        residuals,
        duality_gap: objective - zeta,
        objective,
        min_entry: ext.min_entry,
    }
}

/// How much a solve's finishing sweep reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Finishing {
    /// Residuals and the objective (a box-bounded solve, whose problem ζ
    /// does not bound).
    Primal,
    /// Also the dual value ζ and the KKT certificate.
    Certified,
}

/// A finished solve's residuals, objective, dual value and certificate.
pub(crate) struct Finished {
    pub(crate) residuals: Residuals,
    pub(crate) objective: f64,
    pub(crate) dual_value: Option<f64>,
    pub(crate) certificate: Option<KktReport>,
}

/// One subproblem's sums in a finishing sweep.
#[derive(Debug, Clone, Copy, Default)]
struct Part {
    /// `Σ x`: the column sum of the iterate.
    sum: f64,
    /// `Σ γ(x − x⁰)²`.
    objective: f64,
    /// The sum of ζ's entry terms.
    zeta: f64,
}

/// A solve's iterate and data in its column pass's layout.
pub(crate) enum Columns<'a, S: Storage> {
    /// A sparse solve's transposed copies: row `j` of each matrix is
    /// column `j` of the problem.
    Transposed {
        x_t: &'a S,
        x0_t: &'a S,
        gamma_t: &'a S,
    },
    /// A dense solve's row-major iterate, whose deferred rounding scales
    /// the sweep applies, writing the returned `x`; it reads the problem's
    /// own `x⁰` and `γ`.
    Tiled(&'a mut Scaled<S>),
}

/// The data a solve finishes from, in its column-pass layout, with the
/// solve's multipliers, totals and the row sums of its iterate.
pub(crate) struct Finish<'a, S: Storage> {
    pub(crate) columns: Columns<'a, S>,
    pub(crate) lambda: &'a [f64],
    pub(crate) mu: &'a [f64],
    pub(crate) s: &'a [f64],
    pub(crate) d: &'a [f64],
    pub(crate) row_sums: &'a [f64],
}

impl<S: Storage> Finish<'_, S> {
    /// One sweep over the subproblems, on the current pool when `par` is
    /// parallel and the iterate is large enough to be worth a fan-out.
    /// Per-subproblem sums are combined in subproblem order and extremes
    /// are exact, so the bits do not depend on the pool's width, and they
    /// equal [`verify_solution`]'s.
    pub(crate) fn run(
        self,
        p: &DiagonalProblem<S>,
        level: Finishing,
        par: Parallelism,
    ) -> Finished {
        let fan_out = par.is_parallel() && p.x0().stored() >= PARALLEL_MIN_ENTRIES;
        let certified = level == Finishing::Certified;
        // A certificate's threshold between positive and zero entries.
        let tau = if certified {
            let x0v = p.x0().values();
            1e-10 * chunked(x0v.len(), fan_out, 0.0, |r| entry_scale(&x0v[r]), raise)
        } else {
            0.0
        };
        let Finish {
            columns,
            lambda,
            mu,
            s,
            d,
            row_sums,
        } = self;
        let sweep = Sweep { lambda, mu };
        let mut parts = vec![Part::default(); p.n()];
        let ext = match columns {
            Columns::Transposed { x_t, x0_t, gamma_t } => {
                let t = Transposed { x_t, x0_t, gamma_t };
                split_parts(&mut parts, fan_out, |first, chunk| match level {
                    // One loop per level, so no entry tests what it computes.
                    Finishing::Primal => sweep.transposed::<false, S>(&t, first, chunk, tau),
                    Finishing::Certified => sweep.transposed::<true, S>(&t, first, chunk, tau),
                })
            }
            Columns::Tiled(x) => sweep.tiled(p, x, &mut parts, fan_out, level, tau),
        };

        let residuals = p.residuals_of_sums(row_sums, parts.iter().map(|c| c.sum), s, d);
        let objective = p.objective_of_columns(parts.iter().map(|c| c.objective), s, d);
        let dual_value = certified
            .then(|| dual::dual_of_columns(p.totals(), parts.iter().map(|c| c.zeta), lambda, mu));
        let certificate =
            dual_value.map(|zeta| report(p, lambda, mu, s, d, ext, residuals, objective, zeta));
        Finished {
            residuals,
            objective,
            dual_value,
            certificate,
        }
    }
}

/// The multipliers a finishing sweep reads.
#[derive(Clone, Copy)]
struct Sweep<'a> {
    lambda: &'a [f64],
    mu: &'a [f64],
}

impl Sweep<'_> {
    /// Sweep the transposed subproblems `first..first + parts.len()` into
    /// `parts`: their sums, then, when certifying, ζ's terms and the KKT
    /// extremes with positive-entry threshold `tau`, over the stored
    /// variables of each subproblem.
    fn transposed<const CERTIFIED: bool, S: Storage>(
        &self,
        t: &Transposed<'_, S>,
        first: usize,
        parts: &mut [Part],
        tau: f64,
    ) -> Extremes {
        let mut ext = Extremes::EMPTY;
        for (j, part) in (first..).zip(parts) {
            let range = t.x_t.row_range(j);
            let x = &t.x_t.values()[range.clone()];
            let x0 = &t.x0_t.values()[range.clone()];
            let gamma = &t.gamma_t.values()[range];
            let mu = self.mu[j];
            let mut c = Part::default();
            // Variable `k` of subproblem `j` is row `i` of the problem.
            Vars::of(t.x0_t, None, j).for_each(|i, k| {
                self.note::<CERTIFIED>(&mut c, &mut ext, x[k], x0[k], gamma[k], i, mu, tau);
            });
            *part = c;
        }
        ext
    }

    /// Add variable `(i, j)` with entry `x`, prior `x0` and weight `gamma`
    /// to column `j`'s sums `c` (with `mu = μⱼ`), and, when certifying, to
    /// ζ's terms and the KKT extremes.
    #[allow(clippy::too_many_arguments)] // one entry's data
    #[inline(always)]
    fn note<const CERTIFIED: bool>(
        &self,
        c: &mut Part,
        ext: &mut Extremes,
        x: f64,
        x0: f64,
        gamma: f64,
        i: usize,
        mu: f64,
        tau: f64,
    ) {
        let dev = x - x0;
        c.sum += x;
        c.objective += gamma * dev * dev;
        if CERTIFIED {
            let li = self.lambda[i];
            c.zeta += dual::entry_term(gamma, x0, li + mu);
            ext.min_entry = lower(ext.min_entry, x);
            ext.note(x, 2.0 * gamma * dev - li - mu, tau);
        }
    }

    /// The dense sweep: each column's sums in row order, walking the
    /// row-major matrices in column tiles, one contiguous run of columns
    /// per worker when `fan_out`; it applies the iterate's scales and
    /// writes the returned entries back.
    fn tiled<S: Storage>(
        &self,
        p: &DiagonalProblem<S>,
        x: &mut Scaled<S>,
        parts: &mut [Part],
        fan_out: bool,
        level: Finishing,
        tau: f64,
    ) -> Extremes {
        let (m, n) = (p.m(), p.n());
        let Scaled { x, scale } = x;
        let mut whole = ColumnBlock::whole(x.values_mut(), m, n);
        let chunks = chunk_count(n, fan_out);
        let mut work = Vec::with_capacity(chunks);
        let mut rest = parts;
        for c in 0..chunks {
            let first = c * n / chunks;
            let len = (c + 1) * n / chunks - first;
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(len);
            work.push((first, chunk, whole.split_front(len), Extremes::EMPTY));
            rest = tail;
        }
        let scale: &[f64] = scale;
        let body =
            |(first, chunk, block, ext): &mut (usize, &mut [Part], ColumnBlock<'_>, Extremes)| {
                *ext = match level {
                    Finishing::Primal => {
                        self.tiles::<false, S>(p, block, scale, *first, chunk, tau)
                    }
                    Finishing::Certified => {
                        self.tiles::<true, S>(p, block, scale, *first, chunk, tau)
                    }
                }
            };
        if chunks == 1 {
            work.iter_mut().for_each(body);
        } else {
            work.par_iter_mut().for_each(body);
        }
        work.into_iter()
            .fold(Extremes::EMPTY, |acc, (_, _, _, ext)| acc.merge(ext))
    }

    /// [`Sweep::tiled`]'s columns `first..first + parts.len()`.
    fn tiles<const CERTIFIED: bool, S: Storage>(
        &self,
        p: &DiagonalProblem<S>,
        x: &mut ColumnBlock<'_>,
        scale: &[f64],
        first: usize,
        parts: &mut [Part],
        tau: f64,
    ) -> Extremes {
        let (m, n) = (p.m(), p.n());
        let (x0, gamma) = (p.x0().values(), p.gamma().values());
        let support = p.support().map(|s| &s.rows);
        let mut ext = Extremes::EMPTY;
        for t0 in (0..parts.len()).step_by(TILE) {
            let w = TILE.min(parts.len() - t0);
            let j0 = first + t0;
            let cols = j0..j0 + w;
            let parts = &mut parts[t0..t0 + w];
            let (mu, scale) = (&self.mu[cols.clone()], &scale[cols.clone()]);
            for i in 0..m {
                let r = i * n + j0..i * n + j0 + w;
                let (x0, gamma) = (&x0[r.clone()], &gamma[r]);
                let xr = x.row(i, cols.clone());
                let mut entry = |c: usize| {
                    let v = xr[c] * scale[c];
                    xr[c] = v;
                    self.note::<CERTIFIED>(
                        &mut parts[c],
                        &mut ext,
                        v,
                        x0[c],
                        gamma[c],
                        i,
                        mu[c],
                        tau,
                    );
                };
                match support {
                    None => (0..w).for_each(&mut entry),
                    Some(pattern) => pattern_cols(pattern, i, cols.clone())
                        .iter()
                        .for_each(|&j| entry(j as usize - j0)),
                }
            }
        }
        ext
    }
}

/// A sparse solve's transposed iterate and data.
struct Transposed<'a, S> {
    x_t: &'a S,
    x0_t: &'a S,
    gamma_t: &'a S,
}

/// One chunk per worker of the current pool when `fan_out`, one
/// otherwise, and never more chunks than items.
fn chunk_count(len: usize, fan_out: bool) -> usize {
    if fan_out {
        rayon::current_num_threads().clamp(1, len.max(1))
    } else {
        1
    }
}

/// Fold `body` over `0..len` in one contiguous chunk per worker of the
/// current pool when `fan_out` (a single chunk otherwise) and merge the
/// chunks with `merge`. Only exact max/min reductions go through here, so
/// the result does not depend on the split.
fn chunked<T: Copy + Send>(
    len: usize,
    fan_out: bool,
    empty: T,
    body: impl Fn(std::ops::Range<usize>) -> T + Sync,
    merge: impl Fn(T, T) -> T,
) -> T {
    let chunks = chunk_count(len, fan_out);
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

/// Run `body` over `parts` in one contiguous chunk per worker of the
/// current pool when `fan_out` (a single chunk otherwise), handing it each
/// chunk's first index, and merge the chunks' extremes.
fn split_parts(
    parts: &mut [Part],
    fan_out: bool,
    body: impl Fn(usize, &mut [Part]) -> Extremes + Sync,
) -> Extremes {
    let len = parts.len();
    let chunks = chunk_count(len, fan_out);
    if chunks == 1 {
        return body(0, parts);
    }
    let mut work = Vec::with_capacity(chunks);
    let mut rest = parts;
    for c in 0..chunks {
        let first = c * len / chunks;
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut((c + 1) * len / chunks - first);
        work.push((first, chunk, Extremes::EMPTY));
        rest = tail;
    }
    work.par_iter_mut()
        .for_each(|(first, chunk, ext)| *ext = body(*first, chunk));
    work.into_iter()
        .fold(Extremes::EMPTY, |acc, (_, _, ext)| acc.merge(ext))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ZeroPolicy;
    use crate::solver::{solve_diagonal_supervised, SeaOptions};
    use crate::supervisor::SupervisorOptions;
    use sea_linalg::DenseMatrix;
    use sea_observe::NullObserver;

    fn solve(p: &DiagonalProblem) -> Solution {
        let opts = SeaOptions::with_epsilon(1e-12);
        solve_diagonal_supervised(p, &opts, &SupervisorOptions::default(), &mut NullObserver)
            .unwrap()
            .solution
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
        let sol = solve(&p);
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
