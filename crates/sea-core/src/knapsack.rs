//! Exact equilibration: the closed-form single-constraint quadratic solver.
//!
//! Every row and column subproblem that SEA (and RC) produces has the form
//!
//! ```text
//!   min  Σⱼ γⱼ (xⱼ − qⱼ)²  −  Σⱼ shiftⱼ·xⱼ   [+ total term]
//!   s.t. Σⱼ xⱼ = S,   xⱼ ≥ 0
//! ```
//!
//! where `shiftⱼ` carries the opposite side's Lagrange multipliers (μⱼ′ in a
//! row pass, λᵢ in a column pass). The KKT conditions (paper eq. 20–23) give
//!
//! ```text
//!   xⱼ(λ) = ( qⱼ + (shiftⱼ + λ) / (2γⱼ) )₊
//! ```
//!
//! with `λ` the multiplier of the total constraint, so the subproblem
//! reduces to the one-dimensional piecewise-linear equation `Σⱼ xⱼ(λ) = S(λ)`
//! solved exactly by sorting the *breakpoints* `bⱼ = −2γⱼqⱼ − shiftⱼ` and
//! scanning — the *exact equilibration* of Eydeland–Nagurney (1989), with
//! the paper's `7n + n·ln n + 2n` operation profile.
//!
//! The total specification `S(λ)` comes in three flavours ([`TotalMode`]):
//!
//! * **Fixed** — `S = s⁰` (eq. 45–48; the classical transportation case).
//! * **Elastic** — `S = s` is itself a variable with objective term
//!   `α(s − s⁰)²`; KKT gives `s(λ) = s⁰ − (λ + cross)/(2α)` (eq. 23b/40b),
//!   where `cross` is 0 for the unknown-totals problem and the transpose
//!   multiplier for the SAM problem.
//!
//! The same kernel solves the box-bounded subproblem `loⱼ ≤ xⱼ ≤ hiⱼ` of the
//! Ohuchi–Kaji (1984) bounded model and Harrigan–Buchanan (1984) interval
//! constraints: [`exact_equilibration`] takes the bounds as an argument.
//! Inside the crate the kernel is generic over the box (`Bounds`), and each
//! routine is compiled once for `Unbounded` (`x ≥ 0`: one breakpoint per
//! entry) and once for `Interval` (a breakpoint at each bound). An upper
//! bound of `+∞` has no breakpoint the search can cross.
//!
//! Passes call the crate-internal entry `exact_equilibration_hinted`. It
//! reads the shift in place or through a sparse row's column index
//! (`Shift`), and starts the quickselect kernel from the subproblem's
//! previous multiplier. The warm test (`warm_segment`) computes each
//! entry's breakpoints in registers in one pass over the row; only on a
//! miss does the kernel fill its event array and select. A pass that keeps
//! no iterate passes no output row, and the unbounded kernel then returns λ
//! and the total without materializing the entries.

use crate::error::SeaError;
use sea_linalg::sort;
use sea_observe::KernelCounters;

/// How the subproblem's total is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TotalMode {
    /// The total is known and fixed: `Σⱼ xⱼ = total`.
    Fixed {
        /// The fixed (nonnegative) total `s⁰ᵢ` or `d⁰ⱼ′`.
        total: f64,
    },
    /// The total is elastic with quadratic penalty `alpha·(s − prior)²`; the
    /// optimal total is `s(λ) = prior − (λ + cross)/(2·alpha)`.
    Elastic {
        /// Strictly positive penalty weight (`αᵢ` or `βⱼ′`).
        alpha: f64,
        /// Prior total (`s⁰ᵢ` or `d⁰ⱼ′`).
        prior: f64,
        /// Extra multiplier folded into the total's stationarity condition:
        /// 0 for the unknown-totals problem, the transpose multiplier for
        /// the SAM balanced problem (eq. 40b).
        cross: f64,
    },
}

/// Which algorithm solves the piecewise-linear equation `Σⱼ xⱼ(λ) = S(λ)`.
///
/// Both kernels produce the same solution (differentially tested to 1e-10);
/// they differ only in how they locate the linear segment containing the
/// root.
///
/// `KernelKind::default()` is the one place the default kernel is chosen:
/// every options struct and front end takes its default from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// Argsort the breakpoints, then scan segments in order — `O(n log n)`,
    /// the paper's `7n + n·ln n + 2n` profile. The reference oracle, run
    /// on request and as the supervisor's per-subproblem fallback.
    SortScan,
    /// Expected-`O(n)` selection: deterministic median-of-3 quickselect over
    /// the breakpoints, folding discarded segments into running linear
    /// coefficients instead of ever sorting (Kiwiel-style breakpoint
    /// search). The default.
    #[default]
    Quickselect,
}

impl KernelKind {
    /// Stable lowercase name, for CLI flags and report tables.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::SortScan => "sortscan",
            KernelKind::Quickselect => "quickselect",
        }
    }

    /// Parse a CLI spelling. Accepts `sortscan`/`sort-scan`/`sort` and
    /// `quickselect`/`select`/`qs`.
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.to_ascii_lowercase().as_str() {
            "sortscan" | "sort-scan" | "sort" => Some(KernelKind::SortScan),
            "quickselect" | "select" | "qs" => Some(KernelKind::Quickselect),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of one exact equilibration solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquilibrationResult {
    /// Lagrange multiplier of the total constraint.
    pub lambda: f64,
    /// The realized total `S` (equals the fixed total, or the optimal
    /// elastic total).
    pub total: f64,
    /// Number of strictly positive entries in the solution.
    pub active: usize,
}

/// One breakpoint event for the selection kernel: crossing `v` changes the
/// active-set linear form `f(λ) = A + B·λ` by `(da, db)`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SelectEvent {
    v: f64,
    da: f64,
    db: f64,
}

/// The box every entry of a subproblem lives in. The kernel is generic over
/// it and compiled once per implementation, so each keeps its own exact
/// operations: [`Unbounded`] is the paper's `x ≥ 0`, [`Interval`] the box
/// `lo ≤ x ≤ hi`.
pub(crate) trait Bounds: Copy {
    /// Whether entries have upper bounds, and so a second event each.
    const UPPER: bool;

    /// Check that the bounds cover the subproblem's `n` entries.
    fn check_len(self, n: usize) -> Result<(), SeaError>;

    /// The bounds of the first `n` entries, so that loops over `0..n` read
    /// them without bounds checks.
    fn prefix(self, n: usize) -> Self;

    /// Whether no point of the box sums to the fixed `total` (`n` entries).
    fn out_of_reach(self, n: usize, total: f64) -> bool;

    /// `Σ loⱼ`: the entries' sum left of every breakpoint.
    fn base(self) -> f64;

    /// Entry `k`'s lower bound and its breakpoint, the λ at which the entry
    /// leaves that bound.
    fn lower(self, k: usize, qj: f64, gj: f64, sj: f64) -> (f64, f64);

    /// Entry `k`'s upper bound, `+∞` when it has none.
    fn upper(self, k: usize) -> f64;

    /// Fixed mode on a flat segment (zero slope, every entry at a bound):
    /// whether the entries' sum `a` already meets `total`.
    fn flat_solves(a: f64, total: f64) -> bool;

    /// Sort-scan's multiplier for the root `c` it accepted on the segment
    /// that starts at `seg_lo`.
    fn settle(c: f64, seg_lo: f64) -> f64;

    /// The search's λ, or what a non-finite one means for these bounds.
    fn finite_lambda(self, lambda: f64, mode: TotalMode) -> Result<f64, SeaError>;

    /// Entry `k`'s response `raw = qⱼ + (shiftⱼ + λ)/(2γⱼ)` clamped into
    /// its box.
    fn clamp(self, k: usize, raw: f64) -> f64;

    /// Whether entry `k`'s value `v` lies strictly inside its box.
    fn inside(self, k: usize, v: f64) -> bool;

    /// Write the entries `xⱼ(λ)` to `x_out` and return how many lie strictly
    /// inside their box. `total` is the realized total.
    #[allow(clippy::too_many_arguments)] // kernel inputs + λ + total + output + counters
    fn materialize(
        self,
        q: &[f64],
        gamma: &[f64],
        shift: impl Shift,
        lambda: f64,
        total: f64,
        x_out: Option<&mut [f64]>,
        stats: &mut KernelCounters,
    ) -> usize;
}

/// `xⱼ ≥ 0`: one breakpoint `−2γⱼqⱼ − shiftⱼ` per entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unbounded;

impl Bounds for Unbounded {
    const UPPER: bool = false;

    fn check_len(self, _: usize) -> Result<(), SeaError> {
        Ok(())
    }

    #[inline(always)]
    fn prefix(self, _: usize) -> Self {
        self
    }

    fn out_of_reach(self, n: usize, total: f64) -> bool {
        n == 0 && total > 0.0
    }

    fn base(self) -> f64 {
        0.0
    }

    #[inline(always)]
    fn lower(self, _: usize, qj: f64, gj: f64, sj: f64) -> (f64, f64) {
        // Not `2γ(0 − q) − s`, which can differ in the sign of a zero.
        (0.0, -2.0 * gj * qj - sj)
    }

    #[inline(always)]
    fn upper(self, _: usize) -> f64 {
        f64::INFINITY
    }

    /// The slope is zero only left of every breakpoint, where every entry
    /// is zero: a solution iff `total ≤ 0`.
    fn flat_solves(_: f64, total: f64) -> bool {
        total <= 0.0
    }

    /// Crossing a breakpoint only adds slope, so the root stays put.
    fn settle(c: f64, _: f64) -> f64 {
        c
    }

    /// A fixed positive total with every segment exhausted; only `n == 0`
    /// can do that, and it is answered before the search — defensive.
    fn finite_lambda(self, lambda: f64, _: TotalMode) -> Result<f64, SeaError> {
        if lambda.is_finite() {
            Ok(lambda)
        } else {
            Err(SeaError::NumericalBreakdown { iteration: 0 })
        }
    }

    #[inline(always)]
    fn clamp(self, _: usize, raw: f64) -> f64 {
        if raw > 0.0 {
            raw
        } else {
            0.0
        }
    }

    #[inline(always)]
    fn inside(self, _: usize, v: f64) -> bool {
        v > 0.0
    }

    /// Without an output row only λ and the total are wanted: nothing is
    /// computed and `active` is 0.
    fn materialize(
        self,
        q: &[f64],
        gamma: &[f64],
        shift: impl Shift,
        lambda: f64,
        total: f64,
        x_out: Option<&mut [f64]>,
        _: &mut KernelCounters,
    ) -> usize {
        let Some(x_out) = x_out else {
            return 0;
        };
        let mut sum = 0.0;
        let mut active = 0usize;
        for j in 0..q.len() {
            let v = self.clamp(j, q[j] + (shift.at(j) + lambda) / (2.0 * gamma[j]));
            if self.inside(j, v) {
                active += 1;
            }
            x_out[j] = v;
            sum += v;
        }

        if let Some(scale) = rounding_scale(total, sum) {
            for v in x_out.iter_mut() {
                *v *= scale;
            }
        }
        active
    }
}

/// The factor that absorbs the residual rounding error of entries summing
/// to `sum` into them, so the constraint `Σ x = total` holds to near
/// machine precision (keeps downstream convergence checks honest), or
/// `None` when they need none. Proportional correction preserves
/// nonnegativity. A dense column pass keeps it beside its iterate instead
/// of applying it.
#[inline]
pub(crate) fn rounding_scale(total: f64, sum: f64) -> Option<f64> {
    let err = total - sum;
    if err != 0.0 && sum > 0.0 && err.abs() > 0.0 {
        let scale = total / sum;
        if scale.is_finite() && scale > 0.0 {
            return Some(scale);
        }
    }
    None
}

/// `loⱼ ≤ xⱼ ≤ hiⱼ`, with `sums = (Σ lo, Σ hi)` as `iter().sum()` gives
/// them: two breakpoints per entry, and none at an upper bound of `+∞`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interval<'a> {
    pub(crate) lo: &'a [f64],
    pub(crate) hi: &'a [f64],
    pub(crate) sums: (f64, f64),
}

impl<'a> Interval<'a> {
    /// Check every entry's bounds and sum them. A NaN bound fails
    /// `lo ≤ hi`; an upper bound may be `+∞`, a lower one must be finite.
    ///
    /// # Errors
    /// [`SeaError::InconsistentBounds`] for the first entry that fails.
    pub(crate) fn new(lo: &'a [f64], hi: &'a [f64]) -> Result<Self, SeaError> {
        for (index, (&lower, &upper)) in lo.iter().zip(hi).enumerate() {
            if !(lower <= upper && lower.is_finite()) {
                return Err(SeaError::InconsistentBounds {
                    index,
                    lower,
                    upper,
                });
            }
        }
        Ok(Self {
            lo,
            hi,
            sums: (lo.iter().sum(), hi.iter().sum()),
        })
    }
}

impl Bounds for Interval<'_> {
    const UPPER: bool = true;

    fn check_len(self, n: usize) -> Result<(), SeaError> {
        if self.lo.len() != n || self.hi.len() != n {
            return Err(SeaError::Shape {
                context: "exact_equilibration bounds",
                expected: n,
                actual: self.lo.len().min(self.hi.len()),
            });
        }
        Ok(())
    }

    #[inline(always)]
    fn prefix(self, n: usize) -> Self {
        Self {
            lo: &self.lo[..n],
            hi: &self.hi[..n],
            sums: self.sums,
        }
    }

    fn out_of_reach(self, _: usize, total: f64) -> bool {
        let (sum_lo, sum_hi) = self.sums;
        let span = (sum_hi - sum_lo).abs().max(1.0);
        total < sum_lo - 1e-9 * span || total > sum_hi + 1e-9 * span
    }

    fn base(self) -> f64 {
        self.sums.0
    }

    #[inline(always)]
    fn lower(self, k: usize, qj: f64, gj: f64, sj: f64) -> (f64, f64) {
        let lj = self.lo[k];
        (lj, 2.0 * gj * (lj - qj) - sj)
    }

    #[inline(always)]
    fn upper(self, k: usize) -> f64 {
        self.hi[k]
    }

    /// Flat segments occur anywhere every entry is pinned at a bound.
    fn flat_solves(a: f64, total: f64) -> bool {
        (a - total).abs() <= 1e-12 * total.abs().max(1.0)
    }

    /// An entry saturating at its upper bound takes its slope back, so the
    /// slope can cancel to a ±ε residue and the division can fling the root
    /// far from the segment that holds it: clamp it there.
    fn settle(c: f64, seg_lo: f64) -> f64 {
        c.max(seg_lo)
    }

    /// A fixed total attained only at an extreme: clamp an infinite λ to
    /// `±√f64::MAX`. A NaN λ is a breakdown, as for [`Unbounded`].
    fn finite_lambda(self, lambda: f64, mode: TotalMode) -> Result<f64, SeaError> {
        if lambda.is_nan() {
            return Err(SeaError::NumericalBreakdown { iteration: 0 });
        }
        Ok(if lambda.is_finite() {
            lambda
        } else {
            match mode {
                TotalMode::Fixed { total } if total >= self.sums.1 => f64::MAX.sqrt(),
                _ => -f64::MAX.sqrt(),
            }
        })
    }

    /// `raw.clamp(lo, hi)`'s bits, without its `lo ≤ hi` assertion (the
    /// bounds were checked when the problem was built), so loops over
    /// entries vectorize.
    #[inline(always)]
    fn clamp(self, k: usize, raw: f64) -> f64 {
        let (lo, hi) = (self.lo[k], self.hi[k]);
        if raw < lo {
            lo
        } else if raw > hi {
            hi
        } else {
            raw
        }
    }

    #[inline(always)]
    fn inside(self, k: usize, v: f64) -> bool {
        v > self.lo[k] && v < self.hi[k]
    }

    /// Every entry is clamped, with or without an output row, because the
    /// clamps are counted (`boxed_clamps`).
    fn materialize(
        self,
        q: &[f64],
        gamma: &[f64],
        shift: impl Shift,
        lambda: f64,
        _: f64,
        mut x_out: Option<&mut [f64]>,
        stats: &mut KernelCounters,
    ) -> usize {
        let n = q.len();
        let mut active = 0usize;
        for j in 0..n {
            let v = self.clamp(j, q[j] + (shift.at(j) + lambda) / (2.0 * gamma[j]));
            if self.inside(j, v) {
                active += 1;
            }
            if let Some(x) = x_out.as_deref_mut() {
                x[j] = v;
            }
        }
        stats.boxed_clamps += (n - active) as u64;
        active
    }
}

/// Entry `k`'s breakpoint events: leaving its lower bound, and, when the
/// bounds have upper ones ([`Bounds::UPPER`]), saturating at its upper
/// bound. An upper event at `+∞` is never crossed: the warm test never
/// counts it below the hint and the fill leaves it out of the selection.
/// The warm test and the event fills all build events here, so they see the
/// same bits.
#[inline(always)]
pub(crate) fn entry_events<B: Bounds>(
    bounds: B,
    k: usize,
    qj: f64,
    gj: f64,
    sj: f64,
) -> (SelectEvent, SelectEvent) {
    let inv2g = 1.0 / (2.0 * gj);
    let interior = qj + sj * inv2g;
    let (lj, v) = bounds.lower(k, qj, gj, sj);
    // Crossing it swaps loⱼ for the interior response interior + λ·inv2g.
    let lower = SelectEvent {
        v,
        da: interior - lj,
        db: inv2g,
    };
    let hj = bounds.upper(k);
    // Crossing it freezes the response at hiⱼ.
    let upper = SelectEvent {
        v: 2.0 * gj * (hj - qj) - sj,
        da: hj - interior,
        db: -inv2g,
    };
    (lower, upper)
}

/// The opposite side's multipliers as one subproblem reads them: entry `k`
/// sees `at(k)`. A slice is read in place; [`IndexedShift`] reads a sparse
/// row's (or support-pattern row's) entries through its column index, so a
/// pass never gathers them into a buffer first.
pub(crate) trait Shift: Copy {
    /// Number of entries.
    fn len(self) -> usize;
    /// Entry `k`'s shift.
    fn at(self, k: usize) -> f64;
}

impl Shift for &[f64] {
    #[inline(always)]
    fn len(self) -> usize {
        <[f64]>::len(self)
    }
    #[inline(always)]
    fn at(self, k: usize) -> f64 {
        self[k]
    }
}

/// Entry `k`'s shift is `src[idx[k]]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexedShift<'a> {
    pub(crate) src: &'a [f64],
    pub(crate) idx: &'a [u32],
}

impl Shift for IndexedShift<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.idx.len()
    }
    #[inline(always)]
    fn at(self, k: usize) -> f64 {
        self.src[self.idx[k] as usize]
    }
}

/// Reusable workspace so the hot loop performs no allocation (workhorse
/// buffers, per the performance guide). Buffers grow to the subproblem size
/// on first use; every subsequent solve of the same (or smaller) size is
/// allocation-free regardless of kernel.
#[derive(Debug, Default, Clone)]
pub struct EquilibrationScratch {
    /// Sort-scan's argsort keys: its events' breakpoints.
    breakpoints: Vec<f64>,
    order: Vec<u32>,
    /// Breakpoint events, up to two per entry.
    events: Vec<SelectEvent>,
    /// Cumulative work counters across every solve that used this scratch
    /// (subproblems, breakpoint segments swept, quickselect partition
    /// rounds, boxed-bound clamps). Maintained unconditionally — a handful
    /// of integer adds per solve — and harvested by the observability
    /// layer; reset by assigning `KernelCounters::default()`.
    pub stats: KernelCounters,
}

impl EquilibrationScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, n: usize) {
        self.breakpoints.clear();
        self.breakpoints.reserve(2 * n);
        self.order.clear();
        self.order.reserve(2 * n);
        self.events.clear();
        self.events.reserve(2 * n);
    }
}

/// Operation-count model for one exact equilibration of length `n`, per the
/// paper's Section 3 analysis (`7n + n ln n + 2n`). Used by the scheduling
/// simulator as an architecture-independent task cost.
#[inline]
pub fn operation_count(n: usize) -> f64 {
    let nf = n as f64;
    9.0 * nf + nf * nf.max(1.0).ln()
}

/// Operation-count model dispatched by kernel: the selection kernel drops
/// the `n·ln n` sorting term (expected-linear breakpoint search), keeping a
/// larger linear constant for the partition passes.
#[inline]
pub fn operation_count_for(kernel: KernelKind, n: usize) -> f64 {
    match kernel {
        KernelKind::SortScan => operation_count(n),
        KernelKind::Quickselect => 13.0 * n as f64,
    }
}

#[inline]
fn validate_inputs(
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    bounds: impl Bounds,
    x_out: Option<&[f64]>,
) -> Result<(), SeaError> {
    let n = q.len();
    if gamma.len() != n {
        return Err(SeaError::Shape {
            context: "exact_equilibration gamma",
            expected: n,
            actual: gamma.len(),
        });
    }
    if shift.len() != n {
        return Err(SeaError::Shape {
            context: "exact_equilibration shift",
            expected: n,
            actual: shift.len(),
        });
    }
    if let Some(x_out) = x_out.filter(|x| x.len() != n) {
        return Err(SeaError::Shape {
            context: "exact_equilibration x_out",
            expected: n,
            actual: x_out.len(),
        });
    }
    bounds.check_len(n)
}

/// Solve the single-constraint subproblem by exact equilibration.
///
/// `q` are the priors, `gamma` the strictly positive quadratic weights,
/// `shift` the opposite-side multipliers, `mode` the total specification.
/// `bounds` is `None` for the subproblem's `xⱼ ≥ 0`, or `Some((lo, hi))`
/// for the box `loⱼ ≤ xⱼ ≤ hiⱼ` of the Ohuchi–Kaji (1984) bounded model and
/// the Harrigan–Buchanan (1984) interval constraints, where the entry is
/// `clamp(qⱼ + (shiftⱼ + λ)/(2γⱼ), loⱼ, hiⱼ)`. An upper bound may be `+∞`.
/// The optimal entries are written to `x_out`.
///
/// [`KernelKind::SortScan`] is the reference oracle; [`KernelKind::Quickselect`]
/// locates the same root segment by in-place selection in expected linear
/// time. Both write the same solution (to floating-point roundoff).
///
/// ```
/// use sea_core::knapsack::{exact_equilibration, EquilibrationScratch, KernelKind, TotalMode};
///
/// // Spread a total of 9 across priors (1, 2, 3) with unit weights:
/// // every entry shifts by +1.
/// let mut x = [0.0; 3];
/// let mut scratch = EquilibrationScratch::new();
/// let r = exact_equilibration(
///     KernelKind::SortScan,
///     &[1.0, 2.0, 3.0],
///     &[1.0, 1.0, 1.0],
///     &[0.0, 0.0, 0.0],
///     None,
///     TotalMode::Fixed { total: 9.0 },
///     &mut x,
///     &mut scratch,
/// ).unwrap();
/// assert!((x[0] - 2.0).abs() < 1e-12);
/// assert!((r.lambda - 2.0).abs() < 1e-12);
/// ```
///
/// # Errors
/// * [`SeaError::Shape`] on length mismatches.
/// * [`SeaError::InconsistentBounds`] if some `loⱼ > hiⱼ`, either bound is
///   NaN, or `loⱼ` is infinite.
/// * [`SeaError::InfeasibleSubproblem`] if the fixed total is out of reach:
///   positive with no entries, or outside `[Σ lo, Σ hi]`.
/// * [`SeaError::NonPositiveWeight`] if any `gamma` (or elastic `alpha`) is
///   not strictly positive (checked in debug and on the slow path).
#[allow(clippy::too_many_arguments)] // kernel + inputs + bounds + output + workspace
pub fn exact_equilibration(
    kernel: KernelKind,
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    bounds: Option<(&[f64], &[f64])>,
    mode: TotalMode,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    let x_out = Some(x_out);
    match bounds {
        None => exact_equilibration_hinted(
            kernel, q, gamma, shift, Unbounded, mode, None, x_out, scratch,
        ),
        Some((lo, hi)) => {
            let bounds = Interval::new(lo, hi)?;
            exact_equilibration_hinted(kernel, q, gamma, shift, bounds, mode, None, x_out, scratch)
        }
    }
}

/// [`exact_equilibration`] for a pass: warm-started from `hint`, the
/// subproblem's previous multiplier, with `shift` read in place or through
/// a column index, and the iterate optional. An [`Interval`] here carries
/// sums the caller computed, and its bounds are not checked again (as
/// [`crate::BoundedProblem::new`] already did). The quickselect kernel
/// first tries the segment holding `hint` ([`warm_segment`]) and fills and
/// searches its events only when the root lies elsewhere; sort-scan ignores
/// the hint. What is computed without `x_out` is up to the bounds
/// ([`Bounds::materialize`]).
#[allow(clippy::too_many_arguments)] // kernel inputs + bounds + hint + output + workspace
pub(crate) fn exact_equilibration_hinted<B: Bounds>(
    kernel: KernelKind,
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    bounds: B,
    mode: TotalMode,
    hint: Option<f64>,
    x_out: Option<&mut [f64]>,
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    validate_inputs(q, gamma, shift, bounds, x_out.as_deref())?;
    let n = q.len();
    scratch.stats.subproblems += 1;

    if let TotalMode::Elastic { alpha, .. } = mode {
        if !(alpha > 0.0) {
            return Err(SeaError::NonPositiveWeight {
                which: "alpha",
                index: 0,
                value: alpha,
            });
        }
    }
    if n == 0 {
        return empty_subproblem(bounds, mode);
    }
    if let TotalMode::Fixed { total } = mode {
        if bounds.out_of_reach(n, total) {
            return Err(SeaError::InfeasibleSubproblem {
                side: "row",
                index: 0,
            });
        }
    }

    let lambda = match kernel {
        KernelKind::SortScan => lambda_sort_scan(q, gamma, shift, bounds, mode, scratch),
        KernelKind::Quickselect => lambda_quickselect(q, gamma, shift, bounds, mode, hint, scratch),
    };
    let lambda = bounds.finite_lambda(lambda, mode)?;
    let total = realized_total(mode, lambda);
    let active = bounds.materialize(q, gamma, shift, lambda, total, x_out, &mut scratch.stats);
    Ok(EquilibrationResult {
        lambda,
        total,
        active,
    })
}

/// The total a subproblem realizes at multiplier `lambda`: the fixed one,
/// or the elastic `prior − (λ + cross)/(2α)`.
#[inline]
pub(crate) fn realized_total(mode: TotalMode, lambda: f64) -> f64 {
    match mode {
        TotalMode::Fixed { total } => total,
        TotalMode::Elastic {
            alpha,
            prior,
            cross,
        } => prior - (lambda + cross) / (2.0 * alpha),
    }
}

/// The one answer for a subproblem with no entries, whatever the kernel:
/// the total is 0, so a fixed total out of reach of the empty box (`> 0`,
/// or `|total| > 10⁻⁹` for an [`Interval`]) is infeasible, and an elastic
/// total settles at `s = prior − (λ + cross)/(2α) = 0`.
pub(crate) fn empty_subproblem<B: Bounds>(
    bounds: B,
    mode: TotalMode,
) -> Result<EquilibrationResult, SeaError> {
    let lambda = match mode {
        TotalMode::Fixed { total } if bounds.out_of_reach(0, total) => {
            return Err(SeaError::InfeasibleSubproblem {
                side: "row",
                index: 0,
            })
        }
        TotalMode::Fixed { .. } => 0.0,
        TotalMode::Elastic {
            alpha,
            prior,
            cross,
        } => 2.0 * alpha * prior - cross,
    };
    Ok(EquilibrationResult {
        lambda,
        total: 0.0,
        active: 0,
    })
}

/// Slope/intercept of the elastic total response `S(λ) = el_const − λ·el_slope`
/// (fixed mode degenerates to `(0, 0)` and is special-cased by callers).
#[inline]
fn elastic_constants(mode: TotalMode) -> (f64, f64) {
    match mode {
        TotalMode::Fixed { .. } => (0.0, 0.0),
        TotalMode::Elastic {
            alpha,
            prior,
            cross,
        } => (1.0 / (2.0 * alpha), prior - cross / (2.0 * alpha)),
    }
}

/// Sort-based segment search: argsort the breakpoint events, then sweep the
/// segments left to right, each crossing adding its event's `(da, db)` to
/// the linear form `f(λ) = a + b·λ`. When no segment accepts, returns the
/// breakpoint at which a fixed-mode `f` jumps over the total, or else NaN
/// (the bounds say what that means, [`Bounds::finite_lambda`]).
fn lambda_sort_scan<B: Bounds>(
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    bounds: B,
    mode: TotalMode,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    let n = q.len();
    let bounds = bounds.prefix(n);
    scratch.prepare(n);
    // Every lower event in entry order, then every upper event: the order
    // the argsort sees ties in.
    for k in 0..n {
        debug_assert!(gamma[k] > 0.0, "gamma must be strictly positive");
        let (lower, _) = entry_events(bounds, k, q[k], gamma[k], shift.at(k));
        scratch.events.push(lower);
    }
    if B::UPPER {
        for k in 0..n {
            let (_, upper) = entry_events(bounds, k, q[k], gamma[k], shift.at(k));
            if upper.v != f64::INFINITY {
                scratch.events.push(upper);
            }
        }
    }
    let EquilibrationScratch {
        breakpoints,
        order,
        events,
        stats,
    } = scratch;
    breakpoints.extend(events.iter().map(|e| e.v));
    let len = events.len();
    order.resize(len, 0);
    sort::identity_permutation(order);
    sort::argsort(order, breakpoints);

    let (el_slope, el_const) = elastic_constants(mode);
    // Left of every event, each entry sits at its lower bound.
    let mut a = bounds.base();
    let mut b = 0.0_f64;
    // Lower end of the current segment: the last event crossed.
    let mut seg_lo = f64::NEG_INFINITY;
    let mut lambda = f64::NAN;
    // In fixed mode, the upper end of the last segment whose root lies to
    // its right: f is below the total up to there.
    let mut below_until = f64::NAN;
    let mut swept = 0u64;
    for r in 0..=len {
        swept += 1;
        let upper = if r < len {
            breakpoints[order[r] as usize]
        } else {
            f64::INFINITY
        };
        // Root of: a + λ·b  =  S(λ), where for fixed mode S(λ) = total and
        // for elastic S(λ) = el_const − λ·el_slope.
        let cand = match mode {
            TotalMode::Fixed { total } => {
                if b > 0.0 {
                    Some((total - a) / b)
                } else if B::flat_solves(a, total) {
                    // λ may sit anywhere on the flat segment: report its
                    // upper end, the largest valid multiplier, or past the
                    // last event its lower end.
                    Some(if r < len { upper } else { seg_lo })
                } else {
                    None
                }
            }
            TotalMode::Elastic { .. } => Some((el_const - a) / (b + el_slope)),
        };
        if let Some(c) = cand {
            if c <= upper {
                lambda = B::settle(c, seg_lo);
                break;
            }
            if c > upper && matches!(mode, TotalMode::Fixed { .. }) {
                below_until = upper;
            }
        }
        if r < len {
            let e = events[order[r] as usize];
            a += e.da;
            b += e.db;
            seg_lo = upper;
        }
    }
    stats.breakpoints_scanned += swept;
    // No segment accepted although every event was crossed with finite
    // sums: f jumped over the fixed total at one breakpoint. A box narrower
    // in λ than one ulp of its breakpoints does that (its two breakpoints
    // coincide, and the slope it adds and takes back leaves a flat segment
    // whose level is rounding noise). That breakpoint is the root.
    if lambda.is_nan() && a.is_finite() && b.is_finite() {
        lambda = below_until;
    }
    lambda
}

/// Selection kernel: the warm segment first when a `hint` is given
/// ([`warm_segment`]); else, or on a miss, fill the breakpoint events (an
/// entry's lower and upper events next to each other), then
/// [`select_lambda`]. A warm attempt, hit or miss, counts as one partition
/// round: it is one pass over the entries, like a round. Returns NaN when
/// no segment accepts.
fn lambda_quickselect<B: Bounds>(
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    bounds: B,
    mode: TotalMode,
    hint: Option<f64>,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    let n = q.len();
    // Sized on hits too, so a miss after a run of hits finds its buffer.
    scratch.prepare(n);
    debug_assert!(
        gamma.iter().all(|&g| g > 0.0),
        "gamma must be strictly positive"
    );
    if let Some(h) = hint {
        scratch.stats.quickselect_pivots += 1;
        if let Some(lambda) = warm_segment(q, gamma, shift, bounds, h, mode) {
            return lambda;
        }
    }
    let (gamma, bounds) = (&gamma[..n], bounds.prefix(n));
    for k in 0..n {
        let (lower, upper) = entry_events(bounds, k, q[k], gamma[k], shift.at(k));
        scratch.events.push(lower);
        // A pivot at +∞ would fold an infinite intercept into the search.
        if B::UPPER && upper.v != f64::INFINITY {
            scratch.events.push(upper);
        }
    }
    select_lambda::<B>(
        &mut scratch.events,
        bounds.base(),
        mode,
        &mut scratch.stats.quickselect_pivots,
    )
    .unwrap_or(f64::NAN)
}

/// Lanes of the warm test's accumulators: entry `k` goes to lane `k mod 4`.
/// Four interleaved sums break the loop-carried dependency of one running
/// sum; the order is fixed, so every caller gets the same bits.
pub(crate) const LANES: usize = 4;

/// Call `fold(lane, k)` for every entry `k < n`, in order, with `lane` a
/// constant after unrolling.
#[inline(always)]
fn for_each_lane(n: usize, mut fold: impl FnMut(usize, usize)) {
    let full = n - n % LANES;
    for base in (0..full).step_by(LANES) {
        for lane in 0..LANES {
            fold(lane, base + lane);
        }
    }
    for lane in 0..n - full {
        fold(lane, full + lane);
    }
}

/// The warm segment's bracket `[lo, hi]`: the largest breakpoint at or
/// below the hint and the smallest above it. Maxima and minima are exact,
/// so unlike the sums one pair serves every lane and any order gives ends
/// that compare the same (they can differ only in the sign of a zero). A
/// NaN breakpoint is never at or below the hint and never below `hi`, so it
/// moves neither end.
#[derive(Clone, Copy)]
pub(crate) struct Bracket {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
}

impl Bracket {
    pub(crate) const OPEN: Bracket = Bracket {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Count breakpoint `v`, which is at or below the hint iff `below`.
    #[inline(always)]
    fn push(&mut self, v: f64, below: bool) {
        if below {
            self.lo = if v > self.lo { v } else { self.lo };
        } else {
            self.hi = if v < self.hi { v } else { self.hi };
        }
    }

    /// Solve `f(λ) = base + a + b·λ = S(λ)` on the segment from the lanes'
    /// intercept and slope sums; the root if it lies inside. In fixed mode a
    /// flat segment (zero slope) is a miss.
    pub(crate) fn root(
        self,
        a: [f64; LANES],
        b: [f64; LANES],
        base: f64,
        mode: TotalMode,
    ) -> Option<f64> {
        let a = base + ((a[0] + a[1]) + (a[2] + a[3]));
        let b = (b[0] + b[1]) + (b[2] + b[3]);
        let root = match mode {
            TotalMode::Fixed { total } if b > 0.0 => (total - a) / b,
            TotalMode::Fixed { .. } => return None,
            TotalMode::Elastic { .. } => {
                let (el_slope, el_const) = elastic_constants(mode);
                (el_const - a) / (b + el_slope)
            }
        };
        (self.lo <= root && root <= self.hi).then_some(root)
    }
}

/// One-pass check of the segment that holds `hint` (SEA's previous
/// multiplier for this subproblem, which moves little between iterations).
///
/// Computes each entry's events ([`entry_events`]) in registers, sums the
/// active linear form `f(λ) = Σ lo + a + b·λ` while tracking the nearest
/// breakpoint on each side, solves `f(λ) = S(λ)` on that segment, and
/// returns the root when it lies inside the bracket. The intercept sums
/// `da` over every event at or below `hint`; the slope sums `db` only over
/// entries strictly inside their box there (lower event crossed, upper
/// not): adding `+w` at the lower event and `−w` at the upper one would
/// leave a ±ε residue for entries pinned at `hi`. `None` means the root is
/// elsewhere (or, in fixed mode, the segment is flat), and the caller fills
/// the events and runs the full selection. Every hint in the same segment
/// sums the same entries in the same order, so all of them return the same
/// bits. Any hint is safe: the bracket check, not the hint, decides
/// acceptance.
fn warm_segment<B: Bounds>(
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    bounds: B,
    hint: f64,
    mode: TotalMode,
) -> Option<f64> {
    let n = q.len();
    let (gamma, bounds) = (&gamma[..n], bounds.prefix(n));
    let (mut a, mut b) = ([0.0_f64; LANES], [0.0_f64; LANES]);
    let mut bracket = Bracket::OPEN;
    // An entry above the hint adds +0.0, which leaves a sum that starts at
    // +0.0 bitwise unchanged, so each lane sums exactly its entries at or
    // below the hint, in order.
    for_each_lane(n, |lane, k| {
        let (l, u) = entry_events(bounds, k, q[k], gamma[k], shift.at(k));
        warm_fold::<B>(l, u, hint, &mut a[lane], &mut b[lane], &mut bracket);
    });
    bracket.root(a, b, bounds.base(), mode)
}

/// Fold one entry's events `(l, u)` into its lane's intercept `a` and
/// slope `b` and into the `bracket` around `hint` ([`warm_segment`]). A
/// dense column pass folds its tiles through this too, so both see the
/// same bits.
#[inline(always)]
pub(crate) fn warm_fold<B: Bounds>(
    l: SelectEvent,
    u: SelectEvent,
    hint: f64,
    a: &mut f64,
    b: &mut f64,
    bracket: &mut Bracket,
) {
    let below_l = l.v <= hint;
    let mut da = if below_l { l.da } else { 0.0 };
    let mut inside = below_l;
    bracket.push(l.v, below_l);
    if B::UPPER {
        let below_u = u.v <= hint && u.v != f64::INFINITY;
        da += if below_u { u.da } else { 0.0 };
        inside &= !below_u;
        bracket.push(u.v, below_u);
    }
    *a += da;
    *b += if inside { l.db } else { 0.0 };
}

#[inline]
fn median3(a: f64, b: f64, c: f64) -> f64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if c <= lo {
        lo
    } else if c >= hi {
        hi
    } else {
        c
    }
}

/// Expected-O(n) segment search over the filled events.
///
/// `events` encodes `f(λ) = base_a + Σ_{vₑ ≤ λ} (daₑ + λ·dbₑ)`: each event,
/// once crossed, adds `(daₑ, dbₑ)` to the active linear form — and is built
/// so its contribution is exactly zero *at* its own breakpoint. The routine
/// finds the segment containing the root of `f(λ) = S(λ)` (f nondecreasing)
/// by deterministic median-of-3 quickselect: pivot on an event value,
/// evaluate `f` there, and either discard the right part or fold the left
/// part into running coefficients. Every step retires at least the
/// pivot-equal events and partitions in place, so the search performs no
/// allocation and no sort.
///
/// Returns `None` when fixed mode finds no consistent segment (the caller
/// picks its fallback).
fn select_lambda<B: Bounds>(
    events: &mut [SelectEvent],
    base_a: f64,
    mode: TotalMode,
    pivots: &mut u64,
) -> Option<f64> {
    let (el_slope, el_const) = elastic_constants(mode);
    let (mut lo, mut hi) = (0usize, events.len());
    let mut acc_a = base_a;
    let mut acc_b = 0.0_f64;
    // Boundaries of the narrowed segment: smallest pivot ruled
    // "root ≤ pivot" and largest pivot ruled "root > pivot" so far. The
    // root always lies in [seg_lo, seg_hi]; the final division is clamped
    // there so that catastrophic cancellation in acc_b (e.g. every boxed
    // event folded left, leaving a tiny ±ε slope) cannot fling λ out of
    // the segment.
    let mut seg_hi = f64::INFINITY;
    let mut seg_lo = f64::NEG_INFINITY;

    while lo < hi {
        *pivots += 1;
        let p = median3(events[lo].v, events[lo + (hi - lo) / 2].v, events[hi - 1].v);
        // Three-way partition of the window around p:
        // [lo..lt) < p, [lt..gt) == p, [gt..hi) > p.
        let (mut lt, mut cur, mut gt) = (lo, lo, hi);
        while cur < gt {
            let v = events[cur].v;
            if v < p {
                events.swap(lt, cur);
                lt += 1;
                cur += 1;
            } else if v > p {
                gt -= 1;
                events.swap(cur, gt);
            } else {
                cur += 1;
            }
        }
        let (mut sa, mut sb) = (0.0_f64, 0.0_f64);
        for e in &events[lo..gt] {
            sa += e.da;
            sb += e.db;
        }
        let f_p = (acc_a + sa) + p * (acc_b + sb);
        let s_p = match mode {
            TotalMode::Fixed { total } => total,
            TotalMode::Elastic { .. } => el_const - el_slope * p,
        };
        if f_p >= s_p {
            // Root at or left of the pivot: drop everything ≥ p.
            seg_hi = p;
            hi = lt;
        } else {
            // Root right of the pivot: fold everything ≤ p.
            acc_a += sa;
            acc_b += sb;
            lo = gt;
            seg_lo = p;
        }
    }

    // The root lies in the identified segment, where f(λ) = acc_a + λ·acc_b.
    match mode {
        TotalMode::Fixed { total } => {
            if acc_b > 0.0 {
                Some(clamp_to_segment((total - acc_a) / acc_b, seg_lo, seg_hi))
            } else if B::flat_solves(acc_a, total) {
                Some(if seg_hi.is_finite() {
                    seg_hi
                } else if seg_lo.is_finite() {
                    seg_lo
                } else {
                    0.0
                })
            } else {
                None
            }
        }
        TotalMode::Elastic { .. } => Some(clamp_to_segment(
            (el_const - acc_a) / (acc_b + el_slope),
            seg_lo,
            seg_hi,
        )),
    }
}

/// `root.clamp(seg_lo, seg_hi)` without `clamp`'s precondition check,
/// which debug builds assert and a NaN bound fails. Non-finite inputs (a
/// poisoned warm start) make NaN breakpoints and so NaN bounds: the NaN
/// root then passes through, as it does in release builds, and the
/// breakdown watchdog sees it instead of the worker panicking. Every
/// other input gets `clamp`'s bits.
fn clamp_to_segment(root: f64, seg_lo: f64, seg_hi: f64) -> f64 {
    if root < seg_lo {
        seg_lo
    } else if root > seg_hi {
        seg_hi
    } else {
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sea_observe::KernelCounters;

    /// Reference solve by bisection on λ — independent of the sweep logic.
    fn bisect_reference(
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        mode: TotalMode,
    ) -> (f64, Vec<f64>) {
        let g = |lam: f64| -> f64 {
            let s: f64 = q
                .iter()
                .zip(gamma)
                .zip(shift)
                .map(|((&qj, &gj), &mj)| (qj + (mj + lam) / (2.0 * gj)).max(0.0))
                .sum();
            match mode {
                TotalMode::Fixed { total } => s - total,
                TotalMode::Elastic {
                    alpha,
                    prior,
                    cross,
                } => s - (prior - (lam + cross) / (2.0 * alpha)),
            }
        };
        let (mut lo, mut hi) = (-1e9, 1e9);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if g(mid) > 0.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let lam = 0.5 * (lo + hi);
        let x = q
            .iter()
            .zip(gamma)
            .zip(shift)
            .map(|((&qj, &gj), &mj)| (qj + (mj + lam) / (2.0 * gj)).max(0.0))
            .collect();
        (lam, x)
    }

    fn check_kkt(q: &[f64], gamma: &[f64], shift: &[f64], x: &[f64], lambda: f64, tol: f64) {
        for j in 0..q.len() {
            let grad = 2.0 * gamma[j] * (x[j] - q[j]) - shift[j] - lambda;
            if x[j] > tol {
                assert!(
                    grad.abs() <= tol * (1.0 + gamma[j].abs() * q[j].abs()),
                    "stationarity violated at {j}: grad={grad}"
                );
            } else {
                assert!(
                    grad >= -tol * (1.0 + gamma[j].abs()),
                    "sign violated at {j}"
                );
            }
        }
    }

    /// Solve with `kernel` into a fresh output row, NaN-filled so that every
    /// entry must be written; the result and the row.
    fn solve(
        kernel: KernelKind,
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        bounds: Option<(&[f64], &[f64])>,
        mode: TotalMode,
    ) -> Result<(EquilibrationResult, Vec<f64>), SeaError> {
        let mut x = vec![f64::NAN; q.len()];
        let mut sc = EquilibrationScratch::new();
        exact_equilibration(kernel, q, gamma, shift, bounds, mode, &mut x, &mut sc).map(|r| (r, x))
    }

    /// [`solve`] with the sort-scan oracle on the subproblem `x ≥ 0`.
    fn oracle(
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        mode: TotalMode,
    ) -> (EquilibrationResult, Vec<f64>) {
        solve(KernelKind::SortScan, q, gamma, shift, None, mode).unwrap()
    }

    #[test]
    fn fixed_mode_simple() {
        // Equal weights, zero shift: equilibration spreads the total with
        // equal adjustments.
        let (r, x) = oracle(
            &[1.0, 2.0, 3.0],
            &[1.0; 3],
            &[0.0; 3],
            TotalMode::Fixed { total: 9.0 },
        );
        // Each entry shifts by +1 ⇒ x = (2,3,4), λ = 2.
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - 4.0).abs() < 1e-12);
        assert!((r.lambda - 2.0).abs() < 1e-12);
        assert_eq!(r.active, 3);
    }

    #[test]
    fn fixed_mode_activates_nonnegativity() {
        // Shrinking the total far enough drives small entries to zero.
        let q = [1.0, 10.0];
        let gamma = [1.0, 1.0];
        let shift = [0.0; 2];
        let (r, x) = oracle(&q, &gamma, &shift, TotalMode::Fixed { total: 2.0 });
        assert_eq!(x[0], 0.0);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert_eq!(r.active, 1);
        check_kkt(&q, &gamma, &shift, &x, r.lambda, 1e-9);
    }

    #[test]
    fn fixed_zero_total_gives_zero_solution() {
        let q = [1.0, 2.0];
        let gamma = [0.5, 2.0];
        let shift = [0.3, -0.7];
        let (r, x) = oracle(&q, &gamma, &shift, TotalMode::Fixed { total: 0.0 });
        assert_eq!(x, [0.0, 0.0]);
        assert_eq!(r.active, 0);
        // λ must keep every entry at or below zero.
        check_kkt(&q, &gamma, &shift, &x, r.lambda, 1e-9);
    }

    #[test]
    fn elastic_mode_matches_hand_computation() {
        // One entry, q=0, γ=1/2, shift=0, α=1/2, prior=4:
        // x(λ)=(λ)₊, s(λ)=4−λ; x=s ⇒ λ=2, x=2, s=2.
        let mode = TotalMode::Elastic {
            alpha: 0.5,
            prior: 4.0,
            cross: 0.0,
        };
        let (r, x) = oracle(&[0.0], &[0.5], &[0.0], mode);
        assert!((r.lambda - 2.0).abs() < 1e-12);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((r.total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn elastic_cross_shift_moves_total() {
        // SAM-style cross term reduces the realized total.
        let mode = TotalMode::Elastic {
            alpha: 0.5,
            prior: 4.0,
            cross: 1.0,
        };
        let (r, x) = oracle(&[0.0], &[0.5], &[0.0], mode);
        // x(λ)=λ₊, s=4−(λ+1) ⇒ λ = 1.5, x = 1.5.
        assert!((r.lambda - 1.5).abs() < 1e-12);
        assert!((x[0] - 1.5).abs() < 1e-12);
    }

    /// Every kernel, with and without bounds, answers an empty subproblem
    /// alike: λ = 0 for a fixed total of 0, infeasible for a positive one,
    /// and the elastic optimum `2α·prior − cross`.
    #[test]
    fn empty_subproblem_cases() {
        let elastic = TotalMode::Elastic {
            alpha: 1.5,
            prior: 3.0,
            cross: 0.25,
        };
        for (mode, want) in [
            (TotalMode::Fixed { total: 0.0 }, Some(0.0)),
            (TotalMode::Fixed { total: 1.0 }, None),
            (elastic, Some(2.0 * 1.5 * 3.0 - 0.25)),
        ] {
            for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
                for bounds in [None, Some((&[][..], &[][..]))] {
                    let r = solve(kernel, &[], &[], &[], bounds, mode).map(|(r, _)| r);
                    let at = format!("{mode:?}, {kernel}, bounds {bounds:?}: {r:?}");
                    match (want, r) {
                        (Some(lambda), Ok(r)) => {
                            assert_eq!(r.lambda.to_bits(), f64::to_bits(lambda), "{at}");
                            assert_eq!((r.total, r.active), (0.0, 0), "{at}");
                        }
                        (None, Err(SeaError::InfeasibleSubproblem { .. })) => {}
                        _ => panic!("{at}"),
                    }
                }
            }
        }
    }

    #[test]
    fn shape_errors() {
        let r = solve(
            KernelKind::SortScan,
            &[1.0, 2.0],
            &[1.0],
            &[0.0, 0.0],
            None,
            TotalMode::Fixed { total: 1.0 },
        );
        assert!(matches!(r, Err(SeaError::Shape { .. })));
    }

    #[test]
    fn boxed_respects_bounds_and_total() {
        let lo = [0.5, 0.0, 1.0];
        let hi = [2.0, 3.0, 2.5];
        let bounds = Some((&lo[..], &hi[..]));
        let mode = TotalMode::Fixed { total: 6.0 };
        let (_, x) = solve(
            KernelKind::SortScan,
            &[1.0, 5.0, 2.0],
            &[1.0; 3],
            &[0.0; 3],
            bounds,
            mode,
        )
        .unwrap();
        let sum: f64 = x.iter().sum();
        assert!((sum - 6.0).abs() < 1e-9, "sum={sum}");
        for j in 0..3 {
            assert!(x[j] >= lo[j] - 1e-12 && x[j] <= hi[j] + 1e-12);
        }
    }

    /// Both kernels' answers to a subproblem of two entries with bounds
    /// `lo`, `hi` and the fixed `total`.
    fn boxed_both_kernels(
        lo: [f64; 2],
        hi: [f64; 2],
        total: f64,
    ) -> [Result<EquilibrationResult, SeaError>; 2] {
        [KernelKind::SortScan, KernelKind::Quickselect].map(|kernel| {
            let bounds = Some((&lo[..], &hi[..]));
            solve(
                kernel,
                &[1.0, 1.0],
                &[1.0, 1.0],
                &[0.0, 0.0],
                bounds,
                TotalMode::Fixed { total },
            )
            .map(|(r, _)| r)
        })
    }

    #[test]
    fn boxed_detects_infeasible_total() {
        for r in boxed_both_kernels([0.0, 0.0], [1.0, 1.0], 5.0) {
            assert!(
                matches!(r, Err(SeaError::InfeasibleSubproblem { .. })),
                "{r:?}"
            );
        }
        for r in boxed_both_kernels([2.0, 0.0], [1.0, 1.0], 1.5) {
            assert!(
                matches!(r, Err(SeaError::InconsistentBounds { index: 0, lower, upper }) if lower == 2.0 && upper == 1.0),
                "{r:?}"
            );
        }
    }

    #[test]
    fn a_nan_search_is_a_breakdown_with_or_without_bounds() {
        // A NaN shift makes the search's λ NaN. The boxed kernel must not
        // clamp that to ±√MAX and answer `Ok`.
        let (lo, hi) = ([0.0, 0.0], [5.0, 5.0]);
        let modes = [
            TotalMode::Fixed { total: 1.0 },
            TotalMode::Elastic {
                alpha: 1.0,
                prior: 1.0,
                cross: 0.0,
            },
        ];
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            for bounds in [None, Some((&lo[..], &hi[..]))] {
                for mode in modes {
                    let r = solve(
                        kernel,
                        &[1.0, 2.0],
                        &[1.0, 1.0],
                        &[f64::NAN, 0.0],
                        bounds,
                        mode,
                    );
                    assert!(
                        matches!(r, Err(SeaError::NumericalBreakdown { .. })),
                        "{kernel:?} {bounds:?} {mode:?}: {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sort_scan_answers_a_box_narrower_than_one_ulp() {
        // Both of the entry's breakpoints round to 946.2301497279719: the
        // box is 6.6e-19 wide in λ, below ulp(946) ≈ 1.1e-13, so f jumps
        // from 0 to the upper bound at that one breakpoint.
        let (q, g, shift) = ([2.4124137354181463], [1e-7], [-946.2301502104547]);
        let (lo, hi) = ([0.0], [3.2771388482279756e-12]);
        let mode = TotalMode::Fixed {
            total: 2.182213976090877e-12,
        };
        let solve = |kernel| {
            let mut x = [f64::NAN];
            let r = exact_equilibration(
                kernel,
                &q,
                &g,
                &shift,
                Some((&lo, &hi)),
                mode,
                &mut x,
                &mut EquilibrationScratch::new(),
            );
            (r, x[0])
        };
        let (r, x) = solve(KernelKind::SortScan);
        let r = r.expect("sort-scan answers");
        assert_eq!(r.lambda, 946.2301497279719);
        assert!(lo[0] <= x && x <= hi[0], "x = {x}");
        // Quickselect still breaks down here; a pass falls back to
        // sort-scan (`equilibrate`'s `sub_ulp_box_falls_back_to_sort_scan`).
        assert!(matches!(
            solve(KernelKind::Quickselect).0,
            Err(SeaError::NumericalBreakdown { .. })
        ));
    }

    #[test]
    fn boxed_rejects_a_nan_lower_bound() {
        for r in boxed_both_kernels([f64::NAN, 0.0], [5.0, 5.0], 9.0) {
            assert!(
                matches!(r, Err(SeaError::InconsistentBounds { index: 0, lower, upper: 5.0 }) if lower.is_nan()),
                "{r:?}"
            );
        }
    }

    #[test]
    fn boxed_rejects_a_nan_upper_bound() {
        for r in boxed_both_kernels([0.0, 0.0], [5.0, f64::NAN], 9.0) {
            assert!(
                matches!(r, Err(SeaError::InconsistentBounds { index: 1, lower: 0.0, upper }) if upper.is_nan()),
                "{r:?}"
            );
        }
    }

    #[test]
    fn boxed_rejects_an_infinite_lower_bound() {
        for lower in [f64::NEG_INFINITY, f64::INFINITY] {
            for r in boxed_both_kernels([lower, 0.0], [f64::INFINITY, 5.0], 9.0) {
                assert!(
                    matches!(r, Err(SeaError::InconsistentBounds { index: 0, .. })),
                    "lower {lower}: {r:?}"
                );
            }
        }
    }

    #[test]
    fn boxed_reduces_to_plain_when_bounds_loose() {
        let q = [1.0, 2.0, 3.0];
        let gamma = [0.5, 1.5, 1.0];
        let shift = [0.1, -0.2, 0.0];
        let bounds = Some((&[0.0; 3][..], &[1e12; 3][..]));
        let mode = TotalMode::Fixed { total: 7.0 };
        let (r1, x_plain) = oracle(&q, &gamma, &shift, mode);
        let (r2, x_box) = solve(KernelKind::SortScan, &q, &gamma, &shift, bounds, mode).unwrap();
        assert!((r1.lambda - r2.lambda).abs() < 1e-9);
        for j in 0..3 {
            assert!((x_plain[j] - x_box[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn boxed_elastic_mode_balances_total_against_bounds() {
        // Elastic total with tight upper bounds: the realized total cannot
        // exceed Σ hi even though the prior total asks for more.
        let bounds = Some((&[0.0, 0.0][..], &[1.0, 1.0][..]));
        let mode = TotalMode::Elastic {
            alpha: 0.5,
            prior: 100.0,
            cross: 0.0,
        };
        let (r, x) = solve(
            KernelKind::SortScan,
            &[0.0, 0.0],
            &[0.5, 0.5],
            &[0.0, 0.0],
            bounds,
            mode,
        )
        .unwrap();
        // Entries saturate at the bounds; the elastic total then sits at
        // Σx = 2, with λ at the stationarity value s = prior − λ/(2α).
        assert!((x[0] - 1.0).abs() < 1e-9 && (x[1] - 1.0).abs() < 1e-9);
        assert!((r.total - 2.0).abs() < 1e-9);
        let s_stat = 100.0 - r.lambda / (2.0 * 0.5);
        assert!((s_stat - 2.0).abs() < 1e-9);
    }

    #[test]
    fn boxed_elastic_interior_matches_plain_elastic() {
        let q = [1.0, 3.0, 2.0];
        let gamma = [0.7, 1.2, 0.4];
        let shift = [0.2, -0.1, 0.0];
        let mode = TotalMode::Elastic {
            alpha: 0.8,
            prior: 9.0,
            cross: 0.3,
        };
        let (r1, x_plain) = oracle(&q, &gamma, &shift, mode);
        let bounds = Some((&[0.0; 3][..], &[1e9; 3][..]));
        let (r2, x_boxed) = solve(KernelKind::SortScan, &q, &gamma, &shift, bounds, mode).unwrap();
        assert!((r1.lambda - r2.lambda).abs() < 1e-9);
        assert!((r1.total - r2.total).abs() < 1e-9);
        for k in 0..3 {
            assert!((x_plain[k] - x_boxed[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn operation_count_grows_superlinearly() {
        assert!(operation_count(2000) > 2.0 * operation_count(1000));
        assert!(operation_count(0) == 0.0);
    }

    #[test]
    fn kernel_kind_parses_and_prints() {
        assert_eq!(KernelKind::parse("sortscan"), Some(KernelKind::SortScan));
        assert_eq!(KernelKind::parse("sort-scan"), Some(KernelKind::SortScan));
        assert_eq!(KernelKind::parse("QS"), Some(KernelKind::Quickselect));
        assert_eq!(KernelKind::parse("select"), Some(KernelKind::Quickselect));
        assert_eq!(KernelKind::parse("bogosort"), None);
        assert_eq!(KernelKind::Quickselect.to_string(), "quickselect");
        assert_eq!(KernelKind::default(), KernelKind::Quickselect);
    }

    #[test]
    fn scratch_counters_accumulate_per_kernel() {
        let q = [1.0, 2.0, 3.0, 4.0];
        let gamma = [1.0; 4];
        let shift = [0.0; 4];
        let mut x = [0.0; 4];
        let mode = TotalMode::Fixed { total: 12.0 };

        let mut sc = EquilibrationScratch::new();
        exact_equilibration(
            KernelKind::SortScan,
            &q,
            &gamma,
            &shift,
            None,
            mode,
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(sc.stats.subproblems, 1);
        assert!(sc.stats.breakpoints_scanned >= 1);
        assert_eq!(sc.stats.quickselect_pivots, 0);

        exact_equilibration(
            KernelKind::Quickselect,
            &q,
            &gamma,
            &shift,
            None,
            mode,
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(sc.stats.subproblems, 2);
        assert!(sc.stats.quickselect_pivots >= 1);

        // Boxed solve records clamps for every entry pinned at a bound.
        let lo = [0.0; 4];
        let hi = [2.0; 4];
        exact_equilibration(
            KernelKind::SortScan,
            &q,
            &gamma,
            &shift,
            Some((&lo[..], &hi[..])),
            TotalMode::Fixed { total: 8.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(sc.stats.subproblems, 3);
        assert!(sc.stats.boxed_clamps >= 1);

        // Reset is a plain assignment.
        sc.stats = sea_observe::KernelCounters::default();
        assert!(sc.stats.is_empty());
    }

    #[test]
    fn quickselect_cost_model_is_linear() {
        let per_entry = operation_count_for(KernelKind::Quickselect, 1000) / 1000.0;
        assert!(
            (operation_count_for(KernelKind::Quickselect, 4000) / 4000.0 - per_entry).abs() < 1e-9
        );
        // The sort-scan model keeps its n log n term.
        assert!(
            operation_count_for(KernelKind::SortScan, 4000)
                > operation_count_for(KernelKind::Quickselect, 4000)
        );
    }

    /// Checked bounds `[lo, hi]`; panic on inconsistent ones.
    fn boxed<'a>(lo: &'a [f64], hi: &'a [f64]) -> Interval<'a> {
        Interval::new(lo, hi).unwrap()
    }

    /// Run both kernels on the same subproblem; panic on hard error.
    fn both<B: Bounds>(
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        bounds: B,
        mode: TotalMode,
    ) -> (
        (EquilibrationResult, Vec<f64>),
        (EquilibrationResult, Vec<f64>),
    ) {
        let mut sc = EquilibrationScratch::new();
        let [sort, qs] = [KernelKind::SortScan, KernelKind::Quickselect].map(|kernel| {
            let mut x = vec![0.0; q.len()];
            let r = exact_equilibration_hinted(
                kernel,
                q,
                gamma,
                shift,
                bounds,
                mode,
                None,
                Some(&mut x),
                &mut sc,
            )
            .unwrap();
            (r, x)
        });
        (sort, qs)
    }

    #[test]
    fn quickselect_single_element_rows() {
        // Single-element subproblems exercise the trivial selection window.
        let ((r1, x1), (r2, x2)) = both(
            &[3.0],
            &[0.7],
            &[0.2],
            Unbounded,
            TotalMode::Fixed { total: 5.0 },
        );
        assert_eq!(x1, x2);
        assert!((r1.lambda - r2.lambda).abs() < 1e-12);
        assert!((x1[0] - 5.0).abs() < 1e-12);

        let mode = TotalMode::Elastic {
            alpha: 0.5,
            prior: 4.0,
            cross: 0.0,
        };
        let ((r1, x1), (r2, x2)) = both(&[0.0], &[0.5], &[0.0], Unbounded, mode);
        assert_eq!(x1, x2);
        assert!((r1.lambda - 2.0).abs() < 1e-12);
        assert!((r2.lambda - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quickselect_tied_breakpoints() {
        // Every breakpoint identical: the selection loop must retire all
        // events in one partition round and agree with the sorted sweep.
        let q = [2.0; 6];
        let gamma = [1.0; 6];
        let shift = [0.0; 6];
        for total in [0.0, 3.0, 12.0, 24.0] {
            let ((r1, x1), (r2, x2)) =
                both(&q, &gamma, &shift, Unbounded, TotalMode::Fixed { total });
            for j in 0..6 {
                assert!(
                    (x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()),
                    "total={total} j={j}: {} vs {}",
                    x1[j],
                    x2[j]
                );
            }
            let sum: f64 = x2.iter().sum();
            assert!((sum - total).abs() <= 1e-9 * (1.0 + total));
            check_kkt(&q, &gamma, &shift, &x2, r2.lambda, 1e-9);
            let _ = r1;
        }
    }

    #[test]
    fn quickselect_nonpositive_total_flat_segment() {
        // total <= 0 forces x = 0 with λ pinned to the lowest breakpoint
        // segment; both kernels must pick multipliers that satisfy KKT.
        let q = [1.0, 2.0, 4.0];
        let gamma = [0.5, 2.0, 1.0];
        let shift = [0.3, -0.7, 0.1];
        let ((r1, x1), (r2, x2)) = both(
            &q,
            &gamma,
            &shift,
            Unbounded,
            TotalMode::Fixed { total: 0.0 },
        );
        assert_eq!(x1, vec![0.0; 3]);
        assert_eq!(x2, vec![0.0; 3]);
        check_kkt(&q, &gamma, &shift, &x1, r1.lambda, 1e-9);
        check_kkt(&q, &gamma, &shift, &x2, r2.lambda, 1e-9);
    }

    #[test]
    fn quickselect_near_degenerate_weights() {
        // Weights spanning ten orders of magnitude stress the accumulator
        // arithmetic shared by the two kernels.
        let q = [1.0, 2.0, 3.0, 4.0];
        let gamma = [1e-5, 1e5, 1.0, 1e-5];
        let shift = [0.0, 1.0, -1.0, 0.5];
        for total in [1.0, 10.0, 50.0] {
            let ((r1, x1), (r2, x2)) =
                both(&q, &gamma, &shift, Unbounded, TotalMode::Fixed { total });
            assert!(
                (r1.lambda - r2.lambda).abs() <= 1e-10 * (1.0 + r1.lambda.abs()),
                "λ {} vs {}",
                r1.lambda,
                r2.lambda
            );
            for j in 0..4 {
                assert!((x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()));
            }
        }
    }

    #[test]
    fn quickselect_boxed_all_entries_at_bounds() {
        let q = [1.0, 5.0, 2.0];
        let gamma = [1.0, 2.0, 0.5];
        let shift = [0.0, 0.1, -0.2];
        let lo = [0.5, 1.0, 1.5];
        let hi = [2.0, 3.0, 2.5];
        let slo: f64 = lo.iter().sum();
        let shi: f64 = hi.iter().sum();
        // total = Σlo pins every entry at its lower bound; total = Σhi at the
        // upper bound. Both sit on flat segments of the breakpoint function.
        for total in [slo, shi] {
            let ((r1, x1), (r2, x2)) = both(
                &q,
                &gamma,
                &shift,
                boxed(&lo, &hi),
                TotalMode::Fixed { total },
            );
            for j in 0..3 {
                assert!(
                    (x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()),
                    "total={total} j={j}: {} vs {}",
                    x1[j],
                    x2[j]
                );
            }
            let sum: f64 = x2.iter().sum();
            assert!((sum - total).abs() <= 1e-9 * (1.0 + total.abs()));
            let (_, _) = (r1, r2);
        }
    }

    #[test]
    fn quickselect_boxed_pinned_entries() {
        // lo == hi entries contribute two coincident events with opposite
        // slopes; their net effect must cancel identically.
        let q = [1.0, 2.0, 3.0];
        let gamma = [1.0, 1.0, 1.0];
        let shift = [0.0; 3];
        let lo = [1.5, 0.0, 2.0];
        let hi = [1.5, 4.0, 2.0];
        let ((_, x1), (r2, x2)) = both(
            &q,
            &gamma,
            &shift,
            boxed(&lo, &hi),
            TotalMode::Fixed { total: 6.0 },
        );
        assert!((x2[0] - 1.5).abs() < 1e-12 && (x2[2] - 2.0).abs() < 1e-12);
        assert!((x2[1] - 2.5).abs() < 1e-9);
        for j in 0..3 {
            assert!((x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()));
        }
        let _ = r2;
    }

    /// Quickselect solve through the pass entry, warm-started from `hint`
    /// when one is given.
    fn warm<B: Bounds>(
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        bounds: B,
        mode: TotalMode,
        hint: Option<f64>,
    ) -> (EquilibrationResult, Vec<f64>, KernelCounters) {
        let mut sc = EquilibrationScratch::new();
        let mut x = vec![0.0; q.len()];
        let r = exact_equilibration_hinted(
            KernelKind::Quickselect,
            q,
            gamma,
            shift,
            bounds,
            mode,
            hint,
            Some(&mut x),
            &mut sc,
        )
        .unwrap();
        (r, x, sc.stats)
    }

    #[test]
    fn warm_hit_costs_one_round_and_a_miss_falls_through() {
        let q = [1.0, 2.0, 3.0, 4.0];
        let gamma = [1.0; 4];
        let shift = [0.0; 4];
        let mode = TotalMode::Fixed { total: 12.0 };
        // Every entry active at the root λ = 1 (xⱼ = qⱼ + ½): any hint at
        // or above the last breakpoint (−2) hits on the first pass.
        let (r, x, stats) = warm(&q, &gamma, &shift, Unbounded, mode, Some(1.5));
        assert_eq!(stats.quickselect_pivots, 1);
        assert!((r.lambda - 1.0).abs() < 1e-12);
        assert!((x[0] - 1.5).abs() < 1e-12);
        // Below every breakpoint the fixed-total segment is flat: a miss,
        // counted as one round, then the full selection.
        let (r, _, stats) = warm(&q, &gamma, &shift, Unbounded, mode, Some(-100.0));
        assert!(stats.quickselect_pivots > 1);
        assert!((r.lambda - 1.0).abs() < 1e-12);
    }

    #[test]
    fn warm_boxed_hit_costs_one_round_and_a_flat_segment_misses() {
        let q = [1.0, 2.0, 3.0, 4.0];
        let gamma = [1.0; 4];
        let shift = [0.0; 4];
        let (lo, hi) = ([0.0; 4], [10.0; 4]);
        let mode = TotalMode::Fixed { total: 12.0 };
        // Lower events at −2qⱼ, upper events at 2(10 − qⱼ) ∈ [12, 18]; the
        // root λ = 1 has every entry inside its box (xⱼ = qⱼ + ½).
        let (r, x, stats) = warm(&q, &gamma, &shift, boxed(&lo, &hi), mode, Some(1.5));
        assert_eq!(stats.quickselect_pivots, 1);
        assert!((r.lambda - 1.0).abs() < 1e-12);
        assert!((x[0] - 1.5).abs() < 1e-12);
        // Below every event (all at lo) and above every event (all at hi)
        // the fixed-total segment is flat: a miss, counted as one round,
        // then the full selection.
        for hint in [-100.0, 100.0] {
            let (r, _, stats) = warm(&q, &gamma, &shift, boxed(&lo, &hi), mode, Some(hint));
            assert!(stats.quickselect_pivots > 1, "hint {hint}");
            assert!((r.lambda - 1.0).abs() < 1e-12, "hint {hint}");
        }
        // On [12, 14] the last entry sits at hi: that segment's line meets
        // the total at λ = −8/3, outside the bracket, so it misses too.
        let (r, _, stats) = warm(&q, &gamma, &shift, boxed(&lo, &hi), mode, Some(13.0));
        assert!(stats.quickselect_pivots > 1);
        assert!((r.lambda - 1.0).abs() < 1e-12);
        let (cold, _, stats) = warm(&q, &gamma, &shift, boxed(&lo, &hi), mode, None);
        assert!(stats.quickselect_pivots > 1);
        assert_eq!(cold.lambda.to_bits(), r.lambda.to_bits());
    }

    /// The plain kernel's warm check as it was before it was fused into
    /// the entry loop: one pass over the filled event array. Kept as the
    /// reference [`warm_segment`] must match bit for bit.
    fn reference_warm_segment(events: &[SelectEvent], hint: f64, mode: TotalMode) -> Option<f64> {
        const W: usize = 4;
        let (mut a, mut b) = ([0.0_f64; W], [0.0_f64; W]);
        let (mut lo, mut hi) = ([f64::NEG_INFINITY; W], [f64::INFINITY; W]);
        let mut fold = |k: usize, e: &SelectEvent| {
            let below = e.v <= hint;
            a[k] += if below { e.da } else { 0.0 };
            b[k] += if below { e.db } else { 0.0 };
            lo[k] = if below { lo[k].max(e.v) } else { lo[k] };
            hi[k] = if below { hi[k] } else { hi[k].min(e.v) };
        };
        let mut chunks = events.chunks_exact(W);
        for chunk in &mut chunks {
            for (k, e) in chunk.iter().enumerate() {
                fold(k, e);
            }
        }
        for (k, e) in chunks.remainder().iter().enumerate() {
            fold(k, e);
        }
        let (a, b) = ((a[0] + a[1]) + (a[2] + a[3]), (b[0] + b[1]) + (b[2] + b[3]));
        let seg_lo = lo[0].max(lo[1]).max(lo[2].max(lo[3]));
        let seg_hi = hi[0].min(hi[1]).min(hi[2].min(hi[3]));
        let root = match mode {
            TotalMode::Fixed { total } if b > 0.0 => (total - a) / b,
            TotalMode::Fixed { .. } => return None,
            TotalMode::Elastic { .. } => {
                let (el_slope, el_const) = elastic_constants(mode);
                (el_const - a) / (b + el_slope)
            }
        };
        (seg_lo <= root && root <= seg_hi).then_some(root)
    }

    /// The boxed kernel's warm check before fusion, over `(lower, upper)`
    /// event pairs: the reference for [`warm_segment`] with [`Interval`].
    fn reference_warm_boxed_segment(
        events: &[SelectEvent],
        base: f64,
        hint: f64,
        mode: TotalMode,
    ) -> Option<f64> {
        const W: usize = 4;
        let (mut a, mut b) = ([0.0_f64; W], [0.0_f64; W]);
        let (mut lo, mut hi) = ([f64::NEG_INFINITY; W], [f64::INFINITY; W]);
        let mut fold = |k: usize, pair: &[SelectEvent]| {
            let (l, u) = (&pair[0], &pair[1]);
            let (below_l, below_u) = (l.v <= hint, u.v <= hint);
            a[k] += (if below_l { l.da } else { 0.0 }) + (if below_u { u.da } else { 0.0 });
            b[k] += if below_l && !below_u { l.db } else { 0.0 };
            lo[k] = lo[k]
                .max(if below_l { l.v } else { f64::NEG_INFINITY })
                .max(if below_u { u.v } else { f64::NEG_INFINITY });
            hi[k] = hi[k]
                .min(if below_l { f64::INFINITY } else { l.v })
                .min(if below_u { f64::INFINITY } else { u.v });
        };
        let mut chunks = events.chunks_exact(2 * W);
        for chunk in &mut chunks {
            for (k, pair) in chunk.chunks_exact(2).enumerate() {
                fold(k, pair);
            }
        }
        for (k, pair) in chunks.remainder().chunks_exact(2).enumerate() {
            fold(k, pair);
        }
        let a = base + ((a[0] + a[1]) + (a[2] + a[3]));
        let b = (b[0] + b[1]) + (b[2] + b[3]);
        let seg_lo = lo[0].max(lo[1]).max(lo[2].max(lo[3]));
        let seg_hi = hi[0].min(hi[1]).min(hi[2].min(hi[3]));
        let root = match mode {
            TotalMode::Fixed { total } if b > 0.0 => (total - a) / b,
            TotalMode::Fixed { .. } => return None,
            TotalMode::Elastic { .. } => {
                let (el_slope, el_const) = elastic_constants(mode);
                (el_const - a) / (b + el_slope)
            }
        };
        (seg_lo <= root && root <= seg_hi).then_some(root)
    }

    /// The hinted selection as it ran before fusion: fill every event, take
    /// the reference warm check's answer `warm` (one round), and select on a
    /// miss. Returns the raw λ and the partition rounds.
    fn reference_hinted_lambda<B: Bounds>(
        warm: Option<f64>,
        events: &mut [SelectEvent],
        base: f64,
        mode: TotalMode,
    ) -> (f64, u64) {
        if let Some(lambda) = warm {
            return (lambda, 1);
        }
        let mut pivots = 1;
        let lambda = select_lambda::<B>(events, base, mode, &mut pivots).unwrap_or(f64::NAN);
        (lambda, pivots)
    }

    /// Entry `(q, γ, shift)`'s one event as the nonnegative kernel built it
    /// before the kernel was generic over its bounds.
    fn reference_plain_event(qj: f64, gj: f64, sj: f64) -> SelectEvent {
        let inv2g = 1.0 / (2.0 * gj);
        SelectEvent {
            v: -2.0 * gj * qj - sj,
            da: qj + sj * inv2g,
            db: inv2g,
        }
    }

    /// Entry `(q, γ, shift, lo, hi)`'s `(lower, upper)` event pair as the
    /// boxed kernel built it before the kernel was generic over its bounds.
    fn reference_boxed_events(qj: f64, gj: f64, sj: f64, lj: f64, hj: f64) -> [SelectEvent; 2] {
        let inv2g = 1.0 / (2.0 * gj);
        let interior = qj + sj * inv2g;
        [
            SelectEvent {
                v: 2.0 * gj * (lj - qj) - sj,
                da: interior - lj,
                db: inv2g,
            },
            SelectEvent {
                v: 2.0 * gj * (hj - qj) - sj,
                da: hj - interior,
                db: -inv2g,
            },
        ]
    }

    /// Bits of a warm check's answer: `None` for a miss.
    fn hit_bits(r: Option<f64>) -> Option<u64> {
        r.map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The warm path against the sort-scan oracle, in fixed and elastic
        /// modes, over tied breakpoints and single-entry rows, from hints
        /// anywhere: non-finite, zero, the root, near it, and random.
        /// Hints inside the root's segment must all give the same bits.
        #[test]
        fn warm_start_matches_sort_scan(
            n in 1usize..60,
            seed in 0u64..2000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x3A1D);
            let n = if seed % 8 == 0 { 1 } else { n };
            let tie_grid = seed % 2 == 0;
            let snap = |v: f64| if tie_grid { (v * 2.0).round() / 2.0 } else { v };
            let q: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-5.0..10.0))).collect();
            let gamma: Vec<f64> = (0..n)
                .map(|_| if tie_grid { 1.0 } else { rng.random_range(0.05..5.0) })
                .collect();
            let shift: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-3.0..3.0))).collect();
            let mode = if seed % 3 == 0 {
                TotalMode::Elastic {
                    alpha: rng.random_range(0.05..5.0),
                    prior: rng.random_range(-5.0..30.0),
                    cross: rng.random_range(-2.0..2.0),
                }
            } else {
                TotalMode::Fixed { total: rng.random_range(0.0..40.0) }
            };
            let (r_ref, x_ref) = oracle(&q, &gamma, &shift, mode);
            let lam = r_ref.lambda;
            // λ is unique whenever some entry is active or the total is elastic.
            let unique = r_ref.active > 0 || matches!(mode, TotalMode::Elastic { .. });

            let mut hints = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, lam];
            for delta in [1e-9, 1e-3, 0.5, 10.0] {
                hints.push(lam + delta * (1.0 + lam.abs()));
                hints.push(lam - delta * (1.0 + lam.abs()));
            }
            hints.extend((0..4).map(|_| rng.random_range(-50.0..50.0)));
            for &hint in &hints {
                let (r, x, stats) = warm(&q, &gamma, &shift, Unbounded, mode, Some(hint));
                prop_assert!(stats.quickselect_pivots >= 1, "warm attempt not counted");
                if unique {
                    prop_assert!(
                        (r.lambda - lam).abs() <= 1e-10 * (1.0 + lam.abs()),
                        "hint {}: λ {} vs oracle {}", hint, r.lambda, lam
                    );
                }
                for j in 0..n {
                    prop_assert!(
                        (x[j] - x_ref[j]).abs() <= 1e-10 * (1.0 + x_ref[j].abs()),
                        "hint {}: x[{}] {} vs oracle {}", hint, j, x[j], x_ref[j]
                    );
                }
                check_kkt(&q, &gamma, &shift, &x, r.lambda, 1e-8);
            }

            // The root's segment: every hint in it sums the same events.
            let bps: Vec<f64> = (0..n).map(|j| -2.0 * gamma[j] * q[j] - shift[j]).collect();
            let seg_lo = bps.iter().copied().filter(|&v| v <= lam).fold(f64::NEG_INFINITY, f64::max);
            let seg_hi = bps.iter().copied().filter(|&v| v > lam).fold(f64::INFINITY, f64::min);
            let mut same_segment = vec![lam];
            if seg_lo.is_finite() {
                same_segment.push(seg_lo);
                same_segment.push(0.5 * (seg_lo + lam));
            }
            same_segment.push(if seg_hi.is_finite() { 0.5 * (lam + seg_hi) } else { lam + 1.0 });
            let first = warm(&q, &gamma, &shift, Unbounded, mode, Some(same_segment[0]));
            for &hint in &same_segment[1..] {
                let (r, x, _) = warm(&q, &gamma, &shift, Unbounded, mode, Some(hint));
                prop_assert_eq!(r.lambda.to_bits(), first.0.lambda.to_bits());
                prop_assert_eq!(
                    x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    first.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }

        /// The boxed warm path against the cold boxed selection, in fixed
        /// and elastic modes, over four kinds of row: tie grids, rows with
        /// `lo == hi` entries, rows pinned entirely at their bounds (flat
        /// segments), and single-entry rows.
        #[test]
        fn warm_boxed_matches_cold(
            n in 1usize..60,
            seed in 0u64..2000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xB0A7);
            let kind = seed % 4;
            let n = if kind == 3 { 1 } else { n };
            let tie_grid = kind == 0;
            let snap = |v: f64| if tie_grid { (v * 2.0).round() / 2.0 } else { v };
            let q: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-5.0..10.0))).collect();
            let gamma: Vec<f64> = (0..n)
                .map(|_| if tie_grid { 1.0 } else { rng.random_range(0.05..5.0) })
                .collect();
            let shift: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-3.0..3.0))).collect();
            let lo: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-1.0..2.0))).collect();
            let hi: Vec<f64> = lo
                .iter()
                .map(|&l| {
                    if kind == 1 && rng.random_range(0.0..1.0) < 0.3 {
                        l
                    } else {
                        l + snap(rng.random_range(0.1..5.0)).max(0.5)
                    }
                })
                .collect();
            let (slo, shi): (f64, f64) = (lo.iter().sum(), hi.iter().sum());
            let mode = if seed % 3 == 0 {
                // A far prior pins the whole row at one end of its boxes.
                let prior = if kind == 2 {
                    if seed % 2 == 0 { -1e3 } else { 1e3 }
                } else {
                    rng.random_range(slo - 5.0..shi + 5.0)
                };
                TotalMode::Elastic {
                    alpha: rng.random_range(0.05..5.0),
                    prior,
                    cross: rng.random_range(-2.0..2.0),
                }
            } else if kind == 2 {
                TotalMode::Fixed { total: if seed % 2 == 0 { slo } else { shi } }
            } else {
                TotalMode::Fixed { total: rng.random_range(slo..=shi) }
            };
            let (r_ref, x_ref, _) = warm(&q, &gamma, &shift, boxed(&lo, &hi), mode, None);
            let lam = r_ref.lambda;
            // λ is unique whenever some entry is inside its box or the total
            // is elastic.
            let unique = r_ref.active > 0 || matches!(mode, TotalMode::Elastic { .. });

            let mut hints = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, lam];
            for delta in [1e-9, 1e-3, 0.5, 10.0] {
                hints.push(lam + delta * (1.0 + lam.abs()));
                hints.push(lam - delta * (1.0 + lam.abs()));
            }
            hints.extend((0..4).map(|_| rng.random_range(-50.0..50.0)));
            for &hint in &hints {
                let (r, x, stats) = warm(&q, &gamma, &shift, boxed(&lo, &hi), mode, Some(hint));
                prop_assert!(stats.quickselect_pivots >= 1, "warm attempt not counted");
                if unique {
                    prop_assert!(
                        (r.lambda - lam).abs() <= 1e-10 * (1.0 + lam.abs()),
                        "hint {}: λ {} vs cold {}", hint, r.lambda, lam
                    );
                }
                for j in 0..n {
                    prop_assert!(
                        (x[j] - x_ref[j]).abs() <= 1e-10,
                        "hint {}: x[{}] {} vs cold {}", hint, j, x[j], x_ref[j]
                    );
                    prop_assert!(lo[j] <= x[j] && x[j] <= hi[j], "hint {}: x[{}] outside its box", hint, j);
                }
                let sum: f64 = x.iter().sum();
                prop_assert!(
                    (sum - r.total).abs() <= 1e-9 * (1.0 + r.total.abs()),
                    "hint {}: Σx {} vs total {}", hint, sum, r.total
                );
            }

            // The root's segment: every hint in it sums the same events.
            let events: Vec<f64> = (0..n)
                .flat_map(|j| {
                    [lo[j], hi[j]].map(|b| 2.0 * gamma[j] * (b - q[j]) - shift[j])
                })
                .collect();
            let seg_lo = events.iter().copied().filter(|&v| v <= lam).fold(f64::NEG_INFINITY, f64::max);
            let seg_hi = events.iter().copied().filter(|&v| v > lam).fold(f64::INFINITY, f64::min);
            let mut same_segment = vec![lam];
            if seg_lo.is_finite() {
                same_segment.push(seg_lo);
                same_segment.push(0.5 * (seg_lo + lam));
            }
            same_segment.push(if seg_hi.is_finite() { 0.5 * (lam + seg_hi) } else { lam + 1.0 });
            let first = warm(&q, &gamma, &shift, boxed(&lo, &hi), mode, Some(same_segment[0]));
            for &hint in &same_segment[1..] {
                let (r, x, _) = warm(&q, &gamma, &shift, boxed(&lo, &hi), mode, Some(hint));
                prop_assert_eq!(r.lambda.to_bits(), first.0.lambda.to_bits());
                prop_assert_eq!(
                    x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    first.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }

        /// The fused warm tests against the event-array references they
        /// replace: the same hit or miss, the same λ bits and the same
        /// partition rounds, for the plain and boxed kernels, with the
        /// shift read in place and through a column index, in fixed and
        /// elastic modes. Rows of 1–9 entries exercise every lane
        /// remainder; cases cover tie grids, flat segments (a zero plain
        /// total, boxed totals at `Σ lo` or `Σ hi`), `lo == hi` entries,
        /// non-finite hints and hints on a breakpoint.
        #[test]
        fn fused_warm_tests_match_event_array_references(
            n in 1usize..10,
            seed in 0u64..4000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xF05E);
            let tie_grid = seed % 3 == 0;
            let snap = |v: f64| if tie_grid { (v * 2.0).round() / 2.0 } else { v };
            let q: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-5.0..10.0))).collect();
            let gamma: Vec<f64> = (0..n)
                .map(|_| if tie_grid { 1.0 } else { rng.random_range(0.05..5.0) })
                .collect();
            // The opposite side's multipliers and a column index into them.
            let src: Vec<f64> = (0..n + 3).map(|_| snap(rng.random_range(-3.0..3.0))).collect();
            let idx: Vec<u32> = (0..n).map(|_| rng.random_range(0..n as u32 + 3)).collect();
            let dense: Vec<f64> = idx.iter().map(|&j| src[j as usize]).collect();
            let indexed = IndexedShift { src: &src, idx: &idx };
            let lo: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-1.0..2.0))).collect();
            let hi: Vec<f64> = lo
                .iter()
                .map(|&l| {
                    if rng.random_range(0.0..1.0) < 0.25 {
                        l
                    } else {
                        l + snap(rng.random_range(0.1..5.0)).max(0.5)
                    }
                })
                .collect();
            let (slo, shi): (f64, f64) = (lo.iter().sum(), hi.iter().sum());
            let elastic = seed % 2 == 0;
            let elastic_mode = |rng: &mut rand_chacha::ChaCha8Rng, prior: f64| TotalMode::Elastic {
                alpha: rng.random_range(0.05..5.0),
                prior,
                cross: rng.random_range(-2.0..2.0),
            };
            let plain_mode = if elastic {
                let prior = rng.random_range(-5.0..30.0);
                elastic_mode(&mut rng, prior)
            } else if seed % 5 == 1 {
                TotalMode::Fixed { total: 0.0 }
            } else {
                TotalMode::Fixed { total: rng.random_range(0.0..40.0) }
            };
            let boxed_mode = match (elastic, seed % 5) {
                (true, 1) => elastic_mode(&mut rng, if seed % 4 == 0 { -1e3 } else { 1e3 }),
                (true, _) => {
                    let prior = rng.random_range(slo - 5.0..shi + 5.0);
                    elastic_mode(&mut rng, prior)
                }
                (false, 1) => TotalMode::Fixed { total: slo },
                (false, 2) => TotalMode::Fixed { total: shi },
                (false, _) => TotalMode::Fixed { total: rng.random_range(slo..=shi) },
            };

            let plain_events: Vec<SelectEvent> = (0..n)
                .map(|k| reference_plain_event(q[k], gamma[k], dense[k]))
                .collect();
            let boxed_pairs: Vec<SelectEvent> = (0..n)
                .flat_map(|k| reference_boxed_events(q[k], gamma[k], dense[k], lo[k], hi[k]))
                .collect();
            let bx = boxed(&lo, &hi);
            // Hints: non-finite, zero, every breakpoint (ties with the
            // hint), the cold roots and points near them, and random ones.
            let mut hints = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0];
            hints.extend(plain_events.iter().chain(&boxed_pairs).map(|e| e.v));
            let mut pivots = 0;
            let cold = [
                select_lambda::<Unbounded>(&mut plain_events.clone(), 0.0, plain_mode, &mut pivots),
                select_lambda::<Interval>(&mut boxed_pairs.clone(), slo, boxed_mode, &mut pivots),
            ];
            for root in cold.into_iter().flatten().filter(|r| r.is_finite()) {
                hints.push(root);
                for delta in [1e-9, 1e-3, 0.5] {
                    hints.push(root + delta * (1.0 + root.abs()));
                    hints.push(root - delta * (1.0 + root.abs()));
                }
            }
            hints.extend((0..4).map(|_| rng.random_range(-50.0..50.0)));

            for &hint in &hints {
                // The warm tests alone.
                let plain_warm = reference_warm_segment(&plain_events, hint, plain_mode);
                let want = hit_bits(plain_warm);
                prop_assert_eq!(hit_bits(warm_segment(&q, &gamma, &dense[..], Unbounded, hint, plain_mode)), want);
                prop_assert_eq!(hit_bits(warm_segment(&q, &gamma, indexed, Unbounded, hint, plain_mode)), want);
                let boxed_warm = reference_warm_boxed_segment(&boxed_pairs, slo, hint, boxed_mode);
                let want = hit_bits(boxed_warm);
                prop_assert_eq!(hit_bits(warm_segment(&q, &gamma, &dense[..], bx, hint, boxed_mode)), want);
                prop_assert_eq!(hit_bits(warm_segment(&q, &gamma, indexed, bx, hint, boxed_mode)), want);

                // The hinted selection: same λ bits, same rounds.
                let (want, want_pivots) = reference_hinted_lambda::<Unbounded>(
                    plain_warm, &mut plain_events.clone(), 0.0, plain_mode,
                );
                for indexed_shift in [false, true] {
                    let mut sc = EquilibrationScratch::new();
                    let got = if indexed_shift {
                        lambda_quickselect(&q, &gamma, indexed, Unbounded, plain_mode, Some(hint), &mut sc)
                    } else {
                        lambda_quickselect(&q, &gamma, &dense[..], Unbounded, plain_mode, Some(hint), &mut sc)
                    };
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "plain, hint {}", hint);
                    prop_assert_eq!(sc.stats.quickselect_pivots, want_pivots);
                }
                let (want, want_pivots) = reference_hinted_lambda::<Interval>(
                    boxed_warm, &mut boxed_pairs.clone(), slo, boxed_mode,
                );
                for indexed_shift in [false, true] {
                    let mut sc = EquilibrationScratch::new();
                    let got = if indexed_shift {
                        lambda_quickselect(&q, &gamma, indexed, bx, boxed_mode, Some(hint), &mut sc)
                    } else {
                        lambda_quickselect(&q, &gamma, &dense[..], bx, boxed_mode, Some(hint), &mut sc)
                    };
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "boxed, hint {}", hint);
                    prop_assert_eq!(sc.stats.quickselect_pivots, want_pivots);
                }
            }
        }

        #[test]
        fn fixed_matches_bisection(
            n in 1usize..40,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let q: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..10.0)).collect();
            let gamma: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..5.0)).collect();
            let shift: Vec<f64> = (0..n).map(|_| rng.random_range(-3.0..3.0)).collect();
            let total = rng.random_range(0.0..30.0);
            let mode = TotalMode::Fixed { total };
            let (r, x) = oracle(&q, &gamma, &shift, mode);
            let (lam_ref, x_ref) = bisect_reference(&q, &gamma, &shift, mode);
            // Feasibility.
            let sum: f64 = x.iter().sum();
            prop_assert!((sum - total).abs() <= 1e-8 * (1.0 + total.abs()), "sum {} vs {}", sum, total);
            // Multiplier and solution agreement (λ can be non-unique only in
            // degenerate all-zero cases; compare solutions instead).
            for j in 0..n {
                prop_assert!((x[j] - x_ref[j]).abs() <= 1e-5 * (1.0 + x_ref[j].abs()));
            }
            if total > 1e-9 {
                prop_assert!((r.lambda - lam_ref).abs() <= 1e-4 * (1.0 + lam_ref.abs()));
            }
            check_kkt(&q, &gamma, &shift, &x, r.lambda, 1e-6);
        }

        #[test]
        fn elastic_matches_bisection(
            n in 1usize..40,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let q: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..10.0)).collect();
            let gamma: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..5.0)).collect();
            let shift: Vec<f64> = (0..n).map(|_| rng.random_range(-3.0..3.0)).collect();
            let alpha = rng.random_range(0.05..5.0);
            let prior = rng.random_range(-5.0..30.0);
            let cross = rng.random_range(-2.0..2.0);
            let mode = TotalMode::Elastic { alpha, prior, cross };
            let (r, x) = oracle(&q, &gamma, &shift, mode);
            let (lam_ref, _x_ref) = bisect_reference(&q, &gamma, &shift, mode);
            prop_assert!((r.lambda - lam_ref).abs() <= 1e-5 * (1.0 + lam_ref.abs()));
            // Realized total equals the elastic stationarity value and the
            // entry sum simultaneously.
            let sum: f64 = x.iter().sum();
            prop_assert!((sum - r.total).abs() <= 1e-8 * (1.0 + r.total.abs()));
            let s_stat = prior - (r.lambda + cross) / (2.0 * alpha);
            prop_assert!((r.total - s_stat).abs() <= 1e-8 * (1.0 + s_stat.abs()));
            check_kkt(&q, &gamma, &shift, &x, r.lambda, 1e-6);
        }

        #[test]
        fn boxed_feasible_and_kkt(
            n in 1usize..30,
            seed in 0u64..500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xB0C5);
            let q: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..10.0)).collect();
            let gamma: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..5.0)).collect();
            let shift: Vec<f64> = (0..n).map(|_| rng.random_range(-3.0..3.0)).collect();
            let lo: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..2.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|&l| l + rng.random_range(0.1..5.0)).collect();
            let slo: f64 = lo.iter().sum();
            let shi: f64 = hi.iter().sum();
            let total = rng.random_range(slo..=shi);
            let bounds = Some((&lo[..], &hi[..]));
            let (r, x) = solve(KernelKind::SortScan, &q, &gamma, &shift, bounds, TotalMode::Fixed { total }).unwrap();
            let sum: f64 = x.iter().sum();
            prop_assert!((sum - total).abs() <= 1e-6 * (1.0 + total.abs()), "sum {} vs total {}", sum, total);
            for j in 0..n {
                prop_assert!(x[j] >= lo[j] - 1e-9 && x[j] <= hi[j] + 1e-9);
                let grad = 2.0 * gamma[j] * (x[j] - q[j]) - shift[j] - r.lambda;
                if x[j] > lo[j] + 1e-7 && x[j] < hi[j] - 1e-7 {
                    prop_assert!(grad.abs() <= 1e-5 * (1.0 + grad.abs()));
                } else if x[j] <= lo[j] + 1e-7 {
                    prop_assert!(grad >= -1e-6 * (1.0 + gamma[j]));
                } else {
                    prop_assert!(grad <= 1e-6 * (1.0 + gamma[j]));
                }
            }
        }

        /// Differential test: the quickselect kernel must reproduce the
        /// sort-scan oracle on adversarial plain subproblems. Half the cases
        /// snap inputs to a coarse grid so breakpoints collide.
        #[test]
        fn quickselect_differential_plain(
            n in 1usize..60,
            seed in 0u64..1500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5E1EC7);
            let tie_grid = seed % 2 == 0;
            let snap = |v: f64| if tie_grid { (v * 2.0).round() / 2.0 } else { v };
            let q: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-5.0..10.0))).collect();
            let gamma: Vec<f64> = (0..n)
                .map(|_| {
                    // Occasionally near-degenerate weights.
                    if rng.random_range(0.0..1.0) < 0.1 {
                        rng.random_range(1e-6..1e-4)
                    } else {
                        rng.random_range(0.05..5.0)
                    }
                })
                .collect();
            let shift: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-3.0..3.0))).collect();
            // Mix binding (small/zero totals) with slack (large) constraints.
            let total = match seed % 4 {
                0 => 0.0,
                1 => rng.random_range(0.0..2.0),
                _ => rng.random_range(0.0..40.0),
            };
            let mode = TotalMode::Fixed { total };
            let ((r1, x1), (r2, x2)) = both(&q, &gamma, &shift, Unbounded, mode);
            for j in 0..n {
                prop_assert!(
                    (x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()),
                    "x[{}]: sortscan {} vs quickselect {}", j, x1[j], x2[j]
                );
            }
            // λ is unique whenever some entry is strictly active.
            if r1.active > 0 {
                prop_assert!(
                    (r1.lambda - r2.lambda).abs() <= 1e-9 * (1.0 + r1.lambda.abs()),
                    "λ: {} vs {}", r1.lambda, r2.lambda
                );
            }
            check_kkt(&q, &gamma, &shift, &x2, r2.lambda, 1e-6);
        }

        /// Elastic-mode differential: λ is always unique here (the elastic
        /// term adds strictly positive slope), so both λ and x must agree.
        #[test]
        fn quickselect_differential_elastic(
            n in 1usize..60,
            seed in 0u64..1500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xE1A57C);
            let tie_grid = seed % 2 == 0;
            let snap = |v: f64| if tie_grid { v.round() } else { v };
            let q: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-5.0..10.0))).collect();
            let gamma: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..5.0)).collect();
            let shift: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-3.0..3.0))).collect();
            let mode = TotalMode::Elastic {
                alpha: rng.random_range(0.05..5.0),
                prior: rng.random_range(-5.0..30.0),
                cross: rng.random_range(-2.0..2.0),
            };
            let ((r1, x1), (r2, x2)) = both(&q, &gamma, &shift, Unbounded, mode);
            prop_assert!(
                (r1.lambda - r2.lambda).abs() <= 1e-9 * (1.0 + r1.lambda.abs()),
                "λ: {} vs {}", r1.lambda, r2.lambda
            );
            prop_assert!((r1.total - r2.total).abs() <= 1e-9 * (1.0 + r1.total.abs()));
            for j in 0..n {
                prop_assert!(
                    (x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()),
                    "x[{}]: {} vs {}", j, x1[j], x2[j]
                );
            }
        }

        /// Boxed differential: compare solutions (λ may legitimately differ
        /// on flat tie segments where any multiplier in an interval is a
        /// valid KKT certificate — x is unique, λ is not).
        #[test]
        fn quickselect_differential_boxed(
            n in 1usize..40,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xB0CED);
            let tie_grid = seed % 2 == 0;
            let snap = |v: f64| if tie_grid { (v * 2.0).round() / 2.0 } else { v };
            let q: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-5.0..10.0))).collect();
            let gamma: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..5.0)).collect();
            let shift: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-3.0..3.0))).collect();
            let lo: Vec<f64> = (0..n).map(|_| snap(rng.random_range(0.0..2.0))).collect();
            let hi: Vec<f64> = lo
                .iter()
                .map(|&l| {
                    // Some entries pinned (lo == hi), most with real slack.
                    if rng.random_range(0.0..1.0) < 0.15 {
                        l
                    } else {
                        l + snap(rng.random_range(0.1..5.0)).max(0.1)
                    }
                })
                .collect();
            let slo: f64 = lo.iter().sum();
            let shi: f64 = hi.iter().sum();
            // Include the exact endpoints: all-at-lower / all-at-upper rows.
            let total = match seed % 5 {
                0 => slo,
                1 => shi,
                _ => rng.random_range(slo..=shi),
            };
            let mode = TotalMode::Fixed { total };
            let ((_r1, x1), (r2, x2)) = both(&q, &gamma, &shift, boxed(&lo, &hi), mode);
            for j in 0..n {
                prop_assert!(
                    (x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()),
                    "x[{}]: sortscan {} vs quickselect {}", j, x1[j], x2[j]
                );
                prop_assert!(x2[j] >= lo[j] - 1e-9 && x2[j] <= hi[j] + 1e-9);
            }
            let sum: f64 = x2.iter().sum();
            prop_assert!((sum - total).abs() <= 1e-6 * (1.0 + total.abs()));
            let _ = r2;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Bounds `[0, +∞)` make the boxed subproblem the nonnegative one,
        /// so each kernel must return the plain kernel's λ: sort-scan bit
        /// for bit, quickselect to 1e-12 relative. Upper events at `+∞`
        /// are never crossed; a selection that pivots on one folds an
        /// infinite intercept and answers `Ok` with λ = −√f64::MAX.
        #[test]
        fn infinite_upper_bounds_match_the_plain_kernel(
            n in 1usize..200,
            seed in 0u64..4000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x1AF1);
            let q: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..10.0)).collect();
            let gamma: Vec<f64> = (0..n).map(|_| rng.random_range(0.1..1.1)).collect();
            let shift: Vec<f64> = (0..n).map(|_| rng.random_range(-3.0..3.0)).collect();
            let mode = if seed % 2 == 0 {
                TotalMode::Fixed { total: rng.random_range(0.0..40.0) }
            } else {
                TotalMode::Elastic {
                    alpha: rng.random_range(0.05..5.0),
                    prior: rng.random_range(-5.0..30.0),
                    cross: rng.random_range(-2.0..2.0),
                }
            };
            let (lo, hi) = (vec![0.0; n], vec![f64::INFINITY; n]);
            for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
                let lambda = |bounds| solve(kernel, &q, &gamma, &shift, bounds, mode).unwrap().0.lambda;
                let (plain, boxed) = (lambda(None), lambda(Some((&lo[..], &hi[..]))));
                if kernel == KernelKind::SortScan {
                    prop_assert_eq!(boxed.to_bits(), plain.to_bits(), "sort-scan λ {} vs {}", boxed, plain);
                } else {
                    prop_assert!(
                        (boxed - plain).abs() <= 1e-12 * (1.0 + plain.abs()),
                        "quickselect λ {} vs {}", boxed, plain
                    );
                }
            }
        }
    }
}
