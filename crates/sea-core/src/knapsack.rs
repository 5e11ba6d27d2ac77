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
//! A box-bounded variant ([`exact_equilibration_boxed`]) supports the
//! Ohuchi–Kaji (1984) bounded model and Harrigan–Buchanan (1984) interval
//! constraints.
//!
//! Passes call the crate-internal entries [`exact_equilibration_hinted`]
//! and [`exact_equilibration_boxed_hinted`]. They read the shift in place
//! or through a sparse row's column index ([`Shift`]), and start the
//! quickselect kernel from the subproblem's previous multiplier. The warm
//! test ([`warm_segment`], [`warm_boxed_segment`]) computes each entry's
//! breakpoints in registers in one pass over the row; only on a miss does
//! the kernel fill its event array and select. A pass that keeps no
//! iterate passes no output row, and the plain kernel then returns λ and
//! the total without materializing the entries.

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
struct SelectEvent {
    v: f64,
    da: f64,
    db: f64,
}

/// Entry `(q, γ, shift)`'s one event in the plain kernel. The warm test
/// and the event fill both build events here, so they see the same bits.
#[inline(always)]
fn plain_event(qj: f64, gj: f64, sj: f64) -> SelectEvent {
    let inv2g = 1.0 / (2.0 * gj);
    SelectEvent {
        v: -2.0 * gj * qj - sj,
        // Crossing the breakpoint activates xⱼ(λ) = daⱼ + λ·dbⱼ.
        da: qj + sj * inv2g,
        db: inv2g,
    }
}

/// Entry `(q, γ, shift, lo, hi)`'s `(lower, upper)` event pair in the boxed
/// kernel, shared by the warm test and the event fill like [`plain_event`].
#[inline(always)]
fn boxed_events(qj: f64, gj: f64, sj: f64, lj: f64, hj: f64) -> [SelectEvent; 2] {
    let inv2g = 1.0 / (2.0 * gj);
    let interior = qj + sj * inv2g;
    [
        SelectEvent {
            v: 2.0 * gj * (lj - qj) - sj,
            // Leaving the lower bound swaps loⱼ for the interior response.
            da: interior - lj,
            db: inv2g,
        },
        SelectEvent {
            v: 2.0 * gj * (hj - qj) - sj,
            // Saturating at the upper bound freezes the response at hiⱼ.
            da: hj - interior,
            db: -inv2g,
        },
    ]
}

/// The opposite side's multipliers as one subproblem reads them: entry `k`
/// sees `at(k)`. A slice is read in place; [`IndexedShift`] reads a sparse
/// row's (or support list's) entries through its column index, so a pass
/// never gathers them into a buffer first.
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
    breakpoints: Vec<f64>,
    order: Vec<u32>,
    /// Second event array for the boxed variant.
    events_hi: Vec<f64>,
    /// Breakpoint events for the quickselect kernel (plain and boxed).
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
        self.breakpoints.reserve(n);
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
    Ok(())
}

/// Solve the single-constraint subproblem by exact equilibration.
///
/// `q` are the priors, `gamma` the strictly positive quadratic weights,
/// `shift` the opposite-side multipliers, `mode` the total specification.
/// The optimal entries are written to `x_out`.
///
/// ```
/// use sea_core::knapsack::{exact_equilibration, EquilibrationScratch, TotalMode};
///
/// // Spread a total of 9 across priors (1, 2, 3) with unit weights:
/// // every entry shifts by +1.
/// let mut x = [0.0; 3];
/// let mut scratch = EquilibrationScratch::new();
/// let r = exact_equilibration(
///     &[1.0, 2.0, 3.0],
///     &[1.0, 1.0, 1.0],
///     &[0.0, 0.0, 0.0],
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
/// * [`SeaError::InfeasibleSubproblem`] for a fixed positive total with no
///   entries.
/// * [`SeaError::NonPositiveWeight`] if any `gamma` (or elastic `alpha`) is
///   not strictly positive (checked in debug and on the slow path).
pub fn exact_equilibration(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    exact_equilibration_with(KernelKind::SortScan, q, gamma, shift, mode, x_out, scratch)
}

/// [`exact_equilibration`] with an explicit kernel choice.
///
/// [`KernelKind::SortScan`] is the reference oracle; [`KernelKind::Quickselect`]
/// locates the same root segment by in-place selection in expected linear
/// time. Both write the same solution (to floating-point roundoff).
///
/// # Errors
/// Same contract as [`exact_equilibration`].
pub fn exact_equilibration_with(
    kernel: KernelKind,
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    exact_equilibration_hinted(kernel, q, gamma, shift, mode, None, Some(x_out), scratch)
}

/// [`exact_equilibration_with`] for a pass: warm-started from `hint`, the
/// subproblem's previous multiplier, with `shift` read in place or through
/// a column index, and the iterate optional. The quickselect kernel first
/// tries the segment holding `hint` ([`warm_segment`]) and fills and
/// searches its events only when the root lies elsewhere; sort-scan ignores
/// the hint. Given no `x_out`, only λ and the total are computed: the
/// materialization and rounding-correction loops are skipped, and the
/// result's `active` is 0.
#[allow(clippy::too_many_arguments)] // kernel inputs + hint + output + workspace
pub(crate) fn exact_equilibration_hinted(
    kernel: KernelKind,
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    mode: TotalMode,
    hint: Option<f64>,
    x_out: Option<&mut [f64]>,
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    validate_inputs(q, gamma, shift, x_out.as_deref())?;
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
        return match mode {
            TotalMode::Fixed { total } if total > 0.0 => Err(SeaError::InfeasibleSubproblem {
                side: "row",
                index: 0,
            }),
            TotalMode::Fixed { .. } => Ok(EquilibrationResult {
                lambda: 0.0,
                total: 0.0,
                active: 0,
            }),
            TotalMode::Elastic {
                alpha,
                prior,
                cross,
            } => {
                // Only the elastic total remains: s = prior − (λ+cross)/(2α)
                // with s = Σx = 0 ⇒ λ = 2α·prior − cross.
                Ok(EquilibrationResult {
                    lambda: 2.0 * alpha * prior - cross,
                    total: 0.0,
                    active: 0,
                })
            }
        };
    }

    let lambda = match kernel {
        KernelKind::SortScan => plain_lambda_sort_scan(q, gamma, shift, mode, scratch),
        KernelKind::Quickselect => plain_lambda_quickselect(q, gamma, shift, mode, hint, scratch),
    };

    if !lambda.is_finite() {
        // Fixed positive total but every segment exhausted: can only happen
        // when b stays 0, i.e. n == 0 (handled above) — defensive.
        return Err(SeaError::NumericalBreakdown { iteration: 0 });
    }

    let total = match mode {
        TotalMode::Fixed { total } => total,
        TotalMode::Elastic {
            alpha,
            prior,
            cross,
        } => prior - (lambda + cross) / (2.0 * alpha),
    };
    let Some(x_out) = x_out else {
        return Ok(EquilibrationResult {
            lambda,
            total,
            active: 0,
        });
    };

    // Materialize the solution.
    let mut sum = 0.0;
    let mut active = 0usize;
    for j in 0..n {
        let v = q[j] + (shift.at(j) + lambda) / (2.0 * gamma[j]);
        let v = if v > 0.0 { v } else { 0.0 };
        if v > 0.0 {
            active += 1;
        }
        x_out[j] = v;
        sum += v;
    }

    // Absorb the residual rounding error into the largest entries so the
    // constraint holds to near machine precision (keeps downstream
    // convergence checks honest). Proportional correction preserves
    // nonnegativity.
    let err = total - sum;
    if err != 0.0 && sum > 0.0 && err.abs() > 0.0 {
        let scale = total / sum;
        if scale.is_finite() && scale > 0.0 {
            for v in x_out.iter_mut() {
                *v *= scale;
            }
        }
    }

    Ok(EquilibrationResult {
        lambda,
        total,
        active,
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

/// Sort-based segment search for the nonnegative subproblem: argsort the
/// breakpoints, then sweep segments left to right accumulating the active
/// linear form. Returns NaN when no segment accepts (numerical breakdown;
/// the caller reports it).
fn plain_lambda_sort_scan(
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    mode: TotalMode,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    let n = q.len();
    // Breakpoints bⱼ = −2γⱼqⱼ − shiftⱼ: entry j is active for λ > bⱼ.
    scratch.prepare(n);
    for j in 0..n {
        debug_assert!(gamma[j] > 0.0, "gamma must be strictly positive");
        scratch
            .breakpoints
            .push(-2.0 * gamma[j] * q[j] - shift.at(j));
    }
    scratch.order.resize(n, 0);
    sort::identity_permutation(&mut scratch.order);
    sort::argsort(&mut scratch.order, &scratch.breakpoints);

    // Sweep the segments. Active prefix r contributes Σ (qⱼ + shiftⱼ/(2γⱼ))
    // (accumulated in `a`) plus λ·Σ 1/(2γⱼ) (accumulated in `b`).
    let mut a = 0.0_f64;
    let mut b = 0.0_f64;
    let (el_slope, el_const) = elastic_constants(mode);

    let mut lambda = f64::NAN;
    let mut swept = 0u64;
    for r in 0..=n {
        swept += 1;
        let upper = if r < n {
            scratch.breakpoints[scratch.order[r] as usize]
        } else {
            f64::INFINITY
        };
        // Root of: a + λ·b  =  S(λ), where for fixed mode S(λ) = total and
        // for elastic S(λ) = el_const − λ·el_slope.
        let cand = match mode {
            TotalMode::Fixed { total } => {
                if b > 0.0 {
                    Some((total - a) / b)
                } else if total <= 0.0 {
                    // All entries zero is the solution; λ may sit anywhere
                    // at or below the first breakpoint — report the
                    // boundary (the largest valid multiplier).
                    Some(if r < n { upper } else { 0.0 })
                } else {
                    None
                }
            }
            TotalMode::Elastic { .. } => Some((el_const - a) / (b + el_slope)),
        };
        if let Some(c) = cand {
            if c <= upper {
                lambda = c;
                break;
            }
        }
        if r < n {
            let j = scratch.order[r] as usize;
            let inv2g = 1.0 / (2.0 * gamma[j]);
            a += q[j] + shift.at(j) * inv2g;
            b += inv2g;
        }
    }
    scratch.stats.breakpoints_scanned += swept;
    lambda
}

/// Selection kernel for the nonnegative subproblem: the warm segment first
/// when a `hint` is given ([`warm_segment`]); else, or on a miss, one
/// breakpoint event per entry, then [`select_events`]. A warm attempt, hit
/// or miss, counts as one partition round: it is one pass over the entries,
/// like a round. Returns NaN on breakdown.
fn plain_lambda_quickselect(
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    mode: TotalMode,
    hint: Option<f64>,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    // Sized on hits too, so a miss after a run of hits finds its buffer.
    scratch.prepare(q.len());
    debug_assert!(
        gamma.iter().all(|&g| g > 0.0),
        "gamma must be strictly positive"
    );
    if let Some(h) = hint {
        scratch.stats.quickselect_pivots += 1;
        if let Some(lambda) = warm_segment(q, gamma, shift, h, mode) {
            return lambda;
        }
    }
    // `extend` over zipped slices: no per-event capacity checks.
    let entries = q.iter().zip(gamma).enumerate();
    scratch
        .events
        .extend(entries.map(|(k, (&qj, &gj))| plain_event(qj, gj, shift.at(k))));
    select_events(scratch, 0.0, mode, FlatPolicy::NonnegativePrefix)
}

/// Locate λ over the filled event array by [`select_lambda`], with
/// `base_a` and the kernel's `flat` rule. Returns NaN on breakdown.
fn select_events(
    scratch: &mut EquilibrationScratch,
    base_a: f64,
    mode: TotalMode,
    flat: FlatPolicy,
) -> f64 {
    select_lambda(
        &mut scratch.events,
        base_a,
        mode,
        flat,
        &mut scratch.stats.quickselect_pivots,
    )
    .unwrap_or(f64::NAN)
}

/// Lanes of the warm tests' accumulators: entry `k` goes to lane `k mod 4`.
/// Four interleaved sums break the loop-carried dependency of one running
/// sum; the order is fixed, so every caller gets the same bits.
const LANES: usize = 4;

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
struct Bracket {
    lo: f64,
    hi: f64,
}

impl Bracket {
    const OPEN: Bracket = Bracket {
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

    /// Solve `f(λ) = a + b·λ = S(λ)` on the segment from the intercept and
    /// the lanes' slope sums; the root if it lies inside. In fixed mode a
    /// flat segment (zero slope) is a miss.
    fn root(self, a: f64, b: [f64; LANES], mode: TotalMode) -> Option<f64> {
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
/// Computes each entry's breakpoint and `(da, db)` ([`plain_event`]) in
/// registers, sums the active linear form `f(λ) = a + b·λ` over the entries
/// whose breakpoint is at or below `hint` while tracking the nearest
/// breakpoint on each side, solves `f(λ) = S(λ)` on that segment, and
/// returns the root when it lies inside the bracket. `None` means the root
/// is elsewhere (or, in fixed mode, the segment is flat), and the caller
/// fills the events and runs the full selection. Every hint in the same
/// segment sums the same entries in the same order, so all of them return
/// the same bits. Any hint is safe: the bracket check, not the hint,
/// decides acceptance.
fn warm_segment(
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    hint: f64,
    mode: TotalMode,
) -> Option<f64> {
    let gamma = &gamma[..q.len()];
    let (mut a, mut b) = ([0.0_f64; LANES], [0.0_f64; LANES]);
    let mut bracket = Bracket::OPEN;
    // An entry above the hint adds +0.0, which leaves a sum that starts at
    // +0.0 bitwise unchanged, so each lane sums exactly its entries at or
    // below the hint, in order.
    for_each_lane(q.len(), |lane, k| {
        let e = plain_event(q[k], gamma[k], shift.at(k));
        let below = e.v <= hint;
        a[lane] += if below { e.da } else { 0.0 };
        b[lane] += if below { e.db } else { 0.0 };
        bracket.push(e.v, below);
    });
    bracket.root((a[0] + a[1]) + (a[2] + a[3]), b, mode)
}

/// [`warm_segment`] for the boxed kernel: each entry has a `(lower, upper)`
/// event pair ([`boxed_events`]) over the base `Σ lo`.
///
/// The intercept sums `da` over every event at or below `hint`; the slope
/// sums `db` only over entries strictly inside their box on that segment
/// (lower event crossed, upper not). Adding `+w` at the lower event and
/// `−w` at the upper one would leave a ±ε residue for entries pinned at
/// `hi`. In fixed mode a flat segment (zero slope) is a miss, so
/// [`select_lambda`]'s `BoundedMatch` rule resolves it.
#[allow(clippy::too_many_arguments)] // kernel inputs + bounds + base + hint
fn warm_boxed_segment(
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    lo: &[f64],
    hi: &[f64],
    base: f64,
    hint: f64,
    mode: TotalMode,
) -> Option<f64> {
    let n = q.len();
    let (gamma, lo, hi) = (&gamma[..n], &lo[..n], &hi[..n]);
    let (mut a, mut b) = ([0.0_f64; LANES], [0.0_f64; LANES]);
    let mut bracket = Bracket::OPEN;
    for_each_lane(n, |lane, k| {
        let [l, u] = boxed_events(q[k], gamma[k], shift.at(k), lo[k], hi[k]);
        let (below_l, below_u) = (l.v <= hint, u.v <= hint);
        a[lane] += (if below_l { l.da } else { 0.0 }) + (if below_u { u.da } else { 0.0 });
        b[lane] += if below_l && !below_u { l.db } else { 0.0 };
        bracket.push(l.v, below_l);
        bracket.push(u.v, below_u);
    });
    bracket.root(base + ((a[0] + a[1]) + (a[2] + a[3])), b, mode)
}

/// How a flat (zero-slope) terminal segment is resolved in fixed mode.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FlatPolicy {
    /// Plain kernel: zero slope only happens left of every breakpoint,
    /// where all entries clamp to zero — a solution iff `total ≤ 0`; report
    /// the segment's upper boundary, matching the sort-scan sweep.
    NonnegativePrefix,
    /// Boxed kernel: flat segments can occur anywhere (every entry pinned
    /// at a bound); accept when the pinned sum already matches the total.
    BoundedMatch,
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

/// Expected-O(n) segment search shared by the plain and boxed selection
/// kernels.
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
fn select_lambda(
    events: &mut [SelectEvent],
    base_a: f64,
    mode: TotalMode,
    flat: FlatPolicy,
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
            } else {
                let flat_solves = match flat {
                    FlatPolicy::NonnegativePrefix => total <= 0.0,
                    FlatPolicy::BoundedMatch => {
                        (acc_a - total).abs() <= 1e-12 * total.abs().max(1.0)
                    }
                };
                if flat_solves {
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

/// Box-bounded exact equilibration: `loⱼ ≤ xⱼ ≤ hiⱼ` instead of `xⱼ ≥ 0`.
///
/// Supports the Ohuchi–Kaji (1984) bounded transportation model and the
/// Harrigan–Buchanan (1984) interval-constrained I/O estimation model. The
/// projected entry is `xⱼ(λ) = clamp(qⱼ + (shiftⱼ + λ)/(2γⱼ), loⱼ, hiⱼ)`,
/// so each entry contributes two breakpoints; the sweep is otherwise the
/// same as [`exact_equilibration`].
///
/// # Errors
/// * [`SeaError::Shape`] on length mismatches.
/// * [`SeaError::InconsistentBounds`] if some `loⱼ > hiⱼ`.
/// * [`SeaError::InfeasibleSubproblem`] if the fixed total lies outside
///   `[Σ lo, Σ hi]`.
#[allow(clippy::too_many_arguments)]
pub fn exact_equilibration_boxed(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    lo: &[f64],
    hi: &[f64],
    mode: TotalMode,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    exact_equilibration_boxed_with(
        KernelKind::SortScan,
        q,
        gamma,
        shift,
        lo,
        hi,
        mode,
        x_out,
        scratch,
    )
}

/// [`exact_equilibration_boxed`] with an explicit kernel choice (see
/// [`exact_equilibration_with`]).
///
/// # Errors
/// Same contract as [`exact_equilibration_boxed`].
#[allow(clippy::too_many_arguments)]
pub fn exact_equilibration_boxed_with(
    kernel: KernelKind,
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    lo: &[f64],
    hi: &[f64],
    mode: TotalMode,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    exact_equilibration_boxed_hinted(
        kernel,
        q,
        gamma,
        shift,
        lo,
        hi,
        None,
        mode,
        None,
        Some(x_out),
        scratch,
    )
}

/// [`exact_equilibration_boxed_with`] for a pass, which solves the same
/// subproblems every sweep. `sums`, when given, is the subproblem's
/// `(Σ lo, Σ hi)`, summed by the caller over the same slices with
/// `iter().sum()`; the caller then also guarantees `lo ≤ hi` entrywise
/// (as [`crate::BoundedProblem::new`] does), and the per-call crossing scan
/// and sums are skipped. `None` checks and sums here. The quickselect
/// kernel first tries the segment holding `hint` ([`warm_boxed_segment`]);
/// sort-scan ignores the hint. `shift` is read as in
/// [`exact_equilibration_hinted`]. Given no `x_out`, every entry is still
/// clamped to count `boxed_clamps`, but nothing is written.
#[allow(clippy::too_many_arguments)] // kernel inputs + bounds + hint + output + workspace
pub(crate) fn exact_equilibration_boxed_hinted(
    kernel: KernelKind,
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    lo: &[f64],
    hi: &[f64],
    sums: Option<(f64, f64)>,
    mode: TotalMode,
    hint: Option<f64>,
    mut x_out: Option<&mut [f64]>,
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    validate_inputs(q, gamma, shift, x_out.as_deref())?;
    let n = q.len();
    scratch.stats.subproblems += 1;
    if lo.len() != n || hi.len() != n {
        return Err(SeaError::Shape {
            context: "exact_equilibration_boxed bounds",
            expected: n,
            actual: lo.len().min(hi.len()),
        });
    }
    let (sum_lo, sum_hi) = match sums {
        Some(sums) => sums,
        None => {
            for j in 0..n {
                if lo[j] > hi[j] {
                    return Err(SeaError::InconsistentBounds {
                        index: j,
                        lower: lo[j],
                        upper: hi[j],
                    });
                }
            }
            (lo.iter().sum(), hi.iter().sum())
        }
    };
    if let TotalMode::Fixed { total } = mode {
        let span = (sum_hi - sum_lo).abs().max(1.0);
        if total < sum_lo - 1e-9 * span || total > sum_hi + 1e-9 * span {
            return Err(SeaError::InfeasibleSubproblem {
                side: "row",
                index: 0,
            });
        }
    }
    if let TotalMode::Elastic { alpha, .. } = mode {
        if !(alpha > 0.0) {
            return Err(SeaError::NonPositiveWeight {
                which: "alpha",
                index: 0,
                value: alpha,
            });
        }
    }

    let mut lambda = match kernel {
        KernelKind::SortScan => {
            boxed_lambda_sort_scan(q, gamma, shift, lo, hi, sum_lo, mode, scratch)
        }
        KernelKind::Quickselect => {
            boxed_lambda_quickselect(q, gamma, shift, lo, hi, sum_lo, mode, hint, scratch)
        }
    };
    if !lambda.is_finite() {
        // Fixed mode where the total is only attained at the extreme: clamp.
        lambda = match mode {
            TotalMode::Fixed { total } if total >= sum_hi => f64::MAX.sqrt(),
            _ => -f64::MAX.sqrt(),
        };
    }

    let mut active = 0usize;
    for j in 0..n {
        let raw = q[j] + (shift.at(j) + lambda) / (2.0 * gamma[j]);
        let v = raw.clamp(lo[j], hi[j]);
        if v > lo[j] && v < hi[j] {
            active += 1;
        }
        if let Some(x) = x_out.as_deref_mut() {
            x[j] = v;
        }
    }
    let total = match mode {
        TotalMode::Fixed { total } => total,
        TotalMode::Elastic {
            alpha,
            prior,
            cross,
        } => prior - (lambda + cross) / (2.0 * alpha),
    };
    scratch.stats.boxed_clamps += (n - active) as u64;

    Ok(EquilibrationResult {
        lambda,
        total,
        active,
    })
}

/// Sort-based segment search for the boxed subproblem: two events per entry
/// (leaving its lower bound, saturating at its upper bound), argsorted and
/// swept. Returns NaN when no segment accepts (caller clamps).
#[allow(clippy::too_many_arguments)]
fn boxed_lambda_sort_scan(
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    lo: &[f64],
    hi: &[f64],
    sum_lo: f64,
    mode: TotalMode,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    let n = q.len();
    // Event k < n is entry k leaving its lower bound; event k ≥ n is entry
    // k−n saturating at its upper bound.
    scratch.prepare(n);
    scratch.events_hi.clear();
    scratch.events_hi.reserve(2 * n);
    for j in 0..n {
        scratch
            .events_hi
            .push(2.0 * gamma[j] * (lo[j] - q[j]) - shift.at(j));
    }
    for j in 0..n {
        scratch
            .events_hi
            .push(2.0 * gamma[j] * (hi[j] - q[j]) - shift.at(j));
    }
    scratch.order.resize(2 * n, 0);
    sort::identity_permutation(&mut scratch.order);
    sort::argsort(&mut scratch.order, &scratch.events_hi);

    let (el_slope, el_const) = elastic_constants(mode);

    // Start below every event: all entries pinned at lo.
    let mut a = sum_lo;
    let mut b = 0.0_f64;
    let mut lambda = f64::NAN;
    // Lower edge of the current segment (the last event crossed). Accepted
    // candidates are clamped to it: when the slope `b` cancels to a tiny
    // residue (all entries pinned at bounds), the division can otherwise
    // fling λ far outside the segment that actually contains the root.
    let mut seg_lo = f64::NEG_INFINITY;
    let mut swept = 0u64;
    for r in 0..=(2 * n) {
        swept += 1;
        let upper = if r < 2 * n {
            scratch.events_hi[scratch.order[r] as usize]
        } else {
            f64::INFINITY
        };
        let cand = match mode {
            TotalMode::Fixed { total } => {
                if b > 0.0 {
                    Some((total - a) / b)
                } else if (a - total).abs() <= 1e-12 * total.abs().max(1.0) {
                    // Flat segment already matching the total.
                    Some(if r < 2 * n { upper } else { seg_lo })
                } else {
                    None
                }
            }
            TotalMode::Elastic { .. } => Some((el_const - a) / (b + el_slope)),
        };
        if let Some(c) = cand {
            if c <= upper {
                lambda = c.max(seg_lo);
                break;
            }
        }
        if r < 2 * n {
            let e = scratch.order[r] as usize;
            let j = e % n;
            let inv2g = 1.0 / (2.0 * gamma[j]);
            if e < n {
                // Entry leaves its lower bound.
                a += q[j] + shift.at(j) * inv2g - lo[j];
                b += inv2g;
            } else {
                // Entry saturates at its upper bound.
                a += hi[j] - (q[j] + shift.at(j) * inv2g);
                b -= inv2g;
            }
            seg_lo = upper;
        }
    }
    scratch.stats.breakpoints_scanned += swept;
    lambda
}

/// Selection kernel for the boxed subproblem: the clamp decomposes into a
/// `+w` hinge at the lower-bound event and a `−w` hinge at the upper-bound
/// event, so the same [`select_events`] search applies with `base = Σ loⱼ`.
/// The warm segment is tried first, as in the plain kernel
/// ([`warm_boxed_segment`]); on a miss each entry pushes its two events
/// next to each other. Returns NaN when no segment accepts (caller clamps).
#[allow(clippy::too_many_arguments)]
fn boxed_lambda_quickselect(
    q: &[f64],
    gamma: &[f64],
    shift: impl Shift,
    lo: &[f64],
    hi: &[f64],
    sum_lo: f64,
    mode: TotalMode,
    hint: Option<f64>,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    let n = q.len();
    scratch.prepare(n);
    if let Some(h) = hint {
        scratch.stats.quickselect_pivots += 1;
        if let Some(lambda) = warm_boxed_segment(q, gamma, shift, lo, hi, sum_lo, h, mode) {
            return lambda;
        }
    }
    for j in 0..n {
        let pair = boxed_events(q[j], gamma[j], shift.at(j), lo[j], hi[j]);
        scratch.events.extend(pair);
    }
    select_events(scratch, sum_lo, mode, FlatPolicy::BoundedMatch)
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

    #[test]
    fn fixed_mode_simple() {
        // Equal weights, zero shift: equilibration spreads the total with
        // equal adjustments.
        let q = [1.0, 2.0, 3.0];
        let gamma = [1.0, 1.0, 1.0];
        let shift = [0.0; 3];
        let mut x = [0.0; 3];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration(
            &q,
            &gamma,
            &shift,
            TotalMode::Fixed { total: 9.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
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
        let mut x = [0.0; 2];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration(
            &q,
            &gamma,
            &shift,
            TotalMode::Fixed { total: 2.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
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
        let mut x = [9.0; 2];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration(
            &q,
            &gamma,
            &shift,
            TotalMode::Fixed { total: 0.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(x, [0.0, 0.0]);
        assert_eq!(r.active, 0);
        // λ must keep every entry at or below zero.
        check_kkt(&q, &gamma, &shift, &x, r.lambda, 1e-9);
    }

    #[test]
    fn elastic_mode_matches_hand_computation() {
        // One entry, q=0, γ=1/2, shift=0, α=1/2, prior=4:
        // x(λ)=(λ)₊, s(λ)=4−λ; x=s ⇒ λ=2, x=2, s=2.
        let q = [0.0];
        let gamma = [0.5];
        let shift = [0.0];
        let mut x = [0.0];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration(
            &q,
            &gamma,
            &shift,
            TotalMode::Elastic {
                alpha: 0.5,
                prior: 4.0,
                cross: 0.0,
            },
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert!((r.lambda - 2.0).abs() < 1e-12);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((r.total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn elastic_cross_shift_moves_total() {
        // SAM-style cross term reduces the realized total.
        let q = [0.0];
        let gamma = [0.5];
        let shift = [0.0];
        let mut x = [0.0];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration(
            &q,
            &gamma,
            &shift,
            TotalMode::Elastic {
                alpha: 0.5,
                prior: 4.0,
                cross: 1.0,
            },
            &mut x,
            &mut sc,
        )
        .unwrap();
        // x(λ)=λ₊, s=4−(λ+1) ⇒ λ = 1.5, x = 1.5.
        assert!((r.lambda - 1.5).abs() < 1e-12);
        assert!((x[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_subproblem_cases() {
        let mut x: [f64; 0] = [];
        let mut sc = EquilibrationScratch::new();
        assert!(exact_equilibration(
            &[],
            &[],
            &[],
            TotalMode::Fixed { total: 1.0 },
            &mut x,
            &mut sc
        )
        .is_err());
        let r = exact_equilibration(
            &[],
            &[],
            &[],
            TotalMode::Fixed { total: 0.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(r.active, 0);
        let r = exact_equilibration(
            &[],
            &[],
            &[],
            TotalMode::Elastic {
                alpha: 1.0,
                prior: 3.0,
                cross: 0.0,
            },
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(r.total, 0.0);
        assert!((r.lambda - 6.0).abs() < 1e-12);
    }

    #[test]
    fn shape_errors() {
        let mut x = [0.0; 2];
        let mut sc = EquilibrationScratch::new();
        assert!(matches!(
            exact_equilibration(
                &[1.0, 2.0],
                &[1.0],
                &[0.0, 0.0],
                TotalMode::Fixed { total: 1.0 },
                &mut x,
                &mut sc
            ),
            Err(SeaError::Shape { .. })
        ));
    }

    #[test]
    fn boxed_respects_bounds_and_total() {
        let q = [1.0, 5.0, 2.0];
        let gamma = [1.0, 1.0, 1.0];
        let shift = [0.0; 3];
        let lo = [0.5, 0.0, 1.0];
        let hi = [2.0, 3.0, 2.5];
        let mut x = [0.0; 3];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration_boxed(
            &q,
            &gamma,
            &shift,
            &lo,
            &hi,
            TotalMode::Fixed { total: 6.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
        let sum: f64 = x.iter().sum();
        assert!((sum - 6.0).abs() < 1e-9, "sum={sum}");
        for j in 0..3 {
            assert!(x[j] >= lo[j] - 1e-12 && x[j] <= hi[j] + 1e-12);
        }
        let _ = r;
    }

    #[test]
    fn boxed_detects_infeasible_total() {
        let mut x = [0.0; 2];
        let mut sc = EquilibrationScratch::new();
        assert!(matches!(
            exact_equilibration_boxed(
                &[1.0, 1.0],
                &[1.0, 1.0],
                &[0.0, 0.0],
                &[0.0, 0.0],
                &[1.0, 1.0],
                TotalMode::Fixed { total: 5.0 },
                &mut x,
                &mut sc
            ),
            Err(SeaError::InfeasibleSubproblem { .. })
        ));
        assert!(matches!(
            exact_equilibration_boxed(
                &[1.0, 1.0],
                &[1.0, 1.0],
                &[0.0, 0.0],
                &[2.0, 0.0],
                &[1.0, 1.0],
                TotalMode::Fixed { total: 1.5 },
                &mut x,
                &mut sc
            ),
            Err(SeaError::InconsistentBounds {
                index: 0,
                lower,
                upper,
            }) if lower == 2.0 && upper == 1.0
        ));
    }

    #[test]
    fn boxed_reduces_to_plain_when_bounds_loose() {
        let q = [1.0, 2.0, 3.0];
        let gamma = [0.5, 1.5, 1.0];
        let shift = [0.1, -0.2, 0.0];
        let lo = [0.0; 3];
        let hi = [1e12; 3];
        let mut x_plain = [0.0; 3];
        let mut x_box = [0.0; 3];
        let mut sc = EquilibrationScratch::new();
        let mode = TotalMode::Fixed { total: 7.0 };
        let r1 = exact_equilibration(&q, &gamma, &shift, mode, &mut x_plain, &mut sc).unwrap();
        let r2 = exact_equilibration_boxed(&q, &gamma, &shift, &lo, &hi, mode, &mut x_box, &mut sc)
            .unwrap();
        assert!((r1.lambda - r2.lambda).abs() < 1e-9);
        for j in 0..3 {
            assert!((x_plain[j] - x_box[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn boxed_elastic_mode_balances_total_against_bounds() {
        // Elastic total with tight upper bounds: the realized total cannot
        // exceed Σ hi even though the prior total asks for more.
        let q = [0.0, 0.0];
        let gamma = [0.5, 0.5];
        let shift = [0.0, 0.0];
        let lo = [0.0, 0.0];
        let hi = [1.0, 1.0];
        let mut x = [0.0; 2];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration_boxed(
            &q,
            &gamma,
            &shift,
            &lo,
            &hi,
            TotalMode::Elastic {
                alpha: 0.5,
                prior: 100.0,
                cross: 0.0,
            },
            &mut x,
            &mut sc,
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
        let mut x_plain = [0.0; 3];
        let mut x_boxed = [0.0; 3];
        let mut sc = EquilibrationScratch::new();
        let r1 = exact_equilibration(&q, &gamma, &shift, mode, &mut x_plain, &mut sc).unwrap();
        let lo = [0.0; 3];
        let hi = [1e9; 3];
        let r2 =
            exact_equilibration_boxed(&q, &gamma, &shift, &lo, &hi, mode, &mut x_boxed, &mut sc)
                .unwrap();
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
        exact_equilibration_with(
            KernelKind::SortScan,
            &q,
            &gamma,
            &shift,
            mode,
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(sc.stats.subproblems, 1);
        assert!(sc.stats.breakpoints_scanned >= 1);
        assert_eq!(sc.stats.quickselect_pivots, 0);

        exact_equilibration_with(
            KernelKind::Quickselect,
            &q,
            &gamma,
            &shift,
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
        exact_equilibration_boxed_with(
            KernelKind::SortScan,
            &q,
            &gamma,
            &shift,
            &lo,
            &hi,
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

    /// Run both kernels on the same plain subproblem; panic on hard error.
    fn both_plain(
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        mode: TotalMode,
    ) -> (
        (EquilibrationResult, Vec<f64>),
        (EquilibrationResult, Vec<f64>),
    ) {
        let n = q.len();
        let mut sc = EquilibrationScratch::new();
        let mut x_sort = vec![0.0; n];
        let r_sort = exact_equilibration_with(
            KernelKind::SortScan,
            q,
            gamma,
            shift,
            mode,
            &mut x_sort,
            &mut sc,
        )
        .unwrap();
        let mut x_qs = vec![0.0; n];
        let r_qs = exact_equilibration_with(
            KernelKind::Quickselect,
            q,
            gamma,
            shift,
            mode,
            &mut x_qs,
            &mut sc,
        )
        .unwrap();
        ((r_sort, x_sort), (r_qs, x_qs))
    }

    /// Run both kernels on the same boxed subproblem; panic on hard error.
    #[allow(clippy::too_many_arguments)]
    fn both_boxed(
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        lo: &[f64],
        hi: &[f64],
        mode: TotalMode,
    ) -> (
        (EquilibrationResult, Vec<f64>),
        (EquilibrationResult, Vec<f64>),
    ) {
        let n = q.len();
        let mut sc = EquilibrationScratch::new();
        let mut x_sort = vec![0.0; n];
        let r_sort = exact_equilibration_boxed_with(
            KernelKind::SortScan,
            q,
            gamma,
            shift,
            lo,
            hi,
            mode,
            &mut x_sort,
            &mut sc,
        )
        .unwrap();
        let mut x_qs = vec![0.0; n];
        let r_qs = exact_equilibration_boxed_with(
            KernelKind::Quickselect,
            q,
            gamma,
            shift,
            lo,
            hi,
            mode,
            &mut x_qs,
            &mut sc,
        )
        .unwrap();
        ((r_sort, x_sort), (r_qs, x_qs))
    }

    #[test]
    fn quickselect_single_element_rows() {
        // Single-element subproblems exercise the trivial selection window.
        let ((r1, x1), (r2, x2)) =
            both_plain(&[3.0], &[0.7], &[0.2], TotalMode::Fixed { total: 5.0 });
        assert_eq!(x1, x2);
        assert!((r1.lambda - r2.lambda).abs() < 1e-12);
        assert!((x1[0] - 5.0).abs() < 1e-12);

        let mode = TotalMode::Elastic {
            alpha: 0.5,
            prior: 4.0,
            cross: 0.0,
        };
        let ((r1, x1), (r2, x2)) = both_plain(&[0.0], &[0.5], &[0.0], mode);
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
            let ((r1, x1), (r2, x2)) = both_plain(&q, &gamma, &shift, TotalMode::Fixed { total });
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
        let ((r1, x1), (r2, x2)) = both_plain(&q, &gamma, &shift, TotalMode::Fixed { total: 0.0 });
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
            let ((r1, x1), (r2, x2)) = both_plain(&q, &gamma, &shift, TotalMode::Fixed { total });
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
            let ((r1, x1), (r2, x2)) =
                both_boxed(&q, &gamma, &shift, &lo, &hi, TotalMode::Fixed { total });
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
        let ((_, x1), (r2, x2)) = both_boxed(
            &q,
            &gamma,
            &shift,
            &lo,
            &hi,
            TotalMode::Fixed { total: 6.0 },
        );
        assert!((x2[0] - 1.5).abs() < 1e-12 && (x2[2] - 2.0).abs() < 1e-12);
        assert!((x2[1] - 2.5).abs() < 1e-9);
        for j in 0..3 {
            assert!((x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()));
        }
        let _ = r2;
    }

    /// Warm-started quickselect solve with the given hint.
    fn warm_plain(
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        mode: TotalMode,
        hint: f64,
    ) -> (EquilibrationResult, Vec<f64>, KernelCounters) {
        let mut sc = EquilibrationScratch::new();
        let mut x = vec![0.0; q.len()];
        let r = exact_equilibration_hinted(
            KernelKind::Quickselect,
            q,
            gamma,
            shift,
            mode,
            Some(hint),
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
        let (r, x, stats) = warm_plain(&q, &gamma, &shift, mode, 1.5);
        assert_eq!(stats.quickselect_pivots, 1);
        assert!((r.lambda - 1.0).abs() < 1e-12);
        assert!((x[0] - 1.5).abs() < 1e-12);
        // Below every breakpoint the fixed-total segment is flat: a miss,
        // counted as one round, then the full selection.
        let (r, _, stats) = warm_plain(&q, &gamma, &shift, mode, -100.0);
        assert!(stats.quickselect_pivots > 1);
        assert!((r.lambda - 1.0).abs() < 1e-12);
    }

    /// Warm-started boxed quickselect solve with the given hint, through
    /// the pass entry (bound sums supplied by the caller).
    #[allow(clippy::too_many_arguments)]
    fn warm_boxed(
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        lo: &[f64],
        hi: &[f64],
        mode: TotalMode,
        hint: Option<f64>,
    ) -> (EquilibrationResult, Vec<f64>, KernelCounters) {
        let mut sc = EquilibrationScratch::new();
        let mut x = vec![0.0; q.len()];
        let sums = (lo.iter().sum(), hi.iter().sum());
        let r = exact_equilibration_boxed_hinted(
            KernelKind::Quickselect,
            q,
            gamma,
            shift,
            lo,
            hi,
            Some(sums),
            mode,
            hint,
            Some(&mut x),
            &mut sc,
        )
        .unwrap();
        (r, x, sc.stats)
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
        let (r, x, stats) = warm_boxed(&q, &gamma, &shift, &lo, &hi, mode, Some(1.5));
        assert_eq!(stats.quickselect_pivots, 1);
        assert!((r.lambda - 1.0).abs() < 1e-12);
        assert!((x[0] - 1.5).abs() < 1e-12);
        // Below every event (all at lo) and above every event (all at hi)
        // the fixed-total segment is flat: a miss, counted as one round,
        // then the full selection.
        for hint in [-100.0, 100.0] {
            let (r, _, stats) = warm_boxed(&q, &gamma, &shift, &lo, &hi, mode, Some(hint));
            assert!(stats.quickselect_pivots > 1, "hint {hint}");
            assert!((r.lambda - 1.0).abs() < 1e-12, "hint {hint}");
        }
        // On [12, 14] the last entry sits at hi: that segment's line meets
        // the total at λ = −8/3, outside the bracket, so it misses too.
        let (r, _, stats) = warm_boxed(&q, &gamma, &shift, &lo, &hi, mode, Some(13.0));
        assert!(stats.quickselect_pivots > 1);
        assert!((r.lambda - 1.0).abs() < 1e-12);
        let (cold, _, stats) = warm_boxed(&q, &gamma, &shift, &lo, &hi, mode, None);
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
    /// event pairs: the reference for [`warm_boxed_segment`].
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

    /// The hinted selection as it ran before fusion: fill every event, try
    /// the reference warm check (one round), and select on a miss. Returns
    /// the raw λ and the partition rounds.
    fn reference_hinted_lambda(
        events: &mut [SelectEvent],
        base: f64,
        mode: TotalMode,
        flat: FlatPolicy,
        hint: f64,
    ) -> (f64, u64) {
        let warm = match flat {
            FlatPolicy::NonnegativePrefix => reference_warm_segment(events, hint, mode),
            FlatPolicy::BoundedMatch => reference_warm_boxed_segment(events, base, hint, mode),
        };
        if let Some(lambda) = warm {
            return (lambda, 1);
        }
        let mut pivots = 1;
        let lambda = select_lambda(events, base, mode, flat, &mut pivots).unwrap_or(f64::NAN);
        (lambda, pivots)
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
            let mut sc = EquilibrationScratch::new();
            let mut x_ref = vec![0.0; n];
            let r_ref = exact_equilibration(&q, &gamma, &shift, mode, &mut x_ref, &mut sc).unwrap();
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
                let (r, x, stats) = warm_plain(&q, &gamma, &shift, mode, hint);
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
            let first = warm_plain(&q, &gamma, &shift, mode, same_segment[0]);
            for &hint in &same_segment[1..] {
                let (r, x, _) = warm_plain(&q, &gamma, &shift, mode, hint);
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
            let (r_ref, x_ref, _) = warm_boxed(&q, &gamma, &shift, &lo, &hi, mode, None);
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
                let (r, x, stats) = warm_boxed(&q, &gamma, &shift, &lo, &hi, mode, Some(hint));
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
            let first = warm_boxed(&q, &gamma, &shift, &lo, &hi, mode, Some(same_segment[0]));
            for &hint in &same_segment[1..] {
                let (r, x, _) = warm_boxed(&q, &gamma, &shift, &lo, &hi, mode, Some(hint));
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
                .map(|k| plain_event(q[k], gamma[k], dense[k]))
                .collect();
            let boxed_pairs: Vec<SelectEvent> = (0..n)
                .flat_map(|k| boxed_events(q[k], gamma[k], dense[k], lo[k], hi[k]))
                .collect();
            // Hints: non-finite, zero, every breakpoint (ties with the
            // hint), the cold roots and points near them, and random ones.
            let mut hints = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0];
            hints.extend(plain_events.iter().chain(&boxed_pairs).map(|e| e.v));
            for (events, base, mode, flat) in [
                (&plain_events, 0.0, plain_mode, FlatPolicy::NonnegativePrefix),
                (&boxed_pairs, slo, boxed_mode, FlatPolicy::BoundedMatch),
            ] {
                let mut pivots = 0;
                let cold = select_lambda(&mut events.clone(), base, mode, flat, &mut pivots);
                if let Some(root) = cold.filter(|r| r.is_finite()) {
                    hints.push(root);
                    for delta in [1e-9, 1e-3, 0.5] {
                        hints.push(root + delta * (1.0 + root.abs()));
                        hints.push(root - delta * (1.0 + root.abs()));
                    }
                }
            }
            hints.extend((0..4).map(|_| rng.random_range(-50.0..50.0)));

            for &hint in &hints {
                // The warm tests alone.
                let want = hit_bits(reference_warm_segment(&plain_events, hint, plain_mode));
                prop_assert_eq!(hit_bits(warm_segment(&q, &gamma, &dense[..], hint, plain_mode)), want);
                prop_assert_eq!(hit_bits(warm_segment(&q, &gamma, indexed, hint, plain_mode)), want);
                let want = hit_bits(reference_warm_boxed_segment(&boxed_pairs, slo, hint, boxed_mode));
                prop_assert_eq!(
                    hit_bits(warm_boxed_segment(&q, &gamma, &dense[..], &lo, &hi, slo, hint, boxed_mode)),
                    want
                );
                prop_assert_eq!(
                    hit_bits(warm_boxed_segment(&q, &gamma, indexed, &lo, &hi, slo, hint, boxed_mode)),
                    want
                );

                // The hinted selection: same λ bits, same rounds.
                let (want, want_pivots) = reference_hinted_lambda(
                    &mut plain_events.clone(), 0.0, plain_mode, FlatPolicy::NonnegativePrefix, hint,
                );
                for indexed_shift in [false, true] {
                    let mut sc = EquilibrationScratch::new();
                    let got = if indexed_shift {
                        plain_lambda_quickselect(&q, &gamma, indexed, plain_mode, Some(hint), &mut sc)
                    } else {
                        plain_lambda_quickselect(&q, &gamma, &dense[..], plain_mode, Some(hint), &mut sc)
                    };
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "plain, hint {}", hint);
                    prop_assert_eq!(sc.stats.quickselect_pivots, want_pivots);
                }
                let (want, want_pivots) = reference_hinted_lambda(
                    &mut boxed_pairs.clone(), slo, boxed_mode, FlatPolicy::BoundedMatch, hint,
                );
                for indexed_shift in [false, true] {
                    let mut sc = EquilibrationScratch::new();
                    let got = if indexed_shift {
                        boxed_lambda_quickselect(
                            &q, &gamma, indexed, &lo, &hi, slo, boxed_mode, Some(hint), &mut sc,
                        )
                    } else {
                        boxed_lambda_quickselect(
                            &q, &gamma, &dense[..], &lo, &hi, slo, boxed_mode, Some(hint), &mut sc,
                        )
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
            let mut x = vec![0.0; n];
            let mut sc = EquilibrationScratch::new();
            let r = exact_equilibration(&q, &gamma, &shift, mode, &mut x, &mut sc).unwrap();
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
            let mut x = vec![0.0; n];
            let mut sc = EquilibrationScratch::new();
            let r = exact_equilibration(&q, &gamma, &shift, mode, &mut x, &mut sc).unwrap();
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
            let mut x = vec![0.0; n];
            let mut sc = EquilibrationScratch::new();
            let r = exact_equilibration_boxed(
                &q, &gamma, &shift, &lo, &hi,
                TotalMode::Fixed { total }, &mut x, &mut sc,
            ).unwrap();
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
            let ((r1, x1), (r2, x2)) = both_plain(&q, &gamma, &shift, mode);
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
            let ((r1, x1), (r2, x2)) = both_plain(&q, &gamma, &shift, mode);
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
            let ((_r1, x1), (r2, x2)) = both_boxed(&q, &gamma, &shift, &lo, &hi, mode);
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
}
