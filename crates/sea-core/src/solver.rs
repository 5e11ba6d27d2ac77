//! The Splitting Equilibration Algorithm for diagonal problems (paper §3.1).
//!
//! One SEA iteration is a dual block-coordinate ascent sweep:
//!
//! 1. **Row equilibration** — `λᵗ⁺¹ → max_λ ζ(λ, μᵗ)`: all `m` row
//!    subproblems solved independently by exact equilibration (parallel).
//! 2. **Column equilibration** — `μᵗ⁺¹ → max_μ ζ(λᵗ⁺¹, μ)`: all `n` column
//!    subproblems (parallel).
//! 3. **Convergence verification** — the serial phase (the paper's §4.2
//!    identifies it as the parallelization bottleneck).
//!
//! The same driver covers all three problem classes (3.1.1 unknown totals,
//! 3.1.2 SAM, 3.1.3 fixed totals); the class only changes the
//! [`crate::knapsack::TotalMode`] of each subproblem and the
//! default stopping rule. Box-bounded problems ([`crate::interval`]) run
//! the same loop with fixed totals and entry bounds handed to the passes,
//! which turns every subproblem into a box-bounded knapsack.

use crate::anderson::Anderson;
use crate::components::normalize_multipliers;
use crate::dual;
use crate::equilibrate::{
    equilibration_pass, PassBounds, PassCounters, PassInputs, ShardTiming, DEFAULT_BLOCK_ROWS,
};
use crate::error::SeaError;
use crate::interval::BoundedProblem;
use crate::knapsack::{KernelKind, TotalMode};
use crate::parallel::Parallelism;
use crate::phase::{close_solve, open_solve, Phase};
use crate::problem::{DiagonalProblem, Residuals, TotalSpec};
use crate::storage::{Storage, Transposer};
use crate::supervisor::{FaultPlan, SolveControl, SupervisedSolution, SupervisorOptions};
use crate::tiles::{self, Scaled};
use crate::verify::{Columns, Finish, Finishing, KktReport};
use sea_linalg::{vector, CsrMatrix, DenseMatrix};
use sea_observe::{
    Event, KernelCounters, NullObserver, Observer, PhaseLabel, SpanKind, TelemetrySample,
};
use std::time::{Duration, Instant};

/// Stopping rules. The paper uses [`MaxAbsChange`](Self::MaxAbsChange) for
/// the unknown-totals class (§3.1.1 Step 3) and relative row balance for
/// the SAM and fixed classes (§3.1.2/3.1.3 Step 3); the dual view (eq. 27)
/// justifies [`ConstraintNorm`](Self::ConstraintNorm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergenceCriterion {
    /// `maxᵢⱼ |xᵢⱼᵗ − xᵢⱼ^(last check)| ≤ ε`.
    MaxAbsChange,
    /// `maxᵢ |Σⱼ xᵢⱼ − sᵢ| / max(|sᵢ|, 10⁻¹²) ≤ ε` (column constraints are
    /// exact after the column pass).
    RelativeRowBalance,
    /// `‖∇ζ(λ,μ)‖₂ ≤ ε`, i.e. the Euclidean norm of the remaining
    /// constraint violations.
    ConstraintNorm,
}

impl ConvergenceCriterion {
    /// Stable wire name for event logs and metrics.
    pub fn name(self) -> &'static str {
        match self {
            ConvergenceCriterion::MaxAbsChange => "max_abs_change",
            ConvergenceCriterion::RelativeRowBalance => "relative_row_balance",
            ConvergenceCriterion::ConstraintNorm => "constraint_norm",
        }
    }
}

/// Retired SIMD policy. The vectorized kernels were deleted because they
/// bought nothing measurable end to end (DESIGN §16); every solve runs the
/// scalar kernels. The type keeps its one value so that reports which
/// print the solver defaults keep their shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Scalar kernels, the only path.
    Off,
}

impl SimdMode {
    /// Stable lowercase name, for reports.
    pub fn name(self) -> &'static str {
        "off"
    }

    /// The level the kernels run at: always [`SimdLevel::Scalar`].
    pub fn resolve(self) -> Result<SimdLevel, std::convert::Infallible> {
        Ok(SimdLevel::Scalar)
    }
}

/// The kernel level a [`SimdMode`] resolves to; scalar is the only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Plain scalar loops.
    Scalar,
}

impl SimdLevel {
    /// Stable lowercase name, for reports.
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// Retired precision choice: the `f32` λ-search was deleted with the SIMD
/// kernels (DESIGN §16), so every solve runs in `f64`. Kept with its one
/// value for the same reason as [`SimdMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Double precision throughout.
    F64,
}

impl Precision {
    /// Stable lowercase name, for reports.
    pub fn name(self) -> &'static str {
        "f64"
    }
}

/// Options for [`solve_diagonal_supervised`].
#[derive(Debug, Clone)]
pub struct SeaOptions {
    /// Stopping tolerance `ε` (meaning depends on the criterion).
    pub epsilon: f64,
    /// Stopping rule; `None` selects the paper's default for the problem
    /// class.
    pub criterion: Option<ConvergenceCriterion>,
    /// Hard iteration cap; the solve reports `converged = false` when hit.
    pub max_iterations: usize,
    /// Verify convergence only every `k` iterations (the paper checks every
    /// other iteration for the spatial-price runs to shrink the serial
    /// phase).
    pub check_every: usize,
    /// Fan-out strategy for the row/column phases.
    pub parallelism: Parallelism,
    /// Which equilibration kernel solves the row/column subproblems:
    /// the expected-linear selection kernel (the default) or the
    /// sort-based reference (identical solutions; see
    /// [`crate::knapsack::KernelKind`]).
    pub kernel: KernelKind,
    /// Retired SIMD policy; it has one value and the solver never reads
    /// it (see [`SimdMode`]).
    pub simd: SimdMode,
    /// Retired precision choice; it has one value and the solver never
    /// reads it (see [`Precision`]).
    pub precision: Precision,
    /// Enable the paper's Modified Algorithm with this bound `R`: when some
    /// `|λᵢ| > R`, multipliers are shifted along support components to stay
    /// bounded (dual value unchanged).
    pub multiplier_bound: Option<f64>,
    /// Warm start: initial column multipliers `μ¹` (length n). The paper's
    /// Step 0 uses `μ¹ = 0`; the general solver warm-starts its inner
    /// diagonal solves with the previous outer iteration's multipliers.
    pub initial_mu: Option<Vec<f64>>,
    /// Shard size (rows/columns per block) for parallel passes; `None`
    /// uses [`DEFAULT_BLOCK_ROWS`]. Passes split into fixed blocks of this
    /// many subproblems; results are bitwise-identical for every shard
    /// size.
    pub block_size: Option<usize>,
    /// Anderson extrapolation depth: how many past sweeps the column
    /// multipliers are extrapolated from (see the `anderson` module docs).
    /// `0` runs the paper's plain SEA. Extrapolation moves only the input
    /// of the next sweep, so returned points stay plain sweep outputs, but
    /// the dual value no longer rises monotonically (THEORY.md §"Anderson
    /// extrapolation").
    pub extrapolation_depth: usize,
}

impl Default for SeaOptions {
    fn default() -> Self {
        Self {
            epsilon: 1e-8,
            criterion: None,
            max_iterations: 100_000,
            check_every: 1,
            parallelism: Parallelism::Serial,
            kernel: KernelKind::default(),
            simd: SimdMode::Off,
            precision: Precision::F64,
            multiplier_bound: None,
            initial_mu: None,
            block_size: None,
            extrapolation_depth: 10,
        }
    }
}

impl SeaOptions {
    /// Options matching the paper's experiment settings for a given
    /// tolerance: variant-default criterion, check every iteration.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }

    fn effective_criterion(&self, spec: &TotalSpec) -> ConvergenceCriterion {
        self.criterion.unwrap_or(match spec {
            TotalSpec::Fixed { .. } => ConvergenceCriterion::RelativeRowBalance,
            TotalSpec::Elastic { .. } => ConvergenceCriterion::MaxAbsChange,
            TotalSpec::Balanced { .. } => ConvergenceCriterion::RelativeRowBalance,
        })
    }
}

/// Outcome statistics of a solve.
#[derive(Debug, Clone)]
pub struct SolveStats {
    /// Completed SEA iterations (row + column sweeps).
    pub iterations: usize,
    /// Whether the stopping rule fired before the iteration cap.
    pub converged: bool,
    /// Final value of the stopping quantity.
    pub residual: f64,
    /// Final constraint residuals of the returned solution.
    pub residuals: Residuals,
    /// Primal objective at the returned solution.
    pub objective: f64,
    /// Dual value `ζ(λ, μ)` at the returned multipliers (NaN for a solve
    /// finished without a certificate, such as a box-bounded one).
    pub dual_value: f64,
    /// Kernel work of the solve's passes: every solve harvests its
    /// counters, observed or not, at one relaxed atomic add per shard.
    pub counters: KernelCounters,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
}

/// A computed estimate: the matrix, totals, multipliers, and statistics.
#[derive(Debug, Clone)]
pub struct Solution<S: Storage = DenseMatrix> {
    /// The matrix estimate `X` (`m×n`; same storage backend — and, for
    /// sparse backends, the same support pattern — as the problem's prior).
    pub x: S,
    /// Row totals `s` (equals `s⁰` for fixed problems).
    pub s: Vec<f64>,
    /// Column totals `d` (equals `d⁰` fixed, equals `s` balanced).
    pub d: Vec<f64>,
    /// Row multipliers `λ`.
    pub lambda: Vec<f64>,
    /// Column multipliers `μ`.
    pub mu: Vec<f64>,
    /// Solve statistics.
    pub stats: SolveStats,
}

/// Solve a diagonal constrained matrix problem with SEA, under a
/// fault-tolerant supervisor.
///
/// Every lifecycle transition of the solve (phase boundaries, convergence
/// checks, multiplier-bound activations, kernel work counters) is reported
/// to `obs` as a typed [`Event`]. With [`sea_observe::NullObserver`] the
/// instrumentation compiles down to nothing: `enabled()` is a constant
/// `false`, so no event is ever constructed and the hot loop stays
/// allocation-free.
///
/// The supervisor enforces the budget, watches for cancellation, stagnation
/// and numerical breakdown, writes crash-safe checkpoints, and falls back
/// per-subproblem from quickselect to sort-scan on kernel pathology. The
/// contract is: either `Ok` with a typed
/// [`StopReason`](crate::StopReason) and a KKT-residual certificate for
/// the returned (possibly partial) iterate, or a typed [`SeaError`] —
/// never a panic or a silently wrong answer.
///
/// With `SupervisorOptions::default()` nothing stops the solve early: it
/// runs to convergence or `opts.max_iterations`, and only a breakdown
/// after a certified check ends it with another
/// [`StopReason`](crate::StopReason).
///
/// # Errors
/// * [`SeaError::InfeasibleSubproblem`] if a structural-zero row/column has
///   a positive fixed total.
/// * [`SeaError::WorkerPanic`] for contained worker panics.
/// * [`SeaError::NumericalBreakdown`] only when iterates go non-finite
///   before any convergence check has certified a restorable snapshot.
///
/// # Example
///
/// A capped, budgeted solve: whatever stops it, the outcome names the
/// reason and certifies the returned iterate.
///
/// ```
/// use sea_core::{
///     solve_diagonal_supervised, DiagonalProblem, NullObserver, SeaOptions, SolveBudget,
///     StopReason, SupervisorOptions, TotalSpec, WeightScheme,
/// };
/// use sea_linalg::DenseMatrix;
/// use std::time::Duration;
///
/// let x0 = DenseMatrix::from_rows(&[vec![10.0, 5.0], vec![5.0, 10.0]])?;
/// let gamma = WeightScheme::ChiSquare.entry_weights(&x0)?;
/// let p = DiagonalProblem::new(
///     x0,
///     gamma,
///     TotalSpec::Fixed { s0: vec![18.0, 18.0], d0: vec![18.0, 18.0] },
/// )?;
/// let sup = SupervisorOptions {
///     budget: SolveBudget { deadline: Some(Duration::from_secs(60)), ..SolveBudget::default() },
///     ..SupervisorOptions::default()
/// };
/// let opts = SeaOptions { max_iterations: 500, ..SeaOptions::with_epsilon(1e-10) };
/// let out = solve_diagonal_supervised(&p, &opts, &sup, &mut NullObserver)?;
/// assert_eq!(out.stop, StopReason::Converged);
/// assert!(out.certificate.is_optimal(1e-6));
/// # Ok::<(), sea_core::SeaError>(())
/// ```
pub fn solve_diagonal_supervised<S: Storage, O: Observer + Send>(
    p: &DiagonalProblem<S>,
    opts: &SeaOptions,
    sup: &SupervisorOptions,
    obs: &mut O,
) -> Result<SupervisedSolution<S>, SeaError> {
    opts.parallelism.run(move || {
        let mut ctrl = SolveControl::new(sup);
        let (solution, certificate) =
            solve_inner(p, None, Finishing::Certified, opts, obs, &mut ctrl)?;
        let stop = ctrl.final_stop(solution.stats.converged);
        // Allowed: a `Certified` finish returns a certificate.
        #[allow(clippy::expect_used)]
        let certificate = certificate.expect("a certified solve certifies");
        Ok(SupervisedSolution {
            solution,
            stop,
            certificate,
            kernel_fallbacks: ctrl.fallbacks,
            checkpoint_error: ctrl.take_checkpoint_error(),
        })
    })
}

/// The SEA driver loop shared by every diagonal problem class. `bounds`
/// is the box-bounded problem whose unbounded part `p` is (with fixed
/// totals); the passes hand its entry bounds to the boxed kernel. The
/// dual value ζ of the unbounded problem does not bound a boxed one, so
/// bounded solves neither evaluate nor report it and finish at
/// [`Finishing::Primal`]. A solve finished at `level`
/// [`Finishing::Certified`] also returns its dual value and certificate.
pub(crate) fn solve_inner<S: Storage, O: Observer>(
    p: &DiagonalProblem<S>,
    bounds: Option<&BoundedProblem<S>>,
    level: Finishing,
    opts: &SeaOptions,
    obs: &mut O,
    ctrl: &mut SolveControl<'_>,
) -> Result<(Solution<S>, Option<KktReport>), SeaError> {
    let start = Instant::now();
    let (m, n) = (p.m(), p.n());
    let solver = bounds.map_or("diagonal", |_| "bounded");
    let check_every = opts.check_every.max(1);
    let criterion = opts.effective_criterion(p.totals());
    open_solve(obs, m + n, || Event::SolveStart {
        solver,
        rows: m,
        cols: n,
        kernel: opts.kernel.name(),
        parallelism: opts.parallelism.label(),
        criterion: criterion.name(),
    });
    // Span signalling is independent of event observation: a profiler can
    // consume spans with events off (the alloc-free configuration) and an
    // event sink can run without span overhead.
    let (observing, spanning) = (obs.enabled(), obs.spans_enabled());
    let parallel = opts.parallelism.is_parallel();
    let tally = &mut Tally::default();

    // The column pass's layout. A dense problem's column pass walks the
    // problem's own row-major matrices in column tiles; a sparse one solves
    // the rows of transposed copies, made once per solve (transposition
    // doubles as the column-access view of the support).
    let mut inputs = vec![p.x0(), p.gamma()];
    inputs.extend(bounds.iter().flat_map(|b| [b.lo(), b.hi()]));
    let (transposer, transposed) = match Transposer::over(&inputs, parallel)? {
        Some((plan, ts)) => (Some(plan), ts),
        None => (None, Vec::new()),
    };
    let tiled = transposer.is_none();
    let mut transposed = transposed.into_iter();
    let (x0_t, gamma_t) = (transposed.next(), transposed.next());
    let bounds_t = transposed.next().zip(transposed.next());

    // A resumed solve starts from its checkpoint's multipliers and
    // extrapolation history instead of `initial_mu`.
    let resume = ctrl.resume();
    let rows = Side {
        label: PhaseLabel::RowEquilibration,
        prior: p.x0(),
        gamma: p.gamma(),
        support: p.support().map(|sup| &sup.rows),
        bounds: bounds.map(BoundedProblem::row_bounds),
        warm_start: resume.is_some(),
        faults: ctrl.faults(),
        totals: p.totals(),
        opts,
    };
    let cols = Side {
        label: PhaseLabel::ColumnEquilibration,
        prior: x0_t.as_ref().unwrap_or(p.x0()),
        gamma: gamma_t.as_ref().unwrap_or(p.gamma()),
        // Only a dense problem has a support pattern, and its tiled pass
        // walks rows, so it reads the pattern by rows too.
        support: p.support().map(|sup| &sup.rows),
        bounds: bounds.map(|b| match &bounds_t {
            Some((lo, hi)) => b.col_bounds(lo, hi),
            None => b.col_bounds(b.lo(), b.hi()),
        }),
        warm_start: resume.is_some() || opts.initial_mu.is_some(),
        faults: ctrl.faults(),
        totals: p.totals(),
        opts,
    };

    let mut lambda = initial_multipliers(resume.map(|ck| &ck.lambda[..]), m, "resume lambda")?;
    let mut mu = match resume {
        Some(ck) => initial_multipliers(Some(&ck.mu), n, "resume mu")?,
        None => initial_multipliers(opts.initial_mu.as_deref(), n, "initial_mu")?,
    };
    let mut anderson = Anderson::new(opts.extrapolation_depth, n);
    if let (Some(aa), Some(h)) = (anderson.as_mut(), resume.and_then(|ck| ck.history.as_ref())) {
        aa.restore(h)?;
    }
    let mut s = vec![0.0; m];
    let mut d = vec![0.0; n];
    // The row pass's iterate is read only as the Modified Algorithm's
    // support witness, so only that mode materializes it.
    let mut x = match opts.multiplier_bound {
        Some(_) => Some(p.x0().zeros_like()?),
        None => None,
    };
    let mut x_c = if tiled {
        ColumnIterate::Tiled(Scaled::zeros_like(p.x0())?)
    } else {
        ColumnIterate::Transposed(cols.prior.zeros_like()?)
    };
    // A breakdown restores the last checked iterate by replaying its
    // column pass, which needs the pass's starting μ.
    let mut mu_hint = vec![0.0; n];
    // For MaxAbsChange: the iterate at the previous check (x⁰ := X⁰), in
    // the column pass's layout.
    let mut x_prev = (criterion == ConvergenceCriterion::MaxAbsChange).then(|| cols.prior.clone());
    // The balance criteria read the row sums of X.
    let sums_checked = criterion != ConvergenceCriterion::MaxAbsChange;

    // Row sums of X, reused every check so the steady-state loop performs
    // no allocation, and the sweep whose iterate they sum: the finishing
    // sweep reuses the last check's.
    let mut row_sums_buf = vec![0.0; m];
    let mut row_sums_of: Option<usize> = None;
    // ζ's per-column sums, for the checks that evaluate it.
    let mut zeta_cols = vec![0.0; n];

    let mut iterations = 0usize;
    let mut converged = false;
    let mut residual = f64::INFINITY;
    // A step-size stop deferred after an extrapolated sweep is confirmed
    // by checking the plain sweep that follows, whatever the cadence.
    let mut confirm = false;

    for t in 1..=opts.max_iterations {
        iterations = t;
        if spanning {
            // Each epoch closes when the next opens, or after the loop.
            if t > 1 {
                obs.span_close(&KernelCounters::default());
            }
            obs.span_open(SpanKind::Epoch, t as u64, 0);
        }
        // Start the sweep from the extrapolated multipliers.
        if let Some(aa) = anderson.as_mut() {
            aa.begin_sweep(&mut mu);
        }

        // ---- Steps 1 and 2: row, then column equilibration. --------------
        rows.pass(
            t,
            &mu,
            (&mut lambda, &mut s, Out::Plain(x.as_mut())),
            obs,
            tally,
        )?;
        // The column pass's starting point, from which a breakdown restore
        // replays it.
        mu_hint.copy_from_slice(&mu);
        cols.pass(t, &lambda, (&mut mu, &mut d, x_c.out()), obs, tally)?;

        // For the balanced class the column totals *are* the account totals.
        if matches!(p.totals(), TotalSpec::Balanced { .. }) {
            s.copy_from_slice(&d);
        }
        // This sweep's output joins the extrapolation history.
        if let Some(aa) = anderson.as_mut() {
            aa.end_sweep(&mu);
        }

        // Scripted NaN injection (fault harness) lands before the watchdog
        // so the breakdown path is exercised exactly like a real blow-up.
        ctrl.inject_faults(t, &mut lambda);

        // ---- Step 3 opens: the check's O(nnz) row-sum pass. -------------
        // It runs ahead of the watchdog, which reuses it: finite sums imply
        // finite entries, so only a non-finite sum needs the entry scan.
        let check_now = confirm || t % check_every == 0;
        let check_t0 = check_now.then(|| {
            if spanning {
                obs.span_open(SpanKind::Check, t as u64, 1);
            }
            let t0 = Instant::now();
            if sums_checked {
                x_c.row_sums_into(&mut row_sums_buf, parallel);
                row_sums_of = Some(t);
            }
            t0
        });

        // ---- Watchdog: non-finite iterates. ------------------------------
        // Every iteration checks the multipliers and the full iterate, and
        // a breakdown restores the last certified snapshot.
        let finite = vector::all_finite(&lambda)
            && vector::all_finite(&mu)
            && ((check_now && sums_checked && vector::all_finite(&row_sums_buf))
                || x_c.all_finite());
        if !finite {
            if check_now && spanning {
                obs.span_close(&KernelCounters::default());
            }
            // The restore point holds the last checked iterate's λ and its
            // column pass's starting μ: replaying that pass, unobserved and
            // uncounted, rebuilds its μ, d and x bit for bit.
            let Some((it, res)) =
                ctrl.restore_snapshot(&mut lambda, &mut mu, &mut [], &mut s, &mut [])
            else {
                return Err(SeaError::NumericalBreakdown { iteration: t });
            };
            let replay = (&mut mu[..], &mut d[..], x_c.out());
            let unobserved = &mut Tally::default();
            cols.pass(it, &lambda, replay, &mut NullObserver, unobserved)?;
            if matches!(p.totals(), TotalSpec::Balanced { .. }) {
                s.copy_from_slice(&d);
            }
            iterations = it;
            residual = res;
            row_sums_of = None;
            break;
        }

        // ---- Step 3: convergence verification (serial). ------------------
        if let Some(t0) = check_t0 {
            if observing {
                obs.record(&Event::PhaseStart {
                    label: PhaseLabel::ConvergenceCheck,
                    tasks: 1,
                });
            }
            residual = match criterion {
                ConvergenceCriterion::MaxAbsChange => x_prev
                    .as_mut()
                    .map_or(f64::INFINITY, |prev| x_c.max_abs_change(prev)),
                ConvergenceCriterion::ConstraintNorm => {
                    let target = row_target(p.totals(), &s);
                    let mut sq = 0.0;
                    for i in 0..m {
                        let v = row_sums_buf[i] - target(i);
                        sq += v * v;
                    }
                    sq.sqrt()
                }
                ConvergenceCriterion::RelativeRowBalance => {
                    let target = row_target(p.totals(), &s);
                    let mut rel: f64 = 0.0;
                    for i in 0..m {
                        let ti = target(i);
                        rel = rel.max((row_sums_buf[i] - ti).abs() / ti.abs().max(1e-12));
                    }
                    rel
                }
            };
            let check_secs = t0.elapsed().as_secs_f64();
            // ζ is evaluated only for an observer that takes the events
            // reporting it, so a spanned check does an untraced check's work.
            let zeta = (bounds.is_none() && observing)
                .then(|| dual::dual_value_with(p, &lambda, &mu, &mut zeta_cols));
            if spanning {
                obs.span_close(&KernelCounters::default());
                obs.telemetry(&TelemetrySample {
                    iteration: t as u64,
                    seconds: start.elapsed().as_secs_f64(),
                    residual,
                });
            }
            if observing {
                obs.record(&Event::PhaseEnd {
                    label: PhaseLabel::ConvergenceCheck,
                    tasks: 1,
                    seconds: check_secs,
                    task_seconds: vec![check_secs],
                });
                obs.record(&Event::ConvergenceCheck {
                    iteration: t,
                    residual,
                    dual_value: zeta,
                    criterion: criterion.name(),
                });
            }
            // A step-size criterion measures SEA's own step only across a
            // plain sweep: after an extrapolated one, the next sweep is
            // plain and is checked before stopping.
            if residual <= opts.epsilon {
                confirm = criterion == ConvergenceCriterion::MaxAbsChange
                    && anderson
                        .as_mut()
                        .is_some_and(Anderson::restart_if_extrapolated);
                if !confirm {
                    converged = true;
                    break;
                }
            } else {
                confirm = false;
            }
            // This iterate passed the finite watchdog and was measured: it
            // becomes the breakdown restore point.
            ctrl.capture_snapshot(t, residual, &lambda, &mu_hint, &[], &s, &[]);
            if ctrl.note_residual(residual) {
                break; // StopReason::Stagnated latched in ctrl.
            }
        }

        // ---- Modified Algorithm: keep dual iterates bounded. -------------
        if let (Some(bound), Some(x)) = (opts.multiplier_bound, x.as_ref()) {
            // x (row-pass iterate) is a valid support witness: shifting is
            // only applied within its positive components.
            let shifted = normalize_multipliers(x, &mut lambda, &mut mu, bound);
            if shifted > 0 {
                if let Some(aa) = anderson.as_mut() {
                    aa.shift_output(&mu);
                }
                if observing {
                    obs.record(&Event::MultiplierBound {
                        iteration: t,
                        shifted,
                        bound,
                    });
                }
            }
        }

        // ---- Supervisor epilogue: checkpoint, then budget/cancellation. --
        let history = || anderson.as_ref().and_then(Anderson::history);
        if let Some(path) = ctrl.maybe_checkpoint(t, solver, &lambda, &mu, history) {
            if observing {
                obs.record(&Event::CheckpointWritten { iteration: t, path });
            }
        }
        let work = tally.counters.snapshot().work();
        if ctrl.should_stop(t, Some(work)).is_some() {
            break;
        }
    }
    if spanning && iterations > 0 {
        obs.span_close(&KernelCounters::default());
    }

    // ---- Finish: one sweep over the final column pass's layout. ----------
    let (s_final, d_final) = match p.totals() {
        TotalSpec::Fixed { s0, d0 } => (s0.clone(), d0.clone()),
        TotalSpec::Elastic { alpha, s0, .. } => {
            // s from the final λ (eq. 23b); d from the final column pass.
            let s: Vec<f64> = (0..m)
                .map(|i| s0[i] - lambda[i] / (2.0 * alpha[i]))
                .collect();
            (s, d.clone())
        }
        TotalSpec::Balanced { .. } => (s.clone(), s.clone()),
    };
    if row_sums_of != Some(iterations) {
        // The last sweep was not checked (or was replayed).
        x_c.row_sums_into(&mut row_sums_buf, parallel);
    }
    let columns = match (&mut x_c, &x0_t, &gamma_t) {
        (ColumnIterate::Tiled(x), _, _) => Columns::Tiled(x),
        (ColumnIterate::Transposed(x_t), Some(x0_t), Some(gamma_t)) => {
            Columns::Transposed { x_t, x0_t, gamma_t }
        }
        _ => return Err(transposition_error()),
    };
    let finished = Finish {
        columns,
        lambda: &lambda,
        mu: &mu,
        s: &s_final,
        d: &d_final,
        row_sums: &row_sums_buf,
    }
    .run(p, level, opts.parallelism);
    // The finishing sweep applied a tiled iterate's scales; a transposed
    // one comes back into the weights' transpose, spare now.
    let x_final = match (x_c, &transposer, gamma_t) {
        (ColumnIterate::Tiled(x), _, _) => x.x,
        (ColumnIterate::Transposed(x_t), Some(plan), Some(spare)) => {
            plan.back(&x_t, p.x0(), spare)?
        }
        _ => return Err(transposition_error()),
    };
    // The Solve span also covers the finishing sweep, assembly and freeing
    // the working set: together they are a sizeable share of a cheap
    // solve's wall time.
    drop((x_prev, x0_t, bounds_t, x, transposer, anderson));
    let (objective, dual_value) = (finished.objective, finished.dual_value);
    let solution = Solution {
        x: x_final,
        s: s_final,
        d: d_final,
        lambda,
        mu,
        stats: SolveStats {
            iterations,
            converged,
            residual,
            residuals: finished.residuals,
            objective,
            dual_value: dual_value.unwrap_or(f64::NAN),
            counters: tally.counters.snapshot(),
            elapsed: start.elapsed(),
        },
    };
    ctrl.fallbacks = tally.counters.fallbacks();
    close_solve(obs, ctrl.stop(), solution.stats.counters, || {
        Event::SolveEnd {
            iterations,
            converged,
            residual,
            objective,
            dual_value,
            seconds: start.elapsed().as_secs_f64(),
        }
    });
    Ok((solution, finished.certificate))
}

/// A sparse solve's column side missing a transposed matrix.
fn transposition_error() -> SeaError {
    SeaError::PatternMismatch {
        context: "solver transposition",
    }
}

/// The column pass's iterate: `Xᵀ` in the transposed layout of a sparse
/// solve, or a dense solve's row-major `X` with its columns' deferred
/// rounding scales.
enum ColumnIterate<S> {
    Transposed(S),
    Tiled(Scaled<S>),
}

impl<S: Storage> ColumnIterate<S> {
    /// Where the column pass writes it.
    fn out(&mut self) -> Out<'_, S> {
        match self {
            ColumnIterate::Transposed(x_t) => Out::Plain(Some(x_t)),
            ColumnIterate::Tiled(x) => Out::Scaled(x),
        }
    }

    /// Row sums of X into `out` (column sums of Xᵀ).
    fn row_sums_into(&self, out: &mut [f64], parallel: bool) {
        match self {
            ColumnIterate::Transposed(x_t) => x_t.col_sums_into(out),
            ColumnIterate::Tiled(x) => x.row_sums_into(out, parallel),
        }
    }

    /// Whether every entry is finite.
    fn all_finite(&self) -> bool {
        match self {
            ColumnIterate::Transposed(x_t) => vector::all_finite(x_t.values()),
            ColumnIterate::Tiled(x) => x.all_finite(),
        }
    }

    /// The largest entry change since `prev`, which then takes the
    /// iterate's values (in the same layout).
    fn max_abs_change(&self, prev: &mut S) -> f64 {
        match self {
            ColumnIterate::Transposed(x_t) => {
                let delta = x_t.max_abs_diff(prev);
                prev.copy_values_from(x_t);
                delta
            }
            ColumnIterate::Tiled(x) => x.max_abs_change(prev),
        }
    }
}

/// Where a pass writes its iterate.
enum Out<'a, S> {
    /// Into a matrix in the pass's own layout, if any (a row pass keeps
    /// one only for the Modified Algorithm).
    Plain(Option<&'a mut S>),
    /// Into a dense column pass's row-major iterate and its scales.
    Scaled(&'a mut Scaled<S>),
}

/// Starting multipliers: zeros (the paper's Step 0), or the supplied ones
/// after a length check.
fn initial_multipliers(
    given: Option<&[f64]>,
    len: usize,
    context: &'static str,
) -> Result<Vec<f64>, SeaError> {
    match given {
        None => Ok(vec![0.0; len]),
        Some(v) if v.len() == len => Ok(v.to_vec()),
        Some(v) => Err(SeaError::Shape {
            context,
            expected: len,
            actual: v.len(),
        }),
    }
}

/// One side of the SEA sweep (§3.1, Steps 1–2), built once per solve.
/// Row and column equilibration are the same step on opposite sides: the
/// row side solves the rows of `(x⁰, γ)` against μ, the column side their
/// columns against λ, as the rows of transposed copies `(x⁰ᵀ, γᵀ)` in a
/// sparse solve, or in column tiles of `(x⁰, γ)` themselves in a dense one
/// (the pass that writes an [`Out::Scaled`] iterate).
struct Side<'a, S: Storage> {
    label: PhaseLabel,
    prior: &'a S,
    gamma: &'a S,
    support: Option<&'a CsrMatrix>,
    bounds: Option<PassBounds<'a, S>>,
    /// Whether the first sweep's pass starts from supplied multipliers.
    warm_start: bool,
    faults: &'a FaultPlan,
    totals: &'a TotalSpec,
    opts: &'a SeaOptions,
}

/// What a solve's passes record. Kernel counters travel with the result,
/// so every pass harvests them, at one relaxed atomic add per shard. The
/// per-task costs (for events) and per-shard timings (for spans) are
/// sized on first use and reused every pass, so the steady state does
/// not allocate.
#[derive(Default)]
struct Tally {
    counters: PassCounters,
    costs: Vec<f64>,
    shards: Vec<ShardTiming>,
}

impl<S: Storage> Side<'_, S> {
    /// Run this side's pass of sweep `t` against the opposite side's
    /// multipliers `shift`, writing this side's multipliers, its totals
    /// and, when given, its iterate. The pass is a phase reported to
    /// `obs`, and its work is counted into `tally`.
    fn pass<O: Observer>(
        &self,
        t: usize,
        shift: &[f64],
        (multipliers, totals, x): (&mut [f64], &mut [f64], Out<'_, S>),
        obs: &mut O,
        tally: &mut Tally,
    ) -> Result<(), SeaError> {
        let rows = self.label == PhaseLabel::RowEquilibration;
        let side = if rows { "row" } else { "column" };
        let inputs = PassInputs {
            prior: self.prior,
            gamma: self.gamma,
            support: self.support,
            bounds: self.bounds.as_ref(),
            shift,
            side,
            kernel: self.opts.kernel,
            // Boxed answers depend on the hint in their last bits, so
            // bounded passes are warm only when extrapolating; the paper's
            // SEA (depth 0) keeps the cold boxed kernel's bits (see
            // `PassInputs::warm`).
            warm: (self.bounds.is_none() || self.opts.extrapolation_depth > 0)
                && (t > 1 || self.warm_start),
            fault: self.faults.task_fault(t, side),
        };
        let phase = Phase::open(obs, self.label, t, multipliers.len(), Some(&tally.counters));
        let modes = subproblem_modes(self.totals, rows, shift);
        // Fixed-size shards; subproblems are independent, so results are
        // bitwise-identical for every sharding.
        let block = self.opts.block_size.unwrap_or(DEFAULT_BLOCK_ROWS);
        let costs = obs.enabled().then_some(&mut tally.costs);
        let shards = obs.spans_enabled().then_some(&mut tally.shards);
        let par = self.opts.parallelism;
        match x {
            Out::Scaled(x) => tiles::column_pass(
                &inputs,
                &modes,
                multipliers,
                totals,
                x,
                par,
                block,
                costs,
                &tally.counters,
                shards,
            ),
            Out::Plain(x) => equilibration_pass(
                &inputs,
                &modes,
                multipliers,
                totals,
                x,
                par,
                block,
                costs,
                &tally.counters,
                shards,
            ),
        }?;
        phase.close(obs, Some(&tally.costs), &tally.shards);
        Ok(())
    }
}

/// The total specification of each subproblem of a row (`rows`) or column
/// pass. `other` is the opposite side's multipliers, which the balanced
/// class couples into each account's total.
fn subproblem_modes<'a>(
    spec: &'a TotalSpec,
    rows: bool,
    other: &'a [f64],
) -> impl Fn(usize) -> TotalMode + Sync + 'a {
    move |i| match spec {
        TotalSpec::Fixed { s0, d0 } => TotalMode::Fixed {
            total: if rows { s0[i] } else { d0[i] },
        },
        TotalSpec::Elastic {
            alpha,
            s0,
            beta,
            d0,
        } => {
            let (alpha, prior) = if rows { (alpha, s0) } else { (beta, d0) };
            TotalMode::Elastic {
                alpha: alpha[i],
                prior: prior[i],
                cross: 0.0,
            }
        }
        TotalSpec::Balanced { alpha, s0 } => TotalMode::Elastic {
            alpha: alpha[i],
            prior: s0[i],
            cross: other[i],
        },
    }
}

/// Row-total target accessor for the convergence check.
fn row_target<'a>(spec: &'a TotalSpec, s: &'a [f64]) -> impl Fn(usize) -> f64 + 'a {
    move |i: usize| match spec {
        TotalSpec::Fixed { s0, .. } => s0[i],
        // For elastic/balanced classes the row pass wrote s(λ) into `s`
        // (eq. 23b / 40b); for balanced `s` was synced to the column pass.
        TotalSpec::Elastic { .. } | TotalSpec::Balanced { .. } => s[i],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ZeroPolicy;
    use crate::weights::WeightScheme;
    use sea_observe::{NullObserver, PhaseLabel};

    /// Solve under default supervision and keep the solution.
    fn solve(p: &DiagonalProblem, opts: &SeaOptions) -> Solution {
        solve_diagonal_supervised(p, opts, &SupervisorOptions::default(), &mut NullObserver)
            .unwrap()
            .solution
    }

    fn fixed_problem() -> DiagonalProblem {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
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
    fn default_kernel_is_the_library_default() {
        assert_eq!(SeaOptions::default().kernel, KernelKind::default());
        assert_eq!(
            SeaOptions::with_epsilon(1e-6).kernel,
            KernelKind::Quickselect
        );
    }

    #[test]
    fn fixed_problem_converges_to_feasible_point() {
        let p = fixed_problem();
        let sol = solve(&p, &SeaOptions::with_epsilon(1e-10));
        assert!(sol.stats.converged, "did not converge: {:?}", sol.stats);
        assert!(sol.stats.residuals.row_inf < 1e-8);
        assert!(sol.stats.residuals.col_inf < 1e-10);
        assert!(sol.x.as_slice().iter().all(|&v| v >= 0.0));
        // Weak duality sandwich at the optimum.
        assert!(sol.stats.dual_value <= sol.stats.objective + 1e-8);
        assert!(
            (sol.stats.dual_value - sol.stats.objective).abs() < 1e-6,
            "duality gap too large: {} vs {}",
            sol.stats.dual_value,
            sol.stats.objective
        );
    }

    #[test]
    fn fixed_solution_satisfies_kkt() {
        let p = fixed_problem();
        let sol = solve(&p, &SeaOptions::with_epsilon(1e-12));
        // Stationarity: 2γ(x−x0) − λᵢ − μⱼ = 0 on the support, ≥ 0 off it.
        for i in 0..2 {
            for j in 0..2 {
                let grad = 2.0 * p.gamma().get(i, j) * (sol.x.get(i, j) - p.x0().get(i, j))
                    - sol.lambda[i]
                    - sol.mu[j];
                if sol.x.get(i, j) > 1e-9 {
                    assert!(grad.abs() < 1e-6, "grad({i},{j}) = {grad}");
                } else {
                    assert!(grad > -1e-6);
                }
            }
        }
    }

    #[test]
    fn elastic_problem_balances_push_and_pull() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let p = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Elastic {
                alpha: vec![1.0; 2],
                s0: vec![4.0, 4.0],
                beta: vec![1.0; 2],
                d0: vec![4.0, 4.0],
            },
        )
        .unwrap();
        let sol = solve(&p, &SeaOptions::with_epsilon(1e-12));
        assert!(sol.stats.converged);
        // Symmetric problem: x should stay symmetric, totals between the
        // prior margins (2) and the targets (4).
        let sums = sol.x.row_sums();
        assert!((sums[0] - sums[1]).abs() < 1e-8);
        assert!(sums[0] > 2.0 && sums[0] < 4.0);
        // Row constraint holds against estimated totals.
        assert!((sums[0] - sol.s[0]).abs() < 1e-8);
        assert!(sol.stats.residuals.row_inf < 1e-7);
    }

    #[test]
    fn balanced_problem_balances_accounts() {
        let x0 = DenseMatrix::from_rows(&[
            vec![0.0, 5.0, 1.0],
            vec![2.0, 0.0, 3.0],
            vec![4.0, 1.0, 0.0],
        ])
        .unwrap();
        let gamma = WeightScheme::LeastSquares.entry_weights(&x0).unwrap();
        let s0 = vec![6.0, 5.0, 5.0];
        let p = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Balanced {
                alpha: vec![1.0; 3],
                s0,
            },
        )
        .unwrap();
        let sol = solve(&p, &SeaOptions::with_epsilon(1e-10));
        assert!(sol.stats.converged);
        let rows = sol.x.row_sums();
        let cols = sol.x.col_sums();
        for i in 0..3 {
            assert!(
                (rows[i] - cols[i]).abs() < 1e-6,
                "account {i} unbalanced: row {} vs col {}",
                rows[i],
                cols[i]
            );
            assert!((rows[i] - sol.s[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn structural_zeros_survive_the_solve() {
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
        let sol = solve(&p, &SeaOptions::with_epsilon(1e-10));
        assert!(sol.stats.converged);
        assert_eq!(sol.x.get(0, 0), 0.0);
        assert!(sol.stats.residuals.row_inf < 1e-7);
    }

    #[test]
    fn parallel_matches_serial() {
        let p = fixed_problem();
        let serial = solve(&p, &SeaOptions::with_epsilon(1e-10));
        let mut opts = SeaOptions::with_epsilon(1e-10);
        opts.parallelism = Parallelism::RayonThreads(2);
        let par = solve(&p, &opts);
        assert_eq!(serial.stats.iterations, par.stats.iterations);
        assert!(serial.x.max_abs_diff(&par.x) < 1e-12);
    }

    /// Solve with an event recorder; keep the solution and the recorded
    /// `PhaseEnd` events as `(label, per-task costs)`.
    fn traced_solve(
        p: &DiagonalProblem,
        opts: &SeaOptions,
    ) -> (Solution, Vec<(PhaseLabel, usize)>) {
        let mut obs = sea_observe::VecObserver::new();
        let sup = SupervisorOptions::default();
        let sol = solve_diagonal_supervised(p, opts, &sup, &mut obs)
            .unwrap()
            .solution;
        let phases = obs
            .events
            .iter()
            .filter_map(|e| match e {
                Event::PhaseEnd {
                    label,
                    task_seconds,
                    ..
                } => Some((*label, task_seconds.len())),
                _ => None,
            })
            .collect();
        (sol, phases)
    }

    fn count(phases: &[(PhaseLabel, usize)], label: PhaseLabel) -> usize {
        phases.iter().filter(|(l, _)| *l == label).count()
    }

    #[test]
    fn trace_records_phases() {
        let p = fixed_problem();
        let (sol, phases) = traced_solve(&p, &SeaOptions::with_epsilon(1e-8));
        let iters = sol.stats.iterations;
        assert_eq!(count(&phases, PhaseLabel::RowEquilibration), iters);
        assert_eq!(count(&phases, PhaseLabel::ColumnEquilibration), iters);
        assert_eq!(count(&phases, PhaseLabel::ConvergenceCheck), iters);
        // Row phases carry one measured cost per row.
        assert!(phases
            .iter()
            .filter(|(l, _)| *l == PhaseLabel::RowEquilibration)
            .all(|&(_, tasks)| tasks == 2));
    }

    #[test]
    fn check_every_reduces_serial_phases() {
        let p = fixed_problem();
        let mut opts = SeaOptions::with_epsilon(1e-10);
        opts.check_every = 2;
        let (sol, phases) = traced_solve(&p, &opts);
        assert!(count(&phases, PhaseLabel::ConvergenceCheck) <= sol.stats.iterations / 2 + 1);
        assert!(sol.stats.converged);
    }

    #[test]
    fn iteration_cap_reports_nonconvergence() {
        // Unequal weights: one sweep is not exact (with equal weights the
        // 2x2 fixed problem happens to solve in a single iteration).
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        gamma.set(0, 0, 9.0);
        gamma.set(1, 1, 0.25);
        let p = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let mut opts = SeaOptions::with_epsilon(1e-16);
        opts.max_iterations = 1;
        let sol = solve(&p, &opts);
        assert!(!sol.stats.converged);
        assert_eq!(sol.stats.iterations, 1);
        // Even without convergence the column constraints hold exactly.
        assert!(sol.stats.residuals.col_inf < 1e-9);
    }

    #[test]
    fn iterations_within_theoretical_bound() {
        let p = fixed_problem();
        let eps = 1e-4;
        let mut opts = SeaOptions::with_epsilon(eps);
        opts.criterion = Some(ConvergenceCriterion::ConstraintNorm);
        let sol = solve(&p, &opts);
        assert!(sol.stats.converged);
        let bound = crate::theory::iteration_bound(&p, eps);
        assert!(
            (sol.stats.iterations as f64) <= bound,
            "iterations {} exceed bound {}",
            sol.stats.iterations,
            bound
        );
    }

    #[test]
    fn modified_algorithm_does_not_change_solution() {
        let p = fixed_problem();
        let plain = solve(&p, &SeaOptions::with_epsilon(1e-10));
        let mut opts = SeaOptions::with_epsilon(1e-10);
        opts.multiplier_bound = Some(1e3);
        let modified = solve(&p, &opts);
        assert!(plain.x.max_abs_diff(&modified.x) < 1e-8);
    }

    #[test]
    fn convergence_checks_record_monotone_dual_ascent() {
        // The paper's eq. 71: ζ(λ^{t+2}, μ^{t+1}) ≥ ζ(λ^{t+1}, μ^{t+1}) ≥ …
        // — dual values never decrease across plain SEA iterations
        // (extrapolated steps may lower ζ, so the paper's SEA is pinned).
        let spe_like = DiagonalProblem::new(
            DenseMatrix::from_rows(&[
                vec![1.0, 6.0, 2.0],
                vec![5.0, 1.0, 3.0],
                vec![2.0, 2.0, 7.0],
            ])
            .unwrap(),
            DenseMatrix::filled(3, 3, 1.0).unwrap(),
            TotalSpec::Elastic {
                alpha: vec![0.5; 3],
                s0: vec![20.0, 15.0, 18.0],
                beta: vec![0.5; 3],
                d0: vec![18.0, 17.0, 18.0],
            },
        )
        .unwrap();
        let mut opts = SeaOptions::with_epsilon(1e-10);
        opts.extrapolation_depth = 0;
        let mut obs = sea_observe::VecObserver::new();
        let sup = SupervisorOptions::default();
        let sol = solve_diagonal_supervised(&spe_like, &opts, &sup, &mut obs)
            .unwrap()
            .solution;
        let duals: Vec<f64> = obs
            .events
            .iter()
            .filter_map(|e| match e {
                Event::ConvergenceCheck { dual_value, .. } => *dual_value,
                _ => None,
            })
            .collect();
        assert!(duals.len() > 2, "needs several checks to be meaningful");
        for w in duals.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9 * w[0].abs().max(1.0),
                "dual ascent violated: {} then {}",
                w[0],
                w[1]
            );
        }
        // The dual converges to the primal objective from below.
        assert!(duals[duals.len() - 1] <= sol.stats.objective + 1e-8);
    }

    #[test]
    fn warm_start_reproduces_same_solution() {
        let p = fixed_problem();
        let cold = solve(&p, &SeaOptions::with_epsilon(1e-10));
        // Restarting from the converged multipliers converges immediately
        // to the same point.
        let mut opts = SeaOptions::with_epsilon(1e-10);
        opts.initial_mu = Some(cold.mu.clone());
        let warm = solve(&p, &opts);
        assert!(warm.stats.converged);
        assert!(warm.stats.iterations <= cold.stats.iterations);
        assert!(warm.x.max_abs_diff(&cold.x) < 1e-8);
        // Wrong length is rejected.
        opts.initial_mu = Some(vec![0.0; 5]);
        assert!(matches!(
            solve_diagonal_supervised(&p, &opts, &SupervisorOptions::default(), &mut NullObserver),
            Err(SeaError::Shape {
                context: "initial_mu",
                ..
            })
        ));
        // So is a resume checkpoint that does not fit the problem.
        let sup = SupervisorOptions {
            resume: Some(crate::supervisor::Checkpoint {
                solver: "diagonal".to_string(),
                iteration: 4,
                lambda: vec![0.0; 3],
                mu: cold.mu.clone(),
                history: None,
            }),
            ..SupervisorOptions::default()
        };
        assert!(matches!(
            solve_diagonal_supervised(&p, &opts, &sup, &mut NullObserver),
            Err(SeaError::Shape {
                context: "resume lambda",
                expected: 2,
                actual: 3,
            })
        ));
    }

    #[test]
    fn observer_sees_full_event_lifecycle() {
        let p = fixed_problem();
        let mut obs = sea_observe::VecObserver::new();
        let opts = SeaOptions::with_epsilon(1e-10);
        let sup = SupervisorOptions::default();
        let sol = solve_diagonal_supervised(&p, &opts, &sup, &mut obs)
            .unwrap()
            .solution;
        let events = &obs.events;
        assert!(matches!(
            events.first(),
            Some(Event::SolveStart {
                solver: "diagonal",
                rows: 2,
                cols: 2,
                ..
            })
        ));
        match events.last() {
            Some(Event::SolveEnd {
                iterations,
                converged,
                ..
            }) => {
                assert_eq!(*iterations, sol.stats.iterations);
                assert!(*converged);
            }
            other => panic!("expected SolveEnd, got {other:?}"),
        }
        // Each iteration contributes row + column + check phase pairs.
        let row_starts = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::PhaseStart {
                        label: PhaseLabel::RowEquilibration,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(row_starts, sol.stats.iterations);
        let checks = events
            .iter()
            .filter(|e| matches!(e, Event::ConvergenceCheck { .. }))
            .count();
        assert_eq!(checks, sol.stats.iterations);
        // Kernel counters were harvested: one subproblem per row and column
        // per iteration.
        let counters = events.iter().find_map(|e| match e {
            Event::KernelCounters { counters } => Some(*counters),
            _ => None,
        });
        let snap = counters.expect("kernel counters event missing");
        assert_eq!(snap.subproblems, (4 * sol.stats.iterations) as u64);
        // The dual value is reported at every check.
        for e in events {
            if let Event::ConvergenceCheck { dual_value, .. } = e {
                assert!(dual_value.is_some());
            }
        }
    }

    #[test]
    fn observed_solve_matches_unobserved() {
        let p = fixed_problem();
        let plain = solve(&p, &SeaOptions::with_epsilon(1e-10));
        let mut obs = sea_observe::VecObserver::new();
        let opts = SeaOptions::with_epsilon(1e-10);
        let sup = SupervisorOptions::default();
        let observed = solve_diagonal_supervised(&p, &opts, &sup, &mut obs)
            .unwrap()
            .solution;
        assert_eq!(plain.stats.iterations, observed.stats.iterations);
        assert!(plain.x.max_abs_diff(&observed.x) < 1e-15);
    }

    #[test]
    fn criterion_names_are_stable() {
        assert_eq!(ConvergenceCriterion::MaxAbsChange.name(), "max_abs_change");
        assert_eq!(
            ConvergenceCriterion::RelativeRowBalance.name(),
            "relative_row_balance"
        );
        assert_eq!(
            ConvergenceCriterion::ConstraintNorm.name(),
            "constraint_norm"
        );
    }

    #[test]
    fn chi_square_weights_reproduce_biproportional_flavor() {
        // With chi-square weights and doubled margins, entries roughly
        // double (the RAS-like behaviour the weights are chosen for).
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        let gamma = WeightScheme::ChiSquare.entry_weights(&x0).unwrap();
        let s0: Vec<f64> = x0.row_sums().iter().map(|v| 2.0 * v).collect();
        let d0: Vec<f64> = x0.col_sums().iter().map(|v| 2.0 * v).collect();
        let p = DiagonalProblem::new(x0.clone(), gamma, TotalSpec::Fixed { s0, d0 }).unwrap();
        let sol = solve(&p, &SeaOptions::with_epsilon(1e-12));
        for i in 0..2 {
            for j in 0..2 {
                let ratio = sol.x.get(i, j) / x0.get(i, j);
                assert!((ratio - 2.0).abs() < 1e-6, "ratio({i},{j}) = {ratio}");
            }
        }
    }
}
