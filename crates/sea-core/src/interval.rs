//! Box/interval-constrained diagonal problems — the Harrigan–Buchanan
//! (1984) and Ohuchi–Kaji (1984) extensions noted in §2.
//!
//! The fixed-totals diagonal problem gains per-entry bounds
//! `loᵢⱼ ≤ xᵢⱼ ≤ hiᵢⱼ` (interval constraints on the estimates). The SEA
//! machinery carries over unchanged: each row/column subproblem becomes a
//! box-bounded continuous quadratic knapsack, still solvable exactly by a
//! breakpoint sweep ([`crate::knapsack::exact_equilibration_boxed`]).

use crate::error::SeaError;
use crate::kernel_simd::{
    exact_equilibration_boxed_f32, exact_equilibration_boxed_simd, Precision, SimdMode,
};
use crate::knapsack::{EquilibrationResult, EquilibrationScratch, KernelKind, TotalMode};
use crate::problem::Residuals;
use crate::storage::{RowView, Storage};
use crate::supervisor::{SolveControl, StopReason, SupervisedBoundedSolution, SupervisorOptions};
use sea_linalg::simd::{self, SimdLevel};
use sea_linalg::{vector, DenseMatrix};
use sea_observe::{
    Event, KernelCounters, NullObserver, Observer, PhaseLabel, SpanKind, TelemetrySample,
};
use std::time::{Duration, Instant};

/// A fixed-totals diagonal problem with entry bounds. Generic over
/// [`Storage`]: with a sparse backend, all four matrices share one support
/// pattern and entries outside it are pinned at zero (they contribute
/// nothing to either bound sum).
#[derive(Debug, Clone)]
pub struct BoundedProblem<S: Storage = DenseMatrix> {
    x0: S,
    gamma: S,
    lo: S,
    hi: S,
    s0: Vec<f64>,
    d0: Vec<f64>,
}

impl<S: Storage> BoundedProblem<S> {
    /// Build and validate.
    ///
    /// # Errors
    /// * [`SeaError::Shape`] for any dimension mismatch.
    /// * [`SeaError::InconsistentBounds`] if some `lo > hi` entrywise.
    /// * [`SeaError::InconsistentTotals`] if `Σ s⁰ ≠ Σ d⁰`.
    /// * [`SeaError::NonPositiveWeight`] for non-positive `γ`.
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
        if s0.len() != m || d0.len() != n {
            return Err(SeaError::Shape {
                context: "bounded totals",
                expected: m + n,
                actual: s0.len() + d0.len(),
            });
        }
        // `index` is a storage index: a flat cell index for dense backends,
        // a position in the stored-value array for sparse ones.
        for (k, (&l, &h)) in lo.values().iter().zip(hi.values()).enumerate() {
            if l > h {
                return Err(SeaError::InconsistentBounds {
                    index: k,
                    lower: l,
                    upper: h,
                });
            }
        }
        for (k, &g) in gamma.values().iter().enumerate() {
            if !(g > 0.0) {
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
        // row is feasible only for a zero total.
        let mut lo_sums = vec![0.0; m];
        let mut hi_sums = vec![0.0; m];
        lo.row_sums_into(&mut lo_sums);
        hi.row_sums_into(&mut hi_sums);
        for i in 0..m {
            if s0[i] < lo_sums[i] - 1e-9 || s0[i] > hi_sums[i] + 1e-9 {
                return Err(SeaError::InfeasibleSubproblem {
                    side: "row",
                    index: i,
                });
            }
        }
        let mut lo_csums = vec![0.0; n];
        let mut hi_csums = vec![0.0; n];
        lo.col_sums_into(&mut lo_csums);
        hi.col_sums_into(&mut hi_csums);
        for j in 0..n {
            if d0[j] < lo_csums[j] - 1e-9 || d0[j] > hi_csums[j] + 1e-9 {
                return Err(SeaError::InfeasibleSubproblem {
                    side: "column",
                    index: j,
                });
            }
        }
        Ok(Self {
            x0,
            gamma,
            lo,
            hi,
            s0,
            d0,
        })
    }

    /// Rows.
    pub fn m(&self) -> usize {
        self.x0.rows()
    }

    /// Columns.
    pub fn n(&self) -> usize {
        self.x0.cols()
    }

    /// The prior `X⁰`.
    pub fn x0(&self) -> &S {
        &self.x0
    }

    /// The weight matrix `Γ`.
    pub fn gamma(&self) -> &S {
        &self.gamma
    }

    /// Lower bounds.
    pub fn lo(&self) -> &S {
        &self.lo
    }

    /// Upper bounds.
    pub fn hi(&self) -> &S {
        &self.hi
    }

    /// Row totals `s⁰`.
    pub fn s0(&self) -> &[f64] {
        &self.s0
    }

    /// Column totals `d⁰`.
    pub fn d0(&self) -> &[f64] {
        &self.d0
    }

    /// Objective `Σ γᵢⱼ (xᵢⱼ − x⁰ᵢⱼ)²`.
    pub fn objective(&self, x: &S) -> f64 {
        debug_assert!(x.same_pattern(&self.x0));
        x.values()
            .iter()
            .zip(self.x0.values().iter().zip(self.gamma.values()))
            .map(|(x, (x0, g))| g * (x - x0) * (x - x0))
            .sum()
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
    /// Wall clock.
    pub elapsed: Duration,
}

/// Kernel configuration for the bounded driver: which λ-search kernel,
/// which SIMD policy, and which arithmetic precision. The default
/// (`KernelKind::default()`, `SimdMode::Off`, `Precision::F64`) is what
/// [`solve_bounded`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedOptions {
    /// Which equilibration kernel solves the row/column subproblems.
    pub kernel: KernelKind,
    /// SIMD policy, resolved once per solve against the running CPU.
    pub simd: SimdMode,
    /// Arithmetic precision of the iterates (same phase semantics as
    /// [`crate::SeaOptions::precision`]: `F32Mixed` polishes in f64 before
    /// convergence may be declared).
    pub precision: Precision,
}

impl Default for BoundedOptions {
    fn default() -> Self {
        Self {
            kernel: KernelKind::default(),
            simd: SimdMode::Off,
            precision: Precision::F64,
        }
    }
}

/// Solve a bounded problem by SEA with box-bounded exact equilibration.
///
/// # Errors
/// Propagates kernel failures; returns `converged = false` on hitting
/// `max_iterations`.
pub fn solve_bounded<S: Storage>(
    p: &BoundedProblem<S>,
    epsilon: f64,
    max_iterations: usize,
) -> Result<BoundedSolution<S>, SeaError> {
    solve_bounded_with(p, epsilon, max_iterations, KernelKind::default())
}

/// [`solve_bounded`] with a full kernel configuration (kernel choice, SIMD
/// policy, and precision).
///
/// # Errors
/// Same contract as [`solve_bounded`], plus [`SeaError::SimdUnsupported`]
/// when `opts.simd` is [`SimdMode::Force`] on a CPU without AVX2.
pub fn solve_bounded_configured<S: Storage>(
    p: &BoundedProblem<S>,
    epsilon: f64,
    max_iterations: usize,
    opts: &BoundedOptions,
) -> Result<BoundedSolution<S>, SeaError> {
    solve_bounded_inner_warm(
        p,
        epsilon,
        max_iterations,
        *opts,
        None,
        &mut NullObserver,
        &mut SolveControl::passive(),
    )
}

/// [`solve_bounded_supervised_warm`] with a full kernel configuration.
///
/// # Errors
/// Same contract as [`solve_bounded_supervised_warm`], plus
/// [`SeaError::SimdUnsupported`] when SIMD is forced without AVX2 support.
pub fn solve_bounded_supervised_configured<S: Storage, O: Observer>(
    p: &BoundedProblem<S>,
    epsilon: f64,
    max_iterations: usize,
    opts: &BoundedOptions,
    initial_mu: Option<&[f64]>,
    sup: &SupervisorOptions,
    obs: &mut O,
) -> Result<SupervisedBoundedSolution<S>, SeaError> {
    let mut ctrl = SolveControl::active(sup);
    let solution = solve_bounded_inner_warm(
        p,
        epsilon,
        max_iterations,
        *opts,
        initial_mu,
        obs,
        &mut ctrl,
    )?;
    let stop = if solution.converged {
        StopReason::Converged
    } else {
        ctrl.stop().unwrap_or(StopReason::IterationCap)
    };
    Ok(SupervisedBoundedSolution { solution, stop })
}

/// [`solve_bounded`] with an explicit equilibration kernel choice.
///
/// # Errors
/// Same contract as [`solve_bounded`].
pub fn solve_bounded_with<S: Storage>(
    p: &BoundedProblem<S>,
    epsilon: f64,
    max_iterations: usize,
    kernel: KernelKind,
) -> Result<BoundedSolution<S>, SeaError> {
    solve_bounded_observed(p, epsilon, max_iterations, kernel, &mut NullObserver)
}

/// [`solve_bounded_with`] with an event sink (see
/// [`crate::solver::solve_diagonal_observed`]).
///
/// The bounded driver is serial, so phase events carry empty `task_seconds`
/// (consumers fall back to the phase total) and kernel counters are read
/// straight from the single scratch workspace.
///
/// # Errors
/// Same contract as [`solve_bounded`].
pub fn solve_bounded_observed<S: Storage, O: Observer>(
    p: &BoundedProblem<S>,
    epsilon: f64,
    max_iterations: usize,
    kernel: KernelKind,
    obs: &mut O,
) -> Result<BoundedSolution<S>, SeaError> {
    solve_bounded_inner(
        p,
        epsilon,
        max_iterations,
        kernel,
        obs,
        &mut SolveControl::passive(),
    )
}

/// [`solve_bounded_observed`] under the fault-tolerant supervisor: budget,
/// cancellation, stagnation, and breakdown watchdogs are checked once per
/// iteration (the bounded driver is serial; worker faults don't apply).
///
/// # Errors
/// Same contract as [`solve_bounded`], except numerical breakdown after a
/// certified snapshot returns that snapshot with
/// [`StopReason::Breakdown`] instead of an error.
pub fn solve_bounded_supervised<S: Storage, O: Observer>(
    p: &BoundedProblem<S>,
    epsilon: f64,
    max_iterations: usize,
    kernel: KernelKind,
    sup: &SupervisorOptions,
    obs: &mut O,
) -> Result<SupervisedBoundedSolution<S>, SeaError> {
    solve_bounded_supervised_warm(p, epsilon, max_iterations, kernel, None, sup, obs)
}

/// [`solve_bounded_supervised`] seeded with column multipliers from a
/// previous solve of a related problem. The row pass recomputes `λ` from
/// `μ`, so `μ` alone resumes/warm-starts a bounded solve — the same
/// mechanism the diagonal driver exposes via `SeaOptions::initial_mu` and
/// that checkpoints use.
///
/// # Errors
/// Same contract as [`solve_bounded`], plus [`SeaError::Shape`] when
/// `initial_mu` has the wrong length.
pub fn solve_bounded_supervised_warm<S: Storage, O: Observer>(
    p: &BoundedProblem<S>,
    epsilon: f64,
    max_iterations: usize,
    kernel: KernelKind,
    initial_mu: Option<&[f64]>,
    sup: &SupervisorOptions,
    obs: &mut O,
) -> Result<SupervisedBoundedSolution<S>, SeaError> {
    let mut ctrl = SolveControl::active(sup);
    let solution = solve_bounded_inner_warm(
        p,
        epsilon,
        max_iterations,
        BoundedOptions {
            kernel,
            ..BoundedOptions::default()
        },
        initial_mu,
        obs,
        &mut ctrl,
    )?;
    let stop = if solution.converged {
        StopReason::Converged
    } else {
        ctrl.stop().unwrap_or(StopReason::IterationCap)
    };
    Ok(SupervisedBoundedSolution { solution, stop })
}

/// Run the configured boxed kernel on one subproblem's gathered slices:
/// f32 λ-search first during the mixed-precision phase (falling back to
/// the f64 kernel when it cannot produce a usable multiplier), the
/// SIMD-dispatched f64 kernel otherwise.
#[allow(clippy::too_many_arguments)] // kernel inputs + output + workspace
fn boxed_kernel(
    kernel: KernelKind,
    level: SimdLevel,
    f32_phase: bool,
    q: &[f64],
    g: &[f64],
    sh: &[f64],
    l: &[f64],
    h: &[f64],
    mode: TotalMode,
    x_row: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    // As in the plain dispatcher: the f32 stand-in is a sort-scan, so it
    // only pays off under the sort-scan kernel; quickselect solves route
    // straight to the f64 kernel.
    if f32_phase && kernel == KernelKind::SortScan {
        if let Some(r) = exact_equilibration_boxed_f32(level, q, g, sh, l, h, mode, x_row, scratch)?
        {
            return Ok(r);
        }
    }
    exact_equilibration_boxed_simd(level, kernel, q, g, sh, l, h, mode, x_row, scratch)
}

/// Solve one box-bounded subproblem in row orientation: dense rows go to
/// the kernel whole; a sparse row's stored support *is* the subproblem, with
/// only the shift vector gathered into `sh_buf`.
#[allow(clippy::too_many_arguments)] // one quadruple + one scalar per kernel input
fn boxed_task<S: Storage>(
    kernel: KernelKind,
    level: SimdLevel,
    f32_phase: bool,
    (prior, gamma, lo, hi): (&S, &S, &S, &S),
    shift: &[f64],
    side: &'static str,
    i: usize,
    total: f64,
    x: &mut S,
    sh_buf: &mut Vec<f64>,
    scratch: &mut EquilibrationScratch,
) -> Result<f64, SeaError> {
    let mode = TotalMode::Fixed { total };
    match (
        prior.row_view(i),
        gamma.row_view(i),
        lo.row_view(i),
        hi.row_view(i),
    ) {
        (RowView::Dense(q), RowView::Dense(g), RowView::Dense(l), RowView::Dense(h)) => {
            let r = boxed_kernel(
                kernel,
                level,
                f32_phase,
                q,
                g,
                shift,
                l,
                h,
                mode,
                x.row_values_mut(i),
                scratch,
            )?;
            Ok(r.lambda)
        }
        (
            RowView::Indexed { idx, vals: q },
            RowView::Indexed { vals: g, .. },
            RowView::Indexed { vals: l, .. },
            RowView::Indexed { vals: h, .. },
        ) => {
            if idx.is_empty() {
                // Fully-pinned (empty) sparse subproblem: every entry is a
                // structural zero, so only a zero total is attainable.
                scratch.stats.subproblems += 1;
                if total.abs() > 1e-9 {
                    return Err(SeaError::InfeasibleSubproblem { side, index: i });
                }
                return Ok(0.0);
            }
            sh_buf.clear();
            sh_buf.resize(idx.len(), 0.0);
            simd::gather(level, shift, idx, sh_buf);
            let r = boxed_kernel(
                kernel,
                level,
                f32_phase,
                q,
                g,
                sh_buf,
                l,
                h,
                mode,
                x.row_values_mut(i),
                scratch,
            )?;
            Ok(r.lambda)
        }
        _ => Err(SeaError::PatternMismatch {
            context: "bounded pass inputs (mixed row views)",
        }),
    }
}

fn solve_bounded_inner<S: Storage, O: Observer>(
    p: &BoundedProblem<S>,
    epsilon: f64,
    max_iterations: usize,
    kernel: KernelKind,
    obs: &mut O,
    ctrl: &mut SolveControl<'_>,
) -> Result<BoundedSolution<S>, SeaError> {
    solve_bounded_inner_warm(
        p,
        epsilon,
        max_iterations,
        BoundedOptions {
            kernel,
            ..BoundedOptions::default()
        },
        None,
        obs,
        ctrl,
    )
}

fn solve_bounded_inner_warm<S: Storage, O: Observer>(
    p: &BoundedProblem<S>,
    epsilon: f64,
    max_iterations: usize,
    cfg: BoundedOptions,
    initial_mu: Option<&[f64]>,
    obs: &mut O,
    ctrl: &mut SolveControl<'_>,
) -> Result<BoundedSolution<S>, SeaError> {
    let kernel = cfg.kernel;
    let simd_level = cfg.simd.resolve()?;
    // Mixed-precision phase control, mirroring the diagonal driver: the
    // f32 phase hands over to a full-f64 polish epoch on reaching ε or on
    // stagnation, and only the polish may declare convergence.
    let mut f32_phase = cfg.precision != Precision::F64;
    let mut prev_rel = f64::INFINITY;
    let mut stagnant_checks = 0u32;
    let start = Instant::now();
    let (m, n) = (p.m(), p.n());
    let observing = obs.enabled();
    if observing {
        obs.record(&Event::SolveStart {
            solver: "bounded",
            rows: m,
            cols: n,
            kernel: kernel.name(),
            parallelism: "serial".to_string(),
            criterion: "relative_row_balance",
        });
    }
    // The bounded driver is fully serial, so pass spans carry their own
    // kernel counters directly: a snapshot delta of the cumulative scratch
    // stats brackets each pass, and there are no shard leaves to replay.
    // The Solve span covers the transposes and the final assembly too.
    let spanning = obs.spans_enabled();
    if spanning {
        obs.span_open(SpanKind::Solve, 0, (m + n) as u64);
    }
    let x0_t = p.x0.transposed()?;
    let gamma_t = p.gamma.transposed()?;
    let lo_t = p.lo.transposed()?;
    let hi_t = p.hi.transposed()?;
    let mut epoch_open = false;

    let mut lambda = vec![0.0; m];
    let mut mu = match initial_mu {
        None => vec![0.0; n],
        Some(mu0) => {
            if mu0.len() != n {
                return Err(SeaError::Shape {
                    context: "initial_mu",
                    expected: n,
                    actual: mu0.len(),
                });
            }
            mu0.to_vec()
        }
    };
    let mut x = p.x0.zeros_like()?;
    let mut x_t = x0_t.zeros_like()?;
    let mut scratch = EquilibrationScratch::new();
    let mut sh_buf: Vec<f64> = Vec::new();
    let mut row_sums_buf = vec![0.0; m];

    let mut iterations = 0;
    let mut converged = false;
    let mut rel = f64::INFINITY;
    for t in 1..=max_iterations.max(1) {
        iterations = t;
        if spanning {
            obs.span_open(SpanKind::Epoch, t as u64, 0);
            epoch_open = true;
            obs.span_open(SpanKind::RowPass, t as u64, m as u64);
        }
        let pass_c0 = scratch.stats;
        if observing {
            obs.record(&Event::PhaseStart {
                label: PhaseLabel::RowEquilibration,
                tasks: m,
            });
        }
        let phase_t0 = observing.then(Instant::now);
        for i in 0..m {
            lambda[i] = boxed_task(
                kernel,
                simd_level,
                f32_phase,
                (&p.x0, &p.gamma, &p.lo, &p.hi),
                &mu,
                "row",
                i,
                p.s0[i],
                &mut x,
                &mut sh_buf,
                &mut scratch,
            )?;
        }
        if let Some(t0) = phase_t0 {
            obs.record(&Event::PhaseEnd {
                label: PhaseLabel::RowEquilibration,
                tasks: m,
                seconds: t0.elapsed().as_secs_f64(),
                task_seconds: Vec::new(),
            });
            obs.record(&Event::PhaseStart {
                label: PhaseLabel::ColumnEquilibration,
                tasks: n,
            });
        }
        if spanning {
            obs.span_close(&scratch.stats.delta_from(pass_c0));
            obs.span_open(SpanKind::ColPass, t as u64, n as u64);
        }
        let pass_c0 = scratch.stats;
        let phase_t0 = observing.then(Instant::now);
        for j in 0..n {
            mu[j] = boxed_task(
                kernel,
                simd_level,
                f32_phase,
                (&x0_t, &gamma_t, &lo_t, &hi_t),
                &lambda,
                "column",
                j,
                p.d0[j],
                &mut x_t,
                &mut sh_buf,
                &mut scratch,
            )?;
        }
        if let Some(t0) = phase_t0 {
            obs.record(&Event::PhaseEnd {
                label: PhaseLabel::ColumnEquilibration,
                tasks: n,
                seconds: t0.elapsed().as_secs_f64(),
                task_seconds: Vec::new(),
            });
            obs.record(&Event::PhaseStart {
                label: PhaseLabel::ConvergenceCheck,
                tasks: 1,
            });
        }
        if spanning {
            obs.span_close(&scratch.stats.delta_from(pass_c0));
            obs.span_open(SpanKind::Check, t as u64, 1);
        }
        // Relative row balance after the column pass.
        let check_t0 = Instant::now();
        x_t.col_sums_into(&mut row_sums_buf);
        rel = row_sums_buf
            .iter()
            .zip(&p.s0)
            .map(|(r, s)| (r - s).abs() / s.abs().max(1e-12))
            .fold(0.0_f64, f64::max);
        if observing {
            let check_secs = check_t0.elapsed().as_secs_f64();
            obs.record(&Event::PhaseEnd {
                label: PhaseLabel::ConvergenceCheck,
                tasks: 1,
                seconds: check_secs,
                task_seconds: vec![check_secs],
            });
            obs.record(&Event::ConvergenceCheck {
                iteration: t,
                residual: rel,
                dual_value: None,
                criterion: "relative_row_balance",
            });
        }
        if spanning {
            obs.span_close(&KernelCounters::default());
            let active_set = x_t.values().iter().filter(|v| **v > 0.0).count() as u64;
            obs.telemetry(&TelemetrySample {
                iteration: t as u64,
                seconds: start.elapsed().as_secs_f64(),
                residual: rel,
                dual_value: f64::NAN,
                kernel_work: scratch.stats.work(),
                active_set,
            });
        }
        let f32_iterating = f32_phase && cfg.precision == Precision::F32Mixed;
        if rel <= epsilon {
            if f32_iterating {
                // Hand over to the f64 polish epoch; convergence may only
                // be declared from full-precision iterates.
                f32_phase = false;
            } else {
                converged = true;
                break;
            }
        } else if f32_iterating {
            if rel > prev_rel * 0.99 {
                stagnant_checks += 1;
                if stagnant_checks >= 3 {
                    f32_phase = false;
                }
            } else {
                stagnant_checks = 0;
            }
        }
        prev_rel = rel;

        // ---- Supervisor hooks (per iteration). ---------------------------
        if ctrl.is_active() {
            ctrl.inject_faults(t, &mut lambda);
            let finite = vector::all_finite(&lambda)
                && vector::all_finite(&mu)
                && vector::all_finite(x_t.values());
            if !finite {
                let mut empty_s: [f64; 0] = [];
                let mut empty_d: [f64; 0] = [];
                if ctrl
                    .restore_snapshot(
                        &mut lambda,
                        &mut mu,
                        x_t.values_mut(),
                        &mut empty_s,
                        &mut empty_d,
                    )
                    .map(|(it, res)| {
                        iterations = it;
                        rel = res;
                    })
                    .is_some()
                {
                    break;
                }
                return Err(SeaError::NumericalBreakdown { iteration: t });
            }
            ctrl.capture_snapshot(t, rel, &lambda, &mu, x_t.values(), &[], &[]);
            if ctrl.note_residual(rel) {
                break;
            }
            if ctrl.should_stop(t, None).is_some() {
                break;
            }
        }

        if spanning {
            obs.span_close(&KernelCounters::default());
            epoch_open = false;
        }
    }
    if spanning && epoch_open {
        obs.span_close(&KernelCounters::default());
    }

    let x_final = x_t.transposed()?;
    let mut row_sums = vec![0.0; m];
    let mut col_sums = vec![0.0; n];
    x_final.row_sums_into(&mut row_sums);
    x_final.col_sums_into(&mut col_sums);
    let mut residuals = Residuals::default();
    let mut sq = 0.0;
    for i in 0..m {
        let v = (row_sums[i] - p.s0[i]).abs();
        residuals.row_inf = residuals.row_inf.max(v);
        residuals.rel_row_inf = residuals.rel_row_inf.max(v / p.s0[i].abs().max(1e-12));
        sq += v * v;
    }
    for j in 0..n {
        let v = (col_sums[j] - p.d0[j]).abs();
        residuals.col_inf = residuals.col_inf.max(v);
        sq += v * v;
    }
    residuals.norm2 = sq.sqrt();
    let objective = p.objective(&x_final);
    if spanning {
        obs.span_close(&KernelCounters::default());
    }

    if observing {
        if ctrl.is_active() && !converged {
            obs.record(&Event::SupervisorStop {
                iteration: iterations,
                reason: ctrl
                    .stop()
                    .map_or(StopReason::IterationCap.name(), StopReason::name),
            });
        }
        if !scratch.stats.is_empty() {
            obs.record(&Event::KernelCounters {
                counters: scratch.stats,
            });
        }
        obs.record(&Event::SolveEnd {
            iterations,
            converged,
            residual: rel,
            objective,
            dual_value: None,
            seconds: start.elapsed().as_secs_f64(),
        });
    }

    Ok(BoundedSolution {
        x: x_final,
        lambda,
        mu,
        iterations,
        converged,
        residuals,
        objective,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> BoundedProblem {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let lo = DenseMatrix::filled(2, 2, 0.5).unwrap();
        let hi = DenseMatrix::filled(2, 2, 10.0).unwrap();
        BoundedProblem::new(x0, gamma, lo, hi, vec![4.0, 6.0], vec![5.0, 5.0]).unwrap()
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
        let free =
            crate::solver::solve_diagonal(&dp, &crate::solver::SeaOptions::with_epsilon(1e-12))
                .unwrap();
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
        let sol =
            solve_bounded_observed(&p, 1e-10, 10_000, KernelKind::SortScan, &mut obs).unwrap();
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
    }

    #[test]
    fn warm_start_reproduces_same_solution_and_validates_length() {
        let p = problem();
        let sup = SupervisorOptions::default();
        let cold = solve_bounded_supervised_warm(
            &p,
            1e-10,
            10_000,
            KernelKind::SortScan,
            None,
            &sup,
            &mut sea_observe::NullObserver,
        )
        .unwrap();
        assert_eq!(cold.stop, StopReason::Converged);
        let warm = solve_bounded_supervised_warm(
            &p,
            1e-10,
            10_000,
            KernelKind::SortScan,
            Some(&cold.solution.mu),
            &sup,
            &mut sea_observe::NullObserver,
        )
        .unwrap();
        assert_eq!(warm.stop, StopReason::Converged);
        assert!(warm.solution.iterations <= cold.solution.iterations);
        assert!(warm.solution.x.max_abs_diff(&cold.solution.x) < 1e-8);

        let err = solve_bounded_supervised_warm(
            &p,
            1e-10,
            10_000,
            KernelKind::SortScan,
            Some(&[0.0; 5]),
            &sup,
            &mut sea_observe::NullObserver,
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
}
