//! Row/column equilibration passes.
//!
//! One pass maximizes the dual over one multiplier block (all `λᵢ` or all
//! `μⱼ′`) with the other block fixed — which, by the duality argument of
//! §3.1, is exactly a set of *independent* single-constraint subproblems,
//! one per row (resp. column), each solved in closed form by
//! [`crate::knapsack::exact_equilibration`]. Independence is what makes SEA
//! parallel: every subproblem can go to a distinct processor.
//!
//! Both passes share one orientation-agnostic implementation: the caller
//! supplies the prior and weight matrices oriented so subproblems are rows
//! (the column pass passes transposed copies built once per solve). The
//! pass is generic over [`Storage`]: dense rows go to the kernel whole (or
//! gathered through structural-zero support lists), while CSR rows *are*
//! the support — the kernel runs directly over the stored value slices
//! and reads the shift vector through the row's column index, so sparse
//! subproblem cost is `O(k log k)` in the row's support size `k`, never
//! `O(n)`.
//!
//! A pass writes its iterate only when the caller keeps it: the solver's
//! row pass does so only for the Modified Algorithm's support witness.
//! Without one, plain subproblems yield just `(λ, total)`, while boxed ones
//! still clamp every entry, because their clamp count is kernel work.
//!
//! Parallel passes are **sharded**: rows are grouped into cache-sized
//! contiguous blocks and the blocks are distributed over the worker pool.
//! Each row is still solved independently, so results are bitwise
//! identical across worker counts *and* shard sizes.

use crate::error::SeaError;
use crate::knapsack::{
    exact_equilibration_boxed_hinted, exact_equilibration_hinted, EquilibrationScratch,
    IndexedShift, KernelKind, Shift, TotalMode,
};
use crate::parallel::Parallelism;
use crate::storage::{RowView, Storage};
use crate::supervisor::TaskFault;
use rayon::prelude::*;
use sea_observe::KernelCounters;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default shard size (rows per block) for parallel passes when the solver
/// does not supply explicit boundaries. Sized so a typical block's working
/// set (a few KB per row even on dense mid-size instances) stays within an
/// L2 cache.
pub const DEFAULT_BLOCK_ROWS: usize = 256;

thread_local! {
    /// Workspace reused by every *serial* pass run on this thread. A pass
    /// sizes the buffers on first use and later passes (and later solves)
    /// reuse them, keeping the steady-state solver loop allocation-free —
    /// the property `tests/alloc_free.rs` audits. Rayon passes instead get
    /// one scratch per worker via `try_for_each_init`.
    static SERIAL_SCRATCH: RefCell<TaskScratch> = RefCell::new(TaskScratch::new());
}

/// Thread-safe accumulator for [`KernelCounters`] harvested from the
/// per-thread `TaskScratch` workspaces of a rayon pass. The pass hands
/// each worker its own scratch (`try_for_each_init`), so counters are
/// flushed here with relaxed atomics once per shard — contention-free in
/// practice and exact in total.
#[derive(Debug, Default)]
pub struct PassCounters {
    subproblems: AtomicU64,
    breakpoints_scanned: AtomicU64,
    quickselect_pivots: AtomicU64,
    boxed_clamps: AtomicU64,
    // Tracked outside `KernelCounters`, whose 4-field wire layout is pinned
    // by the JSONL golden fixture.
    kernel_fallbacks: AtomicU64,
}

impl PassCounters {
    /// Fold one scratch's counters into the accumulator.
    pub fn add(&self, c: &KernelCounters) {
        if c.is_empty() {
            return;
        }
        self.subproblems.fetch_add(c.subproblems, Ordering::Relaxed);
        self.breakpoints_scanned
            .fetch_add(c.breakpoints_scanned, Ordering::Relaxed);
        self.quickselect_pivots
            .fetch_add(c.quickselect_pivots, Ordering::Relaxed);
        self.boxed_clamps
            .fetch_add(c.boxed_clamps, Ordering::Relaxed);
    }

    /// Fold one scratch's quickselect→sort-scan fallback count in.
    pub fn add_fallbacks(&self, n: u64) {
        if n != 0 {
            self.kernel_fallbacks.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Total quickselect→sort-scan fallbacks accumulated so far.
    pub fn fallbacks(&self) -> u64 {
        self.kernel_fallbacks.load(Ordering::Relaxed)
    }

    /// Read the current totals.
    pub fn snapshot(&self) -> KernelCounters {
        KernelCounters {
            subproblems: self.subproblems.load(Ordering::Relaxed),
            breakpoints_scanned: self.breakpoints_scanned.load(Ordering::Relaxed),
            quickselect_pivots: self.quickselect_pivots.load(Ordering::Relaxed),
            boxed_clamps: self.boxed_clamps.load(Ordering::Relaxed),
        }
    }
}

/// Wall-clock window and kernel work of one shard of a parallel pass,
/// filled by the worker that ran the shard. Offsets are nanoseconds from
/// the pass start, so the serial caller can replay shards as span leaves
/// without workers ever touching the observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardTiming {
    /// Nanoseconds from pass start to the shard's first task.
    pub start_ns: u64,
    /// Nanoseconds from pass start to the shard's last task finishing.
    pub end_ns: u64,
    /// Subproblems (rows) in the shard.
    pub tasks: u64,
    /// Kernel work done by the shard's tasks.
    pub counters: KernelCounters,
}

/// Preallocated per-shard timing sink for span profiling.
///
/// Reused across passes: `equilibration_pass` resizes it to the shard
/// count (a no-op allocation-wise after the first pass, since the shard
/// layout of a solve is fixed) and workers fill disjoint slots. Serial
/// passes leave it empty — the pass span itself carries their timing.
#[derive(Debug, Default)]
pub struct ShardSink {
    timings: Vec<ShardTiming>,
}

impl ShardSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size for `shards` slots and zero them.
    fn prepare(&mut self, shards: usize) {
        self.timings.clear();
        self.timings.resize(shards, ShardTiming::default());
    }

    /// The per-shard timings of the most recent parallel pass (empty
    /// after a serial pass).
    pub fn timings(&self) -> &[ShardTiming] {
        &self.timings
    }

    /// Drop any recorded timings (used before serial passes so stale
    /// shards from a previous pass are not replayed).
    pub fn clear(&mut self) {
        self.timings.clear();
    }
}

/// Nanoseconds elapsed since `base`, saturating.
fn elapsed_ns(base: Instant) -> u64 {
    let d = base.elapsed();
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(u64::from(d.subsec_nanos()))
}

/// Per-thread scratch: gather buffers for dense rows with structural-zero
/// support lists plus the kernel's own workspace. Reused across every
/// subproblem a thread handles (allocation-free hot loop).
#[derive(Debug, Default, Clone)]
pub(crate) struct TaskScratch {
    eq: EquilibrationScratch,
    q: Vec<f64>,
    g: Vec<f64>,
    x: Vec<f64>,
    /// Quickselect→sort-scan fallbacks taken by this thread's tasks.
    fallbacks: u64,
}

impl TaskScratch {
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// Entry bounds of a box-bounded pass, in the pass's row orientation, with
/// each subproblem's `(Σ lo, Σ hi)`: the bounds never change during a
/// solve, so the kernel neither re-sums nor re-checks them. The sums come
/// from the problem, which computed them once while validating it.
#[derive(Debug)]
pub struct PassBounds<'a, S: Storage> {
    lo: &'a S,
    hi: &'a S,
    sums: &'a [(f64, f64)],
}

impl<'a, S: Storage> PassBounds<'a, S> {
    /// Bounds `(lo, hi)` in the same orientation and pattern as the pass's
    /// prior, with `lo ≤ hi` entrywise, and each row's `(Σ lo, Σ hi)` as
    /// `iter().sum()` over its stored values gives them (the bits the
    /// kernel's own sums would have).
    pub fn new(lo: &'a S, hi: &'a S, sums: &'a [(f64, f64)]) -> Self {
        debug_assert_eq!(sums.len(), lo.rows());
        Self { lo, hi, sums }
    }

    /// Row `i`'s `(lo, hi)` slices and their sums.
    fn row(&self, i: usize) -> BoxRow<'_> {
        (
            &self.lo.values()[self.lo.row_range(i)],
            &self.hi.values()[self.hi.row_range(i)],
            self.sums[i],
        )
    }
}

/// One subproblem's bounds: `(lo, hi, (Σ lo, Σ hi))`.
type BoxRow<'a> = (&'a [f64], &'a [f64], (f64, f64));

/// Inputs shared by every subproblem of a pass, in "row orientation".
pub struct PassInputs<'a, S: Storage> {
    /// Prior matrix, oriented so each subproblem is a contiguous row.
    pub prior: &'a S,
    /// Weight matrix, same orientation (and, for sparse storage, the same
    /// pattern).
    pub gamma: &'a S,
    /// Structural-zero support lists (per subproblem), if any. Dense
    /// storage only: sparse rows carry their support in the pattern.
    pub support: Option<&'a [Vec<u32>]>,
    /// Entry bounds in the same orientation and pattern as `prior`, for
    /// box-bounded problems: each subproblem then becomes a box-bounded
    /// knapsack. `None` keeps the plain `x ≥ 0` subproblem.
    pub bounds: Option<&'a PassBounds<'a, S>>,
    /// The opposite side's multipliers (length = subproblem size).
    pub shift: &'a [f64],
    /// `"row"` or `"column"`, for error reporting.
    pub side: &'static str,
    /// Which equilibration kernel solves each subproblem.
    pub kernel: KernelKind,
    /// When `true` the pass's multiplier output already holds each
    /// subproblem's previous multiplier (a later iteration, or one supplied
    /// up front), and the quickselect kernel, plain or boxed, starts its
    /// search from it. When `false` the plain kernel first tests the
    /// segment where no entry is clamped at zero (`PassInputs::hint`),
    /// and the boxed kernel solves every subproblem from scratch.
    ///
    /// The answer's last bits depend on the hint. The solver therefore
    /// warms bounded passes only when it extrapolates
    /// (`SeaOptions::extrapolation_depth > 0`): at depth 0, the paper's SEA,
    /// the boxed kernel runs cold and keeps the bits `tests/bounded_pinned.rs`
    /// pins.
    pub warm: bool,
    /// Scripted fault for one subproblem of this pass (fault-injection
    /// harness only; `None` in production).
    pub fault: Option<TaskFault>,
}

impl<S: Storage> PassInputs<'_, S> {
    /// The quickselect kernel's starting hint for a subproblem whose
    /// previous multiplier is `previous`: that multiplier on a warm pass.
    /// A cold plain pass starts from `+∞`, whose segment has every entry
    /// active; it holds the root whenever the subproblem's solution is
    /// interior, and a miss costs one extra read of the row. A cold boxed
    /// pass gets no hint (see [`PassInputs::warm`]).
    fn hint(&self, previous: f64) -> Option<f64> {
        match (self.warm, self.bounds) {
            (true, _) => Some(previous),
            (false, None) => Some(f64::INFINITY),
            (false, Some(_)) => None,
        }
    }
}

/// Run the configured kernel on one subproblem — the box-bounded variant
/// when `bounds` carries the subproblem's bounds, else the plain kernel —
/// started from `hint` ([`PassInputs::hint`]), writing the entries
/// to `x` when the pass keeps its iterate; on a
/// pathological result (non-finite `λ` or total — or a scripted kernel
/// fault) re-solve with the robust sort-scan kernel and count the fallback.
/// Quickselect's median-of-three pivoting can in principle degrade on
/// adversarial breakpoint patterns; sort-scan is the slower oracle both
/// kernels are differentially tested against, so it is the safe harbor.
#[allow(clippy::too_many_arguments)] // kernel inputs + output + workspace + fallback sink
fn kernel_solve(
    kernel: KernelKind,
    force_fallback: bool,
    q: &[f64],
    g: &[f64],
    sh: impl Shift,
    bounds: Option<BoxRow<'_>>,
    mode: TotalMode,
    hint: Option<f64>,
    mut x: Option<&mut [f64]>,
    eq: &mut EquilibrationScratch,
    fallbacks: &mut u64,
) -> Result<(f64, f64), SeaError> {
    let mut solve = |kernel| match bounds {
        None => exact_equilibration_hinted(kernel, q, g, sh, mode, hint, x.as_deref_mut(), eq),
        Some((lo, hi, sums)) => exact_equilibration_boxed_hinted(
            kernel,
            q,
            g,
            sh,
            lo,
            hi,
            Some(sums),
            mode,
            hint,
            x.as_deref_mut(),
            eq,
        ),
    };
    let r = solve(kernel)?;
    let pathological = force_fallback || !r.lambda.is_finite() || !r.total.is_finite();
    if pathological && kernel == KernelKind::Quickselect {
        *fallbacks += 1;
        let r = solve(KernelKind::SortScan)?;
        return Ok((r.lambda, r.total));
    }
    Ok((r.lambda, r.total))
}

/// Shared semantics for a subproblem with no active entries: the iterate
/// stays zero, a positive fixed total is infeasible, and an elastic total
/// settles at its unconstrained optimum. A box-bounded subproblem may have
/// a total of either sign, so there only `|total| ≤ 10⁻⁹` is attainable —
/// the tolerance bounded validation applies to its margin sums.
fn empty_support_result(
    mode: TotalMode,
    bounded: bool,
    side: &'static str,
    i: usize,
) -> Result<(f64, f64), SeaError> {
    match mode {
        TotalMode::Fixed { total } => {
            let infeasible = if bounded {
                total.abs() > 1e-9
            } else {
                total > 0.0
            };
            if infeasible {
                return Err(SeaError::InfeasibleSubproblem { side, index: i });
            }
            Ok((0.0, 0.0))
        }
        TotalMode::Elastic {
            alpha,
            prior,
            cross,
        } => Ok((2.0 * alpha * prior - cross, 0.0)),
    }
}

/// Re-attribute a kernel's infeasibility error to this pass's side and
/// subproblem index (the kernel only sees one anonymous subproblem).
fn locate(e: SeaError, side: &'static str, i: usize) -> SeaError {
    match e {
        SeaError::InfeasibleSubproblem { .. } => SeaError::InfeasibleSubproblem { side, index: i },
        other => other,
    }
}

/// `out = src[idx]`, reusing `out`'s allocation.
fn gather(src: &[f64], idx: &[u32], out: &mut Vec<f64>) {
    out.clear();
    out.extend(idx.iter().map(|&j| src[j as usize]));
}

/// Solve one subproblem; returns `(λ, realized total)` and, when the pass
/// keeps its iterate, writes the subproblem's entries into `x_row` (the
/// iterate's stored values for this row: length `n` dense, support size for
/// CSR). A CSR row or a support list reads the shift through its column
/// index; nothing gathers it. `hint` is the quickselect kernel's starting
/// point ([`PassInputs::hint`]).
fn solve_task<S: Storage>(
    inp: &PassInputs<'_, S>,
    i: usize,
    mode: TotalMode,
    hint: Option<f64>,
    x_row: Option<&mut [f64]>,
    scratch: &mut TaskScratch,
) -> Result<(f64, f64), SeaError> {
    let force_fallback = match inp.fault {
        Some(f) if f.index == i => {
            if f.panic {
                panic!("injected worker panic (fault plan)");
            }
            true
        }
        _ => false,
    };
    // Bounds share the prior's orientation and pattern, so their stored
    // values for row `i` line up with the prior row entry by entry.
    let bounds = inp.bounds.map(|b| b.row(i));
    let TaskScratch {
        eq,
        q: q_buf,
        g: g_buf,
        x,
        fallbacks,
    } = scratch;
    match (inp.prior.row_view(i), inp.gamma.row_view(i)) {
        // Sparse row: the stored entries are the support. The kernel runs
        // directly over the prior/weight value slices, reads the shift
        // through the column index and writes the iterate's stored values
        // in place.
        (RowView::Indexed { idx, vals: q }, RowView::Indexed { vals: g, .. }) => {
            if idx.is_empty() {
                return empty_support_result(mode, bounds.is_some(), inp.side, i);
            }
            let sh = IndexedShift {
                src: inp.shift,
                idx,
            };
            kernel_solve(
                inp.kernel,
                force_fallback,
                q,
                g,
                sh,
                bounds,
                mode,
                hint,
                x_row,
                eq,
                fallbacks,
            )
            .map_err(|e| locate(e, inp.side, i))
        }
        (RowView::Dense(prior_row), RowView::Dense(gamma_row)) => match inp.support {
            None => kernel_solve(
                inp.kernel,
                force_fallback,
                prior_row,
                gamma_row,
                inp.shift,
                bounds,
                mode,
                hint,
                x_row,
                eq,
                fallbacks,
            ),
            Some(support) => {
                // Box-bounded problems carry any support in a sparse
                // pattern; dense support lists only come with `x ≥ 0`.
                if bounds.is_some() {
                    return Err(SeaError::PatternMismatch {
                        context: "pass inputs (bounds with dense support lists)",
                    });
                }
                let idx = &support[i];
                let k = idx.len();
                if k == 0 {
                    if let Some(row) = x_row {
                        row.fill(0.0);
                    }
                    return empty_support_result(mode, false, inp.side, i);
                }
                gather(prior_row, idx, q_buf);
                gather(gamma_row, idx, g_buf);
                let sh = IndexedShift {
                    src: inp.shift,
                    idx,
                };
                let x_k = match x_row {
                    Some(_) => {
                        x.resize(k, 0.0);
                        Some(&mut x[..])
                    }
                    None => None,
                };
                let (lambda, total) = kernel_solve(
                    inp.kernel,
                    force_fallback,
                    q_buf,
                    g_buf,
                    sh,
                    None,
                    mode,
                    hint,
                    x_k,
                    eq,
                    fallbacks,
                )
                .map_err(|e| locate(e, inp.side, i))?;
                if let Some(row) = x_row {
                    row.fill(0.0);
                    for (&j, &v) in idx.iter().zip(x.iter()) {
                        row[j as usize] = v;
                    }
                }
                Ok((lambda, total))
            }
        },
        // A problem's prior and weights share one storage type and pattern,
        // so mixed views cannot occur.
        _ => Err(SeaError::PatternMismatch {
            context: "pass inputs (mixed row views)",
        }),
    }
}

/// [`solve_task`] with panic containment: a worker panic (including a
/// scripted one) becomes [`SeaError::WorkerPanic`] instead of unwinding
/// through — or, under rayon, aborting — the whole solve. The non-panic
/// path of `catch_unwind` costs no allocation, preserving the
/// allocation-free steady state.
fn run_task<S: Storage>(
    inp: &PassInputs<'_, S>,
    i: usize,
    mode: TotalMode,
    hint: Option<f64>,
    x_row: Option<&mut [f64]>,
    scratch: &mut TaskScratch,
) -> Result<(f64, f64), SeaError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        solve_task(inp, i, mode, hint, x_row, scratch)
    })) {
        Ok(r) => r,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic payload of unknown type".to_string());
            Err(SeaError::WorkerPanic {
                side: inp.side,
                index: i,
                message,
            })
        }
    }
}

/// One contiguous block of subproblems of a parallel pass, carrying the
/// disjoint output slices its rows write. Blocks are the unit of work
/// distribution *and* of counter flushing; rows inside a block run
/// sequentially on one worker.
struct Shard<'a> {
    /// Global index of the first row in this shard.
    base: usize,
    lambda: &'a mut [f64],
    totals: &'a mut [f64],
    /// Per-row stored-value slices of the iterate (empty when the pass
    /// does not materialize it).
    rows: Vec<&'a mut [f64]>,
    /// Per-row wall-clock sinks, when the pass is timing tasks.
    costs: Option<&'a mut [f64]>,
    /// This shard's timing slot, when the pass is span-profiled.
    timing: Option<&'a mut ShardTiming>,
}

/// Split the pass outputs into [`Shard`]s at the given start indices
/// (`starts[0] == 0`, strictly increasing, each `< m`).
fn build_shards<'a, S: Storage>(
    starts: &[usize],
    m: usize,
    lambda: &'a mut [f64],
    totals_out: &'a mut [f64],
    x: Option<&'a mut S>,
    mut costs: Option<&'a mut [f64]>,
    mut timings: Option<&'a mut [ShardTiming]>,
) -> Vec<Shard<'a>> {
    debug_assert_eq!(starts.first(), Some(&0));
    let row_lens: Vec<usize> = match &x {
        Some(x) => (0..m).map(|i| x.row_range(i).len()).collect(),
        None => Vec::new(),
    };
    let mut lam_rest = lambda;
    let mut tot_rest = totals_out;
    // Stored values are row-major and contiguous in both backends, so the
    // per-row slices tile `values_mut()` exactly.
    let mut vals_rest = x.map_or(&mut [][..], Storage::values_mut);
    let mut shards = Vec::with_capacity(starts.len());
    for (si, &start) in starts.iter().enumerate() {
        let end = starts.get(si + 1).copied().unwrap_or(m);
        let cnt = end - start;
        let (lam, rest) = std::mem::take(&mut lam_rest).split_at_mut(cnt);
        lam_rest = rest;
        let (tot, rest) = std::mem::take(&mut tot_rest).split_at_mut(cnt);
        tot_rest = rest;
        let shard_costs = costs.as_mut().map(|c| {
            let (head, rest) = std::mem::take(c).split_at_mut(cnt);
            *c = rest;
            head
        });
        let shard_timing = timings.as_mut().map(|t| {
            let (head, rest) = std::mem::take(t).split_at_mut(1);
            *t = rest;
            &mut head[0]
        });
        let lens = row_lens.get(start..end).unwrap_or_default();
        let mut rows = Vec::with_capacity(lens.len());
        for &len in lens {
            let (row, rest) = std::mem::take(&mut vals_rest).split_at_mut(len);
            vals_rest = rest;
            rows.push(row);
        }
        shards.push(Shard {
            base: start,
            lambda: lam,
            totals: tot,
            rows,
            costs: shard_costs,
            timing: shard_timing,
        });
    }
    shards
}

/// Run a full equilibration pass.
///
/// `modes(i)` supplies the total specification of subproblem `i`; `lambda`
/// and `totals_out` receive, per subproblem, the constraint multiplier and
/// the realized total (when `inp.warm`, `lambda` is read first as each
/// subproblem's starting hint); `x`, when given (same orientation — and,
/// for sparse storage, the same pattern — as `inp.prior`), receives the
/// primal iterate. λ, the totals and the kernel counters come out the same,
/// bit for bit, with or without `x`. When
/// `costs` is provided it is filled with per-task wall-clock seconds for
/// the scheduling simulator. When `counters` is provided the kernels' work
/// counters are accumulated into it (pass `None` when nothing is
/// observing; the flush is skipped entirely).
///
/// `shard_starts` optionally supplies explicit shard boundaries for the
/// parallel path (start indices, first `0`). `None` shards uniformly every
/// [`DEFAULT_BLOCK_ROWS`] rows. Serial passes ignore sharding. Results are
/// bitwise independent of the sharding because every row is solved
/// independently.
///
/// When `timings` is provided, parallel workers fill one [`ShardTiming`]
/// slot per shard (wall window relative to pass start, task count, and
/// kernel counters) for the caller to replay as span leaves; serial
/// passes clear the sink instead. Per-shard counters require `counters`
/// to also be present (the per-shard flush is what isolates them).
///
/// # Errors
/// Propagates the first subproblem failure (infeasibility, invalid data).
#[allow(clippy::too_many_arguments)] // pass = inputs + three outputs + mode + three optional sinks
pub fn equilibration_pass<S: Storage>(
    inp: &PassInputs<'_, S>,
    modes: &(dyn Fn(usize) -> TotalMode + Sync),
    lambda: &mut [f64],
    totals_out: &mut [f64],
    mut x: Option<&mut S>,
    par: Parallelism,
    mut costs: Option<&mut Vec<f64>>,
    counters: Option<&PassCounters>,
    shard_starts: Option<&[usize]>,
    timings: Option<&mut ShardSink>,
) -> Result<(), SeaError> {
    let m = inp.prior.rows();
    debug_assert_eq!(lambda.len(), m);
    debug_assert_eq!(totals_out.len(), m);
    debug_assert!(x.as_ref().is_none_or(|x| x.same_pattern(inp.prior)));

    if let Some(c) = costs.as_deref_mut() {
        c.clear();
        c.resize(m, 0.0);
    }
    let timing = costs.is_some();

    match par {
        Parallelism::Serial => SERIAL_SCRATCH.with_borrow_mut(|scratch| {
            if let Some(sink) = timings {
                sink.clear();
            }
            let mut cost_slice: Option<&mut [f64]> = costs.map(Vec::as_mut_slice);
            // The scratch outlives any one pass; drop counts a previous
            // (possibly aborted) pass left behind before accumulating.
            scratch.eq.stats = KernelCounters::default();
            scratch.fallbacks = 0;
            for i in 0..m {
                let t0 = timing.then(Instant::now);
                let hint = inp.hint(lambda[i]);
                let x_row = x.as_deref_mut().map(|x| x.row_values_mut(i));
                let (l, s) = run_task(inp, i, modes(i), hint, x_row, scratch)?;
                lambda[i] = l;
                totals_out[i] = s;
                if let (Some(c), Some(t0)) = (cost_slice.as_deref_mut(), t0) {
                    c[i] = t0.elapsed().as_secs_f64();
                }
            }
            if let Some(c) = counters {
                c.add(&scratch.eq.stats);
                c.add_fallbacks(scratch.fallbacks);
            }
            Ok(())
        }),
        Parallelism::Rayon | Parallelism::RayonThreads(_) => {
            // `RayonThreads` pools are installed by the solver around the
            // whole solve; here both variants fan out on the current pool.
            let default_starts: Vec<usize>;
            let starts: &[usize] = match shard_starts {
                Some(s) if !s.is_empty() => s,
                _ => {
                    default_starts = (0..m).step_by(DEFAULT_BLOCK_ROWS).collect();
                    &default_starts
                }
            };
            let cost_slice: Option<&mut [f64]> = costs.map(Vec::as_mut_slice);
            let timing_slots: Option<&mut [ShardTiming]> = timings.map(|sink| {
                sink.prepare(starts.len());
                sink.timings.as_mut_slice()
            });
            let pass_t0 = Instant::now();
            let mut shards =
                build_shards(starts, m, lambda, totals_out, x, cost_slice, timing_slots);
            shards
                .par_iter_mut()
                .try_for_each_init(TaskScratch::new, |scratch, shard| {
                    if let Some(tm) = shard.timing.as_mut() {
                        tm.start_ns = elapsed_ns(pass_t0);
                    }
                    for t in 0..shard.lambda.len() {
                        let i = shard.base + t;
                        let t0 = timing.then(Instant::now);
                        let hint = inp.hint(shard.lambda[t]);
                        let x_row = shard.rows.get_mut(t).map(|r| &mut **r);
                        let (lv, sv) = run_task(inp, i, modes(i), hint, x_row, scratch)?;
                        shard.lambda[t] = lv;
                        shard.totals[t] = sv;
                        if let (Some(c), Some(t0)) = (shard.costs.as_deref_mut(), t0) {
                            c[t] = t0.elapsed().as_secs_f64();
                        }
                    }
                    if let Some(tm) = shard.timing.as_mut() {
                        tm.end_ns = elapsed_ns(pass_t0);
                        tm.tasks = shard.lambda.len() as u64;
                        // Valid only alongside `counters`: the per-shard
                        // flush below is what scopes the scratch stats to
                        // this shard.
                        tm.counters = scratch.eq.stats;
                    }
                    if let Some(acc) = counters {
                        acc.add(&scratch.eq.stats);
                        acc.add_fallbacks(scratch.fallbacks);
                        scratch.eq.stats = KernelCounters::default();
                        scratch.fallbacks = 0;
                    }
                    Ok(())
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_linalg::{CsrMatrix, DenseMatrix};

    fn setup() -> (DenseMatrix, DenseMatrix) {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 0.0, 2.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 3, 1.0).unwrap();
        (x0, gamma)
    }

    #[test]
    fn fixed_pass_hits_row_totals() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            bounds: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            warm: false,
            fault: None,
        };
        let s0 = [9.0, 3.0];
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        equilibration_pass(
            &inp,
            &|i| TotalMode::Fixed { total: s0[i] },
            &mut lambda,
            &mut totals,
            Some(&mut x),
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        )
        .unwrap();
        let sums = x.row_sums();
        assert!((sums[0] - 9.0).abs() < 1e-9);
        assert!((sums[1] - 3.0).abs() < 1e-9);
        assert!(x.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn serial_and_parallel_agree() {
        let (x0, gamma) = setup();
        let shift = vec![0.5, -0.5, 0.25];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            bounds: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            warm: false,
            fault: None,
        };
        let run = |par: Parallelism| {
            let mut lambda = vec![0.0; 2];
            let mut totals = vec![0.0; 2];
            let mut x = DenseMatrix::zeros(2, 3).unwrap();
            equilibration_pass(
                &inp,
                &|i| TotalMode::Elastic {
                    alpha: 1.0 + i as f64,
                    prior: 5.0,
                    cross: 0.0,
                },
                &mut lambda,
                &mut totals,
                Some(&mut x),
                par,
                None,
                None,
                None,
                None,
            )
            .unwrap();
            (lambda, totals, x)
        };
        let (l1, t1, x1) = run(Parallelism::Serial);
        let (l2, t2, x2) = run(Parallelism::Rayon);
        assert_eq!(l1, l2);
        assert_eq!(t1, t2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn structural_support_keeps_zeros() {
        let (x0, gamma) = setup();
        let support = vec![vec![0u32, 1, 2], vec![0u32, 2]];
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: Some(&support),
            bounds: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            warm: false,
            fault: None,
        };
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 8.0 },
            &mut lambda,
            &mut totals,
            Some(&mut x),
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(x.get(1, 1), 0.0, "structural zero must stay zero");
        let sums = x.row_sums();
        assert!((sums[1] - 8.0).abs() < 1e-9);
        // Box bounds come with sparse patterns, never dense support lists.
        let lo = DenseMatrix::zeros(2, 3).unwrap();
        let hi = DenseMatrix::filled(2, 3, 10.0).unwrap();
        let sums = [(0.0, 30.0); 2];
        let bounds = PassBounds::new(&lo, &hi, &sums);
        let e = equilibration_pass(
            &PassInputs {
                bounds: Some(&bounds),
                ..inp
            },
            &|_| TotalMode::Fixed { total: 8.0 },
            &mut lambda,
            &mut totals,
            Some(&mut x),
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        );
        assert!(matches!(e, Err(SeaError::PatternMismatch { .. })));
    }

    #[test]
    fn csr_pass_matches_dense_structural_bitwise() {
        // Same logical problem: dense rows with structural-zero support
        // lists vs a CSR whose pattern is that support. The kernel must see
        // identical value sequences, so λ, totals, and stored x agree
        // *bitwise* and the structural cell stays zero.
        let (x0, gamma) = setup();
        let support = vec![vec![0u32, 1, 2], vec![0u32, 2]];
        let shift = vec![0.37, -0.21, 0.11];

        let mut lambda_d = vec![0.0; 2];
        let mut totals_d = vec![0.0; 2];
        let mut xd = DenseMatrix::zeros(2, 3).unwrap();
        equilibration_pass(
            &PassInputs {
                prior: &x0,
                gamma: &gamma,
                support: Some(&support),
                bounds: None,
                shift: &shift,
                side: "row",
                kernel: KernelKind::SortScan,
                warm: false,
                fault: None,
            },
            &|_| TotalMode::Fixed { total: 8.0 },
            &mut lambda_d,
            &mut totals_d,
            Some(&mut xd),
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        )
        .unwrap();

        let x0_csr = CsrMatrix::from_dense_pruned(&x0).unwrap();
        let gvals: Vec<f64> = (0..2)
            .flat_map(|i| {
                let grow = gamma.row(i).to_vec();
                x0_csr
                    .row_cols(i)
                    .iter()
                    .map(move |&j| grow[j as usize])
                    .collect::<Vec<f64>>()
            })
            .collect();
        let gamma_csr = x0_csr.with_values(gvals).unwrap();
        let mut lambda_s = vec![0.0; 2];
        let mut totals_s = vec![0.0; 2];
        let mut xs = x0_csr.zeros_like();
        for par in [Parallelism::Serial, Parallelism::Rayon] {
            equilibration_pass(
                &PassInputs {
                    prior: &x0_csr,
                    gamma: &gamma_csr,
                    support: None,
                    bounds: None,
                    shift: &shift,
                    side: "row",
                    kernel: KernelKind::SortScan,
                    warm: false,
                    fault: None,
                },
                &|_| TotalMode::Fixed { total: 8.0 },
                &mut lambda_s,
                &mut totals_s,
                Some(&mut xs),
                par,
                None,
                None,
                None,
                None,
            )
            .unwrap();
            assert_eq!(lambda_d, lambda_s, "par={par:?}");
            assert_eq!(totals_d, totals_s, "par={par:?}");
            let dense_back = xs.to_dense().unwrap();
            assert_eq!(dense_back.as_slice(), xd.as_slice(), "par={par:?}");
        }
    }

    #[test]
    fn shard_boundaries_do_not_change_results() {
        // 8 rows, solved with every sharding from one block to per-row
        // blocks: bitwise-identical λ/totals/x.
        let m = 8;
        let x0 = DenseMatrix::from_vec(m, 3, (0..m * 3).map(|k| 1.0 + (k % 7) as f64).collect())
            .unwrap();
        let gamma = DenseMatrix::filled(m, 3, 1.0).unwrap();
        let shift = vec![0.3, -0.4, 0.1];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            bounds: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            warm: false,
            fault: None,
        };
        let run = |starts: Option<&[usize]>| {
            let mut lambda = vec![0.0; m];
            let mut totals = vec![0.0; m];
            let mut x = DenseMatrix::zeros(m, 3).unwrap();
            equilibration_pass(
                &inp,
                &|i| TotalMode::Fixed {
                    total: 5.0 + i as f64,
                },
                &mut lambda,
                &mut totals,
                Some(&mut x),
                Parallelism::Rayon,
                None,
                None,
                starts,
                None,
            )
            .unwrap();
            (lambda, totals, x)
        };
        let base = run(None);
        let whole = run(Some(&[0]));
        let pairs = run(Some(&[0, 2, 4, 6]));
        let ragged = run(Some(&[0, 1, 5]));
        let per_row: Vec<usize> = (0..m).collect();
        let singles = run(Some(&per_row));
        for other in [&whole, &pairs, &ragged, &singles] {
            assert_eq!(base.0, other.0);
            assert_eq!(base.1, other.1);
            assert_eq!(base.2, other.2);
        }
    }

    #[test]
    fn sharded_costs_and_counters_cover_every_task() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            bounds: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            warm: false,
            fault: None,
        };
        let counters = PassCounters::default();
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        let mut costs = Vec::new();
        equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 5.0 },
            &mut lambda,
            &mut totals,
            Some(&mut x),
            Parallelism::Rayon,
            Some(&mut costs),
            Some(&counters),
            Some(&[0, 1]),
            None,
        )
        .unwrap();
        assert_eq!(costs.len(), 2);
        assert!(costs.iter().all(|&c| c >= 0.0));
        assert_eq!(counters.snapshot().subproblems, 2);
    }

    #[test]
    fn empty_structural_row_with_positive_total_is_infeasible() {
        let (x0, gamma) = setup();
        let support = vec![vec![0u32, 1, 2], vec![]];
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: Some(&support),
            bounds: None,
            shift: &shift,
            side: "column",
            kernel: KernelKind::SortScan,
            warm: false,
            fault: None,
        };
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        let e = equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 8.0 },
            &mut lambda,
            &mut totals,
            Some(&mut x),
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        );
        assert!(matches!(
            e,
            Err(SeaError::InfeasibleSubproblem {
                side: "column",
                index: 1
            })
        ));
    }

    #[test]
    fn empty_csr_row_with_positive_total_is_infeasible() {
        // Row 1 of the CSR has no stored entries at all.
        let x0 = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0)]).unwrap();
        let gamma = x0.with_values(vec![1.0, 1.0]).unwrap();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            bounds: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            warm: false,
            fault: None,
        };
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = x0.zeros_like();
        let e = equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 4.0 },
            &mut lambda,
            &mut totals,
            Some(&mut x),
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        );
        assert!(matches!(
            e,
            Err(SeaError::InfeasibleSubproblem {
                side: "row",
                index: 1
            })
        ));
        // A zero fixed total (or an elastic one) is fine.
        let ok = equilibration_pass(
            &inp,
            &|i| TotalMode::Fixed {
                total: if i == 0 { 4.0 } else { 0.0 },
            },
            &mut lambda,
            &mut totals,
            Some(&mut x),
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        );
        assert!(ok.is_ok());
        assert_eq!(totals[1], 0.0);
    }

    #[test]
    fn cost_recording_fills_per_task_entries() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            bounds: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            warm: false,
            fault: None,
        };
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        let mut costs = Vec::new();
        equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 5.0 },
            &mut lambda,
            &mut totals,
            Some(&mut x),
            Parallelism::Serial,
            Some(&mut costs),
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(costs.len(), 2);
        assert!(costs.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn pass_counters_collect_from_every_worker() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            bounds: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            warm: false,
            fault: None,
        };
        for par in [Parallelism::Serial, Parallelism::Rayon] {
            let counters = PassCounters::default();
            let mut lambda = vec![0.0; 2];
            let mut totals = vec![0.0; 2];
            let mut x = DenseMatrix::zeros(2, 3).unwrap();
            equilibration_pass(
                &inp,
                &|_| TotalMode::Fixed { total: 5.0 },
                &mut lambda,
                &mut totals,
                Some(&mut x),
                par,
                None,
                Some(&counters),
                None,
                None,
            )
            .unwrap();
            let snap = counters.snapshot();
            assert_eq!(snap.subproblems, 2, "par={par:?}");
            assert!(snap.breakpoints_scanned >= 2);
            assert_eq!(snap.quickselect_pivots, 0);
        }
    }

    #[test]
    fn injected_kernel_fault_falls_back_to_sort_scan() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            bounds: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::Quickselect,
            warm: false,
            fault: Some(TaskFault {
                index: 1,
                panic: false,
            }),
        };
        let counters = PassCounters::default();
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 5.0 },
            &mut lambda,
            &mut totals,
            Some(&mut x),
            Parallelism::Serial,
            None,
            Some(&counters),
            None,
            None,
        )
        .unwrap();
        assert_eq!(counters.fallbacks(), 1);
        // The fallback re-solve still hits the row total exactly.
        let sums = x.row_sums();
        assert!((sums[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn injected_kernel_fault_is_inert_under_sort_scan() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            bounds: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            warm: false,
            fault: Some(TaskFault {
                index: 0,
                panic: false,
            }),
        };
        let counters = PassCounters::default();
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 5.0 },
            &mut lambda,
            &mut totals,
            Some(&mut x),
            Parallelism::Serial,
            None,
            Some(&counters),
            None,
            None,
        )
        .unwrap();
        assert_eq!(counters.fallbacks(), 0, "sort-scan has no fallback target");
    }

    /// Run one pass of every kernel, cold and then warm, serially and on
    /// two threads, with and without an output iterate, and require the
    /// same λ, totals and kernel counters bit for bit.
    fn assert_iterate_is_optional<S: Storage>(
        prior: &S,
        gamma: &S,
        support: Option<&[Vec<u32>]>,
        bounds: Option<&PassBounds<'_, S>>,
        modes: &(dyn Fn(usize) -> TotalMode + Sync),
        shifts: [&[f64]; 2],
    ) {
        let m = prior.rows();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            for par in [Parallelism::Serial, Parallelism::RayonThreads(2)] {
                // The cold pass's multipliers start the warm pass, which
                // sees a moved shift, so it both hits and misses.
                let mut hints = vec![0.0; m];
                for (warm, shift) in [(false, shifts[0]), (true, shifts[1])] {
                    let inp = PassInputs {
                        prior,
                        gamma,
                        support,
                        bounds,
                        shift,
                        side: "row",
                        kernel,
                        warm,
                        fault: None,
                    };
                    let run = |keep: bool| {
                        let mut lambda = hints.clone();
                        let mut totals = vec![0.0; m];
                        let mut x = prior.zeros_like().unwrap();
                        let counters = PassCounters::default();
                        par.run(|| {
                            equilibration_pass(
                                &inp,
                                modes,
                                &mut lambda,
                                &mut totals,
                                keep.then_some(&mut x),
                                par,
                                None,
                                Some(&counters),
                                None,
                                None,
                            )
                        })
                        .unwrap();
                        (lambda, totals, counters.snapshot(), counters.fallbacks())
                    };
                    let (with_x, without_x) = (run(true), run(false));
                    let what = format!("{kernel:?} {par:?} warm={warm}");
                    assert_eq!(bits(&with_x.0), bits(&without_x.0), "λ, {what}");
                    assert_eq!(bits(&with_x.1), bits(&without_x.1), "totals, {what}");
                    assert_eq!(with_x.2, without_x.2, "counters, {what}");
                    assert_eq!(with_x.3, without_x.3, "fallbacks, {what}");
                    assert!(with_x.2.subproblems > 0);
                    hints = with_x.0;
                }
            }
        }
    }

    #[test]
    fn passes_without_an_iterate_match_passes_with_one() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(25);
        let (m, n) = (40, 23);
        // About a third of the cells are zero; every row keeps a cell.
        let vals: Vec<f64> = (0..m * n)
            .map(|k| {
                if k % n != k / n % n && rng.random_range(0.0..1.0) < 0.35 {
                    0.0
                } else {
                    rng.random_range(0.5..10.0)
                }
            })
            .collect();
        let prior = DenseMatrix::from_vec(m, n, vals).unwrap();
        let gamma = DenseMatrix::from_vec(
            m,
            n,
            (0..m * n).map(|_| rng.random_range(0.05..5.0)).collect(),
        )
        .unwrap();
        let support: Vec<Vec<u32>> = (0..m)
            .map(|i| {
                (0..n as u32)
                    .filter(|&j| prior.get(i, j as usize) > 0.0)
                    .collect()
            })
            .collect();
        let shift_cold: Vec<f64> = (0..n).map(|_| rng.random_range(-2.0..2.0)).collect();
        let shift_warm: Vec<f64> = shift_cold
            .iter()
            .map(|&v| v + rng.random_range(-0.3..0.3))
            .collect();
        let shifts = [&shift_cold[..], &shift_warm[..]];
        let totals: Vec<f64> = (0..m)
            .map(|i| prior.row(i).iter().sum::<f64>() * 1.1)
            .collect();
        let modes = |i: usize| {
            if i.is_multiple_of(3) {
                TotalMode::Elastic {
                    alpha: 0.5 + i as f64 / 10.0,
                    prior: totals[i],
                    cross: 0.1,
                }
            } else {
                TotalMode::Fixed { total: totals[i] }
            }
        };

        // Plain subproblems: dense rows, dense rows with support lists, CSR.
        assert_iterate_is_optional(&prior, &gamma, None, None, &modes, shifts);
        assert_iterate_is_optional(&prior, &gamma, Some(&support), None, &modes, shifts);
        let prior_csr = CsrMatrix::from_dense_pruned(&prior).unwrap();
        let on_pattern = |d: &DenseMatrix| {
            let v = (0..m)
                .flat_map(|i| {
                    prior_csr
                        .row_cols(i)
                        .iter()
                        .map(move |&j| d.get(i, j as usize))
                })
                .collect();
            prior_csr.with_values(v).unwrap()
        };
        let gamma_csr = on_pattern(&gamma);
        assert_iterate_is_optional(&prior_csr, &gamma_csr, None, None, &modes, shifts);

        // Boxed subproblems, dense and CSR, totals inside their boxes.
        let lo = DenseMatrix::from_vec(
            m,
            n,
            (0..m * n).map(|_| rng.random_range(0.0..1.0)).collect(),
        )
        .unwrap();
        let hi = DenseMatrix::from_vec(
            m,
            n,
            (0..m * n)
                .map(|k| lo.as_slice()[k] + rng.random_range(0.0..4.0))
                .collect(),
        )
        .unwrap();
        let sums = |lo: &[f64], hi: &[f64]| (lo.iter().sum::<f64>(), hi.iter().sum::<f64>());
        let dense_sums: Vec<(f64, f64)> = (0..m).map(|i| sums(lo.row(i), hi.row(i))).collect();
        let boxed_modes = |sums: &[(f64, f64)], i: usize| {
            let (slo, shi) = sums[i];
            if i.is_multiple_of(3) {
                TotalMode::Elastic {
                    alpha: 0.7,
                    prior: 0.5 * (slo + shi),
                    cross: -0.2,
                }
            } else {
                TotalMode::Fixed {
                    total: slo + (0.2 + 0.6 * (i % 5) as f64 / 4.0) * (shi - slo),
                }
            }
        };
        let bounds = PassBounds::new(&lo, &hi, &dense_sums);
        let modes = |i| boxed_modes(&dense_sums, i);
        assert_iterate_is_optional(&prior, &gamma, None, Some(&bounds), &modes, shifts);
        let (lo_csr, hi_csr) = (on_pattern(&lo), on_pattern(&hi));
        let csr_sums: Vec<(f64, f64)> = (0..m)
            .map(|i| {
                let r = lo_csr.row_range(i);
                sums(&lo_csr.values()[r.clone()], &hi_csr.values()[r])
            })
            .collect();
        let bounds = PassBounds::new(&lo_csr, &hi_csr, &csr_sums);
        let modes = |i| boxed_modes(&csr_sums, i);
        assert_iterate_is_optional(&prior_csr, &gamma_csr, None, Some(&bounds), &modes, shifts);
    }

    #[test]
    fn worker_panic_is_contained_as_typed_error() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        for par in [Parallelism::Serial, Parallelism::Rayon] {
            let inp = PassInputs {
                prior: &x0,
                gamma: &gamma,
                support: None,
                bounds: None,
                shift: &shift,
                side: "column",
                kernel: KernelKind::SortScan,
                warm: false,
                fault: Some(TaskFault {
                    index: 1,
                    panic: true,
                }),
            };
            let mut lambda = vec![0.0; 2];
            let mut totals = vec![0.0; 2];
            let mut x = DenseMatrix::zeros(2, 3).unwrap();
            let e = equilibration_pass(
                &inp,
                &|_| TotalMode::Fixed { total: 5.0 },
                &mut lambda,
                &mut totals,
                Some(&mut x),
                par,
                None,
                None,
                None,
                None,
            );
            match e {
                Err(SeaError::WorkerPanic {
                    side: "column",
                    index: 1,
                    message,
                }) => assert!(message.contains("injected"), "message: {message}"),
                other => panic!("expected WorkerPanic, got {other:?} (par={par:?})"),
            }
        }
    }

    #[test]
    fn cold_plain_pass_tests_the_all_active_segment_first() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(27);
        let (m, n) = (40, 31);
        let prior = DenseMatrix::from_vec(
            m,
            n,
            (0..m * n).map(|_| rng.random_range(0.1..10.0)).collect(),
        )
        .unwrap();
        let gamma = DenseMatrix::from_vec(
            m,
            n,
            (0..m * n).map(|_| rng.random_range(0.05..5.0)).collect(),
        )
        .unwrap();
        let shift: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let sums = prior.row_sums();
        let pass = |kernel: KernelKind, scale: f64, par: Parallelism| {
            let inp = PassInputs {
                prior: &prior,
                gamma: &gamma,
                support: None,
                bounds: None,
                shift: &shift,
                side: "row",
                kernel,
                warm: false,
                fault: None,
            };
            let mut lambda = vec![0.0; m];
            let mut totals = vec![0.0; m];
            let counters = PassCounters::default();
            par.run(|| {
                equilibration_pass(
                    &inp,
                    &|i| TotalMode::Fixed {
                        total: scale * sums[i],
                    },
                    &mut lambda,
                    &mut totals,
                    None,
                    par,
                    None,
                    Some(&counters),
                    None,
                    None,
                )
            })
            .unwrap();
            (lambda, counters.snapshot())
        };
        // Totals far above the row sums put every entry above zero; a third
        // of them clamp some entries at zero.
        for (scale, interior) in [(3.0, true), (0.3, false)] {
            for par in [Parallelism::Serial, Parallelism::RayonThreads(2)] {
                let (oracle, _) = pass(KernelKind::SortScan, scale, par);
                let (lambda, stats) = pass(KernelKind::Quickselect, scale, par);
                assert_eq!(stats.subproblems, m as u64);
                let hits_all = stats.quickselect_pivots == stats.subproblems;
                assert_eq!(hits_all, interior, "scale {scale}, {par:?}: {stats:?}");
                for (l, o) in lambda.iter().zip(&oracle) {
                    assert!(
                        (l - o).abs() <= 1e-12 * o.abs().max(1.0),
                        "scale {scale}, {par:?}: λ {l} vs sort-scan {o}"
                    );
                }
            }
        }
    }
}
