//! Row/column equilibration passes.
//!
//! One pass maximizes the dual over one multiplier block (all `λᵢ` or all
//! `μⱼ′`) with the other block fixed — which, by the duality argument of
//! §3.1, is exactly a set of *independent* single-constraint subproblems,
//! one per row (resp. column), each solved in closed form by
//! [`crate::knapsack::exact_equilibration`]. Independence is what makes SEA
//! parallel: every subproblem can go to a distinct processor.
//!
//! Both passes of a sparse solve share one orientation-agnostic
//! implementation: the caller supplies the prior and weight matrices
//! oriented so subproblems are rows (its column pass passes transposed
//! copies built once per solve). A dense solve's column pass reads the
//! problem's own row-major matrices in column tiles instead
//! (`crate::tiles`), with the same kernel and the same bits. The
//! pass is generic over [`Storage`]: dense rows go to the kernel whole (or
//! gathered through the rows of a structural support pattern,
//! [`PassInputs::support`]), while CSR rows *are* the support — the kernel
//! runs directly over the stored value slices and reads the shift vector
//! through the row's column index, so sparse subproblem cost is
//! `O(k log k)` in the row's support size `k`, never `O(n)`. A pass picks
//! one of these three kernel calls per row; it and the tiled column pass
//! are the walks over a problem's cells that do not go through `Vars`.
//!
//! A pass writes its iterate only when the caller keeps it: the solver's
//! row pass does so only for the Modified Algorithm's support witness.
//! Without one, plain subproblems yield just `(λ, total)`, while boxed ones
//! still clamp every entry, because their clamp count is kernel work.
//!
//! Every pass runs one loop over its subproblems, a *shard*: a serial
//! pass is one shard spanning every row, run on the calling thread; a
//! parallel pass splits its rows into uniform contiguous blocks and runs
//! each on the worker pool. Each row is still solved independently, so
//! results are bitwise identical across worker counts *and* shard sizes.

use crate::error::SeaError;
use crate::knapsack::{
    empty_subproblem, exact_equilibration_hinted, Bounds, EquilibrationScratch, IndexedShift,
    Interval, KernelKind, Shift, TotalMode, Unbounded,
};
use crate::parallel::Parallelism;
use crate::storage::Storage;
use crate::supervisor::TaskFault;
use crate::tiles::TileScratch;
use rayon::prelude::*;
use sea_linalg::CsrMatrix;
use sea_observe::KernelCounters;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default shard size (rows per block) of a parallel pass, when
/// `SeaOptions::block_size` does not set one. Sized so a typical block's
/// working set (a few KB per row even on dense mid-size instances) stays
/// within an L2 cache.
pub const DEFAULT_BLOCK_ROWS: usize = 256;

thread_local! {
    /// Workspace of every shard run on this thread: a serial pass's one
    /// shard on the caller, a parallel pass's shards on the caller and the
    /// solve's workers, which persist for the whole solve. A shard sizes
    /// the buffers on first use and later shards (and later solves) reuse
    /// them, keeping the steady-state solver loop allocation-free — the
    /// property `tests/alloc_free.rs` audits.
    pub(crate) static SCRATCH: RefCell<TaskScratch> = RefCell::new(TaskScratch::new());
}

/// Thread-safe accumulator for [`KernelCounters`] harvested from the
/// thread-local `TaskScratch` workspaces a pass's shards run on. Each shard
/// flushes its counters here with relaxed atomics once — contention-free
/// in practice and exact in total.
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
/// filled by the thread that ran the shard. Offsets are nanoseconds from
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

/// Nanoseconds elapsed since `base`, saturating.
pub(crate) fn elapsed_ns(base: Instant) -> u64 {
    let d = base.elapsed();
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(u64::from(d.subsec_nanos()))
}

/// Per-thread scratch: gather buffers for dense rows with a structural
/// support pattern, a dense column pass's tile workspace, plus the
/// kernel's own workspace. Reused across every subproblem a thread
/// handles (allocation-free hot loop).
#[derive(Debug, Default, Clone)]
pub(crate) struct TaskScratch {
    pub(crate) eq: EquilibrationScratch,
    q: Vec<f64>,
    g: Vec<f64>,
    x: Vec<f64>,
    pub(crate) tile: TileScratch,
    /// Quickselect→sort-scan fallbacks taken by this thread's tasks.
    pub(crate) fallbacks: u64,
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
    pub(crate) lo: &'a S,
    pub(crate) hi: &'a S,
    pub(crate) sums: &'a [(f64, f64)],
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

    /// Row `i`'s bounds and their sums.
    fn row(&self, i: usize) -> Interval<'_> {
        Interval {
            lo: &self.lo.values()[self.lo.row_range(i)],
            hi: &self.hi.values()[self.hi.row_range(i)],
            sums: self.sums[i],
        }
    }
}

/// Inputs shared by every subproblem of a pass, in "row orientation".
pub struct PassInputs<'a, S: Storage> {
    /// Prior matrix, oriented so each subproblem is a contiguous row.
    pub prior: &'a S,
    /// Weight matrix, same orientation (and, for sparse storage, the same
    /// pattern).
    pub gamma: &'a S,
    /// A dense structural problem's support in this orientation: row `i`
    /// of the pattern lists subproblem `i`'s variables. `None` when every
    /// dense cell is a variable; sparse rows carry their support in their
    /// own pattern and ignore it.
    pub support: Option<&'a CsrMatrix>,
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
    pub(crate) fn hint(&self, previous: f64) -> Option<f64> {
        match (self.warm, self.bounds) {
            (true, _) => Some(previous),
            (false, None) => Some(f64::INFINITY),
            (false, Some(_)) => None,
        }
    }
}

/// Run the configured kernel on one subproblem within its `bounds`,
/// started from `hint` ([`PassInputs::hint`]), writing the entries
/// to `x` when the pass keeps its iterate; on a pathological result (a
/// non-finite `λ`, which the kernel reports as
/// [`SeaError::NumericalBreakdown`], a non-finite total, or a scripted
/// kernel fault) re-solve with the robust sort-scan kernel and count the
/// fallback. Every other error propagates as it is.
/// Quickselect's median-of-three pivoting can in principle degrade on
/// adversarial breakpoint patterns; sort-scan is the slower oracle both
/// kernels are differentially tested against, so it is the safe harbor.
#[allow(clippy::too_many_arguments)] // kernel inputs + output + workspace + fallback sink
pub(crate) fn kernel_solve(
    kernel: KernelKind,
    force_fallback: bool,
    q: &[f64],
    g: &[f64],
    sh: impl Shift,
    bounds: impl Bounds,
    mode: TotalMode,
    hint: Option<f64>,
    mut x: Option<&mut [f64]>,
    eq: &mut EquilibrationScratch,
    fallbacks: &mut u64,
) -> Result<(f64, f64), SeaError> {
    let mut solve = |kernel| {
        exact_equilibration_hinted(kernel, q, g, sh, bounds, mode, hint, x.as_deref_mut(), eq)
    };
    let mut r = solve(kernel);
    let pathological = match &r {
        Ok(r) => force_fallback || !r.lambda.is_finite() || !r.total.is_finite(),
        Err(e) => matches!(e, SeaError::NumericalBreakdown { .. }),
    };
    if pathological && kernel == KernelKind::Quickselect {
        *fallbacks += 1;
        r = solve(KernelKind::SortScan);
    }
    r.map(|r| (r.lambda, r.total))
}

/// A subproblem with no support: the iterate stays zero, and the kernel's
/// one rule for an empty subproblem ([`empty_subproblem`]) gives λ and the
/// total, without counting a kernel solve.
pub(crate) fn empty_support_result(
    bounds: impl Bounds,
    mode: TotalMode,
    side: &'static str,
    i: usize,
) -> Result<(f64, f64), SeaError> {
    empty_subproblem(bounds, mode)
        .map(|r| (r.lambda, r.total))
        .map_err(|e| locate(e, side, i))
}

/// Re-attribute a kernel's infeasibility error to this pass's side and
/// subproblem index (the kernel only sees one anonymous subproblem).
pub(crate) fn locate(e: SeaError, side: &'static str, i: usize) -> SeaError {
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
/// CSR). A CSR row or a support-pattern row reads the shift through its
/// column index; nothing gathers it. `hint` is the quickselect kernel's starting
/// point ([`PassInputs::hint`]); `bounds` are the row's entry bounds.
fn solve_task<S: Storage>(
    inp: &PassInputs<'_, S>,
    i: usize,
    bounds: impl Bounds,
    mode: TotalMode,
    hint: Option<f64>,
    x_row: Option<&mut [f64]>,
    scratch: &mut TaskScratch,
) -> Result<(f64, f64), SeaError> {
    let force_fallback = scripted_fallback(inp, i);
    let TaskScratch {
        eq,
        q: q_buf,
        g: g_buf,
        x,
        fallbacks,
        ..
    } = scratch;
    let range = inp.prior.row_range(i);
    let (q, g) = (
        &inp.prior.values()[range.clone()],
        &inp.gamma.values()[range],
    );
    match (inp.prior.row_cols(i), inp.support) {
        // Sparse row: the stored entries are the support. The kernel runs
        // directly over the prior/weight value slices, reads the shift
        // through the column index and writes the iterate's stored values
        // in place.
        (Some(idx), _) => {
            if idx.is_empty() {
                return empty_support_result(bounds, mode, inp.side, i);
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
        (None, None) => kernel_solve(
            inp.kernel,
            force_fallback,
            q,
            g,
            inp.shift,
            bounds,
            mode,
            hint,
            x_row,
            eq,
            fallbacks,
        ),
        (None, Some(support)) => {
            // Box-bounded problems carry any support in a sparse
            // pattern; dense support patterns only come with `x ≥ 0`.
            if inp.bounds.is_some() {
                return Err(SeaError::PatternMismatch {
                    context: "pass inputs (bounds with a dense support pattern)",
                });
            }
            let idx = support.row_cols(i);
            let k = idx.len();
            if k == 0 {
                if let Some(row) = x_row {
                    row.fill(0.0);
                }
                return empty_support_result(Unbounded, mode, inp.side, i);
            }
            gather(q, idx, q_buf);
            gather(g, idx, g_buf);
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
                Unbounded,
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
    }
}

/// [`solve_task`] with panic containment ([`contain`]).
fn run_task<S: Storage>(
    inp: &PassInputs<'_, S>,
    i: usize,
    mode: TotalMode,
    hint: Option<f64>,
    x_row: Option<&mut [f64]>,
    scratch: &mut TaskScratch,
) -> Result<(f64, f64), SeaError> {
    // Bounds share the prior's orientation and pattern, so their stored
    // values for row `i` line up with the prior row entry by entry.
    contain(inp.side, i, || match inp.bounds {
        None => solve_task(inp, i, Unbounded, mode, hint, x_row, scratch),
        Some(b) => solve_task(inp, i, b.row(i), mode, hint, x_row, scratch),
    })
}

/// Run subproblem `i`'s `solve` with panic containment: a worker panic
/// (including a scripted one) becomes [`SeaError::WorkerPanic`] instead
/// of unwinding through — or, under rayon, aborting — the whole solve.
/// The non-panic path of `catch_unwind` costs no allocation, preserving
/// the allocation-free steady state.
pub(crate) fn contain(
    side: &'static str,
    i: usize,
    solve: impl FnOnce() -> Result<(f64, f64), SeaError>,
) -> Result<(f64, f64), SeaError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve)) {
        Ok(r) => r,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic payload of unknown type".to_string());
            Err(SeaError::WorkerPanic {
                side,
                index: i,
                message,
            })
        }
    }
}

/// The scripted fault for subproblem `i`: whether its kernel result is
/// to be treated as pathological. A scripted panic panics here.
pub(crate) fn scripted_fallback<S: Storage>(inp: &PassInputs<'_, S>, i: usize) -> bool {
    match inp.fault {
        Some(f) if f.index == i => {
            if f.panic {
                panic!("injected worker panic (fault plan)");
            }
            true
        }
        _ => false,
    }
}

/// One contiguous block of a pass's subproblems, carrying the disjoint
/// outputs its rows write. A serial pass is one shard over every row; a
/// parallel pass splits that shard into blocks ([`Shard::split`]). Shards
/// are the unit of work distribution *and* of counter flushing; the rows
/// of a shard run in order on one thread ([`run_shard`]).
struct Shard<'a> {
    /// Global index of the first row in this shard.
    base: usize,
    lambda: &'a mut [f64],
    totals: &'a mut [f64],
    /// The rows' contiguous run of the iterate's stored values, when the
    /// pass keeps the iterate.
    values: Option<&'a mut [f64]>,
    /// Index in the iterate's stored values of `values[0]`.
    offset: usize,
    /// Per-row wall-clock sinks, when the pass is timing tasks.
    costs: Option<&'a mut [f64]>,
    /// This shard's timing slot, when the pass is span-profiled.
    timing: Option<&'a mut ShardTiming>,
}

/// Cut the first `len` items off `rest`.
pub(crate) fn take_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

impl<'a> Shard<'a> {
    /// Split this whole-pass shard into blocks of `block` rows (the last
    /// may be shorter), giving each a slot of `timings` when the pass is
    /// span-profiled. `prior` lays out the iterate's stored values.
    fn split(
        mut self,
        prior: &impl Storage,
        block: usize,
        timings: Option<&'a mut Vec<ShardTiming>>,
    ) -> Vec<Shard<'a>> {
        let m = self.lambda.len();
        let count = m.div_ceil(block);
        let mut slots = timings.map(|t| {
            t.clear();
            t.resize(count, ShardTiming::default());
            t.iter_mut()
        });
        let mut shards = Vec::with_capacity(count);
        for base in (0..m).step_by(block) {
            let rows = block.min(m - base);
            let end = prior.row_range(base + rows - 1).end;
            shards.push(Shard {
                base,
                lambda: take_front(&mut self.lambda, rows),
                totals: take_front(&mut self.totals, rows),
                values: self
                    .values
                    .as_mut()
                    .map(|v| take_front(v, end - self.offset)),
                offset: std::mem::replace(&mut self.offset, end),
                costs: self.costs.as_mut().map(|c| take_front(c, rows)),
                timing: slots.as_mut().and_then(Iterator::next),
            });
        }
        shards
    }
}

/// Solve a shard's subproblems in order on the calling thread's scratch,
/// then flush the shard's kernel work into `counters` (and its timing
/// slot) once. `pass_t0` is the pass start the timing slot is relative to.
fn run_shard<S: Storage>(
    inp: &PassInputs<'_, S>,
    modes: &(dyn Fn(usize) -> TotalMode + Sync),
    shard: &mut Shard<'_>,
    counters: &PassCounters,
    pass_t0: Instant,
) -> Result<(), SeaError> {
    SCRATCH.with_borrow_mut(|scratch| {
        // The scratch outlives any one shard; drop counts a previous
        // (possibly aborted) shard left behind before accumulating.
        scratch.eq.stats = KernelCounters::default();
        scratch.fallbacks = 0;
        if let Some(tm) = shard.timing.as_mut() {
            tm.start_ns = elapsed_ns(pass_t0);
        }
        let timing = shard.costs.is_some();
        for t in 0..shard.lambda.len() {
            let i = shard.base + t;
            let t0 = timing.then(Instant::now);
            let hint = inp.hint(shard.lambda[t]);
            let x_row = shard.values.as_deref_mut().map(|v| {
                let r = inp.prior.row_range(i);
                &mut v[r.start - shard.offset..r.end - shard.offset]
            });
            let (l, s) = run_task(inp, i, modes(i), hint, x_row, scratch)?;
            shard.lambda[t] = l;
            shard.totals[t] = s;
            if let (Some(c), Some(t0)) = (shard.costs.as_deref_mut(), t0) {
                c[t] = t0.elapsed().as_secs_f64();
            }
        }
        if let Some(tm) = shard.timing.as_mut() {
            tm.end_ns = elapsed_ns(pass_t0);
            tm.tasks = shard.lambda.len() as u64;
            tm.counters = scratch.eq.stats;
        }
        counters.add(&scratch.eq.stats);
        counters.add_fallbacks(scratch.fallbacks);
        Ok(())
    })
}

/// Run a full equilibration pass.
///
/// `modes(i)` supplies the total specification of subproblem `i`; `lambda`
/// and `totals_out` receive, per subproblem, the constraint multiplier and
/// the realized total (when `inp.warm`, `lambda` is read first as each
/// subproblem's starting hint); `x`, when given (same orientation — and,
/// for sparse storage, the same pattern — as `inp.prior`), receives the
/// primal iterate. λ, the totals and the kernel counters come out the same,
/// bit for bit, with or without `x`. When `costs` is provided it is filled
/// with per-task wall-clock seconds for the scheduling simulator. The
/// kernels' work counters are accumulated into `counters`.
///
/// A serial pass runs every row as one shard on the calling thread. A
/// parallel pass splits the rows into shards of `block` rows and runs them
/// on the current pool. Results are bitwise independent of the sharding
/// because every row is solved independently.
///
/// When `timings` is provided, a parallel pass fills one [`ShardTiming`]
/// per shard (wall window relative to pass start, task count, and kernel
/// counters) for the caller to replay as span leaves; a serial pass
/// clears it instead.
///
/// # Errors
/// Propagates the first subproblem failure (infeasibility, invalid data).
#[allow(clippy::too_many_arguments)] // pass = inputs + three outputs + mode + shard size + three sinks
pub fn equilibration_pass<S: Storage>(
    inp: &PassInputs<'_, S>,
    modes: &(dyn Fn(usize) -> TotalMode + Sync),
    lambda: &mut [f64],
    totals_out: &mut [f64],
    x: Option<&mut S>,
    par: Parallelism,
    block: usize,
    costs: Option<&mut Vec<f64>>,
    counters: &PassCounters,
    timings: Option<&mut Vec<ShardTiming>>,
) -> Result<(), SeaError> {
    let m = inp.prior.rows();
    debug_assert_eq!(lambda.len(), m);
    debug_assert_eq!(totals_out.len(), m);
    debug_assert!(x.as_ref().is_none_or(|x| x.same_pattern(inp.prior)));

    // Stored values are row-major and contiguous in both backends, so any
    // run of rows owns one slice of `values_mut()`.
    let mut whole = Shard {
        base: 0,
        lambda,
        totals: totals_out,
        values: x.map(Storage::values_mut),
        offset: 0,
        costs: costs.map(|c| {
            c.clear();
            c.resize(m, 0.0);
            c.as_mut_slice()
        }),
        timing: None,
    };
    let pass_t0 = Instant::now();
    if !par.is_parallel() {
        if let Some(t) = timings {
            t.clear();
        }
        return run_shard(inp, modes, &mut whole, counters, pass_t0);
    }
    // `RayonThreads` pools are installed by the solver around the whole
    // solve; here both variants fan out on the current pool.
    whole
        .split(inp.prior, block.max(1), timings)
        .par_iter_mut()
        .try_for_each(|shard| run_shard(inp, modes, shard, counters, pass_t0))
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

    /// The support pattern of an `n`-column problem whose row `i` has
    /// its variables in the columns `lists[i]`.
    fn support_of(n: usize, lists: &[&[usize]]) -> CsrMatrix {
        let cells: Vec<_> = lists
            .iter()
            .enumerate()
            .flat_map(|(i, cols)| cols.iter().map(move |&j| (i, j, 1.0)))
            .collect();
        CsrMatrix::from_triplets(lists.len(), n, &cells).unwrap()
    }

    /// A cold sort-scan row pass over `(prior, gamma)` against `shift`,
    /// without a support pattern, bounds or a scripted fault.
    fn inputs<'a, S: Storage>(prior: &'a S, gamma: &'a S, shift: &'a [f64]) -> PassInputs<'a, S> {
        PassInputs {
            prior,
            gamma,
            support: None,
            bounds: None,
            shift,
            side: "row",
            kernel: KernelKind::SortScan,
            warm: false,
            fault: None,
        }
    }

    /// Run `inp` on `par` from zero multipliers, writing `x`; returns λ,
    /// the totals and the pass's counters.
    fn pass<S: Storage>(
        inp: &PassInputs<'_, S>,
        modes: &(dyn Fn(usize) -> TotalMode + Sync),
        x: &mut S,
        par: Parallelism,
    ) -> Result<(Vec<f64>, Vec<f64>, PassCounters), SeaError> {
        let m = inp.prior.rows();
        let (mut lambda, mut totals) = (vec![0.0; m], vec![0.0; m]);
        let counters = PassCounters::default();
        equilibration_pass(
            inp,
            modes,
            &mut lambda,
            &mut totals,
            Some(x),
            par,
            DEFAULT_BLOCK_ROWS,
            None,
            &counters,
            None,
        )?;
        Ok((lambda, totals, counters))
    }

    #[test]
    fn fixed_pass_hits_row_totals() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let s0 = [9.0, 3.0];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        let modes = |i: usize| TotalMode::Fixed { total: s0[i] };
        pass(
            &inputs(&x0, &gamma, &shift),
            &modes,
            &mut x,
            Parallelism::Serial,
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
        let inp = inputs(&x0, &gamma, &shift);
        let run = |par: Parallelism| {
            let mut x = DenseMatrix::zeros(2, 3).unwrap();
            let modes = |i: usize| TotalMode::Elastic {
                alpha: 1.0 + i as f64,
                prior: 5.0,
                cross: 0.0,
            };
            let (lambda, totals, _) = pass(&inp, &modes, &mut x, par).unwrap();
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
        let support = support_of(3, &[&[0, 1, 2], &[0, 2]]);
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            support: Some(&support),
            ..inputs(&x0, &gamma, &shift)
        };
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        let modes = |_| TotalMode::Fixed { total: 8.0 };
        pass(&inp, &modes, &mut x, Parallelism::Serial).unwrap();
        assert_eq!(x.get(1, 1), 0.0, "structural zero must stay zero");
        let sums = x.row_sums();
        assert!((sums[1] - 8.0).abs() < 1e-9);
        // Box bounds come with sparse patterns, never dense support ones.
        let lo = DenseMatrix::zeros(2, 3).unwrap();
        let hi = DenseMatrix::filled(2, 3, 10.0).unwrap();
        let sums = [(0.0, 30.0); 2];
        let bounds = PassBounds::new(&lo, &hi, &sums);
        let boxed = PassInputs {
            bounds: Some(&bounds),
            ..inp
        };
        let e = pass(&boxed, &modes, &mut x, Parallelism::Serial);
        assert!(matches!(e, Err(SeaError::PatternMismatch { .. })));
    }

    #[test]
    fn csr_pass_matches_dense_structural_bitwise() {
        // Same logical problem: dense rows with structural-zero support
        // lists vs a CSR whose pattern is that support. The kernel must see
        // identical value sequences, so λ, totals, and stored x agree
        // *bitwise* and the structural cell stays zero.
        let (x0, gamma) = setup();
        let support = support_of(3, &[&[0, 1, 2], &[0, 2]]);
        let shift = vec![0.37, -0.21, 0.11];
        let modes = |_| TotalMode::Fixed { total: 8.0 };

        let mut xd = DenseMatrix::zeros(2, 3).unwrap();
        let dense = PassInputs {
            support: Some(&support),
            ..inputs(&x0, &gamma, &shift)
        };
        let (lambda_d, totals_d, _) = pass(&dense, &modes, &mut xd, Parallelism::Serial).unwrap();

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
        let mut xs = x0_csr.zeros_like();
        for par in [Parallelism::Serial, Parallelism::Rayon] {
            let sparse = inputs(&x0_csr, &gamma_csr, &shift);
            let (lambda_s, totals_s, _) = pass(&sparse, &modes, &mut xs, par).unwrap();
            assert_eq!(lambda_d, lambda_s, "par={par:?}");
            assert_eq!(totals_d, totals_s, "par={par:?}");
            let dense_back = xs.to_dense().unwrap();
            assert_eq!(dense_back.as_slice(), xd.as_slice(), "par={par:?}");
        }
    }

    #[test]
    fn task_costs_and_counters_cover_every_task() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = inputs(&x0, &gamma, &shift);
        for (par, block) in [
            (Parallelism::Serial, DEFAULT_BLOCK_ROWS),
            (Parallelism::Rayon, 1),
        ] {
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
                par,
                block,
                Some(&mut costs),
                &counters,
                None,
            )
            .unwrap();
            assert_eq!(costs.len(), 2);
            assert!(costs.iter().all(|&c| c >= 0.0));
            assert_eq!(counters.snapshot().subproblems, 2);
        }
    }

    #[test]
    fn empty_structural_row_with_positive_total_is_infeasible() {
        let (x0, gamma) = setup();
        let support = support_of(3, &[&[0, 1, 2], &[]]);
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            support: Some(&support),
            side: "column",
            ..inputs(&x0, &gamma, &shift)
        };
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        let e = pass(
            &inp,
            &|_| TotalMode::Fixed { total: 8.0 },
            &mut x,
            Parallelism::Serial,
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
        let inp = inputs(&x0, &gamma, &shift);
        let mut x = x0.zeros_like();
        let e = pass(
            &inp,
            &|_| TotalMode::Fixed { total: 4.0 },
            &mut x,
            Parallelism::Serial,
        );
        assert!(matches!(
            e,
            Err(SeaError::InfeasibleSubproblem {
                side: "row",
                index: 1
            })
        ));
        // A zero fixed total (or an elastic one) is fine.
        let modes = |i| TotalMode::Fixed {
            total: if i == 0 { 4.0 } else { 0.0 },
        };
        let (_, totals, _) = pass(&inp, &modes, &mut x, Parallelism::Serial).unwrap();
        assert_eq!(totals[1], 0.0);
    }

    #[test]
    fn pass_counters_collect_from_every_worker() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = inputs(&x0, &gamma, &shift);
        for par in [Parallelism::Serial, Parallelism::Rayon] {
            let mut x = DenseMatrix::zeros(2, 3).unwrap();
            let modes = |_| TotalMode::Fixed { total: 5.0 };
            let (_, _, counters) = pass(&inp, &modes, &mut x, par).unwrap();
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
            kernel: KernelKind::Quickselect,
            fault: Some(TaskFault {
                index: 1,
                panic: false,
            }),
            ..inputs(&x0, &gamma, &shift)
        };
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        let modes = |_| TotalMode::Fixed { total: 5.0 };
        let (_, _, counters) = pass(&inp, &modes, &mut x, Parallelism::Serial).unwrap();
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
            fault: Some(TaskFault {
                index: 0,
                panic: false,
            }),
            ..inputs(&x0, &gamma, &shift)
        };
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        let modes = |_| TotalMode::Fixed { total: 5.0 };
        let (_, _, counters) = pass(&inp, &modes, &mut x, Parallelism::Serial).unwrap();
        assert_eq!(counters.fallbacks(), 0, "sort-scan has no fallback target");
    }

    #[test]
    fn quickselect_breakdown_falls_back_to_sort_scan() {
        // A cold boxed row on which quickselect's λ search turns NaN,
        // which the kernel reports as a numerical breakdown; sort-scan
        // solves it.
        let prior = DenseMatrix::from_rows(&[vec![4.920354201757114, 3.324402027296827]]).unwrap();
        let gamma = DenseMatrix::from_rows(&[vec![1e-3, 1e-9]]).unwrap();
        let shift = [-216.03418934188431, -164983689.35059723];
        let lo = DenseMatrix::zeros(1, 2).unwrap();
        let hi = DenseMatrix::filled(1, 2, 3.0417921775195813).unwrap();
        let sums = [(lo.row(0).iter().sum(), hi.row(0).iter().sum())];
        let bounds = PassBounds::new(&lo, &hi, &sums);
        let modes = |_| TotalMode::Fixed {
            total: 0.5277373285115058,
        };
        let alone = exact_equilibration_hinted(
            KernelKind::Quickselect,
            prior.row(0),
            gamma.row(0),
            &shift[..],
            bounds.row(0),
            modes(0),
            None,
            None,
            &mut EquilibrationScratch::default(),
        );
        assert!(matches!(alone, Err(SeaError::NumericalBreakdown { .. })));
        let run = |kernel| {
            let inp = PassInputs {
                bounds: Some(&bounds),
                kernel,
                ..inputs(&prior, &gamma, &shift)
            };
            let mut x = DenseMatrix::zeros(1, 2).unwrap();
            let (lambda, _, counters) = pass(&inp, &modes, &mut x, Parallelism::Serial).unwrap();
            let x_bits: Vec<u64> = x.as_slice().iter().map(|v| v.to_bits()).collect();
            (lambda[0].to_bits(), x_bits, counters.fallbacks())
        };
        let oracle = run(KernelKind::SortScan);
        assert_eq!(f64::from_bits(oracle.0), 216.0254041081378);
        assert_eq!(oracle.2, 0);
        assert_eq!(run(KernelKind::Quickselect), (oracle.0, oracle.1, 1));
    }

    #[test]
    fn sub_ulp_box_falls_back_to_sort_scan() {
        // One column whose box is narrower in λ than one ulp of its
        // breakpoints: quickselect breaks down, sort-scan answers.
        let prior = DenseMatrix::from_rows(&[vec![2.4124137354181463]]).unwrap();
        let gamma = DenseMatrix::from_rows(&[vec![1e-7]]).unwrap();
        let shift = [-946.2301502104547];
        let lo = DenseMatrix::zeros(1, 1).unwrap();
        let hi = DenseMatrix::filled(1, 1, 3.2771388482279756e-12).unwrap();
        let sums = [(0.0, 3.2771388482279756e-12)];
        let bounds = PassBounds::new(&lo, &hi, &sums);
        let modes = |_| TotalMode::Fixed {
            total: 2.182213976090877e-12,
        };
        let inp = PassInputs {
            bounds: Some(&bounds),
            kernel: KernelKind::Quickselect,
            ..inputs(&prior, &gamma, &shift)
        };
        let mut x = DenseMatrix::zeros(1, 1).unwrap();
        let (lambda, _, counters) = pass(&inp, &modes, &mut x, Parallelism::Serial).unwrap();
        assert_eq!(counters.fallbacks(), 1);
        assert_eq!(lambda[0], 946.2301497279719);
        assert!((0.0..=3.2771388482279756e-12).contains(&x.get(0, 0)));
    }

    /// Run one pass of every kernel, cold and then warm, serially and on
    /// two threads, in blocks of 1, 2, 3, m and m + 1 rows, with and without
    /// an output iterate, and require the same λ, totals, iterate and
    /// kernel counters bit for bit, and a parallel pass's shard timings to
    /// cover each block once.
    fn assert_passes_agree<S: Storage>(
        prior: &S,
        gamma: &S,
        support: Option<&CsrMatrix>,
        bounds: Option<&PassBounds<'_, S>>,
        modes: &(dyn Fn(usize) -> TotalMode + Sync),
        shifts: [&[f64]; 2],
    ) {
        let m = prior.rows();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            // The cold pass's multipliers start the warm pass, which sees a
            // moved shift, so it both hits and misses.
            let mut hints = vec![0.0; m];
            for (warm, shift) in [(false, shifts[0]), (true, shifts[1])] {
                let inp = PassInputs {
                    support,
                    bounds,
                    kernel,
                    warm,
                    ..inputs(prior, gamma, shift)
                };
                let run = |par: Parallelism, block: usize, keep: bool| {
                    let mut lambda = hints.clone();
                    let mut totals = vec![0.0; m];
                    let mut x = prior.zeros_like().unwrap();
                    let counters = PassCounters::default();
                    // Stale slots, which a serial pass must clear.
                    let mut timings = vec![ShardTiming::default(); 2];
                    par.run(|| {
                        equilibration_pass(
                            &inp,
                            modes,
                            &mut lambda,
                            &mut totals,
                            keep.then_some(&mut x),
                            par,
                            block,
                            None,
                            &counters,
                            Some(&mut timings),
                        )
                    })
                    .unwrap();
                    let work = (counters.snapshot(), counters.fallbacks());
                    (
                        lambda,
                        bits(&totals),
                        keep.then(|| bits(x.values())),
                        work,
                        timings,
                    )
                };
                let reference = run(Parallelism::Serial, m, true);
                assert!(reference.3 .0.subproblems > 0);
                for par in [Parallelism::Serial, Parallelism::RayonThreads(2)] {
                    for block in [1, 2, 3, m, m + 1] {
                        for keep in [true, false] {
                            let what = format!("{kernel:?} warm={warm} {par:?} {block} {keep}");
                            let (lambda, totals, x, work, timings) = run(par, block, keep);
                            assert_eq!(bits(&lambda), bits(&reference.0), "λ, {what}");
                            assert_eq!(totals, reference.1, "totals, {what}");
                            if keep {
                                assert_eq!(x, reference.2, "x, {what}");
                            }
                            assert_eq!(work, reference.3, "counters, {what}");
                            if !par.is_parallel() {
                                assert!(timings.is_empty(), "{what}");
                                continue;
                            }
                            assert_eq!(timings.len(), m.div_ceil(block), "{what}");
                            let tasks: u64 = timings.iter().map(|tm| tm.tasks).sum();
                            assert_eq!(tasks, m as u64, "{what}");
                            let shard_work = timings
                                .iter()
                                .fold(KernelCounters::default(), |a, tm| a.merged(tm.counters));
                            assert_eq!(shard_work, work.0, "shard counters, {what}");
                        }
                    }
                }
                hints = reference.0;
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

        // Plain subproblems: dense rows, dense rows with a support
        // pattern, CSR.
        let prior_csr = CsrMatrix::from_dense_pruned(&prior).unwrap();
        assert_passes_agree(&prior, &gamma, None, None, &modes, shifts);
        assert_passes_agree(&prior, &gamma, Some(&prior_csr), None, &modes, shifts);
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
        assert_passes_agree(&prior_csr, &gamma_csr, None, None, &modes, shifts);

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
        assert_passes_agree(&prior, &gamma, None, Some(&bounds), &modes, shifts);
        let (lo_csr, hi_csr) = (on_pattern(&lo), on_pattern(&hi));
        let csr_sums: Vec<(f64, f64)> = (0..m)
            .map(|i| {
                let r = lo_csr.row_range(i);
                sums(&lo_csr.values()[r.clone()], &hi_csr.values()[r])
            })
            .collect();
        let bounds = PassBounds::new(&lo_csr, &hi_csr, &csr_sums);
        let modes = |i| boxed_modes(&csr_sums, i);
        assert_passes_agree(&prior_csr, &gamma_csr, None, Some(&bounds), &modes, shifts);
    }

    #[test]
    fn worker_panic_is_contained_as_typed_error() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            side: "column",
            fault: Some(TaskFault {
                index: 1,
                panic: true,
            }),
            ..inputs(&x0, &gamma, &shift)
        };
        for par in [Parallelism::Serial, Parallelism::Rayon] {
            let mut x = DenseMatrix::zeros(2, 3).unwrap();
            match pass(&inp, &|_| TotalMode::Fixed { total: 5.0 }, &mut x, par) {
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
                kernel,
                ..inputs(&prior, &gamma, &shift)
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
                    DEFAULT_BLOCK_ROWS,
                    None,
                    &counters,
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

    #[test]
    fn empty_rows_at_shard_edges_keep_every_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(32);
        // Rows 0, 2, 3, 5 and 8 store nothing: blocks of 1, 2 or 3 rows
        // open or close on them, and row 8 ends the pass.
        let (m, n) = (9, 5);
        let empty = [0, 2, 3, 5, 8];
        let mut triplets = Vec::new();
        for i in (0..m).filter(|i| !empty.contains(i)) {
            for j in 0..n {
                if j == i % n || rng.random_range(0.0..1.0) < 0.6 {
                    triplets.push((i, j, rng.random_range(0.5..10.0)));
                }
            }
        }
        let prior = CsrMatrix::from_triplets(m, n, &triplets).unwrap();
        let mut on_pattern = |lo: f64, hi: f64| {
            let v = (0..prior.stored())
                .map(|_| rng.random_range(lo..hi))
                .collect();
            prior.with_values(v).unwrap()
        };
        let (gamma, lo, width) = (
            on_pattern(0.05, 5.0),
            on_pattern(0.0, 1.0),
            on_pattern(0.5, 4.0),
        );
        let hi = lo
            .with_values(
                lo.values()
                    .iter()
                    .zip(width.values())
                    .map(|(l, w)| l + w)
                    .collect(),
            )
            .unwrap();
        let shift_cold: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let shift_warm: Vec<f64> = shift_cold
            .iter()
            .map(|v| v + rng.random_range(-0.3..0.3))
            .collect();
        let shifts = [&shift_cold[..], &shift_warm[..]];
        let sums: Vec<(f64, f64)> = (0..m)
            .map(|i| {
                let r = prior.row_range(i);
                (
                    lo.values()[r.clone()].iter().sum(),
                    hi.values()[r].iter().sum(),
                )
            })
            .collect();
        // Odd rows are elastic; an empty fixed row's total is 0.
        let modes = |i: usize| {
            let (slo, shi) = sums[i];
            if i % 2 == 1 {
                TotalMode::Elastic {
                    alpha: 0.8,
                    prior: 0.5 * (slo + shi),
                    cross: 0.1,
                }
            } else {
                TotalMode::Fixed {
                    total: slo + 0.4 * (shi - slo),
                }
            }
        };
        assert_passes_agree(&prior, &gamma, None, None, &modes, shifts);
        let bounds = PassBounds::new(&lo, &hi, &sums);
        assert_passes_agree(&prior, &gamma, None, Some(&bounds), &modes, shifts);
    }
}
