//! Dense column passes over the problem's own row-major matrices.
//!
//! SEA's column step solves the `n` column subproblems of the matrices its
//! row step reads (§3.1). A dense column pass reads them where they lie:
//! it walks the row-major `x⁰`, `γ` and any bounds in tiles of [`TILE`]
//! columns, so a dense solve never makes a transposed copy. (CSR problems
//! keep their transposed layout: column tiles over a banded pattern were
//! slower than the transposed pass.)
//!
//! A tile takes up to three sweeps down the rows:
//!
//! 1. **Warm fold.** The quickselect kernel's warm test for every column
//!    of the tile at once: row `i` folds its entries through
//!    [`warm_fold`], the lane of a column's `k`-th variable being
//!    `k mod 4`, with one [`Bracket`] per column, exactly as the kernel's
//!    own warm test does over a contiguous column.
//! 2. **Gather.** Columns the fold cannot settle (a warm miss, a cold
//!    boxed pass, the sort-scan kernel, a scripted fault) are gathered into
//!    the thread's scratch and solved by the unchanged kernel.
//! 3. **Materialize.** `x(λ, μ)` is written straight into the row-major
//!    iterate. A plain column's rounding correction (`rounding_scale`) is
//!    not applied there: it is kept as a per-column scale beside `x`
//!    ([`Scaled`]) and applied wherever `x` is read.
//!
//! Every column sees the values the kernel would see in a transposed
//! row, in the same order, so λ, μ, `x`, the kernel counters and the
//! errors are bit for bit those of a pass over transposed copies.

use crate::equilibrate::{
    contain, elapsed_ns, empty_support_result, kernel_solve, locate, scripted_fallback, take_front,
    PassCounters, PassInputs, ShardTiming, TaskScratch, SCRATCH,
};
use crate::error::SeaError;
use crate::knapsack::{
    entry_events, realized_total, rounding_scale, warm_fold, Bounds, Bracket, Interval, KernelKind,
    TotalMode, Unbounded, LANES,
};
use crate::parallel::Parallelism;
use crate::storage::Storage;
use rayon::prelude::*;
use sea_linalg::dense::PARALLEL_MIN_ENTRIES;
use sea_linalg::CsrMatrix;
use sea_observe::KernelCounters;
use std::marker::PhantomData;
use std::ops::Range;
use std::time::Instant;

/// Columns per tile. A tile's per-column state (lane sums, brackets,
/// multipliers) stays in L1, and one row's slice of a tile is a run of
/// 1 KB in each matrix, long enough to stream. Narrower tiles read short
/// runs of many rows; a scan at 8, 40 and 200 columns is in ROADMAP.md.
pub(crate) const TILE: usize = 128;

/// A dense column pass's iterate: the row-major entries as the pass wrote
/// them, and each column's rounding correction, still to be applied.
/// Entry `(i, j)` reads as `x[i][j] · scale[j]`, the bits the kernel's
/// in-place correction would have left.
#[derive(Debug, Clone)]
pub(crate) struct Scaled<S> {
    pub(crate) x: S,
    pub(crate) scale: Vec<f64>,
}

impl<S: Storage> Scaled<S> {
    /// A zero iterate shaped like the dense `like`.
    pub(crate) fn zeros_like(like: &S) -> Result<Self, SeaError> {
        Ok(Self {
            x: like.zeros_like()?,
            scale: vec![1.0; like.cols()],
        })
    }

    /// Row `i`'s entries as they read, with their columns' scales.
    fn row(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        self.x.values()[self.x.row_range(i)]
            .iter()
            .zip(&self.scale)
            .map(|(v, s)| v * s)
    }

    /// Row sums of `x` into `out`, each summed in column order from `0.0`
    /// (the bits the column sums of a transposed iterate have), on the
    /// current pool when `parallel` and the iterate is large.
    pub(crate) fn row_sums_into(&self, out: &mut [f64], parallel: bool) {
        let sum = |(i, o): (usize, &mut f64)| *o = self.row(i).fold(0.0, |acc, v| acc + v);
        if parallel && self.x.stored() >= PARALLEL_MIN_ENTRIES {
            out.par_iter_mut().enumerate().for_each(sum);
        } else {
            out.iter_mut().enumerate().for_each(sum);
        }
    }

    /// Whether every entry reads finite.
    pub(crate) fn all_finite(&self) -> bool {
        (0..self.x.rows()).all(|i| self.row(i).all(f64::is_finite))
    }

    /// `maxᵢⱼ |xᵢⱼ − prevᵢⱼ|`, then `prev ← x`.
    pub(crate) fn max_abs_change(&self, prev: &mut S) -> f64 {
        let mut delta = 0.0_f64;
        let n = self.x.cols();
        for (i, p) in prev.values_mut().chunks_exact_mut(n).enumerate() {
            for (p, v) in p.iter_mut().zip(self.row(i)) {
                delta = delta.max((v - *p).abs());
                *p = v;
            }
        }
        delta
    }
}

/// A run of columns of a row-major `m × n` matrix that one shard (or one
/// chunk of the finishing sweep) owns in every row. Blocks are made only
/// by splitting a whole matrix, so their column ranges never overlap, and
/// shards on different threads write disjoint entries of the same rows.
pub(crate) struct ColumnBlock<'a> {
    ptr: *mut f64,
    n: usize,
    m: usize,
    cols: Range<usize>,
    _values: PhantomData<&'a mut [f64]>,
}

// SAFETY: a block is the exclusive borrow of its columns' entries (the
// `PhantomData<&mut [f64]>` carries the borrow of the whole buffer and
// splitting keeps the column ranges disjoint), and `f64` is `Send`, so
// moving a block to another thread is moving a `&mut` to its entries.
unsafe impl Send for ColumnBlock<'_> {}

impl<'a> ColumnBlock<'a> {
    /// Every column of the row-major `m × n` `values`.
    pub(crate) fn whole(values: &'a mut [f64], m: usize, n: usize) -> Self {
        assert_eq!(values.len(), m * n, "column block of a mis-sized matrix");
        Self {
            ptr: values.as_mut_ptr(),
            n,
            m,
            cols: 0..n,
            _values: PhantomData,
        }
    }

    /// Split off this block's first `w` columns.
    pub(crate) fn split_front(&mut self, w: usize) -> ColumnBlock<'a> {
        assert!(w <= self.cols.len(), "split past the block's columns");
        let mid = self.cols.start + w;
        let front = ColumnBlock {
            ptr: self.ptr,
            n: self.n,
            m: self.m,
            cols: self.cols.start..mid,
            _values: PhantomData,
        };
        self.cols.start = mid;
        front
    }

    /// Row `i`'s entries in the block's columns `cols` (absolute indices).
    #[inline]
    pub(crate) fn row(&mut self, i: usize, cols: Range<usize>) -> &mut [f64] {
        assert!(
            i < self.m
                && self.cols.start <= cols.start
                && cols.start <= cols.end
                && cols.end <= self.cols.end,
            "row {i}, columns {cols:?} outside the block"
        );
        // SAFETY: `ptr` points at the `m · n` entries `whole` borrowed for
        // `'a`; `i < m` and `cols ⊆ self.cols ⊆ 0..n` keep the slice inside
        // row `i`, and inside this block's columns, which no other block
        // shares. The slice borrows `self` mutably, so this block hands
        // out one at a time.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.n + cols.start), cols.len()) }
    }
}

/// How a tile reads its entries' bounds: [`Unbounded`], or the problem's
/// row-major `lo` and `hi` with each column's `(Σ lo, Σ hi)`.
trait TileBox: Copy + Sync {
    type B<'a>: Bounds
    where
        Self: 'a;

    /// The bounds of the entries at `range` of the row-major values.
    fn row(&self, range: Range<usize>) -> Self::B<'_>;

    /// Column `j`'s bounds, gathered into `lo` and `hi` (empty when only
    /// the sums are read).
    fn column<'a>(&'a self, j: usize, lo: &'a [f64], hi: &'a [f64]) -> Self::B<'a>;

    /// Whether the entries have bounds to gather.
    const BOXED: bool;
}

impl TileBox for Unbounded {
    type B<'a> = Unbounded;
    const BOXED: bool = false;

    #[inline(always)]
    fn row(&self, _: Range<usize>) -> Unbounded {
        Unbounded
    }

    fn column(&self, _: usize, _: &[f64], _: &[f64]) -> Unbounded {
        Unbounded
    }
}

/// Row-major bounds with column sums.
#[derive(Clone, Copy)]
struct RowMajorBox<'p> {
    lo: &'p [f64],
    hi: &'p [f64],
    sums: &'p [(f64, f64)],
}

impl TileBox for RowMajorBox<'_> {
    type B<'a>
        = Interval<'a>
    where
        Self: 'a;
    const BOXED: bool = true;

    #[inline(always)]
    fn row(&self, range: Range<usize>) -> Interval<'_> {
        Interval {
            lo: &self.lo[range.clone()],
            hi: &self.hi[range],
            sums: (0.0, 0.0),
        }
    }

    fn column<'a>(&'a self, j: usize, lo: &'a [f64], hi: &'a [f64]) -> Interval<'a> {
        Interval {
            lo,
            hi,
            sums: self.sums[j],
        }
    }
}

/// How a tile settles one column.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Settle {
    /// The warm fold found the root; materializing counts the clamps.
    Warm,
    /// The kernel searches the gathered column from this hint, and counts
    /// all its work.
    Search(Option<f64>),
}

/// Gather slot of a column that is not searched.
const UNGATHERED: u32 = u32::MAX;

/// Searched columns gathered per sweep down the rows: one cache line of
/// each matrix per row, so the gathered columns of a tall matrix still fit
/// a core's L2 cache and the scratch stays small beside the iterate.
const GATHER: usize = 8;

/// A thread's tile workspace, sized on first use and reused.
#[derive(Debug, Default, Clone)]
pub(crate) struct TileScratch {
    /// Per column: warm hint, bracket ends and variable count.
    hint: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    count: Vec<u32>,
    /// Lane sums of the intercept and slope, lane-major: lane `l` of
    /// column `c` at `l * TILE + c`.
    a: Vec<f64>,
    b: Vec<f64>,
    /// Per column: multiplier, realized total, how it was settled, the
    /// materialized sum and the entries strictly inside their box.
    lambda: Vec<f64>,
    total: Vec<f64>,
    settle: Vec<Settle>,
    sum: Vec<f64>,
    inside: Vec<u32>,
    /// The searched columns; per column its gather slot; the gathered
    /// columns' entries, slot `s` at `s * m..`, with their variable counts.
    slot: Vec<u32>,
    searched: Vec<u32>,
    gathered: Vec<u32>,
    q: Vec<f64>,
    g: Vec<f64>,
    glo: Vec<f64>,
    ghi: Vec<f64>,
    shift: Vec<f64>,
}

impl TileScratch {
    /// Reset the per-column state of a tile.
    fn prepare(&mut self) {
        let reset = |v: &mut Vec<f64>, x: f64, len: usize| {
            v.clear();
            v.resize(len, x);
        };
        reset(&mut self.hint, 0.0, TILE);
        reset(&mut self.lo, f64::NEG_INFINITY, TILE);
        reset(&mut self.hi, f64::INFINITY, TILE);
        reset(&mut self.a, 0.0, LANES * TILE);
        reset(&mut self.b, 0.0, LANES * TILE);
        reset(&mut self.lambda, 0.0, TILE);
        reset(&mut self.total, 0.0, TILE);
        reset(&mut self.sum, 0.0, TILE);
        self.count.clear();
        self.count.resize(TILE, 0);
        self.inside.clear();
        self.inside.resize(TILE, 0);
        self.settle.clear();
        self.settle.resize(TILE, Settle::Warm);
        self.slot.clear();
        self.slot.resize(TILE, UNGATHERED);
        self.searched.clear();
    }
}

/// One contiguous block of a dense column pass's columns, carrying the
/// disjoint outputs its columns write.
struct TileShard<'a> {
    /// Global index of the first column.
    base: usize,
    mu: &'a mut [f64],
    totals: &'a mut [f64],
    x: ColumnBlock<'a>,
    scale: &'a mut [f64],
    costs: Option<&'a mut [f64]>,
    timing: Option<&'a mut ShardTiming>,
}

/// Run a dense column pass: the column subproblems of the row-major
/// matrices `inp.prior`, `inp.gamma` and any `inp.bounds` (whose sums are
/// the columns'), against the row multipliers `inp.shift`, with a
/// structural problem's row pattern as `inp.support`. The outputs and
/// sharding are [`crate::equilibrate::equilibration_pass`]'s, except that
/// a shard is a block of `block` columns and the iterate is always kept,
/// with its rounding scales ([`Scaled`]). Per-task costs split each
/// tile's wall time evenly over its columns.
///
/// # Errors
/// Those of the pass over transposed copies, for the same first column.
#[allow(clippy::too_many_arguments)] // the row pass's arguments
pub(crate) fn column_pass<S: Storage>(
    inp: &PassInputs<'_, S>,
    modes: &(dyn Fn(usize) -> TotalMode + Sync),
    mu: &mut [f64],
    totals: &mut [f64],
    x: &mut Scaled<S>,
    par: Parallelism,
    block: usize,
    costs: Option<&mut Vec<f64>>,
    counters: &PassCounters,
    timings: Option<&mut Vec<ShardTiming>>,
) -> Result<(), SeaError> {
    let (m, n) = (inp.prior.rows(), inp.prior.cols());
    debug_assert!(inp.prior.row_cols(0).is_none(), "a tiled pass is dense");
    debug_assert_eq!((mu.len(), totals.len(), inp.shift.len()), (n, n, m));
    if inp.support.is_some() && inp.bounds.is_some() {
        return Err(SeaError::PatternMismatch {
            context: "pass inputs (bounds with a dense support pattern)",
        });
    }
    let mut whole = TileShard {
        base: 0,
        mu,
        totals,
        x: ColumnBlock::whole(x.x.values_mut(), m, n),
        scale: &mut x.scale,
        costs: costs.map(|c| {
            c.clear();
            c.resize(n, 0.0);
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
    let block = block.max(1);
    let count = n.div_ceil(block);
    let mut slots = timings.map(|t| {
        t.clear();
        t.resize(count, ShardTiming::default());
        t.iter_mut()
    });
    let mut shards = Vec::with_capacity(count);
    for base in (0..n).step_by(block) {
        let w = block.min(n - base);
        shards.push(TileShard {
            base,
            mu: take_front(&mut whole.mu, w),
            totals: take_front(&mut whole.totals, w),
            x: whole.x.split_front(w),
            scale: take_front(&mut whole.scale, w),
            costs: whole.costs.as_mut().map(|c| take_front(c, w)),
            timing: slots.as_mut().and_then(Iterator::next),
        });
    }
    shards
        .par_iter_mut()
        .try_for_each(|shard| run_shard(inp, modes, shard, counters, pass_t0))
}

/// Solve a shard's columns tile by tile on the calling thread's scratch,
/// then flush its kernel work into `counters` (and its timing slot).
fn run_shard<S: Storage>(
    inp: &PassInputs<'_, S>,
    modes: &(dyn Fn(usize) -> TotalMode + Sync),
    shard: &mut TileShard<'_>,
    counters: &PassCounters,
    pass_t0: Instant,
) -> Result<(), SeaError> {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.eq.stats = KernelCounters::default();
        scratch.fallbacks = 0;
        if let Some(tm) = shard.timing.as_mut() {
            tm.start_ns = elapsed_ns(pass_t0);
        }
        let cols = shard.mu.len();
        for first in (0..cols).step_by(TILE) {
            let w = TILE.min(cols - first);
            let t0 = shard.costs.is_some().then(Instant::now);
            match inp.bounds {
                None => tile(inp, modes, Unbounded, shard, first, w, scratch)?,
                Some(b) => {
                    let bx = RowMajorBox {
                        lo: b.lo.values(),
                        hi: b.hi.values(),
                        sums: b.sums,
                    };
                    tile(inp, modes, bx, shard, first, w, scratch)?;
                }
            }
            if let (Some(c), Some(t0)) = (shard.costs.as_deref_mut(), t0) {
                let each = t0.elapsed().as_secs_f64() / w as f64;
                c[first..first + w].fill(each);
            }
        }
        if let Some(tm) = shard.timing.as_mut() {
            tm.end_ns = elapsed_ns(pass_t0);
            tm.tasks = cols as u64;
            tm.counters = scratch.eq.stats;
        }
        counters.add(&scratch.eq.stats);
        counters.add_fallbacks(scratch.fallbacks);
        Ok(())
    })
}

/// The columns of `pattern`'s row `i` inside `cols`.
#[inline]
pub(crate) fn pattern_cols(pattern: &CsrMatrix, i: usize, cols: Range<usize>) -> &[u32] {
    let row = pattern.row_cols(i);
    let from = row.partition_point(|&j| (j as usize) < cols.start);
    let to = row.partition_point(|&j| (j as usize) < cols.end);
    &row[from..to]
}

/// Solve the `w` columns of `shard` starting at its column `first`.
#[allow(clippy::too_many_arguments)] // pass inputs + box + shard + tile + scratch
fn tile<S: Storage, X: TileBox>(
    inp: &PassInputs<'_, S>,
    modes: &(dyn Fn(usize) -> TotalMode + Sync),
    bx: X,
    shard: &mut TileShard<'_>,
    first: usize,
    w: usize,
    scratch: &mut TaskScratch,
) -> Result<(), SeaError> {
    let (m, n) = (inp.prior.rows(), inp.prior.cols());
    let j0 = shard.base + first;
    let cols = j0..j0 + w;
    let (x0, gamma) = (inp.prior.values(), inp.gamma.values());
    let TaskScratch {
        eq,
        tile: ts,
        fallbacks,
        ..
    } = scratch;
    ts.prepare();

    // ---- 1. Warm fold: every column's warm test in one sweep. ----------
    let fold = inp.kernel == KernelKind::Quickselect && inp.hint(0.0).is_some();
    if fold {
        for c in 0..w {
            ts.hint[c] = inp.hint(shard.mu[first + c]).unwrap_or(f64::INFINITY);
        }
        for i in 0..m {
            let r = i * n + j0..i * n + j0 + w;
            let (q, g) = (&x0[r.clone()], &gamma[r.clone()]);
            let bounds = bx.row(r);
            let s = inp.shift[i];
            match inp.support {
                None => {
                    let lane = i % LANES;
                    let a = &mut ts.a[lane * TILE..lane * TILE + w];
                    let b = &mut ts.b[lane * TILE..lane * TILE + w];
                    let (lo, hi, hint) = (&mut ts.lo[..w], &mut ts.hi[..w], &ts.hint[..w]);
                    for c in 0..w {
                        let (l, u) = entry_events(bounds, c, q[c], g[c], s);
                        let mut br = Bracket {
                            lo: lo[c],
                            hi: hi[c],
                        };
                        warm_fold::<X::B<'_>>(l, u, hint[c], &mut a[c], &mut b[c], &mut br);
                        (lo[c], hi[c]) = (br.lo, br.hi);
                    }
                }
                Some(pattern) => {
                    for &j in pattern_cols(pattern, i, cols.clone()) {
                        let c = j as usize - j0;
                        let lane = ts.count[c] as usize % LANES;
                        ts.count[c] += 1;
                        let (l, u) = entry_events(bounds, c, q[c], g[c], s);
                        let mut br = Bracket {
                            lo: ts.lo[c],
                            hi: ts.hi[c],
                        };
                        let (a, b) = (&mut ts.a[lane * TILE + c], &mut ts.b[lane * TILE + c]);
                        warm_fold::<X::B<'_>>(l, u, ts.hint[c], a, b, &mut br);
                        (ts.lo[c], ts.hi[c]) = (br.lo, br.hi);
                    }
                }
            }
        }
        if inp.support.is_none() {
            ts.count[..w].fill(m as u32);
        }
    }

    // ---- Which columns the fold settles; the rest are searched. --------
    for c in 0..w {
        let j = j0 + c;
        let mode = modes(j);
        let hint = inp.hint(shard.mu[first + c]);
        let faulted = inp.fault.is_some_and(|f| f.index == j);
        ts.settle[c] = Settle::Search(hint);
        // The kernel's checks ahead of its warm test: a column failing one
        // goes to the kernel, which reports it.
        let column = bx.column(j, &[], &[]);
        let count = ts.count[c] as usize;
        let checked = match mode {
            TotalMode::Fixed { total } => !column.out_of_reach(count, total),
            TotalMode::Elastic { alpha, .. } => alpha > 0.0,
        };
        if !fold || faulted || count == 0 || !checked {
            continue;
        }
        let lanes = |v: &[f64]| std::array::from_fn(|l| v[l * TILE + c]);
        let bracket = Bracket {
            lo: ts.lo[c],
            hi: ts.hi[c],
        };
        match bracket.root(lanes(&ts.a), lanes(&ts.b), column.base(), mode) {
            Some(lambda) if lambda.is_finite() => {
                let total = realized_total(mode, lambda);
                if total.is_finite() {
                    eq.stats.subproblems += 1;
                    eq.stats.quickselect_pivots += 1;
                    (ts.lambda[c], ts.total[c]) = (lambda, total);
                    ts.settle[c] = Settle::Warm;
                }
                // A non-finite answer goes back to the kernel with its
                // hint, to take the kernel's own fallback.
            }
            Some(_) => {}
            None => {
                // The fold was the kernel's warm attempt: count it, and
                // search without repeating it.
                eq.stats.quickselect_pivots += 1;
                ts.settle[c] = Settle::Search(None);
            }
        }
    }

    // ---- 2. Gather the rest, a group at a time, and search them in ----
    // column order, as a transposed pass would.
    for c in 0..w {
        if matches!(ts.settle[c], Settle::Search(_)) {
            ts.searched.push(c as u32);
        }
    }
    let searched = ts.searched.len();
    for start in (0..searched).step_by(GATHER) {
        let group = start..searched.min(start + GATHER);
        gather(inp, ts, group.clone(), cols.clone());
        for s in 0..group.len() {
            let c = ts.searched[group.start + s] as usize;
            let j = j0 + c;
            let Settle::Search(hint) = ts.settle[c] else {
                continue;
            };
            let at = s * m..s * m + ts.gathered[s] as usize;
            let (q, g) = (&ts.q[at.clone()], &ts.g[at.clone()]);
            let column = if X::BOXED {
                bx.column(j, &ts.glo[at.clone()], &ts.ghi[at.clone()])
            } else {
                bx.column(j, &[], &[])
            };
            let mode = modes(j);
            let solved = contain(inp.side, j, || {
                let force = scripted_fallback(inp, j);
                match inp.support {
                    None => kernel_solve(
                        inp.kernel, force, q, g, inp.shift, column, mode, hint, None, eq, fallbacks,
                    ),
                    Some(_) if q.is_empty() => empty_support_result(column, mode, inp.side, j),
                    Some(_) => kernel_solve(
                        inp.kernel,
                        force,
                        q,
                        g,
                        &ts.shift[at],
                        column,
                        mode,
                        hint,
                        None,
                        eq,
                        fallbacks,
                    )
                    .map_err(|e| locate(e, inp.side, j)),
                }
            })?;
            (ts.lambda[c], ts.total[c]) = solved;
        }
    }

    // ---- 3. Materialize x(λ, μ) into the row-major iterate. ------------
    for i in 0..m {
        let r = i * n + j0..i * n + j0 + w;
        let (q, g) = (&x0[r.clone()], &gamma[r.clone()]);
        let bounds = bx.row(r);
        let s = inp.shift[i];
        let out = shard.x.row(i, cols.clone());
        let (lambda, sum, inside) = (&ts.lambda[..w], &mut ts.sum[..w], &mut ts.inside[..w]);
        match inp.support {
            None => {
                for c in 0..w {
                    let v = bounds.clamp(c, q[c] + (s + lambda[c]) / (2.0 * g[c]));
                    out[c] = v;
                    if X::BOXED {
                        inside[c] += u32::from(bounds.inside(c, v));
                    } else {
                        sum[c] += v;
                    }
                }
            }
            Some(pattern) => {
                out.fill(0.0);
                for &j in pattern_cols(pattern, i, cols.clone()) {
                    let c = j as usize - j0;
                    let v = bounds.clamp(c, q[c] + (s + lambda[c]) / (2.0 * g[c]));
                    out[c] = v;
                    sum[c] += v;
                }
            }
        }
    }
    for c in 0..w {
        let t = first + c;
        shard.mu[t] = ts.lambda[c];
        shard.totals[t] = ts.total[c];
        shard.scale[t] = if X::BOXED {
            // The kernel counted a searched column's clamps itself.
            if ts.settle[c] == Settle::Warm {
                eq.stats.boxed_clamps += u64::from(ts.count[c] - ts.inside[c]);
            }
            1.0
        } else {
            rounding_scale(ts.total[c], ts.sum[c]).unwrap_or(1.0)
        };
    }
    Ok(())
}

/// Gather the variables of the searched columns `group` (indices into
/// `ts.searched`) of the tile over `cols` into slots `0..group.len()` of
/// the scratch, slot `s` at `s * m..`, with their counts: one sweep down
/// the rows. A structural column also gathers its shift.
fn gather<S: Storage>(
    inp: &PassInputs<'_, S>,
    ts: &mut TileScratch,
    group: Range<usize>,
    cols: Range<usize>,
) {
    let (m, n) = (inp.prior.rows(), inp.prior.cols());
    let (x0, gamma) = (inp.prior.values(), inp.gamma.values());
    let len = group.len() * m;
    let boxed = inp.bounds.is_some();
    // Slots only grow: every entry a search reads is written first.
    let grow = |v: &mut Vec<f64>| {
        if v.len() < len {
            v.resize(len, 0.0);
        }
    };
    grow(&mut ts.q);
    grow(&mut ts.g);
    if boxed {
        grow(&mut ts.glo);
        grow(&mut ts.ghi);
    }
    ts.gathered.clear();
    ts.gathered.resize(group.len(), 0);
    let members = &ts.searched[group];
    // Two matrices per sweep, in blocks of eight rows: a block reads one
    // run of each of its rows and writes one cache line of each column.
    let pair = |a: &[f64], b: &[f64], qa: &mut [f64], qb: &mut [f64]| {
        for i0 in (0..m).step_by(8) {
            let rows = i0..m.min(i0 + 8);
            for (s, &c) in members.iter().enumerate() {
                let j = cols.start + c as usize;
                for i in rows.clone() {
                    qa[s * m + i] = a[i * n + j];
                    qb[s * m + i] = b[i * n + j];
                }
            }
        }
    };
    match inp.support {
        None => {
            pair(x0, gamma, &mut ts.q, &mut ts.g);
            if let Some(b) = inp.bounds {
                pair(b.lo.values(), b.hi.values(), &mut ts.glo, &mut ts.ghi);
            }
            ts.gathered.fill(m as u32);
        }
        Some(pattern) => {
            ts.slot.fill(UNGATHERED);
            for (s, &c) in members.iter().enumerate() {
                ts.slot[c as usize] = s as u32;
            }
            grow(&mut ts.shift);
            for i in 0..m {
                for &j in pattern_cols(pattern, i, cols.clone()) {
                    let s = ts.slot[j as usize - cols.start];
                    if s == UNGATHERED {
                        continue;
                    }
                    let s = s as usize;
                    let at = s * m + ts.gathered[s] as usize;
                    ts.gathered[s] += 1;
                    let from = i * n + j as usize;
                    ts.q[at] = x0[from];
                    ts.g[at] = gamma[from];
                    ts.shift[at] = inp.shift[i];
                }
            }
        }
    }
}
