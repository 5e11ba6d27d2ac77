//! Problem storage abstraction: dense and CSR backends behind one trait.
//!
//! The SEA drivers never need random access to a whole matrix — each
//! equilibration pass walks *rows* of the prior, the weight table, and the
//! iterate (a sparse column pass solves rows of an explicit transpose; a
//! dense one walks the rows in column tiles).
//! [`Storage`] captures exactly that access pattern, so the solvers can run
//! unchanged over [`DenseMatrix`] (the historical backend) or
//! [`CsrMatrix`] (support-only storage for sparse CMPs).
//!
//! Two invariants make dense and sparse solves *bitwise* comparable:
//!
//! 1. Within a row, stored entries are visited in increasing column order in
//!    both backends (dense trivially; CSR by construction), so the kernel
//!    sees the same value sequences.
//! 2. A problem's prior, weights, and iterates all share one pattern
//!    ([`Storage::same_pattern`]); for CSR the pattern `Arc`s are literally
//!    shared, so this is a pointer check.
//!
//! For CSR storage the stored pattern **is** the support: missing cells are
//! structural zeros (never variables), stored cells — including stored
//! zeros — are variables. `ZeroPolicy` therefore has no effect on sparse
//! problems; [`Storage::from_dense`] keeps every dense cell (stored zeros
//! included) so that a dense problem and its sparse re-construction describe
//! the same feasible set. A dense problem with structural zeros keeps its
//! support as the CSR pattern of its prior's nonzero cells
//! ([`Storage::nonzero_pattern`]).
//!
//! A backend tells its rows apart only through [`Storage::row_cols`], and
//! the crate reads it in two places: the pass, which picks a kernel call
//! from a row's layout, and `Vars`, which every other walk over a
//! problem's variables (ζ, the objective, the certificate, the support
//! graph) goes through.

use crate::error::SeaError;
use rayon::prelude::*;
use sea_linalg::{CsrMatrix, DenseMatrix};
use std::fmt;
use std::ops::Range;

/// Where one row's variables sit among its stored values: the only code
/// that tells a row's layout apart. A problem's variables are its CSR
/// pattern, a dense structural problem's listed support, or every cell of
/// a free dense row; every walk over them (passes aside, which hand whole
/// rows to the kernel) goes through [`Vars::for_each`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Vars<'a> {
    /// Every cell of a dense row with this many columns.
    Full(usize),
    /// A stored CSR row: its `k`-th value is in column `cols[k]`.
    Stored(&'a [u32]),
    /// The listed columns of a dense row: column `j`'s value is at `j`.
    Listed(&'a [u32]),
}

impl<'a> Vars<'a> {
    /// Row `i` of `s`, whose variables, when `s` is dense and has a
    /// `support` pattern, are that pattern's row `i`.
    #[inline]
    pub(crate) fn of<S: Storage>(s: &'a S, support: Option<&'a CsrMatrix>, i: usize) -> Self {
        match (s.row_cols(i), support) {
            (Some(cols), _) => Vars::Stored(cols),
            (None, Some(pattern)) => Vars::Listed(pattern.row_cols(i)),
            (None, None) => Vars::Full(s.cols()),
        }
    }

    /// Call `f(j, k)` for each variable in column order: `j` is its
    /// column and `k` its position among the row's stored values.
    #[inline(always)]
    pub(crate) fn for_each(self, mut f: impl FnMut(usize, usize)) {
        match self {
            Vars::Full(n) => (0..n).for_each(|j| f(j, j)),
            Vars::Stored(cols) => {
                for (k, &j) in cols.iter().enumerate() {
                    f(j as usize, k);
                }
            }
            Vars::Listed(cols) => {
                for &j in cols {
                    f(j as usize, j as usize);
                }
            }
        }
    }
}

/// Matrix storage backend for SEA problems and iterates.
///
/// Implementations must visit stored entries of a row in increasing column
/// order (see the module docs for why), and `transpose_together` must order
/// each transposed row by original row index — the order a dense column
/// pass walks its rows in.
pub trait Storage: Clone + fmt::Debug + PartialEq + Send + Sync + 'static {
    /// Backend name for manifests, events, and CLI flags (`"dense"`/`"csr"`).
    fn label() -> &'static str;

    /// Number of rows `m`.
    fn rows(&self) -> usize;

    /// Number of columns `n`.
    fn cols(&self) -> usize;

    /// Number of stored entries (`m·n` dense; pattern nnz for CSR).
    fn stored(&self) -> usize;

    /// All stored values, row-major over the pattern.
    fn values(&self) -> &[f64];

    /// Mutable view of all stored values.
    fn values_mut(&mut self) -> &mut [f64];

    /// The stored values, consuming the matrix.
    fn into_values(self) -> Vec<f64>;

    /// A matrix with this one's shape and pattern holding `vals`.
    ///
    /// # Errors
    /// [`SeaError::Linalg`] when `vals` does not match the stored count.
    fn with_values(&self, vals: Vec<f64>) -> Result<Self, SeaError>;

    /// The columns of row `i`'s stored values, strictly increasing, for a
    /// sparse backend; `None` for a dense row, which stores every column.
    fn row_cols(&self, i: usize) -> Option<&[u32]>;

    /// Range of row `i`'s stored values within [`Storage::values`].
    fn row_range(&self, i: usize) -> Range<usize>;

    /// Mutable stored values of row `i`.
    fn row_values_mut(&mut self, i: usize) -> &mut [f64];

    /// A matrix with the same shape *and pattern*, all stored values zero.
    ///
    /// # Errors
    /// Propagates allocation/shape failures from the backend.
    fn zeros_like(&self) -> Result<Self, SeaError>;

    /// The column pass's copies of same-pattern `mats` (the prior, the
    /// weights and any bounds): their transposes, made together in one
    /// counting-sort pass, with the slot map `to` back (source slot `k`
    /// lands in transposed slot `to[k]`). `None` for a dense backend,
    /// whose column pass reads the matrices as they lie, in column tiles.
    ///
    /// # Errors
    /// [`SeaError::PatternMismatch`] when `mats` is empty, their patterns
    /// differ, or their stored entries overflow a `u32` slot map.
    #[allow(clippy::type_complexity)] // transposes + slot map, or none
    fn transpose_together(mats: &[&Self]) -> Result<Option<(Vec<Self>, Vec<u32>)>, SeaError>;

    /// `true` when `other` has the same shape and support pattern.
    fn same_pattern(&self, other: &Self) -> bool;

    /// Value at `(i, j)`; structural zeros read as `0.0`.
    fn get(&self, i: usize, j: usize) -> f64;

    /// Per-row sums of stored values into `out` (length `rows`).
    fn row_sums_into(&self, out: &mut [f64]);

    /// Per-column sums of stored values into `out` (length `cols`).
    fn col_sums_into(&self, out: &mut [f64]);

    /// Largest absolute difference of stored values against a same-pattern
    /// matrix.
    fn max_abs_diff(&self, other: &Self) -> f64;

    /// Overwrite stored values from a same-pattern matrix.
    fn copy_values_from(&mut self, other: &Self);

    /// Import a dense matrix, keeping **every** cell as a variable (for CSR
    /// this means a full pattern with stored zeros — see the module docs).
    ///
    /// # Errors
    /// Propagates backend construction failures.
    fn from_dense(dense: &DenseMatrix) -> Result<Self, SeaError>;

    /// Materialize as a dense matrix (structural zeros become stored zeros).
    ///
    /// # Errors
    /// Propagates allocation failures from the backend.
    fn to_dense(&self) -> Result<DenseMatrix, SeaError>;

    /// The pattern of a dense matrix's nonzero cells, which a structural
    /// zero policy makes the support; `None` for a sparse backend, whose
    /// stored pattern already is the support.
    ///
    /// # Errors
    /// Propagates construction failures from [`CsrMatrix`].
    fn nonzero_pattern(&self) -> Result<Option<CsrMatrix>, SeaError>;
}

impl Storage for DenseMatrix {
    fn label() -> &'static str {
        "dense"
    }

    #[inline]
    fn rows(&self) -> usize {
        DenseMatrix::rows(self)
    }

    #[inline]
    fn cols(&self) -> usize {
        DenseMatrix::cols(self)
    }

    #[inline]
    fn stored(&self) -> usize {
        DenseMatrix::len(self)
    }

    #[inline]
    fn values(&self) -> &[f64] {
        self.as_slice()
    }

    #[inline]
    fn values_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }

    fn into_values(self) -> Vec<f64> {
        self.into_vec()
    }

    fn with_values(&self, vals: Vec<f64>) -> Result<Self, SeaError> {
        DenseMatrix::from_vec(DenseMatrix::rows(self), DenseMatrix::cols(self), vals)
            .map_err(SeaError::from)
    }

    #[inline]
    fn row_cols(&self, _i: usize) -> Option<&[u32]> {
        None
    }

    #[inline]
    fn row_range(&self, i: usize) -> Range<usize> {
        let n = DenseMatrix::cols(self);
        i * n..(i + 1) * n
    }

    #[inline]
    fn row_values_mut(&mut self, i: usize) -> &mut [f64] {
        self.row_mut(i)
    }

    fn zeros_like(&self) -> Result<Self, SeaError> {
        DenseMatrix::zeros(DenseMatrix::rows(self), DenseMatrix::cols(self)).map_err(SeaError::from)
    }

    fn transpose_together(_: &[&Self]) -> Result<Option<(Vec<Self>, Vec<u32>)>, SeaError> {
        Ok(None)
    }

    fn same_pattern(&self, other: &Self) -> bool {
        DenseMatrix::rows(self) == DenseMatrix::rows(other)
            && DenseMatrix::cols(self) == DenseMatrix::cols(other)
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        DenseMatrix::get(self, i, j)
    }

    fn row_sums_into(&self, out: &mut [f64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.row(i).iter().sum();
        }
    }

    fn col_sums_into(&self, out: &mut [f64]) {
        DenseMatrix::col_sums_into(self, out);
    }

    fn max_abs_diff(&self, other: &Self) -> f64 {
        DenseMatrix::max_abs_diff(self, other)
    }

    fn copy_values_from(&mut self, other: &Self) {
        self.as_mut_slice().copy_from_slice(other.as_slice());
    }

    fn from_dense(dense: &DenseMatrix) -> Result<Self, SeaError> {
        Ok(dense.clone())
    }

    fn to_dense(&self) -> Result<DenseMatrix, SeaError> {
        Ok(self.clone())
    }

    fn nonzero_pattern(&self) -> Result<Option<CsrMatrix>, SeaError> {
        Ok(Some(CsrMatrix::from_dense_pruned(self)?))
    }
}

impl Storage for CsrMatrix {
    fn label() -> &'static str {
        "csr"
    }

    #[inline]
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }

    #[inline]
    fn cols(&self) -> usize {
        CsrMatrix::cols(self)
    }

    #[inline]
    fn stored(&self) -> usize {
        CsrMatrix::stored(self)
    }

    #[inline]
    fn values(&self) -> &[f64] {
        self.vals()
    }

    #[inline]
    fn values_mut(&mut self) -> &mut [f64] {
        self.vals_mut()
    }

    fn into_values(self) -> Vec<f64> {
        self.into_vals()
    }

    fn with_values(&self, vals: Vec<f64>) -> Result<Self, SeaError> {
        CsrMatrix::with_values(self, vals).map_err(SeaError::from)
    }

    #[inline]
    fn row_cols(&self, i: usize) -> Option<&[u32]> {
        Some(CsrMatrix::row_cols(self, i))
    }

    #[inline]
    fn row_range(&self, i: usize) -> Range<usize> {
        CsrMatrix::row_range(self, i)
    }

    #[inline]
    fn row_values_mut(&mut self, i: usize) -> &mut [f64] {
        CsrMatrix::row_vals_mut(self, i)
    }

    fn zeros_like(&self) -> Result<Self, SeaError> {
        Ok(CsrMatrix::zeros_like(self))
    }

    fn transpose_together(mats: &[&Self]) -> Result<Option<(Vec<Self>, Vec<u32>)>, SeaError> {
        CsrMatrix::transpose_together(mats)
            .map(Some)
            .ok_or(SeaError::PatternMismatch {
                context: "transposition (no matrices, mixed patterns or too many entries)",
            })
    }

    fn same_pattern(&self, other: &Self) -> bool {
        CsrMatrix::same_pattern(self, other)
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        CsrMatrix::get(self, i, j)
    }

    fn row_sums_into(&self, out: &mut [f64]) {
        CsrMatrix::row_sums_into(self, out);
    }

    fn col_sums_into(&self, out: &mut [f64]) {
        CsrMatrix::col_sums_into(self, out);
    }

    fn max_abs_diff(&self, other: &Self) -> f64 {
        CsrMatrix::max_abs_diff(self, other)
    }

    fn copy_values_from(&mut self, other: &Self) {
        debug_assert!(CsrMatrix::same_pattern(self, other));
        self.vals_mut().copy_from_slice(other.vals());
    }

    fn from_dense(dense: &DenseMatrix) -> Result<Self, SeaError> {
        CsrMatrix::from_dense_full(dense).map_err(SeaError::from)
    }

    fn to_dense(&self) -> Result<DenseMatrix, SeaError> {
        CsrMatrix::to_dense(self).map_err(SeaError::from)
    }

    fn nonzero_pattern(&self) -> Result<Option<CsrMatrix>, SeaError> {
        Ok(None)
    }
}

/// One sparse solve's transposition between the problem's layout and the
/// column pass's: the prior, the weights and any bounds go over together
/// once, in one counting-sort pass that records the slot map, and the
/// final iterate comes back into a spare transposed buffer by a gather
/// through it, on the solve's pool when `parallel`. The gather only moves
/// values, so the bits do not depend on it. Dense solves need none
/// ([`Storage::transpose_together`]).
pub(crate) struct Transposer {
    to: Vec<u32>,
    parallel: bool,
}

impl Transposer {
    /// Transpose same-pattern `mats`, planning the way back; `None` for a
    /// dense backend.
    #[allow(clippy::type_complexity)] // the plan and the transposes, or none
    pub(crate) fn over<S: Storage>(
        mats: &[&S],
        parallel: bool,
    ) -> Result<Option<(Self, Vec<S>)>, SeaError> {
        Ok(S::transpose_together(mats)?.map(|(ts, to)| (Transposer { to, parallel }, ts)))
    }

    /// A transposed-layout `t` back in the layout of `like`, which has the
    /// planned pattern (and, for CSR, shares it with the result). `spare`
    /// is a transposed matrix the caller is done with: the result is
    /// written into its value buffer, whose pages are already mapped.
    pub(crate) fn back<S: Storage>(&self, t: &S, like: &S, spare: S) -> Result<S, SeaError> {
        let mut out = spare.into_values();
        let src = t.values();
        if self.parallel {
            out.par_iter_mut()
                .zip(self.to.par_iter())
                .for_each(|(o, &k)| *o = src[k as usize]);
        } else {
            for (o, &k) in out.iter_mut().zip(&self.to) {
                *o = src[k as usize];
            }
        }
        like.with_values(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_linalg::dense::{transpose_into, PARALLEL_MIN_ENTRIES};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn dense() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0]]).unwrap()
    }

    fn generic_round_trip<S: Storage>(src: &DenseMatrix) {
        let s = S::from_dense(src).unwrap();
        assert_eq!(s.rows(), src.rows());
        assert_eq!(s.cols(), src.cols());
        let back = s.to_dense().unwrap();
        assert_eq!(&back, src);
        // Only a sparse backend transposes for its column pass.
        match S::transpose_together(&[&s]).unwrap() {
            Some((ts, _)) => {
                assert_eq!(ts[0].rows(), src.cols());
                assert_eq!(ts[0].get(2, 0), 2.0);
            }
            None => assert_eq!(S::label(), "dense"),
        }
        let z = s.zeros_like().unwrap();
        assert!(z.same_pattern(&s));
        assert!(z.values().iter().all(|&v| v == 0.0));
    }

    /// The transpose by definition, entry by entry. Transposing only
    /// moves values, so every backend must match it bit for bit.
    fn reference_transpose(src: &DenseMatrix) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(src.cols(), src.rows()).unwrap();
        for i in 0..src.rows() {
            for j in 0..src.cols() {
                t.set(j, i, src.get(i, j));
            }
        }
        t
    }

    fn bits<S: Storage>(m: &S) -> Vec<u64> {
        m.values().iter().map(|v| v.to_bits()).collect()
    }

    fn transposer_round_trip(src: &DenseMatrix) {
        let a = CsrMatrix::from_dense_full(src).unwrap();
        let want = CsrMatrix::from_dense_full(&reference_transpose(src)).unwrap();
        for parallel in [false, true] {
            let (plan, ts) = Transposer::over(&[&a, &a], parallel).unwrap().unwrap();
            assert_eq!(ts.len(), 2);
            for t in &ts {
                assert!(t.same_pattern(&want));
                assert_eq!(bits(t), bits(&want), "forward, parallel {parallel}");
            }
            let back = plan.back(&ts[0], &a, ts[1].clone()).unwrap();
            assert!(back.same_pattern(&a));
            assert_eq!(bits(&back), bits(&a), "back, parallel {parallel}");
        }
    }

    /// An entry that notes being copied on a thread other than `home`.
    struct Stamp<'a> {
        home: std::thread::ThreadId,
        strayed: &'a AtomicBool,
    }

    impl Clone for Stamp<'_> {
        fn clone(&self) -> Self {
            if std::thread::current().id() != self.home {
                self.strayed.store(true, Ordering::Relaxed);
            }
            Stamp {
                home: self.home,
                strayed: self.strayed,
            }
        }
    }

    /// Whether a `rows × cols` strip transpose copied anything off the
    /// calling thread.
    fn fans_out(rows: usize, cols: usize, parallel: bool) -> bool {
        let strayed = AtomicBool::new(false);
        let stamp = Stamp {
            home: std::thread::current().id(),
            strayed: &strayed,
        };
        let src = vec![stamp; rows * cols];
        let mut dst = src.clone();
        transpose_into(&src, rows, cols, &mut dst, parallel);
        strayed.load(Ordering::Relaxed)
    }

    #[test]
    fn transposer_matches_transposed_both_ways() {
        // Column counts on both sides of the strip width, and not
        // multiples of it; entries with distinct bits, signed zeros too.
        for (rows, cols) in [(2, 3), (1, 17), (17, 1), (7, 13), (1000, 999)] {
            let data = (0..rows * cols)
                .map(|k| match k % 5 {
                    0 => -0.0,
                    _ => (k as f64).sin() * 1e3,
                })
                .collect();
            let d = DenseMatrix::from_vec(rows, cols, data).unwrap();
            transposer_round_trip(&d);
            assert!(Transposer::over(&[&d, &d], true).unwrap().is_none());
        }
        // A DenseMatrix cannot be empty; the strip transpose still can.
        for parallel in [false, true] {
            transpose_into::<f64>(&[], 0, 9, &mut [], parallel);
            transpose_into::<f64>(&[], 9, 0, &mut [], parallel);
        }
        // A serial transpose never leaves the calling thread, although
        // outside a pool the rayon width is the machine's; nor does a
        // parallel one below the fan-out size, such as a general
        // instance's 20×20 inner problem.
        assert!(!fans_out(64, 999, false));
        const { assert!(PARALLEL_MIN_ENTRIES > 20 * 20) };
        for (rows, cols) in [(20, 20), (1, PARALLEL_MIN_ENTRIES - 1), (127, 129)] {
            assert!(rows * cols < PARALLEL_MIN_ENTRIES);
            assert!(!fans_out(rows, cols, true), "{rows}×{cols} stays home");
        }
        if rayon::current_num_threads() > 1 {
            for (rows, cols) in [(64, 999), (128, 128)] {
                assert!(rows * cols >= PARALLEL_MIN_ENTRIES);
                assert!(fans_out(rows, cols, true), "{rows}×{cols} fans out");
            }
        }
    }

    #[test]
    fn both_backends_round_trip() {
        let d = dense();
        generic_round_trip::<DenseMatrix>(&d);
        generic_round_trip::<CsrMatrix>(&d);
    }

    #[test]
    fn from_dense_keeps_every_cell_for_csr() {
        let d = dense();
        let c = <CsrMatrix as Storage>::from_dense(&d).unwrap();
        // Full pattern: stored zeros stay variables, matching dense exactly.
        assert_eq!(Storage::stored(&c), 6);
        assert_eq!(Storage::values(&c), d.as_slice());
    }

    #[test]
    fn row_cols_agree_across_backends() {
        let d = dense();
        let c = CsrMatrix::from_dense_pruned(&d).unwrap();
        assert_eq!(Storage::row_cols(&c, 0), Some(&[0, 2][..]));
        assert_eq!(&c.values()[Storage::row_range(&c, 0)], &[1.0, 2.0]);
        assert_eq!(Storage::row_cols(&d, 0), None);
        assert_eq!(&d.values()[Storage::row_range(&d, 0)], &[1.0, 0.0, 2.0]);
    }

    #[test]
    fn sums_and_diffs_match_between_backends() {
        let d = dense();
        let c = CsrMatrix::from_dense_pruned(&d).unwrap();
        let mut rd = vec![0.0; 2];
        let mut rc = vec![0.0; 2];
        Storage::row_sums_into(&d, &mut rd);
        Storage::row_sums_into(&c, &mut rc);
        assert_eq!(rd, rc);
        let mut cd = vec![0.0; 3];
        let mut cc = vec![0.0; 3];
        Storage::col_sums_into(&d, &mut cd);
        Storage::col_sums_into(&c, &mut cc);
        assert_eq!(cd, cc);
    }

    #[test]
    fn row_ranges_index_values() {
        let d = dense();
        let c = CsrMatrix::from_dense_pruned(&d).unwrap();
        assert_eq!(Storage::row_range(&d, 1), 3..6);
        assert_eq!(Storage::row_range(&c, 1), 2..3);
        let mut c2 = c.clone();
        c2.row_values_mut(1)[0] = 9.0;
        assert_eq!(c2.get(1, 1), 9.0);
    }
}
