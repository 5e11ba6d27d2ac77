//! Compressed sparse row (CSR) `f64` matrices.
//!
//! [`CsrMatrix`] is the sparse counterpart of [`DenseMatrix`] for the SEA
//! solvers: real IO tables, SAMs, and migration matrices are overwhelmingly
//! sparse, and the per-row/per-column equilibration subproblems only touch
//! the support. The layout is classic three-array CSR with one twist: the
//! *pattern* (`row_ptr` + `col_idx`) lives behind `Arc`s so that a prior, its
//! weight table, and every solver iterate share a single copy of the
//! structure — `same_pattern` is then a pointer comparison and building an
//! iterate is just allocating a value buffer.
//!
//! Column indices are `u32` (a matrix with 2³² columns has no business in a
//! dense-or-sparse CMP solver), and within each row they are strictly
//! increasing — the same column order the dense row pass sees, which is what
//! makes dense-vs-sparse solves bitwise comparable on a shared support.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use std::ops::Range;
use std::sync::Arc;

/// Compressed sparse row matrix of `f64` with an `Arc`-shared pattern.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Arc<Vec<usize>>,
    col_idx: Arc<Vec<u32>>,
    vals: Vec<f64>,
}

/// Largest dimension representable by the `u32` index arrays.
const MAX_DIM: usize = u32::MAX as usize;

impl CsrMatrix {
    /// Build from raw CSR arrays, validating the structure.
    ///
    /// Requirements: `row_ptr` has `rows + 1` monotone entries starting at 0
    /// and ending at `col_idx.len()`; `col_idx` is strictly increasing within
    /// each row with every index `< cols`; `vals` is parallel to `col_idx`.
    ///
    /// # Errors
    /// [`LinalgError::Empty`] for zero dimensions, [`LinalgError::NotSquare`]
    /// never, [`LinalgError::DimensionMismatch`] for dimension overflow or
    /// array-length mismatches, [`LinalgError::InvalidSparsity`] for a
    /// malformed pattern.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty {
                context: "CsrMatrix::from_parts",
            });
        }
        if rows > MAX_DIM || cols > MAX_DIM {
            return Err(LinalgError::DimensionMismatch {
                context: "CsrMatrix::from_parts (dimension exceeds u32 range)",
                expected: MAX_DIM,
                actual: rows.max(cols),
            });
        }
        if row_ptr.len() != rows + 1 {
            return Err(LinalgError::DimensionMismatch {
                context: "CsrMatrix::from_parts (row_ptr length)",
                expected: rows + 1,
                actual: row_ptr.len(),
            });
        }
        if vals.len() != col_idx.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "CsrMatrix::from_parts (vals length)",
                expected: col_idx.len(),
                actual: vals.len(),
            });
        }
        if row_ptr[0] != 0 || row_ptr[rows] != col_idx.len() {
            return Err(LinalgError::InvalidSparsity {
                context: "CsrMatrix::from_parts (row_ptr endpoints)",
                row: 0,
            });
        }
        for i in 0..rows {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            if lo > hi || hi > col_idx.len() {
                return Err(LinalgError::InvalidSparsity {
                    context: "CsrMatrix::from_parts (row_ptr monotonicity)",
                    row: i,
                });
            }
            let mut prev: Option<u32> = None;
            for &c in &col_idx[lo..hi] {
                if (c as usize) >= cols || prev.is_some_and(|p| p >= c) {
                    return Err(LinalgError::InvalidSparsity {
                        context: "CsrMatrix::from_parts (column indices)",
                        row: i,
                    });
                }
                prev = Some(c);
            }
        }
        Ok(Self {
            rows,
            cols,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            vals,
        })
    }

    /// Build from `(row, col, value)` triplets. Triplets may arrive in any
    /// order; duplicates are rejected (an equilibration support has one slot
    /// per cell, so silently summing duplicates would hide generator bugs).
    ///
    /// # Errors
    /// Same classes as [`CsrMatrix::from_parts`]; a duplicate or out-of-range
    /// triplet surfaces as [`LinalgError::InvalidSparsity`].
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty {
                context: "CsrMatrix::from_triplets",
            });
        }
        if rows > MAX_DIM || cols > MAX_DIM {
            return Err(LinalgError::DimensionMismatch {
                context: "CsrMatrix::from_triplets (dimension exceeds u32 range)",
                expected: MAX_DIM,
                actual: rows.max(cols),
            });
        }
        for &(i, j, _) in triplets {
            if i >= rows || j >= cols {
                return Err(LinalgError::InvalidSparsity {
                    context: "CsrMatrix::from_triplets (index out of range)",
                    row: i,
                });
            }
        }
        // Counting sort by row, then an insertion-order-independent sort by
        // column within each row.
        let mut row_ptr = vec![0usize; rows + 1];
        for &(i, _, _) in triplets {
            row_ptr[i + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = triplets.len();
        let mut col_idx = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut next = row_ptr.clone();
        for &(i, j, v) in triplets {
            let slot = next[i];
            next[i] += 1;
            col_idx[slot] = j as u32;
            vals[slot] = v;
        }
        for i in 0..rows {
            let range = row_ptr[i]..row_ptr[i + 1];
            let seg_cols = &mut col_idx[range.clone()];
            let seg_vals = &mut vals[range];
            // Sort the (col, val) pairs of this row by column.
            let mut order: Vec<usize> = (0..seg_cols.len()).collect();
            order.sort_by_key(|&k| seg_cols[k]);
            let sorted_cols: Vec<u32> = order.iter().map(|&k| seg_cols[k]).collect();
            let sorted_vals: Vec<f64> = order.iter().map(|&k| seg_vals[k]).collect();
            for k in 1..sorted_cols.len() {
                if sorted_cols[k - 1] == sorted_cols[k] {
                    return Err(LinalgError::InvalidSparsity {
                        context: "CsrMatrix::from_triplets (duplicate entry)",
                        row: i,
                    });
                }
            }
            seg_cols.copy_from_slice(&sorted_cols);
            seg_vals.copy_from_slice(&sorted_vals);
        }
        Ok(Self {
            rows,
            cols,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            vals,
        })
    }

    /// Build a CSR matrix holding **every** entry of `dense`, zeros included
    /// (a "full pattern"). This is the faithful sparse image of a dense
    /// problem: every dense cell stays a variable, which is what makes a
    /// dense solve and its CSR re-construction bitwise comparable.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when a dimension exceeds `u32`.
    pub fn from_dense_full(dense: &DenseMatrix) -> Result<Self, LinalgError> {
        let (m, n) = (dense.rows(), dense.cols());
        if m > MAX_DIM || n > MAX_DIM {
            return Err(LinalgError::DimensionMismatch {
                context: "CsrMatrix::from_dense_full (dimension exceeds u32 range)",
                expected: MAX_DIM,
                actual: m.max(n),
            });
        }
        let mut row_ptr = Vec::with_capacity(m + 1);
        row_ptr.push(0usize);
        for i in 1..=m {
            row_ptr.push(i * n);
        }
        let mut col_idx = Vec::with_capacity(m * n);
        for _ in 0..m {
            col_idx.extend((0..n as u32).collect::<Vec<u32>>());
        }
        Ok(Self {
            rows: m,
            cols: n,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            vals: dense.as_slice().to_vec(),
        })
    }

    /// Build a CSR matrix from the nonzero entries of `dense`, dropping exact
    /// zeros. The resulting pattern matches the *structural* support the
    /// dense solvers derive under `ZeroPolicy::Structural`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when a dimension exceeds `u32`,
    /// [`LinalgError::InvalidSparsity`] never.
    pub fn from_dense_pruned(dense: &DenseMatrix) -> Result<Self, LinalgError> {
        let (m, n) = (dense.rows(), dense.cols());
        if m > MAX_DIM || n > MAX_DIM {
            return Err(LinalgError::DimensionMismatch {
                context: "CsrMatrix::from_dense_pruned (dimension exceeds u32 range)",
                expected: MAX_DIM,
                actual: m.max(n),
            });
        }
        let mut row_ptr = Vec::with_capacity(m + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0usize);
        for i in 0..m {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j as u32);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Self {
            rows: m,
            cols: n,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            vals,
        })
    }

    /// Materialize as a dense matrix (structural zeros become stored zeros).
    ///
    /// # Errors
    /// [`LinalgError::Allocation`] when `rows × cols` does not fit in memory.
    pub fn to_dense(&self) -> Result<DenseMatrix, LinalgError> {
        let mut out = DenseMatrix::try_zeros(self.rows, self.cols)?;
        for i in 0..self.rows {
            let row = out.row_mut(i);
            for (c, v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                row[*c as usize] = *v;
            }
        }
        Ok(out)
    }

    /// Number of rows `m`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns `n`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (nnz of the pattern, stored zeros included).
    #[inline]
    pub fn stored(&self) -> usize {
        self.vals.len()
    }

    /// Fraction of cells stored.
    pub fn density(&self) -> f64 {
        self.vals.len() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// The row-pointer array (`rows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array, parallel to [`CsrMatrix::vals`].
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// All stored values, row-major over the pattern.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable view of all stored values.
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Range of row `i` within the value/index arrays.
    #[inline]
    pub fn row_range(&self, i: usize) -> Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// Column indices of row `i`, strictly increasing.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.col_idx[self.row_range(i)]
    }

    /// Stored values of row `i`.
    #[inline]
    pub fn row_vals(&self, i: usize) -> &[f64] {
        let r = self.row_range(i);
        &self.vals[r]
    }

    /// Mutable stored values of row `i`.
    #[inline]
    pub fn row_vals_mut(&mut self, i: usize) -> &mut [f64] {
        let r = self.row_range(i);
        &mut self.vals[r]
    }

    /// Stored value at `(i, j)`, or `0.0` when the cell is structural.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let cols = self.row_cols(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => self.vals[self.row_ptr[i] + k],
            Err(_) => 0.0,
        }
    }

    /// A matrix with the *same shared pattern* and all stored values zero.
    pub fn zeros_like(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            row_ptr: Arc::clone(&self.row_ptr),
            col_idx: Arc::clone(&self.col_idx),
            vals: vec![0.0; self.vals.len()],
        }
    }

    /// A matrix with the same shared pattern and the given values.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `vals` is not parallel to the
    /// pattern.
    pub fn with_values(&self, vals: Vec<f64>) -> Result<Self, LinalgError> {
        if vals.len() != self.vals.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "CsrMatrix::with_values",
                expected: self.vals.len(),
                actual: vals.len(),
            });
        }
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            row_ptr: Arc::clone(&self.row_ptr),
            col_idx: Arc::clone(&self.col_idx),
            vals,
        })
    }

    /// The stored values, consuming the matrix.
    pub fn into_vals(self) -> Vec<f64> {
        self.vals
    }

    /// `true` when both matrices share one pattern — a pointer comparison
    /// when the `Arc`s are shared, a structural comparison otherwise.
    pub fn same_pattern(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && (Arc::ptr_eq(&self.row_ptr, &other.row_ptr) || *self.row_ptr == *other.row_ptr)
            && (Arc::ptr_eq(&self.col_idx, &other.col_idx) || *self.col_idx == *other.col_idx)
    }

    /// `true` when both matrices hold the same pattern `Arc`s, so they
    /// share one copy of the structure.
    pub fn shares_pattern(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.row_ptr, &other.row_ptr) && Arc::ptr_eq(&self.col_idx, &other.col_idx)
    }

    /// Explicit transpose via counting sort: O(nnz + rows + cols), and within
    /// each transposed row the entries are ordered by original row index —
    /// exactly the order the dense column pass walks, which keeps the sparse
    /// column pass bitwise aligned with the dense one.
    pub fn transposed(&self) -> Self {
        let mut ts = Self::scatter_transposed(&[self], None);
        ts.swap_remove(0)
    }

    /// Transpose several matrices that share one pattern in a single
    /// counting-sort pass. Returns the transposes (in the order of `mats`,
    /// sharing one new pattern, entries ordered as by [`Self::transposed`])
    /// and the slot map `to`: original slot `k` lands in transposed slot
    /// `to[k]`, so a transposed-layout matrix comes back by the gather
    /// `a[k] = t[to[k]]`. `None` when `mats` is empty, the patterns differ,
    /// or the slot count does not fit the `u32` map.
    pub fn transpose_together(mats: &[&CsrMatrix]) -> Option<(Vec<CsrMatrix>, Vec<u32>)> {
        let first = *mats.first()?;
        if !mats.iter().all(|a| first.same_pattern(a)) {
            return None;
        }
        u32::try_from(first.vals.len()).ok()?;
        let mut to = vec![0u32; first.vals.len()];
        let ts = Self::scatter_transposed(mats, Some(&mut to));
        Some((ts, to))
    }

    /// The counting-sort scatter behind both transposes: `mats` share the
    /// pattern of `mats[0]`, and `to`, when given, receives the slot map.
    fn scatter_transposed(mats: &[&CsrMatrix], mut to: Option<&mut [u32]>) -> Vec<CsrMatrix> {
        let first = mats[0];
        let nnz = first.vals.len();
        let t_ptr = first.transposed_row_ptr();
        let mut t_idx = vec![0u32; nnz];
        let mut t_vals: Vec<Vec<f64>> = mats.iter().map(|_| vec![0.0; nnz]).collect();
        let mut next = t_ptr.clone();
        for i in 0..first.rows {
            for k in first.row_range(i) {
                let c = first.col_idx[k] as usize;
                let slot = next[c];
                next[c] += 1;
                t_idx[slot] = i as u32;
                if let Some(to) = to.as_deref_mut() {
                    // Fits: callers check that nnz fits u32.
                    to[k] = slot as u32;
                }
                for (t, a) in t_vals.iter_mut().zip(mats) {
                    t[slot] = a.vals[k];
                }
            }
        }
        let row_ptr = Arc::new(t_ptr);
        let col_idx = Arc::new(t_idx);
        t_vals
            .into_iter()
            .map(|vals| Self {
                rows: first.cols,
                cols: first.rows,
                row_ptr: Arc::clone(&row_ptr),
                col_idx: Arc::clone(&col_idx),
                vals,
            })
            .collect()
    }

    /// Row pointers of the transpose: prefix sums of the column counts.
    fn transposed_row_ptr(&self) -> Vec<usize> {
        let mut t_ptr = vec![0usize; self.cols + 1];
        for &c in self.col_idx.iter() {
            t_ptr[c as usize + 1] += 1;
        }
        for j in 0..self.cols {
            t_ptr[j + 1] += t_ptr[j];
        }
        t_ptr
    }

    /// Per-row sums of stored values into `out` (length `rows`).
    pub fn row_sums_into(&self, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.rows);
        for i in 0..self.rows {
            out[i] = self.row_vals(i).iter().sum();
        }
    }

    /// Per-column sums of stored values into `out` (length `cols`).
    pub fn col_sums_into(&self, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.cols);
        out.fill(0.0);
        for (c, v) in self.col_idx.iter().zip(&self.vals) {
            out[*c as usize] += *v;
        }
    }

    /// Largest absolute difference of stored values against a same-pattern
    /// matrix.
    ///
    /// # Panics
    /// Debug-asserts the patterns match; on mismatched value lengths the zip
    /// silently truncates in release (callers hold the same-pattern
    /// invariant).
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        debug_assert!(self.same_pattern(other));
        self.vals
            .iter()
            .zip(&other.vals)
            .fold(0.0f64, |acc, (a, b)| acc.max((a - b).abs()))
    }
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.same_pattern(other) && self.vals == other.vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
            .unwrap()
    }

    #[test]
    fn triplets_round_trip_through_dense() {
        let a = small();
        assert_eq!(a.stored(), 4);
        let d = a.to_dense().unwrap();
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(d.get(1, 1), 0.0);
        assert_eq!(d.get(2, 1), 4.0);
        let b = CsrMatrix::from_dense_pruned(&d).unwrap();
        assert!(a.same_pattern(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn unsorted_triplets_are_normalized() {
        let a = CsrMatrix::from_triplets(2, 3, &[(1, 2, 5.0), (0, 1, 1.0), (1, 0, 3.0)]).unwrap();
        assert_eq!(a.row_cols(1), &[0, 2]);
        assert_eq!(a.row_vals(1), &[3.0, 5.0]);
    }

    #[test]
    fn duplicates_and_out_of_range_are_rejected() {
        let dup = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0)]);
        assert!(matches!(dup, Err(LinalgError::InvalidSparsity { .. })));
        let oob = CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]);
        assert!(matches!(oob, Err(LinalgError::InvalidSparsity { .. })));
    }

    #[test]
    fn from_parts_validates_structure() {
        let bad_ptr = CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(
            bad_ptr,
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let unsorted = CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(matches!(unsorted, Err(LinalgError::InvalidSparsity { .. })));
        let ok = CsrMatrix::from_parts(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 2.0]);
        assert!(ok.is_ok());
    }

    #[test]
    fn transpose_is_involutive_and_row_ordered() {
        let a = small();
        let t = a.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 2), 4.0);
        assert_eq!(t.get(2, 0), 2.0);
        // Transposed rows are ordered by original row index.
        assert_eq!(t.row_cols(0), &[0, 2]);
        let back = t.transposed();
        assert_eq!(back, a);
    }

    #[test]
    fn transpose_together_matches_transposed() {
        let a = small();
        let b = a
            .with_values(a.vals().iter().map(|v| 10.0 * v).collect())
            .unwrap();
        let (ts, to) = CsrMatrix::transpose_together(&[&a, &b]).unwrap();
        assert_eq!(ts[0], a.transposed());
        assert_eq!(ts[1], b.transposed());
        assert!(Arc::ptr_eq(&ts[0].col_idx, &ts[1].col_idx));
        for (k, &slot) in to.iter().enumerate() {
            assert_eq!(ts[0].vals()[slot as usize], a.vals()[k]);
        }
        let other = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(CsrMatrix::transpose_together(&[&a, &other]).is_none());
        assert!(CsrMatrix::transpose_together(&[]).is_none());
    }

    #[test]
    fn zeros_like_shares_the_pattern() {
        let a = small();
        let z = a.zeros_like();
        assert!(a.same_pattern(&z));
        assert!(z.vals().iter().all(|&v| v == 0.0));
        assert!(Arc::ptr_eq(&a.row_ptr, &z.row_ptr));
    }

    #[test]
    fn sums_cover_only_the_support() {
        let a = small();
        let mut rs = vec![0.0; 3];
        let mut cs = vec![0.0; 3];
        a.row_sums_into(&mut rs);
        a.col_sums_into(&mut cs);
        assert_eq!(rs, vec![3.0, 0.0, 7.0]);
        assert_eq!(cs, vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn full_pattern_matches_dense_layout() {
        let d = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]).unwrap();
        let full = CsrMatrix::from_dense_full(&d).unwrap();
        assert_eq!(full.stored(), 4);
        assert_eq!(full.vals(), d.as_slice());
        let pruned = CsrMatrix::from_dense_pruned(&d).unwrap();
        assert_eq!(pruned.stored(), 2);
    }

    #[test]
    fn get_reads_structural_zeros() {
        let a = small();
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.max_abs_diff(&a.zeros_like()), 4.0);
    }
}
