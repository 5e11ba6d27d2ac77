//! Row-major dense `f64` matrices.
//!
//! [`DenseMatrix`] is the workhorse container of the workspace: priors `X⁰`,
//! per-entry weight tables `Γ`, and solver iterates all live here. The row
//! equilibration pass of SEA walks rows (contiguous); the column pass walks
//! columns, so [`transpose_into`] builds a cache-friendly transposed copy
//! once per solve instead of striding on every iteration.

use crate::error::LinalgError;
use rayon::prelude::*;

/// Row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of the given shape.
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty {
                context: "DenseMatrix::zeros",
            });
        }
        Ok(Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        })
    }

    /// Zero matrix of the given shape, with a *fallible* allocation.
    ///
    /// Unlike [`DenseMatrix::zeros`], an allocator refusal surfaces as
    /// [`LinalgError::Allocation`] instead of aborting the process, so
    /// large-instance tooling can prove "this does not fit densely" and
    /// keep running. Overflowing `rows * cols` is reported the same way.
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] for zero dimensions and
    /// [`LinalgError::Allocation`] when the buffer cannot be allocated.
    pub fn try_zeros(rows: usize, cols: usize) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty {
                context: "DenseMatrix::try_zeros",
            });
        }
        let len = rows.checked_mul(cols).ok_or(LinalgError::Allocation {
            context: "DenseMatrix::try_zeros",
            bytes: usize::MAX,
        })?;
        let mut data = Vec::new();
        data.try_reserve_exact(len)
            .map_err(|_| LinalgError::Allocation {
                context: "DenseMatrix::try_zeros",
                bytes: len.saturating_mul(std::mem::size_of::<f64>()),
            })?;
        data.resize(len, 0.0);
        Ok(Self { rows, cols, data })
    }

    /// Constant-filled matrix.
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] if either dimension is zero.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Result<Self, LinalgError> {
        let mut m = Self::zeros(rows, cols)?;
        m.data.fill(value);
        Ok(m)
    }

    /// Build from a row-major data vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows*cols`
    /// and [`LinalgError::Empty`] for zero dimensions.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty {
                context: "DenseMatrix::from_vec",
            });
        }
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                context: "DenseMatrix::from_vec",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Build from nested row slices (mostly for tests and small examples).
    ///
    /// # Errors
    /// Returns an error for empty input or ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::Empty {
                context: "DenseMatrix::from_rows",
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    context: "DenseMatrix::from_rows",
                    expected: cols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
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

    /// Total number of entries `m·n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: zero-dimension matrices cannot be constructed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Set entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole backing store, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole backing store, mutable, row-major.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the backing store.
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterator over row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Parallel iterator over row slices.
    pub fn par_row_iter(&self) -> impl IndexedParallelIterator<Item = &[f64]> {
        self.data.par_chunks_exact(self.cols)
    }

    /// Freshly allocated transposed copy (column pass cache locality),
    /// built serially by [`transpose_into`].
    pub fn transposed(&self) -> DenseMatrix {
        let mut t = vec![0.0; self.data.len()];
        transpose_into(&self.data, self.rows, self.cols, &mut t, false);
        DenseMatrix {
            rows: self.cols,
            cols: self.rows,
            data: t,
        }
    }

    /// Row sums `sᵢ = Σⱼ xᵢⱼ`.
    pub fn row_sums(&self) -> Vec<f64> {
        self.row_iter().map(|r| r.iter().sum()).collect()
    }

    /// Column sums `dⱼ = Σᵢ xᵢⱼ`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.col_sums_into(&mut out);
        out
    }

    /// Column sums written into a caller-provided buffer (allocation-free;
    /// the solver's convergence check runs this every iteration).
    ///
    /// # Panics
    /// If `out.len() != self.cols()`.
    pub fn col_sums_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "col_sums_into buffer length");
        out.fill(0.0);
        for r in self.row_iter() {
            for (o, v) in out.iter_mut().zip(r) {
                *o += v;
            }
        }
    }

    /// Sum of every entry.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Number of nonzero entries.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of nonzero entries in `[0, 1]`.
    pub fn density(&self) -> f64 {
        self.count_nonzero() as f64 / self.len() as f64
    }

    /// Largest absolute entry difference against `other`.
    ///
    /// # Panics
    /// Panics in debug builds on shape mismatch.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        debug_assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        crate::vector::max_abs_diff(&self.data, &other.data)
    }

    /// Matrix–vector product `y = self · x` (serial).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "DenseMatrix::matvec (x)",
                expected: self.cols,
                actual: x.len(),
            });
        }
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "DenseMatrix::matvec (y)",
                expected: self.rows,
                actual: y.len(),
            });
        }
        for (yi, row) in y.iter_mut().zip(self.row_iter()) {
            *yi = crate::vector::dot(row, x);
        }
        Ok(())
    }

    /// Matrix–vector product with rayon parallelism over rows.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn matvec_parallel(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "DenseMatrix::matvec_parallel (x)",
                expected: self.cols,
                actual: x.len(),
            });
        }
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "DenseMatrix::matvec_parallel (y)",
                expected: self.rows,
                actual: y.len(),
            });
        }
        y.par_iter_mut()
            .zip(self.par_row_iter())
            .for_each(|(yi, row)| *yi = crate::vector::dot(row, x));
        Ok(())
    }

    /// Apply a function to every entry in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

/// Destination rows per strip of [`transpose_into`]: eight `f64` fill one
/// 64-byte cache line, so a strip reads one line of each source row.
const STRIP: usize = 8;

/// Entries below which a `parallel` [`transpose_into`] still runs on the
/// calling thread: a parallel drive hands chunks to the pool's workers and
/// waits for all of them (spawning them first, on an install's first drive
/// that fans out), which costs more than copying a matrix this small
/// (128 KiB of `f64`).
pub const PARALLEL_MIN_ENTRIES: usize = 1 << 14;

/// Write the transpose of the row-major `rows × cols` matrix `src` into
/// `dst` (row-major `cols × rows`).
///
/// Destination rows are written in strips of eight: a strip walks the
/// source rows in order, reading one cache line from each and appending
/// one entry to each of its eight destination rows. With `parallel`, and
/// at least [`PARALLEL_MIN_ENTRIES`] entries, the strips are spread over
/// the current rayon pool; otherwise they run in order on the calling
/// thread, which never fans out (outside a pool the rayon width is the
/// machine's, so the choice must not be left to it). Every entry is
/// copied exactly once either way, so the result does not depend on
/// `parallel`.
///
/// # Panics
/// If `src` or `dst` does not hold `rows * cols` entries.
pub fn transpose_into<T: Clone + Send + Sync>(
    src: &[T],
    rows: usize,
    cols: usize,
    dst: &mut [T],
    parallel: bool,
) {
    assert_eq!(src.len(), rows * cols, "transpose_into source length");
    assert_eq!(dst.len(), src.len(), "transpose_into destination length");
    if dst.is_empty() {
        return;
    }
    let strip = |(s, out): (usize, &mut [T])| {
        let j0 = s * STRIP;
        let width = out.len() / rows;
        for (i, row) in src.chunks_exact(cols).enumerate() {
            for (k, v) in row[j0..j0 + width].iter().enumerate() {
                out[k * rows + i] = v.clone();
            }
        }
    };
    // Full strips first; the last `cols % STRIP` destination rows form a
    // narrower one.
    let full = cols / STRIP;
    let (head, tail) = dst.split_at_mut(full * STRIP * rows);
    if parallel && src.len() >= PARALLEL_MIN_ENTRIES {
        head.par_chunks_exact_mut(STRIP * rows)
            .enumerate()
            .for_each(strip);
    } else {
        head.chunks_exact_mut(STRIP * rows)
            .enumerate()
            .for_each(strip);
    }
    if !tail.is_empty() {
        strip((full, tail));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.len(), 6);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            DenseMatrix::zeros(0, 3),
            Err(LinalgError::Empty { .. })
        ));
        assert!(matches!(
            DenseMatrix::from_vec(2, 2, vec![1.0; 3]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn try_zeros_refuses_an_unallocatable_buffer_with_a_typed_error() {
        // 2⁶² cells: `rows * cols` fits in a usize, its byte size does
        // not, so the reservation fails and the reported size saturates.
        let side = 1usize << 31;
        assert!(matches!(
            DenseMatrix::try_zeros(side, side),
            Err(LinalgError::Allocation {
                bytes: usize::MAX,
                ..
            })
        ));
        assert!(matches!(
            DenseMatrix::try_zeros(usize::MAX, 2),
            Err(LinalgError::Allocation { .. })
        ));
    }

    #[test]
    fn sums_and_stats() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![6.0, 15.0]);
        assert_eq!(m.col_sums(), vec![5.0, 7.0, 9.0]);
        assert_eq!(m.total(), 21.0);
        assert_eq!(m.count_nonzero(), 6);
        assert!((m.density() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn transpose_large_with_a_partial_strip() {
        // A column count that is not a multiple of the strip width.
        let rows = 67;
        let cols = 45;
        let data: Vec<f64> = (0..rows * cols).map(|k| k as f64).collect();
        let m = DenseMatrix::from_vec(rows, cols, data).unwrap();
        let t = m.transposed();
        for i in 0..rows {
            for j in 0..cols {
                assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn matvec_serial_and_parallel_agree() {
        let m = sample();
        let x = [1.0, 0.5, -1.0];
        let mut y1 = [0.0; 2];
        let mut y2 = [0.0; 2];
        m.matvec(&x, &mut y1).unwrap();
        m.matvec_parallel(&x, &mut y2).unwrap();
        assert_eq!(y1, [-1.0, 0.5]);
        assert_eq!(y1, y2);
    }

    #[test]
    fn matvec_shape_errors() {
        let m = sample();
        let mut y = [0.0; 2];
        assert!(m.matvec(&[1.0, 2.0], &mut y).is_err());
        let mut bad_y = [0.0; 3];
        assert!(m.matvec(&[1.0, 2.0, 3.0], &mut bad_y).is_err());
        assert!(m.matvec_parallel(&[1.0], &mut y).is_err());
    }

    #[test]
    fn map_inplace_applies() {
        let mut m = sample();
        m.map_inplace(|v| v * 2.0);
        assert_eq!(m.get(1, 1), 10.0);
    }
}
