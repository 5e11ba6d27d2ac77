//! Symmetric dense matrices for the general quadratic objective.
//!
//! The general constrained matrix problem weights the entry deviations with
//! an `mn × mn` matrix `G` and the total deviations with `A` (`m × m`) and
//! `B` (`n × n`), all assumed strictly positive definite (paper §2). The
//! §5.1.1 experiments generate `G` symmetric and *strictly diagonally
//! dominant* with diagonal in `[500, 800]` and negative off-diagonal entries
//! allowed — [`SymMatrix`] stores such matrices in full row-major form (the
//! projection step needs whole-row access for mat-vec) and offers the checks
//! and accessors the diagonalization outer loop needs.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;

/// Symmetric dense matrix (full storage), the `A`/`B`/`G` weight matrices of
/// the general problem.
#[derive(Debug, Clone, PartialEq)]
pub struct SymMatrix {
    inner: DenseMatrix,
}

impl SymMatrix {
    /// Wrap a square matrix after verifying symmetry to within `tol`
    /// relative to the magnitude of the entries.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] or [`LinalgError::NotSymmetric`].
    pub fn from_dense(m: DenseMatrix, tol: f64) -> Result<Self, LinalgError> {
        if m.rows() != m.cols() {
            return Err(LinalgError::NotSquare {
                rows: m.rows(),
                cols: m.cols(),
            });
        }
        for i in 0..m.rows() {
            for j in (i + 1)..m.cols() {
                let a = m.get(i, j);
                let b = m.get(j, i);
                let scale = 1.0_f64.max(a.abs()).max(b.abs());
                if (a - b).abs() > tol * scale {
                    return Err(LinalgError::NotSymmetric { i, j });
                }
            }
        }
        Ok(Self { inner: m })
    }

    /// Wrap without checking (caller guarantees symmetry; generators use
    /// this).
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for rectangular input.
    pub fn from_dense_unchecked(m: DenseMatrix) -> Result<Self, LinalgError> {
        if m.rows() != m.cols() {
            return Err(LinalgError::NotSquare {
                rows: m.rows(),
                cols: m.cols(),
            });
        }
        Ok(Self { inner: m })
    }

    /// Diagonal matrix with the given diagonal.
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] for an empty diagonal.
    pub fn from_diagonal(diag: &[f64]) -> Result<Self, LinalgError> {
        let n = diag.len();
        let mut m = DenseMatrix::zeros(n, n)?;
        for (i, &v) in diag.iter().enumerate() {
            m.set(i, i, v);
        }
        Ok(Self { inner: m })
    }

    /// Order of the matrix.
    #[inline]
    pub fn order(&self) -> usize {
        self.inner.rows()
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.inner.get(i, j)
    }

    /// Copy of the diagonal, `diag(M)` — the fixed matrix of the projection
    /// step (eq. 79 uses `Ã = diag(A)`, `G̃ = diag(G)`, `B̃ = diag(B)`).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.order()).map(|i| self.inner.get(i, i)).collect()
    }

    /// `y = M·x`, serial.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        self.inner.matvec(x, y)
    }

    /// `y = M·x`, rayon-parallel over rows.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn matvec_parallel(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        self.inner.matvec_parallel(x, y)
    }

    /// Quadratic form `xᵀMx`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn quadratic_form(&self, x: &[f64]) -> Result<f64, LinalgError> {
        let mut y = vec![0.0; x.len()];
        self.matvec(x, &mut y)?;
        Ok(crate::vector::dot(x, &y))
    }

    /// True if strictly diagonally dominant: `|mᵢᵢ| > Σ_{j≠i} |mᵢⱼ|` for all
    /// `i`. This is the sufficient condition the paper's generator enforces
    /// for positive definiteness of `G`.
    pub fn is_strictly_diagonally_dominant(&self) -> bool {
        let n = self.order();
        for i in 0..n {
            let row = self.inner.row(i);
            let off: f64 = row
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, v)| v.abs())
                .sum();
            if row[i].abs() <= off {
                return false;
            }
        }
        true
    }

    /// True if every diagonal entry is strictly positive (necessary for
    /// positive definiteness, and required by the diagonalization step).
    pub fn has_positive_diagonal(&self) -> bool {
        (0..self.order()).all(|i| self.inner.get(i, i) > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym3() -> SymMatrix {
        let d = DenseMatrix::from_rows(&[
            vec![4.0, -1.0, 0.5],
            vec![-1.0, 5.0, -0.25],
            vec![0.5, -0.25, 6.0],
        ])
        .unwrap();
        SymMatrix::from_dense(d, 1e-12).unwrap()
    }

    #[test]
    fn symmetry_check_accepts_and_rejects() {
        let _ = sym3();
        let bad = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 1.0]]).unwrap();
        assert!(matches!(
            SymMatrix::from_dense(bad, 1e-12),
            Err(LinalgError::NotSymmetric { i: 0, j: 1 })
        ));
        let rect = DenseMatrix::zeros(2, 3).unwrap();
        assert!(matches!(
            SymMatrix::from_dense(rect, 1e-12),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn unchecked_constructor_still_requires_square() {
        let rect = DenseMatrix::zeros(2, 3).unwrap();
        assert!(matches!(
            SymMatrix::from_dense_unchecked(rect),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn diagonal_extraction() {
        let m = sym3();
        assert_eq!(m.diagonal(), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_diagonal_builds_diag() {
        let m = SymMatrix::from_diagonal(&[1.0, 2.0]).unwrap();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 1), 2.0);
    }

    #[test]
    fn quadratic_form_positive_for_dd_matrix() {
        let m = sym3();
        assert!(m.is_strictly_diagonally_dominant());
        assert!(m.has_positive_diagonal());
        let q = m.quadratic_form(&[1.0, -2.0, 0.5]).unwrap();
        assert!(q > 0.0);
    }

    #[test]
    fn dominance_check_detects_failure() {
        let d = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        let m = SymMatrix::from_dense(d, 1e-12).unwrap();
        assert!(!m.is_strictly_diagonally_dominant());
    }

    #[test]
    fn matvec_consistency() {
        let m = sym3();
        let x = [1.0, 2.0, 3.0];
        let mut y1 = [0.0; 3];
        let mut y2 = [0.0; 3];
        m.matvec(&x, &mut y1).unwrap();
        m.matvec_parallel(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);
        assert!((y1[0] - (4.0 - 2.0 + 1.5)).abs() < 1e-12);
    }
}
