//! BLAS-1 style vector helpers used throughout the SEA solvers.
//!
//! All functions are plain safe Rust over slices; the hot equilibration
//! loops in `sea-core` inline these.

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics in debug builds if the slices differ in length.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y ← y + alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Infinity norm `‖x‖∞` (0.0 for an empty slice).
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// Sum of the elements.
#[inline]
pub fn sum(x: &[f64]) -> f64 {
    x.iter().sum()
}

/// Largest absolute componentwise difference `‖x − y‖∞`.
#[inline]
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
}

/// Scale in place: `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// True if every component is finite (no NaN/±∞).
#[inline]
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// True if every component is strictly positive.
#[inline]
pub fn all_positive(x: &[f64]) -> bool {
    x.iter().all(|v| *v > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [3.0, 4.0];
        let y = [1.0, 2.0];
        assert_eq!(dot(&x, &y), 11.0);
        assert_eq!(norm_inf(&[-6.0, 2.0]), 6.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 14.0, 16.0]);
    }

    #[test]
    fn sum_and_diff() {
        assert_eq!(sum(&[1.0, 2.0, 3.5]), 6.5);
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[2.0, 4.5]), 1.0);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(3.0, &mut x);
        assert_eq!(x, [3.0, -6.0]);
    }

    #[test]
    fn finiteness_and_positivity() {
        assert!(all_finite(&[0.0, 1.0, -3.0]));
        assert!(!all_finite(&[0.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
        assert!(all_positive(&[0.1, 2.0]));
        assert!(!all_positive(&[0.0, 2.0]));
    }
}
