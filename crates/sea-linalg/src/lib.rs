//! Dense linear-algebra and sorting substrate for the SEA constrained-matrix
//! workspace.
//!
//! The Nagurney–Eydeland splitting equilibration algorithm works on dense
//! `m × n` prior matrices and, for the *general* problem class, on dense
//! symmetric weight matrices of order `m·n`. This crate provides exactly the
//! kernels those solvers need, nothing more:
//!
//! * [`DenseMatrix`] — row-major dense `f64` matrix with parallel mat-vec,
//!   used for priors `X⁰`, per-entry weights `Γ`, and iterates `X`.
//! * [`CsrMatrix`] — compressed sparse row matrix with an `Arc`-shared
//!   pattern, used by the sparse storage backend of `sea-core` so that
//!   per-row/per-column subproblems run over the support only.
//! * [`SymMatrix`] — symmetric dense matrix (full storage) with a symmetric
//!   mat-vec, used for the `A`, `B`, and `G` weight matrices of the general
//!   quadratic objective, plus generators for strictly diagonally dominant
//!   instances as used in the paper's §5.1.1 experiments.
//! * [`sort`] — the two sorting routines the paper's FORTRAN implementation
//!   used for exact equilibration (HEAPSORT for long arrays, STRAIGHT
//!   INSERTION for short ones), exposed as argsort kernels.
//! * [`vector`] — small BLAS-1 style helpers (norms, axpy, dot).
//! * [`stats`] — summary statistics used by generators and reports.

// Numeric-kernel idioms: indexed loops over multiple parallel arrays are
// clearer than zipped iterator chains in the equilibration math, and
// `!(w > 0.0)` deliberately treats NaN as invalid (a positive-weight check
// that `w <= 0.0` would pass NaN through).
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod csr;
pub mod dense;
pub mod error;
pub mod sort;
pub mod stats;
pub mod sym;
pub mod vector;

pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use sym::SymMatrix;
