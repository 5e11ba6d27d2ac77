//! # sea — the Splitting Equilibration Algorithm workspace facade
//!
//! A production-quality Rust reproduction of
//!
//! > A. Nagurney and A. Eydeland, *"A Splitting Equilibration Algorithm for
//! > the Computation of Large-Scale Constrained Matrix Problems: Theoretical
//! > Analysis and Applications"*, OR 223-90, July 1990 (Supercomputing '90).
//!
//! The *constrained matrix problem* estimates a nonnegative matrix `X`
//! closest to a prior `X⁰` under row/column total constraints — the core
//! computation behind input/output table updating, social accounting matrix
//! (SAM) balancing, migration-flow projection, and spatial price
//! equilibrium. The **splitting equilibration algorithm (SEA)** solves the
//! entire class by dual block-coordinate ascent whose row and column
//! subproblems decompose into independent closed-form "exact equilibration"
//! solves — embarrassingly parallel across rows/columns.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] ([`sea_core`]) — problems, weight schemes, the exact
//!   equilibration kernel, diagonal SEA (unknown-totals / SAM / fixed-totals
//!   variants), general SEA via projection, dual theory.
//! * [`baselines`] ([`sea_baselines`]) — the RC equilibration algorithm,
//!   Bachem–Korte, and RAS/IPF comparators.
//! * [`spatial`] ([`sea_spatial`]) — spatial price equilibrium and its
//!   isomorphism with elastic constrained matrix problems.
//! * [`data`] ([`sea_data`]) — synthetic dataset generators matching every
//!   dataset family the paper evaluates on.
//! * [`parsim`] ([`sea_parsim`]) — a deterministic multiprocessor scheduling
//!   simulator used to reproduce the paper's speedup studies.
//! * [`linalg`] ([`sea_linalg`]) and [`report`] ([`sea_report`]) —
//!   substrates.
//!
//! ## Quickstart
//!
//! ```
//! use sea::core::{
//!     solve_diagonal_supervised, DiagonalProblem, NullObserver, SeaOptions, StopReason,
//!     SupervisorOptions, TotalSpec, WeightScheme,
//! };
//! use sea::linalg::DenseMatrix;
//!
//! // A 2x2 prior whose row/column totals must double.
//! let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! let gamma = WeightScheme::ChiSquare.entry_weights(&x0).unwrap();
//! let problem = DiagonalProblem::new(
//!     x0,
//!     gamma,
//!     TotalSpec::Fixed { s0: vec![6.0, 14.0], d0: vec![8.0, 12.0] },
//! )
//! .unwrap();
//! let sup = SupervisorOptions::default();
//! let out = solve_diagonal_supervised(&problem, &SeaOptions::default(), &sup, &mut NullObserver)
//!     .unwrap();
//! assert_eq!(out.stop, StopReason::Converged);
//! let sums = out.solution.x.row_sums();
//! assert!((sums[0] - 6.0).abs() < 1e-6 && (sums[1] - 14.0).abs() < 1e-6);
//! ```

pub use sea_baselines as baselines;
pub use sea_core as core;
pub use sea_data as data;
pub use sea_linalg as linalg;
pub use sea_parsim as parsim;
pub use sea_report as report;
pub use sea_spatial as spatial;
