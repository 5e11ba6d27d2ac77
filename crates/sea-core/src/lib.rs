//! # sea-core — the Splitting Equilibration Algorithm
//!
//! Implementation of Nagurney & Eydeland (1990): quadratic constrained
//! matrix problems and the splitting equilibration algorithm (SEA) that
//! solves them by alternating parallel row/column *exact equilibrations* on
//! the dual.
//!
//! ## Layout
//!
//! * [`problem`] — [`DiagonalProblem`] with the three total specifications
//!   ([`TotalSpec::Fixed`], [`TotalSpec::Elastic`], [`TotalSpec::Balanced`])
//!   and structural-zero support.
//! * [`weights`] — [`WeightScheme`]: least-squares, chi-square,
//!   inverse-sqrt.
//! * [`knapsack`] — the exact-equilibration kernel (closed-form
//!   single-constraint QP via breakpoint sort), plus a box-bounded variant.
//! * [`equilibrate`] — row/column equilibration passes (serial and
//!   parallel) that fan the kernel out over a matrix.
//! * [`solver`] — [`solve_diagonal_supervised`]: the diagonal SEA driver
//!   (§3.1), the one iteration loop every diagonal problem class runs.
//! * [`storage`] — the [`Storage`] abstraction every driver is generic
//!   over: row-major dense (`DenseMatrix`) and CSR support-only
//!   (`CsrMatrix`) problem storage with bitwise-identical solves.
//! * [`error`] — [`SeaError`], the typed failure vocabulary (no panics in
//!   library code).
//! * [`general`] — [`GeneralProblem`] and [`solve_general_supervised`]:
//!   the projection/diagonalization outer loop for dense `A`, `B`, `G`
//!   (§3.2).
//! * [`dual`] — `ζ₁/ζ₂/ζ₃`, gradients, weak duality.
//! * [`theory`] — curvature and iteration bounds (eq. 58–64, 77).
//! * [`components`] — support-graph components and the Modified Algorithm.
//! * [`parallel`] — execution control: serial or Rayon fan-out of the
//!   equilibration passes.
//! * [`interval`] — interval/box-constrained extension (Harrigan–Buchanan,
//!   Ohuchi–Kaji): [`BoundedProblem`] and [`solve_bounded_supervised`],
//!   the diagonal driver with box-bounded subproblems.
//! * Events — every solver streams typed lifecycle events (the
//!   `sea-observe` schema, re-exported here) to the [`Observer`] sink its
//!   `*_supervised` entry point takes. Their `PhaseEnd` events, with
//!   per-task costs, are the one record of a solve's phases for the
//!   scheduling simulator.
//! * [`verify`] — first-principles KKT/duality verification of computed
//!   solutions.
//! * [`supervisor`] — fault-tolerant solve supervision, which every solve
//!   runs under: budgets, cancellation, breakdown/stagnation watchdogs,
//!   crash-safe checkpoints, kernel fallback, and a deterministic
//!   fault-injection plan.
//!
//! ## Example
//!
//! ```
//! use sea_core::{
//!     solve_diagonal_supervised, DiagonalProblem, NullObserver, SeaOptions, StopReason,
//!     SupervisorOptions, TotalSpec, WeightScheme,
//! };
//! use sea_linalg::DenseMatrix;
//!
//! let x0 = DenseMatrix::from_rows(&[vec![10.0, 5.0], vec![5.0, 10.0]]).unwrap();
//! let gamma = WeightScheme::ChiSquare.entry_weights(&x0).unwrap();
//! let p = DiagonalProblem::new(
//!     x0,
//!     gamma,
//!     TotalSpec::Fixed { s0: vec![18.0, 18.0], d0: vec![18.0, 18.0] },
//! ).unwrap();
//! let opts = SeaOptions::with_epsilon(1e-10);
//! let out = solve_diagonal_supervised(&p, &opts, &SupervisorOptions::default(), &mut NullObserver)
//!     .unwrap();
//! assert_eq!(out.stop, StopReason::Converged);
//! assert!(out.solution.stats.residuals.row_inf < 1e-6);
//! ```

// Numeric-kernel idioms: indexed loops over multiple parallel arrays are
// clearer than zipped iterator chains in the equilibration math, and
// `!(w > 0.0)` deliberately treats NaN as invalid (a positive-weight check
// that `w <= 0.0` would pass NaN through).
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Robustness contract: library code must surface failures as `SeaError`,
// never panic. The few justified sites carry an explicit `#[allow]` with a
// proof comment; tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod anderson;
pub mod components;
pub mod dual;
pub mod equilibrate;
pub mod error;
pub mod general;
pub mod interval;
pub mod knapsack;
pub mod parallel;
mod phase;
pub mod problem;
pub mod solver;
pub mod storage;
pub mod supervisor;
pub mod theory;
mod tiles;
pub mod verify;
pub mod weights;

pub use equilibrate::PassCounters;
pub use error::SeaError;
pub use general::{
    solve_general_supervised, GeneralProblem, GeneralSeaOptions, GeneralSolution, GeneralTotalSpec,
};
pub use interval::{
    solve_bounded_supervised, solve_bounded_supervised_configured, BoundedOptions, BoundedProblem,
};
pub use knapsack::{
    exact_equilibration, EquilibrationResult, EquilibrationScratch, KernelKind, TotalMode,
};
pub use parallel::Parallelism;
pub use problem::{DiagonalProblem, Residuals, TotalSpec, ZeroPolicy};
pub use solver::{
    solve_diagonal_supervised, ConvergenceCriterion, SeaOptions, Solution, SolveStats,
};
pub use storage::Storage;
pub use supervisor::{
    CancelToken, Checkpoint, CheckpointPolicy, ExtrapolationHistory, FaultKind, FaultPlan,
    SolveBudget, StagnationPolicy, StopReason, SupervisedBoundedSolution,
    SupervisedGeneralSolution, SupervisedSolution, SupervisorOptions,
};
pub use verify::{verify_solution, GapCheck, KktReport};
pub use weights::WeightScheme;

// Re-export the event vocabulary so downstream crates don't need a direct
// sea-observe dependency for the common cases.
pub use sea_observe::{
    Event, KernelCounters, NullObserver, Observer, PhaseLabel, SpanKind, SpanProfiler, SpanRecord,
    TelemetrySample, VecObserver,
};
