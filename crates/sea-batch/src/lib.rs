//! # sea-batch — batched multi-instance SEA solving
//!
//! Real constrained-matrix workloads rarely arrive one problem at a time:
//! an estimation pipeline re-balances many related matrices (regions,
//! sectors, time steps) every cycle, and consecutive cycles differ only by
//! drifting priors. This crate schedules such workloads over the
//! supervised sea-core drivers with two batch-level mechanisms:
//!
//! * **Shared thread budget** — [`BatchParallelism`] places the rayon
//!   threads either *across* instances (many small problems) or *inside*
//!   each solve's row/column equilibrations (few large problems).
//! * **Warm-start dual cache** — [`WarmStartCache`] keeps the last
//!   converged multipliers `(λ, μ)` per problem *family* and seeds the
//!   next solve of that family with them. The row pass recomputes `λ`
//!   from `μ`, so `μ` alone is a complete warm start; the cached `λ`
//!   hints the first row pass's kernel, as a resumed checkpoint's does.
//!   Hit/miss and kernel-work-saved are reported per instance and per
//!   batch through `sea-observe` events.
//!
//! Results are bitwise deterministic across every parallelism policy and
//! any submission order: instance solves are parallelism-invariant, the
//! cache is a read-only snapshot during a batch, and buffered event
//! streams are replayed in submission order.
//!
//! # Example
//!
//! Two batches of the same family through one engine: the second is
//! seeded from the first's converged duals and reports a cache hit.
//!
//! ```
//! use sea_batch::{BatchEngine, BatchInstance, BatchOptions, BatchProblem, WarmStart};
//! use sea_core::{DiagonalProblem, NullObserver, TotalSpec, WeightScheme};
//! use sea_linalg::DenseMatrix;
//!
//! let make = |scale: f64| -> Result<BatchInstance, sea_core::SeaError> {
//!     let x0 = DenseMatrix::from_rows(&[vec![10.0, 5.0], vec![5.0, 10.0]])?;
//!     let gamma = WeightScheme::ChiSquare.entry_weights(&x0)?;
//!     let totals = TotalSpec::Fixed {
//!         s0: vec![18.0 * scale, 18.0 * scale],
//!         d0: vec![18.0 * scale, 18.0 * scale],
//!     };
//!     Ok(BatchInstance {
//!         id: format!("q-{scale}"),
//!         family: Some("trade".to_string()),
//!         problem: BatchProblem::Diagonal(DiagonalProblem::new(x0, gamma, totals)?),
//!     })
//! };
//!
//! let mut engine = BatchEngine::new(BatchOptions::default());
//! let cold = engine.solve_batch(&[make(1.0)?], &mut NullObserver);
//! assert_eq!(cold.items[0].warm_start, WarmStart::Miss);
//!
//! // Next cycle, same family with drifted totals: warm-started.
//! let warm = engine.solve_batch(&[make(1.05)?], &mut NullObserver);
//! assert_eq!(warm.items[0].warm_start, WarmStart::Hit);
//! assert!(warm.items[0].outcome.as_ref().is_ok_and(|s| s.converged()));
//! # Ok::<(), sea_core::SeaError>(())
//! ```

// Robustness contract matching sea-core: library code surfaces failures as
// `SeaError` or reports, never panics. Justified sites carry an explicit
// `#[allow]` with a proof comment; tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod engine;

pub use cache::{CacheEntry, CacheUpdate, WarmStartCache};
pub use engine::{
    solve_instance, BatchEngine, BatchInstance, BatchItemReport, BatchOptions, BatchParallelism,
    BatchProblem, BatchReport, BatchSolution, WarmStart,
};
