//! Parallel execution control.
//!
//! SEA's row and column equilibration phases are embarrassingly parallel
//! (each subproblem is independent and solved in closed form); the paper
//! allocates them to distinct processors via Parallel FORTRAN. Here the
//! fan-out uses rayon, on a pool as wide as the machine or of a requested
//! width (the speedup experiments sweep 1, 2, 4, 6 workers), installed
//! once per solve so that every pass of the solve reuses its workers. That
//! holds for every problem class: a general solve's projection mat-vecs
//! and all of its inner diagonal solves run in its one install.

/// How the solver should fan out its independent subproblems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Plain sequential loops — the serial implementation of §4.1.
    #[default]
    Serial,
    /// Rayon on a pool as wide as the machine.
    Rayon,
    /// Rayon on a dedicated pool of exactly this many threads (the
    /// "N CPUs" of the speedup tables).
    RayonThreads(usize),
}

impl Parallelism {
    /// True for any rayon variant.
    pub fn is_parallel(self) -> bool {
        !matches!(self, Parallelism::Serial)
    }

    /// Stable label for event logs and metrics (`"serial"`, `"rayon"`,
    /// `"rayon:4"`).
    pub fn label(self) -> String {
        match self {
            Parallelism::Serial => "serial".to_string(),
            Parallelism::Rayon => "rayon".to_string(),
            Parallelism::RayonThreads(k) => format!("rayon:{k}"),
        }
    }

    /// Run `f` in the appropriate execution context. The rayon variants
    /// build a pool (the machine's width for [`Parallelism::Rayon`]) and
    /// install it for the duration of `f`: every parallel drive inside
    /// reuses the install's workers, which are spawned on the first drive
    /// that fans out and joined before this returns.
    // Allowed: pool construction only fails on unsatisfiable resource
    // limits; there is no meaningful recovery short of aborting the solve.
    #[allow(clippy::expect_used)]
    pub fn run<R: Send>(self, f: impl FnOnce() -> R + Send) -> R {
        let width = match self {
            Parallelism::Serial => return f(),
            // Zero asks the builder for the machine's width.
            Parallelism::Rayon => 0,
            Parallelism::RayonThreads(k) => k.max(1),
        };
        rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("failed to build rayon pool")
            .install(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn serial_runs_inline() {
        assert!(!Parallelism::Serial.is_parallel());
        assert_eq!(Parallelism::Serial.run(|| 2 + 2), 4);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Parallelism::Serial.label(), "serial");
        assert_eq!(Parallelism::Rayon.label(), "rayon");
        assert_eq!(Parallelism::RayonThreads(6).label(), "rayon:6");
    }

    #[test]
    fn dedicated_pool_has_requested_width() {
        assert!(Parallelism::RayonThreads(3).is_parallel());
        let width = Parallelism::RayonThreads(3).run(rayon::current_num_threads);
        assert_eq!(width, 3);
    }

    #[test]
    fn rayon_variant_executes_parallel_iterators() {
        let sum: i64 = Parallelism::Rayon.run(|| (0..1000i64).into_par_iter().sum());
        assert_eq!(sum, 499_500);
    }

    #[test]
    fn zero_thread_request_is_clamped_to_one() {
        let width = Parallelism::RayonThreads(0).run(rayon::current_num_threads);
        assert_eq!(width, 1);
    }
}
