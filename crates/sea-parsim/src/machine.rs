//! The simulated machine: identical processors with task-dispatch and
//! fork/join overheads.

/// A shared-memory machine of `processors` identical CPUs, in the spirit of
/// the IBM 3090-600E the paper ran on (up to 6 CPUs, Parallel FORTRAN task
/// allocation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Number of identical processors (`N` in the speedup tables).
    pub processors: usize,
    /// Fixed cost, in seconds, of dispatching one task to a processor.
    pub dispatch_overhead: f64,
    /// Fixed cost, in seconds, of forking and joining one parallel phase.
    pub fork_join_overhead: f64,
    /// Effective parallelism cap for **memory-bound** phases (dense
    /// mat-vecs): on a shared-memory machine the memory system saturates
    /// before the CPUs do, so such phases scale only to
    /// `min(processors, memory_parallelism)`. The 3090's interleaved
    /// memory sustained roughly three concurrent streams.
    pub memory_parallelism: usize,
}

impl MachineModel {
    /// Default per-task dispatch overhead (seconds): a modern
    /// work-stealing-pool dequeue (~200 ns). The simulated machine is "N
    /// copies of the processor the tasks were measured on", so modern
    /// overheads are the consistent choice; the paper's Parallel FORTRAN
    /// dispatch was far costlier in absolute terms but its tasks were
    /// milliseconds, giving a similar overhead-to-task ratio.
    pub const DEFAULT_DISPATCH_OVERHEAD: f64 = 2e-7;
    /// Default per-phase fork/join overhead (seconds).
    pub const DEFAULT_FORK_JOIN_OVERHEAD: f64 = 5e-6;
    /// Default memory-parallelism cap (the 3090-style three-stream memory
    /// system; see `memory_parallelism`).
    pub const DEFAULT_MEMORY_PARALLELISM: usize = 3;

    /// Machine with `processors` CPUs and default overheads.
    pub fn new(processors: usize) -> Self {
        Self {
            processors: processors.max(1),
            dispatch_overhead: Self::DEFAULT_DISPATCH_OVERHEAD,
            fork_join_overhead: Self::DEFAULT_FORK_JOIN_OVERHEAD,
            memory_parallelism: Self::DEFAULT_MEMORY_PARALLELISM,
        }
    }

    /// Machine with explicit overheads.
    pub fn with_overheads(
        processors: usize,
        dispatch_overhead: f64,
        fork_join_overhead: f64,
    ) -> Self {
        Self {
            processors: processors.max(1),
            dispatch_overhead: dispatch_overhead.max(0.0),
            fork_join_overhead: fork_join_overhead.max(0.0),
            memory_parallelism: Self::DEFAULT_MEMORY_PARALLELISM,
        }
    }

    /// An idealized machine: no overheads at all (pure Amdahl behaviour).
    pub fn ideal(processors: usize) -> Self {
        Self::with_overheads(processors, 0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_clamp_and_default() {
        let m = MachineModel::new(0);
        assert_eq!(m.processors, 1);
        assert!(m.dispatch_overhead > 0.0);

        let m = MachineModel::with_overheads(4, -1.0, -2.0);
        assert_eq!(m.processors, 4);
        assert_eq!(m.dispatch_overhead, 0.0);
        assert_eq!(m.fork_join_overhead, 0.0);

        let m = MachineModel::ideal(6);
        assert_eq!(m.processors, 6);
        assert_eq!(m.fork_join_overhead, 0.0);
    }
}
