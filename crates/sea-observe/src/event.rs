//! Typed solver events.
//!
//! The event taxonomy mirrors the paper's decomposition of a SEA solve:
//! alternating row/column equilibration *phases* (parallel across
//! subproblems), a *serial* convergence check every `check_every`
//! iterations, and — for the general constrained matrix problem — an outer
//! diagonalization loop around projections. One event per lifecycle
//! transition keeps logs small enough to record every solve while still
//! reconstructing the full per-phase timing breakdown offline.

/// Which solver phase an event (or an execution-trace phase) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseLabel {
    /// Row equilibration: one knapsack subproblem per row, parallel.
    RowEquilibration,
    /// Column equilibration: one knapsack subproblem per column, parallel.
    ColumnEquilibration,
    /// Convergence check: inherently serial in the paper's decomposition.
    ConvergenceCheck,
    /// Projection step of the general (diagonalized) algorithm.
    Projection,
}

impl PhaseLabel {
    /// All labels, in a fixed order (used by metrics and tests).
    pub const ALL: [PhaseLabel; 4] = [
        PhaseLabel::RowEquilibration,
        PhaseLabel::ColumnEquilibration,
        PhaseLabel::ConvergenceCheck,
        PhaseLabel::Projection,
    ];

    /// Stable wire name (`snake_case`).
    pub fn name(self) -> &'static str {
        match self {
            PhaseLabel::RowEquilibration => "row_equilibration",
            PhaseLabel::ColumnEquilibration => "column_equilibration",
            PhaseLabel::ConvergenceCheck => "convergence_check",
            PhaseLabel::Projection => "projection",
        }
    }

    /// Inverse of [`PhaseLabel::name`].
    pub fn parse(s: &str) -> Option<PhaseLabel> {
        PhaseLabel::ALL.into_iter().find(|l| l.name() == s)
    }

    /// Whether the phase is parallel across tasks (rows/columns/chunks).
    pub fn is_parallel(self) -> bool {
        !matches!(self, PhaseLabel::ConvergenceCheck)
    }
}

/// Cumulative kernel-level work counters for one solve.
///
/// These count the arithmetic work *inside* the equilibration kernels, the
/// quantity the paper's per-iteration cost model is written in terms of.
/// All fields are cumulative since `SolveStart`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Knapsack subproblems solved (one per row or column per pass).
    pub subproblems: u64,
    /// Breakpoint segments swept by the sort-scan kernel.
    pub breakpoints_scanned: u64,
    /// Partition rounds performed by the quickselect kernel. A warm-start
    /// check of the previous multiplier's segment (plain or boxed), hit or
    /// miss, is one pass over the events and counts as one round.
    pub quickselect_pivots: u64,
    /// Entries clamped at a box bound by the boxed (interval) kernels.
    pub boxed_clamps: u64,
}

impl KernelCounters {
    /// Field-wise sum.
    pub fn merged(self, other: KernelCounters) -> KernelCounters {
        KernelCounters {
            subproblems: self.subproblems + other.subproblems,
            breakpoints_scanned: self.breakpoints_scanned + other.breakpoints_scanned,
            quickselect_pivots: self.quickselect_pivots + other.quickselect_pivots,
            boxed_clamps: self.boxed_clamps + other.boxed_clamps,
        }
    }

    /// True when every counter is zero.
    pub fn is_empty(self) -> bool {
        self == KernelCounters::default()
    }

    /// Field-wise saturating difference (`self − earlier`): the work done
    /// between two cumulative snapshots. Saturates at zero so a stale
    /// snapshot never underflows.
    pub fn delta_from(self, earlier: KernelCounters) -> KernelCounters {
        KernelCounters {
            subproblems: self.subproblems.saturating_sub(earlier.subproblems),
            breakpoints_scanned: self
                .breakpoints_scanned
                .saturating_sub(earlier.breakpoints_scanned),
            quickselect_pivots: self
                .quickselect_pivots
                .saturating_sub(earlier.quickselect_pivots),
            boxed_clamps: self.boxed_clamps.saturating_sub(earlier.boxed_clamps),
        }
    }

    /// True when every field of `self` is ≥ the matching field of
    /// `other` — the partial order span well-formedness is stated in
    /// (child counter sums never exceed their parent's).
    pub fn dominates(self, other: KernelCounters) -> bool {
        self.subproblems >= other.subproblems
            && self.breakpoints_scanned >= other.breakpoints_scanned
            && self.quickselect_pivots >= other.quickselect_pivots
            && self.boxed_clamps >= other.boxed_clamps
    }

    /// Total kernel work: breakpoints + pivots + clamps (the quantity the
    /// batch engine reports as `kernel_work`).
    pub fn work(self) -> u64 {
        self.breakpoints_scanned + self.quickselect_pivots + self.boxed_clamps
    }
}

/// A single typed solver event.
///
/// Variants are ordered roughly by when they occur in a solve. Fields that
/// are only meaningful for some solver configurations are `Option`s.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Wire-format header: the event-vocabulary version of the stream.
    ///
    /// Emitted (at most once, first) by writers that opt into headers —
    /// the CLI does; in-process observers and the committed golden
    /// fixtures do not, so pre-versioning logs remain valid streams.
    /// Readers must tolerate its absence and ignore unknown versions.
    Meta {
        /// The event vocabulary version (see `sea_observe::WIRE_VERSION`).
        wire_version: u64,
    },
    /// A solve began.
    SolveStart {
        /// Which driver emitted the event (`"diagonal"`, `"general"`,
        /// `"bounded"`).
        solver: &'static str,
        /// Problem rows.
        rows: usize,
        /// Problem columns.
        cols: usize,
        /// Equilibration kernel name (`"sortscan"` / `"quickselect"`).
        kernel: &'static str,
        /// Parallelism mode label (`"serial"`, `"rayon"`, `"rayon:4"`, ...).
        parallelism: String,
        /// Convergence criterion name.
        criterion: &'static str,
    },
    /// A phase began.
    PhaseStart {
        /// Phase label.
        label: PhaseLabel,
        /// Number of parallel tasks in the phase (1 for serial phases).
        tasks: usize,
    },
    /// A phase finished.
    PhaseEnd {
        /// Phase label.
        label: PhaseLabel,
        /// Number of parallel tasks in the phase.
        tasks: usize,
        /// Wall-clock seconds for the whole phase.
        seconds: f64,
        /// Per-task seconds when the solver recorded them (one per
        /// row/column subproblem, projection chunk or check), empty
        /// otherwise. These events are the only record of a solve's
        /// phases, SEA's and the RC baseline's alike: the scheduling
        /// simulator replays them (`sea_cli::commands::trace_to_sim_phases`),
        /// one phase per event, falling back to one task of `seconds` when
        /// this is empty.
        task_seconds: Vec<f64>,
    },
    /// A convergence check ran (every `check_every` iterations).
    ConvergenceCheck {
        /// Inner iteration index (1-based, as reported in solutions).
        iteration: usize,
        /// Residual under the active criterion.
        residual: f64,
        /// Dual objective ζ(λ, μ) when the solver computed it.
        dual_value: Option<f64>,
        /// Criterion name.
        criterion: &'static str,
    },
    /// The multiplier-bound projection shifted dual variables.
    MultiplierBound {
        /// Inner iteration index.
        iteration: usize,
        /// How many multipliers were shifted back into the box.
        shifted: usize,
        /// The configured bound.
        bound: f64,
    },
    /// One outer diagonalization iteration of the general solver finished.
    OuterIteration {
        /// Outer iteration index (1-based).
        iteration: usize,
        /// Inner SEA iterations used in this outer step.
        inner_iterations: usize,
        /// Max-abs change of the matrix iterate across the outer step.
        outer_residual: f64,
    },
    /// Cumulative kernel counters, emitted once before `SolveEnd` when any
    /// counter is nonzero.
    KernelCounters {
        /// The counters.
        counters: KernelCounters,
    },
    /// One or more subproblems fell back from the quickselect kernel to the
    /// sort-scan kernel during a pass (quickselect pathology or non-finite
    /// multiplier).
    FallbackTriggered {
        /// Inner iteration index (1-based).
        iteration: usize,
        /// Which pass the fallback happened in.
        phase: PhaseLabel,
        /// How many subproblems fell back in this pass.
        count: u64,
    },
    /// A crash-safe checkpoint snapshot was written (tmp-then-rename).
    CheckpointWritten {
        /// Inner iteration index the snapshot captures.
        iteration: usize,
        /// Destination path of the snapshot file.
        path: String,
    },
    /// The supervisor stopped the solve before convergence.
    SupervisorStop {
        /// Inner iteration index at which the solve stopped.
        iteration: usize,
        /// Stable stop-reason name (see `sea_core::StopReason::name`).
        reason: &'static str,
    },
    /// A batch solve began (emitted by the `sea-batch` engine before any
    /// per-instance solve lifecycle).
    BatchStart {
        /// How many instances the batch holds.
        instances: usize,
        /// Batch parallelism policy label (`"serial"`, `"outer"`,
        /// `"outer:4"`, `"inner"`, `"inner:2"`, ...).
        parallelism: String,
    },
    /// Warm-start cache outcome for one batch instance, emitted after that
    /// instance's solve lifecycle (the instance events themselves are
    /// replayed in submission order).
    BatchInstance {
        /// Submission index of the instance (0-based).
        index: usize,
        /// Caller-supplied instance id.
        id: String,
        /// Warm-start cache family, when the instance declared one.
        family: Option<String>,
        /// Cache outcome: `"hit"`, `"miss"`, or `"bypass"` (no family or
        /// caching disabled).
        cache: &'static str,
        /// Kernel work spent on this instance (breakpoints + pivots +
        /// clamps), 0 when its solve failed.
        kernel_work: u64,
        /// Kernel work saved vs the family's cold baseline solve
        /// (`cold_work − kernel_work`, clamped at 0; 0 on miss/bypass).
        work_saved: u64,
    },
    /// A batch solve finished.
    BatchEnd {
        /// Instances solved.
        instances: usize,
        /// How many instances converged.
        converged: usize,
        /// Warm-start cache hits across the batch.
        cache_hits: usize,
        /// Warm-start cache misses across the batch.
        cache_misses: usize,
        /// Total kernel work across instances.
        kernel_work: u64,
        /// Total kernel work saved vs cold baselines.
        work_saved: u64,
        /// Wall-clock seconds for the whole batch.
        seconds: f64,
    },
    /// A solve finished.
    SolveEnd {
        /// Iterations performed (inner iterations for the diagonal solver,
        /// outer iterations for the general one).
        iterations: usize,
        /// Whether the convergence criterion was met.
        converged: bool,
        /// Final residual.
        residual: f64,
        /// Primal objective at the final iterate.
        objective: f64,
        /// Dual objective at the final iterate, when computed.
        dual_value: Option<f64>,
        /// Wall-clock seconds for the whole solve.
        seconds: f64,
    },
}

impl Event {
    /// Stable wire name of the variant (`snake_case`).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Meta { .. } => "meta",
            Event::SolveStart { .. } => "solve_start",
            Event::PhaseStart { .. } => "phase_start",
            Event::PhaseEnd { .. } => "phase_end",
            Event::ConvergenceCheck { .. } => "convergence_check",
            Event::MultiplierBound { .. } => "multiplier_bound",
            Event::OuterIteration { .. } => "outer_iteration",
            Event::KernelCounters { .. } => "kernel_counters",
            Event::FallbackTriggered { .. } => "fallback_triggered",
            Event::CheckpointWritten { .. } => "checkpoint_written",
            Event::SupervisorStop { .. } => "supervisor_stop",
            Event::BatchStart { .. } => "batch_start",
            Event::BatchInstance { .. } => "batch_instance",
            Event::BatchEnd { .. } => "batch_end",
            Event::SolveEnd { .. } => "solve_end",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_label_names_round_trip() {
        for label in PhaseLabel::ALL {
            assert_eq!(PhaseLabel::parse(label.name()), Some(label));
        }
        assert_eq!(PhaseLabel::parse("nope"), None);
    }

    #[test]
    fn only_convergence_check_is_serial() {
        for label in PhaseLabel::ALL {
            assert_eq!(label.is_parallel(), label != PhaseLabel::ConvergenceCheck);
        }
    }

    #[test]
    fn counters_merge_field_wise() {
        let a = KernelCounters {
            subproblems: 1,
            breakpoints_scanned: 10,
            quickselect_pivots: 3,
            boxed_clamps: 0,
        };
        let b = KernelCounters {
            subproblems: 2,
            breakpoints_scanned: 5,
            quickselect_pivots: 0,
            boxed_clamps: 7,
        };
        let m = a.merged(b);
        assert_eq!(m.subproblems, 3);
        assert_eq!(m.breakpoints_scanned, 15);
        assert_eq!(m.quickselect_pivots, 3);
        assert_eq!(m.boxed_clamps, 7);
        assert!(KernelCounters::default().is_empty());
        assert!(!m.is_empty());
    }
}
