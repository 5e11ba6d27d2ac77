//! Execution traces: the bridge between the solvers and the multiprocessor
//! scheduling simulator.
//!
//! The paper's parallel experiments (§4.2, §5.2) decompose each SEA
//! iteration into a parallel **row equilibration** phase (m independent
//! tasks), a parallel **column equilibration** phase (n tasks), and a
//! *serial* **convergence verification** phase — the structure that
//! determines the measured speedups. Every driver reports each such stage
//! as a `PhaseEnd` event carrying its measured per-task costs;
//! [`crate::observe::trace_from_events`] rebuilds an [`ExecutionTrace`]
//! from an observed solve's events (or a recorded JSONL log), and
//! `sea-parsim` then replays it on a simulated N-processor machine.

use sea_observe::PhaseLabel;

/// One stage of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// The stage type (whether its tasks may run concurrently is
    /// [`PhaseLabel::is_parallel`]).
    pub kind: PhaseLabel,
    /// Per-task costs in seconds (one entry per independent subproblem).
    /// Serial phases carry a single entry.
    pub task_seconds: Vec<f64>,
}

impl Phase {
    /// Total work in the phase (sum of task costs) in seconds.
    pub fn total_work(&self) -> f64 {
        self.task_seconds.iter().sum()
    }

    /// Longest single task in seconds (0.0 when empty).
    pub fn longest_task(&self) -> f64 {
        self.task_seconds.iter().fold(0.0_f64, |m, &v| m.max(v))
    }
}

/// A full solve decomposed into phases.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionTrace {
    /// Phases in execution order.
    pub phases: Vec<Phase>,
}

impl ExecutionTrace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a phase.
    pub fn push(&mut self, kind: PhaseLabel, task_seconds: Vec<f64>) {
        self.phases.push(Phase { kind, task_seconds });
    }

    /// Total single-processor time: every task executed back to back.
    pub fn serial_time(&self) -> f64 {
        self.phases.iter().map(Phase::total_work).sum()
    }

    /// Time spent in inherently serial phases.
    pub fn inherently_serial_time(&self) -> f64 {
        self.phases
            .iter()
            .filter(|p| !p.kind.is_parallel())
            .map(Phase::total_work)
            .sum()
    }

    /// The serial fraction (Amdahl), in `[0, 1]`; `0.0` for an empty trace.
    pub fn serial_fraction(&self) -> f64 {
        let total = self.serial_time();
        if total <= 0.0 {
            0.0
        } else {
            self.inherently_serial_time() / total
        }
    }

    /// Number of phases of a given kind.
    pub fn count(&self, kind: PhaseLabel) -> usize {
        self.phases.iter().filter(|p| p.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecutionTrace {
        let mut t = ExecutionTrace::new();
        t.push(PhaseLabel::RowEquilibration, vec![1.0, 2.0, 3.0]);
        t.push(PhaseLabel::ColumnEquilibration, vec![2.0, 2.0]);
        t.push(PhaseLabel::ConvergenceCheck, vec![0.5]);
        t
    }

    #[test]
    fn totals_and_fractions() {
        let t = sample();
        assert_eq!(t.serial_time(), 10.5);
        assert_eq!(t.inherently_serial_time(), 0.5);
        assert!((t.serial_fraction() - 0.5 / 10.5).abs() < 1e-12);
    }

    #[test]
    fn counts_by_kind() {
        let t = sample();
        assert_eq!(t.count(PhaseLabel::RowEquilibration), 1);
        assert_eq!(t.count(PhaseLabel::Projection), 0);
    }

    #[test]
    fn phase_aggregates() {
        let p = Phase {
            kind: PhaseLabel::RowEquilibration,
            task_seconds: vec![1.0, 4.0, 2.0],
        };
        assert_eq!(p.total_work(), 7.0);
        assert_eq!(p.longest_task(), 4.0);
        assert!(p.kind.is_parallel());
        assert!(!PhaseLabel::ConvergenceCheck.is_parallel());
    }

    #[test]
    fn empty_trace_fraction_is_zero() {
        assert_eq!(ExecutionTrace::new().serial_fraction(), 0.0);
    }
}
