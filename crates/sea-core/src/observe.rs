//! Glue between the sea-observe event schema and solver-side types.
//!
//! The event stream is the one source of execution traces. An event log
//! recorded by [`crate::solver::solve_diagonal_supervised`] (or the
//! general/bounded drivers) carries, in its `PhaseEnd` events, the
//! measured per-task cost vector of every row, column, projection and
//! convergence-check phase. [`trace_from_events`] rebuilds an
//! [`ExecutionTrace`] from those events, whether they were collected in
//! process by a [`sea_observe::VecObserver`] or parsed back from a JSONL
//! log, so either can be replayed through the sea-parsim scheduling
//! simulator.

use crate::trace::ExecutionTrace;
use sea_observe::Event;

/// Rebuild an [`ExecutionTrace`] from a recorded event stream.
///
/// Every `PhaseEnd` event becomes one phase, in log order. When the event
/// carries per-task costs they are used verbatim; drivers that omit them
/// fall back to a single task holding the whole phase duration.
pub fn trace_from_events(events: &[Event]) -> ExecutionTrace {
    let mut trace = ExecutionTrace::new();
    for event in events {
        if let Event::PhaseEnd {
            label,
            seconds,
            task_seconds,
            ..
        } = event
        {
            let costs = if task_seconds.is_empty() {
                vec![*seconds]
            } else {
                task_seconds.clone()
            };
            trace.push(*label, costs);
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_observe::PhaseLabel;

    #[test]
    fn trace_from_events_uses_task_costs_and_falls_back() {
        let events = vec![
            Event::PhaseStart {
                label: PhaseLabel::RowEquilibration,
                tasks: 3,
            },
            Event::PhaseEnd {
                label: PhaseLabel::RowEquilibration,
                tasks: 3,
                seconds: 0.6,
                task_seconds: vec![0.1, 0.2, 0.3],
            },
            Event::PhaseEnd {
                label: PhaseLabel::ConvergenceCheck,
                tasks: 1,
                seconds: 0.05,
                task_seconds: Vec::new(),
            },
        ];
        let trace = trace_from_events(&events);
        assert_eq!(trace.phases.len(), 2);
        assert_eq!(trace.phases[0].kind, PhaseLabel::RowEquilibration);
        assert_eq!(trace.phases[0].task_seconds, vec![0.1, 0.2, 0.3]);
        assert_eq!(trace.phases[1].task_seconds, vec![0.05]);
        assert!((trace.serial_fraction() - 0.05 / 0.65).abs() < 1e-12);
    }

    #[test]
    fn round_trip_through_observed_solve() {
        use crate::problem::{DiagonalProblem, TotalSpec};
        use crate::solver::{solve_diagonal_supervised, SeaOptions};
        use crate::supervisor::SupervisorOptions;
        use sea_linalg::DenseMatrix;
        use sea_observe::{encode_event, parse_events};

        let p = DiagonalProblem::new(
            DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
            DenseMatrix::filled(2, 2, 1.0).unwrap(),
            TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let opts = SeaOptions::with_epsilon(1e-10);
        let mut obs = sea_observe::VecObserver::new();
        let sup = SupervisorOptions::default();
        let sol = solve_diagonal_supervised(&p, &opts, &sup, &mut obs)
            .unwrap()
            .solution;

        let in_process = trace_from_events(&obs.events);
        // One row, column and check phase per iteration, each row/column
        // phase with one measured cost per subproblem.
        let iters = sol.stats.iterations;
        assert_eq!(in_process.phases.len(), 3 * iters);
        for ph in &in_process.phases {
            let tasks = if ph.kind.is_parallel() { 2 } else { 1 };
            assert_eq!(ph.task_seconds.len(), tasks, "{:?}", ph.kind);
        }
        // A JSONL log of the same events rebuilds the identical trace.
        let log: String = obs.events.iter().map(|e| encode_event(e) + "\n").collect();
        let from_log = trace_from_events(&parse_events(&log).unwrap());
        assert_eq!(from_log, in_process);
    }
}
