//! Event normalization shared by the event-stream golden tests.

use sea_observe::Event;

/// Zero every wall-clock / numeric-result field, keeping structure.
pub fn normalized(event: &Event) -> Event {
    let mut e = event.clone();
    match &mut e {
        Event::PhaseEnd {
            seconds,
            task_seconds,
            ..
        } => {
            *seconds = 0.0;
            task_seconds.iter_mut().for_each(|t| *t = 0.0);
        }
        Event::ConvergenceCheck {
            residual,
            dual_value,
            ..
        } => {
            *residual = 0.0;
            *dual_value = dual_value.map(|_| 0.0);
        }
        Event::MultiplierBound { bound, .. } => *bound = 0.0,
        Event::OuterIteration { outer_residual, .. } => *outer_residual = 0.0,
        Event::SolveEnd {
            residual,
            objective,
            dual_value,
            seconds,
            ..
        } => {
            *residual = 0.0;
            *objective = 0.0;
            *dual_value = dual_value.map(|_| 0.0);
            *seconds = 0.0;
        }
        Event::BatchEnd { seconds, .. } => *seconds = 0.0,
        Event::Meta { .. }
        | Event::SolveStart { .. }
        | Event::PhaseStart { .. }
        | Event::KernelCounters { .. }
        | Event::FallbackTriggered { .. }
        | Event::CheckpointWritten { .. }
        | Event::SupervisorStop { .. }
        | Event::BatchStart { .. }
        | Event::BatchInstance { .. } => {}
    }
    e
}
