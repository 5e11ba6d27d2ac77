//! What the SEA drivers report about their phases and their end, written
//! once for every driver.
//!
//! A solve is reported as a `SolveStart`/`SolveEnd` event pair around a
//! Solve span ([`open_solve`], [`close_solve`]). A phase of its loop (an
//! equilibration pass or a projection step) is reported as a
//! `PhaseStart`/`PhaseEnd` event pair to an observer that takes events,
//! and as a span, with the pass's shard leaves, to one that takes spans.
//! Both are decided by the observer: under [`sea_observe::NullObserver`]
//! every branch here is on a constant `false` and compiles away.

use crate::equilibrate::{PassCounters, ShardTiming};
use crate::supervisor::StopReason;
use sea_observe::{Event, KernelCounters, Observer, PhaseLabel, SpanKind};
use std::time::Instant;

/// The span a phase opens.
fn span_kind(label: PhaseLabel) -> SpanKind {
    match label {
        PhaseLabel::RowEquilibration => SpanKind::RowPass,
        PhaseLabel::ColumnEquilibration => SpanKind::ColPass,
        PhaseLabel::ConvergenceCheck => SpanKind::Check,
        PhaseLabel::Projection => SpanKind::Projection,
    }
}

/// An open phase, from [`Phase::open`] to [`Phase::close`].
#[must_use = "a phase reports its end only when closed"]
pub(crate) struct Phase<'c> {
    label: PhaseLabel,
    /// The driver iteration the phase belongs to.
    index: usize,
    tasks: usize,
    /// The solve's kernel work, when the phase does any.
    counters: Option<&'c PassCounters>,
    /// When the phase began, for an observer that takes events.
    began: Option<Instant>,
    /// The kernel work before the phase, for an observer that takes spans.
    work_before: Option<KernelCounters>,
    fallbacks_before: u64,
}

impl<'c> Phase<'c> {
    /// Open phase `label` of iteration `index` over `tasks` tasks:
    /// `PhaseStart`, then the phase's span.
    pub(crate) fn open<O: Observer>(
        obs: &mut O,
        label: PhaseLabel,
        index: usize,
        tasks: usize,
        counters: Option<&'c PassCounters>,
    ) -> Self {
        let events = obs.enabled();
        if events {
            obs.record(&Event::PhaseStart { label, tasks });
        }
        let work_before = obs.spans_enabled().then(|| {
            obs.span_open(span_kind(label), index as u64, tasks as u64);
            counters.map_or_else(KernelCounters::default, PassCounters::snapshot)
        });
        Phase {
            label,
            index,
            tasks,
            counters,
            began: events.then(Instant::now),
            work_before,
            fallbacks_before: counters.map_or(0, PassCounters::fallbacks),
        }
    }

    /// Close the phase. The span first replays `shards`, the shard timings
    /// of a parallel pass, as leaves, which then carry the pass's whole
    /// kernel work, so the span closes with zero *self* counters; a serial pass
    /// closes with its full work. Then `PhaseEnd` carries `task_seconds`,
    /// the per-task costs the phase measured (`None` splits its wall time
    /// evenly over its tasks), and quickselect fallbacks taken during the
    /// phase are reported.
    pub(crate) fn close<O: Observer>(
        self,
        obs: &mut O,
        task_seconds: Option<&[f64]>,
        shards: &[ShardTiming],
    ) {
        if let Some(before) = self.work_before {
            for (si, tm) in shards.iter().enumerate() {
                obs.span_leaf(
                    SpanKind::Shard,
                    si as u64,
                    tm.start_ns,
                    tm.end_ns,
                    tm.tasks,
                    &tm.counters,
                    "",
                );
            }
            let own = match self.counters {
                Some(c) if shards.is_empty() => c.snapshot().delta_from(before),
                _ => KernelCounters::default(),
            };
            obs.span_close(&own);
        }
        let Some(began) = self.began else {
            return;
        };
        let seconds = began.elapsed().as_secs_f64();
        obs.record(&Event::PhaseEnd {
            label: self.label,
            tasks: self.tasks,
            seconds,
            task_seconds: task_seconds.map_or_else(
                || vec![seconds / self.tasks as f64; self.tasks],
                <[f64]>::to_vec,
            ),
        });
        let fallbacks = self.counters.map_or(0, PassCounters::fallbacks);
        if fallbacks > self.fallbacks_before {
            obs.record(&Event::FallbackTriggered {
                iteration: self.index,
                phase: self.label,
                count: fallbacks - self.fallbacks_before,
            });
        }
    }
}

/// Open a solve: `SolveStart`, which `start` builds only for an observer
/// that takes events, then the Solve span over `tasks` subproblems.
pub(crate) fn open_solve<O: Observer>(obs: &mut O, tasks: usize, start: impl FnOnce() -> Event) {
    if obs.enabled() {
        obs.record(&start());
    }
    if obs.spans_enabled() {
        obs.span_open(SpanKind::Solve, 0, tasks as u64);
    }
}

/// Close a solve: the Solve span, then the end of the event stream: why
/// the loop stopped when it did not converge (`stop`, else the iteration
/// cap), the solve's kernel work when it did any, and `end`, the driver's
/// `SolveEnd`.
pub(crate) fn close_solve<O: Observer>(
    obs: &mut O,
    stop: Option<StopReason>,
    counters: KernelCounters,
    end: impl FnOnce() -> Event,
) {
    if obs.spans_enabled() {
        obs.span_close(&KernelCounters::default());
    }
    if !obs.enabled() {
        return;
    }
    let end = end();
    if let Event::SolveEnd {
        iterations,
        converged: false,
        ..
    } = end
    {
        obs.record(&Event::SupervisorStop {
            iteration: iterations,
            reason: stop.map_or(StopReason::IterationCap.name(), StopReason::name),
        });
    }
    if !counters.is_empty() {
        obs.record(&Event::KernelCounters { counters });
    }
    obs.record(&end);
}
