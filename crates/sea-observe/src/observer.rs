//! The `Observer` sink trait and the built-in null / in-memory sinks.

use crate::event::{Event, KernelCounters};
use crate::span::SpanKind;
use crate::telemetry::TelemetrySample;

/// An event sink attached to a solver.
///
/// Solvers take `&mut O where O: Observer` generically, so the whole
/// instrumentation path is monomorphized: with [`NullObserver`] (the
/// default), `enabled()` is a `const false`, every `record` call is dead
/// code after inlining, and the steady-state loop stays allocation-free —
/// the zero-overhead guarantee the alloc-audit test enforces.
///
/// Implementations should keep `record` cheap; solvers call it from the
/// serial portion of the loop (never from inside parallel workers), so a
/// sink sees a well-ordered single-threaded event stream.
///
/// ## Span signals
///
/// Beyond discrete events, drivers emit a hierarchical span stream
/// through [`span_open`](Observer::span_open) /
/// [`span_close`](Observer::span_close) /
/// [`span_leaf`](Observer::span_leaf), gated by
/// [`spans_enabled`](Observer::spans_enabled) (default `false`, so the
/// span path also compiles away under [`NullObserver`]). The observer —
/// not the driver — owns the clock, span identity, and nesting stack
/// ([`crate::SpanProfiler`] is the canonical consumer); a driver only
/// signals structure. Counters passed to `span_close` are the *self*
/// attribution of that span — work not already carried by a child span
/// or leaf — so a consumer accumulating children upward reconstructs
/// exact totals. Like `record`, span signals arrive only from serial
/// driver code; parallel shard timings are collected into preallocated
/// sinks by the workers and replayed as `span_leaf` calls afterwards.
pub trait Observer {
    /// Whether this sink wants events at all. Solvers use this to skip
    /// event *construction* (which may allocate, e.g. cloning per-task
    /// timing vectors), not just delivery. Defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Deliver one event.
    fn record(&mut self, event: &Event);

    /// Whether this sink wants span signals and telemetry samples.
    /// Defaults to `false`: spans are opt-in, unlike events.
    fn spans_enabled(&self) -> bool {
        false
    }

    /// A span of kind `kind` begins now. `index` is the kind-relative
    /// ordinal (epoch number, pass iteration, …) and `tasks` the
    /// parallel task count inside the span (0 when not meaningful).
    fn span_open(&mut self, kind: SpanKind, index: u64, tasks: u64) {
        let _ = (kind, index, tasks);
    }

    /// The innermost open span ends now. `self_counters` is the kernel
    /// work attributed directly to this span, excluding work already
    /// reported by child spans or leaves.
    fn span_close(&mut self, self_counters: &KernelCounters) {
        let _ = self_counters;
    }

    /// A leaf span (shard, batch instance) that was timed off-thread and
    /// is replayed serially. Offsets are nanoseconds relative to the
    /// moment the innermost currently-open span was opened. `detail` is
    /// an optional static annotation (e.g. a warm-start cache outcome);
    /// empty when unused.
    // Leaves are POD replayed on the hot path; a parameter struct would
    // force every no-op implementor to destructure one.
    #[allow(clippy::too_many_arguments)]
    fn span_leaf(
        &mut self,
        kind: SpanKind,
        index: u64,
        rel_start_ns: u64,
        rel_end_ns: u64,
        tasks: u64,
        counters: &KernelCounters,
        detail: &'static str,
    ) {
        let _ = (
            kind,
            index,
            rel_start_ns,
            rel_end_ns,
            tasks,
            counters,
            detail,
        );
    }

    /// Deliver one convergence telemetry sample: the progress tick of
    /// every convergence check (and of every outer iteration of the
    /// general driver), sent when [`spans_enabled`](Observer::spans_enabled).
    /// A sample carries only what the check already computed, so a sink
    /// that takes them adds no work to the solve.
    fn telemetry(&mut self, sample: &TelemetrySample) {
        let _ = sample;
    }
}

/// The default sink: drops everything, statically disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _event: &Event) {}

    #[inline(always)]
    fn spans_enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn span_open(&mut self, _kind: SpanKind, _index: u64, _tasks: u64) {}

    #[inline(always)]
    fn span_close(&mut self, _self_counters: &KernelCounters) {}

    #[inline(always)]
    fn span_leaf(
        &mut self,
        _kind: SpanKind,
        _index: u64,
        _rel_start_ns: u64,
        _rel_end_ns: u64,
        _tasks: u64,
        _counters: &KernelCounters,
        _detail: &'static str,
    ) {
    }

    #[inline(always)]
    fn telemetry(&mut self, _sample: &TelemetrySample) {}
}

/// An in-memory sink that buffers every event; the workhorse for tests and
/// for post-solve reporting in one process.
#[derive(Debug, Clone, Default)]
pub struct VecObserver {
    /// The recorded events, in delivery order.
    pub events: Vec<Event>,
}

impl VecObserver {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for VecObserver {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Forwarding: a `&mut O` is itself an observer, so solvers can hand the
/// same sink to nested stages (the general solver lends its observer to
/// each inner diagonal solve).
impl<O: Observer + ?Sized> Observer for &mut O {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&mut self, event: &Event) {
        (**self).record(event);
    }

    fn spans_enabled(&self) -> bool {
        (**self).spans_enabled()
    }

    fn span_open(&mut self, kind: SpanKind, index: u64, tasks: u64) {
        (**self).span_open(kind, index, tasks);
    }

    fn span_close(&mut self, self_counters: &KernelCounters) {
        (**self).span_close(self_counters);
    }

    fn span_leaf(
        &mut self,
        kind: SpanKind,
        index: u64,
        rel_start_ns: u64,
        rel_end_ns: u64,
        tasks: u64,
        counters: &KernelCounters,
        detail: &'static str,
    ) {
        (**self).span_leaf(
            kind,
            index,
            rel_start_ns,
            rel_end_ns,
            tasks,
            counters,
            detail,
        );
    }

    fn telemetry(&mut self, sample: &TelemetrySample) {
        (**self).telemetry(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_disabled() {
        let obs = NullObserver;
        assert!(!obs.enabled());
        assert!(!obs.spans_enabled());
    }

    #[test]
    fn vec_observer_buffers_in_order() {
        let mut obs = VecObserver::new();
        assert!(obs.enabled());
        obs.record(&Event::PhaseStart {
            label: crate::PhaseLabel::RowEquilibration,
            tasks: 4,
        });
        obs.record(&Event::SolveEnd {
            iterations: 1,
            converged: true,
            residual: 0.0,
            objective: 0.0,
            dual_value: None,
            seconds: 0.0,
        });
        assert_eq!(obs.events.len(), 2);
        assert_eq!(obs.events[0].kind(), "phase_start");
        assert_eq!(obs.events[1].kind(), "solve_end");
    }

    #[test]
    fn mut_reference_forwards() {
        let mut obs = VecObserver::new();
        {
            let via_ref: &mut VecObserver = &mut obs;
            assert!(Observer::enabled(&via_ref));
            via_ref.record(&Event::KernelCounters {
                counters: crate::KernelCounters::default(),
            });
        }
        assert_eq!(obs.events.len(), 1);
    }

    #[test]
    fn span_hooks_default_to_noops() {
        // VecObserver opts out of spans: the default hooks must be
        // callable without effect.
        let mut obs = VecObserver::new();
        assert!(!obs.spans_enabled());
        obs.span_open(SpanKind::Solve, 0, 1);
        obs.span_close(&KernelCounters::default());
        obs.span_leaf(SpanKind::Shard, 0, 0, 1, 1, &KernelCounters::default(), "");
        obs.telemetry(&TelemetrySample {
            iteration: 0,
            seconds: 0.0,
            residual: 0.0,
        });
        assert!(obs.events.is_empty());
    }
}
