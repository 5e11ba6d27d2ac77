//! Solver instrumentation for the SEA reproduction.
//!
//! This crate is the observability layer the solvers in `sea-core` emit
//! into: a typed [`Event`] taxonomy covering solve lifecycle, phase
//! timings, convergence snapshots, kernel work counters, and
//! multiplier-bound activations; the [`Observer`] sink trait (statically
//! dispatched, so the disabled path costs nothing); and the built-in
//! sinks — [`NullObserver`] (the default), [`JsonlObserver`] (streaming
//! JSONL solve logs), [`MetricsObserver`] (an in-memory registry
//! rendering Prometheus text exposition format), and [`SpanProfiler`]
//! (hierarchical spans in a preallocated ring buffer, exporting
//! chrome-trace JSON and folded flamegraph stacks). Drivers also emit one
//! [`TelemetrySample`] per convergence check, the progress tick that the
//! CLI's `--progress` line fits [`ConvergenceEstimator`] to.
//!
//! The crate is deliberately dependency-free: JSON is hand-rolled in
//! [`json`], and nothing here touches the solver crates — `sea-core`
//! depends on `sea-observe`, never the reverse, so the event schema stays
//! usable from reporting and simulation tools without pulling in the
//! numerics.

#![deny(missing_docs)]

pub mod event;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod observer;
pub mod span;
pub mod telemetry;

pub use event::{Event, KernelCounters, PhaseLabel};
pub use jsonl::{decode_event, encode_event, parse_events, JsonlObserver, WIRE_VERSION};
pub use metrics::{MetricsObserver, MetricsRegistry};
pub use observer::{NullObserver, Observer, VecObserver};
pub use span::{
    chrome_trace, folded_stacks, parse_chrome_trace, ParsedSpan, SpanKind, SpanProfiler, SpanRecord,
};
pub use telemetry::{ConvergenceEstimator, EtaEstimate, TelemetrySample};
