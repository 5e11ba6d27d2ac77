//! Hierarchical span profiling: ring-buffered span records, adaptive
//! sampling, and chrome-trace / flamegraph exports.
//!
//! Drivers signal span *structure* through the [`crate::Observer`] span
//! hooks; [`SpanProfiler`] owns everything stateful — the monotone
//! clock, span identity, the nesting stack, and a preallocated ring
//! buffer of [`SpanRecord`]s — so the signalling side stays trivially
//! cheap and allocation-free. Counters delivered at `span_close` are
//! the span's *self* attribution; the profiler accumulates child
//! counters into parents as spans close, so every recorded span carries
//! its exact subtree total and child sums never exceed their parent.
//!
//! ## Sampling policy
//!
//! Solve, Batch, Epoch, and Instance spans are always recorded. The
//! finer-grained spans inside an epoch (passes, checks, shards) are
//! recorded for every epoch until the ring is three-quarters full, then
//! for every 2nd epoch, every 4th, and so on — each time the high-water
//! mark is hit the epoch stride doubles. Suppressed spans still fold
//! their counters into their parent, so attribution stays exact; only
//! the per-span timing detail is thinned. When the ring nevertheless
//! fills, the oldest records are overwritten and counted in
//! [`SpanProfiler::dropped`].

use std::time::Instant;

use crate::event::{Event, KernelCounters};
use crate::json::JsonValue;
use crate::observer::Observer;

/// What a span measures. The hierarchy is Solve → Epoch →
/// RowPass/ColPass/Check/Projection → Shard, plus Batch → Instance
/// around whole solves in `sea-batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One whole solve (any driver). Nested under an Epoch when the
    /// general driver runs inner diagonal solves.
    Solve,
    /// One iteration of a driver's main loop (inner iteration for the
    /// diagonal/bounded drivers, outer diagonalization step for the
    /// general driver).
    Epoch,
    /// A row equilibration pass.
    RowPass,
    /// A column equilibration pass.
    ColPass,
    /// A serial convergence check.
    Check,
    /// A projection step of the general driver.
    Projection,
    /// One shard of a parallel pass (leaf; timed by the worker).
    Shard,
    /// A whole multi-instance batch solve.
    Batch,
    /// One batch instance (leaf; timed by the batch worker).
    Instance,
}

impl SpanKind {
    /// All kinds, in a fixed order.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Solve,
        SpanKind::Epoch,
        SpanKind::RowPass,
        SpanKind::ColPass,
        SpanKind::Check,
        SpanKind::Projection,
        SpanKind::Shard,
        SpanKind::Batch,
        SpanKind::Instance,
    ];

    /// Stable wire name (`snake_case`), used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Solve => "solve",
            SpanKind::Epoch => "epoch",
            SpanKind::RowPass => "row_pass",
            SpanKind::ColPass => "col_pass",
            SpanKind::Check => "check",
            SpanKind::Projection => "projection",
            SpanKind::Shard => "shard",
            SpanKind::Batch => "batch",
            SpanKind::Instance => "instance",
        }
    }

    /// Inverse of [`SpanKind::name`].
    pub fn parse(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether this kind is always recorded regardless of the adaptive
    /// epoch stride (the coarse skeleton of the trace).
    fn always_recorded(self) -> bool {
        matches!(
            self,
            SpanKind::Solve | SpanKind::Batch | SpanKind::Epoch | SpanKind::Instance
        )
    }
}

/// One closed span. `Copy`, fixed-size, and free of heap data so the
/// ring buffer never allocates while recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Preorder id: a parent's id is always smaller than its children's.
    pub id: u32,
    /// Parent span id, or [`SpanRecord::NO_PARENT`] for roots.
    pub parent: u32,
    /// What the span measures.
    pub kind: SpanKind,
    /// Kind-relative ordinal (epoch number, shard index, …).
    pub index: u64,
    /// Start offset in nanoseconds from the profiler's epoch.
    pub start_ns: u64,
    /// End offset in nanoseconds from the profiler's epoch.
    pub end_ns: u64,
    /// Parallel task count inside the span (0 when not meaningful).
    pub tasks: u64,
    /// Kernel work attributed to the span's whole subtree (self plus
    /// accumulated children — exact even when child records were
    /// sampled out).
    pub counters: KernelCounters,
    /// Optional static annotation (e.g. warm-start cache outcome for
    /// Instance leaves); `""` when unused.
    pub detail: &'static str,
}

impl SpanRecord {
    /// Sentinel parent id for root spans.
    pub const NO_PARENT: u32 = u32::MAX;

    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span on the profiler stack.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    id: u32,
    kind: SpanKind,
    index: u64,
    tasks: u64,
    start_ns: u64,
    /// Counters accumulated from already-closed children and leaves.
    children: KernelCounters,
    /// Whether this span's record survives sampling.
    record: bool,
}

/// Default ring capacity (records). 64 bytes per record → 4 MiB.
const DEFAULT_SPAN_CAPACITY: usize = 65_536;
/// Maximum nesting depth tracked. Deeper opens are counted and dropped.
const MAX_DEPTH: usize = 64;
/// Ring occupancy (in quarters) at which the epoch stride doubles.
const HIGH_WATER_QUARTERS: usize = 3;

/// The span-assembling observer: records driver span signals into a
/// preallocated ring buffer. See the module docs for the sampling policy.
/// It ignores telemetry samples: the CLI's progress line takes those.
///
/// `enabled()` is `false`: the profiler consumes only span signals, so
/// drivers skip discrete-event construction entirely
/// (keeping the span-enabled solve loop allocation-free). A sink that
/// also wants events forwards span signals to a profiler it holds.
#[derive(Debug)]
pub struct SpanProfiler {
    epoch_instant: Instant,
    ring: Vec<SpanRecord>,
    capacity: usize,
    /// Index of the oldest record when the ring has wrapped.
    head: usize,
    dropped: u64,
    next_id: u32,
    stack: Vec<OpenSpan>,
    /// Opens beyond `MAX_DEPTH`, awaiting their matching closes.
    overflow: u64,
    /// Record sub-epoch spans only every `epoch_stride`-th epoch.
    epoch_stride: u64,
    epochs_seen: u64,
    /// Sampling decision for the innermost Epoch currently open.
    epoch_recording: bool,
}

impl Default for SpanProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanProfiler {
    /// A profiler with the default span-ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY, 0)
    }

    /// A profiler retaining at most `spans` records (minimum 16).
    ///
    /// The second parameter, once the telemetry capacity, is retired and
    /// ignored: the profiler keeps no telemetry. It stays so that callers
    /// which size both buffers keep compiling.
    pub fn with_capacity(spans: usize, _telemetry_samples: usize) -> Self {
        let capacity = spans.max(16);
        SpanProfiler {
            epoch_instant: Instant::now(),
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
            next_id: 0,
            stack: Vec::with_capacity(MAX_DEPTH),
            overflow: 0,
            epoch_stride: 1,
            epochs_seen: 0,
            epoch_recording: true,
        }
    }

    /// Nanoseconds since the profiler was created.
    fn now_ns(&self) -> u64 {
        let elapsed = self.epoch_instant.elapsed();
        elapsed
            .as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(elapsed.subsec_nanos()))
    }

    fn push_record(&mut self, record: SpanRecord) {
        if self.ring.len() < self.capacity {
            self.ring.push(record);
        } else {
            // Overwrite the oldest record in place — no allocation.
            self.ring[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Ring occupancy check driving stride adaptation.
    fn over_high_water(&self) -> bool {
        self.ring.len() >= self.capacity / 4 * HIGH_WATER_QUARTERS
    }

    /// Records dropped because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The current adaptive epoch stride (1 = record every epoch).
    pub fn epoch_stride(&self) -> u64 {
        self.epoch_stride
    }

    /// The recorded spans, oldest first. Spans appear in *close* order
    /// (children before parents); ids are preorder (parents smaller).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// Clear all recorded spans, keeping the capacity (for
    /// reusing one profiler across benchmark repetitions).
    pub fn reset(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.dropped = 0;
        self.next_id = 0;
        self.stack.clear();
        self.overflow = 0;
        self.epoch_stride = 1;
        self.epochs_seen = 0;
        self.epoch_recording = true;
        self.epoch_instant = Instant::now();
    }
}

impl Observer for SpanProfiler {
    /// The profiler consumes span signals, not discrete events — this
    /// keeps event construction (which may allocate) disabled.
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &Event) {}

    fn spans_enabled(&self) -> bool {
        true
    }

    fn span_open(&mut self, kind: SpanKind, index: u64, tasks: u64) {
        if self.stack.len() >= MAX_DEPTH {
            self.overflow += 1;
            return;
        }
        let record = if kind == SpanKind::Epoch {
            // Sampling decision point: one per epoch.
            let recording = self.epochs_seen.is_multiple_of(self.epoch_stride);
            self.epochs_seen += 1;
            if recording && self.over_high_water() && self.epoch_stride < u64::MAX / 2 {
                self.epoch_stride *= 2;
            }
            self.epoch_recording = recording;
            true
        } else if kind.always_recorded() {
            true
        } else {
            self.epoch_recording
        };
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stack.push(OpenSpan {
            id,
            kind,
            index,
            tasks,
            start_ns: self.now_ns(),
            children: KernelCounters::default(),
            record,
        });
    }

    fn span_close(&mut self, self_counters: &KernelCounters) {
        if self.overflow > 0 {
            self.overflow -= 1;
            return;
        }
        let Some(open) = self.stack.pop() else {
            return;
        };
        let total = open.children.merged(*self_counters);
        let end_ns = self.now_ns();
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.children = p.children.merged(total);
                p.id
            }
            None => SpanRecord::NO_PARENT,
        };
        if open.kind == SpanKind::Epoch {
            // Leaving an epoch: fine-grained recording resumes for any
            // enclosing structure (the general driver's outer epochs).
            self.epoch_recording = true;
        }
        if open.record {
            self.push_record(SpanRecord {
                id: open.id,
                parent,
                kind: open.kind,
                index: open.index,
                start_ns: open.start_ns,
                end_ns,
                tasks: open.tasks,
                counters: total,
                detail: "",
            });
        }
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
        let (parent_id, base_ns, record_parent) = match self.stack.last_mut() {
            Some(p) => {
                p.children = p.children.merged(*counters);
                (p.id, p.start_ns, p.record)
            }
            None => (SpanRecord::NO_PARENT, 0, true),
        };
        let record = record_parent && (kind.always_recorded() || self.epoch_recording);
        if !record {
            return;
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.push_record(SpanRecord {
            id,
            parent: parent_id,
            kind,
            index,
            start_ns: base_ns.saturating_add(rel_start_ns),
            end_ns: base_ns.saturating_add(rel_end_ns),
            tasks,
            counters: *counters,
            detail,
        });
    }
}

/// A span parsed back from a chrome-trace export. Owned (detail is a
/// `String`), unlike the `Copy` in-process [`SpanRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    /// Span id.
    pub id: u64,
    /// Parent span id, when the span has one.
    pub parent: Option<u64>,
    /// Span kind.
    pub kind: SpanKind,
    /// Kind-relative ordinal.
    pub index: u64,
    /// Start offset, nanoseconds.
    pub start_ns: u64,
    /// End offset, nanoseconds.
    pub end_ns: u64,
    /// Parallel task count.
    pub tasks: u64,
    /// Subtree kernel counters.
    pub counters: KernelCounters,
    /// Annotation (e.g. cache outcome), empty when unused.
    pub detail: String,
}

impl ParsedSpan {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Convert to the in-process record form (drops `detail`).
    pub fn to_record(&self) -> SpanRecord {
        SpanRecord {
            id: self.id as u32,
            parent: self.parent.map_or(SpanRecord::NO_PARENT, |p| p as u32),
            kind: self.kind,
            index: self.index,
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            tasks: self.tasks,
            counters: self.counters,
            detail: "",
        }
    }
}

/// Build a chrome-trace (`chrome://tracing` / Perfetto) JSON document
/// from recorded spans. Timestamps/durations are microseconds as the
/// format requires; span identity, nesting, ordinals, and kernel
/// counters ride in `args` so [`parse_chrome_trace`] can round-trip the
/// document back into spans.
pub fn chrome_trace(spans: &[SpanRecord], dropped: u64) -> JsonValue {
    let mut events = Vec::with_capacity(spans.len());
    for s in spans {
        let mut args = vec![
            ("id".to_string(), JsonValue::Number(s.id as f64)),
            (
                "parent".to_string(),
                if s.parent == SpanRecord::NO_PARENT {
                    JsonValue::Null
                } else {
                    JsonValue::Number(s.parent as f64)
                },
            ),
            ("index".to_string(), JsonValue::Number(s.index as f64)),
            ("tasks".to_string(), JsonValue::Number(s.tasks as f64)),
            (
                "subproblems".to_string(),
                JsonValue::Number(s.counters.subproblems as f64),
            ),
            (
                "breakpoints_scanned".to_string(),
                JsonValue::Number(s.counters.breakpoints_scanned as f64),
            ),
            (
                "quickselect_pivots".to_string(),
                JsonValue::Number(s.counters.quickselect_pivots as f64),
            ),
            (
                "boxed_clamps".to_string(),
                JsonValue::Number(s.counters.boxed_clamps as f64),
            ),
        ];
        if !s.detail.is_empty() {
            args.push((
                "detail".to_string(),
                JsonValue::String(s.detail.to_string()),
            ));
        }
        events.push(JsonValue::Object(vec![
            (
                "name".to_string(),
                JsonValue::String(s.kind.name().to_string()),
            ),
            ("cat".to_string(), JsonValue::String("sea".to_string())),
            ("ph".to_string(), JsonValue::String("X".to_string())),
            (
                "ts".to_string(),
                JsonValue::Number(s.start_ns as f64 / 1_000.0),
            ),
            (
                "dur".to_string(),
                JsonValue::Number(s.duration_ns() as f64 / 1_000.0),
            ),
            ("pid".to_string(), JsonValue::Number(1.0)),
            ("tid".to_string(), JsonValue::Number(1.0)),
            ("args".to_string(), JsonValue::Object(args)),
        ]));
    }
    JsonValue::Object(vec![
        ("traceEvents".to_string(), JsonValue::Array(events)),
        (
            "displayTimeUnit".to_string(),
            JsonValue::String("ms".to_string()),
        ),
        (
            "otherData".to_string(),
            JsonValue::Object(vec![
                (
                    "producer".to_string(),
                    JsonValue::String("sea-observe".to_string()),
                ),
                (
                    "wire_version".to_string(),
                    JsonValue::Number(crate::jsonl::WIRE_VERSION as f64),
                ),
                (
                    "dropped_spans".to_string(),
                    JsonValue::Number(dropped as f64),
                ),
            ]),
        ),
    ])
}

/// Parse a chrome-trace document produced by [`chrome_trace`] back into
/// spans (duration events of category `"sea"` only; other events are
/// ignored so externally merged traces still load).
pub fn parse_chrome_trace(doc: &JsonValue) -> Result<Vec<ParsedSpan>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let cat = ev.get("cat").and_then(|v| v.as_str()).unwrap_or("");
        let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        if cat != "sea" || ph != "X" {
            continue;
        }
        let fail = |what: &str| format!("traceEvents[{i}]: {what}");
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| fail("missing name"))?;
        let kind = SpanKind::parse(name).ok_or_else(|| fail("unknown span kind"))?;
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| fail("missing ts"))?;
        let dur = ev
            .get("dur")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| fail("missing dur"))?;
        let args = ev.get("args").ok_or_else(|| fail("missing args"))?;
        let id = args
            .get("id")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| fail("missing args.id"))?;
        let parent = match args.get("parent") {
            Some(JsonValue::Null) | None => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| fail("bad args.parent"))?),
        };
        let get_u64 = |key: &str| args.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
        let start_ns = (ts * 1_000.0).round().max(0.0) as u64;
        let end_ns = start_ns + (dur * 1_000.0).round().max(0.0) as u64;
        out.push(ParsedSpan {
            id,
            parent,
            kind,
            index: get_u64("index"),
            start_ns,
            end_ns,
            tasks: get_u64("tasks"),
            counters: KernelCounters {
                subproblems: get_u64("subproblems"),
                breakpoints_scanned: get_u64("breakpoints_scanned"),
                quickselect_pivots: get_u64("quickselect_pivots"),
                boxed_clamps: get_u64("boxed_clamps"),
            },
            detail: args
                .get("detail")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
        });
    }
    Ok(out)
}

/// Render spans as folded stacks (`path;to;frame <self-µs>` lines) for
/// flamegraph tools. Self time is span duration minus recorded child
/// durations; identical paths are aggregated and lines sorted, so the
/// output is deterministic.
pub fn folded_stacks(spans: &[SpanRecord]) -> String {
    // child duration totals per parent id
    let mut child_ns: Vec<(u32, u64)> = Vec::new();
    for s in spans {
        if s.parent == SpanRecord::NO_PARENT {
            continue;
        }
        match child_ns.iter_mut().find(|(id, _)| *id == s.parent) {
            Some((_, total)) => *total = total.saturating_add(s.duration_ns()),
            None => child_ns.push((s.parent, s.duration_ns())),
        }
    }
    let path_of = |span: &SpanRecord| -> String {
        // Walk parents to the root; spans are few, linear scans are fine.
        let mut names: Vec<&'static str> = vec![span.kind.name()];
        let mut cur = span.parent;
        while cur != SpanRecord::NO_PARENT {
            match spans.iter().find(|s| s.id == cur) {
                Some(p) => {
                    names.push(p.kind.name());
                    cur = p.parent;
                }
                None => break,
            }
        }
        names.reverse();
        names.join(";")
    };
    let mut folded: Vec<(String, u64)> = Vec::new();
    for s in spans {
        let children = child_ns
            .iter()
            .find(|(id, _)| *id == s.id)
            .map_or(0, |(_, total)| *total);
        let self_us = s.duration_ns().saturating_sub(children) / 1_000;
        if self_us == 0 {
            continue;
        }
        let path = path_of(s);
        match folded.iter_mut().find(|(p, _)| *p == path) {
            Some((_, total)) => *total += self_us,
            None => folded.push((path, self_us)),
        }
    }
    folded.sort();
    let mut out = String::new();
    for (path, us) in folded {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(subproblems: u64, breakpoints: u64) -> KernelCounters {
        KernelCounters {
            subproblems,
            breakpoints_scanned: breakpoints,
            quickselect_pivots: 0,
            boxed_clamps: 0,
        }
    }

    /// Drive a tiny synthetic solve shape through the profiler.
    fn synthetic_solve(prof: &mut SpanProfiler, epochs: u64) {
        prof.span_open(SpanKind::Solve, 0, 8);
        for t in 0..epochs {
            prof.span_open(SpanKind::Epoch, t, 0);
            prof.span_open(SpanKind::RowPass, t, 4);
            prof.span_leaf(SpanKind::Shard, 0, 0, 10, 2, &counters(2, 20), "");
            prof.span_leaf(SpanKind::Shard, 1, 0, 12, 2, &counters(2, 24), "");
            prof.span_close(&KernelCounters::default());
            prof.span_open(SpanKind::Check, t, 1);
            prof.span_close(&KernelCounters::default());
            prof.span_close(&KernelCounters::default());
        }
        prof.span_close(&KernelCounters::default());
    }

    #[test]
    fn profiler_accumulates_children_into_parents() {
        let mut prof = SpanProfiler::new();
        synthetic_solve(&mut prof, 1);
        let spans = prof.spans();
        let solve = spans
            .iter()
            .find(|s| s.kind == SpanKind::Solve)
            .expect("solve span");
        let pass = spans
            .iter()
            .find(|s| s.kind == SpanKind::RowPass)
            .expect("pass span");
        assert_eq!(pass.counters, counters(4, 44));
        assert_eq!(solve.counters, counters(4, 44));
        assert_eq!(solve.parent, SpanRecord::NO_PARENT);
        // Preorder ids: parents smaller than children.
        for s in &spans {
            if s.parent != SpanRecord::NO_PARENT {
                assert!(s.parent < s.id, "parent id {} < id {}", s.parent, s.id);
            }
        }
    }

    #[test]
    fn sampling_thins_sub_epoch_spans_but_keeps_attribution() {
        // Tiny ring: 16 records. Many epochs force stride adaptation.
        let mut prof = SpanProfiler::with_capacity(16, 16);
        synthetic_solve(&mut prof, 64);
        assert!(prof.epoch_stride() > 1, "stride adapted");
        let spans = prof.spans();
        let solve = spans.iter().find(|s| s.kind == SpanKind::Solve);
        // Solve closes last so it is never overwritten by later records.
        let solve = solve.expect("solve span survives");
        // Attribution stays exact despite suppressed shard leaves:
        // 64 epochs × 2 shards × (2 subproblems, 20/24 breakpoints).
        assert_eq!(solve.counters, counters(256, 64 * 44));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut prof = SpanProfiler::with_capacity(16, 16);
        // Flat leaves at the root: always recorded, no sampling.
        for i in 0..40u64 {
            prof.span_leaf(
                SpanKind::Instance,
                i,
                0,
                1,
                1,
                &KernelCounters::default(),
                "",
            );
        }
        let spans = prof.spans();
        assert_eq!(spans.len(), 16);
        assert_eq!(prof.dropped(), 24);
        // Oldest-first order preserved across the wrap.
        let idx: Vec<u64> = spans.iter().map(|s| s.index).collect();
        assert_eq!(idx, (24..40).collect::<Vec<u64>>());
    }

    #[test]
    fn unbalanced_close_is_ignored() {
        let mut prof = SpanProfiler::new();
        prof.span_close(&KernelCounters::default());
        assert!(prof.spans().is_empty());
    }

    #[test]
    fn chrome_trace_round_trips() {
        let mut prof = SpanProfiler::new();
        synthetic_solve(&mut prof, 2);
        let spans = prof.spans();
        let doc = chrome_trace(&spans, prof.dropped());
        let text = doc.render();
        let parsed_doc = crate::json::parse(&text).expect("parse trace json");
        let parsed = parse_chrome_trace(&parsed_doc).expect("parse spans");
        assert_eq!(parsed.len(), spans.len());
        for (orig, back) in spans.iter().zip(&parsed) {
            assert_eq!(back.id, orig.id as u64);
            assert_eq!(back.kind, orig.kind);
            assert_eq!(back.index, orig.index);
            assert_eq!(back.tasks, orig.tasks);
            assert_eq!(back.counters, orig.counters);
            let parent = back.to_record().parent;
            assert_eq!(parent, orig.parent);
            // µs rounding: within 1µs of the original nanosecond times.
            assert!(back.start_ns.abs_diff(orig.start_ns) <= 1_000);
            assert!(back.end_ns.abs_diff(orig.end_ns) <= 1_000);
        }
    }

    #[test]
    fn folded_stacks_aggregate_self_time() {
        let spans = vec![
            SpanRecord {
                id: 0,
                parent: SpanRecord::NO_PARENT,
                kind: SpanKind::Solve,
                index: 0,
                start_ns: 0,
                end_ns: 10_000_000,
                tasks: 0,
                counters: KernelCounters::default(),
                detail: "",
            },
            SpanRecord {
                id: 1,
                parent: 0,
                kind: SpanKind::Epoch,
                index: 0,
                start_ns: 0,
                end_ns: 4_000_000,
                tasks: 0,
                counters: KernelCounters::default(),
                detail: "",
            },
            SpanRecord {
                id: 2,
                parent: 0,
                kind: SpanKind::Epoch,
                index: 1,
                start_ns: 4_000_000,
                end_ns: 8_000_000,
                tasks: 0,
                counters: KernelCounters::default(),
                detail: "",
            },
        ];
        let folded = folded_stacks(&spans);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["solve 2000", "solve;epoch 8000"]);
    }
}
