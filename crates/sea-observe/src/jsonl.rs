//! JSONL (one JSON object per line) encoding of the event stream, plus the
//! `JsonlObserver` sink that streams events to any `io::Write`.
//!
//! Wire format: every line is an object with a `"type"` discriminant whose
//! value is [`Event::kind`], followed by the variant's fields in
//! declaration order. Non-finite floats are encoded as the strings
//! `"inf"` / `"-inf"` / `"nan"` (see [`crate::json::f64_to_json`]).

use std::io::Write;

use crate::event::{Event, KernelCounters, PhaseLabel};
use crate::json::{f64_to_json, json_to_f64, parse, JsonValue};

/// Version of the JSONL event vocabulary.
///
/// - **1**: the unversioned PR 2–6 vocabulary (no `meta` line).
/// - **2**: adds the `meta` header line and the span/telemetry layer
///   (spans export separately as chrome-trace, so version 2 streams are
///   a strict superset of version 1 — every version-1 line encodes
///   byte-for-byte identically under version 2; the wire-compat test
///   pins this against the committed golden fixtures).
pub const WIRE_VERSION: u64 = 2;

/// Serialize one event to its compact JSON object (no trailing newline).
pub fn encode_event(event: &Event) -> String {
    event_to_json(event).render()
}

/// Build the JSON value for one event.
pub fn event_to_json(event: &Event) -> JsonValue {
    let mut fields: Vec<(String, JsonValue)> = vec![(
        "type".to_string(),
        JsonValue::String(event.kind().to_string()),
    )];
    let mut push = |k: &str, v: JsonValue| fields.push((k.to_string(), v));
    match event {
        Event::Meta { wire_version } => {
            push("wire_version", JsonValue::Number(*wire_version as f64));
        }
        Event::SolveStart {
            solver,
            rows,
            cols,
            kernel,
            parallelism,
            criterion,
        } => {
            push("solver", JsonValue::String((*solver).to_string()));
            push("rows", JsonValue::Number(*rows as f64));
            push("cols", JsonValue::Number(*cols as f64));
            push("kernel", JsonValue::String((*kernel).to_string()));
            push("parallelism", JsonValue::String(parallelism.clone()));
            push("criterion", JsonValue::String((*criterion).to_string()));
        }
        Event::PhaseStart { label, tasks } => {
            push("label", JsonValue::String(label.name().to_string()));
            push("tasks", JsonValue::Number(*tasks as f64));
        }
        Event::PhaseEnd {
            label,
            tasks,
            seconds,
            task_seconds,
        } => {
            push("label", JsonValue::String(label.name().to_string()));
            push("tasks", JsonValue::Number(*tasks as f64));
            push("seconds", f64_to_json(*seconds));
            push(
                "task_seconds",
                JsonValue::Array(task_seconds.iter().map(|&s| f64_to_json(s)).collect()),
            );
        }
        Event::ConvergenceCheck {
            iteration,
            residual,
            dual_value,
            criterion,
        } => {
            push("iteration", JsonValue::Number(*iteration as f64));
            push("residual", f64_to_json(*residual));
            push(
                "dual_value",
                dual_value.map_or(JsonValue::Null, f64_to_json),
            );
            push("criterion", JsonValue::String((*criterion).to_string()));
        }
        Event::MultiplierBound {
            iteration,
            shifted,
            bound,
        } => {
            push("iteration", JsonValue::Number(*iteration as f64));
            push("shifted", JsonValue::Number(*shifted as f64));
            push("bound", f64_to_json(*bound));
        }
        Event::OuterIteration {
            iteration,
            inner_iterations,
            outer_residual,
        } => {
            push("iteration", JsonValue::Number(*iteration as f64));
            push(
                "inner_iterations",
                JsonValue::Number(*inner_iterations as f64),
            );
            push("outer_residual", f64_to_json(*outer_residual));
        }
        Event::KernelCounters { counters } => {
            push(
                "subproblems",
                JsonValue::Number(counters.subproblems as f64),
            );
            push(
                "breakpoints_scanned",
                JsonValue::Number(counters.breakpoints_scanned as f64),
            );
            push(
                "quickselect_pivots",
                JsonValue::Number(counters.quickselect_pivots as f64),
            );
            push(
                "boxed_clamps",
                JsonValue::Number(counters.boxed_clamps as f64),
            );
        }
        Event::FallbackTriggered {
            iteration,
            phase,
            count,
        } => {
            push("iteration", JsonValue::Number(*iteration as f64));
            push("phase", JsonValue::String(phase.name().to_string()));
            push("count", JsonValue::Number(*count as f64));
        }
        Event::CheckpointWritten { iteration, path } => {
            push("iteration", JsonValue::Number(*iteration as f64));
            push("path", JsonValue::String(path.clone()));
        }
        Event::SupervisorStop { iteration, reason } => {
            push("iteration", JsonValue::Number(*iteration as f64));
            push("reason", JsonValue::String((*reason).to_string()));
        }
        Event::BatchStart {
            instances,
            parallelism,
        } => {
            push("instances", JsonValue::Number(*instances as f64));
            push("parallelism", JsonValue::String(parallelism.clone()));
        }
        Event::BatchInstance {
            index,
            id,
            family,
            cache,
            kernel_work,
            work_saved,
        } => {
            push("index", JsonValue::Number(*index as f64));
            push("id", JsonValue::String(id.clone()));
            push(
                "family",
                family
                    .as_ref()
                    .map_or(JsonValue::Null, |f| JsonValue::String(f.clone())),
            );
            push("cache", JsonValue::String((*cache).to_string()));
            push("kernel_work", JsonValue::Number(*kernel_work as f64));
            push("work_saved", JsonValue::Number(*work_saved as f64));
        }
        Event::BatchEnd {
            instances,
            converged,
            cache_hits,
            cache_misses,
            kernel_work,
            work_saved,
            seconds,
        } => {
            push("instances", JsonValue::Number(*instances as f64));
            push("converged", JsonValue::Number(*converged as f64));
            push("cache_hits", JsonValue::Number(*cache_hits as f64));
            push("cache_misses", JsonValue::Number(*cache_misses as f64));
            push("kernel_work", JsonValue::Number(*kernel_work as f64));
            push("work_saved", JsonValue::Number(*work_saved as f64));
            push("seconds", f64_to_json(*seconds));
        }
        Event::SolveEnd {
            iterations,
            converged,
            residual,
            objective,
            dual_value,
            seconds,
        } => {
            push("iterations", JsonValue::Number(*iterations as f64));
            push("converged", JsonValue::Bool(*converged));
            push("residual", f64_to_json(*residual));
            push("objective", f64_to_json(*objective));
            push(
                "dual_value",
                dual_value.map_or(JsonValue::Null, f64_to_json),
            );
            push("seconds", f64_to_json(*seconds));
        }
    }
    JsonValue::Object(fields)
}

/// Decode one JSONL line back into an event.
///
/// # Errors
/// Returns a message naming the missing/ill-typed field or unknown type.
pub fn decode_event(line: &str) -> Result<Event, String> {
    let value = parse(line)?;
    json_to_event(&value)
}

/// Decode one parsed JSON object back into an event.
///
/// # Errors
/// Returns a message naming the missing/ill-typed field or unknown type.
pub fn json_to_event(value: &JsonValue) -> Result<Event, String> {
    let kind = value
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"type\" field")?;
    let str_field = |name: &str| -> Result<String, String> {
        value
            .get(name)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field {name:?}"))
    };
    let usize_field = |name: &str| -> Result<usize, String> {
        value
            .get(name)
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| format!("missing integer field {name:?}"))
    };
    let u64_field = |name: &str| -> Result<u64, String> {
        value
            .get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing integer field {name:?}"))
    };
    let f64_field = |name: &str| -> Result<f64, String> {
        value
            .get(name)
            .and_then(json_to_f64)
            .ok_or_else(|| format!("missing number field {name:?}"))
    };
    let opt_f64_field = |name: &str| -> Result<Option<f64>, String> {
        match value.get(name) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => json_to_f64(v)
                .map(Some)
                .ok_or_else(|| format!("ill-typed field {name:?}")),
        }
    };
    let label_field = |name: &str| -> Result<PhaseLabel, String> {
        let s = str_field(name)?;
        PhaseLabel::parse(&s).ok_or_else(|| format!("unknown phase label {s:?}"))
    };

    match kind {
        "meta" => Ok(Event::Meta {
            wire_version: u64_field("wire_version")?,
        }),
        "solve_start" => Ok(Event::SolveStart {
            solver: intern_solver(&str_field("solver")?)?,
            rows: usize_field("rows")?,
            cols: usize_field("cols")?,
            kernel: intern_kernel(&str_field("kernel")?)?,
            parallelism: str_field("parallelism")?,
            criterion: intern_criterion(&str_field("criterion")?)?,
        }),
        "phase_start" => Ok(Event::PhaseStart {
            label: label_field("label")?,
            tasks: usize_field("tasks")?,
        }),
        "phase_end" => {
            let raw = value
                .get("task_seconds")
                .and_then(JsonValue::as_array)
                .ok_or("missing array field \"task_seconds\"")?;
            let task_seconds = raw
                .iter()
                .map(|v| json_to_f64(v).ok_or("ill-typed task_seconds entry"))
                .collect::<Result<Vec<f64>, _>>()?;
            Ok(Event::PhaseEnd {
                label: label_field("label")?,
                tasks: usize_field("tasks")?,
                seconds: f64_field("seconds")?,
                task_seconds,
            })
        }
        "convergence_check" => Ok(Event::ConvergenceCheck {
            iteration: usize_field("iteration")?,
            residual: f64_field("residual")?,
            dual_value: opt_f64_field("dual_value")?,
            criterion: intern_criterion(&str_field("criterion")?)?,
        }),
        "multiplier_bound" => Ok(Event::MultiplierBound {
            iteration: usize_field("iteration")?,
            shifted: usize_field("shifted")?,
            bound: f64_field("bound")?,
        }),
        "outer_iteration" => Ok(Event::OuterIteration {
            iteration: usize_field("iteration")?,
            inner_iterations: usize_field("inner_iterations")?,
            outer_residual: f64_field("outer_residual")?,
        }),
        "kernel_counters" => Ok(Event::KernelCounters {
            counters: KernelCounters {
                subproblems: u64_field("subproblems")?,
                breakpoints_scanned: u64_field("breakpoints_scanned")?,
                quickselect_pivots: u64_field("quickselect_pivots")?,
                boxed_clamps: u64_field("boxed_clamps")?,
            },
        }),
        "fallback_triggered" => Ok(Event::FallbackTriggered {
            iteration: usize_field("iteration")?,
            phase: label_field("phase")?,
            count: u64_field("count")?,
        }),
        "checkpoint_written" => Ok(Event::CheckpointWritten {
            iteration: usize_field("iteration")?,
            path: str_field("path")?,
        }),
        "supervisor_stop" => Ok(Event::SupervisorStop {
            iteration: usize_field("iteration")?,
            reason: intern_stop_reason(&str_field("reason")?)?,
        }),
        "batch_start" => Ok(Event::BatchStart {
            instances: usize_field("instances")?,
            parallelism: str_field("parallelism")?,
        }),
        "batch_instance" => Ok(Event::BatchInstance {
            index: usize_field("index")?,
            id: str_field("id")?,
            family: match value.get("family") {
                None | Some(JsonValue::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .map(str::to_string)
                        .ok_or("ill-typed field \"family\"")?,
                ),
            },
            cache: intern_cache_outcome(&str_field("cache")?)?,
            kernel_work: u64_field("kernel_work")?,
            work_saved: u64_field("work_saved")?,
        }),
        "batch_end" => Ok(Event::BatchEnd {
            instances: usize_field("instances")?,
            converged: usize_field("converged")?,
            cache_hits: usize_field("cache_hits")?,
            cache_misses: usize_field("cache_misses")?,
            kernel_work: u64_field("kernel_work")?,
            work_saved: u64_field("work_saved")?,
            seconds: f64_field("seconds")?,
        }),
        "solve_end" => Ok(Event::SolveEnd {
            iterations: usize_field("iterations")?,
            converged: value
                .get("converged")
                .and_then(JsonValue::as_bool)
                .ok_or("missing bool field \"converged\"")?,
            residual: f64_field("residual")?,
            objective: f64_field("objective")?,
            dual_value: opt_f64_field("dual_value")?,
            seconds: f64_field("seconds")?,
        }),
        other => Err(format!("unknown event type {other:?}")),
    }
}

/// Parse a whole JSONL document (blank lines skipped) into events.
///
/// # Errors
/// Returns the 1-based line number alongside the decode error.
pub fn parse_events(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event = decode_event(line).map_err(|e| format!("line {}: {}", i + 1, e))?;
        events.push(event);
    }
    Ok(events)
}

// The in-memory Event uses &'static str for fields drawn from small closed
// vocabularies (so the hot emit path never allocates). Decoding interns
// the wire strings back onto those vocabularies.

fn intern_solver(s: &str) -> Result<&'static str, String> {
    intern(s, &["diagonal", "general", "bounded"], "solver")
}

fn intern_kernel(s: &str) -> Result<&'static str, String> {
    intern(s, &["sortscan", "quickselect"], "kernel")
}

fn intern_criterion(s: &str) -> Result<&'static str, String> {
    intern(
        s,
        &["max_abs_change", "relative_row_balance", "constraint_norm"],
        "criterion",
    )
}

fn intern_stop_reason(s: &str) -> Result<&'static str, String> {
    intern(
        s,
        &[
            "converged",
            "iteration_cap",
            "deadline_exceeded",
            "work_cap_exceeded",
            "cancelled",
            "stagnated",
            "breakdown",
        ],
        "stop reason",
    )
}

fn intern_cache_outcome(s: &str) -> Result<&'static str, String> {
    intern(s, &["hit", "miss", "bypass"], "cache outcome")
}

fn intern(s: &str, vocab: &[&'static str], what: &str) -> Result<&'static str, String> {
    vocab
        .iter()
        .copied()
        .find(|v| *v == s)
        .ok_or_else(|| format!("unknown {what} {s:?}"))
}

/// A streaming sink: writes one JSONL line per event to a `Write`.
///
/// Wrap the inner writer in a `BufWriter` for file sinks. The observer is
/// durable against abnormal exits: it flushes the writer after every
/// event, so a cancelled or crashed solve keeps its event-log tail up to
/// the last completed line — every line written is complete and parseable.
#[derive(Debug)]
pub struct JsonlObserver<W: Write> {
    writer: W,
    /// First I/O error encountered, if any. Events after an error are
    /// dropped; solvers are never interrupted by a sink failure.
    error: Option<std::io::Error>,
    line: String,
}

impl<W: Write> JsonlObserver<W> {
    /// Wrap a writer, flushing after every event.
    pub fn new(writer: W) -> Self {
        JsonlObserver {
            writer,
            error: None,
            line: String::new(),
        }
    }

    /// Flush and return the writer, or the first I/O error seen.
    ///
    /// # Errors
    /// Returns the first write/flush failure.
    pub fn finish(mut self) -> Result<W, std::io::Error> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> crate::Observer for JsonlObserver<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        event_to_json(event).write(&mut self.line);
        self.line.push('\n');
        let wrote = self
            .writer
            .write_all(self.line.as_bytes())
            .and_then(|()| self.writer.flush());
        if let Err(e) = wrote {
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observer;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::SolveStart {
                solver: "diagonal",
                rows: 3,
                cols: 4,
                kernel: "quickselect",
                parallelism: "rayon:4".to_string(),
                criterion: "max_abs_change",
            },
            Event::PhaseStart {
                label: PhaseLabel::RowEquilibration,
                tasks: 3,
            },
            Event::PhaseEnd {
                label: PhaseLabel::RowEquilibration,
                tasks: 3,
                seconds: 0.25,
                task_seconds: vec![0.1, 0.05, 0.1],
            },
            Event::ConvergenceCheck {
                iteration: 2,
                residual: 1e-3,
                dual_value: Some(-4.5),
                criterion: "max_abs_change",
            },
            Event::ConvergenceCheck {
                iteration: 4,
                residual: f64::INFINITY,
                dual_value: None,
                criterion: "max_abs_change",
            },
            Event::MultiplierBound {
                iteration: 4,
                shifted: 2,
                bound: 100.0,
            },
            Event::OuterIteration {
                iteration: 1,
                inner_iterations: 12,
                outer_residual: 0.5,
            },
            Event::KernelCounters {
                counters: KernelCounters {
                    subproblems: 14,
                    breakpoints_scanned: 120,
                    quickselect_pivots: 33,
                    boxed_clamps: 2,
                },
            },
            Event::FallbackTriggered {
                iteration: 3,
                phase: PhaseLabel::ColumnEquilibration,
                count: 2,
            },
            Event::CheckpointWritten {
                iteration: 4,
                path: "/tmp/run.ckpt".to_string(),
            },
            Event::SupervisorStop {
                iteration: 5,
                reason: "deadline_exceeded",
            },
            Event::SolveEnd {
                iterations: 6,
                converged: true,
                residual: 1e-7,
                objective: 12.5,
                dual_value: Some(12.5),
                seconds: 0.75,
            },
            Event::BatchStart {
                instances: 3,
                parallelism: "outer:4".to_string(),
            },
            Event::BatchInstance {
                index: 0,
                id: "q1".to_string(),
                family: Some("quarterly".to_string()),
                cache: "hit",
                kernel_work: 120,
                work_saved: 480,
            },
            Event::BatchInstance {
                index: 1,
                id: "adhoc".to_string(),
                family: None,
                cache: "bypass",
                kernel_work: 600,
                work_saved: 0,
            },
            Event::BatchEnd {
                instances: 3,
                converged: 3,
                cache_hits: 1,
                cache_misses: 1,
                kernel_work: 1320,
                work_saved: 480,
                seconds: 0.9,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for event in sample_events() {
            let line = encode_event(&event);
            let back = decode_event(&line).unwrap();
            // NaN-bearing events can't use PartialEq; none in the sample
            // set, so plain equality is fine.
            assert_eq!(back, event, "line: {line}");
        }
    }

    #[test]
    fn observer_streams_lines_and_parses_back() {
        let events = sample_events();
        let mut obs = JsonlObserver::new(Vec::new());
        for e in &events {
            obs.record(e);
        }
        let bytes = obs.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), events.len());
        assert_eq!(parse_events(&text).unwrap(), events);
    }

    #[test]
    fn parse_events_skips_blank_lines_and_reports_line_numbers() {
        let good = encode_event(&Event::PhaseStart {
            label: PhaseLabel::Projection,
            tasks: 8,
        });
        let text = format!("{good}\n\n{good}\n");
        assert_eq!(parse_events(&text).unwrap().len(), 2);

        let bad = format!("{good}\n{{\"type\":\"mystery\"}}\n");
        let err = parse_events(&bad).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn decode_rejects_missing_fields_and_unknown_vocab() {
        assert!(decode_event("{}").is_err());
        assert!(decode_event("{\"type\":\"phase_start\",\"tasks\":1}").is_err());
        assert!(
            decode_event("{\"type\":\"phase_start\",\"label\":\"warp_drive\",\"tasks\":1}")
                .is_err()
        );
        assert!(decode_event(
            "{\"type\":\"solve_start\",\"solver\":\"x\",\"rows\":1,\"cols\":1,\
             \"kernel\":\"sortscan\",\"parallelism\":\"serial\",\
             \"criterion\":\"max_abs_change\"}"
        )
        .is_err());
    }

    #[test]
    fn nan_residual_survives_encoding() {
        let event = Event::ConvergenceCheck {
            iteration: 1,
            residual: f64::NAN,
            dual_value: None,
            criterion: "constraint_norm",
        };
        let back = decode_event(&encode_event(&event)).unwrap();
        match back {
            Event::ConvergenceCheck { residual, .. } => assert!(residual.is_nan()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// Shared buffer writer that records how many flushes reached it, so
    /// tests can observe durability behavior through an abnormal drop.
    #[derive(Clone, Default)]
    struct SharedBuf(std::rc::Rc<std::cell::RefCell<(Vec<u8>, usize)>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.0.borrow_mut().1 += 1;
            Ok(())
        }
    }

    #[test]
    fn default_observer_flushes_after_every_event() {
        let buf = SharedBuf::default();
        let mut obs = JsonlObserver::new(buf.clone());
        for e in sample_events() {
            obs.record(&e);
        }
        let flushes = buf.0.borrow().1;
        assert_eq!(flushes, sample_events().len());
    }

    #[test]
    fn mid_solve_abort_leaves_parseable_jsonl() {
        // Simulate a solve that dies partway: the observer is dropped
        // without finish(), as happens when a panic or cancellation
        // unwinds past the sink. Every recorded event must still be on
        // disk as a complete, parseable line.
        let buf = SharedBuf::default();
        let events = sample_events();
        let recorded = 4;
        {
            let mut obs = JsonlObserver::new(buf.clone());
            for e in &events[..recorded] {
                obs.record(e);
            }
            // No finish(): abnormal exit path.
        }
        let text = String::from_utf8(buf.0.borrow().0.clone()).unwrap();
        assert_eq!(parse_events(&text).unwrap(), events[..recorded]);
    }

    #[test]
    fn sink_errors_are_latched_not_propagated() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut obs = JsonlObserver::new(FailingWriter);
        obs.record(&Event::PhaseStart {
            label: PhaseLabel::RowEquilibration,
            tasks: 1,
        });
        obs.record(&Event::PhaseStart {
            label: PhaseLabel::ColumnEquilibration,
            tasks: 1,
        });
        assert!(obs.finish().is_err());
    }
}
