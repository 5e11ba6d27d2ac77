//! In-memory metrics registry rendering the Prometheus text exposition
//! format, and a `MetricsObserver` that aggregates solver events into it.
//!
//! Exposition rules implemented (per the Prometheus text-format spec):
//! one `# HELP` / `# TYPE` header per metric family; families rendered in
//! registration order but *series within a family sorted by label set*;
//! label values escaped (`\\`, `\"`, `\n`); HELP text escaped (`\\`,
//! `\n`); histograms as cumulative `_bucket{le=...}` series ending in
//! `le="+Inf"` plus `_sum` and `_count`; non-finite sample values as
//! `+Inf` / `-Inf` / `NaN`.

use std::fmt::Write as _;

use crate::event::{Event, KernelCounters, PhaseLabel};
use crate::observer::Observer;
use crate::span::SpanKind;

/// A label set: `(name, value)` pairs, stored sorted by name.
pub type Labels = Vec<(String, String)>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricType {
    Counter,
    Gauge,
    Histogram,
}

impl MetricType {
    fn name(self) -> &'static str {
        match self {
            MetricType::Counter => "counter",
            MetricType::Gauge => "gauge",
            MetricType::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Histogram {
    /// Upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; `counts[i]` pairs
    /// with `bounds[i]`, and the final slot is the overflow (+Inf) bucket.
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            sum: 0.0,
            total: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += v;
        self.total += 1;
    }

    fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram series merged across different buckets"
        );
        for (c, d) in self.counts.iter_mut().zip(&other.counts) {
            *c += d;
        }
        self.sum += other.sum;
        self.total += other.total;
    }
}

#[derive(Debug, Clone)]
enum Sample {
    Scalar(f64),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Family {
    name: String,
    help: String,
    kind: MetricType,
    /// Series keyed by sorted label set; kept sorted by key for stable
    /// exposition output.
    series: Vec<(Labels, Sample)>,
}

impl Family {
    fn series_mut(&mut self, labels: Labels) -> &mut Sample {
        let labels = sorted_labels(labels);
        match self.series.binary_search_by(|(k, _)| k.cmp(&labels)) {
            Ok(i) => &mut self.series[i].1,
            Err(i) => {
                let sample = match self.kind {
                    MetricType::Histogram => {
                        unreachable!("histogram series created via observe()")
                    }
                    _ => Sample::Scalar(0.0),
                };
                self.series.insert(i, (labels, sample));
                &mut self.series[i].1
            }
        }
    }
}

fn sorted_labels(mut labels: Labels) -> Labels {
    labels.sort();
    labels
}

/// A registry of counter / gauge / histogram families.
///
/// Families render in registration order; series within a family render
/// sorted by label set, per the exposition-format convention.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: Vec<Family>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn family_mut(&mut self, name: &str, help: &str, kind: MetricType) -> &mut Family {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            assert_eq!(
                self.families[i].kind, kind,
                "metric {name:?} re-registered with a different type"
            );
            return &mut self.families[i];
        }
        self.families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            series: Vec::new(),
        });
        self.families.last_mut().unwrap()
    }

    /// Add `delta` (must be >= 0) to a counter series.
    pub fn counter_add(&mut self, name: &str, help: &str, labels: Labels, delta: f64) {
        debug_assert!(delta >= 0.0, "counters only go up");
        let sample = self
            .family_mut(name, help, MetricType::Counter)
            .series_mut(labels);
        if let Sample::Scalar(v) = sample {
            *v += delta;
        }
    }

    /// Set a gauge series to `value`.
    pub fn gauge_set(&mut self, name: &str, help: &str, labels: Labels, value: f64) {
        let sample = self
            .family_mut(name, help, MetricType::Gauge)
            .series_mut(labels);
        if let Sample::Scalar(v) = sample {
            *v = value;
        }
    }

    /// Record observations in a histogram series, looking it up once.
    /// `bounds` fixes the finite bucket upper bounds on first use of the
    /// series (later calls may pass the same or empty bounds). An empty
    /// `values` registers nothing.
    pub fn histogram_observe(
        &mut self,
        name: &str,
        help: &str,
        labels: Labels,
        bounds: &[f64],
        values: &[f64],
    ) {
        if values.is_empty() {
            return;
        }
        let family = self.family_mut(name, help, MetricType::Histogram);
        let labels = sorted_labels(labels);
        let idx = match family.series.binary_search_by(|(k, _)| k.cmp(&labels)) {
            Ok(i) => i,
            Err(i) => {
                family.series.insert(
                    i,
                    (labels, Sample::Histogram(Histogram::new(bounds.to_vec()))),
                );
                i
            }
        };
        if let Sample::Histogram(h) = &mut family.series[idx].1 {
            for &v in values {
                h.observe(v);
            }
        }
    }

    /// Fold `other` into this registry: counters add, gauges take
    /// `other`'s value, histograms add bucket counts, sum and count, and
    /// families new here register in `other`'s order. Merging a registry
    /// that recorded an event stream therefore renders what replaying
    /// that stream here would, except that float sums are added in a
    /// different order (equal whenever they are exact).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for theirs in &other.families {
            let family = self.family_mut(&theirs.name, &theirs.help, theirs.kind);
            let kind = family.kind;
            for (labels, sample) in &theirs.series {
                let i = match family.series.binary_search_by(|(k, _)| k.cmp(labels)) {
                    Ok(i) => i,
                    Err(i) => {
                        family.series.insert(i, (labels.clone(), sample.clone()));
                        continue;
                    }
                };
                match (&mut family.series[i].1, sample) {
                    (Sample::Scalar(v), Sample::Scalar(w)) if kind == MetricType::Counter => {
                        *v += w;
                    }
                    (Sample::Scalar(v), Sample::Scalar(w)) => *v = *w,
                    (Sample::Histogram(h), Sample::Histogram(g)) => h.merge(g),
                    _ => unreachable!("a family holds one sample type"),
                }
            }
        }
    }

    /// Render the whole registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for family in &self.families {
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.name());
            for (labels, sample) in &family.series {
                match sample {
                    Sample::Scalar(v) => {
                        write_sample(&mut out, &family.name, "", labels, None, *v);
                    }
                    Sample::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, bound) in h.bounds.iter().enumerate() {
                            cumulative += h.counts[i];
                            write_sample(
                                &mut out,
                                &family.name,
                                "_bucket",
                                labels,
                                Some(format_number(*bound)),
                                cumulative as f64,
                            );
                        }
                        cumulative += h.counts[h.bounds.len()];
                        write_sample(
                            &mut out,
                            &family.name,
                            "_bucket",
                            labels,
                            Some("+Inf".to_string()),
                            cumulative as f64,
                        );
                        write_sample(&mut out, &family.name, "_sum", labels, None, h.sum);
                        write_sample(
                            &mut out,
                            &family.name,
                            "_count",
                            labels,
                            None,
                            h.total as f64,
                        );
                    }
                }
            }
        }
        out
    }
}

fn write_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &Labels,
    le: Option<String>,
    value: f64,
) {
    out.push_str(name);
    out.push_str(suffix);
    let has_labels = !labels.is_empty() || le.is_some();
    if has_labels {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{}=\"{}\"", k, escape_label_value(v));
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "le=\"{le}\"");
        }
        out.push('}');
    }
    let _ = writeln!(out, " {}", format_number(value));
}

fn format_number(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Default bucket bounds (seconds) for phase-duration histograms: covers
/// microsecond knapsack passes through multi-second large solves.
pub const PHASE_SECONDS_BUCKETS: [f64; 10] =
    [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0];

/// Bucket bounds (seconds) for fine-grained shard / subproblem latency
/// histograms: individual knapsack subproblems run in nanoseconds to
/// microseconds, shards in microseconds to milliseconds.
pub const TASK_SECONDS_BUCKETS: [f64; 10] =
    [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0];

/// An observer that aggregates the event stream into a
/// [`MetricsRegistry`], ready to render after the solve.
#[derive(Debug, Default)]
pub struct MetricsObserver {
    /// The registry being populated.
    pub registry: MetricsRegistry,
}

impl MetricsObserver {
    /// An observer over an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Render the aggregated metrics (Prometheus text exposition format).
    pub fn render(&self) -> String {
        self.registry.render()
    }

    fn phase_labels(label: PhaseLabel) -> Labels {
        vec![("phase".to_string(), label.name().to_string())]
    }
}

impl Observer for MetricsObserver {
    fn record(&mut self, event: &Event) {
        let reg = &mut self.registry;
        match event {
            Event::Meta { .. } => {}
            Event::SolveStart { solver, kernel, .. } => {
                reg.counter_add(
                    "sea_solves_total",
                    "Solves started, by driver and kernel.",
                    vec![
                        ("solver".to_string(), (*solver).to_string()),
                        ("kernel".to_string(), (*kernel).to_string()),
                    ],
                    1.0,
                );
            }
            Event::PhaseStart { .. } => {}
            Event::PhaseEnd {
                label,
                seconds,
                task_seconds,
                ..
            } => {
                reg.histogram_observe(
                    "sea_subproblem_seconds",
                    "Per-task (knapsack subproblem) latency distribution.",
                    Self::phase_labels(*label),
                    &TASK_SECONDS_BUCKETS,
                    task_seconds,
                );
                reg.counter_add(
                    "sea_phase_total",
                    "Solver phases executed, by phase.",
                    Self::phase_labels(*label),
                    1.0,
                );
                reg.counter_add(
                    "sea_phase_seconds_total",
                    "Cumulative wall-clock seconds spent per phase.",
                    Self::phase_labels(*label),
                    seconds.max(0.0),
                );
                reg.histogram_observe(
                    "sea_phase_seconds",
                    "Per-phase wall-clock duration distribution.",
                    Self::phase_labels(*label),
                    &PHASE_SECONDS_BUCKETS,
                    &[*seconds],
                );
            }
            Event::ConvergenceCheck {
                residual,
                dual_value,
                ..
            } => {
                reg.counter_add(
                    "sea_convergence_checks_total",
                    "Convergence checks performed.",
                    vec![],
                    1.0,
                );
                reg.gauge_set(
                    "sea_residual",
                    "Residual at the most recent convergence check.",
                    vec![],
                    *residual,
                );
                if let Some(zeta) = dual_value {
                    reg.gauge_set(
                        "sea_dual_value",
                        "Dual objective at the most recent convergence check.",
                        vec![],
                        *zeta,
                    );
                }
            }
            Event::MultiplierBound { shifted, .. } => {
                reg.counter_add(
                    "sea_multiplier_bound_shifts_total",
                    "Dual multipliers projected back inside the bound.",
                    vec![],
                    *shifted as f64,
                );
            }
            Event::OuterIteration {
                inner_iterations, ..
            } => {
                reg.counter_add(
                    "sea_outer_iterations_total",
                    "Outer diagonalization iterations of the general solver.",
                    vec![],
                    1.0,
                );
                reg.counter_add(
                    "sea_inner_iterations_total",
                    "Inner SEA iterations across all outer steps.",
                    vec![],
                    *inner_iterations as f64,
                );
            }
            Event::KernelCounters { counters } => {
                let pairs: [(&str, u64); 4] = [
                    ("subproblems", counters.subproblems),
                    ("breakpoints_scanned", counters.breakpoints_scanned),
                    ("quickselect_pivots", counters.quickselect_pivots),
                    ("boxed_clamps", counters.boxed_clamps),
                ];
                for (which, value) in pairs {
                    // Counters arrive cumulative per solve; a gauge keyed
                    // by counter name reflects the latest snapshot.
                    reg.gauge_set(
                        "sea_kernel_work",
                        "Cumulative kernel work counters for the last solve.",
                        vec![("counter".to_string(), which.to_string())],
                        value as f64,
                    );
                }
            }
            Event::FallbackTriggered { phase, count, .. } => {
                reg.counter_add(
                    "sea_kernel_fallbacks_total",
                    "Subproblems that fell back from quickselect to sort-scan.",
                    Self::phase_labels(*phase),
                    *count as f64,
                );
            }
            Event::CheckpointWritten { iteration, .. } => {
                reg.counter_add(
                    "sea_checkpoints_written_total",
                    "Crash-safe checkpoint snapshots written.",
                    vec![],
                    1.0,
                );
                reg.gauge_set(
                    "sea_checkpoint_iteration",
                    "Iteration captured by the most recent checkpoint.",
                    vec![],
                    *iteration as f64,
                );
            }
            Event::SupervisorStop { reason, .. } => {
                reg.counter_add(
                    "sea_supervisor_stops_total",
                    "Solves stopped by the supervisor before convergence.",
                    vec![("reason".to_string(), (*reason).to_string())],
                    1.0,
                );
            }
            Event::BatchStart { instances, .. } => {
                reg.counter_add(
                    "sea_batch_solves_total",
                    "Batch solves started.",
                    vec![],
                    1.0,
                );
                reg.gauge_set(
                    "sea_batch_instances",
                    "Instances in the most recent batch.",
                    vec![],
                    *instances as f64,
                );
            }
            Event::BatchInstance {
                cache, work_saved, ..
            } => {
                reg.counter_add(
                    "sea_batch_cache_outcomes_total",
                    "Warm-start cache outcomes across batch instances.",
                    vec![("outcome".to_string(), (*cache).to_string())],
                    1.0,
                );
                reg.counter_add(
                    "sea_batch_work_saved_total",
                    "Kernel work saved by warm starts vs cold baselines.",
                    vec![],
                    *work_saved as f64,
                );
            }
            Event::BatchEnd {
                instances,
                converged,
                kernel_work,
                seconds,
                ..
            } => {
                reg.counter_add(
                    "sea_batch_instances_total",
                    "Instances solved across batches.",
                    vec![],
                    *instances as f64,
                );
                reg.counter_add(
                    "sea_batch_converged_total",
                    "Batch instances that converged.",
                    vec![],
                    *converged as f64,
                );
                reg.counter_add(
                    "sea_batch_kernel_work_total",
                    "Kernel work spent across batch instances.",
                    vec![],
                    *kernel_work as f64,
                );
                reg.counter_add(
                    "sea_batch_seconds_total",
                    "Cumulative wall-clock seconds across batch solves.",
                    vec![],
                    seconds.max(0.0),
                );
            }
            Event::SolveEnd {
                iterations,
                converged,
                seconds,
                ..
            } => {
                reg.counter_add(
                    "sea_solve_seconds_total",
                    "Cumulative wall-clock seconds across solves.",
                    vec![],
                    seconds.max(0.0),
                );
                reg.gauge_set(
                    "sea_iterations",
                    "Iterations used by the most recent solve.",
                    vec![],
                    *iterations as f64,
                );
                reg.gauge_set(
                    "sea_converged",
                    "1 when the most recent solve met its criterion, else 0.",
                    vec![],
                    if *converged { 1.0 } else { 0.0 },
                );
            }
        }
    }

    /// Metrics also consume span leaves so shard / batch-instance
    /// latency histograms populate when span signalling is on.
    fn spans_enabled(&self) -> bool {
        true
    }

    fn span_leaf(
        &mut self,
        kind: SpanKind,
        _index: u64,
        rel_start_ns: u64,
        rel_end_ns: u64,
        _tasks: u64,
        _counters: &KernelCounters,
        _detail: &'static str,
    ) {
        let seconds = rel_end_ns.saturating_sub(rel_start_ns) as f64 / 1e9;
        match kind {
            SpanKind::Shard => {
                self.registry.histogram_observe(
                    "sea_shard_seconds",
                    "Per-shard latency of parallel equilibration passes.",
                    vec![],
                    &TASK_SECONDS_BUCKETS,
                    &[seconds],
                );
            }
            SpanKind::Instance => {
                self.registry.histogram_observe(
                    "sea_instance_seconds",
                    "Per-instance latency inside batch solves.",
                    vec![],
                    &PHASE_SECONDS_BUCKETS,
                    &[seconds],
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_render_with_headers() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("jobs_total", "Jobs processed.", vec![], 3.0);
        reg.counter_add("jobs_total", "Jobs processed.", vec![], 2.0);
        reg.gauge_set("queue_depth", "Current queue depth.", vec![], 7.0);
        let text = reg.render();
        assert!(text.contains("# HELP jobs_total Jobs processed.\n"));
        assert!(text.contains("# TYPE jobs_total counter\n"));
        assert!(text.contains("jobs_total 5\n"));
        assert!(text.contains("# TYPE queue_depth gauge\n"));
        assert!(text.contains("queue_depth 7\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add(
            "weird_total",
            "Escaping test.",
            vec![("path".to_string(), "a\\b\"c\nd".to_string())],
            1.0,
        );
        let text = reg.render();
        assert!(
            text.contains(r#"weird_total{path="a\\b\"c\nd"} 1"#),
            "{text}"
        );
    }

    #[test]
    fn help_text_is_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("g", "line one\nline \\ two", vec![], 0.0);
        let text = reg.render();
        assert!(
            text.contains("# HELP g line one\\nline \\\\ two\n"),
            "{text}"
        );
    }

    #[test]
    fn series_sort_by_label_set_within_a_family() {
        let mut reg = MetricsRegistry::new();
        let mk = |v: &str| vec![("phase".to_string(), v.to_string())];
        reg.counter_add("p_total", "h", mk("row"), 1.0);
        reg.counter_add("p_total", "h", mk("column"), 1.0);
        reg.counter_add("p_total", "h", mk("check"), 1.0);
        let text = reg.render();
        let check = text.find("phase=\"check\"").unwrap();
        let column = text.find("phase=\"column\"").unwrap();
        let row = text.find("phase=\"row\"").unwrap();
        assert!(check < column && column < row, "{text}");
    }

    #[test]
    fn label_names_are_sorted_within_a_series() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add(
            "m_total",
            "h",
            vec![
                ("zeta".to_string(), "1".to_string()),
                ("alpha".to_string(), "2".to_string()),
            ],
            1.0,
        );
        let text = reg.render();
        assert!(text.contains("m_total{alpha=\"2\",zeta=\"1\"} 1"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_with_inf() {
        let mut reg = MetricsRegistry::new();
        let bounds = [0.1, 1.0, 10.0];
        reg.histogram_observe("lat", "Latency.", vec![], &bounds, &[0.05, 0.5]);
        reg.histogram_observe("lat", "Latency.", vec![], &bounds, &[0.5, 5.0, 50.0]);
        let text = reg.render();
        assert!(text.contains("# TYPE lat histogram\n"));
        assert!(text.contains("lat_bucket{le=\"0.1\"} 1\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"1\"} 3\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"10\"} 4\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 5\n"), "{text}");
        assert!(text.contains("lat_sum 56.05\n"), "{text}");
        assert!(text.contains("lat_count 5\n"), "{text}");
        // Bucket lines precede _sum and _count.
        assert!(text.find("lat_bucket").unwrap() < text.find("lat_sum").unwrap());
        assert!(text.find("lat_sum").unwrap() < text.find("lat_count").unwrap());
    }

    #[test]
    fn histogram_with_labels_merges_le_last() {
        let mut reg = MetricsRegistry::new();
        reg.histogram_observe(
            "d",
            "h",
            vec![("phase".to_string(), "row".to_string())],
            &[1.0],
            &[0.5],
        );
        let text = reg.render();
        assert!(
            text.contains("d_bucket{phase=\"row\",le=\"1\"} 1"),
            "{text}"
        );
        assert!(text.contains("d_sum{phase=\"row\"} 0.5"), "{text}");
        assert!(text.contains("d_count{phase=\"row\"} 1"), "{text}");
    }

    #[test]
    fn non_finite_sample_values_render_as_inf_nan() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("a", "h", vec![], f64::INFINITY);
        reg.gauge_set("b", "h", vec![], f64::NEG_INFINITY);
        reg.gauge_set("c", "h", vec![], f64::NAN);
        let text = reg.render();
        assert!(text.contains("a +Inf\n"), "{text}");
        assert!(text.contains("b -Inf\n"), "{text}");
        assert!(text.contains("c NaN\n"), "{text}");
    }

    #[test]
    fn families_render_once_in_registration_order() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("z_total", "h", vec![], 1.0);
        reg.counter_add("a_total", "h", vec![], 1.0);
        reg.counter_add("z_total", "h", vec![], 1.0);
        let text = reg.render();
        assert_eq!(text.matches("# TYPE z_total counter").count(), 1);
        assert!(
            text.find("z_total").unwrap() < text.find("a_total").unwrap(),
            "{text}"
        );
    }

    #[test]
    fn metrics_observer_aggregates_batch_events() {
        let mut obs = MetricsObserver::new();
        obs.record(&Event::BatchStart {
            instances: 3,
            parallelism: "outer".to_string(),
        });
        obs.record(&Event::BatchInstance {
            index: 0,
            id: "a".to_string(),
            family: Some("f".to_string()),
            cache: "hit",
            kernel_work: 100,
            work_saved: 400,
        });
        obs.record(&Event::BatchInstance {
            index: 1,
            id: "b".to_string(),
            family: Some("f".to_string()),
            cache: "miss",
            kernel_work: 500,
            work_saved: 0,
        });
        obs.record(&Event::BatchEnd {
            instances: 3,
            converged: 2,
            cache_hits: 1,
            cache_misses: 1,
            kernel_work: 600,
            work_saved: 400,
            seconds: 0.5,
        });
        let text = obs.render();
        assert!(text.contains("sea_batch_solves_total 1"), "{text}");
        assert!(text.contains("sea_batch_instances 3"), "{text}");
        assert!(
            text.contains("sea_batch_cache_outcomes_total{outcome=\"hit\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("sea_batch_cache_outcomes_total{outcome=\"miss\"} 1"),
            "{text}"
        );
        assert!(text.contains("sea_batch_work_saved_total 400"), "{text}");
        assert!(text.contains("sea_batch_converged_total 2"), "{text}");
        assert!(text.contains("sea_batch_kernel_work_total 600"), "{text}");
        assert!(text.contains("sea_batch_seconds_total 0.5"), "{text}");
    }

    #[test]
    fn metrics_observer_aggregates_solver_events() {
        use crate::event::KernelCounters;
        let mut obs = MetricsObserver::new();
        obs.record(&Event::SolveStart {
            solver: "diagonal",
            rows: 2,
            cols: 2,
            kernel: "sortscan",
            parallelism: "serial".to_string(),
            criterion: "max_abs_change",
        });
        for _ in 0..3 {
            obs.record(&Event::PhaseEnd {
                label: PhaseLabel::RowEquilibration,
                tasks: 2,
                seconds: 0.25,
                task_seconds: vec![],
            });
        }
        obs.record(&Event::ConvergenceCheck {
            iteration: 3,
            residual: 1e-4,
            dual_value: Some(2.0),
            criterion: "max_abs_change",
        });
        obs.record(&Event::KernelCounters {
            counters: KernelCounters {
                subproblems: 6,
                breakpoints_scanned: 40,
                quickselect_pivots: 0,
                boxed_clamps: 0,
            },
        });
        obs.record(&Event::SolveEnd {
            iterations: 3,
            converged: true,
            residual: 1e-4,
            objective: 1.0,
            dual_value: Some(1.0),
            seconds: 1.5,
        });
        let text = obs.render();
        assert!(
            text.contains("sea_solves_total{kernel=\"sortscan\",solver=\"diagonal\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("sea_phase_total{phase=\"row_equilibration\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("sea_phase_seconds_total{phase=\"row_equilibration\"} 0.75"),
            "{text}"
        );
        assert!(text.contains("sea_residual 0.0001"), "{text}");
        assert!(text.contains("sea_dual_value 2"), "{text}");
        assert!(
            text.contains("sea_kernel_work{counter=\"subproblems\"} 6"),
            "{text}"
        );
        assert!(text.contains("sea_converged 1"), "{text}");
        assert!(text.contains("sea_iterations 3"), "{text}");
        assert!(
            text.contains("sea_phase_seconds_bucket{phase=\"row_equilibration\",le=\"0.5\"} 3"),
            "{text}"
        );
    }
}
