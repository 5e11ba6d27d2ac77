//! Subcommand implementations.

use crate::args::{BatchOpts, Command, CommonOpts, USAGE};
use crate::csv;
use crate::exit::CliError;
use crate::manifest::{build_gamma, manifest_instance, result_line, weight_scheme};
use crate::sigint;
use sea_baselines::ras::{ras_balance, RasOptions};
use sea_batch::{BatchEngine, BatchOptions};
use sea_core::{
    solve_diagonal_supervised, Checkpoint, CheckpointPolicy, DiagonalProblem, Event,
    KernelCounters, Observer, PhaseLabel, SeaOptions, SpanKind, StopReason, Storage,
    SupervisorOptions, TelemetrySample, TotalSpec, ZeroPolicy,
};
use sea_linalg::{CsrMatrix, DenseMatrix};
use sea_observe::json::parse as parse_json;
use sea_observe::jsonl::{parse_events, JsonlObserver};
use sea_observe::metrics::MetricsObserver;
use sea_observe::{
    chrome_trace, folded_stacks, parse_chrome_trace, ConvergenceEstimator, SpanProfiler,
};
use sea_parsim::SimPhase;
use sea_report::{SolveSummary, SpanBreakdown};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Rate-limited single-line progress display: overwrites one stderr line
/// (`\r`, no newline) with the latest iteration, residual, and — once the
/// estimator has enough samples — the fitted convergence rate and an ETA.
/// The line ends on the last check the solve made.
#[derive(Debug)]
struct ProgressLine {
    /// Residual target the ETA projects to (the solve's epsilon).
    target: f64,
    /// Recent telemetry tail the rate fit runs over.
    samples: Vec<TelemetrySample>,
    last_emit: Option<Instant>,
    /// Whether the newest sample is the one on screen.
    painted: bool,
}

impl ProgressLine {
    /// Minimum wall time between repaints, so tight solves don't turn
    /// the progress line into a stderr firehose.
    const MIN_REPAINT: Duration = Duration::from_millis(100);
    /// Samples kept for the rate fit; the estimator only reads a tail.
    const KEEP: usize = 64;

    fn new(target: f64) -> Self {
        Self {
            target,
            samples: Vec::with_capacity(Self::KEEP),
            last_emit: None,
            painted: false,
        }
    }

    fn observe(&mut self, sample: &TelemetrySample) {
        if self.samples.len() == Self::KEEP {
            self.samples.drain(..Self::KEEP / 2);
        }
        self.samples.push(*sample);
        self.painted = false;
        let now = Instant::now();
        if self
            .last_emit
            .is_some_and(|t| now.duration_since(t) < Self::MIN_REPAINT)
        {
            return;
        }
        self.last_emit = Some(now);
        self.paint();
    }

    /// Overwrite the line with the newest sample.
    fn paint(&mut self) {
        let Some(sample) = self.samples.last() else {
            return;
        };
        let mut line = format!(
            "\r# iter {:>6}  residual {:9.3e}",
            sample.iteration, sample.residual
        );
        if let Some(eta) = ConvergenceEstimator::estimate(&self.samples, self.target) {
            line.push_str(&format!(
                "  rate {:.4}  eta {:.1}s ({:.0} iters)",
                eta.rate, eta.seconds_remaining, eta.iterations_remaining
            ));
        }
        let mut err = std::io::stderr();
        let _ = err.write_all(line.as_bytes());
        let _ = err.flush();
        self.painted = true;
    }

    /// Repaint the last sample if the throttle skipped it, then terminate
    /// the overwritten line so the report prints cleanly below.
    fn finish(&mut self) {
        if !self.painted {
            self.paint();
        }
        if self.painted {
            let _ = writeln!(std::io::stderr());
        }
    }
}

/// The CLI's composite sink: an optional JSONL stream, an optional
/// metrics aggregator, an optional span profiler, and an optional TTY
/// progress line. With none requested both `enabled` and `spans_enabled`
/// report false, so the solver takes its zero-overhead path.
#[derive(Debug, Default)]
struct CliObserver {
    jsonl: Option<JsonlObserver<BufWriter<File>>>,
    metrics: Option<MetricsObserver>,
    spans: Option<SpanProfiler>,
    progress: Option<ProgressLine>,
}

impl Observer for CliObserver {
    fn enabled(&self) -> bool {
        self.jsonl.is_some() || self.metrics.is_some()
    }

    fn record(&mut self, event: &Event) {
        if let Some(j) = &mut self.jsonl {
            j.record(event);
        }
        if let Some(m) = &mut self.metrics {
            m.record(event);
        }
    }

    fn spans_enabled(&self) -> bool {
        // Progress rides the telemetry stream and metrics histograms ride
        // span leaves, so either one also turns span signalling on.
        self.spans.is_some()
            || self.progress.is_some()
            || self.metrics.as_ref().is_some_and(Observer::spans_enabled)
    }

    fn span_open(&mut self, kind: SpanKind, index: u64, tasks: u64) {
        if let Some(p) = &mut self.spans {
            p.span_open(kind, index, tasks);
        }
        if let Some(m) = &mut self.metrics {
            m.span_open(kind, index, tasks);
        }
    }

    fn span_close(&mut self, self_counters: &KernelCounters) {
        if let Some(p) = &mut self.spans {
            p.span_close(self_counters);
        }
        if let Some(m) = &mut self.metrics {
            m.span_close(self_counters);
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
        if let Some(p) = &mut self.spans {
            p.span_leaf(
                kind,
                index,
                rel_start_ns,
                rel_end_ns,
                tasks,
                counters,
                detail,
            );
        }
        if let Some(m) = &mut self.metrics {
            m.span_leaf(
                kind,
                index,
                rel_start_ns,
                rel_end_ns,
                tasks,
                counters,
                detail,
            );
        }
    }

    fn telemetry(&mut self, sample: &TelemetrySample) {
        if let Some(pr) = &mut self.progress {
            pr.observe(sample);
        }
    }
}

/// Flush the profiler's ring to the requested export files, appending a
/// `# spans:` / `# flamegraph:` trailer line per file written.
fn export_spans(
    profiler: &SpanProfiler,
    trace_spans: Option<&Path>,
    flamegraph: Option<&Path>,
    notes: &mut String,
) -> Result<(), CliError> {
    let spans = profiler.spans();
    if let Some(path) = trace_spans {
        let mut doc = chrome_trace(&spans, profiler.dropped()).render();
        doc.push('\n');
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push_str(&format!(
            "# spans: {} ({} spans, {} dropped)\n",
            path.display(),
            spans.len(),
            profiler.dropped()
        ));
    }
    if let Some(path) = flamegraph {
        std::fs::write(path, folded_stacks(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push_str(&format!("# flamegraph: {}\n", path.display()));
    }
    Ok(())
}

fn load_matrix(path: &Path) -> Result<DenseMatrix, CliError> {
    csv::read_matrix(path).map_err(|e| format!("{}: {e}", path.display()).into())
}

fn load_vector(path: &Path, expected: usize, what: &str) -> Result<Vec<f64>, CliError> {
    let v = csv::read_vector(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if v.len() != expected {
        return Err(format!(
            "{}: expected {expected} {what}, found {}",
            path.display(),
            v.len()
        )
        .into());
    }
    Ok(v)
}

fn emit(common: &CommonOpts, x: &DenseMatrix) -> Result<String, CliError> {
    match &common.out {
        Some(path) => {
            csv::write_matrix(path, x).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(format!("wrote {}\n", path.display()))
        }
        None => Ok(csv::matrix_to_csv(x)),
    }
}

/// Translate the CLI's robustness flags into supervisor configuration.
fn supervisor_from(common: &CommonOpts) -> Result<SupervisorOptions, CliError> {
    let mut sup = SupervisorOptions {
        cancel: sigint::cancel_token(),
        ..SupervisorOptions::default()
    };
    sup.budget.deadline = common.deadline.map(Duration::from_secs_f64);
    if let Some(path) = &common.checkpoint {
        sup.checkpoint = Some(CheckpointPolicy {
            path: path.clone(),
            every: common.checkpoint_every,
        });
    }
    if let Some(path) = &common.resume {
        let ck = Checkpoint::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
        if ck.solver != "diagonal" {
            return Err(format!(
                "{}: checkpoint is for the {:?} solver, not the diagonal solver",
                path.display(),
                ck.solver
            )
            .into());
        }
        // The solver validates the checkpoint's lengths against the problem
        // and restarts from its multipliers and extrapolation history.
        sup.resume = Some(ck);
    }
    Ok(sup)
}

/// Route a built dense problem through the storage backend the user asked
/// for. The sparse image shares the dense problem's feasible set (see
/// [`DiagonalProblem::from_dense_problem`]), so both backends print the
/// same estimate.
fn solve_with_storage(common: &CommonOpts, problem: &DiagonalProblem) -> Result<String, CliError> {
    if common.storage == "sparse" {
        let sp =
            DiagonalProblem::<CsrMatrix>::from_dense_problem(problem).map_err(CliError::Solver)?;
        solve_and_emit(common, &sp)
    } else {
        solve_and_emit(common, problem)
    }
}

fn solve_and_emit<S: Storage>(
    common: &CommonOpts,
    problem: &DiagonalProblem<S>,
) -> Result<String, CliError> {
    let mut opts = SeaOptions::with_epsilon(common.epsilon);
    opts.kernel = common.kernel;
    if let Some(n) = common.max_iterations {
        opts.max_iterations = n;
    }
    let sup = supervisor_from(common)?;
    let mut obs = CliObserver {
        jsonl: match &common.observe {
            Some(path) => {
                let f = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
                Some(JsonlObserver::new(BufWriter::new(f)))
            }
            None => None,
        },
        metrics: common.metrics.as_ref().map(|_| MetricsObserver::new()),
        spans: (common.trace_spans.is_some() || common.flamegraph.is_some())
            .then(SpanProfiler::new),
        progress: common.progress.then(|| ProgressLine::new(common.epsilon)),
    };
    let sup_sol = solve_diagonal_supervised(problem, &opts, &sup, &mut obs);
    if let Some(p) = &mut obs.progress {
        // Terminate the overwritten stderr line before any report prints,
        // whether the solve converged, stopped, or failed.
        p.finish();
    }
    // Flush every sink before looking at the outcome, so a failed or
    // stopped solve still leaves its log, metrics and trace behind for
    // diagnosis.
    let mut sink_notes = String::new();
    if let Some(jsonl) = obs.jsonl.take() {
        let path = common.observe.as_ref().expect("observe path set");
        jsonl
            .finish()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        sink_notes.push_str(&format!("# events: {}\n", path.display()));
    }
    if let Some(metrics) = obs.metrics.take() {
        let path = common.metrics.as_ref().expect("metrics path set");
        std::fs::write(path, metrics.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        sink_notes.push_str(&format!("# metrics: {}\n", path.display()));
    }
    if let Some(profiler) = obs.spans.take() {
        export_spans(
            &profiler,
            common.trace_spans.as_deref(),
            common.flamegraph.as_deref(),
            &mut sink_notes,
        )?;
    }
    let sup_sol = sup_sol.map_err(CliError::Solver)?;
    let sol = &sup_sol.solution;
    if let Some(err) = &sup_sol.checkpoint_error {
        sink_notes.push_str(&format!("# checkpoint write failed: {err}\n"));
    }
    if sup_sol.kernel_fallbacks > 0 {
        sink_notes.push_str(&format!(
            "# kernel fallbacks to sort-scan: {}\n",
            sup_sol.kernel_fallbacks
        ));
    }
    if sup_sol.stop != StopReason::Converged {
        // Emit the partial estimate with an honesty stamp: why the solve
        // stopped plus the KKT residuals of the returned iterate. The
        // process still exits with the stop reason's code.
        let cert = &sup_sol.certificate;
        let x = sol.x.to_dense().map_err(CliError::Solver)?;
        let mut report = emit(common, &x)?;
        report.push_str(&format!(
            "# stopped: {} after {} iterations; residual {:.3e}\n",
            sup_sol.stop.name(),
            sol.stats.iterations,
            sol.stats.residual
        ));
        report.push_str(&format!(
            "# kkt: stationarity {:.3e}; sign {:.3e}; row residual {:.3e}; \
             col residual {:.3e}; duality gap {:.3e}\n",
            cert.max_stationarity,
            cert.max_sign_violation,
            cert.residuals.row_inf,
            cert.residuals.col_inf,
            cert.duality_gap
        ));
        report.push_str(&sink_notes);
        return Err(CliError::Stopped {
            reason: sup_sol.stop,
            report,
        });
    }
    let x = sol.x.to_dense().map_err(CliError::Solver)?;
    let mut report = emit(common, &x)?;
    report.push_str(&format!(
        "# converged in {} iterations; objective {:.6e}; max row residual {:.3e}\n",
        sol.stats.iterations, sol.stats.objective, sol.stats.residuals.row_inf
    ));
    report.push_str(&sink_notes);
    Ok(report)
}

/// The `batch` subcommand: solve a JSONL manifest of instances through
/// one engine, streaming a result line per instance plus a summary.
fn run_batch(manifest: &Path, opts: &BatchOpts) -> Result<String, CliError> {
    let text =
        std::fs::read_to_string(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let mut instances = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        instances.push(manifest_instance(i + 1, t)?);
    }
    if instances.is_empty() {
        return Err(format!("{}: manifest holds no instances", manifest.display()).into());
    }

    let mut bopts = BatchOptions {
        epsilon: opts.epsilon,
        kernel: opts.kernel,
        parallelism: opts.parallel,
        warm_start: opts.warm_start,
        ..BatchOptions::default()
    };
    if let Some(cap) = opts.max_iterations {
        bopts.max_iterations = cap;
    }
    bopts.supervisor.cancel = sigint::cancel_token();
    bopts.supervisor.budget.deadline = opts.deadline.map(Duration::from_secs_f64);

    let mut obs = CliObserver {
        jsonl: match &opts.observe {
            Some(path) => {
                let f = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
                Some(JsonlObserver::new(BufWriter::new(f)))
            }
            None => None,
        },
        metrics: opts.metrics.as_ref().map(|_| MetricsObserver::new()),
        spans: (opts.trace_spans.is_some() || opts.flamegraph.is_some()).then(SpanProfiler::new),
        progress: None,
    };
    let mut engine = BatchEngine::new(bopts);
    let batch = engine.solve_batch(&instances, &mut obs);

    let mut lines = String::new();
    for item in &batch.items {
        lines.push_str(&result_line(item));
        lines.push('\n');
    }
    let mut report = match &opts.out {
        Some(path) => {
            std::fs::write(path, &lines).map_err(|e| format!("{}: {e}", path.display()))?;
            format!("wrote {}\n", path.display())
        }
        None => lines,
    };
    if let Some(jsonl) = obs.jsonl.take() {
        let path = opts.observe.as_ref().expect("observe path set");
        jsonl
            .finish()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.push_str(&format!("# events: {}\n", path.display()));
    }
    if let Some(metrics) = obs.metrics.take() {
        let path = opts.metrics.as_ref().expect("metrics path set");
        std::fs::write(path, metrics.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        report.push_str(&format!("# metrics: {}\n", path.display()));
    }
    if let Some(profiler) = obs.spans.take() {
        export_spans(
            &profiler,
            opts.trace_spans.as_deref(),
            opts.flamegraph.as_deref(),
            &mut report,
        )?;
    }
    report.push_str(&format!(
        "# batch: {} instances, {} converged, cache {} hit / {} miss, \
         kernel work {}, saved {}, {:.3}s\n",
        batch.items.len(),
        batch.converged,
        batch.cache_hits,
        batch.cache_misses,
        batch.kernel_work,
        batch.work_saved,
        batch.elapsed.as_secs_f64()
    ));

    // Exit contract: the first errored instance's typed code wins, then
    // the first non-converged stop's code, then 0. Non-converged batches
    // still carry the full per-instance report as partial output.
    if let Some(e) = batch.items.iter().find_map(|i| i.outcome.as_ref().err()) {
        return Err(CliError::Solver(e.clone()));
    }
    if let Some(stop) = batch
        .items
        .iter()
        .filter_map(|i| i.outcome.as_ref().ok())
        .map(|s| s.stop())
        .find(|s| *s != StopReason::Converged)
    {
        return Err(CliError::Stopped {
            reason: stop,
            report,
        });
    }
    Ok(report)
}

/// Convert a recorded event stream into simulator phases, one per
/// `PhaseEnd` in log order. A phase's tasks are its per-task costs, or,
/// when the event carries none, one task of the phase's wall time. Serial
/// phases (convergence checks) stay serial, the projection's dense
/// mat-vec is memory-bound on a shared-memory machine, and the row/column
/// passes scale compute-bound.
pub fn trace_to_sim_phases(events: &[Event]) -> Vec<SimPhase> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::PhaseEnd {
                label,
                seconds,
                task_seconds,
                ..
            } => {
                let tasks = if task_seconds.is_empty() {
                    vec![*seconds]
                } else {
                    task_seconds.clone()
                };
                Some(match label {
                    l if !l.is_parallel() => SimPhase::serial(tasks),
                    PhaseLabel::Projection => SimPhase::parallel_memory_bound(tasks),
                    _ => SimPhase::parallel(tasks),
                })
            }
            _ => None,
        })
        .collect()
}

/// Convert measured span phases into simulator phases. Serial phases
/// stay serial; the projection's clamp sweep is memory-bound like the
/// event-trace replay treats it; everything else scales compute-bound.
fn span_phases_to_sim(phases: &[sea_report::SpanPhase]) -> Vec<SimPhase> {
    phases
        .iter()
        .map(|ph| match ph.kind {
            _ if ph.serial => SimPhase::serial(ph.tasks.clone()),
            sea_core::SpanKind::Projection => SimPhase::parallel_memory_bound(ph.tasks.clone()),
            _ => SimPhase::parallel(ph.tasks.clone()),
        })
        .collect()
}

fn report_from_log(
    events_path: Option<&Path>,
    spans_path: Option<&Path>,
    processors: Option<usize>,
) -> Result<String, CliError> {
    let mut out = String::new();
    let mut events = None;
    if let Some(path) = events_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let evs = parse_events(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push_str(&SolveSummary::from_events(&evs).render());
        events = Some(evs);
    }
    let mut measured = None;
    if let Some(path) = spans_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let spans = parse_chrome_trace(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&SpanBreakdown::from_spans(&spans).render());
        measured = Some(spans);
    }
    if let Some(n) = processors {
        // Prefer measured span phases over the coarser event-trace replay:
        // real per-shard timings feed the simulator instead of per-phase
        // wall time split evenly across tasks.
        let (phases, title) = match (&measured, &events) {
            (Some(spans), _) => (
                span_phases_to_sim(&SpanBreakdown::phases(spans)),
                "Simulated replay (measured span phases)",
            ),
            (None, Some(evs)) => (trace_to_sim_phases(evs), "Simulated replay"),
            (None, None) => unreachable!("report requires --events or --spans"),
        };
        // Powers of two up to N, always ending at N itself.
        let mut counts = vec![1usize];
        let mut p = 2;
        while p < n {
            counts.push(p);
            p *= 2;
        }
        if n > 1 {
            counts.push(n);
        }
        let rows = sea_parsim::speedup_table(&phases, &counts, 0.0, 0.0);
        let mut table = sea_report::Table::new(title, &["N", "T_N (s)", "S_N", "E_N"]);
        for r in &rows {
            table.push_row(vec![
                r.processors.to_string(),
                sea_report::fmt_seconds(r.time),
                format!("{:.2}", r.speedup),
                format!("{:.2}%", 100.0 * r.efficiency),
            ]);
        }
        out.push('\n');
        out.push_str(&table.render());
    }
    Ok(out)
}

/// Execute a parsed command, returning the text to print.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Info { matrix } => {
            let m = load_matrix(matrix)?;
            let rows = m.row_sums();
            let cols = m.col_sums();
            let stats = sea_linalg::stats::summarize(m.as_slice());
            Ok(format!(
                "matrix: {} x {}\nnonzero: {} ({:.1}%)\nentry range: [{}, {}], mean {:.4}\n\
                 grand total: {}\nrow sums: min {} max {}\ncol sums: min {} max {}\n",
                m.rows(),
                m.cols(),
                m.count_nonzero(),
                100.0 * m.density(),
                stats.min,
                stats.max,
                stats.mean,
                m.total(),
                rows.iter().cloned().fold(f64::INFINITY, f64::min),
                rows.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                cols.iter().cloned().fold(f64::INFINITY, f64::min),
                cols.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            ))
        }
        Command::Report {
            events,
            spans,
            processors,
        } => report_from_log(events.as_deref(), spans.as_deref(), *processors),
        Command::Batch { manifest, opts } => run_batch(manifest, opts),
        Command::Fixed {
            common,
            row_totals,
            col_totals,
        } => {
            let x0 = load_matrix(&common.matrix)?;
            let s0 = load_vector(row_totals, x0.rows(), "row totals")?;
            let d0 = load_vector(col_totals, x0.cols(), "column totals")?;
            let gamma = build_gamma(&x0, weight_scheme(&common.weights))?;
            let policy = if common.structural_zeros {
                ZeroPolicy::Structural
            } else {
                ZeroPolicy::Free
            };
            let problem =
                DiagonalProblem::with_zero_policy(x0, gamma, TotalSpec::Fixed { s0, d0 }, policy)
                    .map_err(CliError::Solver)?;
            solve_with_storage(common, &problem)
        }
        Command::Elastic {
            common,
            row_totals,
            col_totals,
            total_weight,
        } => {
            let x0 = load_matrix(&common.matrix)?;
            let s0 = load_vector(row_totals, x0.rows(), "row totals")?;
            let d0 = load_vector(col_totals, x0.cols(), "column totals")?;
            let gamma = build_gamma(&x0, weight_scheme(&common.weights))?;
            let policy = if common.structural_zeros {
                ZeroPolicy::Structural
            } else {
                ZeroPolicy::Free
            };
            let (m, n) = (x0.rows(), x0.cols());
            let problem = DiagonalProblem::with_zero_policy(
                x0,
                gamma,
                TotalSpec::Elastic {
                    alpha: vec![*total_weight; m],
                    s0,
                    beta: vec![*total_weight; n],
                    d0,
                },
                policy,
            )
            .map_err(CliError::Solver)?;
            solve_with_storage(common, &problem)
        }
        Command::Sam { common, totals } => {
            let x0 = load_matrix(&common.matrix)?;
            if x0.rows() != x0.cols() {
                return Err(CliError::Solver(sea_core::SeaError::NotSquareSam {
                    rows: x0.rows(),
                    cols: x0.cols(),
                }));
            }
            let n = x0.rows();
            let s0 = match totals {
                Some(path) => load_vector(path, n, "account totals")?,
                None => {
                    let r = x0.row_sums();
                    let c = x0.col_sums();
                    r.iter().zip(&c).map(|(a, b)| 0.5 * (a + b)).collect()
                }
            };
            let alpha: Vec<f64> = s0.iter().map(|&t| 1.0 / t.abs().max(1e-9)).collect();
            let gamma = build_gamma(&x0, weight_scheme(&common.weights))?;
            let policy = if common.structural_zeros {
                ZeroPolicy::Structural
            } else {
                ZeroPolicy::Free
            };
            let problem = DiagonalProblem::with_zero_policy(
                x0,
                gamma,
                TotalSpec::Balanced { alpha, s0 },
                policy,
            )
            .map_err(CliError::Solver)?;
            solve_with_storage(common, &problem)
        }
        Command::Ras {
            common,
            row_totals,
            col_totals,
        } => {
            let x0 = load_matrix(&common.matrix)?;
            let s0 = load_vector(row_totals, x0.rows(), "row totals")?;
            let d0 = load_vector(col_totals, x0.cols(), "column totals")?;
            let opts = RasOptions {
                epsilon: common.epsilon,
                ..RasOptions::default()
            };
            let out = ras_balance(&x0, &s0, &d0, &opts).map_err(|e| format!("RAS failed: {e}"))?;
            if !out.converged {
                return Err(format!(
                    "RAS did not converge ({:?}); the quadratic solvers may still \
                     handle this problem — try `sea-solve fixed`",
                    out.failure
                )
                .into());
            }
            let mut report = emit(common, &out.x)?;
            report.push_str(&format!(
                "# RAS converged in {} iterations\n",
                out.iterations
            ));
            Ok(report)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;
    use sea_observe::json::JsonValue;
    use std::path::PathBuf;

    fn write(dir: &Path, name: &str, content: &str) -> PathBuf {
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sea-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fixed_end_to_end() {
        let dir = tmpdir("fixed");
        write(&dir, "m.csv", "1,2\n3,4\n");
        write(&dir, "s.csv", "4,6\n");
        write(&dir, "d.csv", "5\n5\n");
        let out = dir.join("x.csv");
        let argv: Vec<String> = [
            "fixed",
            "--matrix",
            dir.join("m.csv").to_str().unwrap(),
            "--row-totals",
            dir.join("s.csv").to_str().unwrap(),
            "--col-totals",
            dir.join("d.csv").to_str().unwrap(),
            "--weights",
            "unit",
            "--out",
            out.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cmd = parse_args(&argv).unwrap();
        let report = run(&cmd).unwrap();
        assert!(report.contains("converged"));
        let x = csv::read_matrix(&out).unwrap();
        let rs = x.row_sums();
        assert!((rs[0] - 4.0).abs() < 1e-6 && (rs[1] - 6.0).abs() < 1e-6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sparse_storage_matches_dense_output() {
        let dir = tmpdir("sparse");
        write(&dir, "m.csv", "1,0,2\n0,3,0\n4,0,5\n");
        write(&dir, "s.csv", "4,3,8\n");
        write(&dir, "d.csv", "5\n3\n7\n");
        let run_with = |storage: &str| {
            let argv: Vec<String> = [
                "fixed",
                "--matrix",
                dir.join("m.csv").to_str().unwrap(),
                "--row-totals",
                dir.join("s.csv").to_str().unwrap(),
                "--col-totals",
                dir.join("d.csv").to_str().unwrap(),
                "--zeros",
                "structural",
                "--weights",
                "unit",
                "--storage",
                storage,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            run(&parse_args(&argv).unwrap()).unwrap()
        };
        let dense = run_with("dense");
        let sparse = run_with("sparse");
        // Identical CSV estimate and identical convergence trailer.
        assert_eq!(dense, sparse);
        let x = csv::read_matrix_from_str(&sparse).unwrap();
        assert_eq!(x.get(0, 1), 0.0);
        let rs = x.row_sums();
        assert!((rs[0] - 4.0).abs() < 1e-6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_accepts_sparse_storage_instances() {
        let dir = tmpdir("batch-sparse");
        let manifest = write(
            &dir,
            "jobs.jsonl",
            "{\"id\":\"dense\",\"class\":\"fixed\",\"zeros\":\"structural\",\"weights\":\"unit\",\
              \"matrix\":[[1,0,2],[0,3,0],[4,0,5]],\"row_totals\":[4,3,8],\"col_totals\":[5,3,7]}\n\
             {\"id\":\"sparse\",\"class\":\"fixed\",\"zeros\":\"structural\",\"weights\":\"unit\",\
              \"storage\":\"sparse\",\
              \"matrix\":[[1,0,2],[0,3,0],[4,0,5]],\"row_totals\":[4,3,8],\"col_totals\":[5,3,7]}\n",
        );
        let results = dir.join("r.jsonl");
        let argv: Vec<String> = [
            "batch",
            manifest.to_str().unwrap(),
            "--out",
            results.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let report = run(&parse_args(&argv).unwrap()).unwrap();
        assert!(
            report.contains("# batch: 2 instances, 2 converged"),
            "{report}"
        );
        let text = std::fs::read_to_string(&results).unwrap();
        let lines: Vec<JsonValue> = text.lines().map(|l| parse_json(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        // Same problem through both backends: identical objective.
        let obj_dense = lines[0].get("objective").unwrap().as_f64().unwrap();
        let obj_sparse = lines[1].get("objective").unwrap().as_f64().unwrap();
        assert_eq!(obj_dense.to_bits(), obj_sparse.to_bits());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sam_end_to_end_defaults_totals() {
        let dir = tmpdir("sam");
        write(&dir, "m.csv", "0,5,1\n2,0,3\n4,1,0\n");
        let argv: Vec<String> = [
            "sam",
            "--matrix",
            dir.join("m.csv").to_str().unwrap(),
            "--zeros",
            "structural",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let report = run(&parse_args(&argv).unwrap()).unwrap();
        // Output on stdout: parse back the CSV lines (ignore # trailer).
        let x = csv::read_matrix_from_str(&report).unwrap();
        let rs = x.row_sums();
        let cs = x.col_sums();
        for i in 0..3 {
            assert!((rs[i] - cs[i]).abs() < 1e-5 * rs[i].max(1.0));
        }
        assert_eq!(x.get(0, 0), 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ras_end_to_end_and_failure_advice() {
        let dir = tmpdir("ras");
        write(&dir, "m.csv", "1,2\n3,4\n");
        write(&dir, "s.csv", "6,14\n");
        write(&dir, "d.csv", "8,12\n");
        let argv: Vec<String> = [
            "ras",
            "--matrix",
            dir.join("m.csv").to_str().unwrap(),
            "--row-totals",
            dir.join("s.csv").to_str().unwrap(),
            "--col-totals",
            dir.join("d.csv").to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let report = run(&parse_args(&argv).unwrap()).unwrap();
        assert!(report.contains("RAS converged"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn info_reports_shape() {
        let dir = tmpdir("info");
        write(&dir, "m.csv", "1,0\n3,4\n");
        let argv: Vec<String> = ["info", "--matrix", dir.join("m.csv").to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let report = run(&parse_args(&argv).unwrap()).unwrap();
        assert!(report.contains("2 x 2"));
        assert!(report.contains("75.0%"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observe_log_is_written_and_replays_as_a_trace() {
        let dir = tmpdir("observe");
        write(&dir, "m.csv", "1,2\n3,4\n");
        write(&dir, "s.csv", "4,6\n");
        write(&dir, "d.csv", "5\n5\n");
        let events = dir.join("events.jsonl");
        let metrics = dir.join("metrics.prom");
        let argv: Vec<String> = [
            "fixed",
            "--matrix",
            dir.join("m.csv").to_str().unwrap(),
            "--row-totals",
            dir.join("s.csv").to_str().unwrap(),
            "--col-totals",
            dir.join("d.csv").to_str().unwrap(),
            "--observe",
            events.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let report = run(&parse_args(&argv).unwrap()).unwrap();
        assert!(report.contains("# events:"));
        assert!(report.contains("# metrics:"));

        // The JSONL log alone records the execution trace: one row,
        // column and check phase per iteration.
        let log = std::fs::read_to_string(&events).unwrap();
        let evs = parse_events(&log).unwrap();
        assert!(matches!(evs.first(), Some(Event::SolveStart { .. })));
        let Some(Event::SolveEnd { iterations, .. }) = evs.last() else {
            panic!("log must end with SolveEnd");
        };
        let rows = |e: &Event| {
            matches!(
                e,
                Event::PhaseEnd {
                    label: PhaseLabel::RowEquilibration,
                    ..
                }
            )
        };
        let phases = trace_to_sim_phases(&evs);
        assert_eq!(phases.len(), 3 * iterations);
        assert_eq!(evs.iter().filter(|e| rows(e)).count(), *iterations);

        // Metrics render in Prometheus text format.
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("# TYPE sea_solves_total counter"));
        assert!(prom.contains("sea_converged 1"));

        // And the report subcommand summarizes the log and replays that
        // trace on the simulated machine.
        let argv: Vec<String> = [
            "report",
            "--events",
            events.to_str().unwrap(),
            "--processors",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let summary = run(&parse_args(&argv).unwrap()).unwrap();
        assert!(summary.contains("serial fraction"));
        assert!(summary.contains("row_equilibration"));
        assert!(summary.contains("Simulated replay"));
        let rows = sea_parsim::speedup_table(&phases, &[1, 2, 4], 0.0, 0.0);
        for r in &rows {
            assert!(
                summary.contains(&sea_report::fmt_seconds(r.time)),
                "{summary}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_conversion_respects_parallelism() {
        let end = |label, seconds, task_seconds: Vec<f64>| Event::PhaseEnd {
            label,
            tasks: task_seconds.len().max(1),
            seconds,
            task_seconds,
        };
        let events = vec![
            Event::PhaseStart {
                label: PhaseLabel::RowEquilibration,
                tasks: 2,
            },
            end(PhaseLabel::RowEquilibration, 3.5, vec![1.0, 2.0]),
            end(PhaseLabel::ConvergenceCheck, 0.5, vec![0.5]),
            end(PhaseLabel::Projection, 0.4, vec![0.1; 4]),
            // A log without per-task costs replays each phase as one task
            // of its wall time.
            end(PhaseLabel::ConvergenceCheck, 0.05, Vec::new()),
        ];
        let phases = trace_to_sim_phases(&events);
        assert_eq!(phases.len(), 4);
        assert!(phases[0].parallel && !phases[0].memory_bound);
        assert_eq!(phases[0].tasks, vec![1.0, 2.0]);
        assert!(!phases[1].parallel);
        // The projection's dense mat-vec is bandwidth-bound.
        assert!(phases[2].parallel && phases[2].memory_bound);
        assert!(!phases[3].parallel);
        assert_eq!(phases[3].tasks, vec![0.05]);
    }

    #[test]
    fn trace_replays_the_same_from_a_jsonl_log() {
        let p = DiagonalProblem::new(
            DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
            DenseMatrix::filled(2, 2, 1.0).unwrap(),
            TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let mut obs = sea_core::VecObserver::new();
        let opts = SeaOptions::with_epsilon(1e-10);
        let sol = solve_diagonal_supervised(&p, &opts, &SupervisorOptions::default(), &mut obs)
            .unwrap()
            .solution;
        // One row, column and check phase per iteration, each row/column
        // phase with one measured cost per subproblem.
        let in_process = trace_to_sim_phases(&obs.events);
        assert_eq!(in_process.len(), 3 * sol.stats.iterations);
        for ph in &in_process {
            assert_eq!(ph.tasks.len(), if ph.parallel { 2 } else { 1 });
        }
        let log: String = obs
            .events
            .iter()
            .map(|e| sea_observe::encode_event(e) + "\n")
            .collect();
        assert_eq!(
            trace_to_sim_phases(&parse_events(&log).unwrap()),
            in_process
        );
    }

    #[test]
    fn span_exports_and_measured_report_end_to_end() {
        let dir = tmpdir("spans");
        write(&dir, "m.csv", "1,2\n3,4\n");
        write(&dir, "s.csv", "4,6\n");
        write(&dir, "d.csv", "5\n5\n");
        let trace = dir.join("spans.json");
        let folded = dir.join("flame.folded");
        let argv: Vec<String> = [
            "fixed",
            "--matrix",
            dir.join("m.csv").to_str().unwrap(),
            "--row-totals",
            dir.join("s.csv").to_str().unwrap(),
            "--col-totals",
            dir.join("d.csv").to_str().unwrap(),
            "--weights",
            "unit",
            "--trace-spans",
            trace.to_str().unwrap(),
            "--flamegraph",
            folded.to_str().unwrap(),
            "--progress",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let report = run(&parse_args(&argv).unwrap()).unwrap();
        assert!(report.contains("# spans:"), "{report}");
        assert!(report.contains("# flamegraph:"), "{report}");

        // The chrome-trace document parses back into a span forest rooted
        // at a solve span whose epochs nest inside it.
        let doc = parse_json(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let spans = parse_chrome_trace(&doc).unwrap();
        assert!(!spans.is_empty());
        let root = spans
            .iter()
            .find(|s| s.kind == sea_core::SpanKind::Solve)
            .expect("solve root span");
        assert!(root.parent.is_none());
        assert!(spans
            .iter()
            .any(|s| s.kind == sea_core::SpanKind::Epoch && s.parent == Some(root.id)));

        // The folded-stack export names the solve root on every line.
        let flame = std::fs::read_to_string(&folded).unwrap();
        assert!(!flame.is_empty());
        assert!(flame.lines().all(|l| l.starts_with("solve")), "{flame}");

        // `report --spans` renders the measured per-phase breakdown, and
        // `--processors` replays the measured phases through the simulator.
        let argv: Vec<String> = [
            "report",
            "--spans",
            trace.to_str().unwrap(),
            "--processors",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let summary = run(&parse_args(&argv).unwrap()).unwrap();
        assert!(
            summary.contains("per-phase breakdown (from spans)"),
            "{summary}"
        );
        assert!(summary.contains("serial fraction"), "{summary}");
        assert!(
            summary.contains("Simulated replay (measured span phases)"),
            "{summary}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_span_export_carries_instance_leaves() {
        let dir = tmpdir("batch-spans");
        let manifest = write(
            &dir,
            "jobs.jsonl",
            "{\"id\":\"a\",\"family\":\"f\",\"class\":\"fixed\",\"weights\":\"unit\",\
              \"matrix\":[[1,2],[3,4]],\"row_totals\":[4,6],\"col_totals\":[5,5]}\n\
             {\"id\":\"b\",\"family\":\"f\",\"class\":\"fixed\",\"weights\":\"unit\",\
              \"matrix\":[[1,2],[3,4]],\"row_totals\":[4,6],\"col_totals\":[5,5]}\n",
        );
        let trace = dir.join("spans.json");
        let argv: Vec<String> = [
            "batch",
            manifest.to_str().unwrap(),
            "--trace-spans",
            trace.to_str().unwrap(),
            "--parallel",
            "outer:2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let report = run(&parse_args(&argv).unwrap()).unwrap();
        assert!(report.contains("# spans:"), "{report}");
        let doc = parse_json(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let spans = parse_chrome_trace(&doc).unwrap();
        let batch = spans
            .iter()
            .find(|s| s.kind == sea_core::SpanKind::Batch)
            .expect("batch span");
        let instances: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == sea_core::SpanKind::Instance)
            .collect();
        assert_eq!(instances.len(), 2);
        for inst in &instances {
            assert_eq!(inst.parent, Some(batch.id));
            // Instance leaves carry the warm-start outcome as detail.
            assert!(["hit", "miss", "bypass"].contains(&inst.detail.as_str()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_understands_committed_batch_and_sparse_vocab() {
        // Regression for the golden fixtures committed by earlier PRs:
        // `report --events` must summarize both the batch framing and the
        // sparse solve's event stream, not just the original dense vocab.
        let batch_log = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../sea-batch/tests/fixtures/golden_batch.jsonl");
        let argv: Vec<String> = ["report", "--events", batch_log.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let summary = run(&parse_args(&argv).unwrap()).unwrap();
        assert!(summary.contains("batches: 2"), "{summary}");
        assert!(summary.contains("warm-start cache:"), "{summary}");
        assert!(summary.contains("Batch instances"), "{summary}");

        let sparse_log = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../sea-core/tests/fixtures/golden_sparse_solve.jsonl");
        let argv: Vec<String> = [
            "report",
            "--events",
            sparse_log.to_str().unwrap(),
            "--processors",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let summary = run(&parse_args(&argv).unwrap()).unwrap();
        assert!(summary.contains("row_equilibration"), "{summary}");
        assert!(summary.contains("kernel work:"), "{summary}");
        assert!(summary.contains("Simulated replay"), "{summary}");
    }

    #[test]
    fn batch_end_to_end_mixed_classes() {
        let dir = tmpdir("batch");
        let manifest = write(
            &dir,
            "jobs.jsonl",
            "# two instances, one cached family\n\
             {\"id\":\"q1\",\"family\":\"trade\",\"class\":\"fixed\",\
              \"matrix\":[[1,2],[3,4]],\"row_totals\":[4,6],\"col_totals\":[5,5],\
              \"weights\":\"unit\"}\n\
             \n\
             {\"id\":\"accounts\",\"class\":\"sam\",\"zeros\":\"structural\",\
              \"matrix\":[[0,5,1],[2,0,3],[4,1,0]]}\n",
        );
        let results = dir.join("r.jsonl");
        let events = dir.join("e.jsonl");
        let argv: Vec<String> = [
            "batch",
            manifest.to_str().unwrap(),
            "--out",
            results.to_str().unwrap(),
            "--observe",
            events.to_str().unwrap(),
            "--parallel",
            "outer:2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let report = run(&parse_args(&argv).unwrap()).unwrap();
        assert!(
            report.contains("# batch: 2 instances, 2 converged"),
            "{report}"
        );
        assert!(report.contains("# events:"));

        // One JSON result line per instance, in submission order.
        let text = std::fs::read_to_string(&results).unwrap();
        let lines: Vec<JsonValue> = text.lines().map(|l| parse_json(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("id").unwrap().as_str(), Some("q1"));
        assert_eq!(lines[0].get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(lines[1].get("id").unwrap().as_str(), Some("accounts"));
        assert_eq!(lines[1].get("cache").unwrap().as_str(), Some("bypass"));
        for l in &lines {
            assert_eq!(l.get("stop").unwrap().as_str(), Some("converged"));
            assert_eq!(l.get("converged").unwrap().as_bool(), Some(true));
        }

        // The event stream is batch-framed and parses back.
        let evs = parse_events(&std::fs::read_to_string(&events).unwrap()).unwrap();
        assert!(matches!(
            evs.first(),
            Some(Event::BatchStart { instances: 2, .. })
        ));
        assert!(matches!(evs.last(), Some(Event::BatchEnd { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_manifest_errors_are_line_addressed() {
        let dir = tmpdir("batch-bad");
        let manifest = write(&dir, "jobs.jsonl", "{\"id\":\"a\",\"class\":\"fixed\"}\n");
        let argv: Vec<String> = ["batch", manifest.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&parse_args(&argv).unwrap()).unwrap_err();
        assert!(err.to_string().contains("manifest line 1"), "{err}");

        let empty = write(&dir, "empty.jsonl", "# nothing here\n");
        let argv: Vec<String> = ["batch", empty.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&parse_args(&argv).unwrap()).unwrap_err();
        assert!(err.to_string().contains("no instances"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_rejects_malformed_logs() {
        let dir = tmpdir("badlog");
        let path = write(&dir, "events.jsonl", "{\"type\":\"mystery\"}\n");
        let argv: Vec<String> = ["report", "--events", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&parse_args(&argv).unwrap()).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let argv: Vec<String> = ["info", "--matrix", "/nonexistent/m.csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&parse_args(&argv).unwrap()).unwrap_err();
        assert!(err.to_string().contains("/nonexistent/m.csv"));
    }

    #[test]
    fn dimension_mismatch_is_a_clean_error() {
        let dir = tmpdir("dims");
        write(&dir, "m.csv", "1,2\n3,4\n");
        write(&dir, "s.csv", "1,2,3\n");
        write(&dir, "d.csv", "5,5\n");
        let argv: Vec<String> = [
            "fixed",
            "--matrix",
            dir.join("m.csv").to_str().unwrap(),
            "--row-totals",
            dir.join("s.csv").to_str().unwrap(),
            "--col-totals",
            dir.join("d.csv").to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&parse_args(&argv).unwrap()).unwrap_err();
        assert!(err.to_string().contains("expected 2 row totals"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
