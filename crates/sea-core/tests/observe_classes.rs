//! Golden audit of what every driver reports about itself: for a bounded
//! solve, a general solve (serial and on two workers) and a diagonal
//! solve that breaks down after a passed check and restores, the
//! normalized event stream and the span skeleton are compared against
//! `tests/fixtures/golden_classes.txt`.
//!
//! Events are normalized as in `observe_events.rs` (timings, residuals
//! and dual values zeroed). The span skeleton keeps, per span in preorder,
//! its kind, index, task count, depth and *self* kernel counters (its
//! total minus its children's), as a [`SpanProfiler`] records them.
//!
//! Each solve runs under an observer that takes both events and spans,
//! and again under one that takes only events and one that takes only
//! spans: a driver must report the same either way.
//!
//! `UPDATE_GOLDEN=1 cargo test -p sea-core --test observe_classes`
//! rewrites the fixture after an intentional change to what drivers
//! report.

use sea_core::{
    solve_bounded_supervised, solve_diagonal_supervised, solve_general_supervised, BoundedProblem,
    DiagonalProblem, FaultKind, FaultPlan, GeneralProblem, GeneralSeaOptions, GeneralTotalSpec,
    KernelKind, Parallelism, SeaOptions, StopReason, SupervisorOptions, TotalSpec, VecObserver,
};
use sea_linalg::{DenseMatrix, SymMatrix};
use sea_observe::jsonl::encode_event;
use sea_observe::{
    Event, KernelCounters, Observer, SpanKind, SpanProfiler, SpanRecord, TelemetrySample,
};

#[path = "common/normalize.rs"]
mod normalize;
use normalize::normalized;

/// Takes events and spans: events into a buffer, span signals into a
/// profiler, telemetry samples into a buffer.
#[derive(Default)]
struct Both {
    events: Vec<Event>,
    spans: SpanProfiler,
    telemetry: Vec<TelemetrySample>,
}

impl Observer for Both {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }

    fn spans_enabled(&self) -> bool {
        true
    }

    fn span_open(&mut self, kind: SpanKind, index: u64, tasks: u64) {
        self.spans.span_open(kind, index, tasks);
    }

    fn span_close(&mut self, self_counters: &KernelCounters) {
        self.spans.span_close(self_counters);
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
        self.spans.span_leaf(
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
        self.telemetry.push(*sample);
    }
}

/// One line per normalized event.
fn event_lines(events: &[Event]) -> String {
    events
        .iter()
        .map(|e| encode_event(&normalized(e)) + "\n")
        .collect()
}

/// One line per span in preorder: depth-indented kind, then index, tasks
/// and self counters.
fn span_lines(spans: &[SpanRecord]) -> String {
    let mut spans = spans.to_vec();
    spans.sort_by_key(|s| s.id);
    let parent_of = |id: u32| spans.iter().find(|s| s.id == id).map(|s| s.parent);
    let mut out = String::new();
    for s in &spans {
        let mut depth = 0;
        let mut up = s.parent;
        while up != SpanRecord::NO_PARENT {
            depth += 1;
            up = parent_of(up).expect("every parent is recorded");
        }
        let children = spans
            .iter()
            .filter(|c| c.parent == s.id)
            .fold(KernelCounters::default(), |acc, c| acc.merged(c.counters));
        let own = s.counters.delta_from(children);
        out.push_str(&format!(
            "{:indent$}{} {} tasks={} self=[{} {} {} {}]\n",
            "",
            s.kind.name(),
            s.index,
            s.tasks,
            own.subproblems,
            own.breakpoints_scanned,
            own.quickselect_pivots,
            own.boxed_clamps,
            indent = 2 * depth,
        ));
    }
    out
}

/// A 4×3 box-bounded problem whose boxes bind at the optimum.
fn bounded_problem() -> BoundedProblem {
    BoundedProblem::new(
        DenseMatrix::from_rows(&[
            vec![6.0, 1.0, 3.0],
            vec![2.0, 7.0, 1.0],
            vec![4.0, 2.0, 8.0],
            vec![1.0, 5.0, 2.0],
        ])
        .unwrap(),
        DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![0.5, 1.0, 4.0],
            vec![2.0, 0.25, 1.0],
            vec![1.0, 1.0, 3.0],
        ])
        .unwrap(),
        DenseMatrix::filled(4, 3, 0.5).unwrap(),
        DenseMatrix::filled(4, 3, 6.0).unwrap(),
        vec![12.0, 9.0, 11.0, 8.0],
        vec![13.0, 15.0, 12.0],
    )
    .unwrap()
}

/// A 3×2 general problem with dense coupling, so the projection loop
/// iterates.
fn general_problem() -> GeneralProblem {
    let order = 6;
    let mut g = DenseMatrix::zeros(order, order).unwrap();
    for i in 0..order {
        for j in 0..order {
            g.set(i, j, if i == j { 10.0 } else { -1.0 });
        }
    }
    GeneralProblem::new(
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![2.0, 2.0]]).unwrap(),
        SymMatrix::from_dense(g, 1e-12).unwrap(),
        GeneralTotalSpec::Fixed {
            s0: vec![4.0, 6.0, 5.0],
            d0: vec![8.0, 7.0],
        },
    )
    .unwrap()
}

/// A slow 5×5 fixed-totals problem: weights over six orders of magnitude
/// keep it far from converged for many sweeps.
fn hard_problem() -> DiagonalProblem {
    let (m, n) = (5, 5);
    let mut x0 = DenseMatrix::zeros(m, n).unwrap();
    let mut gamma = DenseMatrix::zeros(m, n).unwrap();
    for i in 0..m {
        for j in 0..n {
            x0.set(i, j, 1.0 + ((i * n + j) % 7) as f64);
            gamma.set(i, j, 10f64.powi(((i * n + j) % 7) as i32 - 3));
        }
    }
    let s0: Vec<f64> = (0..m).map(|i| 20.0 + 3.0 * i as f64).collect();
    let total: f64 = s0.iter().sum();
    let mut d0: Vec<f64> = (0..n).map(|j| 30.0 - 4.0 * j as f64).collect();
    let dsum: f64 = d0.iter().sum();
    for v in &mut d0 {
        *v *= total / dsum;
    }
    DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 }).unwrap()
}

/// The pinned solves.
#[derive(Debug, Clone, Copy)]
enum Case {
    /// A box-bounded solve at the default extrapolation depth.
    Bounded,
    /// A general solve, serial.
    GeneralSerial,
    /// A general solve on two workers, one row per shard.
    GeneralRayon,
    /// A diagonal solve on two workers whose scripted NaN at sweep 3
    /// lands after the check of sweep 2 passed: the breakdown restores
    /// that check's iterate.
    Breakdown,
}

impl Case {
    const ALL: [Case; 4] = [
        Case::Bounded,
        Case::GeneralSerial,
        Case::GeneralRayon,
        Case::Breakdown,
    ];

    fn run<O: Observer + Send>(self, obs: &mut O) {
        let sup = SupervisorOptions::default();
        match self {
            Case::Bounded => {
                let opts = SeaOptions::with_epsilon(1e-9);
                let sol = solve_bounded_supervised(&bounded_problem(), &opts, &sup, obs).unwrap();
                assert_eq!(sol.stop, StopReason::Converged);
            }
            Case::GeneralSerial | Case::GeneralRayon => {
                let mut opts = GeneralSeaOptions::with_epsilon(1e-9);
                if let Case::GeneralRayon = self {
                    opts.inner.parallelism = Parallelism::RayonThreads(2);
                    opts.inner.block_size = Some(1);
                }
                let sol = solve_general_supervised(&general_problem(), &opts, &sup, obs).unwrap();
                assert_eq!(sol.stop, StopReason::Converged);
            }
            Case::Breakdown => {
                let sup = SupervisorOptions {
                    faults: FaultPlan::new().at(3, FaultKind::NanLambda { index: 0 }),
                    ..sup
                };
                let mut opts = SeaOptions::with_epsilon(1e-12);
                opts.parallelism = Parallelism::RayonThreads(2);
                opts.block_size = Some(2);
                opts.kernel = KernelKind::SortScan;
                let sol = solve_diagonal_supervised(&hard_problem(), &opts, &sup, obs).unwrap();
                assert_eq!(sol.stop, StopReason::Breakdown);
                assert_eq!(sol.solution.stats.iterations, 2);
            }
        }
    }

    /// The case's record: its events, then its span skeleton.
    fn record(self) -> String {
        let mut both = Both::default();
        self.run(&mut both);
        let events = event_lines(&both.events);
        let spans = span_lines(&both.spans.spans());

        let mut events_only = VecObserver::new();
        self.run(&mut events_only);
        assert_eq!(event_lines(&events_only.events), events, "{self:?} events");
        let mut spans_only = SpanProfiler::new();
        self.run(&mut spans_only);
        assert_eq!(span_lines(&spans_only.spans()), spans, "{self:?} spans");

        format!("## {self:?} events\n{events}## {self:?} spans\n{spans}")
    }
}

#[test]
fn every_class_reports_as_pinned() {
    let actual: String = Case::ALL.into_iter().map(Case::record).collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/golden_classes.txt"
        );
        std::fs::write(path, &actual).unwrap();
        return;
    }
    let golden = include_str!("fixtures/golden_classes.txt");
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "line {} diverges from the golden fixture", i + 1);
    }
    assert_eq!(
        actual, golden,
        "line count diverges from the golden fixture"
    );
}

/// Telemetry is each check's progress tick: every sample is, in order, one
/// reported convergence check (diagonal and bounded drivers, and the
/// general driver's inner solves) or outer iteration (general driver).
#[test]
fn every_telemetry_sample_is_one_reported_check() {
    for case in Case::ALL {
        let mut both = Both::default();
        case.run(&mut both);
        let checks: Vec<(u64, u64)> = both
            .events
            .iter()
            .filter_map(|e| match e {
                Event::ConvergenceCheck {
                    iteration,
                    residual,
                    ..
                } => Some((*iteration as u64, residual.to_bits())),
                Event::OuterIteration {
                    iteration,
                    outer_residual,
                    ..
                } => Some((*iteration as u64, outer_residual.to_bits())),
                _ => None,
            })
            .collect();
        let samples: Vec<(u64, u64)> = both
            .telemetry
            .iter()
            .map(|s| (s.iteration, s.residual.to_bits()))
            .collect();
        assert!(!checks.is_empty(), "{case:?} reports checks");
        assert_eq!(samples, checks, "{case:?}");
    }
}
