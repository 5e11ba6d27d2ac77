//! Per-layer attribution from a recorded span tree.
//!
//! The solvers signal spans (Solve → Epoch → RowPass/ColPass/Check/
//! Projection → Shard, and Batch → Instance) to a [`SpanProfiler`]; this
//! module turns the recording into a [`SpanBreakdown`] and the layer
//! quantities the traced runs report.

use std::time::Instant;

use sea_core::{
    verify_solution, DiagonalProblem, KernelCounters, NullObserver, Parallelism, SeaOptions,
    Solution, SpanKind, SpanProfiler, SpanRecord, Storage,
};
use sea_observe::ParsedSpan;
use sea_report::SpanBreakdown;

use crate::report::Outcome;
use crate::sparse_banded::solve_certified;
use crate::{stats, system};

/// Span ring large enough that no epoch of any workload is sampled out.
pub const SPAN_CAPACITY: usize = 1 << 18;
/// Telemetry samples kept per recording.
pub const TELEMETRY_CAPACITY: usize = 1 << 12;

/// A fresh profiler sized for the benchmark.
pub fn profiler() -> SpanProfiler {
    SpanProfiler::with_capacity(SPAN_CAPACITY, TELEMETRY_CAPACITY)
}

/// Largest gap between the layers' attributed time and the traced wall
/// time of any recording before the traced run is declared incorrect,
/// percent.
pub const RECONCILE_BOUND_PCT: f64 = 10.0;

/// Kinds whose spans contain parallel children (shards): their wall time
/// is attributed inclusively, so overlapping shards count once.
const PASS_KINDS: [SpanKind; 3] = [SpanKind::RowPass, SpanKind::ColPass, SpanKind::Projection];

/// One analysed recording.
#[derive(Debug, Clone)]
pub struct Layers {
    breakdown: SpanBreakdown,
    spans: Vec<ParsedSpan>,
}

impl Layers {
    /// Analyse what `profiler` recorded. Returns an error when the ring
    /// dropped or thinned spans, since the layer sums would then be short.
    pub fn from_profiler(profiler: &SpanProfiler) -> Result<Layers, String> {
        if profiler.dropped() > 0 {
            return Err(format!(
                "span ring dropped {} records; per-layer sums would be short",
                profiler.dropped()
            ));
        }
        if profiler.epoch_stride() > 1 {
            return Err(format!(
                "span profiler sampled every {}th epoch; per-layer sums would be short",
                profiler.epoch_stride()
            ));
        }
        let spans: Vec<ParsedSpan> = profiler.spans().iter().map(parsed).collect();
        Ok(Layers {
            breakdown: SpanBreakdown::from_spans(&spans),
            spans,
        })
    }

    /// Self time of one kind, seconds.
    pub fn self_s(&self, kind: SpanKind) -> f64 {
        self.summary(kind).map_or(0.0, |k| k.self_ns as f64 * 1e-9)
    }

    /// Inclusive time of one kind, seconds.
    pub fn inclusive_s(&self, kind: SpanKind) -> f64 {
        self.summary(kind)
            .map_or(0.0, |k| k.inclusive_ns as f64 * 1e-9)
    }

    /// Number of spans of one kind.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.summary(kind).map_or(0, |k| k.count)
    }

    /// Kernel counters of the root spans (whole-recording totals).
    pub fn root_counters(&self) -> KernelCounters {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .fold(KernelCounters::default(), |acc, s| acc.merged(s.counters))
    }

    /// Wall time the layers account for: the self time of every serial
    /// layer plus the inclusive time of every pass (whose parallel shards
    /// overlap and so count once, at their wall coverage).
    pub fn attributed_s(&self) -> f64 {
        self.breakdown
            .kinds
            .iter()
            .map(|(kind, k)| {
                if PASS_KINDS.contains(kind) {
                    k.inclusive_ns
                } else if *kind == SpanKind::Shard {
                    0
                } else {
                    k.self_ns
                }
            })
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Time spent in the kernel, seconds: shard self time plus the self
    /// time of passes that ran without shards (serial passes).
    pub fn kernel_s(&self) -> f64 {
        self.self_s(SpanKind::Shard)
            + self.self_s(SpanKind::RowPass)
            + self.self_s(SpanKind::ColPass)
    }

    /// Median over sharded passes of slowest shard / mean shard; 0 when no
    /// pass ran sharded.
    pub fn pass_imbalance(&self) -> f64 {
        let mut shards: std::collections::HashMap<u64, Vec<f64>> = Default::default();
        for s in self.spans.iter().filter(|s| s.kind == SpanKind::Shard) {
            if let Some(p) = s.parent {
                shards.entry(p).or_default().push(s.duration_ns() as f64);
            }
        }
        let ratios: Vec<f64> = shards
            .values()
            .filter(|d| d.len() > 1)
            .map(|d| {
                let max = d.iter().copied().fold(0.0, f64::max);
                let mean = stats::mean(d);
                if mean > 0.0 {
                    max / mean
                } else {
                    1.0
                }
            })
            .collect();
        stats::median(&ratios)
    }

    /// Wall time of the Instance leaves with the given batch index,
    /// seconds.
    pub fn instance_s(&self, index: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Instance && s.index == index)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    fn summary(&self, kind: SpanKind) -> Option<&sea_report::KindSummary> {
        self.breakdown
            .kinds
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| s)
    }
}

/// Relative gap between the time `l` attributes to its layers and the
/// wall time `wall_s` measured around the traced call, in percent.
pub fn reconcile_pct(l: &Layers, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        100.0 * (wall_s - l.attributed_s()).abs() / wall_s
    } else {
        0.0
    }
}

/// Report `trace.reconcile_pct`, the worst [`reconcile_pct`] over every
/// recording of the run, and fail the run when it exceeds
/// [`RECONCILE_BOUND_PCT`].
pub fn report_reconcile(worst_pct: f64, out: &mut Outcome) {
    out.set("trace.reconcile_pct", worst_pct);
    if worst_pct > RECONCILE_BOUND_PCT {
        out.fail_check(format!(
            "a traced recording's layers are {worst_pct:.2}% apart from its wall time \
             (bound {RECONCILE_BOUND_PCT}%)"
        ));
    }
}

/// Report the layers inside the solves `l` recorded: kernel time per
/// subproblem, passes, shards, epochs, convergence checks and projections.
pub fn report_solver_layers(l: &Layers, out: &mut Outcome) {
    let c = l.root_counters();
    if c.subproblems > 0 {
        out.set(
            "kernel.ns_per_subproblem",
            1e9 * l.kernel_s() / c.subproblems as f64,
        );
    }
    out.set("pass.row_s", l.inclusive_s(SpanKind::RowPass));
    out.set("pass.col_s", l.inclusive_s(SpanKind::ColPass));
    out.set("shard.count", l.count(SpanKind::Shard) as f64);
    out.set("shard.self_s", l.self_s(SpanKind::Shard));
    out.set("pass.imbalance", l.pass_imbalance());
    out.set("epoch.self_s", l.self_s(SpanKind::Epoch));
    out.set("check.self_s", l.self_s(SpanKind::Check));
    out.set("check.count", l.count(SpanKind::Check) as f64);
    out.set("projection.self_s", l.self_s(SpanKind::Projection));
}

/// Report `pass.parallel_eff` — one serial solve of `problem` against the
/// threaded wall time `threaded_s` — and `verify.s`, the median of three
/// timed `verify_solution` calls on `solution`. Returns the serial time.
pub fn report_parallel_and_verify<S: Storage>(
    problem: &DiagonalProblem<S>,
    opts: &SeaOptions,
    threaded_s: f64,
    solution: &Solution<S>,
    out: &mut Outcome,
) -> f64 {
    let mut serial = opts.clone();
    serial.parallelism = Parallelism::Serial;
    let (serial_s, _) = solve_certified(problem, &serial, &mut NullObserver, out);
    out.set(
        "pass.parallel_eff",
        serial_s / (system::threads() as f64 * threaded_s),
    );
    let verify: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(verify_solution(problem, solution));
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.set("verify.s", stats::median(&verify));
    serial_s
}

/// A recorded span in the owned form [`SpanBreakdown`] consumes.
fn parsed(r: &SpanRecord) -> ParsedSpan {
    ParsedSpan {
        id: u64::from(r.id),
        parent: (r.parent != SpanRecord::NO_PARENT).then_some(u64::from(r.parent)),
        kind: r.kind,
        index: r.index,
        start_ns: r.start_ns,
        end_ns: r.end_ns,
        tasks: r.tasks,
        counters: r.counters,
        detail: r.detail.to_string(),
    }
}
