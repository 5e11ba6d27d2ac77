//! `batch_classes`: a warm-start [`BatchEngine`] over epochs of drifting
//! priors. Each epoch holds one dense fixed-totals instance with long
//! rows, one dense box-bounded instance (the interval driver) and one
//! small general instance (the projection loop). Epoch 0 writes the
//! warm-start cache; later epochs read it.
//!
//! Few iterations per instance, each sweeping long rows: the kernel
//! layer and all three drivers do most of the work. The traced run ends
//! with the [`serve_probe`], which measures the wire-format and service
//! layers that no end-to-end workload exercises.

use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sea_batch::{
    BatchEngine, BatchInstance, BatchOptions, BatchParallelism, BatchProblem, BatchReport,
    BatchSolution,
};
use sea_core::{
    solve_bounded_supervised_configured, solve_diagonal_supervised, solve_general_supervised,
    BoundedOptions, BoundedProblem, DiagonalProblem, GeneralProblem, GeneralSeaOptions,
    GeneralTotalSpec, KernelCounters, NullObserver, Observer, Parallelism, SeaOptions, SpanKind,
    StopReason, SupervisorOptions, TotalSpec,
};
use sea_linalg::{DenseMatrix, SymMatrix};

use crate::layers::{self, Layers};
use crate::report::Outcome;
use crate::sparse_banded::{bytes_per_iter, certify, solve_certified};
use crate::{serve_probe, stats, system, Config, Scale};

/// Stopping tolerance handed to the engine.
pub const EPSILON: f64 = 1e-8;
/// Amplitude of the per-epoch multiplicative drift of the priors.
const DRIFT: f64 = 0.02;
/// Constructions timed before the first epoch. `setup_s` is the median of
/// these and of the [`SETUP_PER_EPOCH`] timed for every later epoch.
const SETUP_REPEATS: usize = 9;
/// Constructions timed for each drifted epoch, so that `setup_s` samples
/// the whole run rather than its first fraction of a second.
const SETUP_PER_EPOCH: usize = 2;
/// Nominal wall time of one warm epoch at full scale, seconds. A run
/// solves a fixed number of warm epochs derived from `--seconds` with it,
/// so every run medians over the same epochs (their work differs with
/// the drift phase).
const NOMINAL_EPOCH_S: f64 = 1.5;
/// Share of a traced run's `--seconds` given to the serve probe.
const PROBE_SHARE: f64 = 0.2;
/// Batch index of each class in an epoch.
const BOUNDED_INDEX: u64 = 1;
const GENERAL_INDEX: u64 = 2;

/// Orders of the (fixed, bounded, general) instances at a scale.
fn orders(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Full => (1_000, 1_000, 20),
        Scale::Small => (40, 30, 5),
    }
}

/// A drifting prior with fixed weights and a fixed "truth" perturbation
/// the totals are taken from.
struct Family {
    n: usize,
    x0: Vec<f64>,
    gamma: Vec<f64>,
    truth: Vec<f64>,
}

impl Family {
    fn new(rng: &mut ChaCha8Rng, n: usize) -> Family {
        let cells = n * n;
        Family {
            n,
            x0: (0..cells).map(|_| rng.random_range(0.5..10.0)).collect(),
            gamma: (0..cells)
                .map(|_| 10f64.powi(rng.random_range(-1..=1)))
                .collect(),
            truth: (0..cells).map(|_| rng.random_range(0.9..1.1)).collect(),
        }
    }

    /// One epoch of drift: a smooth ±2% wave over rows and columns whose
    /// phase moves each epoch, times ±0.2% cell noise. A smooth wave of
    /// fixed size keeps the warm-start iteration counts the same across
    /// seeds; independent per-cell drift makes them flip between seeds.
    fn drift(&mut self, rng: &mut ChaCha8Rng, epoch: usize) {
        let n = self.n as f64;
        let phase = 0.37 * epoch as f64;
        let tau = std::f64::consts::TAU;
        for (k, v) in self.x0.iter_mut().enumerate() {
            let (i, j) = ((k / self.n) as f64, (k % self.n) as f64);
            let wave = (tau * (3.0 * i / n + phase)).sin() * (tau * (2.0 * j / n - phase)).cos();
            *v *= (1.0 + DRIFT * wave) * rng.random_range(0.998..1.002);
        }
    }

    /// Row and column sums of `f(k)` over the cells.
    fn margins(&self, f: impl Fn(usize) -> f64) -> (Vec<f64>, Vec<f64>) {
        let n = self.n;
        let (mut s, mut d) = (vec![0.0; n], vec![0.0; n]);
        for (i, si) in s.iter_mut().enumerate() {
            for (j, dj) in d.iter_mut().enumerate() {
                let v = f(i * n + j);
                *si += v;
                *dj += v;
            }
        }
        (s, d)
    }
}

/// The raw arrays of one epoch's three instances (input generation).
#[derive(Clone)]
struct Parts {
    fixed: (usize, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>),
    bounded: (usize, [Vec<f64>; 4], Vec<f64>, Vec<f64>),
    general: (usize, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>),
}

/// The three families plus the general instance's coupling matrix.
struct Fleet {
    fixed: Family,
    bounded: Family,
    general: Family,
    g: Vec<f64>,
    rng: ChaCha8Rng,
    epoch: usize,
}

impl Fleet {
    fn new(seed: u64, scale: Scale) -> Fleet {
        let (nf, nb, ng) = orders(scale);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fixed = Family::new(&mut rng, nf);
        let bounded = Family::new(&mut rng, nb);
        let general = Family::new(&mut rng, ng);
        // Strictly diagonally dominant SPD coupling with small negative
        // off-diagonals (the paper's §5.1.1 recipe).
        let mn = ng * ng;
        let mut g = vec![0.0; mn * mn];
        for a in 0..mn {
            g[a * mn + a] = rng.random_range(5.0..10.0);
            for b in 0..a {
                let off = -rng.random_range(0.0..4.0 / mn as f64);
                g[a * mn + b] = off;
                g[b * mn + a] = off;
            }
        }
        Fleet {
            fixed,
            bounded,
            general,
            g,
            rng,
            epoch: 0,
        }
    }

    fn drift(&mut self) {
        self.epoch += 1;
        self.fixed.drift(&mut self.rng, self.epoch);
        self.bounded.drift(&mut self.rng, self.epoch);
        self.general.drift(&mut self.rng, self.epoch);
    }

    /// This epoch's raw arrays. Totals come from the prior times the
    /// truth perturbation; the bounded instance boxes every entry to ±5%
    /// of its prior and takes totals from the clamped truth, so it is
    /// feasible by construction with many bounds active.
    fn parts(&self) -> Parts {
        let f = &self.fixed;
        let (s0, d0) = f.margins(|k| f.x0[k] * f.truth[k]);
        let fixed = (f.n, f.x0.clone(), f.gamma.clone(), s0, d0);

        let b = &self.bounded;
        let lo: Vec<f64> = b.x0.iter().map(|v| 0.95 * v).collect();
        let hi: Vec<f64> = b.x0.iter().map(|v| 1.05 * v).collect();
        let (s0, d0) = b.margins(|k| (b.x0[k] * b.truth[k]).clamp(lo[k], hi[k]));
        let bounded = (b.n, [b.x0.clone(), b.gamma.clone(), lo, hi], s0, d0);

        let q = &self.general;
        let (s0, d0) = q.margins(|k| q.x0[k] * q.truth[k]);
        let general = (q.n, q.x0.clone(), self.g.clone(), s0, d0);
        Parts {
            fixed,
            bounded,
            general,
        }
    }
}

/// The three problems of one epoch.
struct Problems {
    fixed: DiagonalProblem,
    bounded: BoundedProblem,
    general: GeneralProblem,
}

fn dense(n: usize, v: Vec<f64>) -> Result<DenseMatrix, String> {
    DenseMatrix::from_vec(n, n, v).map_err(|e| e.to_string())
}

impl Parts {
    /// The program's constructors for one epoch.
    fn construct(self) -> Result<Problems, String> {
        let (n, x0, gamma, s0, d0) = self.fixed;
        let fixed =
            DiagonalProblem::new(dense(n, x0)?, dense(n, gamma)?, TotalSpec::Fixed { s0, d0 })
                .map_err(|e| format!("fixed: {e}"))?;
        let (n, [x0, gamma, lo, hi], s0, d0) = self.bounded;
        let bounded = BoundedProblem::new(
            dense(n, x0)?,
            dense(n, gamma)?,
            dense(n, lo)?,
            dense(n, hi)?,
            s0,
            d0,
        )
        .map_err(|e| format!("bounded: {e}"))?;
        let (n, x0, g, s0, d0) = self.general;
        let g = SymMatrix::from_dense(dense(n * n, g)?, 1e-12).map_err(|e| e.to_string())?;
        let general = GeneralProblem::new(dense(n, x0)?, g, GeneralTotalSpec::Fixed { s0, d0 })
            .map_err(|e| format!("general: {e}"))?;
        Ok(Problems {
            fixed,
            bounded,
            general,
        })
    }

    /// Construct a copy and a batch engine, timing only the constructors
    /// into `setup`.
    fn timed(
        &self,
        threads: usize,
        setup: &mut Vec<f64>,
    ) -> Result<(Problems, BatchEngine), String> {
        let input = self.clone();
        let t = Instant::now();
        let built = input
            .construct()
            .map(|p| (p, BatchEngine::new(options(threads))));
        setup.push(t.elapsed().as_secs_f64());
        built
    }
}

impl Problems {
    fn instances(self) -> Vec<BatchInstance> {
        let inst = |id: &str, problem| BatchInstance {
            id: id.to_string(),
            family: Some(id.to_string()),
            problem,
        };
        vec![
            inst("fixed", BatchProblem::Diagonal(self.fixed)),
            inst("bounded", BatchProblem::Bounded(self.bounded)),
            inst("general", BatchProblem::General(self.general)),
        ]
    }
}

fn options(threads: usize) -> BatchOptions {
    BatchOptions {
        epsilon: EPSILON,
        parallelism: if threads > 1 {
            BatchParallelism::InnerThreads(threads)
        } else {
            BatchParallelism::Serial
        },
        ..BatchOptions::default()
    }
}

/// Check one instance's outcome: a diagonal solve must pass its KKT
/// certificate; bounded and general solves (which carry no certificate)
/// must converge with rows balanced to the tolerance, and bounded
/// estimates must lie inside their boxes.
fn check(
    inst: &BatchInstance,
    outcome: &Result<BatchSolution, sea_core::SeaError>,
) -> Result<(), String> {
    let sol = outcome.as_ref().map_err(|e| format!("{}: {e}", inst.id))?;
    if sol.stop() != StopReason::Converged {
        return Err(format!("{}: stopped: {}", inst.id, sol.stop().name()));
    }
    match (sol, &inst.problem) {
        (BatchSolution::Diagonal(s), _) => certify(s, EPSILON),
        (BatchSolution::Bounded(s), BatchProblem::Bounded(p)) => {
            let inside = s
                .solution
                .x
                .as_slice()
                .iter()
                .zip(p.lo().as_slice().iter().zip(p.hi().as_slice()))
                .all(|(x, (lo, hi))| {
                    *x >= lo - 1e-9 * lo.abs().max(1.0) && *x <= hi + 1e-9 * hi.abs().max(1.0)
                });
            let rows = s.solution.residuals.rel_row_inf <= 1.01 * EPSILON;
            if inside && rows {
                Ok(())
            } else {
                Err(format!(
                    "bounded: inside boxes {inside}, residuals {:?}",
                    s.solution.residuals
                ))
            }
        }
        (BatchSolution::General(s), _) => {
            if s.solution.residuals.rel_row_inf <= 1.01 * EPSILON {
                Ok(())
            } else {
                Err(format!("general: residuals {:?}", s.solution.residuals))
            }
        }
        _ => Err(format!("{}: unexpected solution class", inst.id)),
    }
}

/// Count every instance of an epoch into the tally.
fn check_epoch(instances: &[BatchInstance], report: &BatchReport, out: &mut Outcome) {
    for (inst, item) in instances.iter().zip(&report.items) {
        let verdict = check(inst, &item.outcome);
        out.tally
            .record(verdict.is_ok(), || verdict.err().unwrap_or_default());
    }
}

/// Iterations an epoch took, summed over its instances (outer iterations
/// for the general instance).
fn epoch_iterations(report: &BatchReport) -> f64 {
    report
        .items
        .iter()
        .filter_map(|i| i.outcome.as_ref().ok())
        .map(|s| s.iterations() as f64)
        .sum()
}

/// Run the workload into `out`.
pub fn run(cfg: &Config, out: &mut Outcome) {
    let fleet = Fleet::new(cfg.seed, cfg.scale);
    let threads = system::threads();

    let parts = fleet.parts();
    let mut setup = Vec::new();
    let mut built = Err("no construction".to_string());
    for _ in 0..SETUP_REPEATS {
        built = parts.timed(threads, &mut setup);
    }
    let (problems, engine) = match built {
        Ok(b) => b,
        Err(e) => {
            out.tally.record(false, || format!("construction: {e}"));
            return;
        }
    };
    let (nf, nb, ng) = orders(cfg.scale);
    let cells = nf * nf + nb * nb + ng * ng;
    out.meta_num("fixed_order", nf as f64);
    out.meta_num("bounded_order", nb as f64);
    out.meta_num("general_order", ng as f64);
    out.meta_num("nnz", cells as f64);
    out.meta_num("epsilon", EPSILON);
    out.meta_num("drift", DRIFT);
    out.meta_num("bytes_per_iter_computed", bytes_per_iter(cells, 0));
    let mut run = Run {
        fleet,
        threads,
        setup,
    };
    if cfg.trace {
        out.set("kernel.bytes_per_iter", bytes_per_iter(cells, 0));
        traced(cfg, &mut run, problems, out);
        out.set("setup.problem_s", stats::median(&run.setup));
    } else {
        untraced(cfg, &mut run, problems, engine, out);
        out.set("setup_s", stats::median(&run.setup));
    }
    out.meta_num("setups", run.setup.len() as f64);
}

/// The drifting families, the thread count, and the construction times
/// gathered so far.
struct Run {
    fleet: Fleet,
    threads: usize,
    setup: Vec<f64>,
}

impl Run {
    /// The next epoch's instances: drift, then construct
    /// [`SETUP_PER_EPOCH`] timed copies and keep the last.
    fn next_instances(&mut self, out: &mut Outcome) -> Option<Vec<BatchInstance>> {
        self.fleet.drift();
        let parts = self.fleet.parts();
        let mut built = Err("no construction".to_string());
        for _ in 0..SETUP_PER_EPOCH {
            built = parts.timed(self.threads, &mut self.setup);
        }
        match built {
            Ok((p, _)) => Some(p.instances()),
            Err(e) => {
                out.tally.record(false, || format!("construction: {e}"));
                None
            }
        }
    }
}

/// Solve one epoch through `engine`, timed, and count its instances.
fn epoch<O: Observer>(
    engine: &mut BatchEngine,
    instances: &[BatchInstance],
    obs: &mut O,
    out: &mut Outcome,
) -> (f64, BatchReport) {
    let t = Instant::now();
    let report = engine.solve_batch(instances, obs);
    let secs = t.elapsed().as_secs_f64();
    check_epoch(instances, &report, out);
    (secs, report)
}

/// Warm epochs to solve in `seconds` of measurement (at least three).
fn warm_epochs(cfg: &Config, seconds: f64) -> usize {
    match cfg.scale {
        Scale::Full => ((seconds / NOMINAL_EPOCH_S).round() as usize).max(3),
        Scale::Small => 3,
    }
}

/// Whether the epoch loop is done: all planned epochs solved, or three
/// times the planned time spent (a much slower program still finishes).
fn done(start: Instant, seconds: f64, epochs: usize, planned: usize) -> bool {
    epochs >= planned || (epochs > 0 && start.elapsed().as_secs_f64() >= 3.0 * seconds)
}

fn untraced(
    cfg: &Config,
    run: &mut Run,
    first: Problems,
    mut engine: BatchEngine,
    out: &mut Outcome,
) {
    let start = Instant::now();
    let (cold_s, _) = epoch(&mut engine, &first.instances(), &mut NullObserver, out);
    let mut times = Vec::new();
    let mut iterations = Vec::new();
    let planned = warm_epochs(cfg, cfg.seconds);
    while !done(start, cfg.seconds, times.len(), planned) {
        let Some(instances) = run.next_instances(out) else {
            return;
        };
        let (secs, report) = epoch(&mut engine, &instances, &mut NullObserver, out);
        times.push(secs);
        iterations.push(epoch_iterations(&report));
    }
    let epoch_s = stats::median(&times);
    // A mean: the per-epoch sums are small integers, and a median would
    // jump by a whole iteration when half the drift phases need one more.
    let iters = stats::mean(&iterations);
    out.meta_num("cold_epoch_s", cold_s);
    out.meta_num("warm_epochs", times.len() as f64);
    out.set("epoch_s", epoch_s);
    // An alias of epoch_s: an epoch certifies all three instances, so it
    // is this workload's unit of solve.
    out.set("solve_s", epoch_s);
    out.set("iterations", iters);
    if iters > 0.0 {
        out.set("iter_ms", 1e3 * epoch_s / iters);
    }
}

/// What one traced warm epoch contributes.
struct TracedEpoch {
    batch_self_s: f64,
    bounded_s: f64,
    general_s: f64,
    counters: KernelCounters,
    bounded_iters: f64,
    general_iters: f64,
}

fn traced(cfg: &Config, run: &mut Run, first: Problems, out: &mut Outcome) {
    let threads = run.threads;
    let mut null_engine = BatchEngine::new(options(threads));
    let mut span_engine = BatchEngine::new(options(threads));
    let start = Instant::now();

    // Epoch 0 fills both caches.
    let instances = first.instances();
    epoch(&mut null_engine, &instances, &mut NullObserver, out);
    let mut profiler = layers::profiler();
    let (cold_s, cold) = epoch(&mut span_engine, &instances, &mut profiler, out);
    let mut reconcile = match Layers::from_profiler(&profiler) {
        Ok(l) => layers::reconcile_pct(&l, cold_s),
        Err(e) => return out.fail_check(e),
    };
    let (mut hits, mut misses) = (cold.cache_hits, cold.cache_misses);
    let (mut saved, mut spent) = (0u64, 0u64);

    let (mut null_times, mut span_times) = (Vec::new(), Vec::new());
    let mut warm: Vec<TracedEpoch> = Vec::new();
    let mut last = instances;
    // Each traced epoch also solves untraced: half the time, twice over.
    let planned = warm_epochs(cfg, 0.25 * cfg.seconds);
    while !done(start, 0.5 * cfg.seconds, warm.len(), planned) {
        let Some(instances) = run.next_instances(out) else {
            return;
        };
        null_times.push(epoch(&mut null_engine, &instances, &mut NullObserver, out).0);
        let mut profiler = layers::profiler();
        let (secs, report) = epoch(&mut span_engine, &instances, &mut profiler, out);
        span_times.push(secs);
        let l = match Layers::from_profiler(&profiler) {
            Ok(l) => l,
            Err(e) => return out.fail_check(e),
        };
        reconcile = reconcile.max(layers::reconcile_pct(&l, secs));
        let iters = |index: usize| {
            report.items[index]
                .outcome
                .as_ref()
                .map_or(0.0, |s| s.iterations() as f64)
        };
        warm.push(TracedEpoch {
            batch_self_s: l.self_s(SpanKind::Batch),
            bounded_s: l.instance_s(BOUNDED_INDEX),
            general_s: l.instance_s(GENERAL_INDEX),
            counters: l.root_counters(),
            bounded_iters: iters(BOUNDED_INDEX as usize),
            general_iters: iters(GENERAL_INDEX as usize),
        });
        hits += report.cache_hits;
        misses += report.cache_misses;
        saved += report.work_saved;
        spent += report.kernel_work;
        last = instances;
    }

    let med =
        |f: &dyn Fn(&TracedEpoch) -> f64| stats::median(&warm.iter().map(f).collect::<Vec<_>>());
    out.set("batch.self_s", med(&|e| e.batch_self_s));
    out.set("instance.bounded_s", med(&|e| e.bounded_s));
    out.set("instance.general_s", med(&|e| e.general_s));
    out.set("instance.bounded_iters", med(&|e| e.bounded_iters));
    out.set("general.outer_iters", med(&|e| e.general_iters));
    out.set(
        "kernel.subproblems",
        med(&|e| e.counters.subproblems as f64),
    );
    out.set(
        "kernel.breakpoints",
        med(&|e| e.counters.breakpoints_scanned as f64),
    );
    out.set(
        "kernel.pivots",
        med(&|e| e.counters.quickselect_pivots as f64),
    );
    out.set("kernel.clamps", med(&|e| e.counters.boxed_clamps as f64));
    out.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set(
        "cache.work_saved_ratio",
        saved as f64 / (saved + spent).max(1) as f64,
    );
    let null_s = stats::median(&null_times);
    out.set(
        "trace.overhead_pct",
        100.0 * (stats::median(&span_times) - null_s) / null_s,
    );
    out.meta_num("traced_warm_epochs", warm.len() as f64);
    if let Some(direct_pct) = direct(&last, threads, out) {
        reconcile = reconcile.max(direct_pct);
    }
    layers::report_reconcile(reconcile, out);
    serve_probe::probe(cfg.seed, cfg.scale, PROBE_SHARE * cfg.seconds, threads, out);
}

/// Cold solves of the last epoch's instances through sea-core's public
/// entry points, traced, for the layers inside each instance (the batch
/// trace records instances as leaves). Returns the recording's
/// reconciliation with its wall time, percent.
fn direct(instances: &[BatchInstance], threads: usize, out: &mut Outcome) -> Option<f64> {
    let sup = SupervisorOptions::default();
    let parallel = if threads > 1 {
        Parallelism::RayonThreads(threads)
    } else {
        Parallelism::Serial
    };
    let mut opts = SeaOptions::with_epsilon(EPSILON);
    opts.parallelism = parallel;
    let mut general_opts = GeneralSeaOptions::with_epsilon(EPSILON);
    general_opts.inner.parallelism = parallel;

    let mut profiler = layers::profiler();
    let t = Instant::now();
    let mut fixed = None;
    for inst in instances {
        let verdict = match &inst.problem {
            BatchProblem::Diagonal(p) => solve_diagonal_supervised(p, &opts, &sup, &mut profiler)
                .map(|s| {
                    fixed = Some((p, s.clone()));
                    BatchSolution::Diagonal(s)
                }),
            BatchProblem::Bounded(p) => solve_bounded_supervised_configured(
                p,
                EPSILON,
                opts.max_iterations,
                &BoundedOptions::default(),
                None,
                &sup,
                &mut profiler,
            )
            .map(BatchSolution::Bounded),
            BatchProblem::General(p) => {
                solve_general_supervised(p, &general_opts, &sup, &mut profiler)
                    .map(BatchSolution::General)
            }
            BatchProblem::SparseDiagonal(_) => continue,
        };
        let verdict = check(inst, &verdict);
        out.tally
            .record(verdict.is_ok(), || verdict.err().unwrap_or_default());
    }
    let wall = t.elapsed().as_secs_f64();
    let l = match Layers::from_profiler(&profiler) {
        Ok(l) => l,
        Err(e) => {
            out.fail_check(e);
            return None;
        }
    };
    layers::report_solver_layers(&l, out);

    // The fixed instance again, threaded and serial for the parallel
    // efficiency, and its certificate recomputed for the verify layer.
    if let Some((p, sol)) = fixed {
        let (threaded_s, _) = solve_certified(p, &opts, &mut NullObserver, out);
        layers::report_parallel_and_verify(p, &opts, threaded_s, &sol.solution, out);
    }
    Some(layers::reconcile_pct(&l, wall))
}
