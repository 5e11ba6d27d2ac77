//! The batch solve engine.
//!
//! [`BatchEngine::solve_batch`] runs many constrained-matrix instances
//! through the supervised SEA drivers on one shared thread budget. The
//! [`BatchParallelism`] knob trades instance-level parallelism (fan the
//! instances out, each solve serial inside) against equilibration-level
//! parallelism (solve instances one at a time, rows/columns fan out
//! inside) — the two ends of the paper's decomposition hierarchy.
//!
//! Determinism: every instance solve is a pure function of the instance,
//! the engine's warm-start cache *snapshot*, and the options — the solvers
//! themselves are parallelism-invariant (see sea-core's determinism suite)
//! and cache updates are deferred to the end of the batch — so batch
//! results are bitwise identical across all five parallelism policies and
//! any submission order. Per-instance event streams are buffered and
//! replayed in submission order for the same reason.

use std::time::{Duration, Instant};

use rayon::prelude::*;
use sea_core::{
    solve_bounded_supervised, solve_diagonal_supervised, solve_general_supervised, BoundedProblem,
    Checkpoint, DiagonalProblem, Event, GeneralProblem, GeneralSeaOptions, KernelCounters,
    KernelKind, Observer, Parallelism, SeaError, SeaOptions, SpanKind, StopReason,
    SupervisedBoundedSolution, SupervisedGeneralSolution, SupervisedSolution, SupervisorOptions,
};
use sea_linalg::CsrMatrix;

use crate::cache::{CacheEntry, CacheUpdate, WarmStartCache};

/// Where the thread budget goes: across instances or inside each solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchParallelism {
    /// Everything sequential: instances in order, serial equilibration.
    Serial,
    /// Fan instances out on the global rayon pool; each solve is serial
    /// inside. Best for many small instances.
    Outer,
    /// Fan instances out on a dedicated pool of exactly this many threads.
    OuterThreads(usize),
    /// Solve instances one at a time; rows/columns fan out on the global
    /// pool inside each solve — plain, sparse and box-bounded instances
    /// alike, and the inner diagonal solves of general instances. Best for
    /// few large instances.
    Inner,
    /// Like [`BatchParallelism::Inner`] on a dedicated pool of this width.
    InnerThreads(usize),
}

impl BatchParallelism {
    /// Stable label for events and logs (`"serial"`, `"outer"`,
    /// `"outer:4"`, `"inner"`, `"inner:2"`).
    pub fn label(self) -> String {
        match self {
            BatchParallelism::Serial => "serial".to_string(),
            BatchParallelism::Outer => "outer".to_string(),
            BatchParallelism::OuterThreads(k) => format!("outer:{k}"),
            BatchParallelism::Inner => "inner".to_string(),
            BatchParallelism::InnerThreads(k) => format!("inner:{k}"),
        }
    }

    /// Inverse of [`BatchParallelism::label`] (used by the CLI).
    pub fn parse(s: &str) -> Option<BatchParallelism> {
        match s {
            "serial" => return Some(BatchParallelism::Serial),
            "outer" => return Some(BatchParallelism::Outer),
            "inner" => return Some(BatchParallelism::Inner),
            _ => {}
        }
        let (mode, k) = s.split_once(':')?;
        let k: usize = k.parse().ok().filter(|k| *k > 0)?;
        match mode {
            "outer" => Some(BatchParallelism::OuterThreads(k)),
            "inner" => Some(BatchParallelism::InnerThreads(k)),
            _ => None,
        }
    }

    /// The fan-out context instances are scheduled in.
    fn outer(self) -> Parallelism {
        match self {
            BatchParallelism::Outer => Parallelism::Rayon,
            BatchParallelism::OuterThreads(k) => Parallelism::RayonThreads(k),
            _ => Parallelism::Serial,
        }
    }

    /// The equilibration parallelism inside each instance solve.
    fn instance(self) -> Parallelism {
        match self {
            BatchParallelism::Inner => Parallelism::Rayon,
            BatchParallelism::InnerThreads(k) => Parallelism::RayonThreads(k),
            _ => Parallelism::Serial,
        }
    }
}

/// Options shared by every instance in a batch.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Stopping tolerance handed to each driver (outer tolerance for
    /// general instances; their inner solves run one decade tighter).
    pub epsilon: f64,
    /// Iteration cap per instance (inner iterations for diagonal/bounded
    /// and for the general driver's inner solves).
    pub max_iterations: usize,
    /// Equilibration kernel for every solve.
    pub kernel: KernelKind,
    /// Thread-budget policy (see [`BatchParallelism`]).
    pub parallelism: BatchParallelism,
    /// Enable the per-family warm-start cache. Off, every instance is a
    /// cache bypass and nothing is stored.
    pub warm_start: bool,
    /// Supervision applied to *each* instance (budgets are per-instance;
    /// put one shared [`sea_core::CancelToken`] here to cancel the whole
    /// batch).
    pub supervisor: SupervisorOptions,
}

impl Default for BatchOptions {
    fn default() -> Self {
        let defaults = SeaOptions::default();
        BatchOptions {
            epsilon: defaults.epsilon,
            max_iterations: defaults.max_iterations,
            kernel: defaults.kernel,
            parallelism: BatchParallelism::Serial,
            warm_start: true,
            supervisor: SupervisorOptions::default(),
        }
    }
}

/// One problem of any of the three supported classes.
#[derive(Debug, Clone)]
pub enum BatchProblem {
    /// Diagonal constrained matrix problem (§3.1 driver).
    Diagonal(DiagonalProblem),
    /// Diagonal problem over CSR support-only storage (sparse CMPs).
    SparseDiagonal(DiagonalProblem<CsrMatrix>),
    /// Box-bounded problem (interval extension).
    Bounded(BoundedProblem),
    /// General problem with dense `G` (§3.2 driver).
    General(GeneralProblem),
}

impl BatchProblem {
    /// Row count — the length a warm-start `λ` seed must have.
    pub fn m(&self) -> usize {
        match self {
            BatchProblem::Diagonal(p) => p.m(),
            BatchProblem::SparseDiagonal(p) => p.m(),
            BatchProblem::Bounded(p) => p.m(),
            BatchProblem::General(p) => p.m(),
        }
    }

    /// Column count — the length a warm-start `μ` seed must have.
    pub fn n(&self) -> usize {
        match self {
            BatchProblem::Diagonal(p) => p.n(),
            BatchProblem::SparseDiagonal(p) => p.n(),
            BatchProblem::Bounded(p) => p.n(),
            BatchProblem::General(p) => p.n(),
        }
    }

    /// Stable class name (`"diagonal"`, `"sparse-diagonal"`, `"bounded"`,
    /// `"general"`).
    pub fn class(&self) -> &'static str {
        match self {
            BatchProblem::Diagonal(_) => "diagonal",
            BatchProblem::SparseDiagonal(_) => "sparse-diagonal",
            BatchProblem::Bounded(_) => "bounded",
            BatchProblem::General(_) => "general",
        }
    }
}

/// One instance submitted to a batch.
#[derive(Debug, Clone)]
pub struct BatchInstance {
    /// Caller-chosen identifier, echoed in reports and events.
    pub id: String,
    /// Warm-start family key: instances that recur (identically or with
    /// drifting data) across batches share one. `None` opts out of
    /// caching for this instance.
    pub family: Option<String>,
    /// The problem itself.
    pub problem: BatchProblem,
}

/// A supervised solution of whichever class the instance was.
#[derive(Debug, Clone)]
pub enum BatchSolution {
    /// Diagonal outcome.
    Diagonal(SupervisedSolution),
    /// Sparse diagonal outcome (CSR estimate).
    SparseDiagonal(SupervisedSolution<CsrMatrix>),
    /// Bounded outcome.
    Bounded(SupervisedBoundedSolution),
    /// General outcome.
    General(SupervisedGeneralSolution),
}

impl BatchSolution {
    /// Whether the instance's convergence criterion fired.
    pub fn converged(&self) -> bool {
        match self {
            BatchSolution::Diagonal(s) => s.solution.stats.converged,
            BatchSolution::SparseDiagonal(s) => s.solution.stats.converged,
            BatchSolution::Bounded(s) => s.solution.converged,
            BatchSolution::General(s) => s.solution.converged,
        }
    }

    /// Why the solve stopped.
    pub fn stop(&self) -> StopReason {
        match self {
            BatchSolution::Diagonal(s) => s.stop,
            BatchSolution::SparseDiagonal(s) => s.stop,
            BatchSolution::Bounded(s) => s.stop,
            BatchSolution::General(s) => s.stop,
        }
    }

    /// Final row multipliers `λ`, which the warm-start cache stores as
    /// the next solve's first row-pass hints. Empty for the general class,
    /// whose solution does not carry them.
    pub fn lambda(&self) -> &[f64] {
        match self {
            BatchSolution::Diagonal(s) => &s.solution.lambda,
            BatchSolution::SparseDiagonal(s) => &s.solution.lambda,
            BatchSolution::Bounded(s) => &s.solution.lambda,
            BatchSolution::General(_) => &[],
        }
    }

    /// Final column multipliers `μ` — the state the warm-start cache
    /// stores.
    pub fn mu(&self) -> &[f64] {
        match self {
            BatchSolution::Diagonal(s) => &s.solution.mu,
            BatchSolution::SparseDiagonal(s) => &s.solution.mu,
            BatchSolution::Bounded(s) => &s.solution.mu,
            BatchSolution::General(s) => &s.solution.mu,
        }
    }

    /// The driver's primary iteration count (inner sweeps for diagonal and
    /// bounded, outer projections for general).
    pub fn iterations(&self) -> usize {
        match self {
            BatchSolution::Diagonal(s) => s.solution.stats.iterations,
            BatchSolution::SparseDiagonal(s) => s.solution.stats.iterations,
            BatchSolution::Bounded(s) => s.solution.iterations,
            BatchSolution::General(s) => s.solution.outer_iterations,
        }
    }

    /// Kernel work of the solve, as its driver counted it (the general
    /// class sums its inner solves).
    pub fn counters(&self) -> KernelCounters {
        match self {
            BatchSolution::Diagonal(s) => s.solution.stats.counters,
            BatchSolution::SparseDiagonal(s) => s.solution.stats.counters,
            BatchSolution::Bounded(s) => s.solution.counters,
            BatchSolution::General(s) => s.solution.counters,
        }
    }

    /// Primal objective at the returned iterate.
    pub fn objective(&self) -> f64 {
        match self {
            BatchSolution::Diagonal(s) => s.solution.stats.objective,
            BatchSolution::SparseDiagonal(s) => s.solution.stats.objective,
            BatchSolution::Bounded(s) => s.solution.objective,
            BatchSolution::General(s) => s.solution.objective,
        }
    }

    /// Stopping-quantity residual of the returned iterate: the value the
    /// driver's own convergence test compares against ε (relative row
    /// balance for diagonal/bounded solves, outer change for general
    /// ones). Lets callers judge how far a *partial* answer — e.g. a
    /// deadline-stopped solve — is from converged, without recomputing a
    /// certificate.
    pub fn residual(&self) -> f64 {
        match self {
            BatchSolution::Diagonal(s) => s.solution.stats.residual,
            BatchSolution::SparseDiagonal(s) => s.solution.stats.residual,
            BatchSolution::Bounded(s) => s.solution.residuals.rel_row_inf,
            BatchSolution::General(s) => s.solution.outer_residual,
        }
    }
}

/// Warm-start cache outcome for one instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WarmStart {
    /// The family had a usable cached `μ`; the solve was seeded with it
    /// (and with the cached `λ`, when it fits the rows).
    Hit,
    /// The instance declared a family but nothing usable was cached.
    Miss,
    /// No family, or caching disabled: the cache was not consulted.
    #[default]
    Bypass,
}

impl WarmStart {
    /// Stable wire name (`"hit"` / `"miss"` / `"bypass"`).
    pub fn name(self) -> &'static str {
        match self {
            WarmStart::Hit => "hit",
            WarmStart::Miss => "miss",
            WarmStart::Bypass => "bypass",
        }
    }
}

/// Per-instance batch outcome.
#[derive(Debug)]
pub struct BatchItemReport {
    /// Submission index (0-based).
    pub index: usize,
    /// The instance's id.
    pub id: String,
    /// The instance's family, if any.
    pub family: Option<String>,
    /// Cache outcome.
    pub warm_start: WarmStart,
    /// Kernel work this solve cost (0 when it failed), in the units of
    /// [`sea_core::KernelCounters::work`]: a warm-start attempt of the
    /// quickselect kernel, hit or miss, counts as one round.
    pub kernel_work: u64,
    /// Kernel work saved vs the family's cold baseline (0 off-hit). Since
    /// every warm-start attempt counts as a round, saving attempts shows
    /// here as saved work, like saving rounds.
    pub work_saved: u64,
    /// The solve outcome; a per-instance error never aborts the batch.
    pub outcome: Result<BatchSolution, SeaError>,
}

/// Whole-batch outcome.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-instance outcomes, in submission order.
    pub items: Vec<BatchItemReport>,
    /// Instances whose convergence criterion fired.
    pub converged: usize,
    /// Warm-start cache hits.
    pub cache_hits: usize,
    /// Warm-start cache misses (bypasses are neither).
    pub cache_misses: usize,
    /// Total kernel work across instances.
    pub kernel_work: u64,
    /// Total kernel work saved vs cold baselines.
    pub work_saved: u64,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
}

impl BatchReport {
    /// True when every instance solved and converged.
    pub fn all_converged(&self) -> bool {
        self.converged == self.items.len()
    }
}

/// A long-lived batch solver owning the warm-start cache. Solve related
/// batches through one engine to accumulate cache state; see
/// [`crate::cache::WarmStartCache`] for snapshot semantics.
#[derive(Debug, Default)]
pub struct BatchEngine {
    options: BatchOptions,
    cache: WarmStartCache,
}

impl BatchEngine {
    /// An engine with the given options and an empty cache.
    pub fn new(options: BatchOptions) -> Self {
        BatchEngine {
            options,
            cache: WarmStartCache::new(),
        }
    }

    /// The engine's options.
    pub fn options(&self) -> &BatchOptions {
        &self.options
    }

    /// Number of families currently cached.
    pub fn cached_families(&self) -> usize {
        self.cache.len()
    }

    /// Solve every instance, returning per-instance outcomes in submission
    /// order. Emits `BatchStart`, the buffered per-instance solve streams
    /// interleaved with `BatchInstance`, and `BatchEnd` when `obs` is
    /// enabled.
    ///
    /// A per-instance failure never aborts the batch: it lands in that
    /// item's [`BatchItemReport::outcome`] and the remaining instances
    /// still solve.
    ///
    /// # Example
    ///
    /// ```
    /// use sea_batch::{BatchEngine, BatchInstance, BatchOptions, BatchProblem};
    /// use sea_core::{DiagonalProblem, NullObserver, TotalSpec, WeightScheme};
    /// use sea_linalg::DenseMatrix;
    ///
    /// let x0 = DenseMatrix::from_rows(&[vec![10.0, 5.0], vec![5.0, 10.0]])?;
    /// let gamma = WeightScheme::ChiSquare.entry_weights(&x0)?;
    /// let p = DiagonalProblem::new(
    ///     x0,
    ///     gamma,
    ///     TotalSpec::Fixed { s0: vec![18.0, 18.0], d0: vec![18.0, 18.0] },
    /// )?;
    /// let batch = vec![BatchInstance {
    ///     id: "q1".to_string(),
    ///     family: None,
    ///     problem: BatchProblem::Diagonal(p),
    /// }];
    ///
    /// let mut engine = BatchEngine::new(BatchOptions::default());
    /// let report = engine.solve_batch(&batch, &mut NullObserver);
    /// assert_eq!(report.converged, 1);
    /// assert!(report.items[0].outcome.is_ok());
    /// # Ok::<(), sea_core::SeaError>(())
    /// ```
    pub fn solve_batch<O: Observer>(
        &mut self,
        instances: &[BatchInstance],
        obs: &mut O,
    ) -> BatchReport {
        let start = Instant::now();
        let observing = obs.enabled();
        if observing {
            obs.record(&Event::BatchStart {
                instances: instances.len(),
                parallelism: self.options.parallelism.label(),
            });
        }
        // The Batch span opens before any instance runs so the workers'
        // start/end stamps (offsets from `start`) land inside it; each
        // instance becomes a leaf replayed from the serial epilogue.
        let spanning = obs.spans_enabled();
        if spanning {
            obs.span_open(SpanKind::Batch, 0, instances.len() as u64);
        }

        let (options, cache) = (&self.options, &self.cache);
        let run = |inst: &BatchInstance| {
            let start_ns = if spanning { elapsed_ns(start) } else { 0 };
            let mut buffer = EventBuffer {
                on: observing,
                events: Vec::new(),
            };
            let solved = solve_instance(inst, options, cache, &mut buffer);
            let end_ns = if spanning { elapsed_ns(start) } else { 0 };
            (solved, buffer.events, start_ns, end_ns)
        };
        let mut runs: Vec<Option<_>> = instances.iter().map(|_| None).collect();
        let fill = |(slot, inst): (&mut Option<_>, &BatchInstance)| *slot = Some(run(inst));
        match options.parallelism {
            BatchParallelism::Outer | BatchParallelism::OuterThreads(_) => {
                options.parallelism.outer().run(|| {
                    runs.par_iter_mut().zip(instances.par_iter()).for_each(fill);
                });
            }
            _ => runs.iter_mut().zip(instances).for_each(fill),
        }

        // Serial epilogue: replay buffered events in submission order,
        // aggregate, and apply the deferred cache writes (last wins).
        let mut items = Vec::with_capacity(instances.len());
        let mut updates: Vec<CacheUpdate> = Vec::new();
        let (mut converged, mut hits, mut misses) = (0usize, 0usize, 0usize);
        let (mut work, mut saved) = (0u64, 0u64);
        // Every slot was filled above, so `flatten` keeps submission indices.
        let runs = runs.into_iter().flatten().enumerate();
        for (index, ((mut item, update), events, start_ns, end_ns)) in runs {
            item.index = index;
            if observing {
                for e in &events {
                    obs.record(e);
                }
                obs.record(&Event::BatchInstance {
                    index,
                    id: item.id.clone(),
                    family: item.family.clone(),
                    cache: item.warm_start.name(),
                    kernel_work: item.kernel_work,
                    work_saved: item.work_saved,
                });
            }
            if spanning {
                let (tasks, counters) = item.outcome.as_ref().map_or_else(
                    |_| (0, KernelCounters::default()),
                    |s| (s.iterations() as u64, s.counters()),
                );
                obs.span_leaf(
                    SpanKind::Instance,
                    index as u64,
                    start_ns,
                    end_ns,
                    tasks,
                    &counters,
                    item.warm_start.name(),
                );
            }
            match item.warm_start {
                WarmStart::Hit => hits += 1,
                WarmStart::Miss => misses += 1,
                WarmStart::Bypass => {}
            }
            work += item.kernel_work;
            saved += item.work_saved;
            updates.extend(update);
            if item.outcome.as_ref().is_ok_and(BatchSolution::converged) {
                converged += 1;
            }
            items.push(item);
        }
        self.cache.apply(updates);
        if spanning {
            obs.span_close(&KernelCounters::default());
        }

        let elapsed = start.elapsed();
        if observing {
            obs.record(&Event::BatchEnd {
                instances: instances.len(),
                converged,
                cache_hits: hits,
                cache_misses: misses,
                kernel_work: work,
                work_saved: saved,
                seconds: elapsed.as_secs_f64(),
            });
        }
        BatchReport {
            items,
            converged,
            cache_hits: hits,
            cache_misses: misses,
            kernel_work: work,
            work_saved: saved,
            elapsed,
        }
    }
}

/// Solve a single instance against a cache snapshot, outside any batch.
///
/// This is the entry point long-running services compose: the caller owns
/// the cache (and whatever lock guards it), resolves sharing and eviction
/// policy itself, and applies the returned [`CacheUpdate`] (if any)
/// whenever it chooses — typically immediately, under the same lock a
/// concurrent worker would take. Events (and span signals, when `obs`
/// wants them) stream to `obs` as the solve runs, with no batch framing.
/// The result is bitwise identical to the same instance going through
/// [`BatchEngine::solve_batch`] with the same options and cache snapshot
/// (the batch runs every instance through this function); the report's
/// `index` is 0.
pub fn solve_instance<O: Observer + Send>(
    inst: &BatchInstance,
    opts: &BatchOptions,
    cache: &WarmStartCache,
    obs: &mut O,
) -> (BatchItemReport, Option<CacheUpdate>) {
    // Resolve the warm start against the read-only snapshot. A cached μ of
    // the wrong length (the family changed shape) is a miss, not an error.
    // The general class seeds μ alone, and so does a hit whose λ does not
    // fit the rows.
    let general = matches!(inst.problem, BatchProblem::General(_));
    let mut warm = WarmStart::Bypass;
    let mut baseline = 0u64;
    let (mut mu_seed, mut lambda_seed) = (None, None);
    if opts.warm_start {
        if let Some(family) = &inst.family {
            match cache.lookup(family) {
                Some(entry) if entry.mu.len() == inst.problem.n() => {
                    mu_seed = Some(entry.mu.clone());
                    if !general && entry.lambda.len() == inst.problem.m() {
                        lambda_seed = Some(entry.lambda.clone());
                    }
                    warm = WarmStart::Hit;
                    baseline = entry.cold_kernel_work;
                }
                _ => warm = WarmStart::Miss,
            }
        }
    }
    let hit = warm == WarmStart::Hit;

    // Options for the diagonal-class drivers (plain, sparse and bounded
    // instances alike); the general class nests them in its own options.
    let sea_options = |epsilon: f64, initial_mu: Option<Vec<f64>>| SeaOptions {
        max_iterations: opts.max_iterations,
        kernel: opts.kernel,
        parallelism: opts.parallelism.instance(),
        initial_mu,
        ..SeaOptions::with_epsilon(epsilon)
    };
    // A hit carrying λ seeds a diagonal-class driver the way a checkpoint
    // does: from `resume`, whose λ also hints the first row pass, where
    // `initial_mu` hints only the column passes.
    let resume = lambda_seed.and_then(|lambda| {
        mu_seed.take().map(|mu| SupervisorOptions {
            resume: Some(Checkpoint {
                solver: match inst.problem {
                    BatchProblem::Bounded(_) => "bounded",
                    _ => "diagonal",
                }
                .to_string(),
                iteration: 0,
                lambda,
                mu,
                history: None,
            }),
            ..opts.supervisor.clone()
        })
    });
    let sup = resume.as_ref().unwrap_or(&opts.supervisor);
    let outcome = match &inst.problem {
        BatchProblem::Diagonal(p) => {
            solve_diagonal_supervised(p, &sea_options(opts.epsilon, mu_seed), sup, obs)
                .map(BatchSolution::Diagonal)
        }
        BatchProblem::SparseDiagonal(p) => {
            solve_diagonal_supervised(p, &sea_options(opts.epsilon, mu_seed), sup, obs)
                .map(BatchSolution::SparseDiagonal)
        }
        BatchProblem::Bounded(p) => {
            solve_bounded_supervised(p, &sea_options(opts.epsilon, mu_seed), sup, obs)
                .map(BatchSolution::Bounded)
        }
        BatchProblem::General(p) => {
            let mut o = GeneralSeaOptions::with_epsilon(opts.epsilon);
            o.inner = sea_options(o.inner.epsilon, mu_seed);
            solve_general_supervised(p, &o, sup, obs).map(BatchSolution::General)
        }
    };

    let kernel_work = outcome.as_ref().map_or(0, |s| s.counters().work());
    let work_saved = if hit {
        baseline.saturating_sub(kernel_work)
    } else {
        0
    };
    // Only converged solutions are cached: a partial μ from a stopped or
    // errored solve would poison later warm starts. A hit keeps the
    // family's original cold baseline; only the seed is refreshed.
    let update = match (&inst.family, &outcome) {
        (Some(family), Ok(sol)) if opts.warm_start && sol.converged() => Some(CacheUpdate {
            family: family.clone(),
            entry: CacheEntry {
                lambda: sol.lambda().to_vec(),
                mu: sol.mu().to_vec(),
                cold_kernel_work: if hit { baseline } else { kernel_work },
            },
        }),
        _ => None,
    };
    (
        BatchItemReport {
            index: 0,
            id: inst.id.clone(),
            family: inst.family.clone(),
            warm_start: warm,
            kernel_work,
            work_saved,
            outcome,
        },
        update,
    )
}

/// Nanoseconds elapsed since `t0`, saturating (good for ~584 years).
fn elapsed_ns(t0: Instant) -> u64 {
    let d = t0.elapsed();
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(u64::from(d.subsec_nanos()))
}

/// Event sink for one batch instance: when the batch has an outer
/// observer it buffers the instance's event stream for in-order replay;
/// otherwise it reports disabled, so the solvers construct no events and
/// evaluate ζ at no check. Kernel work comes from the solution either way.
struct EventBuffer {
    on: bool,
    events: Vec<Event>,
}

impl Observer for EventBuffer {
    fn enabled(&self) -> bool {
        self.on
    }

    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_labels_round_trip() {
        for p in [
            BatchParallelism::Serial,
            BatchParallelism::Outer,
            BatchParallelism::OuterThreads(4),
            BatchParallelism::Inner,
            BatchParallelism::InnerThreads(2),
        ] {
            assert_eq!(BatchParallelism::parse(&p.label()), Some(p));
        }
        assert_eq!(BatchParallelism::parse("outer:0"), None);
        assert_eq!(BatchParallelism::parse("sideways"), None);
        assert_eq!(BatchParallelism::parse("inner:x"), None);
    }

    #[test]
    fn default_kernel_is_the_library_default() {
        assert_eq!(BatchOptions::default().kernel, KernelKind::default());
        assert_eq!(BatchOptions::default().kernel, KernelKind::Quickselect);
    }

    #[test]
    fn outer_modes_fan_out_with_serial_solves() {
        assert_eq!(BatchParallelism::Outer.outer(), Parallelism::Rayon);
        assert_eq!(BatchParallelism::Outer.instance(), Parallelism::Serial);
        assert_eq!(
            BatchParallelism::InnerThreads(3).instance(),
            Parallelism::RayonThreads(3)
        );
        assert_eq!(
            BatchParallelism::InnerThreads(3).outer(),
            Parallelism::Serial
        );
    }
}
