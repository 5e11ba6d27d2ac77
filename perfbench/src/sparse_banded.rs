//! `sparse_banded`: one supervised fixed-totals solve of a banded CSR
//! problem, run to a passing KKT certificate on up to two threads.
//!
//! Rows hold about `2·hb + 1` stored cells, so a solve takes many cheap
//! iterations: it loads the pass, shard and convergence-check layers and
//! the iteration count, and never touches the cache, the bounded driver
//! or HTTP.

use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sea_core::{
    solve_diagonal_supervised, DiagonalProblem, NullObserver, Observer, Parallelism, SeaOptions,
    StopReason, Storage, SupervisedSolution, SupervisorOptions, TotalSpec, ZeroPolicy,
};
use sea_linalg::CsrMatrix;

use crate::layers::{self, Layers};
use crate::report::Outcome;
use crate::{stats, system, Config, Scale};

/// Stopping tolerance (relative row balance).
pub const EPSILON: f64 = 1e-4;
/// Constructions timed before the first solve. `setup_s` is the median
/// of these and of the [`SETUP_PER_SOLVE`] timed after every solve.
const SETUP_REPEATS: usize = 25;
/// Constructions timed after each solve, so that `setup_s` samples the
/// whole run rather than its first fraction of a second.
const SETUP_PER_SOLVE: usize = 5;
/// Fewest timed solves per untraced run.
const MIN_SOLVES: usize = 3;

/// Order and half-bandwidth at a scale.
fn size(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (2_000, 64),
        Scale::Small => (300, 12),
    }
}

/// The raw arrays a problem is constructed from (input generation).
#[derive(Clone)]
struct Parts {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    x0: Vec<f64>,
    gamma: Vec<f64>,
    s0: Vec<f64>,
    d0: Vec<f64>,
}

impl Parts {
    /// A feasible banded instance: prior entries in `[0.5, 10)`,
    /// chi-square weights `1/x⁰`, and totals from the margins of the prior
    /// scaled by smooth ±10% row and column profiles (times ±1% cell
    /// noise).
    ///
    /// The profiles fix how much mass must travel along the band, so the
    /// iteration count barely depends on the seed; independent per-cell
    /// perturbations instead leave a random amount of slowly decaying
    /// imbalance, and the count then varies several-fold between seeds.
    fn generate(seed: u64, n: usize, hb: usize) -> Parts {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut x0 = Vec::new();
        row_ptr.push(0);
        for i in 0..n {
            for j in i.saturating_sub(hb)..=(i + hb).min(n - 1) {
                col_idx.push(j as u32);
                x0.push(rng.random_range(0.5..10.0));
            }
            row_ptr.push(col_idx.len());
        }
        let gamma = x0.iter().map(|v| 1.0 / v).collect();
        let profile = |k: usize, waves: f64, phase: f64| {
            1.0 + 0.1 * (std::f64::consts::TAU * waves * k as f64 / n as f64 + phase).sin()
        };
        let (mut s0, mut d0) = (vec![0.0; n], vec![0.0; n]);
        for i in 0..n {
            for k in row_ptr[i]..row_ptr[i + 1] {
                let j = col_idx[k] as usize;
                let y = x0[k]
                    * profile(i, 3.0, 0.0)
                    * profile(j, 2.0, std::f64::consts::FRAC_PI_2)
                    * rng.random_range(0.99..1.01);
                s0[i] += y;
                d0[j] += y;
            }
        }
        Parts {
            n,
            row_ptr,
            col_idx,
            x0,
            gamma,
            s0,
            d0,
        }
    }

    /// The program's constructors: two CSR matrices and the problem.
    fn construct(self) -> Result<DiagonalProblem<CsrMatrix>, String> {
        let x0 = CsrMatrix::from_parts(
            self.n,
            self.n,
            self.row_ptr.clone(),
            self.col_idx.clone(),
            self.x0,
        )
        .map_err(|e| format!("prior: {e}"))?;
        let gamma = CsrMatrix::from_parts(self.n, self.n, self.row_ptr, self.col_idx, self.gamma)
            .map_err(|e| format!("weights: {e}"))?;
        DiagonalProblem::with_zero_policy(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: self.s0,
                d0: self.d0,
            },
            ZeroPolicy::Structural,
        )
        .map_err(|e| format!("problem: {e}"))
    }

    /// Construct a copy, timing only the constructors into `setup`.
    fn timed(&self, setup: &mut Vec<f64>) -> Result<DiagonalProblem<CsrMatrix>, String> {
        let input = self.clone();
        let t = Instant::now();
        let problem = input.construct();
        setup.push(t.elapsed().as_secs_f64());
        problem
    }
}

/// Bytes one SEA iteration moves, computed (not measured) from the
/// stored-cell count: a row pass and a column pass each read the prior,
/// the weight and the column index and write the iterate (8 + 8 + 4 + 8
/// bytes per cell; `index_bytes` = 0 for dense storage), and the
/// convergence check reads the iterate once more (8 bytes per cell).
pub fn bytes_per_iter(cells: usize, index_bytes: usize) -> f64 {
    (cells * (2 * (24 + index_bytes) + 8)) as f64
}

/// The certificate a supervised diagonal solve must pass: it converged;
/// stationarity, sign and nonnegativity hold to 1e-6; rows balance to
/// the solve tolerance; and the duality gap is within `100·ε` of the
/// objective (the primal point is only ε-feasible, so the gap is not
/// held to ε).
pub fn certify<S: Storage>(sol: &SupervisedSolution<S>, epsilon: f64) -> Result<(), String> {
    if sol.stop != StopReason::Converged {
        return Err(format!("stopped: {}", sol.stop.name()));
    }
    let c = &sol.certificate;
    let kkt = c.max_stationarity <= 1e-6
        && c.max_sign_violation <= 1e-6
        && c.max_total_stationarity <= 1e-6
        && c.min_entry >= -1e-9
        && c.residuals.rel_row_inf <= 1.01 * epsilon
        && c.duality_gap.abs() <= 100.0 * epsilon * c.objective.abs().max(1.0);
    if kkt {
        Ok(())
    } else {
        Err(format!("certificate failed: {c:?}"))
    }
}

/// One timed supervised solve, checked with [`certify`] at the options'
/// tolerance and counted into the tally. Returns the wall time, and the
/// solution when it passed.
pub fn solve_certified<S: Storage, O: Observer + Send>(
    problem: &DiagonalProblem<S>,
    opts: &SeaOptions,
    obs: &mut O,
    out: &mut Outcome,
) -> (f64, Option<SupervisedSolution<S>>) {
    let t = Instant::now();
    let result = solve_diagonal_supervised(problem, opts, &SupervisorOptions::default(), obs);
    let secs = t.elapsed().as_secs_f64();
    let checked = result
        .map_err(|e| format!("solve error: {e}"))
        .and_then(|sol| certify(&sol, opts.epsilon).map(|()| sol));
    out.tally.record(checked.is_ok(), || {
        checked.as_ref().err().cloned().unwrap_or_default()
    });
    (secs, checked.ok())
}

/// Run the workload into `out`.
pub fn run(cfg: &Config, out: &mut Outcome) {
    let (n, hb) = size(cfg.scale);
    let parts = Parts::generate(cfg.seed, n, hb);

    let mut setup = Vec::new();
    let mut built = Err("no construction".to_string());
    for _ in 0..SETUP_REPEATS {
        built = parts.timed(&mut setup);
    }
    let problem = match built {
        Ok(p) => p,
        Err(e) => {
            out.tally.record(false, || format!("construction: {e}"));
            return;
        }
    };
    let cells = problem.x0().stored();
    out.meta_num("rows", n as f64);
    out.meta_num("cols", n as f64);
    out.meta_num("half_bandwidth", hb as f64);
    out.meta_num("nnz", cells as f64);
    out.meta_num("epsilon", EPSILON);
    out.meta_num("bytes_per_iter_computed", bytes_per_iter(cells, 4));

    let threads = system::threads();
    let mut opts = SeaOptions::with_epsilon(EPSILON);
    opts.parallelism = if threads > 1 {
        Parallelism::RayonThreads(threads)
    } else {
        Parallelism::Serial
    };
    let run = Run {
        problem: &problem,
        opts,
        parts: &parts,
    };
    if cfg.trace {
        out.set("kernel.bytes_per_iter", bytes_per_iter(cells, 4));
        traced(cfg, &run, &mut setup, out);
        out.set("setup.problem_s", stats::median(&setup));
    } else {
        untraced(cfg, &run, &mut setup, out);
        out.set("setup_s", stats::median(&setup));
    }
    out.meta_num("setups", setup.len() as f64);
}

/// The constructed problem, the options it is solved with, and the raw
/// arrays further constructions are timed on.
struct Run<'a> {
    problem: &'a DiagonalProblem<CsrMatrix>,
    opts: SeaOptions,
    parts: &'a Parts,
}

impl Run<'_> {
    /// One timed, certified solve, followed by [`SETUP_PER_SOLVE`] timed
    /// constructions into `setup`.
    fn solve<O: Observer + Send>(
        &self,
        obs: &mut O,
        setup: &mut Vec<f64>,
        out: &mut Outcome,
    ) -> (f64, Option<SupervisedSolution<CsrMatrix>>) {
        let solved = solve_certified(self.problem, &self.opts, obs, out);
        for _ in 0..SETUP_PER_SOLVE {
            drop(self.parts.timed(setup));
        }
        solved
    }
}

fn untraced(cfg: &Config, run: &Run<'_>, setup: &mut Vec<f64>, out: &mut Outcome) {
    let mut times = Vec::new();
    let mut iterations = Vec::new();
    let start = Instant::now();
    loop {
        let (secs, sol) = run.solve(&mut NullObserver, setup, out);
        times.push(secs);
        if let Some(sol) = sol {
            iterations.push(sol.solution.stats.iterations as f64);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= cfg.seconds && times.len() >= MIN_SOLVES) || elapsed >= 3.0 * cfg.seconds {
            break;
        }
    }
    let solve_s = stats::median(&times);
    let iters = stats::median(&iterations);
    out.meta_num("solves", times.len() as f64);
    out.set("solve_s", solve_s);
    out.set("iterations", iters);
    if iters > 0.0 {
        out.set("iter_ms", 1e3 * solve_s / iters);
        // An alias of iter_ms: the driver's epoch is one SEA iteration,
        // and an untraced solve reports no per-epoch time.
        out.set("epoch_s", solve_s / iters);
    }
}

fn traced(cfg: &Config, run: &Run<'_>, setup: &mut Vec<f64>, out: &mut Outcome) {
    let mut null_times = Vec::new();
    let mut span_times = Vec::new();
    let mut last: Option<(Layers, SupervisedSolution<CsrMatrix>)> = None;
    let mut reconcile: f64 = 0.0;
    let start = Instant::now();
    // Interleave untraced and traced solves so machine drift hits both.
    while last.is_none() || start.elapsed().as_secs_f64() < 0.5 * cfg.seconds {
        null_times.push(run.solve(&mut NullObserver, setup, out).0);
        let mut profiler = layers::profiler();
        let (secs, sol) = run.solve(&mut profiler, setup, out);
        span_times.push(secs);
        match (Layers::from_profiler(&profiler), sol) {
            (Ok(l), Some(sol)) => {
                reconcile = reconcile.max(layers::reconcile_pct(&l, secs));
                last = Some((l, sol));
            }
            (Err(e), _) => {
                out.fail_check(e);
                return;
            }
            (Ok(_), None) => return,
        }
    }
    let Some((l, sol)) = last else { return };

    let threaded_s = stats::median(&null_times);
    let serial_s =
        layers::report_parallel_and_verify(run.problem, &run.opts, threaded_s, &sol.solution, out);
    let c = l.root_counters();
    out.set("kernel.subproblems", c.subproblems as f64);
    out.set("kernel.breakpoints", c.breakpoints_scanned as f64);
    out.set("kernel.pivots", c.quickselect_pivots as f64);
    out.set("kernel.clamps", c.boxed_clamps as f64);
    layers::report_solver_layers(&l, out);
    out.set(
        "trace.overhead_pct",
        100.0 * (stats::median(&span_times) - threaded_s) / threaded_s,
    );
    layers::report_reconcile(reconcile, out);
    out.meta_num("serial_solve_s", serial_s);
    out.meta_num("traced_solves", span_times.len() as f64);
}
