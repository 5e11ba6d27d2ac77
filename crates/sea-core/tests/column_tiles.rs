//! Dense column passes walk the problem's own row-major matrices in
//! column tiles; sparse ones solve the rows of transposed copies. Both
//! must do the same arithmetic: every dense problem here is solved again
//! as its CSR image, and λ, μ, x, the kernel counters and the certificate
//! must agree bit for bit.
//!
//! Column counts sit on both sides of the tile width (1, W − 1, W, W + 1
//! and 2W + 3, with W = 128 columns); row counts are 1, 2, 7 (lane
//! remainders) and 130. Each case draws its support (full or structural),
//! total class (fixed, elastic, balanced or box-bounded), kernel, start
//! (cold, warm from a supplied μ, or extrapolating), pool width (1–3) and
//! shard size (1, 3 or n) from a seeded generator, so every value of each
//! axis occurs.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sea_core::{
    solve_bounded_supervised, solve_diagonal_supervised, BoundedProblem, DiagonalProblem,
    KernelCounters, KernelKind, KktReport, NullObserver, Parallelism, SeaOptions, Storage,
    SupervisorOptions, TotalSpec, ZeroPolicy,
};
use sea_linalg::{CsrMatrix, DenseMatrix};

/// The dense column pass's tile width.
const W: usize = 128;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every field of a certificate, as bits.
fn report_bits(r: &KktReport) -> Vec<u64> {
    let res = r.residuals;
    [
        r.max_stationarity,
        r.max_sign_violation,
        r.max_total_stationarity,
        res.row_inf,
        res.col_inf,
        res.rel_row_inf,
        res.norm2,
        r.duality_gap,
        r.objective,
        r.min_entry,
    ]
    .map(f64::to_bits)
    .to_vec()
}

/// What a solve returns, as bits: λ, μ, x as a dense matrix, the kernel
/// counters and fallbacks, the iteration count and the certificate (or,
/// for a bounded solve, its residuals and objective).
#[derive(Debug, PartialEq)]
struct Outcome {
    lambda: Vec<u64>,
    mu: Vec<u64>,
    x: Vec<u64>,
    counters: KernelCounters,
    fallbacks: u64,
    iterations: usize,
    report: Vec<u64>,
}

/// The problem classes a case draws from.
#[derive(Debug, Clone, Copy)]
enum Class {
    Fixed,
    Elastic,
    Balanced,
    Boxed,
}

/// How a case starts: from μ = 0 at depth 0, from a supplied μ at depth
/// 0, or extrapolating (the default depth).
#[derive(Debug, Clone, Copy)]
enum Start {
    Cold,
    Warm,
    Extrapolating,
}

fn diagonal_outcome<S: Storage>(p: &DiagonalProblem<S>, opts: &SeaOptions) -> Outcome {
    let out = solve_diagonal_supervised(p, opts, &SupervisorOptions::default(), &mut NullObserver)
        .expect("diagonal solve");
    let sol = out.solution;
    Outcome {
        lambda: bits(&sol.lambda),
        mu: bits(&sol.mu),
        x: bits(sol.x.to_dense().expect("densify").as_slice()),
        counters: sol.stats.counters,
        fallbacks: out.kernel_fallbacks,
        iterations: sol.stats.iterations,
        report: report_bits(&out.certificate),
    }
}

fn bounded_outcome<S: Storage>(p: &BoundedProblem<S>, opts: &SeaOptions) -> Outcome {
    let out = solve_bounded_supervised(p, opts, &SupervisorOptions::default(), &mut NullObserver)
        .expect("bounded solve");
    let sol = out.solution;
    let res = sol.residuals;
    Outcome {
        lambda: bits(&sol.lambda),
        mu: bits(&sol.mu),
        x: bits(sol.x.to_dense().expect("densify").as_slice()),
        counters: sol.counters,
        fallbacks: out.kernel_fallbacks,
        iterations: sol.iterations,
        report: bits(&[
            res.row_inf,
            res.col_inf,
            res.rel_row_inf,
            res.norm2,
            sol.objective,
        ]),
    }
}

/// A random prior with about a fifth of its cells zero (every row and
/// column keeps a nonzero cell, so a structural problem stays feasible),
/// and weights over two decades.
fn prior_and_weights(rng: &mut ChaCha8Rng, m: usize, n: usize) -> (DenseMatrix, DenseMatrix) {
    let x0 = (0..m * n)
        .map(|k| {
            let (i, j) = (k / n, k % n);
            let keep = j == i % n || i == j % m;
            if !keep && rng.random_range(0.0..1.0) < 0.2 {
                0.0
            } else {
                rng.random_range(0.5..10.0)
            }
        })
        .collect();
    let gamma = (0..m * n)
        .map(|_| 10f64.powi(rng.random_range(-1..=1)))
        .collect();
    (
        DenseMatrix::from_vec(m, n, x0).expect("prior"),
        DenseMatrix::from_vec(m, n, gamma).expect("weights"),
    )
}

/// Totals of a perturbed prior: consistent row and column sums.
fn totals(rng: &mut ChaCha8Rng, x0: &DenseMatrix) -> (Vec<f64>, Vec<f64>) {
    let truth: Vec<f64> = x0
        .as_slice()
        .iter()
        .map(|v| v * rng.random_range(0.8..1.2))
        .collect();
    let t = DenseMatrix::from_vec(x0.rows(), x0.cols(), truth).expect("truth");
    (t.row_sums(), t.col_sums())
}

/// Solve one case dense and as its CSR image and compare bit for bit.
#[allow(clippy::too_many_arguments)]
fn check(
    seed: u64,
    m: usize,
    n: usize,
    structural: bool,
    class: Class,
    kernel: KernelKind,
    start: Start,
    threads: usize,
    block: usize,
) {
    let tag = format!(
        "seed {seed} {m}×{n} structural {structural} {class:?} {kernel:?} {start:?} \
         threads {threads} block {block}"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (x0, gamma) = prior_and_weights(&mut rng, m, n);
    let (s0, d0) = totals(&mut rng, &x0);
    let mut opts = SeaOptions::with_epsilon(1e-9);
    opts.max_iterations = 60;
    opts.kernel = kernel;
    opts.block_size = Some(block);
    opts.parallelism = match threads {
        1 => Parallelism::Serial,
        t => Parallelism::RayonThreads(t),
    };
    opts.extrapolation_depth = match start {
        Start::Extrapolating => 10,
        Start::Cold | Start::Warm => 0,
    };
    if let Start::Warm = start {
        opts.initial_mu = Some((0..n).map(|_| rng.random_range(-0.5..0.5)).collect());
    }
    let (dense, csr) = if let Class::Boxed = class {
        let lo: Vec<f64> = x0.as_slice().iter().map(|v| 0.5 * v).collect();
        let hi: Vec<f64> = x0.as_slice().iter().map(|v| 2.0 * v + 1.0).collect();
        let (lo, hi) = (
            DenseMatrix::from_vec(m, n, lo).expect("lo"),
            DenseMatrix::from_vec(m, n, hi).expect("hi"),
        );
        // Totals between the bounds' sums: the prior's, scaled a little.
        let (s0, d0) = (x0.row_sums(), x0.col_sums());
        let scale = rng.random_range(0.9..1.1);
        let (s0, d0): (Vec<f64>, Vec<f64>) = (
            s0.iter().map(|v| v * scale).collect(),
            d0.iter().map(|v| v * scale).collect(),
        );
        let full = |d: &DenseMatrix| CsrMatrix::from_dense_full(d).expect("CSR image");
        let sp = BoundedProblem::new(
            full(&x0),
            full(&gamma),
            full(&lo),
            full(&hi),
            s0.clone(),
            d0.clone(),
        )
        .expect("CSR bounded");
        let dp = BoundedProblem::new(x0, gamma, lo, hi, s0, d0).expect("dense bounded");
        (bounded_outcome(&dp, &opts), bounded_outcome(&sp, &opts))
    } else {
        let spec = match class {
            Class::Fixed => TotalSpec::Fixed { s0, d0 },
            Class::Elastic => TotalSpec::Elastic {
                alpha: (0..m).map(|_| rng.random_range(0.2..2.0)).collect(),
                s0,
                beta: (0..n).map(|_| rng.random_range(0.2..2.0)).collect(),
                d0,
            },
            Class::Balanced | Class::Boxed => TotalSpec::Balanced {
                alpha: (0..n).map(|_| rng.random_range(0.2..2.0)).collect(),
                s0,
            },
        };
        let policy = if structural {
            ZeroPolicy::Structural
        } else {
            ZeroPolicy::Free
        };
        let dp = DiagonalProblem::with_zero_policy(x0, gamma, spec, policy).expect("dense problem");
        let sp = DiagonalProblem::<CsrMatrix>::from_dense_problem(&dp).expect("CSR image");
        (diagonal_outcome(&dp, &opts), diagonal_outcome(&sp, &opts))
    };
    assert!(dense.counters.subproblems > 0, "{tag}: no kernel work");
    assert_eq!(dense, csr, "{tag}");
}

#[test]
fn column_tiles_match_the_csr_image_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x711E5);
    let kernels = [KernelKind::Quickselect, KernelKind::SortScan];
    let starts = [Start::Cold, Start::Warm, Start::Extrapolating];
    let mut case = 0usize;
    for n in [1, W - 1, W, W + 1, 2 * W + 3] {
        for m in [1, 2, 7, 130] {
            for class in [Class::Fixed, Class::Elastic, Class::Boxed] {
                let structural = !matches!(class, Class::Boxed) && case % 2 == 1;
                let block = [1, 3, n][case % 3];
                check(
                    rng.random_range(0..u64::MAX),
                    m,
                    n,
                    structural,
                    class,
                    kernels[case % 2],
                    starts[(case / 2) % 3],
                    1 + (case / 3) % 3,
                    block,
                );
                case += 1;
            }
        }
        // The balanced class needs a square problem.
        check(
            rng.random_range(0..u64::MAX),
            n,
            n,
            case.is_multiple_of(2),
            Class::Balanced,
            kernels[case % 2],
            starts[case % 3],
            1 + case % 3,
            [1, 3, n][case % 3],
        );
        case += 1;
    }
}
