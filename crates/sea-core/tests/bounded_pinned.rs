//! Pinned bit patterns of the box-bounded driver.
//!
//! One dense and one CSR bounded instance with many active bounds are
//! solved to a tight tolerance, and the iteration count plus a digest of
//! the exact bits of `x`, `λ` and `μ` are compared against constants
//! recorded from the serial driver, once for the paper's SEA (depth 0,
//! cold boxed kernel) and once at the default extrapolation depth (warm
//! boxed kernel). The same bits must come out of every parallel
//! configuration and shard size, because each row/column subproblem is
//! solved independently of how the pass is split.

use sea_core::{
    solve_bounded_supervised, solve_bounded_supervised_configured, BoundedOptions, BoundedProblem,
    NullObserver, Parallelism, SeaOptions, Storage, SupervisorOptions,
};
use sea_linalg::{CsrMatrix, DenseMatrix};

const EPSILON: f64 = 1e-10;
const MAX_ITERATIONS: usize = 10_000;

/// What a solve is pinned to: iterations and FNV-1a digests of the bits
/// of `x` (stored values), `λ` and `μ`.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    iterations: usize,
    x: u64,
    lambda: u64,
    mu: u64,
}

const DENSE_PIN: Pin = Pin {
    iterations: 12,
    x: 12400346263963975915,
    lambda: 11292833622643139654,
    mu: 13130974632702898965,
};

const CSR_PIN: Pin = Pin {
    iterations: 5066,
    x: 2011184533715982601,
    lambda: 5682861972792706532,
    mu: 18286416250237337724,
};

/// New with the warm-started boxed kernel: the default extrapolation
/// depth, where bounded passes start each subproblem from its previous
/// multiplier.
const DENSE_DEFAULT_DEPTH_PIN: Pin = Pin {
    iterations: 6,
    x: 6422275910387453511,
    lambda: 8356694716409403612,
    mu: 7381897832353944531,
};

/// New with the warm-started boxed kernel (see [`DENSE_DEFAULT_DEPTH_PIN`]).
const CSR_DEFAULT_DEPTH_PIN: Pin = Pin {
    iterations: 16,
    x: 7386586354499034484,
    lambda: 11482432283728998075,
    mu: 13831892525905195365,
};

fn digest(v: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in v {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn prior(i: usize, j: usize) -> f64 {
    1.0 + ((i * 7 + j * 13 + 3) % 11) as f64
}

fn weight(i: usize, j: usize) -> f64 {
    10f64.powi(((i * 5 + j * 3) % 5) as i32 - 2)
}

/// Totals are the margins of a point inside the box — the prior scaled
/// cell by cell between 0.6× and 1.5× — so every instance is feasible by
/// construction, while bounds at 0.5× and 1.6× the prior bind many cells.
fn totals(cells: &[(usize, usize, f64)], m: usize, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut s0 = vec![0.0; m];
    let mut d0 = vec![0.0; n];
    for &(i, j, v) in cells {
        let y = v * [0.6, 1.0, 1.5][(i + 2 * j) % 3];
        s0[i] += y;
        d0[j] += y;
    }
    (s0, d0)
}

fn dense_problem() -> BoundedProblem {
    let (m, n) = (12, 9);
    let cells: Vec<(usize, usize, f64)> = (0..m)
        .flat_map(|i| (0..n).map(move |j| (i, j, prior(i, j))))
        .collect();
    let (s0, d0) = totals(&cells, m, n);
    let mat = |f: &dyn Fn(usize, usize) -> f64| {
        DenseMatrix::from_vec(m, n, cells.iter().map(|&(i, j, _)| f(i, j)).collect()).unwrap()
    };
    BoundedProblem::new(
        mat(&prior),
        mat(&weight),
        mat(&|i, j| 0.5 * prior(i, j)),
        mat(&|i, j| 1.6 * prior(i, j)),
        s0,
        d0,
    )
    .expect("pinned dense instance is feasible")
}

fn csr_problem() -> BoundedProblem<CsrMatrix> {
    let (m, n) = (14, 10);
    // A band of half-width 2 around the scaled diagonal.
    let cells: Vec<(usize, usize, f64)> = (0..m)
        .flat_map(|i| {
            (0..n)
                .filter(move |&j: &usize| (i * n).abs_diff(j * m) <= 2 * m)
                .map(move |j| (i, j, prior(i, j)))
        })
        .collect();
    let (s0, d0) = totals(&cells, m, n);
    let mat = |f: &dyn Fn(usize, usize) -> f64| {
        let trips: Vec<(usize, usize, f64)> =
            cells.iter().map(|&(i, j, _)| (i, j, f(i, j))).collect();
        CsrMatrix::from_triplets(m, n, &trips).unwrap()
    };
    BoundedProblem::new(
        mat(&prior),
        mat(&weight),
        mat(&|i, j| 0.5 * prior(i, j)),
        mat(&|i, j| 1.6 * prior(i, j)),
        s0,
        d0,
    )
    .expect("pinned CSR instance is feasible")
}

fn pin_of(iterations: usize, x: &[f64], lambda: &[f64], mu: &[f64]) -> Pin {
    Pin {
        iterations,
        x: digest(x),
        lambda: digest(lambda),
        mu: digest(mu),
    }
}

/// The paper's SEA: the pins were recorded without extrapolation.
fn pinned_options() -> SeaOptions {
    SeaOptions {
        max_iterations: MAX_ITERATIONS,
        extrapolation_depth: 0,
        ..SeaOptions::with_epsilon(EPSILON)
    }
}

/// Each pinned configuration: a tag, its options, and its dense and CSR
/// pins.
fn pinned_configs() -> [(&'static str, SeaOptions, &'static Pin, &'static Pin); 2] {
    let default_depth = SeaOptions {
        max_iterations: MAX_ITERATIONS,
        ..SeaOptions::with_epsilon(EPSILON)
    };
    [
        ("depth 0", pinned_options(), &DENSE_PIN, &CSR_PIN),
        (
            "default depth",
            default_depth,
            &DENSE_DEFAULT_DEPTH_PIN,
            &CSR_DEFAULT_DEPTH_PIN,
        ),
    ]
}

/// Solve both pinned instances with `opts` and compare against the pins.
fn assert_pinned(opts: &SeaOptions, dense_pin: &Pin, csr_pin: &Pin, tag: &str) {
    let sup = SupervisorOptions::default();
    let dense = solve_bounded_supervised(&dense_problem(), opts, &sup, &mut NullObserver)
        .expect("dense bounded solve");
    let s = &dense.solution;
    assert!(s.converged, "dense {tag}");
    assert_eq!(
        &pin_of(s.iterations, s.x.as_slice(), &s.lambda, &s.mu),
        dense_pin,
        "dense {tag}"
    );

    let csr = solve_bounded_supervised(&csr_problem(), opts, &sup, &mut NullObserver)
        .expect("CSR bounded solve");
    let s = &csr.solution;
    assert!(s.converged, "csr {tag}");
    assert_eq!(
        &pin_of(s.iterations, s.x.values(), &s.lambda, &s.mu),
        csr_pin,
        "csr {tag}"
    );
}

#[test]
fn serial_bounded_iterates_are_pinned() {
    for (tag, opts, dense_pin, csr_pin) in pinned_configs() {
        assert_pinned(&opts, dense_pin, csr_pin, tag);
    }
}

/// The configured entry point is the supervised driver with default
/// options and the given kernel, tolerance and cap.
#[test]
fn configured_entry_matches_the_supervised_driver() {
    let sup = SupervisorOptions::default();
    let p = dense_problem();
    let configured = solve_bounded_supervised_configured(
        &p,
        EPSILON,
        MAX_ITERATIONS,
        &BoundedOptions::default(),
        None,
        &sup,
        &mut NullObserver,
    )
    .expect("configured bounded solve")
    .solution;
    let opts = SeaOptions {
        max_iterations: MAX_ITERATIONS,
        ..SeaOptions::with_epsilon(EPSILON)
    };
    let direct = solve_bounded_supervised(&p, &opts, &sup, &mut NullObserver)
        .expect("bounded solve")
        .solution;
    assert!(configured.converged);
    assert_eq!(
        pin_of(
            configured.iterations,
            configured.x.as_slice(),
            &configured.lambda,
            &configured.mu
        ),
        pin_of(
            direct.iterations,
            direct.x.as_slice(),
            &direct.lambda,
            &direct.mu
        )
    );
}

#[test]
fn parallel_bounded_iterates_match_the_serial_pin() {
    let mut configs = vec![(Parallelism::Serial, None)];
    for threads in [2, 3] {
        for block in [1, 4] {
            configs.push((Parallelism::RayonThreads(threads), Some(block)));
        }
    }
    for (depth_tag, base, dense_pin, csr_pin) in pinned_configs() {
        for &(parallelism, block_size) in &configs {
            let opts = SeaOptions {
                parallelism,
                block_size,
                ..base.clone()
            };
            let tag = format!("{depth_tag} {parallelism:?}/{block_size:?}");
            assert_pinned(&opts, dense_pin, csr_pin, &tag);
        }
    }
}
