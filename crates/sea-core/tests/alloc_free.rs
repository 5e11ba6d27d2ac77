//! Steady-state allocation audit for the equilibration kernels and the
//! diagonal solver.
//!
//! A counting global allocator wraps the system allocator; after one warm-up
//! call per (kernel × variant) that sizes the reusable scratch, repeated
//! kernel invocations must perform exactly zero heap allocations. A second
//! section audits the whole supervised solve loop, for a plain and a
//! box-bounded problem, under the default `NullObserver` differentially: a
//! solve doing twice the iterations must allocate exactly as much as the
//! half-length solve, so the per-iteration cost (including the supervisor's
//! snapshot capture and every-iteration watchdog) is zero.
//!
//! The counter is *per-thread*: the audited paths all run serially on the
//! test thread, while libtest's harness thread lazily initializes its own
//! channel machinery (`std::sync::mpmc` thread-locals) at a
//! scheduling-dependent moment — a process-global counter intermittently
//! caught those two foreign allocations inside a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sea_core::{
    exact_equilibration, solve_bounded_supervised, solve_diagonal_supervised, BoundedProblem,
    DiagonalProblem, EquilibrationScratch, KernelKind, NullObserver, SeaOptions, SupervisorOptions,
    TotalMode, TotalSpec,
};
use sea_linalg::DenseMatrix;

struct CountingAllocator;

std::thread_local! {
    // const-initialized: accessing it never allocates, so the allocator
    // hooks cannot recurse.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    // Allocations of at least `LARGE_BYTES` bytes (0: not counted).
    static LARGE: Cell<usize> = const { Cell::new(0) };
    static LARGE_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Bump the calling thread's counters for an allocation of `bytes`;
/// silently skipped during thread teardown when the TLS slots are already
/// destroyed.
fn count_one(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let large = LARGE_BYTES.try_with(|t| t.get() != 0 && bytes >= t.get());
    if large == Ok(true) {
        let _ = LARGE.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.with(|c| c.get())
}

#[test]
fn kernels_do_not_allocate_in_steady_state() {
    let n = 512;
    let q: Vec<f64> = (0..n)
        .map(|j| ((j * 37 % 101) as f64) / 10.0 - 2.0)
        .collect();
    let gamma: Vec<f64> = (0..n)
        .map(|j| 0.05 + ((j * 13 % 89) as f64) / 20.0)
        .collect();
    let shift: Vec<f64> = (0..n).map(|j| ((j * 7 % 61) as f64) / 30.0 - 1.0).collect();
    let lo: Vec<f64> = (0..n).map(|j| ((j * 3 % 17) as f64) / 10.0).collect();
    let hi: Vec<f64> = lo.iter().map(|&l| l + 3.0).collect();
    let slo: f64 = lo.iter().sum();
    let shi: f64 = hi.iter().sum();
    let bounds = Some((&lo[..], &hi[..]));
    let mut x = vec![0.0; n];
    let mut scratch = EquilibrationScratch::new();

    let fixed = TotalMode::Fixed { total: 300.0 };
    let elastic = TotalMode::Elastic {
        alpha: 0.7,
        prior: 280.0,
        cross: 0.4,
    };
    let boxed_total = TotalMode::Fixed {
        total: 0.5 * (slo + shi),
    };

    // Warm-up: size the scratch buffers for every code path once.
    for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
        for mode in [fixed, elastic] {
            exact_equilibration(kernel, &q, &gamma, &shift, None, mode, &mut x, &mut scratch)
                .unwrap();
        }
        exact_equilibration(
            kernel,
            &q,
            &gamma,
            &shift,
            bounds,
            boxed_total,
            &mut x,
            &mut scratch,
        )
        .unwrap();
    }

    for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
        let before = allocations();
        for round in 0..200 {
            // Vary the total so the active set moves between calls.
            let total = 100.0 + (round as f64) * 2.0;
            exact_equilibration(
                kernel,
                &q,
                &gamma,
                &shift,
                None,
                TotalMode::Fixed { total },
                &mut x,
                &mut scratch,
            )
            .unwrap();
            exact_equilibration(
                kernel,
                &q,
                &gamma,
                &shift,
                None,
                elastic,
                &mut x,
                &mut scratch,
            )
            .unwrap();
            let boxed_t = slo + (shi - slo) * ((round as f64) + 0.5) / 200.0;
            exact_equilibration(
                kernel,
                &q,
                &gamma,
                &shift,
                bounds,
                TotalMode::Fixed { total: boxed_t },
                &mut x,
                &mut scratch,
            )
            .unwrap();
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{kernel}: kernel allocated in steady state"
        );
    }

    // ---- Whole-solve audit under the default NullObserver. ----
    //
    // Per-solve setup allocates (solution matrix, multipliers, reusable
    // buffers), so the audit is differential: with an unattainable
    // tolerance pinning the iteration count to `max_iterations`, a
    // 16-iteration solve must allocate exactly as much as an 8-iteration
    // solve — i.e. the steady-state loop itself is allocation-free. The
    // box-bounded problem runs the same loop with the boxed kernel.
    let m = 12;
    let data: Vec<f64> = (0..m * m).map(|k| 0.5 + ((k * 29 % 97) as f64)).collect();
    let x0 = DenseMatrix::from_vec(m, m, data).unwrap();
    let gamma =
        DenseMatrix::from_vec(m, m, x0.as_slice().iter().map(|&v| 1.0 / v).collect()).unwrap();
    let s0: Vec<f64> = x0.row_sums().iter().map(|v| 2.0 * v).collect();
    let d0: Vec<f64> = x0.col_sums().iter().map(|v| 2.0 * v).collect();
    let scaled = |k: f64| {
        DenseMatrix::from_vec(m, m, x0.as_slice().iter().map(|&v| k * v).collect()).unwrap()
    };
    let bounded = BoundedProblem::new(
        x0.clone(),
        gamma.clone(),
        scaled(0.5),
        scaled(3.0),
        s0.clone(),
        d0.clone(),
    )
    .unwrap();
    let p = DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 }).unwrap();
    let sup = SupervisorOptions::default();

    for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
        for depth in [0, SeaOptions::default().extrapolation_depth] {
            for class in ["diagonal", "bounded"] {
                let solve_allocations = |iterations: usize| -> usize {
                    let mut opts = SeaOptions::with_epsilon(1e-8);
                    opts.epsilon = -1.0; // unattainable: always run to the cap
                    opts.max_iterations = iterations;
                    opts.kernel = kernel;
                    opts.extrapolation_depth = depth;
                    let before = allocations();
                    let done = match class {
                        "diagonal" => {
                            solve_diagonal_supervised(&p, &opts, &sup, &mut NullObserver)
                                .unwrap()
                                .solution
                                .stats
                                .iterations
                        }
                        _ => {
                            solve_bounded_supervised(&bounded, &opts, &sup, &mut NullObserver)
                                .unwrap()
                                .solution
                                .iterations
                        }
                    };
                    let after = allocations();
                    assert_eq!(done, iterations, "{class}: cap must bind");
                    after - before
                };
                solve_allocations(4); // warm-up (allocator internals, lazy statics)
                let base = solve_allocations(8);
                let doubled = solve_allocations(16);
                assert_eq!(
                    doubled, base,
                    "{kernel}/{class}/depth {depth}: solve iterations allocated under NullObserver"
                );
            }
        }
    }

    // ---- Span-enabled differential audit. ----
    //
    // Same differential contract with a preallocated SpanProfiler
    // attached: spans land in the profiler's ring in place and each
    // check's telemetry sample is a `Copy` value the profiler drops, so a
    // span-recording solve loop must stay allocation-free per iteration
    // exactly like the NullObserver loop. The profiler is built (and its
    // ring sized) before the baseline measurement.
    let mut profiler = sea_core::SpanProfiler::with_capacity(4096, 512);
    for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
        let mut solve_allocations = |iterations: usize| -> usize {
            let mut opts = SeaOptions::with_epsilon(1e-8);
            opts.epsilon = -1.0; // unattainable: always run to the cap
            opts.max_iterations = iterations;
            opts.kernel = kernel;
            profiler.reset();
            let before = allocations();
            let sol = solve_diagonal_supervised(&p, &opts, &sup, &mut profiler)
                .unwrap()
                .solution;
            let after = allocations();
            assert_eq!(sol.stats.iterations, iterations, "cap must bind");
            after - before
        };
        solve_allocations(4); // warm-up
        let base = solve_allocations(8);
        let doubled = solve_allocations(16);
        assert_eq!(
            doubled, base,
            "{kernel}: solve iterations allocated with span profiling on"
        );
        assert!(
            !profiler.spans().is_empty(),
            "{kernel}: profiler recorded no spans — audit is vacuous"
        );
    }
}

/// A warm dense solve reads its prior, weights and bounds where they lie:
/// besides the iterate it returns, it allocates no buffer of the
/// problem's size (no transposed copies), and its loop allocates nothing.
#[test]
fn warm_dense_solve_allocates_one_matrix() {
    let (m, n) = (40, 300);
    let x0 =
        DenseMatrix::from_vec(m, n, (0..m * n).map(|k| 1.0 + (k % 7) as f64).collect()).unwrap();
    let gamma =
        DenseMatrix::from_vec(m, n, (0..m * n).map(|k| 0.5 + (k % 3) as f64).collect()).unwrap();
    let s0: Vec<f64> = x0.row_sums().iter().map(|v| v * 1.1).collect();
    let d0: Vec<f64> = x0.col_sums().iter().map(|v| v * 1.1).collect();
    let scaled = |f: f64| {
        DenseMatrix::from_vec(m, n, x0.as_slice().iter().map(|v| v * f).collect()).unwrap()
    };
    let bounded = BoundedProblem::new(
        x0.clone(),
        gamma.clone(),
        scaled(0.5),
        scaled(3.0),
        s0.clone(),
        d0.clone(),
    )
    .unwrap();
    let p = DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 }).unwrap();
    let sup = SupervisorOptions::default();
    let mut opts = SeaOptions::with_epsilon(1e-8);
    opts.epsilon = -1.0; // unattainable: always run to the cap
    opts.initial_mu = Some(vec![0.1; n]);
    for class in ["diagonal", "bounded"] {
        let solve = |iterations: usize| -> (usize, usize) {
            let opts = SeaOptions {
                max_iterations: iterations,
                ..opts.clone()
            };
            LARGE_BYTES.with(|t| t.set(m * n * std::mem::size_of::<f64>()));
            let before = (allocations(), LARGE.with(Cell::get));
            match class {
                "diagonal" => {
                    solve_diagonal_supervised(&p, &opts, &sup, &mut NullObserver).unwrap();
                }
                _ => {
                    solve_bounded_supervised(&bounded, &opts, &sup, &mut NullObserver).unwrap();
                }
            }
            let after = (allocations(), LARGE.with(Cell::get));
            LARGE_BYTES.with(|t| t.set(0));
            (after.0 - before.0, after.1 - before.1)
        };
        solve(4); // warm-up (scratch, allocator internals, lazy statics)
        let (base, large) = solve(8);
        assert_eq!(large, 1, "{class}: m·n buffers besides the iterate");
        assert_eq!(solve(16).0, base, "{class}: solve iterations allocated");
    }
}
