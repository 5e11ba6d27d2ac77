//! SIMD / mixed-precision kernel benchmark: the `BENCH_10.json` snapshot.
//!
//! Three stages measure what the vectorized equilibration kernels actually
//! buy, against the untouched scalar oracle:
//!
//! * **kernel_primitives** — the n = 2000 breakpoint/clamp primitive bench:
//!   per-primitive medians for the f64 scalar oracle loop, the explicit
//!   f64 SIMD path, and (for the λ-search fills) the 8-lane f32
//!   mixed-precision path. The headline gate is the **median mixed-precision
//!   speedup over the scalar oracle across the breakpoint/coefficient
//!   fills, which must be ≥ 2×**. The f64 SIMD rows are reported honestly:
//!   they hover near 1× because the scalar fallback already
//!   autovectorizes and `vdivpd`'s per-element throughput does not improve
//!   with register width — the mixed-precision lanes (half the bandwidth,
//!   `vdivps` at ~3× the per-element rate) are where the win is.
//! * **full_kernel** — one whole n = 2000 exact equilibration per variant
//!   (sort-scan and quickselect; scalar vs SIMD vs f32 λ-search), with
//!   bitwise identity checks between the scalar and SIMD results.
//! * **e2e_banded_csr** — the 10 000 × 10 000 banded CSR instance
//!   (≈1.01·10⁷ nonzeros, the `bench_sparse` scale recipe) solved for a
//!   fixed iteration budget under `--simd off`/`--simd auto` and
//!   `f64`/`f32-mixed`, interleaved repeats, medians recorded. Wall-clock
//!   on shared runners is noisy (±20% observed), so this stage records
//!   speedups without a hard gate; the committed snapshot shows the win.
//!
//! ```text
//! bench_kernels [--out BENCH_10.json] [--seed 1990] [--repeats 21] [--smoke]
//! ```
//!
//! `--smoke` is the CI exit-code gate: tiny sizes, no speedup assertions
//! (CI runners share cores), but every bitwise identity check still runs —
//! scalar-vs-SIMD primitive fills, full-kernel results, and an
//! off-vs-auto end-to-end solve must agree bit for bit, and the
//! mixed-precision solve must run. Exits non-zero on any mismatch.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sea_core::{
    exact_equilibration_f32, exact_equilibration_simd, exact_equilibration_with, solve_diagonal,
    DiagonalProblem, EquilibrationScratch, KernelKind, Parallelism, Precision, SeaOptions,
    SimdLevel, SimdMode, Storage, TotalMode, TotalSpec, ZeroPolicy,
};
use sea_linalg::simd as prims;
use sea_linalg::CsrMatrix;
use sea_observe::json::{f64_to_json, JsonValue};
use std::time::Instant;

/// Primitive/full-kernel subproblem length (the acceptance size).
const KERNEL_N: usize = 2_000;
/// End-to-end stage order (matches the `bench_sparse` scale stage).
const E2E_N: usize = 10_000;
/// End-to-end half-bandwidth: ≈1.01·10⁷ stored nonzeros.
const E2E_HB: usize = 520;
/// Fixed iteration budget for the end-to-end stage: every configuration
/// does identical per-iteration work, so wall-clock ratios are kernel
/// ratios, not convergence-path artifacts.
const E2E_ITERATIONS: usize = 4;
/// Interleaved end-to-end repeats per configuration.
const E2E_REPEATS: usize = 5;
/// The primitive-stage gate: median mixed-precision fill speedup over the
/// scalar f64 oracle.
const MIXED_GATE: f64 = 2.0;

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty());
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timing samples"));
    v[v.len() / 2]
}

/// Median nanoseconds of one call to `f`, over `trials` samples of `reps`
/// calls each.
fn time_ns<F: FnMut()>(mut f: F, reps: usize, trials: usize) -> f64 {
    let mut samples = Vec::with_capacity(trials);
    for _ in 0..trials {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    median(samples)
}

/// Deterministic well-conditioned kernel inputs (no RNG: the primitive
/// stage must be byte-reproducible across runs).
#[allow(clippy::type_complexity)]
fn kernel_inputs(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let q: Vec<f64> = (0..n)
        .map(|j| ((j * 37 % 101) as f64) / 7.0 - 4.0)
        .collect();
    let g: Vec<f64> = (0..n)
        .map(|j| 0.03 + ((j * 13 % 89) as f64) / 11.0)
        .collect();
    let sh: Vec<f64> = (0..n).map(|j| ((j * 7 % 61) as f64) / 9.0 - 2.5).collect();
    let lo: Vec<f64> = (0..n).map(|j| ((j * 3 % 17) as f64) / 10.0 - 0.4).collect();
    let hi: Vec<f64> = lo.iter().map(|&l| l + 2.5).collect();
    (q, g, sh, lo, hi)
}

fn bits_eq_f64(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn bits_eq_f32(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One primitive row: scalar-oracle, f64 SIMD, and optional f32 medians.
struct PrimRow {
    name: &'static str,
    f64_scalar_ns: f64,
    f64_simd_ns: f64,
    f32_simd_ns: Option<f64>,
}

/// Time (and bitwise-check) every vectorized fill primitive at length `n`.
fn bench_primitives(n: usize, reps: usize, trials: usize, level: SimdLevel) -> Vec<PrimRow> {
    let (q, g, sh, lo, hi) = kernel_inputs(n);
    let nar = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
    let (q32, g32, sh32, lo32, hi32) = (nar(&q), nar(&g), nar(&sh), nar(&lo), nar(&hi));
    let mut rows = Vec::new();

    // Scratch outputs, reused across timings.
    let mut o1 = vec![0.0f64; n];
    let mut o2 = vec![0.0f64; n];
    let mut o3 = vec![0.0f64; n];
    let mut s1 = vec![0.0f32; n];
    let mut s2 = vec![0.0f32; n];

    // breakpoints_plain: the plain λ-search breakpoint fill.
    let mut rf = vec![0.0f64; n];
    prims::breakpoints_plain(SimdLevel::Scalar, &q, &g, &sh, &mut rf);
    prims::breakpoints_plain(level, &q, &g, &sh, &mut o1);
    assert!(bits_eq_f64(&rf, &o1), "breakpoints_plain diverged");
    let mut rf32 = vec![0.0f32; n];
    prims::breakpoints_plain_f32(SimdLevel::Scalar, &q32, &g32, &sh32, &mut rf32);
    prims::breakpoints_plain_f32(level, &q32, &g32, &sh32, &mut s1);
    assert!(bits_eq_f32(&rf32, &s1), "breakpoints_plain_f32 diverged");
    rows.push(PrimRow {
        name: "breakpoints_plain",
        f64_scalar_ns: time_ns(
            || prims::breakpoints_plain(SimdLevel::Scalar, &q, &g, &sh, &mut o1),
            reps,
            trials,
        ),
        f64_simd_ns: time_ns(
            || prims::breakpoints_plain(level, &q, &g, &sh, &mut o1),
            reps,
            trials,
        ),
        f32_simd_ns: Some(time_ns(
            || prims::breakpoints_plain_f32(level, &q32, &g32, &sh32, &mut s1),
            reps,
            trials,
        )),
    });

    // event_coeffs_plain: per-event slope/intercept deltas (the divisions).
    {
        let (mut v0, mut da0, mut db0) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        prims::event_coeffs_plain(SimdLevel::Scalar, &q, &g, &sh, &mut v0, &mut da0, &mut db0);
        prims::event_coeffs_plain(level, &q, &g, &sh, &mut o1, &mut o2, &mut o3);
        assert!(
            bits_eq_f64(&v0, &o1) && bits_eq_f64(&da0, &o2) && bits_eq_f64(&db0, &o3),
            "event_coeffs_plain diverged"
        );
        let (mut da0s, mut db0s) = (vec![0.0f32; n], vec![0.0f32; n]);
        prims::event_coeffs_plain_f32(SimdLevel::Scalar, &q32, &g32, &sh32, &mut da0s, &mut db0s);
        prims::event_coeffs_plain_f32(level, &q32, &g32, &sh32, &mut s1, &mut s2);
        assert!(
            bits_eq_f32(&da0s, &s1) && bits_eq_f32(&db0s, &s2),
            "event_coeffs_plain_f32 diverged"
        );
    }
    rows.push(PrimRow {
        name: "event_coeffs",
        f64_scalar_ns: time_ns(
            || prims::event_coeffs_plain(SimdLevel::Scalar, &q, &g, &sh, &mut o1, &mut o2, &mut o3),
            reps,
            trials,
        ),
        f64_simd_ns: time_ns(
            || prims::event_coeffs_plain(level, &q, &g, &sh, &mut o1, &mut o2, &mut o3),
            reps,
            trials,
        ),
        f32_simd_ns: Some(time_ns(
            || prims::event_coeffs_plain_f32(level, &q32, &g32, &sh32, &mut s1, &mut s2),
            reps,
            trials,
        )),
    });

    // breakpoints_boxed: the two-sided (clamped) event fill.
    {
        let (mut l0, mut h0) = (vec![0.0; n], vec![0.0; n]);
        prims::breakpoints_boxed(SimdLevel::Scalar, &q, &g, &sh, &lo, &hi, &mut l0, &mut h0);
        prims::breakpoints_boxed(level, &q, &g, &sh, &lo, &hi, &mut o1, &mut o2);
        assert!(
            bits_eq_f64(&l0, &o1) && bits_eq_f64(&h0, &o2),
            "breakpoints_boxed diverged"
        );
        let (mut l0s, mut h0s) = (vec![0.0f32; n], vec![0.0f32; n]);
        prims::breakpoints_boxed_f32(
            SimdLevel::Scalar,
            &q32,
            &g32,
            &sh32,
            &lo32,
            &hi32,
            &mut l0s,
            &mut h0s,
        );
        prims::breakpoints_boxed_f32(level, &q32, &g32, &sh32, &lo32, &hi32, &mut s1, &mut s2);
        assert!(
            bits_eq_f32(&l0s, &s1) && bits_eq_f32(&h0s, &s2),
            "breakpoints_boxed_f32 diverged"
        );
    }
    rows.push(PrimRow {
        name: "breakpoints_boxed",
        f64_scalar_ns: time_ns(
            || prims::breakpoints_boxed(SimdLevel::Scalar, &q, &g, &sh, &lo, &hi, &mut o1, &mut o2),
            reps,
            trials,
        ),
        f64_simd_ns: time_ns(
            || prims::breakpoints_boxed(level, &q, &g, &sh, &lo, &hi, &mut o1, &mut o2),
            reps,
            trials,
        ),
        f32_simd_ns: Some(time_ns(
            || {
                prims::breakpoints_boxed_f32(
                    level, &q32, &g32, &sh32, &lo32, &hi32, &mut s1, &mut s2,
                )
            },
            reps,
            trials,
        )),
    });

    // materialize_plain / materialize_boxed: the clamp sweeps. These stay
    // f64-only — mixed precision always materializes in f64 so residuals
    // are measured honestly.
    let lambda = 0.7321;
    {
        let mut x0 = vec![0.0; n];
        let (r0, a0) = prims::materialize_plain(SimdLevel::Scalar, &q, &g, &sh, lambda, &mut x0);
        let (r1, a1) = prims::materialize_plain(level, &q, &g, &sh, lambda, &mut o1);
        assert!(
            r0.to_bits() == r1.to_bits() && a0 == a1 && bits_eq_f64(&x0, &o1),
            "materialize_plain diverged"
        );
    }
    rows.push(PrimRow {
        name: "materialize_plain",
        f64_scalar_ns: time_ns(
            || {
                std::hint::black_box(prims::materialize_plain(
                    SimdLevel::Scalar,
                    &q,
                    &g,
                    &sh,
                    lambda,
                    &mut o1,
                ));
            },
            reps,
            trials,
        ),
        f64_simd_ns: time_ns(
            || {
                std::hint::black_box(prims::materialize_plain(
                    level, &q, &g, &sh, lambda, &mut o1,
                ));
            },
            reps,
            trials,
        ),
        f32_simd_ns: None,
    });
    {
        let mut x0 = vec![0.0; n];
        let c0 =
            prims::materialize_boxed(SimdLevel::Scalar, &q, &g, &sh, &lo, &hi, lambda, &mut x0);
        let c1 = prims::materialize_boxed(level, &q, &g, &sh, &lo, &hi, lambda, &mut o1);
        assert!(
            c0 == c1 && bits_eq_f64(&x0, &o1),
            "materialize_boxed diverged"
        );
    }
    rows.push(PrimRow {
        name: "materialize_boxed",
        f64_scalar_ns: time_ns(
            || {
                std::hint::black_box(prims::materialize_boxed(
                    SimdLevel::Scalar,
                    &q,
                    &g,
                    &sh,
                    &lo,
                    &hi,
                    lambda,
                    &mut o1,
                ));
            },
            reps,
            trials,
        ),
        f64_simd_ns: time_ns(
            || {
                std::hint::black_box(prims::materialize_boxed(
                    level, &q, &g, &sh, &lo, &hi, lambda, &mut o1,
                ));
            },
            reps,
            trials,
        ),
        f32_simd_ns: None,
    });

    rows
}

/// Median speedup of the f32 mixed-precision fills over the f64 scalar
/// oracle, across the rows that have an f32 path.
fn mixed_median_speedup(rows: &[PrimRow]) -> f64 {
    let speedups: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.f32_simd_ns.map(|f32ns| r.f64_scalar_ns / f32ns))
        .collect();
    median(speedups)
}

fn primitives_json(rows: &[PrimRow], n: usize) -> JsonValue {
    let row_objs: Vec<JsonValue> = rows
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("primitive", JsonValue::String(r.name.to_string())),
                ("f64_scalar_ns", f64_to_json(r.f64_scalar_ns)),
                ("f64_simd_ns", f64_to_json(r.f64_simd_ns)),
                (
                    "f64_simd_speedup",
                    f64_to_json(r.f64_scalar_ns / r.f64_simd_ns),
                ),
            ];
            if let Some(f32ns) = r.f32_simd_ns {
                fields.push(("f32_simd_ns", f64_to_json(f32ns)));
                fields.push(("mixed_speedup", f64_to_json(r.f64_scalar_ns / f32ns)));
            }
            obj(fields)
        })
        .collect();
    obj(vec![
        ("n", JsonValue::Number(n as f64)),
        ("rows", JsonValue::Array(row_objs)),
        (
            "mixed_median_speedup",
            f64_to_json(mixed_median_speedup(rows)),
        ),
    ])
}

/// Whole-kernel comparison at length `n`: scalar oracle vs SIMD vs the f32
/// λ-search, for both kernel kinds, with bitwise identity checks on the
/// scalar-vs-SIMD pair.
fn bench_full_kernel(n: usize, reps: usize, trials: usize, level: SimdLevel) -> JsonValue {
    let (q, g, sh, _, _) = kernel_inputs(n);
    let total = q.iter().map(|v| v.abs()).sum::<f64>() * 0.4 + 1.0;
    let mode = TotalMode::Fixed { total };
    let mut scratch = EquilibrationScratch::default();
    let mut x = vec![0.0; n];
    let mut rows = Vec::new();

    for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
        // Bitwise identity: SIMD vs scalar on the same subproblem.
        let mut x_ref = vec![0.0; n];
        let r_ref = exact_equilibration_with(kernel, &q, &g, &sh, mode, &mut x_ref, &mut scratch)
            .expect("scalar kernel solves");
        let r_simd =
            exact_equilibration_simd(level, kernel, &q, &g, &sh, mode, None, &mut x, &mut scratch)
                .expect("simd kernel solves");
        assert!(
            r_ref.lambda.to_bits() == r_simd.lambda.to_bits() && bits_eq_f64(&x_ref, &x),
            "{kernel:?}: SIMD kernel diverged from the scalar oracle"
        );
        let f32_ok = exact_equilibration_f32(level, &q, &g, &sh, mode, &mut x, &mut scratch)
            .expect("f32 kernel runs")
            .is_some();
        assert!(
            f32_ok,
            "f32 λ-search must handle the well-conditioned bench input"
        );

        let scalar_ns = time_ns(
            || {
                std::hint::black_box(
                    exact_equilibration_with(kernel, &q, &g, &sh, mode, &mut x, &mut scratch)
                        .expect("scalar kernel solves"),
                );
            },
            reps,
            trials,
        );
        let simd_ns = time_ns(
            || {
                std::hint::black_box(
                    exact_equilibration_simd(
                        level,
                        kernel,
                        &q,
                        &g,
                        &sh,
                        mode,
                        None,
                        &mut x,
                        &mut scratch,
                    )
                    .expect("simd kernel solves"),
                );
            },
            reps,
            trials,
        );
        let f32_ns = time_ns(
            || {
                std::hint::black_box(
                    exact_equilibration_f32(level, &q, &g, &sh, mode, &mut x, &mut scratch)
                        .expect("f32 kernel runs"),
                );
            },
            reps,
            trials,
        );
        rows.push(obj(vec![
            (
                "kernel",
                JsonValue::String(format!("{kernel:?}").to_lowercase()),
            ),
            ("scalar_ns", f64_to_json(scalar_ns)),
            ("simd_ns", f64_to_json(simd_ns)),
            ("simd_speedup", f64_to_json(scalar_ns / simd_ns)),
            ("f32_sort_scan_ns", f64_to_json(f32_ns)),
        ]));
    }
    obj(vec![
        ("n", JsonValue::Number(n as f64)),
        ("rows", JsonValue::Array(rows)),
    ])
}

/// Build a banded CSR prior directly in CSR order (the `bench_sparse`
/// recipe: triplet assembly would transiently triple the footprint).
fn banded_prior(rng: &mut ChaCha8Rng, n: usize, hb: usize) -> CsrMatrix {
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx: Vec<u32> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    row_ptr.push(0);
    for i in 0..n {
        let lo = i.saturating_sub(hb);
        let hi = (i + hb).min(n - 1);
        for j in lo..=hi {
            col_idx.push(j as u32);
            vals.push(rng.random_range(0.5..10.0));
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(n, n, row_ptr, col_idx, vals).expect("banded pattern is valid CSR")
}

/// Feasible fixed-totals sparse problem on a banded support.
fn banded_problem(seed: u64, n: usize, hb: usize) -> DiagonalProblem<CsrMatrix> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let x0 = banded_prior(&mut rng, n, hb);
    let gvals: Vec<f64> = (0..x0.stored())
        .map(|_| 10f64.powi(rng.random_range(-1..=1)))
        .collect();
    let gamma = x0.with_values(gvals).expect("same pattern");
    let yvals: Vec<f64> = x0
        .vals()
        .iter()
        .map(|&v| v * rng.random_range(0.9..1.1))
        .collect();
    let y = x0.with_values(yvals).expect("same pattern");
    let mut s0 = vec![0.0; n];
    let mut d0 = vec![0.0; n];
    y.row_sums_into(&mut s0);
    y.col_sums_into(&mut d0);
    DiagonalProblem::with_zero_policy(
        x0,
        gamma,
        TotalSpec::Fixed { s0, d0 },
        ZeroPolicy::Structural,
    )
    .expect("banded problem is feasible by construction")
}

fn e2e_options(simd: SimdMode, precision: Precision, iterations: usize) -> SeaOptions {
    // ε = -1 is unreachable, so every solve runs exactly `iterations`
    // row/column epochs: identical work per configuration.
    let mut o = SeaOptions::with_epsilon(-1.0);
    o.max_iterations = iterations;
    o.parallelism = Parallelism::RayonThreads(4);
    o.kernel = KernelKind::SortScan;
    o.simd = simd;
    o.precision = precision;
    o
}

/// End-to-end stage: fixed-budget solves of the banded CSR instance under
/// the three configurations, interleaved, medians recorded.
fn bench_e2e(seed: u64, n: usize, hb: usize, iterations: usize, repeats: usize) -> JsonValue {
    let p = banded_problem(seed, n, hb);
    let nnz = p.x0().stored();
    let configs: [(&str, SimdMode, Precision); 3] = [
        ("off/f64", SimdMode::Off, Precision::F64),
        ("auto/f64", SimdMode::Auto, Precision::F64),
        ("auto/f32-mixed", SimdMode::Auto, Precision::F32Mixed),
    ];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for _ in 0..repeats {
        for (ci, (_, simd, prec)) in configs.iter().enumerate() {
            let o = e2e_options(*simd, *prec, iterations);
            let t = Instant::now();
            let sol = solve_diagonal(&p, &o).expect("e2e solve runs");
            times[ci].push(t.elapsed().as_secs_f64());
            assert_eq!(sol.stats.iterations, iterations);
        }
    }
    let medians: Vec<f64> = times.iter().map(|v| median(v.clone())).collect();
    let rows: Vec<JsonValue> = configs
        .iter()
        .enumerate()
        .map(|(ci, (label, _, _))| {
            let mut fields = vec![
                ("config", JsonValue::String((*label).to_string())),
                ("median_s", f64_to_json(medians[ci])),
            ];
            if ci > 0 {
                fields.push(("speedup_vs_off", f64_to_json(medians[0] / medians[ci])));
            }
            obj(fields)
        })
        .collect();
    obj(vec![
        ("rows_n", JsonValue::Number(n as f64)),
        ("half_bandwidth", JsonValue::Number(hb as f64)),
        ("nnz", JsonValue::Number(nnz as f64)),
        ("iterations", JsonValue::Number(iterations as f64)),
        ("repeats", JsonValue::Number(repeats as f64)),
        ("kernel", JsonValue::String("sort_scan".to_string())),
        ("rows", JsonValue::Array(rows)),
    ])
}

/// The CI smoke gate: every bitwise identity check at small sizes, plus an
/// off-vs-auto end-to-end bitwise comparison and a mixed-precision solve.
/// No speedup assertions — shared runners cannot time reliably.
fn run_smoke(seed: u64, level: SimdLevel) {
    let n = 257; // deliberately not a lane multiple
    let _ = bench_primitives(n, 4, 3, level);
    let _ = bench_full_kernel(n, 2, 3, level);

    let p = banded_problem(seed, 400, 30);
    let off = solve_diagonal(&p, &e2e_options(SimdMode::Off, Precision::F64, 3))
        .expect("smoke off solve");
    let auto = solve_diagonal(&p, &e2e_options(SimdMode::Auto, Precision::F64, 3))
        .expect("smoke auto solve");
    assert_eq!(off.stats.iterations, auto.stats.iterations);
    assert!(
        bits_eq_f64(off.x.values(), auto.x.values()),
        "off/auto end-to-end iterates diverged"
    );
    let mixed = solve_diagonal(&p, &e2e_options(SimdMode::Auto, Precision::F32Mixed, 3))
        .expect("smoke mixed solve");
    assert_eq!(mixed.stats.iterations, 3);
    println!("smoke passed (level={level}, n={n}, e2e 400×400)");
}

fn main() {
    let mut out: Option<String> = None;
    let mut seed = 1990u64;
    let mut repeats = 21usize;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be an integer")
            }
            "--repeats" => {
                repeats = args
                    .next()
                    .expect("--repeats needs a value")
                    .parse()
                    .expect("repeats must be an integer")
            }
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other:?} (see the module docs)"),
        }
    }

    let level = SimdLevel::detect();
    if smoke {
        run_smoke(seed, level);
        return;
    }

    let prim_rows = bench_primitives(KERNEL_N, 2_000, repeats, level);
    let mixed_speedup = mixed_median_speedup(&prim_rows);
    println!(
        "kernel primitives measured (n={KERNEL_N}, level={level}): \
         mixed median speedup {mixed_speedup:.2}x"
    );
    assert!(
        mixed_speedup >= MIXED_GATE,
        "mixed-precision breakpoint/clamp fills must be ≥{MIXED_GATE}x the \
         scalar oracle, measured {mixed_speedup:.2}x"
    );

    let full = bench_full_kernel(KERNEL_N, 200, repeats, level);
    println!("full-kernel stage measured (n={KERNEL_N})");

    let e2e = bench_e2e(seed, E2E_N, E2E_HB, E2E_ITERATIONS, E2E_REPEATS);
    println!("end-to-end stage measured ({E2E_N}×{E2E_N}, hb={E2E_HB})");

    let doc = obj(vec![
        (
            "schema",
            JsonValue::String("sea-bench-summary/v1".to_string()),
        ),
        ("pr", JsonValue::Number(10.0)),
        ("seed", JsonValue::Number(seed as f64)),
        ("simd_level", JsonValue::String(level.name().to_string())),
        ("kernel_primitives", primitives_json(&prim_rows, KERNEL_N)),
        ("full_kernel", full),
        ("e2e_banded_csr", e2e),
    ]);
    let mut text = doc.render();
    text.push('\n');
    let out = out.unwrap_or_else(|| "BENCH_10.json".to_string());
    std::fs::write(&out, text).expect("write bench summary");
    println!("wrote {out}");
}
