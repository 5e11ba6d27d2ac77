//! Shared seeded problem generator for property and batch tests.
//!
//! Every family here is a pure function of its `u64` seed (ChaCha8 +
//! SplitMix64 seed expansion, both vendored and stable), so any test in any
//! crate can reproduce an instance from the seed alone — no captured
//! fixtures, no shrinking needed. The families deliberately cover the
//! numerically nasty corners the robustness suite stresses: degenerate
//! 1×n / m×1 shapes, weight spreads of up to twelve orders of magnitude,
//! grand totals squeezed toward 1e-12 or blown up to 1e6, and
//! drifting-prior sequences that model the batch warm-start workload.
//!
//! Included via `#[path]` from several test binaries, each of which uses a
//! different subset — hence the file-level `allow(dead_code)`.
#![allow(dead_code)]

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sea_core::{
    BoundedProblem, DiagonalProblem, GeneralProblem, GeneralTotalSpec, SeaError, Storage,
    TotalSpec, ZeroPolicy,
};
use sea_linalg::{CsrMatrix, DenseMatrix, SymMatrix};

/// The deterministic RNG behind every family.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Grand-total scale selector: squeezes totals toward zero, leaves them
/// O(1), or blows them up to 1e6.
pub fn scale_of(sel: u8) -> f64 {
    match sel % 3 {
        0 => 1e-12,
        1 => 1.0,
        _ => 1e6,
    }
}

/// Positive prior matrix with entries uniform in `lo..hi`.
pub fn positive_matrix(rng: &mut ChaCha8Rng, m: usize, n: usize, lo: f64, hi: f64) -> DenseMatrix {
    let mut x = DenseMatrix::zeros(m, n).expect("valid dims");
    for i in 0..m {
        for j in 0..n {
            x.set(i, j, rng.random_range(lo..hi));
        }
    }
    x
}

/// Weight matrix with entries `10^e`, `e` uniform in `-decades..=decades`:
/// spreads of up to `2 * decades` orders of magnitude inside one row.
pub fn spread_weights(rng: &mut ChaCha8Rng, m: usize, n: usize, decades: i32) -> DenseMatrix {
    let mut g = DenseMatrix::zeros(m, n).expect("valid dims");
    for i in 0..m {
        for j in 0..n {
            let e = rng.random_range(-decades..=decades);
            g.set(i, j, 10f64.powi(e));
        }
    }
    g
}

/// Consistent totals at the given scale: random row totals, column totals
/// carved from the same grand total via random positive fractions, with the
/// float residue folded into `d0[0]` so `Σs0 == Σd0` holds exactly.
pub fn consistent_totals(
    rng: &mut ChaCha8Rng,
    m: usize,
    n: usize,
    scale: f64,
) -> (Vec<f64>, Vec<f64>) {
    let s0: Vec<f64> = (0..m).map(|_| rng.random_range(0.1..5.0) * scale).collect();
    let total: f64 = s0.iter().sum();
    let frac: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..1.0)).collect();
    let fsum: f64 = frac.iter().sum();
    let mut d0: Vec<f64> = frac.iter().map(|f| total * f / fsum).collect();
    let resid = total - d0.iter().sum::<f64>();
    d0[0] += resid;
    (s0, d0)
}

/// Seeded adversarial diagonal instance: positive priors, `10^±decades`
/// weight spreads, consistent totals at `scale`. Construction may reject
/// extreme draws with a typed error — that is an acceptable outcome for the
/// robustness properties, hence the `try_` name.
pub fn try_fixed_diagonal(
    seed: u64,
    m: usize,
    n: usize,
    decades: i32,
    scale: f64,
) -> Result<DiagonalProblem, SeaError> {
    let mut r = rng(seed);
    let x0 = positive_matrix(&mut r, m, n, 1e-6, 10.0);
    let gamma = spread_weights(&mut r, m, n, decades);
    let (s0, d0) = consistent_totals(&mut r, m, n, scale);
    DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 })
}

/// Degenerate single-row shape (1×n): the row subproblem carries the whole
/// grand total and every column subproblem is a singleton.
pub fn degenerate_row(seed: u64, n: usize) -> Result<DiagonalProblem, SeaError> {
    try_fixed_diagonal(seed, 1, n.max(1), 6, 1.0)
}

/// Degenerate single-column shape (m×1), the transpose stress of
/// [`degenerate_row`].
pub fn degenerate_col(seed: u64, m: usize) -> Result<DiagonalProblem, SeaError> {
    try_fixed_diagonal(seed, m.max(1), 1, 6, 1.0)
}

/// Totals squeezed to O(1e-12): exercises the near-zero-total cancellation
/// paths in the equilibration kernels.
pub fn near_zero_totals(seed: u64, m: usize, n: usize) -> Result<DiagonalProblem, SeaError> {
    try_fixed_diagonal(seed, m, n, 6, 1e-12)
}

/// Weight spreads of 1e±12 at O(1) totals.
pub fn wide_weights(seed: u64, m: usize, n: usize) -> Result<DiagonalProblem, SeaError> {
    try_fixed_diagonal(seed, m, n, 12, 1.0)
}

/// Checkerboard weights of 1e-6 and 1e6 inside every row and column, at
/// O(1) priors and consistent fixed totals: the small-weight entries'
/// contributions to a subproblem sit twelve decades below the large ones',
/// so a tight tolerance needs every digit of the f64 λ-search. Always
/// constructible.
pub fn checkerboard_weights(m: usize, n: usize) -> DiagonalProblem {
    let mut x0 = DenseMatrix::zeros(m, n).expect("valid dims");
    let mut gamma = DenseMatrix::zeros(m, n).expect("valid dims");
    for i in 0..m {
        for j in 0..n {
            let k = i * n + j;
            x0.set(i, j, 1.0 + (k % 5) as f64);
            gamma.set(i, j, if k.is_multiple_of(2) { 1e-6 } else { 1e6 });
        }
    }
    let s0: Vec<f64> = (0..m).map(|i| 3.2 * n as f64 + (i % 3) as f64).collect();
    let total: f64 = s0.iter().sum();
    let mut d0: Vec<f64> = (0..n).map(|j| 2.0 + (j % 4) as f64).collect();
    let dsum: f64 = d0.iter().sum();
    for v in &mut d0 {
        *v *= total / dsum;
    }
    let resid = total - d0.iter().sum::<f64>();
    d0[0] += resid;
    DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 })
        .expect("checkerboard fixture is constructible")
}

/// Slow-converging heterogeneous instance for warm-start and supervision
/// tests. Unit-weight fixtures equilibrate in a couple of iterations, which
/// makes warm-vs-cold comparisons vacuous; this family staggers priors and
/// weights across seven decades (the `fault_injection.rs` `hard_problem`
/// recipe, seeded) so a cold 1e-10 solve takes hundreds-to-thousands of
/// dual sweeps. Always constructible: all inputs are bounded and positive.
pub fn heterogeneous(seed: u64, m: usize, n: usize) -> DiagonalProblem {
    let mut r = rng(seed);
    let mut x0 = DenseMatrix::zeros(m, n).expect("valid dims");
    let mut gamma = DenseMatrix::zeros(m, n).expect("valid dims");
    for i in 0..m {
        for j in 0..n {
            let phase = (i * n + j) % 7;
            let jitter = r.random_range(0.9..1.1);
            x0.set(i, j, (1.0 + phase as f64) * jitter);
            gamma.set(i, j, 10f64.powi(phase as i32 - 3));
        }
    }
    let s0: Vec<f64> = (0..m)
        .map(|i| (20.0 + 3.0 * (i % 7) as f64) * r.random_range(0.9..1.1))
        .collect();
    let total: f64 = s0.iter().sum();
    let mut d0: Vec<f64> = (0..n).map(|j| 30.0 - 4.0 * (j % 7) as f64).collect();
    let dsum: f64 = d0.iter().sum();
    for v in &mut d0 {
        *v *= total / dsum;
    }
    let resid = total - d0.iter().sum::<f64>();
    d0[0] += resid;
    DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 })
        .expect("heterogeneous family is always constructible")
}

/// [`heterogeneous`] boxed to `[0.6, 1.4]×` the feasible point
/// `sᵢ·dⱼ / Σs` of its margins: always feasible, and the staggered priors
/// and weights push many cells onto a bound.
pub fn heterogeneous_bounded(seed: u64, m: usize, n: usize) -> BoundedProblem {
    let base = heterogeneous(seed, m, n);
    let TotalSpec::Fixed { s0, d0 } = base.totals().clone() else {
        unreachable!("heterogeneous builds fixed totals")
    };
    let total: f64 = s0.iter().sum();
    let box_at = |f: f64| {
        let cells = s0
            .iter()
            .flat_map(|&s| d0.iter().map(move |&d| f * s * d / total));
        DenseMatrix::from_vec(m, n, cells.collect()).expect("valid dims")
    };
    let (lo, hi) = (box_at(0.6), box_at(1.4));
    BoundedProblem::new(base.x0().clone(), base.gamma().clone(), lo, hi, s0, d0)
        .expect("boxes around a feasible point are feasible")
}

/// A drifting-prior sequence: `epochs` successive instances of one problem
/// family whose priors and totals wander by a relative `drift` per epoch.
/// Models the batch warm-start workload — consecutive instances are close,
/// so epoch k's dual multipliers are a good seed for epoch k+1.
pub fn drifting_priors(
    seed: u64,
    m: usize,
    n: usize,
    epochs: usize,
    drift: f64,
) -> Vec<DiagonalProblem> {
    let mut r = rng(seed);
    let base = heterogeneous(seed, m, n);
    let mut out = Vec::with_capacity(epochs);
    let mut x0 = base.x0().clone();
    let mut s0 = match base.totals() {
        TotalSpec::Fixed { s0, .. } => s0.clone(),
        _ => unreachable!("heterogeneous builds fixed totals"),
    };
    for _ in 0..epochs {
        // Wander multiplicatively, then re-derive consistent column totals
        // from fresh fractions so every epoch stays exactly balanced.
        for i in 0..m {
            for j in 0..n {
                let f = 1.0 + drift * r.random_range(-1.0..1.0);
                x0.set(i, j, x0.get(i, j) * f);
            }
        }
        for v in &mut s0 {
            *v *= 1.0 + drift * r.random_range(-1.0..1.0);
        }
        let total: f64 = s0.iter().sum();
        let frac: Vec<f64> = (0..n).map(|_| r.random_range(0.5..1.5)).collect();
        let fsum: f64 = frac.iter().sum();
        let mut d0: Vec<f64> = frac.iter().map(|f| total * f / fsum).collect();
        let resid = total - d0.iter().sum::<f64>();
        d0[0] += resid;
        let p = DiagonalProblem::new(
            x0.clone(),
            base.gamma().clone(),
            TotalSpec::Fixed { s0: s0.clone(), d0 },
        )
        .expect("drifted instance stays constructible");
        out.push(p);
    }
    out
}

/// Seeded adversarial box-bounded instance. Lower bounds are zero and the
/// upper bounds cover the grand total, so the instance is usually feasible;
/// when an extreme draw is not, the typed error is the acceptable outcome.
pub fn try_bounded(
    seed: u64,
    m: usize,
    n: usize,
    decades: i32,
    scale: f64,
) -> Result<BoundedProblem, SeaError> {
    let mut r = rng(seed);
    let x0 = positive_matrix(&mut r, m, n, 1e-6, 10.0);
    let gamma = spread_weights(&mut r, m, n, decades);
    let (s0, d0) = consistent_totals(&mut r, m, n, scale);
    let grand: f64 = s0.iter().sum();
    let lo = DenseMatrix::zeros(m, n).expect("valid dims");
    let hi = DenseMatrix::filled(m, n, grand.max(1e-300)).expect("valid dims");
    BoundedProblem::new(x0, gamma, lo, hi, s0, d0)
}

/// Seeded adversarial general instance: strictly diagonally dominant
/// symmetric `G` (SPD by Gershgorin) with a `10^±decades` diagonal spread.
pub fn try_general(
    seed: u64,
    m: usize,
    n: usize,
    decades: i32,
) -> Result<GeneralProblem, SeaError> {
    let mut r = rng(seed);
    let x0 = positive_matrix(&mut r, m, n, 1e-3, 10.0);
    let order = m * n;
    let diags: Vec<f64> = (0..order)
        .map(|_| 10f64.powi(r.random_range(-decades..=decades)))
        .collect();
    let min_diag = diags.iter().cloned().fold(f64::INFINITY, f64::min);
    let coupling = -min_diag / (2.0 * order as f64);
    let mut g = DenseMatrix::zeros(order, order).expect("valid dims");
    for (i, &di) in diags.iter().enumerate() {
        for j in 0..order {
            g.set(i, j, if i == j { di } else { coupling });
        }
    }
    let gm = SymMatrix::from_dense(g, 1e-12)?;
    let (s0, d0) = consistent_totals(&mut r, m, n, 1.0);
    GeneralProblem::new(x0, gm, GeneralTotalSpec::Fixed { s0, d0 })
}

// ---------------------------------------------------------------------------
// Sparse (CSR) families.
//
// Each family is a pure function of its seed, like the dense ones above.
// Patterns guarantee at least one stored entry per row and per column, and
// totals are the margins of a perturbed interior point on the support, so
// every instance is feasible by construction. Problems carry
// `ZeroPolicy::Structural` so their dense image (`to_dense_problem`) treats
// off-support cells as structural zeros — the dense oracle the differential
// suite compares against.
// ---------------------------------------------------------------------------

/// Banded pattern: row `i` stores the columns within `half_bandwidth` of the
/// diagonal position `i·n/m` (clamped). Contiguous support, the
/// cache-friendliest sparse shape.
pub fn banded_pattern(m: usize, n: usize, half_bandwidth: usize) -> Vec<(usize, usize)> {
    let mut pat = Vec::new();
    for i in 0..m {
        let center = i * n / m;
        let lo = center.saturating_sub(half_bandwidth);
        let hi = (center + half_bandwidth).min(n - 1);
        for j in lo..=hi {
            pat.push((i, j));
        }
    }
    pat
}

/// Block-diagonal pattern: rows and columns split into `blocks` contiguous
/// chunks; block k is fully stored. Blocks are exactly the support-graph
/// components, so the support is disconnected.
pub fn block_diagonal_pattern(m: usize, n: usize, blocks: usize) -> Vec<(usize, usize)> {
    let blocks = blocks.clamp(1, m.min(n));
    let mut pat = Vec::new();
    for k in 0..blocks {
        let (r0, r1) = (k * m / blocks, (k + 1) * m / blocks);
        let (c0, c1) = (k * n / blocks, (k + 1) * n / blocks);
        for i in r0..r1 {
            for j in c0..c1 {
                pat.push((i, j));
            }
        }
    }
    pat
}

/// Power-law pattern at roughly `density`: a guaranteed diagonal-ish entry
/// per row and per column, a full hub column 0 (the heavy head of the
/// degree distribution, which also keeps the support graph connected),
/// plus random fill whose column choice is biased toward low indices
/// (`j ∝ u²`) — the degree profile of real input–output tables.
pub fn power_law_pattern(
    r: &mut ChaCha8Rng,
    m: usize,
    n: usize,
    density: f64,
) -> Vec<(usize, usize)> {
    let mut cells = std::collections::BTreeSet::new();
    for i in 0..m {
        cells.insert((i, i % n));
        cells.insert((i, 0));
    }
    for j in 0..n {
        cells.insert((j % m, j));
    }
    let extra = ((m * n) as f64 * density) as usize;
    for _ in 0..extra {
        let i = r.random_range(0..m);
        let u: f64 = r.random_range(0.0..1.0);
        let j = ((u * u) * n as f64) as usize;
        cells.insert((i, j.min(n - 1)));
    }
    cells.into_iter().collect()
}

/// Build a fixed-totals sparse diagonal problem over a support pattern:
/// positive priors and `10^±2` weight spreads on the stored cells, totals
/// from the margins of a perturbed copy of the prior (feasible by
/// construction).
pub fn sparse_fixed_from_pattern(
    r: &mut ChaCha8Rng,
    m: usize,
    n: usize,
    pat: &[(usize, usize)],
) -> DiagonalProblem<CsrMatrix> {
    let trips: Vec<(usize, usize, f64)> = pat
        .iter()
        .map(|&(i, j)| (i, j, r.random_range(0.5..10.0)))
        .collect();
    let x0 = CsrMatrix::from_triplets(m, n, &trips).expect("generated pattern is valid");
    let gvals: Vec<f64> = (0..x0.stored())
        .map(|_| 10f64.powi(r.random_range(-2..=2)))
        .collect();
    let gamma = x0.with_values(gvals).expect("same pattern");
    let (s0, d0) = sparse_margin_totals(r, &x0);
    DiagonalProblem::with_zero_policy(
        x0,
        gamma,
        TotalSpec::Fixed { s0, d0 },
        ZeroPolicy::Structural,
    )
    .expect("sparse family is feasible by construction")
}

/// Feasible totals for a sparse prior: the row/column margins of an interior
/// point obtained by perturbing every stored entry by ±25%.
fn sparse_margin_totals(r: &mut ChaCha8Rng, x0: &CsrMatrix) -> (Vec<f64>, Vec<f64>) {
    let yvals: Vec<f64> = x0
        .values()
        .iter()
        .map(|&v| v * r.random_range(0.8..1.25))
        .collect();
    let y = x0.clone().with_values(yvals).expect("same pattern");
    let mut s0 = vec![0.0; Storage::rows(x0)];
    let mut d0 = vec![0.0; Storage::cols(x0)];
    y.row_sums_into(&mut s0);
    y.col_sums_into(&mut d0);
    (s0, d0)
}

/// Seeded banded sparse instance.
pub fn sparse_banded(seed: u64, m: usize, n: usize, hb: usize) -> DiagonalProblem<CsrMatrix> {
    let mut r = rng(seed);
    let pat = banded_pattern(m, n, hb);
    sparse_fixed_from_pattern(&mut r, m, n, &pat)
}

/// Seeded block-diagonal sparse instance.
pub fn sparse_block_diagonal(
    seed: u64,
    m: usize,
    n: usize,
    blocks: usize,
) -> DiagonalProblem<CsrMatrix> {
    let mut r = rng(seed);
    let pat = block_diagonal_pattern(m, n, blocks);
    sparse_fixed_from_pattern(&mut r, m, n, &pat)
}

/// Seeded power-law sparse instance at roughly `density`.
pub fn sparse_power_law(seed: u64, m: usize, n: usize, density: f64) -> DiagonalProblem<CsrMatrix> {
    let mut r = rng(seed);
    let pat = power_law_pattern(&mut r, m, n, density);
    sparse_fixed_from_pattern(&mut r, m, n, &pat)
}

/// Seeded elastic-totals sparse instance on a banded pattern.
pub fn sparse_elastic(seed: u64, m: usize, n: usize, hb: usize) -> DiagonalProblem<CsrMatrix> {
    let mut r = rng(seed);
    let pat = banded_pattern(m, n, hb);
    let fixed = sparse_fixed_from_pattern(&mut r, m, n, &pat);
    let TotalSpec::Fixed { s0, d0 } = fixed.totals().clone() else {
        unreachable!("sparse_fixed_from_pattern builds fixed totals")
    };
    let alpha: Vec<f64> = (0..m).map(|_| r.random_range(0.3..2.0)).collect();
    let beta: Vec<f64> = (0..n).map(|_| r.random_range(0.3..2.0)).collect();
    DiagonalProblem::with_zero_policy(
        fixed.x0().clone(),
        fixed.gamma().clone(),
        TotalSpec::Elastic {
            alpha,
            s0,
            beta,
            d0,
        },
        ZeroPolicy::Structural,
    )
    .expect("elastic sparse family is constructible")
}

/// Seeded SAM-balancing sparse instance on a square banded pattern.
pub fn sparse_balanced(seed: u64, n: usize, hb: usize) -> DiagonalProblem<CsrMatrix> {
    let mut r = rng(seed);
    let pat = banded_pattern(n, n, hb);
    let fixed = sparse_fixed_from_pattern(&mut r, n, n, &pat);
    let TotalSpec::Fixed { s0, d0 } = fixed.totals().clone() else {
        unreachable!("sparse_fixed_from_pattern builds fixed totals")
    };
    let s0: Vec<f64> = s0.iter().zip(&d0).map(|(a, b)| 0.5 * (a + b)).collect();
    // Unit elasticities: tiny alpha (soft totals) makes the dual converge
    // far more slowly than the primal residual, stalling the test sweeps.
    let alpha = vec![1.0; s0.len()];
    DiagonalProblem::with_zero_policy(
        fixed.x0().clone(),
        fixed.gamma().clone(),
        TotalSpec::Balanced { alpha, s0 },
        ZeroPolicy::Structural,
    )
    .expect("balanced sparse family is constructible")
}

/// Seeded box-bounded sparse instance on a banded pattern: zero lower
/// bounds, upper bounds covering the grand total.
pub fn sparse_bounded(seed: u64, m: usize, n: usize, hb: usize) -> BoundedProblem<CsrMatrix> {
    let mut r = rng(seed);
    let pat = banded_pattern(m, n, hb);
    let fixed = sparse_fixed_from_pattern(&mut r, m, n, &pat);
    let TotalSpec::Fixed { s0, d0 } = fixed.totals().clone() else {
        unreachable!("sparse_fixed_from_pattern builds fixed totals")
    };
    let grand: f64 = s0.iter().sum();
    let x0 = fixed.x0().clone();
    let lo = x0.zeros_like();
    let hi = x0
        .clone()
        .with_values(vec![grand.max(1.0); x0.stored()])
        .expect("same pattern");
    BoundedProblem::new(x0, fixed.gamma().clone(), lo, hi, s0, d0)
        .expect("bounded sparse family is feasible by construction")
}

/// Every fixed-totals sparse family, tagged for assertion messages — the
/// sweep the differential and determinism suites run over.
pub fn sparse_families(seed: u64) -> Vec<(&'static str, DiagonalProblem<CsrMatrix>)> {
    vec![
        ("banded", sparse_banded(seed, 12, 12, 2)),
        ("banded-rect", sparse_banded(seed ^ 0xB4AD, 9, 14, 3)),
        (
            "block-diagonal",
            sparse_block_diagonal(seed ^ 0xB10C, 12, 12, 3),
        ),
        ("power-law", sparse_power_law(seed ^ 0xF01, 14, 14, 0.25)),
        ("elastic-banded", sparse_elastic(seed ^ 0xE1A, 10, 11, 2)),
        ("balanced-banded", sparse_balanced(seed ^ 0xBA1, 12, 3)),
    ]
}
