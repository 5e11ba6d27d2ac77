//! Safeguarded type-II Anderson extrapolation of the column multipliers.
//!
//! The row pass recomputes `λ` exactly from `μ`, so one SEA iteration is a
//! fixed-point map `μ → G(μ)` on `n` numbers. Type-II Anderson acceleration
//! (Walker & Ni) keeps the last `depth` differences of the residual
//! `f = G(μ) − μ` and of `G(μ)`, solves the small least-squares problem
//! `min_γ ‖f − ΔF γ‖₂`, and starts the next sweep from `G(μ) − ΔG γ`
//! instead of `G(μ)`. Extrapolation speeds up the same alternating
//! row/column fixed point for Sinkhorn–Knopp (arXiv:1810.09700).
//!
//! Safeguards: the history restarts — the next sweep is then a plain SEA
//! step — when `‖f‖₂` rises 4× above the best value since the last
//! restart, when it is non-finite, or when the least-squares solve is
//! non-finite or ill-conditioned. Progress is tracked by a record: a sweep
//! sets one when its `‖f‖₂` falls at least 1% below the previous record.
//! After `depth` sweeps without a record the solve runs plain sweeps until
//! one sets a record, so extrapolation cannot stall a solve: either the
//! record keeps falling geometrically, or the iteration is the paper's SEA.
//! Extrapolation only moves the *input* of the next sweep, so every point
//! a solve returns is a plain sweep's output and is certified exactly as
//! without it.
//!
//! Determinism: the least-squares solve is serial and visits the history
//! oldest column first, whatever the ring's physical layout, so results
//! are bitwise identical across parallelism, shard sizes and checkpoint
//! resumes.

use crate::error::SeaError;
use crate::supervisor::ExtrapolationHistory;

/// Restart when `‖f‖₂` exceeds this multiple of the best since the last
/// restart.
const RESTART_GROWTH: f64 = 4.0;

/// A sweep sets a new record when `‖f‖₂` is at most this fraction of the
/// previous record.
const RECORD_FRACTION: f64 = 0.99;

/// The least-squares solve is ill-conditioned when a Cholesky pivot of the
/// Gram matrix `ΔFᵀΔF` falls below this fraction of its diagonal entry:
/// the newest difference is then within `√1e-10 = 1e-5` radians of the
/// span of the older ones.
const MIN_PIVOT_RATIO: f64 = 1e-10;

/// Extrapolation state of one solve. All buffers are sized once, so the
/// steady state performs no allocation.
#[derive(Debug)]
pub(crate) struct Anderson {
    depth: usize,
    n: usize,
    /// Ring of `depth` residual differences `Δf`, `n` floats each.
    df: Vec<f64>,
    /// Ring of `depth` output differences `Δg`, parallel to `df`.
    dg: Vec<f64>,
    /// `ΔFᵀΔF` by physical slot (`depth × depth`).
    gram: Vec<f64>,
    /// Physical slot of the oldest live column.
    oldest: usize,
    /// Live columns.
    cols: usize,
    /// Residual `f = G(μ) − μ` of the last sweep (valid when `primed`).
    f: Vec<f64>,
    /// Output `G(μ)` of the last sweep (valid when `primed`).
    g: Vec<f64>,
    primed: bool,
    /// Smallest `‖f‖₂` since the last restart.
    best: f64,
    /// `‖f‖₂` of the sweep that set the last record.
    record: f64,
    /// Sweeps since the last record.
    stalled: usize,
    /// The running sweep's input `μ`.
    mu_in: Vec<f64>,
    /// Whether the running sweep started from an extrapolated point.
    extrapolated: bool,
    /// Cholesky factor of the live Gram block (logical order).
    chol: Vec<f64>,
    /// Least-squares coefficients `γ` (logical order).
    coef: Vec<f64>,
}

impl Anderson {
    /// State for `n` multipliers and `depth` stored differences; `None`
    /// when there is nothing to extrapolate (`depth` or `n` is zero).
    pub(crate) fn new(depth: usize, n: usize) -> Option<Self> {
        (depth > 0 && n > 0).then(|| Anderson {
            depth,
            n,
            df: vec![0.0; depth * n],
            dg: vec![0.0; depth * n],
            gram: vec![0.0; depth * depth],
            oldest: 0,
            cols: 0,
            f: vec![0.0; n],
            g: vec![0.0; n],
            primed: false,
            best: f64::INFINITY,
            record: f64::INFINITY,
            stalled: 0,
            mu_in: vec![0.0; n],
            extrapolated: false,
            chol: vec![0.0; depth * depth],
            coef: vec![0.0; depth],
        })
    }

    fn slot(&self, i: usize) -> usize {
        (self.oldest + i) % self.depth
    }

    fn restart(&mut self) {
        self.cols = 0;
        self.oldest = 0;
    }

    /// Start a sweep: replace `μ` (the last sweep's output, `g`) by the
    /// extrapolated `g − ΔG γ` when the history holds columns and the
    /// least-squares solve is sound, and remember the sweep's input.
    pub(crate) fn begin_sweep(&mut self, mu: &mut [f64]) {
        self.extrapolated = false;
        if self.cols > 0 {
            if self.solve() {
                self.extrapolated = true;
                mu.copy_from_slice(&self.g);
                for i in 0..self.cols {
                    let c = self.coef[i];
                    let p = self.slot(i);
                    let col = &self.dg[p * self.n..(p + 1) * self.n];
                    for (m, &d) in mu.iter_mut().zip(col) {
                        *m -= c * d;
                    }
                }
            } else {
                self.restart();
            }
        }
        self.mu_in.copy_from_slice(mu);
    }

    /// Finish a sweep whose output is `g_new`: push the new differences,
    /// or restart when the residual is non-finite, grew
    /// [`RESTART_GROWTH`]× above the best since the last restart, or has
    /// set no record for `depth` sweeps.
    pub(crate) fn end_sweep(&mut self, g_new: &[f64]) {
        // f_new = g_new − μ_in, built in the input buffer.
        let mut sq = 0.0;
        for (x, &g) in self.mu_in.iter_mut().zip(g_new) {
            *x = g - *x;
            sq += *x * *x;
        }
        let norm = sq.sqrt();
        if !norm.is_finite() {
            self.restart();
            self.primed = false;
            return;
        }
        if norm <= RECORD_FRACTION * self.record {
            self.record = norm;
            self.stalled = 0;
        } else {
            self.stalled += 1;
        }
        if self.primed && norm <= RESTART_GROWTH * self.best && self.stalled < self.depth {
            let p = if self.cols < self.depth {
                self.cols += 1;
                self.slot(self.cols - 1)
            } else {
                let p = self.oldest;
                self.oldest = (self.oldest + 1) % self.depth;
                p
            };
            let n = self.n;
            let cols = p * n..(p + 1) * n;
            for (j, (df, dg)) in self.df[cols.clone()]
                .iter_mut()
                .zip(&mut self.dg[cols])
                .enumerate()
            {
                *df = self.mu_in[j] - self.f[j];
                *dg = g_new[j] - self.g[j];
            }
            for i in 0..self.cols {
                let q = self.slot(i);
                let v = dot(&self.df[p * n..(p + 1) * n], &self.df[q * n..(q + 1) * n]);
                self.gram[p * self.depth + q] = v;
                self.gram[q * self.depth + p] = v;
            }
            self.best = self.best.min(norm);
        } else {
            self.restart();
            self.best = norm;
            self.primed = true;
        }
        std::mem::swap(&mut self.f, &mut self.mu_in);
        self.g.copy_from_slice(g_new);
    }

    /// When the last sweep started from an extrapolated point, restart so
    /// that the next sweep is a plain step, and return `true`. A step-size
    /// stopping rule measures SEA's own step only across a plain sweep.
    pub(crate) fn restart_if_extrapolated(&mut self) -> bool {
        if self.extrapolated {
            self.restart();
        }
        self.extrapolated
    }

    /// The Modified Algorithm shifted `μ` along support components after
    /// this sweep: apply the same shift to the stored output. Residuals
    /// and differences are invariant under it.
    pub(crate) fn shift_output(&mut self, mu: &[f64]) {
        if self.primed {
            self.g.copy_from_slice(mu);
        }
    }

    /// Solve `ΔFᵀΔF γ = ΔFᵀ f` by Cholesky in logical order; `false` when
    /// the system is ill-conditioned or the solution non-finite.
    fn solve(&mut self) -> bool {
        let k = self.cols;
        let d = self.depth;
        let n = self.n;
        for i in 0..k {
            let p = self.slot(i);
            self.coef[i] = dot(&self.df[p * n..(p + 1) * n], &self.f);
        }
        for i in 0..k {
            let pi = self.slot(i);
            for j in 0..=i {
                let pj = self.slot(j);
                let mut s = self.gram[pi * d + pj];
                for l in 0..j {
                    s -= self.chol[i * d + l] * self.chol[j * d + l];
                }
                if i == j {
                    if !(s > MIN_PIVOT_RATIO * self.gram[pi * d + pi]) {
                        return false;
                    }
                    self.chol[i * d + i] = s.sqrt();
                } else {
                    self.chol[i * d + j] = s / self.chol[j * d + j];
                }
            }
        }
        // Forward (L y = b), then backward (Lᵀ γ = y), in place.
        for i in 0..k {
            let mut s = self.coef[i];
            for l in 0..i {
                s -= self.chol[i * d + l] * self.coef[l];
            }
            self.coef[i] = s / self.chol[i * d + i];
        }
        for i in (0..k).rev() {
            let mut s = self.coef[i];
            for l in i + 1..k {
                s -= self.chol[l * d + i] * self.coef[l];
            }
            self.coef[i] = s / self.chol[i * d + i];
        }
        self.coef[..k].iter().all(|c| c.is_finite())
    }

    /// The state a checkpoint carries; `None` before the first sweep.
    pub(crate) fn history(&self) -> Option<ExtrapolationHistory> {
        self.primed.then(|| {
            let n = self.n;
            let mut df = Vec::with_capacity(self.cols * n);
            let mut dg = Vec::with_capacity(self.cols * n);
            for i in 0..self.cols {
                let p = self.slot(i);
                df.extend_from_slice(&self.df[p * n..(p + 1) * n]);
                dg.extend_from_slice(&self.dg[p * n..(p + 1) * n]);
            }
            ExtrapolationHistory {
                best: self.best,
                record: self.record,
                stalled: self.stalled,
                f: self.f.clone(),
                g: self.g.clone(),
                df,
                dg,
            }
        })
    }

    /// Load a checkpoint's history, keeping its newest `depth` columns.
    ///
    /// # Errors
    /// [`SeaError::Shape`] when the history's vectors do not have this
    /// solve's length `n`.
    pub(crate) fn restore(&mut self, h: &ExtrapolationHistory) -> Result<(), SeaError> {
        let n = self.n;
        for (v, context) in [(&h.f, "resume history f"), (&h.g, "resume history g")] {
            if v.len() != n {
                return Err(SeaError::Shape {
                    context,
                    expected: n,
                    actual: v.len(),
                });
            }
        }
        let k = h.df.len() / n;
        for (v, context) in [(&h.df, "resume history df"), (&h.dg, "resume history dg")] {
            if v.len() != k * n {
                return Err(SeaError::Shape {
                    context,
                    expected: k * n,
                    actual: v.len(),
                });
            }
        }
        let skip = k.saturating_sub(self.depth);
        self.restart();
        self.cols = k - skip;
        self.df[..self.cols * n].copy_from_slice(&h.df[skip * n..]);
        self.dg[..self.cols * n].copy_from_slice(&h.dg[skip * n..]);
        for p in 0..self.cols {
            for q in 0..=p {
                let v = dot(&self.df[p * n..(p + 1) * n], &self.df[q * n..(q + 1) * n]);
                self.gram[p * self.depth + q] = v;
                self.gram[q * self.depth + p] = v;
            }
        }
        self.f.copy_from_slice(&h.f);
        self.g.copy_from_slice(&h.g);
        self.best = h.best;
        self.record = h.record;
        self.stalled = h.stalled;
        self.primed = true;
        Ok(())
    }
}

/// `Σ aⱼbⱼ`, left to right. Multiplication commutes exactly, so
/// `dot(a, b)` and `dot(b, a)` agree bitwise.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linear contraction `G(μ) = Aμ + b` with a known fixed point.
    fn linear_map(mu: &[f64]) -> Vec<f64> {
        let a = [[0.9, 0.05, 0.0], [0.02, 0.95, 0.01], [0.0, 0.03, 0.8]];
        let b = [1.0, -2.0, 0.5];
        (0..3)
            .map(|i| (0..3).map(|j| a[i][j] * mu[j]).sum::<f64>() + b[i])
            .collect()
    }

    /// `G(μ) = ρR|μ| + b` with `ρ = 0.85` and `R` a rotation: a kinked
    /// contraction on which undamped depth-1 extrapolation cycles forever.
    fn kinked_map(mu: &[f64]) -> Vec<f64> {
        let (c, s) = (3.05f64.cos(), 3.05f64.sin());
        let (a, b) = (mu[0].abs(), mu[1].abs());
        vec![0.85 * (c * a + s * b) - 0.2, 0.85 * (c * b - s * a) + 0.6]
    }

    fn residual(map: fn(&[f64]) -> Vec<f64>, mu: &[f64]) -> f64 {
        let g = map(mu);
        g.iter()
            .zip(mu)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    fn iterations_to(tol: f64, depth: usize) -> usize {
        let mut aa = Anderson::new(depth.max(1), 3).unwrap();
        let mut mu = vec![0.0; 3];
        for t in 1..=10_000 {
            if depth > 0 {
                aa.begin_sweep(&mut mu);
            }
            let g = linear_map(&mu);
            if depth > 0 {
                aa.end_sweep(&g);
            }
            mu = g;
            if residual(linear_map, &mu) <= tol {
                return t;
            }
        }
        usize::MAX
    }

    #[test]
    fn extrapolation_accelerates_a_linear_fixed_point() {
        let plain = iterations_to(1e-10, 0);
        let accelerated = iterations_to(1e-10, 3);
        assert!(plain > 100, "plain {plain}");
        // Depth ≥ dimension solves a linear map in a few steps.
        assert!(accelerated < 15, "accelerated {accelerated}");
    }

    /// Sweeps until the kinked map's residual is at most 1e-10, with or
    /// without the stall fallback; `None` when 2000 sweeps do not get there.
    fn kinked_sweeps(stall_fallback: bool) -> Option<usize> {
        let mut aa = Anderson::new(1, 2).unwrap();
        let mut mu = vec![-2.0, 3.0];
        for t in 1..=2000 {
            aa.begin_sweep(&mut mu);
            let g = kinked_map(&mu);
            if !stall_fallback {
                aa.record = f64::INFINITY;
                aa.stalled = 0;
            }
            aa.end_sweep(&g);
            mu = g;
            if residual(kinked_map, &mu) <= 1e-10 {
                return Some(t);
            }
        }
        None
    }

    #[test]
    fn stalled_extrapolation_falls_back_to_plain_sweeps() {
        // The growth and conditioning restarts alone never stop the cycle.
        assert_eq!(kinked_sweeps(false), None);
        let sweeps = kinked_sweeps(true).expect("the stall fallback converges");
        assert!(sweeps < 200, "{sweeps} sweeps");
    }

    #[test]
    fn restored_history_replays_bitwise() {
        let run = |split: Option<usize>| {
            let mut aa = Anderson::new(2, 3).unwrap();
            let mut mu = vec![0.0; 3];
            for t in 1..=8 {
                if split == Some(t) {
                    let h = aa.history().unwrap();
                    aa = Anderson::new(2, 3).unwrap();
                    aa.restore(&h).unwrap();
                }
                aa.begin_sweep(&mut mu);
                let g = linear_map(&mu);
                aa.end_sweep(&g);
                mu = g;
            }
            mu.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let full = run(None);
        for split in 2..8 {
            assert_eq!(run(Some(split)), full, "split at {split}");
        }
    }

    #[test]
    fn residual_growth_restarts_the_history() {
        let mut aa = Anderson::new(3, 2).unwrap();
        let mut mu = vec![0.0; 2];
        aa.begin_sweep(&mut mu);
        aa.end_sweep(&[1.0, 1.0]);
        mu = vec![1.0, 1.0];
        aa.begin_sweep(&mut mu);
        aa.end_sweep(&[1.5, 1.5]);
        assert_eq!(aa.cols, 1);
        // ‖f‖ jumps far above 4× the best: back to plain steps.
        mu = vec![1.5, 1.5];
        aa.begin_sweep(&mut mu);
        aa.end_sweep(&[100.0, -100.0]);
        assert_eq!(aa.cols, 0);
        assert!(aa.history().unwrap().df.is_empty());
    }

    #[test]
    fn restore_rejects_wrong_lengths() {
        let mut aa = Anderson::new(2, 3).unwrap();
        let bad = ExtrapolationHistory {
            best: 1.0,
            record: 1.0,
            stalled: 0,
            f: vec![0.0; 2],
            g: vec![0.0; 3],
            df: vec![],
            dg: vec![],
        };
        assert!(matches!(aa.restore(&bad), Err(SeaError::Shape { .. })));
        let bad = ExtrapolationHistory {
            best: 1.0,
            record: 1.0,
            stalled: 0,
            f: vec![0.0; 3],
            g: vec![0.0; 3],
            df: vec![0.0; 6],
            dg: vec![0.0; 3],
        };
        assert!(matches!(aa.restore(&bad), Err(SeaError::Shape { .. })));
    }
}
