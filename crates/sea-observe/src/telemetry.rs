//! Convergence telemetry: the per-check progress tick and rate estimation.
//!
//! The drivers emit one [`TelemetrySample`] per convergence check (and
//! one per outer iteration of the general driver) through
//! [`crate::Observer::telemetry`]. A sample holds only what the check has
//! already computed, so taking one costs O(1) and adds no arithmetic to
//! the solve. The CLI `--progress` line is the consumer: it keeps a short
//! tail of samples and fits [`ConvergenceEstimator`] to it.

/// One convergence snapshot, taken at a driver's convergence check.
///
/// All fields are plain numbers so the sample is `Copy` and can be
/// delivered without allocation from inside the solve loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySample {
    /// Iteration (epoch) index at which the check ran.
    pub iteration: u64,
    /// Wall-clock seconds since the solve started.
    pub seconds: f64,
    /// Convergence residual under the driver's active criterion.
    pub residual: f64,
}

/// Estimated convergence rate and time-to-target from recent samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtaEstimate {
    /// Geometric residual contraction factor per iteration (< 1 means
    /// the residual is shrinking).
    pub rate: f64,
    /// Estimated iterations remaining until the residual reaches the
    /// target tolerance.
    pub iterations_remaining: f64,
    /// Estimated wall-clock seconds remaining.
    pub seconds_remaining: f64,
}

/// Fits a geometric convergence model to the tail of a sample
/// trajectory and projects the remaining work to a target residual.
///
/// SEA's dual block-coordinate ascent converges linearly in practice,
/// so `log(residual)` against iteration is close to affine; the
/// estimator does a least-squares line fit over the last few samples
/// with positive finite residuals.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConvergenceEstimator;

/// How many trailing samples the estimator fits over.
const FIT_WINDOW: usize = 8;

impl ConvergenceEstimator {
    /// Estimate the contraction rate and remaining work to bring the
    /// residual below `target`. Returns `None` when fewer than two
    /// usable samples exist, the fit is degenerate, or the trajectory
    /// is not contracting.
    pub fn estimate(samples: &[TelemetrySample], target: f64) -> Option<EtaEstimate> {
        let usable: Vec<&TelemetrySample> = samples
            .iter()
            .filter(|s| s.residual.is_finite() && s.residual > 0.0)
            .collect();
        if usable.len() < 2 {
            return None;
        }
        let tail = &usable[usable.len().saturating_sub(FIT_WINDOW)..];
        // Least-squares fit of ln(residual) = a + b * iteration.
        let n = tail.len() as f64;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for s in tail {
            let x = s.iteration as f64;
            let y = s.residual.ln();
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let denom = n * sxx - sx * sx;
        if denom.abs() < f64::EPSILON {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom;
        let rate = slope.exp();
        if !rate.is_finite() || rate >= 1.0 || rate <= 0.0 {
            return None;
        }
        let last = tail[tail.len() - 1];
        // `!(target > 0.0)` deliberately treats a NaN target as already
        // met (no extrapolation), which `target <= 0.0` would not.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(target > 0.0) || last.residual <= target {
            return Some(EtaEstimate {
                rate,
                iterations_remaining: 0.0,
                seconds_remaining: 0.0,
            });
        }
        let iterations_remaining = (target / last.residual).ln() / slope;
        // Seconds per iteration from the span of the fitted window.
        let first = tail[0];
        let di = (last.iteration - first.iteration) as f64;
        let secs_per_iter = if di > 0.0 {
            (last.seconds - first.seconds).max(0.0) / di
        } else {
            0.0
        };
        Some(EtaEstimate {
            rate,
            iterations_remaining,
            seconds_remaining: iterations_remaining * secs_per_iter,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(iteration: u64, residual: f64, seconds: f64) -> TelemetrySample {
        TelemetrySample {
            iteration,
            seconds,
            residual,
        }
    }

    #[test]
    fn estimator_fits_a_geometric_trajectory() {
        // residual = 0.5^k, one second per iteration.
        let samples: Vec<TelemetrySample> = (0..10)
            .map(|k| sample(k, 0.5f64.powi(k as i32), k as f64))
            .collect();
        let eta = ConvergenceEstimator::estimate(&samples, 1e-9).expect("estimate");
        assert!((eta.rate - 0.5).abs() < 1e-9, "rate {}", eta.rate);
        assert!(eta.iterations_remaining > 0.0);
        assert!((eta.seconds_remaining - eta.iterations_remaining).abs() < 1e-6);
    }

    #[test]
    fn estimator_declines_non_contracting_trajectories() {
        let samples: Vec<TelemetrySample> =
            (0..10).map(|k| sample(k, 1.0 + k as f64, 0.0)).collect();
        assert!(ConvergenceEstimator::estimate(&samples, 1e-9).is_none());
    }

    #[test]
    fn estimator_reports_done_when_target_met() {
        let samples: Vec<TelemetrySample> = (0..4)
            .map(|k| sample(k, 0.5f64.powi(k as i32), k as f64))
            .collect();
        let eta = ConvergenceEstimator::estimate(&samples, 1.0).expect("estimate");
        assert_eq!(eta.iterations_remaining, 0.0);
    }
}
