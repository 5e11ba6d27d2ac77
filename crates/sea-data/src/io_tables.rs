//! Synthetic US input/output table series (Table 2).
//!
//! Three dataset families, matching the documented shapes:
//!
//! * `IOC72{a,b,c}` — aggregated 1972 construction-activity table,
//!   205 × 205, **52 %** nonzero;
//! * `IOC77{a,b,c}` — aggregated 1977 table, 205 × 205, **58 %** nonzero;
//! * `IO72{a,b,c}`  — disaggregated 1972 US table, 485 × 485, **16 %**
//!   nonzero.
//!
//! Variant construction follows §4.1.2: `a` applies a growth factor in the
//! 0–10 % range to each row/column total, `b` uses 0–100 %, and `c`
//! perturbs each nonzero entry by an additive term in `[1, 10]` while
//! keeping the original margins (the paper's `c` datapoints average 10 such
//! examples; [`io_dataset`] takes a replication index for that purpose).
//! Weights are chi-square (`γ = 1/x⁰`), zeros are structural, totals fixed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sea_core::{DiagonalProblem, TotalSpec, ZeroPolicy};
use sea_linalg::DenseMatrix;

/// Which I/O dataset family and variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoVariant {
    /// Family: 0 = IOC72 (205², 52 %), 1 = IOC77 (205², 58 %),
    /// 2 = IO72 (485², 16 %).
    pub family: u8,
    /// Variant: `'a'` (0–10 % growth), `'b'` (0–100 % growth), `'c'`
    /// (additive entry perturbation, original margins).
    pub variant: char,
}

impl IoVariant {
    /// The paper's name for this dataset, e.g. `IOC72a`.
    pub fn name(self) -> String {
        let base = match self.family {
            0 => "IOC72",
            1 => "IOC77",
            _ => "IO72",
        };
        format!("{base}{}", self.variant)
    }

    /// Matrix side length.
    pub fn size(self) -> usize {
        match self.family {
            0 | 1 => 205,
            _ => 485,
        }
    }

    /// Documented nonzero density.
    pub fn density(self) -> f64 {
        match self.family {
            0 => 0.52,
            1 => 0.58,
            _ => 0.16,
        }
    }
}

/// Synthesize a base I/O flow table: `size × size`, the given fraction of
/// nonzero entries, log-uniform positive flows in roughly `[0.5, 5000]`
/// (I/O transactions span several orders of magnitude).
pub fn synthetic_io_matrix(size: usize, density: f64, rng: &mut ChaCha8Rng) -> DenseMatrix {
    let mut data = vec![0.0; size * size];
    let (lo, hi) = (0.5_f64.ln(), 5000.0_f64.ln());
    for v in &mut data {
        if rng.random_range(0.0..1.0) < density {
            *v = rng.random_range(lo..hi).exp();
        }
    }
    // Guarantee every row and column has at least one nonzero entry so the
    // fixed-totals problems stay feasible under structural zeros.
    for i in 0..size {
        let row_empty = data[i * size..(i + 1) * size].iter().all(|&v| v == 0.0);
        if row_empty {
            let j = rng.random_range(0..size);
            data[i * size + j] = rng.random_range(lo..hi).exp();
        }
    }
    for j in 0..size {
        let col_empty = (0..size).all(|i| data[i * size + j] == 0.0);
        if col_empty {
            let i = rng.random_range(0..size);
            data[i * size + j] = rng.random_range(lo..hi).exp();
        }
    }
    DenseMatrix::from_vec(size, size, data).expect("nonempty")
}

/// Build the full fixed-totals updating problem for a dataset variant.
///
/// `replication` distinguishes the 10 samples averaged into each `c`
/// datapoint (ignored for `a`/`b`).
///
/// # Panics
/// Panics on an unknown variant letter.
pub fn io_dataset(v: IoVariant, replication: u64) -> DiagonalProblem {
    let size = v.size();
    // The base table is fixed per family (same economy observed in the
    // paper's base year); variants perturb it.
    let mut base_rng = ChaCha8Rng::seed_from_u64(0x10_7AB1E + u64::from(v.family));
    let x0 = synthetic_io_matrix(size, v.density(), &mut base_rng);
    let mut rng = ChaCha8Rng::seed_from_u64(
        0xD1A1_0000 + (u64::from(v.family) << 8) + (v.variant as u64) + replication * 7919,
    );

    let (x0, s0, d0) = match v.variant {
        'a' | 'b' => {
            let top = if v.variant == 'a' { 0.10 } else { 1.00 };
            let s0: Vec<f64> = x0
                .row_sums()
                .iter()
                .map(|r| r * (1.0 + rng.random_range(0.0..top)))
                .collect();
            let mut d0: Vec<f64> = x0
                .col_sums()
                .iter()
                .map(|c| c * (1.0 + rng.random_range(0.0..top)))
                .collect();
            let scale: f64 = s0.iter().sum::<f64>() / d0.iter().sum::<f64>();
            for v in &mut d0 {
                *v *= scale;
            }
            (x0, s0, d0)
        }
        'c' => {
            // Keep the original margins; perturb each nonzero entry by an
            // additive term in [1, 10].
            let s0 = x0.row_sums();
            let d0 = x0.col_sums();
            let mut pert = x0.clone();
            pert.map_inplace(|v| {
                if v > 0.0 {
                    v + rng.random_range(1.0..10.0)
                } else {
                    0.0
                }
            });
            (pert, s0, d0)
        }
        other => panic!("unknown I/O variant {other:?}"),
    };

    let gamma = DenseMatrix::from_vec(
        size,
        size,
        x0.as_slice()
            .iter()
            .map(|&v| if v > 0.0 { 1.0 / v } else { 1.0 })
            .collect(),
    )
    .expect("same shape");

    DiagonalProblem::with_zero_policy(
        x0,
        gamma,
        TotalSpec::Fixed { s0, d0 },
        ZeroPolicy::Structural,
    )
    .expect("valid by construction")
}

/// All nine Table 2 dataset variants in paper order.
pub fn all_variants() -> Vec<IoVariant> {
    let mut out = Vec::new();
    for family in 0..3u8 {
        for variant in ['a', 'b', 'c'] {
            out.push(IoVariant { family, variant });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn names_and_sizes_match_paper() {
        let v = IoVariant {
            family: 0,
            variant: 'a',
        };
        assert_eq!(v.name(), "IOC72a");
        assert_eq!(v.size(), 205);
        let v = IoVariant {
            family: 2,
            variant: 'c',
        };
        assert_eq!(v.name(), "IO72c");
        assert_eq!(v.size(), 485);
        assert_eq!(all_variants().len(), 9);
    }

    #[test]
    fn density_is_close_to_documented() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let m = synthetic_io_matrix(205, 0.52, &mut rng);
        let d = m.density();
        assert!((d - 0.52).abs() < 0.03, "density {d}");
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let m = synthetic_io_matrix(205, 0.16, &mut rng);
        assert!((m.density() - 0.16).abs() < 0.03);
    }

    #[test]
    fn every_line_has_support() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let m = synthetic_io_matrix(60, 0.05, &mut rng);
        for i in 0..60 {
            assert!(m.row(i).iter().any(|&v| v > 0.0), "empty row {i}");
        }
        let t = m.transposed();
        for j in 0..60 {
            assert!(t.row(j).iter().any(|&v| v > 0.0), "empty column {j}");
        }
    }

    #[test]
    fn variant_construction_properties() {
        // Use the real generator (205x205 — construction is cheap).
        let a = io_dataset(
            IoVariant {
                family: 0,
                variant: 'a',
            },
            0,
        );
        match a.totals() {
            TotalSpec::Fixed { s0, d0 } => {
                let rs: f64 = s0.iter().sum();
                let cs: f64 = d0.iter().sum();
                assert!((rs - cs).abs() < 1e-6 * rs);
                // Growth between 0 and ~10% per row before rebalancing.
                let base: f64 = a.x0().total();
                assert!(rs > base * 0.99 && rs < base * 1.12);
            }
            _ => panic!("expected fixed"),
        }
        assert_eq!(a.zero_policy(), ZeroPolicy::Structural);

        let c = io_dataset(
            IoVariant {
                family: 0,
                variant: 'c',
            },
            3,
        );
        match c.totals() {
            TotalSpec::Fixed { s0, .. } => {
                // Margins are the *unperturbed* base margins: row sums of
                // the perturbed prior differ from them.
                let rs = c.x0().row_sums();
                let differs = rs.iter().zip(s0).any(|(a, b)| (a - b).abs() > 1.0);
                assert!(differs);
            }
            _ => panic!("expected fixed"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn synthetic_density_tracks_parameter(
            density in 0.1f64..0.9,
            seed in 0u64..200,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let m = synthetic_io_matrix(120, density, &mut rng);
            // Within a few points of the requested density (plus the
            // support-repair entries).
            prop_assert!((m.density() - density).abs() < 0.06,
                "requested {}, got {}", density, m.density());
            // Entries positive where nonzero, in the documented range.
            for &v in m.as_slice() {
                prop_assert!(v == 0.0 || (0.4..5_100.0).contains(&v));
            }
        }
    }

    #[test]
    fn replications_differ_for_c_variant() {
        let c0 = io_dataset(
            IoVariant {
                family: 1,
                variant: 'c',
            },
            0,
        );
        let c1 = io_dataset(
            IoVariant {
                family: 1,
                variant: 'c',
            },
            1,
        );
        assert_ne!(c0.x0(), c1.x0());
    }

    #[test]
    fn io_problem_solves() {
        // Solve a scaled-down analogue to keep the test fast: same recipe,
        // smaller matrix.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let x0 = synthetic_io_matrix(40, 0.5, &mut rng);
        let gamma = DenseMatrix::from_vec(
            40,
            40,
            x0.as_slice()
                .iter()
                .map(|&v| if v > 0.0 { 1.0 / v } else { 1.0 })
                .collect(),
        )
        .unwrap();
        let s0: Vec<f64> = x0.row_sums().iter().map(|v| v * 1.05).collect();
        let d0: Vec<f64> = x0.col_sums().iter().map(|v| v * 1.05).collect();
        let p = DiagonalProblem::with_zero_policy(
            x0,
            gamma,
            TotalSpec::Fixed { s0, d0 },
            ZeroPolicy::Structural,
        )
        .unwrap();
        let sup = sea_core::SupervisorOptions::default();
        let sol = sea_core::solve_diagonal_supervised(
            &p,
            &sea_core::SeaOptions::with_epsilon(1e-8),
            &sup,
            &mut sea_core::NullObserver,
        )
        .unwrap()
        .solution;
        assert!(sol.stats.converged);
    }
}
