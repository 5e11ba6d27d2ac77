//! US state-to-state migration tables (Tables 4 and 8).
//!
//! 48 × 48 tables (the lower 48 states: Alaska, Hawaii, and Washington DC
//! removed), rows = origin states, columns = destinations, diagonal
//! structurally zero (same-state moves are not interstate migration). Three
//! periods — 1955–60, 1965–70, 1975–80 — each synthesized by a gravity
//! model over stable state populations and coordinates, with per-period
//! drift.
//!
//! Table 4 variants (diagonal problem, unit weights, **elastic totals** —
//! "the row and column totals are also to be estimated"):
//!
//! * `a` — prior totals = base margins grown by a distinct random factor in
//!   0–10 % per row/column;
//! * `b` — same with 0–100 %;
//! * `c` — prior totals = exact base margins; prior entries perturbed by
//!   0–10 % each.
//!
//! Table 8 variants (general problem, dense diagonally dominant `G` of
//! order 48² = 2304, **fixed totals**):
//!
//! * `a` — totals grown 0–10 %, entries unchanged;
//! * `b` — totals grown 0–10 % *and* each entry perturbed by 0–10 %.

use crate::random::dense_dd_weight_matrix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sea_core::{DiagonalProblem, GeneralProblem, GeneralTotalSpec, TotalSpec, ZeroPolicy};
use sea_linalg::DenseMatrix;

/// Number of states in the tables (lower 48).
pub const STATES: usize = 48;

/// Census period of the base table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Period {
    /// 1955–1960 state-to-state flows.
    P5560,
    /// 1965–1970 flows.
    P6570,
    /// 1975–1980 flows.
    P7580,
}

impl Period {
    /// Short tag used in dataset names (`5560` etc.).
    pub fn tag(self) -> &'static str {
        match self {
            Period::P5560 => "5560",
            Period::P6570 => "6570",
            Period::P7580 => "7580",
        }
    }

    fn seed(self) -> u64 {
        match self {
            Period::P5560 => 1955,
            Period::P6570 => 1965,
            Period::P7580 => 1975,
        }
    }

    /// All periods in paper order.
    pub fn all() -> [Period; 3] {
        [Period::P5560, Period::P6570, Period::P7580]
    }
}

/// Table 4 / Table 8 variant letters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationVariant {
    /// Totals grown by 0–10 % per line.
    A,
    /// Totals grown by 0–100 % per line (Table 4 only).
    B,
    /// Entries perturbed 0–10 %, totals kept (Table 4 only).
    C,
}

impl MigrationVariant {
    /// The variant letter.
    pub fn letter(self) -> char {
        match self {
            MigrationVariant::A => 'a',
            MigrationVariant::B => 'b',
            MigrationVariant::C => 'c',
        }
    }
}

/// Synthesize the base gravity-model migration table for a period:
/// `flowᵢⱼ ∝ popᵢ^0.8 · popⱼ^0.7 / distᵢⱼ^1.5`, diagonal zero, scaled so
/// flows land in a plausible range (hundreds to hundreds of thousands of
/// migrants).
pub fn base_migration_table(period: Period) -> DenseMatrix {
    // State populations and positions are stable across periods (seeded
    // once); per-period drift multiplies flows.
    let mut geo_rng = ChaCha8Rng::seed_from_u64(0x6E0_6E0);
    let pops: Vec<f64> = (0..STATES)
        .map(|_| geo_rng.random_range(5.0_f64.ln()..12.0_f64.ln()).exp() * 1.0e5)
        .collect();
    let coords: Vec<(f64, f64)> = (0..STATES)
        .map(|_| {
            (
                geo_rng.random_range(0.0..3000.0),
                geo_rng.random_range(0.0..1500.0),
            )
        })
        .collect();
    let mut drift_rng = ChaCha8Rng::seed_from_u64(period.seed());
    let mobility = drift_rng.random_range(0.8..1.2);

    let mut m = DenseMatrix::zeros(STATES, STATES).expect("nonempty");
    for i in 0..STATES {
        for j in 0..STATES {
            if i == j {
                continue;
            }
            let (xi, yi) = coords[i];
            let (xj, yj) = coords[j];
            let dist = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt().max(50.0);
            let noise = drift_rng.random_range(0.5..1.5);
            let flow =
                2.0e-4 * mobility * noise * pops[i].powf(0.8) * pops[j].powf(0.7) / dist.powf(1.5);
            m.set(i, j, flow);
        }
    }
    m
}

/// Build a Table 4 problem: elastic totals, unit weights (paper: "All of
/// the weights were set equal to one").
pub fn migration_problem(period: Period, variant: MigrationVariant) -> DiagonalProblem {
    let base = base_migration_table(period);
    let mut rng = ChaCha8Rng::seed_from_u64(period.seed() * 31 + variant.letter() as u64);
    let rows = base.row_sums();
    let cols = base.col_sums();

    let (x0, s0, d0) = match variant {
        MigrationVariant::A | MigrationVariant::B => {
            let top = if variant == MigrationVariant::A {
                0.10
            } else {
                1.00
            };
            let s0: Vec<f64> = rows
                .iter()
                .map(|r| r * (1.0 + rng.random_range(0.0..top)))
                .collect();
            let d0: Vec<f64> = cols
                .iter()
                .map(|c| c * (1.0 + rng.random_range(0.0..top)))
                .collect();
            (base, s0, d0)
        }
        MigrationVariant::C => {
            let mut pert = base.clone();
            pert.map_inplace(|v| {
                if v > 0.0 {
                    v * (1.0 + rng.random_range(0.0..0.10))
                } else {
                    0.0
                }
            });
            (pert, rows, cols)
        }
    };

    let n = x0.cols();
    let gamma = DenseMatrix::filled(x0.rows(), n, 1.0).expect("nonempty");
    DiagonalProblem::with_zero_policy(
        x0,
        gamma,
        TotalSpec::Elastic {
            alpha: vec![1.0; STATES],
            s0,
            beta: vec![1.0; STATES],
            d0,
        },
        ZeroPolicy::Structural,
    )
    .expect("valid by construction")
}

/// Build a Table 8 problem: general objective with a dense diagonally
/// dominant `G` (order 2304), fixed totals.
pub fn migration_general(period: Period, perturb_entries: bool) -> GeneralProblem {
    let base = base_migration_table(period);
    let mut rng = ChaCha8Rng::seed_from_u64(period.seed() * 131 + u64::from(perturb_entries));
    let s0: Vec<f64> = base
        .row_sums()
        .iter()
        .map(|r| r * (1.0 + rng.random_range(0.0..0.10)))
        .collect();
    let mut d0: Vec<f64> = base
        .col_sums()
        .iter()
        .map(|c| c * (1.0 + rng.random_range(0.0..0.10)))
        .collect();
    let scale: f64 = s0.iter().sum::<f64>() / d0.iter().sum::<f64>();
    for v in &mut d0 {
        *v *= scale;
    }
    let x0 = if perturb_entries {
        let mut pert = base;
        pert.map_inplace(|v| {
            if v > 0.0 {
                v * (1.0 + rng.random_range(0.0..0.10))
            } else {
                0.0
            }
        });
        pert
    } else {
        base
    };
    let g = dense_dd_weight_matrix(STATES * STATES, &mut rng);
    GeneralProblem::new(x0, g, GeneralTotalSpec::Fixed { s0, d0 }).expect("valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_core::{solve_diagonal_supervised, NullObserver, SeaOptions, SupervisorOptions};

    #[test]
    fn base_table_shape_and_zero_diagonal() {
        let m = base_migration_table(Period::P5560);
        assert_eq!(m.rows(), STATES);
        assert_eq!(m.cols(), STATES);
        for i in 0..STATES {
            assert_eq!(m.get(i, i), 0.0);
        }
        // Off-diagonal flows are positive and widely spread.
        let nz = m.count_nonzero();
        assert_eq!(nz, STATES * STATES - STATES);
    }

    #[test]
    fn periods_differ_but_are_deterministic() {
        let a1 = base_migration_table(Period::P5560);
        let a2 = base_migration_table(Period::P5560);
        assert_eq!(a1, a2);
        let b = base_migration_table(Period::P7580);
        assert_ne!(a1, b);
    }

    #[test]
    fn variant_a_has_small_growth() {
        let p = migration_problem(Period::P5560, MigrationVariant::A);
        let base_rows = base_migration_table(Period::P5560).row_sums();
        match p.totals() {
            TotalSpec::Elastic { s0, .. } => {
                for (t, b) in s0.iter().zip(&base_rows) {
                    let g = t / b;
                    assert!((1.0..1.1001).contains(&g), "growth {g}");
                }
            }
            _ => panic!("expected elastic"),
        }
    }

    #[test]
    fn variant_b_growth_exceeds_variant_a() {
        let a = migration_problem(Period::P6570, MigrationVariant::A);
        let b = migration_problem(Period::P6570, MigrationVariant::B);
        let (TotalSpec::Elastic { s0: sa, .. }, TotalSpec::Elastic { s0: sb, .. }) =
            (a.totals(), b.totals())
        else {
            panic!("expected elastic")
        };
        let base = base_migration_table(Period::P6570).row_sums();
        let ga: f64 = sa.iter().zip(&base).map(|(t, b)| t / b).sum::<f64>() / 48.0;
        let gb: f64 = sb.iter().zip(&base).map(|(t, b)| t / b).sum::<f64>() / 48.0;
        assert!(gb > ga, "mean growth a={ga}, b={gb}");
    }

    #[test]
    fn variant_c_keeps_margins_but_perturbs_entries() {
        let p = migration_problem(Period::P7580, MigrationVariant::C);
        let base = base_migration_table(Period::P7580);
        match p.totals() {
            TotalSpec::Elastic { s0, .. } => {
                let base_rows = base.row_sums();
                for (t, b) in s0.iter().zip(&base_rows) {
                    assert!((t - b).abs() < 1e-9);
                }
            }
            _ => panic!("expected elastic"),
        }
        assert_ne!(p.x0(), &base);
    }

    #[test]
    fn migration_problems_solve_quickly() {
        // The c variant starts closest to feasibility, mirroring the
        // paper's observation that it solves fastest.
        let c = migration_problem(Period::P5560, MigrationVariant::C);
        let sup = SupervisorOptions::default();
        let sol =
            solve_diagonal_supervised(&c, &SeaOptions::with_epsilon(1e-4), &sup, &mut NullObserver)
                .unwrap()
                .solution;
        assert!(sol.stats.converged);
        // Structural diagonal zero preserved.
        assert_eq!(sol.x.get(0, 0), 0.0);
    }

    #[test]
    fn general_migration_matches_spec() {
        // Use the real generator at full 2304 order — generation is the
        // expensive part, so do it once.
        let p = migration_general(Period::P5560, true);
        assert_eq!(p.m(), STATES);
        assert_eq!(p.g().order(), 2304);
        assert!(p.g().is_strictly_diagonally_dominant());
        match p.totals() {
            GeneralTotalSpec::Fixed { s0, d0 } => {
                let rs: f64 = s0.iter().sum();
                let cs: f64 = d0.iter().sum();
                assert!((rs - cs).abs() < 1e-6 * rs);
            }
            _ => panic!("expected fixed"),
        }
    }
}
