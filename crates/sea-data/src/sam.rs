//! Social accounting matrices (Table 3).
//!
//! Seven datasets matching the documented account/transaction counts:
//!
//! | name    | accounts | transactions | provenance stand-in |
//! |---------|----------|--------------|---------------------|
//! | STONE   | 5        | 12           | Stone (1962) / Byron (1978) example |
//! | TURK    | 8        | 19           | perturbed 1973 Turkish SAM |
//! | SRI     | 6        | 20           | perturbed 1970 Sri Lanka SAM |
//! | USDA82E | 133      | 17 689       | perturbed-to-dense USDA 1982 SAM |
//! | S500    | 500      | 250 000      | random large-scale SAM |
//! | S750    | 750      | 562 500      | random |
//! | S1000   | 1000     | 1 000 000    | random |
//!
//! A SAM estimation problem is **balanced** (paper §2, objective 9): every
//! account's receipts (row total) must equal its expenditures (column
//! total), with the common totals estimated alongside the entries. The raw
//! data come from disparate sources, so the observed row/column sums
//! disagree; priors `s⁰` are set to the average of the two, and chi-square
//! weights are used throughout.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sea_core::{DiagonalProblem, TotalSpec, ZeroPolicy};
use sea_linalg::DenseMatrix;

/// The Table 3 dataset identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamInstance {
    /// Stone's 5-account example (12 transactions).
    Stone,
    /// Perturbed 1973 Turkish SAM (8 accounts, 19 transactions).
    Turk,
    /// Perturbed 1970 Sri Lanka SAM (6 accounts, 20 transactions).
    Sri,
    /// Perturbed USDA 1982 SAM, made fully dense (133 accounts).
    Usda82e,
    /// Random large-scale SAM with 500 accounts.
    S500,
    /// Random large-scale SAM with 750 accounts.
    S750,
    /// Random large-scale SAM with 1000 accounts.
    S1000,
}

impl SamInstance {
    /// Paper name.
    pub fn name(self) -> &'static str {
        match self {
            SamInstance::Stone => "STONE",
            SamInstance::Turk => "TURK",
            SamInstance::Sri => "SRI",
            SamInstance::Usda82e => "USDA82E",
            SamInstance::S500 => "S500",
            SamInstance::S750 => "S750",
            SamInstance::S1000 => "S1000",
        }
    }

    /// Number of accounts (rows = columns).
    pub fn accounts(self) -> usize {
        match self {
            SamInstance::Stone => 5,
            SamInstance::Turk => 8,
            SamInstance::Sri => 6,
            SamInstance::Usda82e => 133,
            SamInstance::S500 => 500,
            SamInstance::S750 => 750,
            SamInstance::S1000 => 1000,
        }
    }

    /// Documented transaction (nonzero) count.
    pub fn transactions(self) -> usize {
        match self {
            SamInstance::Stone => 12,
            SamInstance::Turk => 19,
            SamInstance::Sri => 20,
            SamInstance::Usda82e => 17_689,
            SamInstance::S500 => 250_000,
            SamInstance::S750 => 562_500,
            SamInstance::S1000 => 1_000_000,
        }
    }

    /// All seven instances in paper order.
    pub fn all() -> [SamInstance; 7] {
        [
            SamInstance::Stone,
            SamInstance::Turk,
            SamInstance::Sri,
            SamInstance::Usda82e,
            SamInstance::S500,
            SamInstance::S750,
            SamInstance::S1000,
        ]
    }
}

/// The hand-crafted 5-account SAM with exactly 12 transactions (accounts:
/// production, households, government, capital, rest-of-world), standing in
/// for Stone's classic example. Deliberately *unbalanced* — receipts and
/// expenditures disagree, as raw SAM data do.
fn stone_matrix() -> DenseMatrix {
    DenseMatrix::from_rows(&[
        //        prod   hh    gov   cap   row
        vec![0.0, 62.0, 14.0, 20.0, 9.0], // production sells to others
        vec![75.0, 0.0, 6.0, 0.0, 3.0],   // household income sources
        vec![18.0, 11.0, 0.0, 0.0, 0.0],  // government receipts
        vec![13.0, 12.0, 0.0, 0.0, 0.0],  // savings/capital
        vec![10.0, 0.0, 0.0, 0.0, 0.0],   // rest of world
    ])
    .expect("static data")
}

/// Sparse small SAM with exactly `transactions` nonzeros, strictly no
/// diagonal entries (accounts do not transact with themselves), and every
/// row/column supported.
fn small_sam_matrix(n: usize, transactions: usize, rng: &mut ChaCha8Rng) -> DenseMatrix {
    assert!(transactions >= 2 * n - 1, "too sparse to support all lines");
    let mut m = DenseMatrix::zeros(n, n).expect("nonempty");
    let mut placed = 0usize;
    // First a ring i -> i+1 so every row and column has support.
    for i in 0..n {
        let j = (i + 1) % n;
        m.set(i, j, rng.random_range(5.0..100.0));
        placed += 1;
    }
    while placed < transactions {
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i != j && m.get(i, j) == 0.0 {
            m.set(i, j, rng.random_range(1.0..100.0));
            placed += 1;
        }
    }
    m
}

/// Build the balanced estimation problem for a Table 3 instance.
///
/// Deterministic; the large random instances additionally take `seed` into
/// account so replications are possible.
pub fn sam_problem(inst: SamInstance, seed: u64) -> DiagonalProblem {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5A11 ^ seed.wrapping_mul(0x9E37_79B9));
    let n = inst.accounts();
    let (x0, zero_policy) = match inst {
        SamInstance::Stone => (stone_matrix(), ZeroPolicy::Structural),
        SamInstance::Turk => (small_sam_matrix(8, 19, &mut rng), ZeroPolicy::Structural),
        SamInstance::Sri => (small_sam_matrix(6, 20, &mut rng), ZeroPolicy::Structural),
        SamInstance::Usda82e => {
            // "Perturbed in order to make it fully dense, and a 'difficult'
            // problem": dense positive entries over several orders of
            // magnitude.
            let data: Vec<f64> = (0..n * n)
                .map(|_| rng.random_range(0.1_f64.ln()..5_000.0_f64.ln()).exp())
                .collect();
            (
                DenseMatrix::from_vec(n, n, data).expect("nonempty"),
                ZeroPolicy::Free,
            )
        }
        SamInstance::S500 | SamInstance::S750 | SamInstance::S1000 => {
            let data: Vec<f64> = (0..n * n)
                .map(|_| rng.random_range(0.1..10_000.0))
                .collect();
            (
                DenseMatrix::from_vec(n, n, data).expect("nonempty"),
                ZeroPolicy::Free,
            )
        }
    };

    // Receipts and expenditures disagree in raw data; the prior account
    // total is their average, perturbed a little (the "disparate sources").
    let rows = x0.row_sums();
    let cols = x0.col_sums();
    let s0: Vec<f64> = rows
        .iter()
        .zip(&cols)
        .map(|(r, c)| 0.5 * (r + c) * (1.0 + rng.random_range(-0.05..0.05)))
        .collect();
    let alpha: Vec<f64> = s0.iter().map(|&t| 1.0 / t.abs().max(1e-6)).collect();
    let gamma = DenseMatrix::from_vec(
        n,
        n,
        x0.as_slice()
            .iter()
            .map(|&v| if v > 0.0 { 1.0 / v } else { 1.0 })
            .collect(),
    )
    .expect("same shape");

    DiagonalProblem::with_zero_policy(x0, gamma, TotalSpec::Balanced { alpha, s0 }, zero_policy)
        .expect("valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_core::{solve_diagonal_supervised, NullObserver, SeaOptions, SupervisorOptions};

    #[test]
    fn stone_has_exactly_twelve_transactions() {
        let m = stone_matrix();
        assert_eq!(m.rows(), 5);
        assert_eq!(m.count_nonzero(), 12);
        // Raw receipts != expenditures (it is an estimation problem).
        let r = m.row_sums();
        let c = m.col_sums();
        assert!(r.iter().zip(&c).any(|(a, b)| (a - b).abs() > 1.0));
    }

    #[test]
    fn small_instances_match_documented_counts() {
        for inst in [SamInstance::Stone, SamInstance::Turk, SamInstance::Sri] {
            let p = sam_problem(inst, 0);
            assert_eq!(p.m(), inst.accounts(), "{}", inst.name());
            assert_eq!(
                p.x0().count_nonzero(),
                inst.transactions(),
                "{}",
                inst.name()
            );
        }
    }

    #[test]
    fn usda_is_fully_dense() {
        let p = sam_problem(SamInstance::Usda82e, 0);
        assert_eq!(p.m(), 133);
        assert_eq!(p.x0().count_nonzero(), 133 * 133);
        assert_eq!(SamInstance::Usda82e.transactions(), 133 * 133);
    }

    #[test]
    fn stone_problem_balances_under_sea() {
        let p = sam_problem(SamInstance::Stone, 0);
        let sup = SupervisorOptions::default();
        let sol = solve_diagonal_supervised(
            &p,
            &SeaOptions::with_epsilon(1e-10),
            &sup,
            &mut NullObserver,
        )
        .unwrap()
        .solution;
        assert!(sol.stats.converged);
        let r = sol.x.row_sums();
        let c = sol.x.col_sums();
        for i in 0..5 {
            assert!(
                (r[i] - c[i]).abs() < 1e-6 * r[i].max(1.0),
                "account {i}: {} vs {}",
                r[i],
                c[i]
            );
        }
        // Structural zeros survive.
        assert_eq!(sol.x.get(0, 0), 0.0);
    }

    #[test]
    fn turk_and_sri_balance_under_sea() {
        for inst in [SamInstance::Turk, SamInstance::Sri] {
            let p = sam_problem(inst, 0);
            let sup = SupervisorOptions::default();
            let sol = solve_diagonal_supervised(
                &p,
                &SeaOptions::with_epsilon(1e-9),
                &sup,
                &mut NullObserver,
            )
            .unwrap()
            .solution;
            assert!(sol.stats.converged, "{} did not converge", inst.name());
            let r = sol.x.row_sums();
            let c = sol.x.col_sums();
            for i in 0..p.m() {
                assert!((r[i] - c[i]).abs() < 1e-5 * r[i].max(1.0));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sam_problem(SamInstance::Turk, 1);
        let b = sam_problem(SamInstance::Turk, 1);
        assert_eq!(a.x0(), b.x0());
    }
}
