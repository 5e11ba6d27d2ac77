//! Weight-scheme study (extension, DESIGN.md §8): how the §2 weighting
//! choices — least squares, chi-square, inverse-sqrt — affect SEA's
//! iteration count and the character of the estimate on the same updating
//! problem.
//!
//! The theory (eq. 58-64) predicts the iteration bound degrades with the
//! spread `M_l/m_l` of `1/(2γ)`, i.e. with the dispersion of the weights —
//! chi-square weights on wide-spread data are the hard case.

use sea_bench::{results_dir, Scale};
use sea_core::{
    solve_diagonal_supervised, theory, DiagonalProblem, NullObserver, SeaOptions,
    SupervisorOptions, TotalSpec, WeightScheme,
};
use sea_report::{fmt_seconds, ExperimentRecord, Table};

fn main() {
    let (scale, seed) = Scale::from_args();
    let size = match scale {
        Scale::Small => 60,
        Scale::Medium => 150,
        Scale::Paper => 400,
    };

    // A wide-spread prior, margins grown by conflicting per-line factors.
    let base = sea_data::table1_instance(size, seed);
    let x0 = base.x0().clone();
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let s0: Vec<f64> = x0
        .row_sums()
        .iter()
        .map(|v| v * rng.random_range(0.7..1.6))
        .collect();
    let mut d0: Vec<f64> = x0
        .col_sums()
        .iter()
        .map(|v| v * rng.random_range(0.7..1.6))
        .collect();
    let f: f64 = s0.iter().sum::<f64>() / d0.iter().sum::<f64>();
    for v in &mut d0 {
        *v *= f;
    }

    let mut record = ExperimentRecord::new(
        "weights_study",
        "Weight-scheme study: conditioning and iterations across the Section 2 schemes",
    );
    let mut t = Table::new(
        "Same problem, three weight schemes (epsilon = .001)",
        &[
            "scheme",
            "M_l/m_l (weight spread)",
            "iterations",
            "CPU time (s)",
            "relative change vs prior",
        ],
    );

    for (name, scheme) in [
        ("least squares", WeightScheme::LeastSquares),
        ("chi-square", WeightScheme::ChiSquare),
        ("inverse-sqrt", WeightScheme::InverseSqrt),
    ] {
        let gamma = scheme.entry_weights(&x0).expect("finite prior");
        let p = DiagonalProblem::new(
            x0.clone(),
            gamma,
            TotalSpec::Fixed {
                s0: s0.clone(),
                d0: d0.clone(),
            },
        )
        .expect("valid");
        let bounds = theory::CurvatureBounds::compute(&p);
        let sup = SupervisorOptions::default();
        let sol = solve_diagonal_supervised(
            &p,
            &SeaOptions::with_epsilon(0.001),
            &sup,
            &mut NullObserver,
        )
        .expect("solvable")
        .solution;
        assert!(sol.stats.converged, "{name} did not converge");
        let rel_change =
            sol.x.max_abs_diff(&x0) / x0.as_slice().iter().fold(0.0_f64, |m, &v| m.max(v));
        t.push_row(vec![
            name.to_string(),
            format!("{:.1}", bounds.upper / bounds.lower),
            sol.stats.iterations.to_string(),
            fmt_seconds(sol.stats.elapsed.as_secs_f64()),
            format!("{rel_change:.3}"),
        ]);
        eprintln!("weights_study: {name} done");
    }

    record.push_table(t);
    record.push_note(format!("scale = {scale:?} ({size}x{size}), seed = {seed}"));
    record.push_note(
        "Chi-square weights make large entries cheap to move and small entries \
         expensive (RAS-like updates); least squares spreads adjustment evenly. \
         The weight spread M_l/m_l is the paper's iteration-bound driver.",
    );
    record.print();
    if let Ok(path) = record.save_markdown(&results_dir(scale)) {
        eprintln!("saved {}", path.display());
    }
}
