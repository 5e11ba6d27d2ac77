//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Sorting strategy** inside exact equilibration — the paper's
//!    length-dispatched heapsort/straight-insertion pair vs forcing either
//!    one everywhere.
//! 2. **Convergence-check cadence** — §4.2 suggests checking every other
//!    (or every fifth) iteration to shrink the serial phase; measure the
//!    iteration/time impact on an elastic problem.
//! 3. **Parallel granularity** — simulated efficiency of one large problem
//!    vs several small ones at equal total work (task-grain effect).

use sea_bench::{results_dir, Scale};
use sea_cli::commands::trace_to_sim_phases;
use sea_core::{
    solve_diagonal_supervised, NullObserver, SeaOptions, SupervisorOptions, VecObserver,
};
use sea_data::table1_instance;
use sea_linalg::sort;
use sea_parsim::{speedup_table, MachineModel};
use sea_report::{fmt_seconds, ExperimentRecord, SolveSummary, Table};
use sea_spatial::random_spe;
use std::time::Instant;

fn bench_sort(strategy: &str, lens: &[usize], reps: usize) -> f64 {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let mut total = 0.0;
    for &n in lens {
        let key: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let t0 = Instant::now();
        for _ in 0..reps {
            sort::identity_permutation(&mut idx);
            match strategy {
                "insertion" => sort::insertion_argsort(&mut idx, &key),
                "heapsort" => sort::heap_argsort(&mut idx, &key),
                "dispatched" => sort::argsort(&mut idx, &key),
                _ => {
                    let k = &key;
                    idx.sort_unstable_by(|&a, &b| {
                        k[a as usize].partial_cmp(&k[b as usize]).unwrap()
                    });
                }
            }
        }
        total += t0.elapsed().as_secs_f64();
    }
    total
}

fn main() {
    let (scale, seed) = Scale::from_args();
    let sup = SupervisorOptions::default();
    let mut record = ExperimentRecord::new("ablation", "Ablation studies");

    // --- 1. Sorting strategies. -------------------------------------------
    let (short_reps, long_reps) = match scale {
        Scale::Small => (2_000, 50),
        _ => (20_000, 500),
    };
    let mut t = Table::new(
        "Sorting strategy (seconds, lower is better)",
        &[
            "strategy",
            "short arrays (10-120)",
            "long arrays (500-3000)",
        ],
    );
    let shorts = [10usize, 30, 60, 120];
    let longs = [500usize, 1000, 3000];
    for strategy in ["insertion", "heapsort", "dispatched", "std"] {
        t.push_row(vec![
            strategy.to_string(),
            fmt_seconds(bench_sort(strategy, &shorts, short_reps)),
            fmt_seconds(bench_sort(strategy, &longs, long_reps)),
        ]);
    }
    record.push_table(t);
    record.push_note(
        "Expected: insertion wins short arrays (the Table 7/8 regime), heapsort \
         wins long arrays (the Table 1 regime); the dispatched strategy (the \
         paper's choice) tracks the better of the two.",
    );

    // --- 2. Convergence-check cadence. ------------------------------------
    let size = match scale {
        Scale::Small => 60,
        Scale::Medium => 150,
        Scale::Paper => 300,
    };
    let spe = random_spe(size, size, seed);
    let cmp = spe.to_constrained_matrix().expect("valid");
    let mut t = Table::new(
        "Convergence-check cadence (elastic SP problem)",
        &[
            "check every",
            "iterations",
            "wall time (s)",
            "simulated serial fraction",
        ],
    );
    for cadence in [1usize, 2, 5] {
        let mut opts = SeaOptions::with_epsilon(0.01);
        opts.check_every = cadence;
        // Wall time comes from an unobserved solve: an observed one also
        // evaluates the dual value at every check, outside the traced
        // phases, which would inflate frequent checking.
        let sol = solve_diagonal_supervised(&cmp, &opts, &sup, &mut NullObserver)
            .expect("solvable")
            .solution;
        let mut obs = VecObserver::new();
        solve_diagonal_supervised(&cmp, &opts, &sup, &mut obs).expect("solvable");
        let summary = SolveSummary::from_events(&obs.events);
        t.push_row(vec![
            cadence.to_string(),
            sol.stats.iterations.to_string(),
            fmt_seconds(sol.stats.elapsed.as_secs_f64()),
            format!("{:.4}", summary.serial_fraction()),
        ]);
    }
    record.push_table(t);
    record.push_note(
        "Checking less often may overshoot by a few iterations but shrinks the \
         serial fraction — the trade §4.2 describes for the SP runs.",
    );

    // --- 3. Task granularity under simulation. ----------------------------
    let grain_size = match scale {
        Scale::Small => 100,
        _ => 300,
    };
    let p = table1_instance(grain_size, seed);
    let mut obs = VecObserver::new();
    solve_diagonal_supervised(&p, &SeaOptions::with_epsilon(0.01), &sup, &mut obs)
        .expect("solvable");
    let phases = trace_to_sim_phases(&obs.events);
    let mut t = Table::new(
        "Simulated efficiency vs dispatch overhead (N = 6)",
        &["dispatch overhead (s/task)", "E_6"],
    );
    for oh in [0.0, 1e-6, 1e-5, 1e-4] {
        let rows = speedup_table(&phases, &[6], oh, MachineModel::DEFAULT_FORK_JOIN_OVERHEAD);
        t.push_row(vec![
            format!("{oh:.0e}"),
            format!("{:.2}%", 100.0 * rows[0].efficiency),
        ]);
    }
    record.push_table(t);
    record.push_note(
        "Task-allocation overhead eats efficiency as tasks shrink — the Parallel \
         FORTRAN cost the paper's task-allocation discussion refers to.",
    );

    record.print();
    if let Ok(path) = record.save_markdown(&results_dir(scale)) {
        eprintln!("saved {}", path.display());
    }
}
