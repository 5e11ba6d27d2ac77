//! Golden-fixture audit of the solver event stream.
//!
//! A tiny deterministic solve (2×2, fixed totals, `Serial` parallelism,
//! sort-scan kernel) is recorded through the JSONL sink and compared,
//! line by line, against `tests/fixtures/golden_solve.jsonl`. Wall-clock
//! and numeric-result fields are zeroed before comparison (timings are
//! nondeterministic, and float formatting should not pin the fixture);
//! everything structural — the event sequence, phase labels, task counts,
//! iteration numbers, convergence flags, and the exact kernel work
//! counters — must match the committed golden file.

use sea_core::{
    solve_diagonal_supervised, solve_general_supervised, DiagonalProblem, GeneralSeaOptions,
    KernelKind, Parallelism, SeaOptions, SupervisorOptions, TotalSpec, VecObserver,
};
use sea_linalg::DenseMatrix;
use sea_observe::jsonl::{encode_event, parse_events, JsonlObserver};
use sea_observe::{Event, MetricsObserver, Observer};

#[path = "common/generator.rs"]
mod generator;
#[path = "common/normalize.rs"]
mod normalize;
use normalize::normalized;

fn golden_problem() -> DiagonalProblem {
    DiagonalProblem::new(
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
        DenseMatrix::filled(2, 2, 1.0).unwrap(),
        TotalSpec::Fixed {
            s0: vec![4.0, 6.0],
            d0: vec![5.0, 5.0],
        },
    )
    .unwrap()
}

#[test]
fn event_stream_matches_golden_fixture() {
    let p = golden_problem();
    let mut opts = SeaOptions::with_epsilon(1e-10);
    opts.parallelism = Parallelism::Serial;
    // The fixture records the sort-scan oracle's event stream under the
    // paper's SEA, without extrapolation.
    opts.kernel = KernelKind::SortScan;
    opts.extrapolation_depth = 0;

    let mut obs = JsonlObserver::new(Vec::new());
    let sol = solve_diagonal_supervised(&p, &opts, &SupervisorOptions::default(), &mut obs)
        .unwrap()
        .solution;
    assert!(sol.stats.converged);

    let bytes = obs.finish().unwrap();
    let recorded = parse_events(std::str::from_utf8(&bytes).unwrap()).unwrap();
    let mut actual = String::new();
    for event in &recorded {
        actual.push_str(&encode_event(&normalized(event)));
        actual.push('\n');
    }

    // `UPDATE_GOLDEN=1 cargo test -p sea-core --test observe_events`
    // rewrites the fixture after an intentional event-schema change.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/golden_solve.jsonl"
        );
        std::fs::write(path, &actual).unwrap();
        return;
    }

    let golden = include_str!("fixtures/golden_solve.jsonl");
    // Compare line by line for actionable failure messages, then exactly.
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "event {} diverges from the golden fixture", i + 1);
    }
    assert_eq!(
        actual, golden,
        "event count diverges from the golden fixture"
    );
}

/// A tiny deterministic sparse (CSR) solve, pinned the same way: the event
/// stream — including the kernel work counters over the stored support —
/// must match `tests/fixtures/golden_sparse_solve.jsonl` exactly.
#[test]
fn sparse_event_stream_matches_golden_fixture() {
    use sea_core::ZeroPolicy;
    use sea_linalg::CsrMatrix;

    // 3×3 with a 5-cell support (cells (0,2), (1,2), (2,0), (2,1) are
    // structural zeros); totals grow the margins non-uniformly so the
    // solve takes several alternating passes.
    let x0 = CsrMatrix::from_triplets(
        3,
        3,
        &[
            (0, 0, 1.0),
            (0, 1, 2.0),
            (1, 0, 3.0),
            (1, 1, 4.0),
            (2, 2, 5.0),
        ],
    )
    .unwrap();
    let gamma = x0.with_values(vec![1.0, 2.0, 1.0, 4.0, 1.0]).unwrap();
    let p = DiagonalProblem::with_zero_policy(
        x0,
        gamma,
        TotalSpec::Fixed {
            s0: vec![3.2, 7.9, 5.5],
            d0: vec![4.5, 6.6, 5.5],
        },
        ZeroPolicy::Structural,
    )
    .unwrap();
    let mut opts = SeaOptions::with_epsilon(1e-10);
    opts.parallelism = Parallelism::Serial;
    // The fixture records the sort-scan oracle's event stream under the
    // paper's SEA, without extrapolation.
    opts.kernel = KernelKind::SortScan;
    opts.extrapolation_depth = 0;

    let mut obs = JsonlObserver::new(Vec::new());
    let sol = solve_diagonal_supervised(&p, &opts, &SupervisorOptions::default(), &mut obs)
        .unwrap()
        .solution;
    assert!(sol.stats.converged);

    let bytes = obs.finish().unwrap();
    let recorded = parse_events(std::str::from_utf8(&bytes).unwrap()).unwrap();
    let mut actual = String::new();
    for event in &recorded {
        actual.push_str(&encode_event(&normalized(event)));
        actual.push('\n');
    }

    // `UPDATE_GOLDEN=1 cargo test -p sea-core --test observe_events`
    // rewrites the fixture after an intentional event-schema change.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/golden_sparse_solve.jsonl"
        );
        std::fs::write(path, &actual).unwrap();
        return;
    }

    let golden = include_str!("fixtures/golden_sparse_solve.jsonl");
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            a,
            g,
            "event {} diverges from the golden sparse fixture",
            i + 1
        );
    }
    assert_eq!(
        actual, golden,
        "event count diverges from the golden sparse fixture"
    );
}

/// Metrics recorded per solve and merged equal metrics replayed from
/// both solves' events into one registry: the serve worker's
/// merge-once-per-solve renders what the per-event replay it replaced
/// did. The two streams differ in shape (a diagonal solve, then a general
/// one with outer iterations and projection phases), so the merge adds
/// counters and histograms, overwrites gauges and appends new families.
/// Timings are rounded to multiples of 2⁻³⁰ s, which makes every float
/// sum exact and so independent of the order it is added in.
#[test]
fn merged_solve_metrics_render_as_replayed_events() {
    let sup = SupervisorOptions::default();
    let mut diagonal = VecObserver::new();
    let p = generator::heterogeneous(5, 6, 7);
    solve_diagonal_supervised(&p, &SeaOptions::with_epsilon(1e-9), &sup, &mut diagonal).unwrap();
    let mut general = VecObserver::new();
    let g = generator::try_general(11, 2, 3, 2).unwrap();
    let opts = GeneralSeaOptions::with_epsilon(1e-6);
    solve_general_supervised(&g, &opts, &sup, &mut general).unwrap();

    let dyadic = |s: &mut f64| *s = (*s * 2f64.powi(30)).round() / 2f64.powi(30);
    let streams: Vec<Vec<Event>> = [diagonal.events, general.events]
        .into_iter()
        .map(|mut events| {
            for e in &mut events {
                match e {
                    Event::PhaseEnd {
                        seconds,
                        task_seconds,
                        ..
                    } => {
                        dyadic(seconds);
                        task_seconds.iter_mut().for_each(dyadic);
                    }
                    Event::SolveEnd { seconds, .. } => dyadic(seconds),
                    _ => {}
                }
            }
            events
        })
        .collect();

    let mut replayed = MetricsObserver::new();
    let mut merged = MetricsObserver::new();
    for events in &streams {
        let mut local = MetricsObserver::new();
        for e in events {
            replayed.record(e);
            local.record(e);
        }
        merged.registry.merge(&local.registry);
    }
    let text = replayed.render();
    assert!(text.contains("sea_outer_iterations_total"), "{text}");
    assert!(text.contains("sea_subproblem_seconds_bucket"), "{text}");
    assert_eq!(merged.render(), text);
}
