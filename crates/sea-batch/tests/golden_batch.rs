//! Golden-fixture audit of the batch event stream.
//!
//! A tiny deterministic 3-instance batch (two cached families plus one
//! cache bypass) is solved for two epochs through one engine — epoch one
//! all misses, epoch two all hits — and the full JSONL event stream is
//! compared line by line against `tests/fixtures/golden_batch.jsonl`.
//! Wall-clock and numeric-result fields are zeroed before comparison;
//! everything structural — batch lifecycle framing, replay order, cache
//! outcomes, kernel-work counters — must match the committed fixture.

use sea_batch::{BatchEngine, BatchInstance, BatchOptions, BatchProblem};
use sea_core::{DiagonalProblem, Event, KernelKind, TotalSpec};
use sea_linalg::DenseMatrix;
use sea_observe::jsonl::{encode_event, parse_events, JsonlObserver};

/// Zero every wall-clock / numeric-result field, keeping structure.
fn normalized(event: &Event) -> Event {
    let mut e = event.clone();
    match &mut e {
        Event::PhaseEnd {
            seconds,
            task_seconds,
            ..
        } => {
            *seconds = 0.0;
            task_seconds.iter_mut().for_each(|t| *t = 0.0);
        }
        Event::ConvergenceCheck {
            residual,
            dual_value,
            ..
        } => {
            *residual = 0.0;
            *dual_value = dual_value.map(|_| 0.0);
        }
        Event::MultiplierBound { bound, .. } => *bound = 0.0,
        Event::OuterIteration { outer_residual, .. } => *outer_residual = 0.0,
        Event::SolveEnd {
            residual,
            objective,
            dual_value,
            seconds,
            ..
        } => {
            *residual = 0.0;
            *objective = 0.0;
            *dual_value = dual_value.map(|_| 0.0);
            *seconds = 0.0;
        }
        Event::BatchEnd { seconds, .. } => *seconds = 0.0,
        Event::Meta { .. }
        | Event::SolveStart { .. }
        | Event::PhaseStart { .. }
        | Event::KernelCounters { .. }
        | Event::FallbackTriggered { .. }
        | Event::CheckpointWritten { .. }
        | Event::SupervisorStop { .. }
        | Event::BatchStart { .. }
        | Event::BatchInstance { .. } => {}
    }
    e
}

fn tiny(rows: [[f64; 2]; 2], s0: [f64; 2], d0: [f64; 2]) -> DiagonalProblem {
    DiagonalProblem::new(
        DenseMatrix::from_rows(&[rows[0].to_vec(), rows[1].to_vec()]).unwrap(),
        DenseMatrix::filled(2, 2, 1.0).unwrap(),
        TotalSpec::Fixed {
            s0: s0.to_vec(),
            d0: d0.to_vec(),
        },
    )
    .unwrap()
}

#[test]
fn batch_event_stream_matches_golden_fixture() {
    let batch = vec![
        BatchInstance {
            id: "alpha".to_string(),
            family: Some("f-alpha".to_string()),
            problem: BatchProblem::Diagonal(tiny([[1.0, 2.0], [3.0, 4.0]], [4.0, 6.0], [5.0, 5.0])),
        },
        BatchInstance {
            id: "beta".to_string(),
            family: Some("f-beta".to_string()),
            problem: BatchProblem::Diagonal(tiny([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0], [2.0, 4.0])),
        },
        BatchInstance {
            id: "adhoc".to_string(),
            family: None,
            problem: BatchProblem::Diagonal(tiny([[5.0, 1.0], [1.0, 5.0]], [6.0, 6.0], [7.0, 5.0])),
        },
    ];
    let mut engine = BatchEngine::new(BatchOptions {
        epsilon: 1e-10,
        max_iterations: 1000,
        // The fixture records the sort-scan oracle's event stream.
        kernel: KernelKind::SortScan,
        ..BatchOptions::default()
    });

    // Two epochs through one sink: misses, then hits.
    let mut obs = JsonlObserver::new(Vec::new());
    let first = engine.solve_batch(&batch, &mut obs);
    assert!(first.all_converged());
    assert_eq!(first.cache_misses, 2);
    let second = engine.solve_batch(&batch, &mut obs);
    assert!(second.all_converged());
    assert_eq!(second.cache_hits, 2);

    let bytes = obs.finish().unwrap();
    let recorded = parse_events(std::str::from_utf8(&bytes).unwrap()).unwrap();
    let mut actual = String::new();
    for event in &recorded {
        actual.push_str(&encode_event(&normalized(event)));
        actual.push('\n');
    }

    // `UPDATE_GOLDEN=1 cargo test -p sea-batch --test golden_batch`
    // rewrites the fixture after an intentional event-schema change.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/golden_batch.jsonl"
        );
        std::fs::write(path, &actual).unwrap();
        return;
    }

    let golden = include_str!("fixtures/golden_batch.jsonl");
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "event {} diverges from the golden fixture", i + 1);
    }
    assert_eq!(
        actual, golden,
        "event count diverges from the golden fixture"
    );
}
