//! Engine behavior: warm-start cache lifecycle, work accounting, mixed
//! problem classes, per-instance errors, and batch-wide cancellation.

#[path = "../../sea-core/tests/common/generator.rs"]
mod generator;

use sea_batch::{
    solve_instance, BatchEngine, BatchInstance, BatchOptions, BatchParallelism, BatchProblem,
    WarmStart, WarmStartCache,
};
use sea_core::{
    CancelToken, Event, KernelCounters, NullObserver, SolveBudget, SpanKind, SpanProfiler,
    StopReason, SupervisorOptions, VecObserver,
};

fn diagonal_instance(id: &str, family: Option<&str>, seed: u64) -> BatchInstance {
    BatchInstance {
        id: id.to_string(),
        family: family.map(str::to_string),
        problem: BatchProblem::Diagonal(generator::heterogeneous(seed, 5, 5)),
    }
}

fn options() -> BatchOptions {
    BatchOptions {
        epsilon: 1e-10,
        max_iterations: 20_000,
        ..BatchOptions::default()
    }
}

#[test]
fn repeated_family_misses_then_hits_and_saves_work() {
    let mut engine = BatchEngine::new(options());
    let batch = vec![diagonal_instance("q1", Some("quarterly"), 1)];

    let first = engine.solve_batch(&batch, &mut NullObserver);
    assert_eq!(first.items[0].warm_start, WarmStart::Miss);
    assert_eq!(first.cache_misses, 1);
    assert_eq!(first.cache_hits, 0);
    assert!(first.all_converged());
    assert!(first.kernel_work > 0, "a converged solve reports work");
    assert_eq!(first.work_saved, 0, "a miss has no baseline to save from");
    assert_eq!(engine.cached_families(), 1);

    let second = engine.solve_batch(&batch, &mut NullObserver);
    assert_eq!(second.items[0].warm_start, WarmStart::Hit);
    assert_eq!(second.cache_hits, 1);
    assert!(second.all_converged());
    assert!(
        second.kernel_work < first.kernel_work,
        "identical warm-started instance must do less kernel work \
         (warm {} vs cold {})",
        second.kernel_work,
        first.kernel_work
    );
    assert_eq!(
        second.work_saved,
        first.kernel_work - second.kernel_work,
        "saved work is measured against the family's cold baseline"
    );
}

#[test]
fn hits_keep_the_original_cold_baseline() {
    let mut engine = BatchEngine::new(options());
    let batch = vec![diagonal_instance("q1", Some("quarterly"), 1)];
    let cold = engine.solve_batch(&batch, &mut NullObserver).kernel_work;
    engine.solve_batch(&batch, &mut NullObserver);
    // Third epoch: still compared against the first (cold) solve, not the
    // second (already warm) one, so the reported saving stays honest.
    let third = engine.solve_batch(&batch, &mut NullObserver);
    assert_eq!(third.work_saved, cold - third.kernel_work);
}

#[test]
fn within_one_batch_the_cache_is_a_snapshot() {
    let mut engine = BatchEngine::new(options());
    // Two instances of the same family in one batch: both resolve against
    // the empty snapshot (both miss); the hit only materializes next call.
    let batch = vec![
        diagonal_instance("a", Some("fam"), 1),
        diagonal_instance("b", Some("fam"), 1),
    ];
    let report = engine.solve_batch(&batch, &mut NullObserver);
    assert_eq!(report.cache_misses, 2);
    assert_eq!(report.cache_hits, 0);
    let next = engine.solve_batch(&batch, &mut NullObserver);
    assert_eq!(next.cache_hits, 2);
}

#[test]
fn familyless_instances_bypass_the_cache() {
    let mut engine = BatchEngine::new(options());
    let batch = vec![diagonal_instance("adhoc", None, 2)];
    for _ in 0..2 {
        let report = engine.solve_batch(&batch, &mut NullObserver);
        assert_eq!(report.items[0].warm_start, WarmStart::Bypass);
        assert_eq!(report.cache_hits + report.cache_misses, 0);
    }
    assert_eq!(engine.cached_families(), 0);
}

#[test]
fn warm_start_off_bypasses_and_stores_nothing() {
    let mut engine = BatchEngine::new(BatchOptions {
        warm_start: false,
        ..options()
    });
    let batch = vec![diagonal_instance("q1", Some("quarterly"), 1)];
    engine.solve_batch(&batch, &mut NullObserver);
    let second = engine.solve_batch(&batch, &mut NullObserver);
    assert_eq!(second.items[0].warm_start, WarmStart::Bypass);
    assert_eq!(engine.cached_families(), 0);
}

#[test]
fn shape_changed_family_downgrades_to_miss() {
    let mut engine = BatchEngine::new(options());
    engine.solve_batch(
        &[diagonal_instance("v1", Some("fam"), 1)],
        &mut NullObserver,
    );
    // Same family, different column count: the cached μ no longer fits.
    let reshaped = BatchInstance {
        id: "v2".to_string(),
        family: Some("fam".to_string()),
        problem: BatchProblem::Diagonal(generator::heterogeneous(1, 5, 4)),
    };
    let report = engine.solve_batch(&[reshaped], &mut NullObserver);
    assert_eq!(report.items[0].warm_start, WarmStart::Miss);
    assert!(
        report.all_converged(),
        "a stale shape must not break solving"
    );
}

#[test]
fn mixed_classes_solve_in_one_batch() {
    let mut engine = BatchEngine::new(BatchOptions {
        epsilon: 1e-8,
        max_iterations: 20_000,
        ..BatchOptions::default()
    });
    let batch = vec![
        diagonal_instance("diag", Some("d"), 3),
        BatchInstance {
            id: "bounded".to_string(),
            family: Some("b".to_string()),
            problem: BatchProblem::Bounded(
                generator::try_bounded(7, 3, 3, 2, 1.0).expect("feasible bounded instance"),
            ),
        },
        BatchInstance {
            id: "general".to_string(),
            family: Some("g".to_string()),
            problem: BatchProblem::General(
                generator::try_general(11, 2, 2, 2).expect("SPD general instance"),
            ),
        },
    ];
    let first = engine.solve_batch(&batch, &mut NullObserver);
    assert_eq!(first.items.len(), 3);
    for item in &first.items {
        assert!(
            item.outcome.as_ref().is_ok_and(|s| s.converged()),
            "{} failed to converge",
            item.id
        );
    }
    assert_eq!(engine.cached_families(), 3);
    // All three classes accept a warm μ seed on the second epoch.
    let second = engine.solve_batch(&batch, &mut NullObserver);
    assert_eq!(second.cache_hits, 3);
    assert!(second.all_converged());
}

/// One instance of each class: dense, CSR, box-bounded and general.
fn one_of_each_class() -> Vec<BatchInstance> {
    let inst = |id: &str, problem| BatchInstance {
        id: id.to_string(),
        family: Some(id.to_string()),
        problem,
    };
    let (_, sparse) = generator::sparse_families(0xC0_47).swap_remove(0);
    vec![
        diagonal_instance("dense", Some("dense"), 3),
        inst("csr", BatchProblem::SparseDiagonal(sparse)),
        inst(
            "bounded",
            BatchProblem::Bounded(
                generator::try_bounded(7, 3, 3, 2, 1.0).expect("feasible bounded instance"),
            ),
        ),
        inst(
            "general",
            BatchProblem::General(
                generator::try_general(11, 2, 2, 2).expect("SPD general instance"),
            ),
        ),
    ]
}

/// Kernel counters travel with the result: every class's solution
/// carries the counters its observed solve reports in `KernelCounters`
/// events (a general solve's inner solves summed), and a batch's work
/// accounting reads the same with or without an outer observer.
#[test]
fn solution_counters_match_observed_kernel_events() {
    let batch = one_of_each_class();
    let mut observed = BatchEngine::new(options());
    let mut unobserved = BatchEngine::new(options());
    // A cold epoch, then a warm one, where work is saved.
    for epoch in 0..2 {
        let mut obs = VecObserver::new();
        let with = observed.solve_batch(&batch, &mut obs);
        let without = unobserved.solve_batch(&batch, &mut NullObserver);

        // Each instance's buffered stream precedes its BatchInstance event.
        let mut events = KernelCounters::default();
        let mut seen = 0;
        for e in &obs.events {
            match e {
                Event::KernelCounters { counters } => events = events.merged(*counters),
                Event::BatchInstance {
                    index, kernel_work, ..
                } => {
                    let item = &with.items[*index];
                    let sol = item.outcome.as_ref().expect("instance solves");
                    assert!(sol.converged(), "{}", item.id);
                    assert!(!events.is_empty(), "{}: no kernel events", item.id);
                    assert_eq!(sol.counters(), events, "{}/epoch {epoch}", item.id);
                    assert_eq!(*kernel_work, events.work(), "{}", item.id);
                    events = KernelCounters::default();
                    seen += 1;
                }
                _ => {}
            }
        }
        assert_eq!(seen, batch.len());

        for (a, b) in with.items.iter().zip(&without.items) {
            assert_eq!(a.kernel_work, b.kernel_work, "{}/epoch {epoch}", a.id);
            assert_eq!(a.work_saved, b.work_saved, "{}/epoch {epoch}", a.id);
            assert_eq!(a.warm_start, b.warm_start, "{}", a.id);
        }
        assert_eq!(with.kernel_work, without.kernel_work);
        assert_eq!(with.work_saved, without.work_saved);
        if epoch == 1 {
            assert_eq!(with.cache_hits, batch.len());
            assert!(with.work_saved > 0, "warm epoch saves work");
        }
    }
}

/// `solve_instance` streams an instance's events straight to its
/// observer; they are the events `solve_batch` buffers for that instance
/// and replays in submission order, even when instances run in parallel.
#[test]
fn solve_instance_streams_what_the_batch_replays() {
    let batch = one_of_each_class();
    let mut engine = BatchEngine::new(BatchOptions {
        parallelism: BatchParallelism::Outer,
        ..options()
    });
    let mut replay = VecObserver::new();
    engine.solve_batch(&batch, &mut replay);
    let mut replayed = replay.events[1..replay.events.len() - 1]
        .split(|e| matches!(e, Event::BatchInstance { .. }))
        .map(|events| events.iter().map(Event::kind).collect::<Vec<_>>());

    for inst in &batch {
        let mut streamed = VecObserver::new();
        solve_instance(inst, &options(), &WarmStartCache::new(), &mut streamed);
        let kinds: Vec<_> = streamed.events.iter().map(Event::kind).collect();
        assert!(kinds.len() > 3, "{}: {kinds:?}", inst.id);
        assert_eq!(Some(kinds), replayed.next(), "{}", inst.id);

        // Span signals reach the caller's observer too.
        let mut spans = SpanProfiler::new();
        solve_instance(inst, &options(), &WarmStartCache::new(), &mut spans);
        assert!(
            spans.spans().iter().any(|s| s.kind == SpanKind::Solve),
            "{}",
            inst.id
        );
    }
}

#[test]
fn per_instance_budget_stops_do_not_abort_the_batch() {
    let mut engine = BatchEngine::new(BatchOptions {
        epsilon: 1e-300, // unattainable: every instance runs into its cap
        max_iterations: 3,
        ..BatchOptions::default()
    });
    let batch = vec![
        diagonal_instance("a", None, 1),
        diagonal_instance("b", None, 2),
    ];
    let report = engine.solve_batch(&batch, &mut NullObserver);
    assert_eq!(report.items.len(), 2);
    assert_eq!(report.converged, 0);
    for item in &report.items {
        let sol = item.outcome.as_ref().expect("capped, not errored");
        assert_eq!(sol.stop(), StopReason::IterationCap);
    }
    assert_eq!(
        engine.cached_families(),
        0,
        "partial solutions are never cached"
    );
}

#[test]
fn a_shared_cancel_token_stops_the_whole_batch() {
    let cancel = CancelToken::new();
    cancel.cancel(); // pre-cancelled: every instance must stop immediately
    let mut engine = BatchEngine::new(BatchOptions {
        epsilon: 1e-10,
        max_iterations: 20_000,
        supervisor: SupervisorOptions {
            cancel: Some(cancel),
            budget: SolveBudget::default(),
            ..SupervisorOptions::default()
        },
        ..BatchOptions::default()
    });
    let batch = vec![
        diagonal_instance("a", None, 1),
        diagonal_instance("b", None, 2),
        diagonal_instance("c", None, 3),
    ];
    let report = engine.solve_batch(&batch, &mut NullObserver);
    for item in &report.items {
        let sol = item.outcome.as_ref().expect("cancelled, not errored");
        assert_eq!(sol.stop(), StopReason::Cancelled, "{}", item.id);
    }
}

#[test]
fn event_stream_wraps_instances_with_batch_lifecycle() {
    let mut engine = BatchEngine::new(options());
    let batch = vec![
        diagonal_instance("a", Some("fam"), 1),
        diagonal_instance("b", None, 2),
    ];
    let mut obs = VecObserver::new();
    engine.solve_batch(&batch, &mut obs);
    let events = &obs.events;
    assert!(
        matches!(&events[0], Event::BatchStart { instances: 2, parallelism } if parallelism == "serial")
    );
    assert!(matches!(events.last(), Some(Event::BatchEnd { .. })));
    let starts = events
        .iter()
        .filter(|e| matches!(e, Event::SolveStart { .. }))
        .count();
    assert_eq!(starts, 2, "each instance replays its full solve stream");
    let tags: Vec<(usize, String, &'static str)> = events
        .iter()
        .filter_map(|e| match e {
            Event::BatchInstance {
                index, id, cache, ..
            } => Some((*index, id.clone(), *cache)),
            _ => None,
        })
        .collect();
    assert_eq!(
        tags,
        vec![(0, "a".to_string(), "miss"), (1, "b".to_string(), "bypass")]
    );
    // BatchInstance directly follows its instance's SolveEnd.
    let solve_end_positions: Vec<usize> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| matches!(e, Event::SolveEnd { .. }).then_some(i))
        .collect();
    for pos in solve_end_positions {
        assert!(matches!(events[pos + 1], Event::BatchInstance { .. }));
    }
}
