//! Warm-start correctness properties.
//!
//! Seeding a solve with cached multipliers is an *accelerator*, never an
//! *approximator*: a warm solve must land on a solution certifying against
//! the same KKT tolerance as the cold one, and on an identical repeated
//! instance it must consume no more kernel work. Instances come from the
//! shared generator's heterogeneous family — unit-weight fixtures converge
//! in a couple of sweeps, which would make both properties vacuous.

#[path = "../../sea-core/tests/common/generator.rs"]
mod generator;

use proptest::prelude::*;
use sea_batch::{
    solve_instance, BatchEngine, BatchInstance, BatchOptions, BatchProblem, BatchSolution,
    CacheEntry, CacheUpdate, WarmStart, WarmStartCache,
};
use sea_core::{verify_solution, Event, KernelCounters, NullObserver, VecObserver};

/// KKT certification tolerance: one decade looser than the solve tolerance
/// (the convergence criterion measures residuals, the certificate measures
/// scaled stationarity; they agree only up to conditioning).
const SOLVE_EPS: f64 = 1e-10;
const KKT_TOL: f64 = 1e-6;

fn instance(seed: u64, m: usize, n: usize) -> BatchInstance {
    BatchInstance {
        id: format!("prop-{seed}"),
        family: Some(format!("fam-{seed}")),
        problem: BatchProblem::Diagonal(generator::heterogeneous(seed, m, n)),
    }
}

fn bounded_instance(seed: u64, m: usize, n: usize) -> BatchInstance {
    BatchInstance {
        id: format!("bounded-{seed}"),
        family: Some(format!("bounded-fam-{seed}")),
        problem: BatchProblem::Bounded(generator::heterogeneous_bounded(seed, m, n)),
    }
}

fn options() -> BatchOptions {
    BatchOptions {
        epsilon: SOLVE_EPS,
        max_iterations: 50_000,
        ..BatchOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn warm_start_reaches_the_same_kkt_certificate(
        seed in 0u64..1 << 48,
        m in 2usize..6,
        n in 2usize..6,
    ) {
        let inst = instance(seed, m, n);
        let BatchProblem::Diagonal(problem) = &inst.problem else {
            unreachable!("diagonal by construction")
        };
        let mut engine = BatchEngine::new(options());
        let batch = std::slice::from_ref(&inst);

        let cold = engine.solve_batch(batch, &mut NullObserver);
        prop_assert!(cold.all_converged(), "cold solve must converge");
        let warm = engine.solve_batch(batch, &mut NullObserver);
        prop_assert!(warm.all_converged(), "warm solve must converge");
        prop_assert_eq!(warm.items[0].warm_start, WarmStart::Hit);

        for (tag, report) in [("cold", &cold), ("warm", &warm)] {
            let Some(Ok(BatchSolution::Diagonal(sol))) = report.items.first().map(|i| &i.outcome)
            else {
                return Err("diagonal outcome missing".to_string());
            };
            let kkt = verify_solution(problem, &sol.solution);
            prop_assert!(
                kkt.is_optimal(KKT_TOL),
                "{tag} solve fails the KKT certificate: {kkt:?}"
            );
        }
    }

    #[test]
    fn repeated_identical_instance_never_costs_more_kernel_work(
        seed in 0u64..1 << 48,
        m in 2usize..6,
        n in 2usize..6,
    ) {
        let inst = instance(seed, m, n);
        let mut engine = BatchEngine::new(options());
        let batch = std::slice::from_ref(&inst);
        let cold = engine.solve_batch(batch, &mut NullObserver);
        prop_assert!(cold.all_converged());
        let warm = engine.solve_batch(batch, &mut NullObserver);
        prop_assert!(warm.all_converged());
        prop_assert_eq!(warm.items[0].warm_start, WarmStart::Hit);
        prop_assert!(
            warm.kernel_work <= cold.kernel_work,
            "warm start did more work than cold: {} > {}",
            warm.kernel_work,
            cold.kernel_work
        );
        prop_assert_eq!(
            warm.work_saved,
            cold.kernel_work - warm.kernel_work,
            "work_saved must equal the measured difference"
        );
    }
}

/// A bounded family's warm epoch starts from cached multipliers, and its
/// boxed kernel from each subproblem's previous multiplier: it must spend
/// less kernel work than the cold epoch, and report the saving.
#[test]
fn bounded_warm_epoch_saves_kernel_work() {
    for seed in 0..8 {
        let inst = bounded_instance(seed, 30, 25);
        let mut engine = BatchEngine::new(options());
        let batch = std::slice::from_ref(&inst);
        let cold = engine.solve_batch(batch, &mut NullObserver);
        assert!(
            cold.all_converged(),
            "seed {seed}: cold solve must converge"
        );
        let warm = engine.solve_batch(batch, &mut NullObserver);
        assert!(
            warm.all_converged(),
            "seed {seed}: warm solve must converge"
        );
        assert_eq!(warm.items[0].warm_start, WarmStart::Hit);
        assert!(
            warm.kernel_work < cold.kernel_work,
            "seed {seed}: warm {} vs cold {}",
            warm.kernel_work,
            cold.kernel_work
        );
        assert!(warm.work_saved > 0, "seed {seed}: no work saved");
    }
}

/// Kernel counters of every solve in an observed event stream.
fn kernel_counters(events: &[Event]) -> KernelCounters {
    events
        .iter()
        .filter_map(|e| match e {
            Event::KernelCounters { counters } => Some(*counters),
            _ => None,
        })
        .fold(KernelCounters::default(), KernelCounters::merged)
}

/// Most rounds a warm repeat may spend per subproblem. Every subproblem
/// of these instances hits its hint (exactly 1.0 measured). A warm solve
/// that seeds μ alone runs its first row pass cold, a full quickselect
/// per row: 225 rounds for the 70 subproblems of the first instance, 3.2
/// a subproblem.
const WARM_ROUNDS_PER_SUBPROBLEM: f64 = 1.1;

/// A warm solve of a repeated instance starts from the cached λ as well as
/// μ, so its first row pass is warm too: about one selection round per
/// subproblem, where a cold first row pass runs a full quickselect per row.
#[test]
fn warm_repeat_costs_about_one_selection_round_per_subproblem() {
    for (seed, m, n) in [(0, 40, 30), (1, 50, 40), (3, 60, 20)] {
        let inst = instance(seed, m, n);
        let mut engine = BatchEngine::new(options());
        let batch = std::slice::from_ref(&inst);
        assert!(engine.solve_batch(batch, &mut NullObserver).all_converged());
        let mut obs = VecObserver::default();
        let warm = engine.solve_batch(batch, &mut obs);
        assert!(warm.all_converged(), "seed {seed}");
        assert_eq!(warm.items[0].warm_start, WarmStart::Hit);
        let c = kernel_counters(&obs.events);
        let rounds = c.quickselect_pivots as f64 / c.subproblems as f64;
        assert!(
            rounds <= WARM_ROUNDS_PER_SUBPROBLEM,
            "seed {seed}: {} rounds for {} subproblems",
            c.quickselect_pivots,
            c.subproblems
        );
    }
}

/// A cached λ only hints where the first row pass looks: a NaN λ misses
/// every hint, and the solve lands where a μ-only hit does.
#[test]
fn nan_lambda_seed_converges_like_a_lambda_free_hit() {
    let inst = instance(11, 40, 30);
    let opts = options();
    let (cold, update) = solve_instance(&inst, &opts, &WarmStartCache::new(), &mut NullObserver);
    assert!(cold.outcome.is_ok_and(|s| s.converged()));
    let Some(CacheUpdate { family, entry }) = update else {
        panic!("a converged solve updates the cache");
    };
    let seeded = |lambda: Vec<f64>| {
        let mut cache = WarmStartCache::new();
        cache.apply([CacheUpdate {
            family: family.clone(),
            entry: CacheEntry {
                lambda,
                ..entry.clone()
            },
        }]);
        let (report, _) = solve_instance(&inst, &opts, &cache, &mut NullObserver);
        assert_eq!(report.warm_start, WarmStart::Hit);
        match report.outcome {
            Ok(BatchSolution::Diagonal(s)) => s,
            other => panic!("diagonal outcome expected: {other:?}"),
        }
    };
    let poisoned = seeded(vec![f64::NAN; entry.lambda.len()]);
    let free = seeded(Vec::new());
    assert!(poisoned.solution.stats.converged);
    // The same certificate to the last bit: a missed hint falls through
    // to the selection an unhinted pass runs.
    assert_eq!(
        format!("{:?}", poisoned.certificate),
        format!("{:?}", free.certificate)
    );
    assert_eq!(poisoned.solution.x, free.solution.x);
}
