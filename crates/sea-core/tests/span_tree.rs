//! Property-based well-formedness of recorded span forests.
//!
//! Any solve run under a [`SpanProfiler`] must yield a structurally sound
//! span tree, regardless of kernel, parallel mode, or storage backend:
//!
//! * unique span ids, every non-root parent id present in the forest;
//! * monotone timestamps (`start <= end`) and proper nesting — a child's
//!   interval is contained in its parent's interval, including leaves
//!   timed off-thread on workers and replayed serially;
//! * kind discipline: epochs hang off the solve root, passes and checks
//!   off epochs, shard leaves off passes;
//! * counter conservation: a parent's subtree counters dominate the sum
//!   of its children's subtree counters (the profiler folds child work
//!   into parents, so the inequality must hold exactly).
//!
//! The file also holds the span-profiling overhead gate, a timing test
//! that runs only in release builds.

#[path = "common/generator.rs"]
mod generator;

use proptest::prelude::*;
use sea_core::{
    solve_diagonal_supervised, DiagonalProblem, KernelCounters, KernelKind, NullObserver, Observer,
    Parallelism, SeaOptions, SpanKind, SpanProfiler, SpanRecord, StopReason, SupervisorOptions,
};
use sea_linalg::CsrMatrix;
use sea_observe::{chrome_trace, folded_stacks, parse_chrome_trace};
use std::time::Instant;

fn kernel_of(k: u8) -> KernelKind {
    if k == 0 {
        KernelKind::SortScan
    } else {
        KernelKind::Quickselect
    }
}

fn par_of(p: u8) -> Parallelism {
    if p == 0 {
        Parallelism::Serial
    } else {
        Parallelism::RayonThreads(2)
    }
}

/// Sum two counter sets field-wise (KernelCounters::merged is additive).
fn merge(a: KernelCounters, b: &KernelCounters) -> KernelCounters {
    a.merged(*b)
}

fn check_well_formed(spans: &[SpanRecord], tag: &str) -> Result<(), String> {
    prop_assert!(!spans.is_empty(), "{tag}: no spans recorded");
    let mut ids = std::collections::HashSet::with_capacity(spans.len());
    for s in spans {
        prop_assert!(ids.insert(s.id), "{tag}: duplicate span id {}", s.id);
        prop_assert!(
            s.start_ns <= s.end_ns,
            "{tag}: span {} ({:?}) runs backwards: {}..{}",
            s.id,
            s.kind,
            s.start_ns,
            s.end_ns
        );
    }
    let by_id: std::collections::HashMap<u32, &SpanRecord> =
        spans.iter().map(|s| (s.id, s)).collect();

    let mut roots = 0usize;
    let mut child_sums: std::collections::HashMap<u32, KernelCounters> =
        std::collections::HashMap::new();
    for s in spans {
        if s.parent == SpanRecord::NO_PARENT {
            roots += 1;
            prop_assert_eq!(
                s.kind,
                SpanKind::Solve,
                "{}: root span must be the solve",
                tag
            );
            continue;
        }
        let p = by_id.get(&s.parent);
        prop_assert!(
            p.is_some(),
            "{tag}: span {} ({:?}) has unknown parent {}",
            s.id,
            s.kind,
            s.parent
        );
        let p = p.expect("checked above");
        prop_assert!(
            p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
            "{tag}: span {} ({:?}) [{}, {}] escapes parent {} ({:?}) [{}, {}]",
            s.id,
            s.kind,
            s.start_ns,
            s.end_ns,
            p.id,
            p.kind,
            p.start_ns,
            p.end_ns
        );
        let parent_ok = match s.kind {
            SpanKind::Epoch => p.kind == SpanKind::Solve,
            SpanKind::RowPass | SpanKind::ColPass | SpanKind::Check | SpanKind::Projection => {
                p.kind == SpanKind::Epoch
            }
            SpanKind::Shard => matches!(p.kind, SpanKind::RowPass | SpanKind::ColPass),
            // Batch framing never appears in a plain diagonal solve; the
            // solve root was handled before the parent lookup.
            SpanKind::Solve | SpanKind::Batch | SpanKind::Instance => false,
        };
        prop_assert!(
            parent_ok,
            "{tag}: {:?} span nested under {:?}",
            s.kind,
            p.kind
        );
        let entry = child_sums.entry(s.parent).or_default();
        *entry = merge(*entry, &s.counters);
    }
    prop_assert_eq!(roots, 1, "{}: expected exactly one solve root", tag);

    // Counter conservation: subtree totals dominate the children's sum.
    for (parent_id, sum) in &child_sums {
        let p = by_id[parent_id];
        prop_assert!(
            p.counters.dominates(*sum),
            "{tag}: parent {} ({:?}) counters {:?} dominated by children sum {:?}",
            p.id,
            p.kind,
            p.counters,
            sum
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn span_forests_are_well_formed(
        seed in 0u64..1 << 48,
        m in 2usize..6,
        n in 2usize..6,
        k in 0u8..2,
        par in 0u8..2,
        sparse_sel in 0u8..2,
    ) {
        let sparse = sparse_sel == 1;
        let p = match generator::try_fixed_diagonal(seed, m, n, 3, 1.0) {
            Ok(p) => p,
            Err(_) => return Ok(()), // typed construction error: no tree to check
        };
        let mut o = SeaOptions::with_epsilon(1e-8);
        o.epsilon = -1.0; // unattainable: force a multi-epoch tree
        o.max_iterations = 12;
        o.kernel = kernel_of(k);
        o.parallelism = par_of(par);
        let tag = format!("seed={seed} {m}x{n} k={k} par={par} sparse={sparse}");

        let mut profiler = SpanProfiler::new();
        let solved = if sparse {
            let sp = DiagonalProblem::<CsrMatrix>::from_dense_problem(&p)
                .expect("CSR lift of a valid dense problem");
            solve_diagonal_supervised(&sp, &o, &SupervisorOptions::default(), &mut profiler).is_ok()
        } else {
            solve_diagonal_supervised(&p, &o, &SupervisorOptions::default(), &mut profiler).is_ok()
        };
        if !solved {
            return Ok(()); // typed numerical breakdown: tree may be truncated
        }
        prop_assert_eq!(profiler.dropped(), 0, "{}: tiny solve overflowed the ring", &tag);
        check_well_formed(&profiler.spans(), &tag)?;
    }
}

/// Wall seconds of one supervised solve that must converge.
fn timed_solve<O: Observer + Send>(
    p: &DiagonalProblem<CsrMatrix>,
    opts: &SeaOptions,
    obs: &mut O,
) -> f64 {
    let t = Instant::now();
    let sol = solve_diagonal_supervised(p, opts, &SupervisorOptions::default(), obs)
        .expect("overhead-gate solve");
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(sol.stop, StopReason::Converged, "overhead-gate solve");
    secs
}

/// Span-profiling overhead gate. Supervised Rayon solves of a
/// 2 000 × 2 000 banded CSR problem (half-bandwidth 48, ε 1e-5, 60–90 ms
/// each in release) run in interleaved pairs, one under [`NullObserver`]
/// and one under a [`SpanProfiler`] sized to record every span, each
/// pair alternating which goes first. The gate is the median over 201
/// pairs (35–45 s) of the spanned/null time ratio: a preempted solve
/// skews one pair, not the estimate. It also requires the root span to
/// cover the measured wall time to within 5% (median over the spanned
/// runs) and the chrome-trace and folded-stack exports to round-trip.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn span_profiling_overhead_stays_within_budget() {
    const PAIRS: usize = 201;
    const MAX_OVERHEAD_PCT: f64 = 5.0;
    const MAX_RECONCILE_PCT: f64 = 5.0;
    let p = generator::sparse_banded(1990, 2_000, 2_000, 48);
    let mut opts = SeaOptions::with_epsilon(1e-5);
    opts.parallelism = Parallelism::Rayon;
    let mut profiler = SpanProfiler::with_capacity(1 << 17, 1 << 13);

    // One untimed solve of each kind warms the pool and the caches.
    timed_solve(&p, &opts, &mut NullObserver);
    timed_solve(&p, &opts, &mut profiler);

    let mut ratios = Vec::with_capacity(PAIRS);
    let mut reconcile = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let mut spanned = || {
            profiler.reset();
            timed_solve(&p, &opts, &mut profiler)
        };
        let (null_s, span_s) = if pair % 2 == 0 {
            let null_s = timed_solve(&p, &opts, &mut NullObserver);
            (null_s, spanned())
        } else {
            let span_s = spanned();
            (timed_solve(&p, &opts, &mut NullObserver), span_s)
        };
        ratios.push(span_s / null_s);
        assert_eq!(profiler.dropped(), 0, "ring sized to record every span");
        let root = profiler
            .spans()
            .into_iter()
            .find(|s| s.parent == SpanRecord::NO_PARENT)
            .expect("a solve root span");
        let covered_s = (root.end_ns - root.start_ns) as f64 * 1e-9;
        reconcile.push(100.0 * (span_s - covered_s).abs() / span_s);
    }
    ratios.sort_by(f64::total_cmp);
    reconcile.sort_by(f64::total_cmp);
    let pct = |ratio: f64| 100.0 * (ratio - 1.0);
    let overhead_pct = pct(ratios[PAIRS / 2]);
    let reconcile_pct = reconcile[PAIRS / 2];
    eprintln!(
        "span overhead {overhead_pct:+.2}% (median of {PAIRS} pairs, quartiles \
         {:+.2}%..{:+.2}%), reconcile {reconcile_pct:.2}%",
        pct(ratios[PAIRS / 4]),
        pct(ratios[3 * PAIRS / 4]),
    );
    assert!(
        reconcile_pct <= MAX_RECONCILE_PCT,
        "root span covers the solve to {reconcile_pct:.2}% (> {MAX_RECONCILE_PCT}%)"
    );
    assert!(
        overhead_pct <= MAX_OVERHEAD_PCT,
        "span profiling costs {overhead_pct:+.2}% (> {MAX_OVERHEAD_PCT}% budget)"
    );

    // Both exports of the last spanned run round-trip.
    let spans = profiler.spans();
    let parsed = parse_chrome_trace(&chrome_trace(&spans, profiler.dropped()))
        .expect("chrome-trace export parses back");
    assert_eq!(
        parsed.len(),
        spans.len(),
        "chrome-trace round trip lost spans"
    );
    let folded = folded_stacks(&spans);
    assert!(
        folded.lines().any(|l| l.starts_with("solve")),
        "folded stacks carry no solve-rooted line:\n{folded}"
    );
}
