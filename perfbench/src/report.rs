//! The metric vocabulary and the result lines a run prints.
//!
//! Every run prints two lines on standard output: a metadata line
//! (`{"meta":{…}}`) and, last, the result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! An untraced run carries every [`END_TO_END`] metric, a traced run every
//! [`PER_LAYER`] metric.

use std::collections::BTreeMap;

use sea_observe::json::JsonValue;

use crate::{system, Config};

/// End-to-end metrics `(name, unit)`: what a user of the solver sees.
/// Every workload reports every one; `BENCHMARK.json` and
/// `perfbench/README.md` define each per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("iterations", "count"),
    ("iter_ms", "ms"),
    ("epoch_s", "s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, named `layer.quantity`. A traced run
/// prints all of them; a layer its workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sea-core::knapsack — the kernel.
    ("kernel.subproblems", "count"),
    ("kernel.breakpoints", "count"),
    ("kernel.pivots", "count"),
    ("kernel.clamps", "count"),
    ("kernel.ns_per_subproblem", "ns"),
    ("kernel.bytes_per_iter", "B-computed"),
    // sea-core::equilibrate — passes and shards.
    ("pass.row_s", "s"),
    ("pass.col_s", "s"),
    ("shard.count", "count"),
    ("shard.self_s", "s"),
    ("pass.imbalance", "ratio"),
    ("pass.parallel_eff", "ratio"),
    // sea-core::solver — epochs and convergence checks.
    ("epoch.self_s", "s"),
    ("check.self_s", "s"),
    ("check.count", "count"),
    // sea-core::verify and dual — the certificate.
    ("verify.s", "s"),
    // sea-core::problem and sea-linalg::csr — construction.
    ("setup.problem_s", "s"),
    // sea-core::interval — the bounded driver.
    ("instance.bounded_s", "s"),
    ("instance.bounded_iters", "count"),
    // sea-core::general — the projection loop.
    ("projection.self_s", "s"),
    ("instance.general_s", "s"),
    ("general.outer_iters", "count"),
    // sea-batch — engine and warm-start cache.
    ("batch.self_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.work_saved_ratio", "ratio"),
    // sea-cli::manifest — the wire format.
    ("manifest.parse_us", "us"),
    ("manifest.serialize_us", "us"),
    // sea-serve — http, queue, overload, server.
    ("queue.wait_p50_ms", "ms"),
    ("queue.wait_p99_ms", "ms"),
    ("serve.solve_mean_ms", "ms"),
    ("serve.shed", "count"),
    ("cache.evictions", "count"),
    ("serve.hit_ratio", "ratio"),
    ("client.lag_ms", "ms"),
    // sea-observe — the tracing itself.
    ("trace.overhead_pct", "%"),
    ("trace.reconcile_pct", "%"),
];

/// Operations attempted and failed. A failure is a solve that did not
/// converge, a certificate that did not pass, or a non-200 answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `describe` is called only for failures, and
    /// the first few are reported on standard error.
    pub fn record(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: operation failed: {}", describe());
            }
        }
    }

    /// Share of attempted operations that succeeded (1 when none ran).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Everything one run produces.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Run-level checks that failed (trace reconciliation, dropped spans,
    /// unmeasured metrics); any entry makes the run incorrect.
    pub check_failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    meta: Vec<(String, JsonValue)>,
}

impl Outcome {
    /// An empty outcome carrying the run's common metadata.
    pub fn new(cfg: &Config) -> Outcome {
        let (kernel, simd, precision) = system::resolved_defaults();
        let mut out = Outcome {
            tally: Tally::default(),
            check_failures: Vec::new(),
            metrics: BTreeMap::new(),
            meta: Vec::new(),
        };
        out.meta_str("workload", cfg.workload.name());
        out.meta_num("seed", cfg.seed as f64);
        out.meta_num("seconds", cfg.seconds);
        out.meta_str("mode", if cfg.trace { "traced" } else { "untraced" });
        out.meta_num("nproc", system::nproc() as f64);
        out.meta_num("threads", system::threads() as f64);
        out.meta_str("kernel", &kernel);
        out.meta_str("simd", &simd);
        out.meta_str("precision", &precision);
        out.meta_str("commit", &system::commit());
        out
    }

    /// Set a metric (it must be named in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// The value set for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Record a failed run-level check (reported on standard error).
    pub fn fail_check(&mut self, message: String) {
        eprintln!("perfbench: check failed: {message}");
        self.check_failures.push(message);
    }

    /// Add a numeric metadata field.
    pub fn meta_num(&mut self, key: &str, value: f64) {
        self.meta
            .push((key.to_string(), sea_observe::json::f64_to_json(value)));
    }

    /// Add a string metadata field.
    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta
            .push((key.to_string(), JsonValue::String(value.to_string())));
    }

    /// Whether every operation succeeded and every run-level check held.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.check_failures.is_empty()
    }

    /// The metric set this run reports.
    pub fn reported(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Common end-of-run bookkeeping: success rate, peak memory, and a
    /// check that every reported metric was measured and is finite.
    pub(crate) fn finish(&mut self, cfg: &Config) {
        if self.tally.attempted == 0 {
            self.tally.record(false, || "no operation ran".to_string());
        }
        if !cfg.trace {
            self.set("success_rate", self.tally.success_rate());
            self.set("peak_rss_mb", system::peak_rss_mb());
        }
        for (name, _) in Outcome::reported(cfg.trace) {
            match self.metrics.get(name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.fail_check(format!("metric {name} is not finite ({v})")),
                // Per-layer metrics of layers the workload does not
                // exercise read 0; an end-to-end metric must be measured.
                None if cfg.trace => {
                    self.metrics.insert(name, 0.0);
                }
                None => self.fail_check(format!("metric {name} was not measured")),
            }
        }
    }

    /// The metadata line.
    pub fn meta_line(&self) -> String {
        JsonValue::Object(vec![(
            "meta".to_string(),
            JsonValue::Object(self.meta.clone()),
        )])
        .render()
    }

    /// The result line (printed last).
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = Outcome::reported(trace)
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                (
                    name.to_string(),
                    JsonValue::Object(vec![
                        ("value".to_string(), JsonValue::Number(v)),
                        ("unit".to_string(), JsonValue::String(unit.to_string())),
                    ]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".to_string(), JsonValue::Bool(self.correct())),
            (
                "attempted".to_string(),
                JsonValue::Number(self.tally.attempted as f64),
            ),
            (
                "failed".to_string(),
                JsonValue::Number(self.tally.failed as f64),
            ),
            ("metrics".to_string(), JsonValue::Object(metrics)),
        ])
        .render()
    }
}
