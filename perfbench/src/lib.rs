//! The repository benchmark: two seeded SEA workloads, each driven
//! through the public entry points of `sea-core`, `sea-batch` and
//! `sea-serve` with default solver options (only the tolerance and the
//! thread count are set).
//!
//! * [`sparse_banded`] — one supervised fixed-totals solve of a banded CSR
//!   problem to a passing KKT certificate, on up to two threads.
//! * [`batch_classes`] — a warm-start [`sea_batch::BatchEngine`] over
//!   epochs of drifting priors: a dense fixed-totals instance, a dense
//!   box-bounded instance and a small general instance per epoch. Its
//!   traced run also drives the [`serve_probe`]: open-loop HTTP traffic
//!   against an in-process [`sea_serve::Server`] for the wire-format and
//!   service layers.
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics of
//! [`report::END_TO_END`]; a traced run reports the per-layer metrics of
//! [`report::PER_LAYER`], taken from the span tree a
//! [`sea_core::SpanProfiler`] records, from calls into public functions
//! timed from outside, and from `/metrics` deltas of the probed server.

pub mod batch_classes;
pub mod http;
pub mod layers;
pub mod report;
pub mod serve_probe;
pub mod sparse_banded;
pub mod stats;
pub mod system;

pub use report::{Outcome, Tally, END_TO_END, PER_LAYER};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A banded CSR solve to a certificate (many short-row iterations).
    SparseBanded,
    /// Warm-start batch epochs over three problem classes (long rows).
    BatchClasses,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::SparseBanded, Workload::BatchClasses];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseBanded => "sparse_banded",
            Workload::BatchClasses => "batch_classes",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes: the benchmark's own, or a shrunken copy for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Tiny sizes that finish in about a second (tests only).
    Small,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measurement loop runs, in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
}

/// Run one workload and return its outcome. Failed operations are
/// counted, never propagated: a run always completes.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new(cfg);
    match cfg.workload {
        Workload::SparseBanded => sparse_banded::run(cfg, &mut out),
        Workload::BatchClasses => batch_classes::run(cfg, &mut out),
    }
    out.finish(cfg);
    out
}
