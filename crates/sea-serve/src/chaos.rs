//! Deterministic service-level fault injection.
//!
//! PR 3's [`sea_core::FaultPlan`] scripts faults *inside* one solve
//! (NaN iterates, equilibration-worker panics) at exact iteration
//! numbers. This module lifts the same idiom one layer up: a
//! [`ChaosPlan`] scripts faults against the *service* at exact solve
//! sequence numbers — the order in which solver workers dequeue jobs —
//! so a soak run with the same plan exercises the same failure paths
//! every time. Plans are empty in production; the `--chaos` flag and
//! the chaos tests in `tests/serve.rs` are the only writers.
//!
//! The spec grammar is `KIND@SEQ` (or `KIND@FROM-TO` for a range of
//! consecutive sequence numbers), comma-separated:
//!
//! ```text
//! crash@3,panic@6-8,nan@12,cachecorrupt@15
//! ```

use std::fmt;

/// One scripted service-level fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFault {
    /// Panic *outside* the per-request containment, killing the worker
    /// thread mid-job: the in-flight request answers a typed 500 and
    /// the supervisor must respawn the worker.
    Crash,
    /// Panic *inside* the per-request containment: the request answers
    /// a typed 500, the worker survives, and the job's family takes a
    /// quarantine strike.
    Panic,
    /// Inject a NaN multiplier at iteration 1 of the solve (the PR 3
    /// `NanLambda` fault): the breakdown watchdog stops the solve with
    /// a typed result and the family takes a quarantine strike.
    Nan,
    /// Overwrite the family's cached warm-start `λ` and `μ` with NaN
    /// before the solve reads them: the watchdog must contain the
    /// poisoned seed and the next solve of the family must recover.
    CacheCorrupt,
}

impl ServiceFault {
    /// Stable spec/wire name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceFault::Crash => "crash",
            ServiceFault::Panic => "panic",
            ServiceFault::Nan => "nan",
            ServiceFault::CacheCorrupt => "cachecorrupt",
        }
    }

    /// Inverse of [`ServiceFault::name`].
    pub fn parse(s: &str) -> Option<ServiceFault> {
        match s {
            "crash" => Some(ServiceFault::Crash),
            "panic" => Some(ServiceFault::Panic),
            "nan" => Some(ServiceFault::Nan),
            "cachecorrupt" => Some(ServiceFault::CacheCorrupt),
            _ => None,
        }
    }
}

/// A deterministic service-fault schedule: each entry fires when a
/// worker dequeues the job with that 1-based solve sequence number.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    faults: Vec<(u64, ServiceFault)>,
}

impl ChaosPlan {
    /// An empty plan (injects nothing — the production state).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `fault` at solve sequence `seq` (builder style).
    #[must_use]
    pub fn at(mut self, seq: u64, fault: ServiceFault) -> Self {
        self.faults.push((seq, fault));
        self
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Faults scheduled at solve sequence `seq`.
    pub fn at_seq(&self, seq: u64) -> impl Iterator<Item = ServiceFault> + '_ {
        self.faults
            .iter()
            .filter(move |(s, _)| *s == seq)
            .map(|(_, f)| *f)
    }

    /// Count of scheduled faults of one kind (the soak's expected-count
    /// oracle).
    pub fn count(&self, kind: ServiceFault) -> usize {
        self.faults.iter().filter(|(_, f)| *f == kind).count()
    }

    /// Largest scheduled sequence number (0 when empty): a soak must
    /// push at least this many solves for the whole script to fire.
    pub fn max_seq(&self) -> u64 {
        self.faults.iter().map(|(s, _)| *s).max().unwrap_or(0)
    }

    /// Parse a spec like `crash@3,panic@6-8,nan@12`. Whitespace around
    /// entries is ignored; an empty spec is an empty plan.
    pub fn parse(spec: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (kind, at) = entry
                .split_once('@')
                .ok_or_else(|| format!("chaos entry {entry:?} is not KIND@SEQ"))?;
            let fault = ServiceFault::parse(kind.trim()).ok_or_else(|| {
                format!("unknown chaos fault {kind:?} (crash|panic|nan|cachecorrupt)")
            })?;
            let at = at.trim();
            let (from, to) = match at.split_once('-') {
                Some((a, b)) => (a.trim(), b.trim()),
                None => (at, at),
            };
            let from: u64 = from
                .parse()
                .ok()
                .filter(|&s| s >= 1)
                .ok_or_else(|| format!("chaos entry {entry:?}: bad sequence {from:?}"))?;
            let to: u64 = to
                .parse()
                .ok()
                .filter(|&s| s >= from)
                .ok_or_else(|| format!("chaos entry {entry:?}: bad range end {to:?}"))?;
            for seq in from..=to {
                plan = plan.at(seq, fault);
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for ChaosPlan {
    /// Render back to the spec grammar (one entry per fault, no range
    /// compression) — `parse(render)` round-trips.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (seq, fault)) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}@{}", fault.name(), seq)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_ranges() {
        let plan = ChaosPlan::parse("crash@3, panic@6-8 ,nan@12,cachecorrupt@15").unwrap();
        assert_eq!(plan.count(ServiceFault::Crash), 1);
        assert_eq!(plan.count(ServiceFault::Panic), 3);
        assert_eq!(plan.count(ServiceFault::Nan), 1);
        assert_eq!(plan.count(ServiceFault::CacheCorrupt), 1);
        assert_eq!(plan.max_seq(), 15);
        assert_eq!(
            plan.at_seq(7).collect::<Vec<_>>(),
            vec![ServiceFault::Panic]
        );
        assert_eq!(plan.at_seq(4).count(), 0);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(ChaosPlan::parse("crash").is_err());
        assert!(ChaosPlan::parse("meteor@3").is_err());
        assert!(ChaosPlan::parse("crash@0").is_err());
        assert!(ChaosPlan::parse("crash@x").is_err());
        assert!(ChaosPlan::parse("panic@8-6").is_err());
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = ChaosPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.max_seq(), 0);
    }

    #[test]
    fn render_round_trips() {
        let plan = ChaosPlan::parse("crash@3,panic@6-8,nan@12").unwrap();
        let rendered = plan.to_string();
        assert_eq!(ChaosPlan::parse(&rendered).unwrap(), plan);
    }

    #[test]
    fn same_plan_fires_identically() {
        // Determinism is the whole point: two walks over the same plan
        // observe the same faults at the same sequence numbers.
        let plan = ChaosPlan::parse("crash@2,panic@5,nan@5").unwrap();
        let walk = |p: &ChaosPlan| {
            (1..=6)
                .map(|s| p.at_seq(s).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(walk(&plan), walk(&plan.clone()));
        assert_eq!(walk(&plan)[4], vec![ServiceFault::Panic, ServiceFault::Nan]);
    }
}
