//! Reusable per-instance workspaces.
//!
//! A long-lived [`BatchEngine`](crate::BatchEngine) solves batch after
//! batch; the arena keeps one `Slot` per instance position alive across
//! `solve_batch` calls so the engine's own bookkeeping — buffered event
//! streams, warm-start seed vectors, outcome scaffolding — reaches a
//! steady state and stops allocating. A slot is `reset` (lengths zeroed,
//! capacity kept) rather than dropped between batches.

use crate::cache::CacheUpdate;
use crate::engine::{BatchSolution, WarmStart};
use sea_core::{Event, KernelCounters, SeaError};

/// Per-instance workspace and result carrier for one batch position.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    /// Buffered per-instance event stream (replayed in submission order
    /// after the batch so parallel outer scheduling cannot reorder it).
    pub events: Vec<Event>,
    /// Reusable buffer the warm-start `μ` seed is copied into; drivers
    /// that need an owned seed borrow it via `mem::take` and hand it back.
    pub mu_seed: Vec<f64>,
    /// The same for the warm-start `λ` seed (empty when the hit has none).
    pub lambda_seed: Vec<f64>,
    /// Warm-start outcome for the instance.
    pub warm: WarmStart,
    /// Kernel work the instance's solve cost (0 when it failed).
    pub kernel_work: u64,
    /// Kernel work saved vs the family's cold baseline (0 off-hit).
    pub work_saved: u64,
    /// The solution's kernel counters (for Instance spans).
    pub counters: KernelCounters,
    /// Solve start offset from the batch epoch, nanoseconds.
    pub start_ns: u64,
    /// Solve end offset from the batch epoch, nanoseconds.
    pub end_ns: u64,
    /// The solve outcome; `None` only before the instance ran.
    pub outcome: Option<Result<BatchSolution, SeaError>>,
    /// Deferred cache write produced by this instance, if any.
    pub update: Option<CacheUpdate>,
}

impl Slot {
    /// Clear for reuse, keeping buffer capacity.
    fn reset(&mut self) {
        self.events.clear();
        self.mu_seed.clear();
        self.lambda_seed.clear();
        self.warm = WarmStart::Bypass;
        self.kernel_work = 0;
        self.work_saved = 0;
        self.counters = KernelCounters::default();
        self.start_ns = 0;
        self.end_ns = 0;
        self.outcome = None;
        self.update = None;
    }
}

/// The slot pool. Grows monotonically to the largest batch seen.
#[derive(Debug, Default)]
pub struct BatchArena {
    slots: Vec<Slot>,
}

impl BatchArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many instance slots are currently pooled.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Hand out `n` reset slots, growing the pool only when `n` exceeds
    /// every batch size seen so far.
    pub(crate) fn acquire(&mut self, n: usize) -> &mut [Slot] {
        if self.slots.len() < n {
            self.slots.resize_with(n, Slot::default);
        }
        let slots = &mut self.slots[..n];
        for s in slots.iter_mut() {
            s.reset();
        }
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_grows_once_and_resets_slots() {
        let mut a = BatchArena::new();
        assert_eq!(a.capacity(), 0);
        {
            let slots = a.acquire(3);
            slots[0].kernel_work = 9;
            slots[0].events.push(Event::BatchStart {
                instances: 1,
                parallelism: "serial".to_string(),
            });
            slots[0].mu_seed.extend([1.0, 2.0]);
            slots[0].lambda_seed.extend([3.0]);
        }
        assert_eq!(a.capacity(), 3);
        let slots = a.acquire(2);
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].kernel_work, 0, "slot state was reset");
        assert!(slots[0].events.is_empty());
        assert!(slots[0].mu_seed.is_empty());
        assert!(slots[0].lambda_seed.is_empty());
        assert!(slots[0].events.capacity() >= 1, "capacity survives reset");
    }
}
