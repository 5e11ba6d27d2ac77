//! Per-family warm-start cache of dual multipliers.
//!
//! SEA state is fully captured by the column multipliers `μ` — the row pass
//! recomputes `λ` from `μ` — so `μ` alone is a complete warm start (the same
//! observation the crash-safe checkpoints rely on). The previous `λ` rides
//! along as the first row pass's kernel hint: without it that pass runs a
//! full selection per row. The cache maps a caller-declared *family* key (a
//! problem identity such as `"trade-2024"` that recurs across batches with
//! drifting data) to the last converged `(λ, μ)` for that family plus the
//! kernel work the family's *cold* solve cost, which is the baseline that
//! `work_saved` is measured against.
//!
//! Within one `solve_batch` call the cache is a read-only snapshot: every
//! instance resolves hit/miss against the state the batch started with, and
//! updates are applied only after all instances finish, in submission order
//! (last writer per family wins). That makes each instance's result a pure
//! function of `(instance, snapshot, options)` — bitwise independent of
//! scheduling and submission order — while hits still materialize across
//! successive `solve_batch` calls on one engine.
//!
//! **Bounded memory.** A long-running service ([`sea-serve`]) accumulates
//! families without bound, so the cache optionally carries a byte budget
//! ([`WarmStartCache::with_limit`]): each entry is costed at its `(λ, μ)`
//! payload plus key and bookkeeping overhead, and
//! [`WarmStartCache::apply`] evicts least-recently-used families until the
//! budget holds. Recency advances on insert and on an explicit
//! [`WarmStartCache::touch`] (reads through
//! [`WarmStartCache::lookup`] stay `&self` so batch workers can share the
//! snapshot without synchronization — a server should `touch` under its own
//! lock after a hit).
//!
//! [`sea-serve`]: https://docs.rs/sea-serve

use std::collections::HashMap;

/// One cached family: the dual seed and its cold-work baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Row multipliers of the family's last converged solve, the hints for
    /// a warm solve's first row pass. Empty when the solve has none to
    /// give (the general class); any values are safe, since a hint only
    /// chooses where the kernel looks first.
    pub lambda: Vec<f64>,
    /// Column multipliers of the family's last converged solve.
    pub mu: Vec<f64>,
    /// Kernel work (breakpoints + pivots + clamps) of the *cold* solve that
    /// first populated this family. Later hits refresh `mu` but keep this
    /// baseline, so `work_saved` always compares against a cold start.
    pub cold_kernel_work: u64,
}

impl CacheEntry {
    /// Approximate resident bytes of this entry under a key of `key_len`
    /// bytes: the `(λ, μ)` payload, `(m + n)·8` bytes, the key text, and
    /// fixed per-entry bookkeeping overhead (hash-map slot, lengths,
    /// recency stamp).
    fn cost(&self, key_len: usize) -> usize {
        (self.lambda.len() + self.mu.len()) * std::mem::size_of::<f64>() + key_len + ENTRY_OVERHEAD
    }
}

/// Fixed per-entry bookkeeping overhead charged against the byte budget.
const ENTRY_OVERHEAD: usize = 64;

/// A deferred cache write, collected during a batch and applied at the end.
#[derive(Debug, Clone)]
pub struct CacheUpdate {
    /// Family key the entry belongs to.
    pub family: String,
    /// The entry to store.
    pub entry: CacheEntry,
}

#[derive(Debug, Clone)]
struct Stored {
    entry: CacheEntry,
    /// Logical clock value of the last insert or `touch`.
    last_used: u64,
}

/// The per-family warm-start cache (see module docs for snapshot and
/// eviction semantics).
#[derive(Debug, Clone, Default)]
pub struct WarmStartCache {
    entries: HashMap<String, Stored>,
    /// Monotonic logical clock driving LRU recency.
    clock: u64,
    /// Byte budget; `None` = unbounded (the batch-engine default).
    limit_bytes: Option<usize>,
    /// Current approximate resident bytes across all entries.
    bytes: usize,
    /// Families evicted since construction (surfaced in server metrics).
    evictions: u64,
}

impl WarmStartCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that evicts least-recently-used families whenever the
    /// approximate resident size exceeds `limit_bytes`.
    pub fn with_limit(limit_bytes: usize) -> Self {
        WarmStartCache {
            limit_bytes: Some(limit_bytes),
            ..Self::default()
        }
    }

    /// The cached entry for `family`, if any. Does not advance recency —
    /// see [`WarmStartCache::touch`].
    pub fn lookup(&self, family: &str) -> Option<&CacheEntry> {
        self.entries.get(family).map(|s| &s.entry)
    }

    /// Mark `family` as just-used for LRU purposes. Returns true when the
    /// family is cached. Call after a hit resolved via `lookup` (the batch
    /// engine reads a frozen snapshot and never touches; a long-running
    /// server should).
    pub fn touch(&mut self, family: &str) -> bool {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(family) {
            Some(s) => {
                s.last_used = clock;
                true
            }
            None => false,
        }
    }

    /// Number of cached families.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate resident bytes across all entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The byte budget, if one was set.
    pub fn limit(&self) -> Option<usize> {
        self.limit_bytes
    }

    /// Families evicted by the byte budget since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drop one family's entry. Returns true when something was removed.
    /// This is how a long-running server discards a warm seed that just
    /// broke a solve (e.g. a corrupted μ vector): the next solve for the
    /// family runs cold instead of re-tripping the watchdog forever. Not
    /// counted in [`WarmStartCache::evictions`], which tracks byte-budget
    /// pressure only.
    pub fn remove(&mut self, family: &str) -> bool {
        match self.entries.remove(family) {
            Some(s) => {
                self.bytes = self.bytes.saturating_sub(s.entry.cost(family.len()));
                true
            }
            None => false,
        }
    }

    /// Apply deferred updates in order; the last update per family wins.
    /// With a byte budget set, least-recently-used families are evicted
    /// after the writes until the budget holds (a just-written entry is the
    /// most recent, so a single oversized entry evicts everything else and
    /// then stays).
    pub fn apply(&mut self, updates: impl IntoIterator<Item = CacheUpdate>) {
        for u in updates {
            self.clock += 1;
            let key_len = u.family.len();
            let new_cost = u.entry.cost(key_len);
            let stored = Stored {
                entry: u.entry,
                last_used: self.clock,
            };
            if let Some(old) = self.entries.insert(u.family, stored) {
                // The displaced entry was charged under the same key.
                self.bytes = self.bytes.saturating_sub(old.entry.cost(key_len));
            }
            self.bytes += new_cost;
        }
        self.evict_to_limit();
    }

    /// Evict least-recently-used families until the byte budget holds.
    fn evict_to_limit(&mut self) {
        let Some(limit) = self.limit_bytes else {
            return;
        };
        while self.bytes > limit && self.entries.len() > 1 {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            {
                if let Some(s) = self.entries.remove(&victim) {
                    self.bytes = self.bytes.saturating_sub(s.entry.cost(victim.len()));
                    self.evictions += 1;
                }
            } else {
                break;
            }
        }
        // A single entry may legitimately exceed the budget; it stays (the
        // alternative — an always-empty cache — would silently disable warm
        // starts for large families).
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A family's update for an `n × n` problem.
    fn update(family: &str, n: usize, work: u64) -> CacheUpdate {
        CacheUpdate {
            family: family.into(),
            entry: CacheEntry {
                lambda: vec![0.5; n],
                mu: vec![1.0; n],
                cold_kernel_work: work,
            },
        }
    }

    #[test]
    fn apply_is_last_writer_wins_in_order() {
        let mut c = WarmStartCache::new();
        assert!(c.is_empty());
        c.apply([
            CacheUpdate {
                family: "a".into(),
                entry: CacheEntry {
                    lambda: vec![0.5, 0.5],
                    mu: vec![1.0],
                    cold_kernel_work: 100,
                },
            },
            CacheUpdate {
                family: "a".into(),
                entry: CacheEntry {
                    lambda: vec![0.5, 0.5],
                    mu: vec![2.0],
                    cold_kernel_work: 100,
                },
            },
            CacheUpdate {
                family: "b".into(),
                entry: CacheEntry {
                    lambda: Vec::new(),
                    mu: vec![3.0],
                    cold_kernel_work: 7,
                },
            },
        ]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup("a").map(|e| e.mu[0]), Some(2.0));
        assert_eq!(c.lookup("b").map(|e| e.cold_kernel_work), Some(7));
        // Each entry costs (m + n)·8 bytes of multipliers, its key and the
        // fixed overhead: "a" holds a 2 × 1 seed, "b" a μ alone.
        assert_eq!(
            c.bytes(),
            (3 * 8 + 1 + ENTRY_OVERHEAD) + (8 + 1 + ENTRY_OVERHEAD)
        );
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut c = WarmStartCache::new();
        for i in 0..100 {
            c.apply([update(&format!("f{i}"), 64, 1)]);
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.evictions(), 0);
        assert!(c.limit().is_none());
        assert!(c.bytes() > 100 * (64 + 64) * 8);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Budget fits roughly two 64 × 64 entries.
        let cost = (64 + 64) * 8 + 2 + ENTRY_OVERHEAD;
        let mut c = WarmStartCache::with_limit(2 * cost + 8);
        c.apply([update("f0", 64, 1)]);
        c.apply([update("f1", 64, 1)]);
        assert_eq!(c.len(), 2);
        // Touch f0 so f1 becomes the LRU victim.
        assert!(c.touch("f0"));
        c.apply([update("f2", 64, 1)]);
        assert_eq!(c.len(), 2);
        assert!(c.lookup("f0").is_some(), "touched entry survives");
        assert!(c.lookup("f1").is_none(), "LRU entry evicted");
        assert!(c.lookup("f2").is_some(), "new entry resident");
        assert_eq!(c.evictions(), 1);
        assert!(!c.touch("f1"), "touch reports evicted families");
    }

    #[test]
    fn oversized_single_entry_stays_resident() {
        let mut c = WarmStartCache::with_limit(100);
        c.apply([update("big", 10_000, 1)]);
        assert_eq!(c.len(), 1, "one oversized entry is kept");
        c.apply([update("big2", 10_000, 1)]);
        // Over budget with two entries: the older one goes.
        assert_eq!(c.len(), 1);
        assert!(c.lookup("big2").is_some());
        assert!(c.bytes() > 100);
    }

    #[test]
    fn rewriting_a_family_does_not_leak_bytes() {
        let mut c = WarmStartCache::with_limit(1 << 20);
        c.apply([update("f", 128, 1)]);
        let b = c.bytes();
        for _ in 0..50 {
            c.apply([update("f", 128, 2)]);
        }
        assert_eq!(c.bytes(), b, "same-size rewrite keeps byte accounting");
        assert_eq!(c.len(), 1);
    }
}
