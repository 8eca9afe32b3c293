//! A lock-striped chunk cache shared across reader sessions.
//!
//! Historically every [`crate::TkrReader`] owned a private LRU of decoded
//! core chunks, so two sessions on the same artifact each decoded (and each
//! kept resident) their own copies — exactly wrong for a service where many
//! concurrent connections query a handful of hot artifacts. This module
//! lifts the cache out of the reader:
//!
//! * [`SharedChunkCache`] — one process-wide (or per-server) pool of decoded
//!   chunks with a **global** capacity budget, split over lock stripes so
//!   concurrent sessions contend on `1/stripes` of the key space instead of
//!   one mutex.
//! * [`CacheSession`] — a cheap handle binding one *artifact key* to the
//!   shared pool. Every reader opened with
//!   [`crate::TkrReader::open_shared`] holds one; readers registered under
//!   the same key share decoded chunks and aggregate their
//!   hit/decode/resident accounting per artifact.
//!
//! The private reader cache is the degenerate case: [`crate::TkrReader::open_with`]
//! simply creates a single-stripe `SharedChunkCache` nobody else can see, so
//! one implementation serves both shapes and the accounting is identical by
//! construction (pinned by the shared-cache tests in `crate::tests`).
//!
//! # Contracts
//!
//! * **Keying** — a key identifies the artifact *bytes*: all sessions
//!   registered under one key must come from the same file. (The server's
//!   registry maps each artifact name to one path, which guarantees this.)
//! * **Global budget** — the total number of resident decoded chunks never
//!   exceeds the construction-time capacity. The budget is distributed over
//!   the stripes (stripe count is clamped to the capacity so every stripe
//!   owns at least one slot); chunks map to stripes round-robin
//!   (`chunk % stripes`), so a single artifact's chunks spread evenly.
//! * **Eviction** — LRU per stripe, ordered by a cache-global clock, with
//!   the evicted entry's artifact `resident` count decremented.
//! * **No cross-session blocking** — misses are *not* deduplicated across
//!   sessions: two sessions racing on the same cold chunk may both decode
//!   it (the results are identical; the second insert wins). This is a
//!   deliberate trade — a slow session can never stall another one behind
//!   an in-flight marker — and it only costs duplicate work under exact
//!   races, never under re-query of a warm cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tucker_obs::metrics::Counter;

/// Pool-wide aggregates in the global metrics registry (see `tucker-obs`).
/// The per-artifact [`ArtifactCacheStats`] slots remain the source of truth
/// for per-key accounting; these are the process-level roll-up the serve
/// exposition reports alongside them.
static CACHE_HITS: Counter = Counter::new("store.cache.hits");
static CACHE_DECODES: Counter = Counter::new("store.cache.decodes");
static CACHE_EVICTIONS: Counter = Counter::new("store.cache.evictions");

/// A point-in-time snapshot of one artifact's cache accounting (all zero
/// for a key nothing has been decoded under yet).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactCacheStats {
    /// Cumulative chunk decodes charged to this artifact (every insert is
    /// one decode; duplicate decodes under cross-session races count).
    pub decoded_chunks: usize,
    /// Cumulative cache hits across all sessions of this artifact.
    pub cache_hits: usize,
    /// Decoded chunks of this artifact currently resident.
    pub resident_chunks: usize,
}

/// Per-artifact accounting plus the identity that keys stripe entries.
struct ArtifactSlot {
    id: u64,
    key: String,
    decoded: AtomicUsize,
    hits: AtomicUsize,
    resident: AtomicUsize,
}

/// One stripe entry: LRU stamp, owning artifact, decoded values.
struct StripeEntry {
    stamp: u64,
    slot: Arc<ArtifactSlot>,
    data: Arc<Vec<f64>>,
}

/// One lock stripe: a bounded map from `(artifact id, chunk index)` to
/// decoded chunks.
struct Stripe {
    capacity: usize,
    entries: HashMap<(u64, usize), StripeEntry>,
}

impl Stripe {
    /// Evicts least-recently-used entries (an `O(len)` min-stamp scan, as in
    /// the historical private LRU) until the stripe budget holds.
    fn enforce_budget(&mut self) {
        while self.entries.len() > self.capacity {
            let Some(oldest) = self
                .entries
                .iter()
                .map(|(&k, e)| (e.stamp, k))
                .min()
                .map(|(_, k)| k)
            else {
                return;
            };
            if let Some(evicted) = self.entries.remove(&oldest) {
                evicted.slot.resident.fetch_sub(1, Ordering::Relaxed);
                CACHE_EVICTIONS.inc();
            }
        }
    }
}

struct CacheInner {
    stripes: Vec<Mutex<Stripe>>,
    capacity: usize,
    tick: AtomicU64,
    registry: Mutex<HashMap<String, Arc<ArtifactSlot>>>,
    next_id: AtomicU64,
}

/// A shared, bounded, lock-striped pool of decoded core chunks.
///
/// Cloning is cheap (an `Arc` bump); clones see the same pool. See the
/// module docs for the keying, budget, and eviction contracts.
#[derive(Clone)]
pub struct SharedChunkCache {
    inner: Arc<CacheInner>,
}

impl SharedChunkCache {
    /// Creates a pool holding at most `capacity_chunks` decoded chunks
    /// (clamped to at least 1) split over `stripes` lock stripes (clamped to
    /// `1..=capacity`, so every stripe owns at least one slot and the global
    /// budget is exact).
    pub fn new(capacity_chunks: usize, stripes: usize) -> SharedChunkCache {
        let capacity = capacity_chunks.max(1);
        let stripes = stripes.clamp(1, capacity);
        // Distribute the budget like `chunk_ranges`: earlier stripes absorb
        // the remainder, mirroring the round-robin chunk→stripe map so a
        // single artifact with `chunks <= capacity` always fits.
        let base = capacity / stripes;
        let rem = capacity % stripes;
        let stripes = (0..stripes)
            .map(|i| {
                Mutex::new(Stripe {
                    capacity: base + usize::from(i < rem),
                    entries: HashMap::new(),
                })
            })
            .collect();
        SharedChunkCache {
            inner: Arc::new(CacheInner {
                stripes,
                capacity,
                tick: AtomicU64::new(0),
                registry: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(0),
            }),
        }
    }

    /// Binds `key` to the pool and returns the session handle readers cache
    /// through. Registering the same key again returns a session sharing the
    /// first registration's entries and accounting.
    pub fn register(&self, key: &str) -> CacheSession {
        let mut registry = self
            .inner
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let slot = registry
            .entry(key.to_string())
            .or_insert_with(|| {
                Arc::new(ArtifactSlot {
                    id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
                    key: key.to_string(),
                    decoded: AtomicUsize::new(0),
                    hits: AtomicUsize::new(0),
                    resident: AtomicUsize::new(0),
                })
            })
            .clone();
        CacheSession {
            inner: Arc::clone(&self.inner),
            slot,
        }
    }

    /// The global capacity budget in chunks.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Total decoded chunks currently resident, across every artifact
    /// (always `<=` [`SharedChunkCache::capacity`]).
    pub fn resident_total(&self) -> usize {
        self.inner
            .stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len())
            .sum()
    }

    /// Accounting snapshot for one registered key, if present.
    pub fn artifact_stats(&self, key: &str) -> Option<ArtifactCacheStats> {
        let registry = self
            .inner
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        registry.get(key).map(|slot| snapshot(slot))
    }

    /// Accounting snapshots for every registered key, sorted by key.
    pub fn artifacts(&self) -> Vec<(String, ArtifactCacheStats)> {
        let registry = self
            .inner
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(String, ArtifactCacheStats)> = registry
            .values()
            .map(|slot| (slot.key.clone(), snapshot(slot)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl std::fmt::Debug for SharedChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedChunkCache")
            .field("capacity", &self.capacity())
            .field("stripes", &self.inner.stripes.len())
            .field("resident", &self.resident_total())
            .finish()
    }
}

fn snapshot(slot: &ArtifactSlot) -> ArtifactCacheStats {
    ArtifactCacheStats {
        decoded_chunks: slot.decoded.load(Ordering::Relaxed),
        cache_hits: slot.hits.load(Ordering::Relaxed),
        resident_chunks: slot.resident.load(Ordering::Relaxed),
    }
}

/// One artifact's handle into a [`SharedChunkCache`]: probe and insert
/// decoded chunks, with per-artifact accounting updated on each operation.
///
/// Cloning shares the binding (same artifact, same pool).
#[derive(Clone)]
pub struct CacheSession {
    inner: Arc<CacheInner>,
    slot: Arc<ArtifactSlot>,
}

impl CacheSession {
    fn stripe(&self, chunk: usize) -> &Mutex<Stripe> {
        // Round-robin, artifact-independent: a single artifact's chunks
        // spread exactly evenly over the stripes (see module docs).
        &self.inner.stripes[chunk % self.inner.stripes.len()]
    }

    /// Probes chunk `chunk` of this session's artifact, refreshing its LRU
    /// stamp and counting a hit when present.
    pub fn get(&self, chunk: usize) -> Option<Arc<Vec<f64>>> {
        let stamp = self.inner.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut stripe = self.stripe(chunk).lock().unwrap_or_else(|e| e.into_inner());
        let entry = stripe.entries.get_mut(&(self.slot.id, chunk))?;
        entry.stamp = stamp;
        let data = Arc::clone(&entry.data);
        drop(stripe);
        self.slot.hits.fetch_add(1, Ordering::Relaxed);
        CACHE_HITS.inc();
        Some(data)
    }

    /// Inserts a freshly decoded chunk (counted against this artifact's
    /// `decoded_chunks`), evicting least-recently-used entries from the
    /// chunk's stripe until the budget holds again.
    pub fn insert(&self, chunk: usize, data: Arc<Vec<f64>>) {
        self.slot.decoded.fetch_add(1, Ordering::Relaxed);
        CACHE_DECODES.inc();
        let stamp = self.inner.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut stripe = self.stripe(chunk).lock().unwrap_or_else(|e| e.into_inner());
        let fresh = stripe
            .entries
            .insert(
                (self.slot.id, chunk),
                StripeEntry {
                    stamp,
                    slot: Arc::clone(&self.slot),
                    data,
                },
            )
            .is_none();
        if fresh {
            self.slot.resident.fetch_add(1, Ordering::Relaxed);
        }
        stripe.enforce_budget();
    }

    /// The pool's global capacity budget in chunks.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// The key this session was registered under.
    pub fn key(&self) -> &str {
        &self.slot.key
    }

    /// Cumulative chunk decodes charged to this session's artifact (all
    /// sessions of the key combined).
    pub fn decoded_chunks(&self) -> usize {
        self.slot.decoded.load(Ordering::Relaxed)
    }

    /// Cumulative cache hits of this session's artifact.
    pub fn cache_hits(&self) -> usize {
        self.slot.hits.load(Ordering::Relaxed)
    }

    /// Decoded chunks of this session's artifact currently resident.
    pub fn resident_chunks(&self) -> usize {
        self.slot.resident.load(Ordering::Relaxed)
    }

    /// Full accounting snapshot of this session's artifact.
    pub fn stats(&self) -> ArtifactCacheStats {
        snapshot(&self.slot)
    }
}

impl std::fmt::Debug for CacheSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheSession")
            .field("key", &self.slot.key)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(v: f64) -> Arc<Vec<f64>> {
        Arc::new(vec![v; 4])
    }

    #[test]
    fn single_stripe_behaves_like_the_old_private_lru() {
        let cache = SharedChunkCache::new(2, 1);
        let s = cache.register("a");
        s.insert(0, chunk(0.0));
        s.insert(1, chunk(1.0));
        assert_eq!(s.resident_chunks(), 2);
        // Touch 0 so 1 is the LRU victim.
        assert!(s.get(0).is_some());
        s.insert(2, chunk(2.0));
        assert_eq!(s.resident_chunks(), 2);
        assert!(s.get(1).is_none(), "LRU entry 1 should have been evicted");
        assert!(s.get(0).is_some() && s.get(2).is_some());
        assert_eq!(s.decoded_chunks(), 3);
        // Hits: the miss probe of 1 does not count, the other three do.
        assert_eq!(s.cache_hits(), 3);
    }

    #[test]
    fn same_key_shares_entries_distinct_keys_do_not() {
        let cache = SharedChunkCache::new(8, 2);
        let a1 = cache.register("a");
        let a2 = cache.register("a");
        let b = cache.register("b");
        a1.insert(3, chunk(3.0));
        assert!(a2.get(3).is_some(), "same key must share decoded chunks");
        assert!(b.get(3).is_none(), "distinct keys must not collide");
        assert_eq!(a1.stats(), a2.stats());
        assert_eq!(cache.artifact_stats("a").unwrap().resident_chunks, 1);
        assert_eq!(cache.artifact_stats("b").unwrap().resident_chunks, 0);
        assert!(cache.artifact_stats("c").is_none());
    }

    #[test]
    fn global_budget_holds_across_artifacts_and_stripes() {
        let cache = SharedChunkCache::new(5, 3);
        let a = cache.register("a");
        let b = cache.register("b");
        for i in 0..20 {
            a.insert(i, chunk(i as f64));
            b.insert(i, chunk(-(i as f64)));
        }
        assert!(cache.resident_total() <= cache.capacity());
        assert_eq!(
            a.resident_chunks() + b.resident_chunks(),
            cache.resident_total()
        );
    }

    #[test]
    fn stripe_count_is_clamped_to_capacity() {
        // capacity 2 with 8 requested stripes: only 2 stripes, 1 slot each —
        // the budget stays exactly 2, not ceil-inflated to 8.
        let cache = SharedChunkCache::new(2, 8);
        let s = cache.register("a");
        for i in 0..10 {
            s.insert(i, chunk(i as f64));
        }
        assert!(cache.resident_total() <= 2);
    }

    #[test]
    fn an_artifact_no_larger_than_the_budget_fits_entirely() {
        // Round-robin chunk→stripe mapping + remainder-first budget split:
        // chunks 0..capacity land one per slot, so nothing is evicted.
        for (capacity, stripes) in [(7usize, 3usize), (8, 8), (5, 2), (9, 4)] {
            let cache = SharedChunkCache::new(capacity, stripes);
            let s = cache.register("a");
            for i in 0..capacity {
                s.insert(i, chunk(i as f64));
            }
            assert_eq!(s.resident_chunks(), capacity, "{capacity}/{stripes}");
            for i in 0..capacity {
                assert!(
                    s.get(i).is_some(),
                    "chunk {i} evicted at {capacity}/{stripes}"
                );
            }
        }
    }

    #[test]
    fn concurrent_sessions_stay_within_budget() {
        let cache = SharedChunkCache::new(6, 3);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let session = cache.register(if t % 2 == 0 { "x" } else { "y" });
                scope.spawn(move || {
                    for round in 0..50 {
                        let i = (t * 7 + round * 3) % 24;
                        if session.get(i).is_none() {
                            session.insert(i, chunk(i as f64));
                        }
                    }
                });
            }
        });
        assert!(cache.resident_total() <= cache.capacity());
        let sum: usize = cache
            .artifacts()
            .iter()
            .map(|(_, s)| s.resident_chunks)
            .sum();
        assert_eq!(sum, cache.resident_total());
    }
}
