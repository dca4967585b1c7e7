//! Content-addressed memoization of analysis results.
//!
//! The unit of caching is a *structural hash* of the analyzed content — DAG
//! shape, node WCETs, offloaded node, period and deadline, plus the analysis
//! registry key and the parameter digest the analysis declares through
//! [`Analysis::cache_params`](hetrta_api::Analysis::cache_params). Two jobs
//! that analyze structurally identical inputs under the same parameters
//! share one computation, whichever worker gets there first; everyone else
//! gets a clone of the memoized value, which shares the cached graphs'
//! storage instead of copying it.
//!
//! Caches are **bounded**: each [`MemoCache`] is a sharded LRU with a
//! configurable capacity, so a long-lived engine sweeping millions of
//! mostly-unique jobs keeps a flat memory profile instead of growing
//! linearly with distinct content.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use hetrta_api::AnalysisInput;
use hetrta_dag::{Dag, HeteroDagTask};
use hetrta_obs::Counter;

pub use hetrta_dag::ContentHasher;

/// Content hash of a bare DAG (structure + WCETs, no timing parameters) —
/// the key of `m`-independent derived data shared across tasks that wrap
/// the same graph. This is the graph's memoized [`Dag::digest`]: labels
/// are excluded, node numbering is part of the content.
#[must_use]
pub fn hash_dag_only(dag: &Dag) -> u128 {
    dag.digest()
}

/// Content hash of a heterogeneous task (structure + timing parameters).
///
/// One FNV-1a stream over the DAG, then the offloaded node, period and
/// deadline. FNV-1a's state is its digest, so the stream resumes from the
/// DAG's memoized digest instead of hashing the graph again.
#[must_use]
pub fn hash_task(task: &HeteroDagTask) -> u128 {
    let mut h = ContentHasher::resume(task.dag().digest());
    h.write_u64(task.offloaded().index() as u64);
    h.write_u64(task.period().get());
    h.write_u64(task.deadline().get());
    h.finish()
}

/// Content hash of a task *set* (order-sensitive: priority order is part of
/// the schedulability question).
#[must_use]
pub fn hash_task_set(tasks: &[HeteroDagTask]) -> u128 {
    let mut h = ContentHasher::new();
    h.write_u64(tasks.len() as u64);
    for t in tasks {
        let th = hash_task(t);
        h.write_u64(th as u64);
        h.write_u64((th >> 64) as u64);
    }
    h.finish()
}

/// Content hash of a conditional expression (structure + leaf WCETs, via
/// the expression's canonical `Debug` rendering).
#[must_use]
pub fn hash_cond_expr(expr: &hetrta_cond::CondExpr) -> u128 {
    let mut h = ContentHasher::new();
    h.write_str(&format!("{expr:?}"));
    h.finish()
}

/// Domain-separated content hash of any analysis input.
#[must_use]
pub fn hash_input(input: &AnalysisInput) -> u128 {
    let (tag, inner) = match input {
        AnalysisInput::Task(t) => (1u8, hash_task(t)),
        AnalysisInput::TaskSet(s) => (2, hash_task_set(s)),
        AnalysisInput::Cond(e) => (3, hash_cond_expr(e)),
    };
    let mut h = ContentHasher::new();
    h.write_u8(tag);
    h.write_u64(inner as u64);
    h.write_u64((inner >> 64) as u64);
    h.finish()
}

/// Extends a content hash with analysis parameters, yielding a cache key.
#[must_use]
pub fn key_with_params(content: u128, tag: u8, m: u64) -> u128 {
    let mut h = ContentHasher::new();
    h.write_u64(content as u64);
    h.write_u64((content >> 64) as u64);
    h.write_u8(tag);
    h.write_u64(m);
    h.finish()
}

/// The result-cache key of one `(content, analysis, parameters)` triple.
#[must_use]
pub fn result_key(content: u128, analysis_key: &str, param_digest: u64) -> u128 {
    let mut h = ContentHasher::new();
    h.write_u64(content as u64);
    h.write_u64((content >> 64) as u64);
    h.write_str(analysis_key);
    h.write_u64(param_digest);
    h.finish()
}

/// Running hit/miss counters of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute. A lookup that waited for another
    /// caller's computation of the same key counts as a hit.
    pub misses: u64,
}

impl CacheCounters {
    /// Hits as a fraction of all lookups (`0` for an untouched cache).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter difference `self - earlier` (for per-run snapshots on a
    /// long-lived cache).
    #[must_use]
    pub fn since(&self, earlier: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// One LRU shard: the value map, a stamp-ordered eviction index, and the
/// keys being computed right now.
#[derive(Debug)]
struct Shard<V> {
    map: HashMap<u128, (V, u64)>,
    order: BTreeMap<u64, u128>,
    clock: u64,
    /// At most one entry per thread computing in this shard, so a list.
    in_flight: Vec<(u128, Arc<Flight>)>,
}

/// One in-flight computation: waiters sleep until its leader finishes
/// (or unwinds).
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<bool>,
    finished: Condvar,
}

impl Flight {
    fn wait(&self) {
        let mut done = self.done.lock().expect("cache flight");
        while !*done {
            done = self.finished.wait(done).expect("cache flight");
        }
    }
}

/// Clears its key's in-flight marker and wakes the waiters when the
/// leader's computation ends, unwinding included.
struct Leader<'a, V: Clone> {
    cache: &'a MemoCache<V>,
    key: u128,
    flight: Arc<Flight>,
}

impl<V: Clone> Drop for Leader<'_, V> {
    fn drop(&mut self) {
        if let Ok(mut shard) = self.cache.shard(self.key).lock() {
            shard.in_flight.retain(|(key, _)| *key != self.key);
        }
        // Once the marker is gone nobody new can take a reference, so a
        // count of one means no waiters: skip the wake-up system call
        // most misses would otherwise pay.
        if Arc::strong_count(&self.flight) == 1 {
            return;
        }
        // A bool is valid at every step, so a poisoned guard is safe to
        // take back; a drop must not panic.
        *self
            .flight
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        self.flight.finished.notify_all();
    }
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            in_flight: Vec::new(),
        }
    }

    /// Bumps `key` to most-recently-used.
    fn touch(&mut self, key: u128) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some((_, entry_stamp)) = self.map.get_mut(&key) {
            self.order.remove(entry_stamp);
            *entry_stamp = stamp;
            self.order.insert(stamp, key);
        }
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-used
    /// entries down to `cap`.
    fn insert(&mut self, key: u128, value: V, cap: usize) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some((_, old)) = self.map.insert(key, (value, stamp)) {
            self.order.remove(&old);
        }
        self.order.insert(stamp, key);
        while self.map.len() > cap {
            let Some((&oldest, _)) = self.order.iter().next() else {
                break;
            };
            let victim = self.order.remove(&oldest).expect("indexed key");
            self.map.remove(&victim);
        }
    }
}

/// A sharded, size-capped, content-addressed LRU memo table.
///
/// Values are cloned out; for the engine's memos that copies no node data
/// (tasks and transformations share their graphs' storage, derived data
/// sits behind an `Arc`). Computation runs *outside* the shard lock under
/// an in-flight marker, so a second caller missing the same key waits for
/// the first one's value instead of computing it again. Capacity is
/// enforced per shard (`capacity / 32`, at least 1), evicting
/// least-recently-used entries. The shards are allocated on first use,
/// so a cache an engine never touches costs nothing to build.
#[derive(Debug)]
pub struct MemoCache<V> {
    shards: OnceLock<Box<[Mutex<Shard<V>>]>>,
    hits: Counter,
    misses: Counter,
    per_shard_cap: usize,
}

const SHARDS: usize = 32;

impl<V: Clone> MemoCache<V> {
    /// Creates an effectively unbounded cache.
    #[must_use]
    pub fn new() -> Self {
        MemoCache::bounded(usize::MAX)
    }

    /// Creates a cache holding at most (approximately) `capacity` entries,
    /// enforced per shard: each of the 32 shards keeps at most
    /// `max(capacity / 32, 1)` entries.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        MemoCache::counted(capacity, Counter::detached(), Counter::detached())
    }

    /// A [`MemoCache::bounded`] cache that counts its hits and misses on
    /// externally owned counters (typically handles from a
    /// [`MetricsRegistry`](hetrta_obs::MetricsRegistry), so the cache's
    /// activity shows up in engine-wide metrics snapshots).
    pub(crate) fn counted(capacity: usize, hits: Counter, misses: Counter) -> Self {
        MemoCache {
            shards: OnceLock::new(),
            hits,
            misses,
            per_shard_cap: (capacity / SHARDS).max(1),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<Shard<V>> {
        let shards = self
            .shards
            .get_or_init(|| (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect());
        // High bits select the shard; FNV mixes enough for that.
        &shards[(key >> 96) as usize % SHARDS]
    }

    /// The shards, if any lookup or insert has allocated them.
    fn allocated(&self) -> &[Mutex<Shard<V>>] {
        self.shards.get().map_or(&[], |shards| &shards[..])
    }

    /// Looks up `key`, computing and memoizing with `compute` on a miss.
    /// Returns the value and whether it was a hit.
    ///
    /// Single-flight: while one caller computes a key, others that miss
    /// it wait and then take its value as a hit. A hit costs one shard
    /// lock round trip. A computation that panics clears its marker, and
    /// its waiters retry.
    pub fn get_or_compute(&self, key: u128, compute: impl FnOnce() -> V) -> (V, bool) {
        let leader = loop {
            let mut shard = self.shard(key).lock().expect("cache shard");
            if let Some((v, _)) = shard.map.get(&key) {
                let v = v.clone();
                shard.touch(key);
                self.hits.incr();
                return (v, true);
            }
            let in_flight = shard.in_flight.iter().find(|(k, _)| *k == key);
            if let Some(flight) = in_flight.map(|(_, flight)| Arc::clone(flight)) {
                drop(shard);
                flight.wait();
                continue;
            }
            let flight = Arc::new(Flight::default());
            shard.in_flight.push((key, Arc::clone(&flight)));
            break Leader {
                cache: self,
                key,
                flight,
            };
        };
        self.misses.incr();
        let value = compute();
        self.shard(key)
            .lock()
            .expect("cache shard")
            .insert(key, value.clone(), self.per_shard_cap);
        drop(leader);
        (value, false)
    }

    /// Counted lookup: bumps the entry to most-recently-used and the
    /// hit/miss counters, but never computes.
    #[must_use]
    pub fn get(&self, key: u128) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("cache shard");
        match shard.map.get(&key) {
            Some((v, _)) => {
                let v = v.clone();
                shard.touch(key);
                self.hits.incr();
                Some(v)
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Quiet lookup: no counter movement, but the entry is still bumped to
    /// most-recently-used — served entries must not age out of a bounded
    /// cache just because they were read quietly.
    #[must_use]
    pub fn peek(&self, key: u128) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("cache shard");
        let value = shard.map.get(&key).map(|(v, _)| v.clone());
        if value.is_some() {
            shard.touch(key);
        }
        value
    }

    /// Stores `key → value` (replacing any earlier entry), evicting
    /// least-recently-used entries beyond the capacity.
    pub fn insert(&self, key: u128, value: V) {
        self.shard(key)
            .lock()
            .expect("cache shard")
            .insert(key, value, self.per_shard_cap);
    }

    /// Credits `n` hits observed through [`MemoCache::peek`].
    pub fn note_hits(&self, n: u64) {
        self.hits.add(n);
    }

    /// Number of memoized entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.allocated()
            .iter()
            .map(|s| s.lock().expect("cache shard").map.len())
            .sum()
    }

    /// `true` if nothing is memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized entry (the hit/miss counters keep running; use
    /// [`CacheCounters::since`] for per-scope accounting).
    pub fn clear(&self) {
        for shard in self.allocated() {
            let mut shard = shard.lock().expect("cache shard");
            shard.map.clear();
            shard.order.clear();
        }
    }

    /// Snapshot of the hit/miss counters.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }
}

impl<V: Clone> Default for MemoCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_dag::{DagBuilder, Ticks};

    fn sample_task(wcet_kernel: u64) -> HeteroDagTask {
        let mut b = DagBuilder::new();
        let pre = b.node("pre", Ticks::new(2));
        let kernel = b.node("kernel", Ticks::new(wcet_kernel));
        let post = b.node("post", Ticks::new(2));
        b.edges([(pre, kernel), (kernel, post)]).unwrap();
        HeteroDagTask::new(b.build().unwrap(), kernel, Ticks::new(50), Ticks::new(50)).unwrap()
    }

    #[test]
    fn equal_content_hashes_equal() {
        assert_eq!(hash_task(&sample_task(9)), hash_task(&sample_task(9)));
        assert_ne!(hash_task(&sample_task(9)), hash_task(&sample_task(10)));
    }

    #[test]
    fn params_change_the_key() {
        let c = hash_task(&sample_task(9));
        assert_ne!(key_with_params(c, 0, 2), key_with_params(c, 0, 4));
        assert_ne!(key_with_params(c, 0, 2), key_with_params(c, 1, 2));
        assert_ne!(result_key(c, "het", 1), result_key(c, "hom", 1));
        assert_ne!(result_key(c, "het", 1), result_key(c, "het", 2));
    }

    #[test]
    fn input_hashes_are_domain_separated() {
        let task = sample_task(9);
        let single = hash_input(&AnalysisInput::Task(task.clone()));
        let set = hash_input(&AnalysisInput::TaskSet(vec![task]));
        assert_ne!(single, set);
    }

    #[test]
    fn memo_hits_after_first_compute() {
        let cache: MemoCache<u64> = MemoCache::new();
        let (v1, hit1) = cache.get_or_compute(42, || 7);
        let (v2, hit2) = cache.get_or_compute(42, || unreachable!("memoized"));
        assert_eq!((v1, hit1), (7, false));
        assert_eq!((v2, hit2), (7, true));
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn concurrent_misses_of_one_key_compute_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;

        let cache: Arc<MemoCache<u64>> = Arc::new(MemoCache::new());
        let computed = Arc::new(AtomicUsize::new(0));
        let (started, leading) = std::sync::mpsc::channel();
        let leader = {
            let (cache, computed) = (Arc::clone(&cache), Arc::clone(&computed));
            std::thread::spawn(move || {
                cache.get_or_compute(9, || {
                    started.send(()).unwrap();
                    computed.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(50));
                    7
                })
            })
        };
        // The leader's marker is in place before its compute starts, so
        // this caller must wait for it rather than compute.
        leading.recv().unwrap();
        let follower = cache.get_or_compute(9, || {
            computed.fetch_add(1, Ordering::SeqCst);
            8
        });
        assert_eq!(leader.join().unwrap(), (7, false));
        assert_eq!(follower, (7, true));
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1 });

        // Two threads released together by a barrier: one computes.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let (cache, computed, barrier) = (
                    Arc::clone(&cache),
                    Arc::clone(&computed),
                    Arc::clone(&barrier),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_compute(10, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(20));
                        3
                    })
                })
            })
            .collect();
        for racer in racers {
            assert_eq!(racer.join().unwrap().0, 3);
        }
        assert_eq!(computed.load(Ordering::SeqCst), 2, "key 10 computed once");
    }

    #[test]
    fn a_panicking_compute_wakes_its_waiters() {
        let cache: Arc<MemoCache<u64>> = Arc::new(MemoCache::new());
        let (started, leading) = std::sync::mpsc::channel();
        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute(4, || {
                    started.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("compute failed");
                })
            })
        };
        leading.recv().unwrap();
        // Waits on the leader, then computes itself once it unwound.
        assert_eq!(cache.get_or_compute(4, || 5), (5, false));
        assert!(leader.join().is_err());
        assert_eq!(
            cache.get_or_compute(4, || unreachable!("memoized")),
            (5, true)
        );
    }

    #[test]
    fn peek_get_insert_semantics() {
        let cache: MemoCache<u64> = MemoCache::new();
        assert_eq!(cache.peek(1), None);
        assert_eq!(cache.counters(), CacheCounters::default());
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.counters().misses, 1);
        cache.insert(1, 10);
        assert_eq!(cache.peek(1), Some(10));
        assert_eq!(cache.get(1), Some(10));
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1 });
        cache.note_hits(3);
        assert_eq!(cache.counters().hits, 4);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn an_untouched_cache_is_empty_and_clears() {
        let cache: MemoCache<u64> = MemoCache::bounded(64);
        assert_eq!(cache.len(), 0);
        assert!(cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.counters(), CacheCounters::default());
        // A miss allocates the shards but stores nothing.
        assert_eq!(cache.peek(7), None);
        assert!(cache.is_empty());
        cache.insert(7, 1);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction() {
        let cache: MemoCache<u64> = MemoCache::bounded(32);
        for key in 0..10_000u128 {
            cache.insert(key << 96 | key, key as u64); // spread across shards
        }
        assert!(cache.len() <= 32, "cache grew to {}", cache.len());

        // Single-shard LRU order: the recently-touched entry survives.
        let cache: MemoCache<u64> = MemoCache::bounded(SHARDS * 2); // 2 per shard
        cache.insert(1, 1); // shard 0
        cache.insert(2, 2); // shard 0
        assert_eq!(cache.get(1), Some(1)); // bump 1 to MRU
        cache.insert(3, 3); // shard 0 → evicts 2 (LRU)
        assert_eq!(cache.peek(1), Some(1));
        assert_eq!(cache.peek(2), None);
        assert_eq!(cache.peek(3), Some(3));
    }

    #[test]
    fn counter_snapshots_subtract() {
        let a = CacheCounters {
            hits: 10,
            misses: 4,
        };
        let b = CacheCounters { hits: 7, misses: 1 };
        assert_eq!(a.since(b), CacheCounters { hits: 3, misses: 3 });
        assert!((a.hit_rate() - 10.0 / 14.0).abs() < 1e-12);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
    }
}
