//! The MemC3 baseline: optimistic multi-reader / *single*-writer cuckoo
//! hashing (paper §4.2), with knobs for every step of the factor analysis.
//!
//! [`MemC3Cuckoo`] is the table the paper starts from: optimistic
//! lock-free reads (version-striped, identical to cuckoo+'s) but writers
//! serialized through one global lock. It is built around a
//! [`cuckoo::OptimisticCuckooMap`]: reads and statistics are that map's,
//! while every write runs a `crit` critical section under the
//! writer lock. Its [`MemC3Config`] reproduces the cumulative
//! optimization ladder of Figure 5 (tabled in the [crate docs](crate)).
//!
//! The lock kinds map the global spinlock onto the simulated-HTM elision
//! wrappers of the [`htm`] crate; critical sections run through
//! [`htm::MemCtx`] so elided execution gets genuine conflict detection.

use crate::crit::{self, CritOutcome};
use crate::search::dfs;
use core::hash::{BuildHasher, Hash};
use cuckoo::hash::KeySlots;
use cuckoo::search::{self, SearchScratch};
use cuckoo::stats::PathStatsSnapshot;
use cuckoo::sync::{VersionLock, DEFAULT_STRIPES};
use cuckoo::{
    DefaultHashBuilder, InsertError, OptimisticBuilder, OptimisticCuckooMap, Plain,
    DEFAULT_MAX_SEARCH_SLOTS,
};
use htm::{DirectCtx, ElidedLock, ElisionConfig, ExecCtx, HtmDomain, MemCtx, StatsSnapshot};
use std::sync::Arc;

/// How the writer looks for an empty slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchKind {
    /// Two-way random-walk depth-first search (basic cuckoo / MemC3).
    Dfs,
    /// Breadth-first search (§4.3.2).
    Bfs,
}

/// What protects the write-side critical sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterLockKind {
    /// A plain global spinlock (the paper's pthread-style global lock).
    Global,
    /// Simulated TSX lock elision with the released glibc retry policy.
    ElidedGlibc,
    /// Simulated TSX lock elision with the paper's optimized `TSX*`
    /// policy (Appendix A).
    ElidedOptimized,
}

/// Configuration ladder for the factor analysis.
#[derive(Debug, Clone, Copy)]
pub struct MemC3Config {
    /// Path-search strategy.
    pub search: SearchKind,
    /// Prefetch the BFS frontier (no effect on DFS).
    pub prefetch: bool,
    /// Algorithm 2 (search outside the critical section) instead of
    /// Algorithm 1.
    pub lock_later: bool,
    /// Write-side concurrency control.
    pub lock: WriterLockKind,
    /// Search budget `M` in slots.
    pub max_search_slots: usize,
    /// Version-counter stripes.
    pub n_stripes: usize,
    /// Stale-path retries before falling back to an in-critical-section
    /// search (lock-later mode only).
    pub path_retries: usize,
}

impl MemC3Config {
    /// The unmodified MemC3 design ("cuckoo" in Figure 5).
    pub fn baseline() -> Self {
        MemC3Config {
            search: SearchKind::Dfs,
            prefetch: false,
            lock_later: false,
            lock: WriterLockKind::Global,
            max_search_slots: DEFAULT_MAX_SEARCH_SLOTS,
            n_stripes: DEFAULT_STRIPES,
            path_retries: 16,
        }
    }

    /// Enables Algorithm 2: lock after discovering the cuckoo path.
    pub fn plus_lock_later(mut self) -> Self {
        self.lock_later = true;
        self
    }

    /// Switches path search to BFS.
    pub fn plus_bfs(mut self) -> Self {
        self.search = SearchKind::Bfs;
        self
    }

    /// Enables BFS frontier prefetching.
    pub fn plus_prefetch(mut self) -> Self {
        self.prefetch = true;
        self
    }

    /// Selects the writer lock kind.
    pub fn with_lock(mut self, lock: WriterLockKind) -> Self {
        self.lock = lock;
        self
    }

    /// Overrides the search budget.
    pub fn with_search_budget(mut self, m: usize) -> Self {
        self.max_search_slots = m;
        self
    }

    /// The configured find-path step, run with no lock held: leaves a
    /// cuckoo path for `ks` in `scratch.path`, or reports none.
    fn find_path<K, V, const B: usize, S>(
        &self,
        map: &OptimisticCuckooMap<K, V, B, S>,
        ks: KeySlots,
        scratch: &mut SearchScratch,
    ) -> bool
    where
        K: Plain + Eq + Hash,
        V: Plain,
        S: BuildHasher,
    {
        match self.search {
            SearchKind::Bfs => map.plan_path(ks, scratch, self.prefetch),
            SearchKind::Dfs => {
                dfs::search(map.raw(), ks.i1, ks.i2, self.max_search_slots, scratch).is_ok()
            }
        }
    }
}

impl Default for MemC3Config {
    fn default() -> Self {
        Self::baseline()
    }
}

/// A plain global spinlock: the single-writer table's whole-table write
/// lock (a [`VersionLock`] used for its lock bit alone).
#[derive(Debug, Default)]
pub struct SpinLock {
    lock: VersionLock,
}

impl SpinLock {
    /// Creates an unlocked spinlock.
    pub const fn new() -> Self {
        SpinLock {
            lock: VersionLock::new(),
        }
    }

    /// Acquires the lock.
    pub fn lock(&self) -> SpinGuard<'_> {
        self.lock.lock();
        SpinGuard { lock: &self.lock }
    }

    /// Whether the lock is held.
    pub fn is_locked(&self) -> bool {
        self.lock.is_locked()
    }
}

/// Guard for [`SpinLock`].
#[derive(Debug)]
pub struct SpinGuard<'a> {
    lock: &'a VersionLock,
}

impl Drop for SpinGuard<'_> {
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

enum WriterLock {
    Spin(SpinLock),
    Elided(ElidedLock),
}

/// Optimistic multi-reader/single-writer cuckoo table (MemC3 baseline).
pub struct MemC3Cuckoo<K, V, const B: usize = 4, S = DefaultHashBuilder> {
    /// Storage, reads and statistics. Written only by this type's
    /// critical sections: its own (fine-grained) insert path is never
    /// reached from here.
    map: OptimisticCuckooMap<K, V, B, S>,
    config: MemC3Config,
    writer: WriterLock,
}

impl<K, V, const B: usize> MemC3Cuckoo<K, V, B, DefaultHashBuilder>
where
    K: Plain + Eq + Hash,
    V: Plain,
{
    /// Creates a table with the given capacity and configuration.
    pub fn with_capacity(capacity: usize, config: MemC3Config) -> Self {
        Self::with_capacity_and_hasher(capacity, config, DefaultHashBuilder::new())
    }
}

impl<K, V, const B: usize, S> MemC3Cuckoo<K, V, B, S>
where
    K: Plain + Eq + Hash,
    V: Plain,
    S: BuildHasher,
{
    /// Creates a table with an explicit hasher; elided configurations get
    /// a fresh transactional domain with default capacity limits.
    pub fn with_capacity_and_hasher(capacity: usize, config: MemC3Config, hasher: S) -> Self {
        Self::with_capacity_hasher_and_domain(capacity, config, hasher, Arc::new(HtmDomain::new()))
    }

    /// Creates a table whose elided critical sections run in the supplied
    /// transactional domain (to model specific hardware capacity limits;
    /// ignored for [`WriterLockKind::Global`]).
    pub fn with_capacity_hasher_and_domain(
        capacity: usize,
        config: MemC3Config,
        hasher: S,
        domain: Arc<HtmDomain>,
    ) -> Self {
        let writer = match config.lock {
            WriterLockKind::Global => WriterLock::Spin(SpinLock::new()),
            WriterLockKind::ElidedGlibc => {
                WriterLock::Elided(ElidedLock::new(domain, ElisionConfig::glibc()))
            }
            WriterLockKind::ElidedOptimized => {
                WriterLock::Elided(ElidedLock::new(domain, ElisionConfig::optimized()))
            }
        };
        let map = OptimisticBuilder::new(capacity)
            .stripes(config.n_stripes)
            .search_budget(config.max_search_slots)
            .path_retries(config.path_retries)
            .hasher(hasher)
            .build();
        MemC3Cuckoo {
            map,
            config,
            writer,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MemC3Config {
        &self.config
    }

    /// Slow-path statistics: searches, path executions, stale paths.
    pub fn path_stats(&self) -> PathStatsSnapshot {
        self.map.path_stats()
    }

    /// Appends this table's full observability sample set.
    pub fn metric_samples(&self, out: &mut Vec<metrics::Sample>) {
        self.map.metric_samples(out);
    }

    /// Transactional statistics when running elided, else `None`.
    pub fn htm_stats(&self) -> Option<StatsSnapshot> {
        match &self.writer {
            WriterLock::Spin(_) => None,
            WriterLock::Elided(l) => Some(l.stats().snapshot()),
        }
    }

    /// Lock-free optimistic lookup (identical protocol to cuckoo+).
    #[inline]
    pub fn get(&self, key: &K) -> Option<V> {
        self.map.get(key)
    }

    /// Runs a critical section under the configured writer lock.
    fn run_crit<R>(&self, mut f: impl FnMut(&mut ExecCtx<'_, '_>) -> Result<R, htm::Abort>) -> R {
        match &self.writer {
            WriterLock::Spin(lock) => {
                let _g = lock.lock();
                let mut ctx = ExecCtx::Direct(DirectCtx::new());
                let r = f(&mut ctx).unwrap_or_else(|a| {
                    panic!("critical section aborted under the global lock: {a}")
                });
                ctx.finish();
                r
            }
            WriterLock::Elided(lock) => lock.execute(f),
        }
    }

    /// Inserts `key → val` (paper §2.1 semantics).
    ///
    /// One loop serves every rung. Algorithm 1 searches for a path inside
    /// the critical section. Algorithm 2 (lock-later, §4.3.1) searches
    /// with no lock held and locks only to validate and execute the path;
    /// once `path_retries` of its paths have gone stale it, too, searches
    /// inside the section, so the insert completes deterministically.
    pub fn insert(&self, key: K, val: V) -> Result<(), InsertError> {
        let (raw, stripes) = (self.map.raw(), self.map.stripes());
        let ks = self.map.key_slots(&key);
        let (mut stale, mut rounds) = (0usize, 0u64);
        search::with_scratch(|scratch| loop {
            rounds += 1;
            debug_assert!(
                rounds < 1_000_000,
                "MemC3 insert livelock: ks={ks:?} stale={stale}"
            );
            let out = if !self.config.lock_later || stale > self.config.path_retries {
                self.run_crit(|ctx| {
                    crit::insert_critical_full(
                        ctx,
                        raw,
                        stripes,
                        ks,
                        key,
                        val,
                        self.config.max_search_slots,
                        scratch,
                    )
                })
            } else {
                // Algorithm 2 lines 3-8: search only when neither
                // candidate bucket has room.
                scratch.path.clear();
                if raw.meta(ks.i1).is_full() && raw.meta(ks.i2).is_full() {
                    self.map.record_search();
                    if !self.config.find_path(&self.map, ks, scratch) {
                        return Err(InsertError::TableFull);
                    }
                }
                let path = std::mem::take(&mut scratch.path);
                let out = self.run_crit(|ctx| {
                    let path = (!path.is_empty()).then_some(&path[..]);
                    crit::insert_critical(ctx, raw, stripes, ks, key, val, path)
                });
                if !path.is_empty() {
                    self.map.record_execution(out == CritOutcome::PathStale);
                }
                scratch.path = path;
                out
            };
            match out {
                CritOutcome::Inserted => {
                    self.map.count_add(ks, 1);
                    return Ok(());
                }
                CritOutcome::Exists => return Err(InsertError::KeyExists),
                CritOutcome::SearchFull => return Err(InsertError::TableFull),
                // Another writer moved the path's entries (under the
                // global lock, only an elided attempt that lost a race
                // and fell back sees this): go around.
                CritOutcome::PathStale => stale += 1,
                // The room probe raced: search next round.
                CritOutcome::NeedPath => {}
            }
        })
    }

    /// Removes `key`, returning its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        let ks = self.map.key_slots(key);
        let removed =
            self.run_crit(|ctx| crit::remove_key(ctx, self.map.raw(), self.map.stripes(), ks, key));
        if removed.is_some() {
            self.map.count_add(ks, -1);
        }
        removed
    }

    /// Replaces the value of an existing key.
    pub fn update(&self, key: &K, val: V) -> bool {
        let ks = self.map.key_slots(key);
        self.run_crit(|ctx| crit::update_key(ctx, self.map.raw(), self.map.stripes(), ks, key, val))
    }

    /// Single-threaded insert with all locking disabled (Figure 5a's
    /// baseline mode); exclusive access via `&mut self`.
    pub fn insert_unlocked(&mut self, key: K, val: V) -> Result<(), InsertError> {
        let config = self.config;
        self.map.insert_exclusive(key, val, |map, ks, scratch| {
            config.find_path(map, ks, scratch)
        })
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.map.capacity()
    }

    /// Fraction of slots occupied.
    pub fn load_factor(&self) -> f64 {
        self.map.load_factor()
    }

    /// Bytes used by buckets, stripes, and counters.
    pub fn memory_bytes(&self) -> usize {
        self.map.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_configs() -> Vec<(&'static str, MemC3Config)> {
        let base = MemC3Config::baseline();
        vec![
            ("cuckoo", base),
            ("lock_later", base.plus_lock_later()),
            ("lock_later+bfs", base.plus_lock_later().plus_bfs()),
            (
                "lock_later+bfs+prefetch",
                base.plus_lock_later().plus_bfs().plus_prefetch(),
            ),
            ("tsx_glibc", base.with_lock(WriterLockKind::ElidedGlibc)),
            ("tsx_opt", base.with_lock(WriterLockKind::ElidedOptimized)),
            (
                "full_ladder_tsx",
                base.plus_lock_later()
                    .plus_bfs()
                    .plus_prefetch()
                    .with_lock(WriterLockKind::ElidedOptimized),
            ),
        ]
    }

    #[test]
    fn crud_under_every_config() {
        for (name, cfg) in all_configs() {
            let m: MemC3Cuckoo<u64, u64, 4> = MemC3Cuckoo::with_capacity(8192, cfg);
            for k in 0..500u64 {
                m.insert(k, k * 7).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
            assert_eq!(m.insert(5, 1), Err(InsertError::KeyExists), "{name}");
            for k in 0..500u64 {
                assert_eq!(m.get(&k), Some(k * 7), "{name} key {k}");
            }
            assert_eq!(m.len(), 500, "{name}");
            assert_eq!(m.remove(&10), Some(70), "{name}");
            assert_eq!(m.remove(&10), None, "{name}");
            assert!(m.update(&11, 1), "{name}");
            assert_eq!(m.get(&11), Some(1), "{name}");
            assert_eq!(m.len(), 499, "{name}");
        }
    }

    #[test]
    fn fills_to_high_occupancy_under_every_config() {
        for (name, cfg) in all_configs() {
            let m: MemC3Cuckoo<u64, u64, 4> = MemC3Cuckoo::with_capacity(1 << 11, cfg);
            let target = m.capacity() * 95 / 100;
            for k in 0..target as u64 {
                m.insert(k, k)
                    .unwrap_or_else(|e| panic!("{name} at {k}: {e}"));
            }
            for k in 0..target as u64 {
                assert_eq!(m.get(&k), Some(k), "{name} key {k}");
            }
        }
    }

    #[test]
    fn concurrent_writers_are_serialized_but_correct() {
        for (name, cfg) in [
            (
                "global",
                MemC3Config::baseline().plus_lock_later().plus_bfs(),
            ),
            (
                "elided",
                MemC3Config::baseline()
                    .plus_lock_later()
                    .plus_bfs()
                    .with_lock(WriterLockKind::ElidedOptimized),
            ),
        ] {
            let m: MemC3Cuckoo<u64, u64, 4> = MemC3Cuckoo::with_capacity(1 << 14, cfg);
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let m = &m;
                    s.spawn(move || {
                        for i in 0..2000u64 {
                            let key = t * 1_000_000 + i;
                            m.insert(key, key + 1).unwrap();
                        }
                    });
                }
            });
            assert_eq!(m.len(), 8000, "{name}");
            for t in 0..4u64 {
                for i in 0..2000u64 {
                    let key = t * 1_000_000 + i;
                    assert_eq!(m.get(&key), Some(key + 1), "{name} key {key}");
                }
            }
        }
    }

    #[test]
    fn elided_configs_report_stats() {
        let cfg = MemC3Config::baseline()
            .plus_lock_later()
            .plus_bfs()
            .with_lock(WriterLockKind::ElidedOptimized);
        let m: MemC3Cuckoo<u64, u64, 4> = MemC3Cuckoo::with_capacity(4096, cfg);
        for k in 0..1000u64 {
            m.insert(k, k).unwrap();
        }
        let stats = m.htm_stats().expect("elided table has stats");
        assert!(stats.commits + stats.fallbacks >= 1000);
        let plain: MemC3Cuckoo<u64, u64, 4> =
            MemC3Cuckoo::with_capacity(4096, MemC3Config::baseline());
        assert!(plain.htm_stats().is_none());
    }

    #[test]
    fn unlocked_single_thread_mode() {
        for search in [SearchKind::Dfs, SearchKind::Bfs] {
            let mut cfg = MemC3Config::baseline();
            cfg.search = search;
            cfg.prefetch = search == SearchKind::Bfs;
            let mut m: MemC3Cuckoo<u64, u64, 4> = MemC3Cuckoo::with_capacity(1 << 11, cfg);
            let target = m.capacity() * 95 / 100;
            for k in 0..target as u64 {
                m.insert_unlocked(k, k * 3)
                    .unwrap_or_else(|e| panic!("{search:?} at {k}: {e}"));
            }
            assert_eq!(
                m.insert_unlocked(0, 9),
                Err(InsertError::KeyExists),
                "{search:?}"
            );
            for k in 0..target as u64 {
                assert_eq!(m.get(&k), Some(k * 3), "{search:?} key {k}");
            }
        }
    }

    #[test]
    fn spinlock_guards() {
        let l = SpinLock::new();
        {
            let _g = l.lock();
            assert!(l.is_locked());
        }
        assert!(!l.is_locked());
    }
}
