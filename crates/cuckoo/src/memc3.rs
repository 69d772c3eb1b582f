//! The MemC3 baseline: optimistic multi-reader / *single*-writer cuckoo
//! hashing (paper §4.2), with knobs for every step of the factor analysis.
//!
//! [`MemC3Cuckoo`] is the table the paper starts from: optimistic
//! lock-free reads (version-striped, identical to cuckoo+'s) but writers
//! serialized through one global lock. Its [`MemC3Config`] reproduces the
//! cumulative optimization ladder of Figure 5:
//!
//! | figure label      | config                                            |
//! |-------------------|---------------------------------------------------|
//! | `cuckoo`          | [`MemC3Config::baseline`] — Algorithm 1: DFS search *inside* the critical section |
//! | `+lock later`     | `.plus_lock_later()` — Algorithm 2: search first, lock for validate-execute only |
//! | `+BFS`            | `.plus_bfs()` — breadth-first path search          |
//! | `+prefetch`       | `.plus_prefetch()` — prefetch the BFS frontier     |
//! | `+TSX-glibc`      | `.with_lock(WriterLockKind::ElidedGlibc)`          |
//! | `+TSX*`           | `.with_lock(WriterLockKind::ElidedOptimized)`      |
//!
//! The lock kinds map the global spinlock onto the simulated-HTM elision
//! wrappers of the [`htm`] crate; critical sections run through
//! [`htm::MemCtx`] so elided execution gets genuine conflict detection.

use crate::core::{PlainStore, WriteCtx};
use crate::counter::ShardedCounter;
use crate::crit::{self, CritOutcome};
use crate::error::InsertError;
use crate::hash::{key_slots, DefaultHashBuilder, KeySlots};
use crate::raw::RawTable;
use crate::search::{self, dfs, EvictionPolicy, SearchScratch};
use crate::stats::{PathStats, PathStatsSnapshot, TableMetrics};
use crate::sync::{LockStripes, SpinLock, DEFAULT_STRIPES};
use crate::sync2::atomic::AtomicU64;
use crate::DEFAULT_MAX_SEARCH_SLOTS;
use core::hash::{BuildHasher, Hash};
use htm::{
    DirectCtx, ElidedLock, ElisionConfig, ExecCtx, HtmDomain, MemCtx, Plain, StatsSnapshot,
};
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
    /// Kick-out eviction policy for [`SearchKind::Bfs`] configurations:
    /// `Bfs` keeps the ladder's plain breadth-first search, while
    /// `RandomWalk`/`Hybrid` substitute the high-density planners for
    /// A/B factor analysis. Ignored by [`SearchKind::Dfs`] rungs (DFS
    /// *is* a legacy random walk; the ladder keeps it verbatim).
    pub eviction: EvictionPolicy,
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
            eviction: EvictionPolicy::Bfs,
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

    /// Selects the kick-out eviction policy (BFS configurations only).
    pub fn with_eviction(mut self, policy: EvictionPolicy) -> Self {
        self.eviction = policy;
        self
    }
}

impl Default for MemC3Config {
    fn default() -> Self {
        Self::baseline()
    }
}

enum WriterLock {
    Spin(SpinLock),
    Elided(ElidedLock),
}

/// Optimistic multi-reader/single-writer cuckoo table (MemC3 baseline).
pub struct MemC3Cuckoo<K, V, const B: usize = 4, S = DefaultHashBuilder> {
    raw: RawTable<K, V, B>,
    stripes: LockStripes,
    hash_builder: S,
    count: ShardedCounter,
    config: MemC3Config,
    writer: WriterLock,
    path_stats: PathStats,
    /// The path executor's displacement count. Write-only here: this
    /// table has no fuzzy `scan` to validate against it.
    displacements: AtomicU64,
    /// Boxed: keeps the read path's fields (`raw`, `stripes`) densely
    /// packed instead of interleaved with ~400 B of counters.
    table_metrics: Box<TableMetrics>,
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
        MemC3Cuckoo {
            raw: RawTable::with_capacity(capacity),
            stripes: LockStripes::new(config.n_stripes),
            hash_builder: hasher,
            count: ShardedCounter::new(),
            config,
            writer,
            path_stats: PathStats::new(),
            displacements: AtomicU64::new(0),
            table_metrics: Box::new(TableMetrics::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MemC3Config {
        &self.config
    }

    /// Slow-path statistics: searches, path executions, stale paths.
    pub fn path_stats(&self) -> PathStatsSnapshot {
        self.path_stats.snapshot()
    }

    /// The hot-path metrics block (read retries / lock fallbacks).
    pub fn metrics(&self) -> &TableMetrics {
        &self.table_metrics
    }

    /// Appends this table's full observability sample set.
    pub fn metric_samples(&self, out: &mut Vec<metrics::Sample>) {
        self.table_metrics.collect(&self.stripes.lock_stats(), &self.path_stats.snapshot(), out);
    }

    /// Zeroes every metric family (lock, path, and table counters).
    pub fn reset_metrics(&self) {
        self.table_metrics.reset();
        self.path_stats.reset();
        self.stripes.reset_lock_stats();
    }

    /// Transactional statistics when running elided, else `None`.
    pub fn htm_stats(&self) -> Option<StatsSnapshot> {
        match &self.writer {
            WriterLock::Spin(_) => None,
            WriterLock::Elided(l) => Some(l.stats().snapshot()),
        }
    }

    #[inline]
    fn slots_of(&self, key: &K) -> KeySlots {
        key_slots(&self.hash_builder, key, self.raw.mask())
    }

    /// This table's parameters for the shared write core.
    fn write_ctx(&self) -> WriteCtx<'_, S> {
        WriteCtx {
            stripes: &self.stripes,
            hash_builder: &self.hash_builder,
            count: &self.count,
            metrics: &self.table_metrics,
            displacements: &self.displacements,
            eviction: self.config.eviction,
            max_search_slots: self.config.max_search_slots,
            prefetch: self.config.prefetch,
        }
    }

    /// The configured find-path step, run with no lock held: leaves a
    /// cuckoo path for `ks` in `scratch.path`, or reports none.
    fn find_path(&self, ks: KeySlots, scratch: &mut SearchScratch) -> bool {
        match self.config.search {
            SearchKind::Bfs => self.write_ctx().plan_and_record(&self.raw, ks, scratch).is_ok(),
            SearchKind::Dfs => {
                dfs::search(&self.raw, ks.i1, ks.i2, self.config.max_search_slots, scratch).is_ok()
            }
        }
    }

    /// Lock-free optimistic lookup (identical protocol to cuckoo+).
    #[inline]
    pub fn get(&self, key: &K) -> Option<V> {
        crate::read::get(&self.raw, &self.stripes, &self.table_metrics, self.slots_of(key), key)
    }

    /// Lock-free presence check.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        crate::read::contains(&self.raw, &self.stripes, &self.table_metrics, self.slots_of(key), key)
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
    pub fn insert(&self, key: K, val: V) -> Result<(), InsertError> {
        let ks = self.slots_of(&key);
        search::with_scratch(|scratch| {
            if self.config.lock_later {
                self.insert_lock_later(ks, key, val, scratch)
            } else {
                self.insert_algorithm1(ks, key, val, scratch)
            }
        })
    }

    /// Algorithm 1: the whole insert (duplicate check, DFS search, path
    /// execution) inside one critical section.
    fn insert_algorithm1(
        &self,
        ks: KeySlots,
        key: K,
        val: V,
        scratch: &mut SearchScratch,
    ) -> Result<(), InsertError> {
        let mut watchdog = 0u64;
        loop {
            watchdog += 1;
            debug_assert!(watchdog < 1_000_000, "insert_algorithm1 livelock: ks={ks:?}");
            let out = self.run_crit(|ctx| {
                crit::insert_critical_full(
                    ctx,
                    &self.raw,
                    &self.stripes,
                    ks,
                    key,
                    val,
                    self.config.max_search_slots,
                    scratch,
                )
            });
            match out {
                CritOutcome::Inserted => {
                    self.count.add(ks.i1, 1);
                    return Ok(());
                }
                CritOutcome::Exists => return Err(InsertError::KeyExists),
                CritOutcome::SearchFull => return Err(InsertError::TableFull),
                // The in-section path cannot be stale under the global
                // lock, but an elided attempt that lost a race and fell
                // back may see it: just go around.
                CritOutcome::PathStale | CritOutcome::NeedPath => {}
            }
        }
    }

    /// Algorithm 2: search with no lock held, lock only for the
    /// validate-and-execute (§4.3.1).
    fn insert_lock_later(
        &self,
        ks: KeySlots,
        key: K,
        val: V,
        scratch: &mut SearchScratch,
    ) -> Result<(), InsertError> {
        let mut stale_retries = 0usize;
        let mut watchdog = 0u64;
        loop {
            watchdog += 1;
            debug_assert!(
                watchdog < 1_000_000,
                "insert_lock_later livelock: ks={ks:?} stale={stale_retries}"
            );
            // Fast availability probe (Algorithm 2 lines 3-8): skip the
            // search when a candidate bucket has room.
            let available =
                !self.raw.meta(ks.i1).is_full() || !self.raw.meta(ks.i2).is_full();
            if !available {
                self.path_stats.record_search();
                if !self.find_path(ks, scratch) {
                    return Err(InsertError::TableFull);
                }
            } else {
                scratch.path.clear();
            }

            let path = std::mem::take(&mut scratch.path);
            let out = self.run_crit(|ctx| {
                crit::insert_critical(
                    ctx,
                    &self.raw,
                    &self.stripes,
                    ks,
                    key,
                    val,
                    if path.is_empty() { None } else { Some(&path) },
                )
            });
            let had_path = !path.is_empty();
            scratch.path = path;

            if had_path {
                self.path_stats
                    .record_execution(out == CritOutcome::PathStale);
            }
            match out {
                CritOutcome::Inserted => {
                    self.count.add(ks.i1, 1);
                    return Ok(());
                }
                CritOutcome::Exists => return Err(InsertError::KeyExists),
                CritOutcome::NeedPath => { /* probe raced; search next round */ }
                CritOutcome::PathStale => {
                    stale_retries += 1;
                    if stale_retries > self.config.path_retries {
                        // Deterministic completion: search inside the
                        // critical section once.
                        return self.insert_algorithm1(ks, key, val, scratch);
                    }
                }
                CritOutcome::SearchFull => unreachable!("no in-section search ran"),
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        let ks = self.slots_of(key);
        let removed =
            self.run_crit(|ctx| crit::remove_key(ctx, &self.raw, &self.stripes, ks, key));
        if removed.is_some() {
            self.count.add(ks.i1, -1);
        }
        removed
    }

    /// Replaces the value of an existing key.
    pub fn update(&self, key: &K, val: V) -> bool {
        let ks = self.slots_of(key);
        self.run_crit(|ctx| crit::update_key(ctx, &self.raw, &self.stripes, ks, key, val))
    }

    /// Single-threaded insert with all locking disabled (Figure 5a's
    /// baseline mode); exclusive access via `&mut self`.
    pub fn insert_unlocked(&mut self, key: K, val: V) -> Result<(), InsertError> {
        let ks = self.slots_of(&key);
        search::with_scratch(|scratch| {
            // SAFETY: `&mut self` — exclusive access to the whole table.
            unsafe {
                self.write_ctx().insert_exclusive::<PlainStore, K, V, B>(
                    &self.raw,
                    ks,
                    key,
                    val,
                    false,
                    scratch,
                    |s| self.find_path(ks, s),
                )
            }
        })
        .settle(&self.count, ks)
        .unwrap_or(Err(InsertError::TableFull))
        .map(|_| ())
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.count.sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.raw.total_slots()
    }

    /// Fraction of slots occupied.
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.capacity() as f64
    }

    /// Bytes used by buckets, stripes, and counters.
    pub fn memory_bytes(&self) -> usize {
        self.raw.memory_bytes() + self.stripes.memory_bytes() + self.count.memory_bytes()
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
            (
                "tsx_glibc",
                base.with_lock(WriterLockKind::ElidedGlibc),
            ),
            (
                "tsx_opt",
                base.with_lock(WriterLockKind::ElidedOptimized),
            ),
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
                m.insert(k, k).unwrap_or_else(|e| panic!("{name} at {k}: {e}"));
            }
            for k in 0..target as u64 {
                assert_eq!(m.get(&k), Some(k), "{name} key {k}");
            }
        }
    }

    #[test]
    fn concurrent_writers_are_serialized_but_correct() {
        for (name, cfg) in [
            ("global", MemC3Config::baseline().plus_lock_later().plus_bfs()),
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
}
