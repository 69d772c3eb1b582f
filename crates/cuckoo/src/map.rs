//! A libcuckoo-style general-purpose concurrent map (paper §7).
//!
//! The paper's research table trades generality for speed: fixed-size
//! [`Plain`](crate::Plain) keys and values, no growth. §7 describes the
//! production descendant, libcuckoo: "an easy-to-use interface that
//! supports variable length key value pairs of arbitrary types, including
//! those with pointers or strings, provides iterators, and dynamically
//! resizes itself as it fills. The price of this generality is that it
//! uses locks for reads as well as writes, so that pointer-valued items
//! can be safely dereferenced."
//!
//! [`CuckooMap`] is that design:
//!
//! - arbitrary `K: Hash + Eq`, `V` (owned, dropped correctly);
//! - **reads take the bucket-pair stripe lock** (no torn-value hazard, so
//!   no `Plain` bound; 5–20 % slower than optimistic reads per the
//!   paper);
//! - inserts still use lock-free BFS path discovery — the search touches
//!   only atomic metadata (occupancy bitmaps and tags), never keys — with
//!   per-displacement pair-locked validated execution, exactly like
//!   `cuckoo+`;
//! - **incremental expansion** (default): when a path search fails, a
//!   doubled table is allocated and buckets migrate in fixed-size chunks
//!   under their stripe locks only. Writers help-migrate the chunks
//!   covering their own candidate buckets before operating (and sweep one
//!   extra chunk so the tail completes); readers route through a
//!   two-table lookup gated by per-chunk migration watermarks and never
//!   block on migration. No operation ever stalls for a whole-table
//!   rehash. [`ResizeMode::StopTheWorld`] keeps the old behavior — the
//!   table doubles under the full-stripe lock — as a baseline and
//!   fallback.
//! - **quiescence-based reclamation**: retired bucket arrays go to a
//!   graveyard stamped with an epoch from a striped
//!   [`EpochRegistry`]; they are freed once every in-flight operation
//!   pinned before the retirement has finished, so in-flight lock-free
//!   searches never dereference freed memory (their stale paths simply
//!   fail validation) and long-running processes no longer leak one
//!   table per doubling.

use crate::core::{claim, locked_empty_slot, PlainStore, WriteCtx, MULTIGET_GROUP};
use crate::counter::ShardedCounter;
use crate::error::{InsertError, UpsertOutcome};
use crate::hash::{hash_of, key_slots, slots_from_hash, DefaultHashBuilder, KeySlots};
use crate::raw::RawTable;
use crate::read::{probe, read_group, Locked, ReadProtocol};
use crate::search::{self, EvictionPolicy};
use crate::sync::{EpochRegistry, LockStripes, DEFAULT_STRIPES};
use crate::stats::TableMetrics;
use crate::DEFAULT_MAX_SEARCH_SLOTS;
use core::hash::{BuildHasher, Hash};
use crate::sync2::atomic::{AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use crate::sync2::Mutex;

/// How [`CuckooMap`] grows when a path search fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeMode {
    /// Chunked, cooperative migration: operations keep running against an
    /// old/new table pair while buckets move a chunk at a time. The
    /// default.
    Incremental,
    /// The classic behavior: take every stripe lock and rehash the whole
    /// table in one multi-millisecond critical section. Kept as the
    /// measurable baseline for the `resize_latency` bench.
    StopTheWorld,
}

/// Buckets migrated per claimed chunk. Bounds the pause any single
/// operation can absorb while helping: one chunk is at most
/// `MIGRATION_CHUNK * B` entry moves, each under briefly-held stripe
/// locks. Kept small — a write that lands on a not-yet-migrated bucket
/// must drive that bucket's chunk to DONE before it can proceed, so the
/// chunk *is* the write-latency tax during an expansion; at 4 buckets
/// (≤32 entries, single-digit microseconds) the tax stays well under
/// typical arrival gaps, while a near-full doubling still finishes
/// within a few thousand writes.
const MIGRATION_CHUNK: usize = 4;

/// One in this many writes (that land during a migration) volunteers to
/// sweep an extra chunk beyond its own mandatory ones. See
/// [`CuckooMap::writer_table`].
const HELP_SWEEP_INTERVAL: u64 = 8;

/// Soft bound on retired allocations parked in the graveyard before a
/// retire forces a drain attempt. Purely advisory: entries still pinned
/// by in-flight operations survive the drain regardless.
const GRAVEYARD_SOFT_CAP: usize = 4;

/// Chunk watermark states: `PENDING → BUSY → DONE`, monotonic.
const CHUNK_PENDING: u8 = 0;
const CHUNK_BUSY: u8 = 1;
const CHUNK_DONE: u8 = 2;

/// Shared descriptor of one in-flight incremental expansion.
///
/// `storage` keeps pointing at `old` until the last chunk completes, so
/// a thread that observed no migration still reads a coherent (if
/// stale) table pointer; every path re-validates under its stripe locks.
struct Migration<K, V, const B: usize> {
    /// The table being drained (== `storage` until finalization).
    old: *mut RawTable<K, V, B>,
    /// The doubled table being filled.
    new: *mut RawTable<K, V, B>,
    /// Per-chunk watermark; index = old bucket index / [`MIGRATION_CHUNK`].
    chunk_states: Box<[AtomicU8]>,
    /// Number of chunks in state `DONE`; the thread that completes the
    /// last one finalizes the migration.
    chunks_done: AtomicUsize,
    /// Rotating start point for cooperative sweeps, so helpers spread out
    /// instead of contending on the same chunk.
    next_hint: AtomicUsize,
}

impl<K, V, const B: usize> Migration<K, V, B> {
    fn n_chunks(&self) -> usize {
        self.chunk_states.len()
    }

    #[inline]
    fn chunk_of(bucket: usize) -> usize {
        bucket / MIGRATION_CHUNK
    }

    #[inline]
    fn chunk_done(&self, chunk: usize) -> bool {
        // ORDERING: migration.chunk-poll
        self.chunk_states[chunk].load(Ordering::Acquire) == CHUNK_DONE
    }
}

/// A retired allocation awaiting quiescence.
enum RetiredAlloc<K, V, const B: usize> {
    Table(Box<RawTable<K, V, B>>),
    Desc(Box<Migration<K, V, B>>),
}

struct Retired<K, V, const B: usize> {
    /// Epoch stamped at retirement; freeable once
    /// `EpochRegistry::min_active()` exceeds it.
    epoch: u64,
    alloc: RetiredAlloc<K, V, B>,
}

impl<K, V, const B: usize> Retired<K, V, B> {
    fn memory_bytes(&self) -> usize {
        match &self.alloc {
            RetiredAlloc::Table(t) => t.memory_bytes(),
            RetiredAlloc::Desc(d) => d.chunk_states.len(),
        }
    }
}

/// A dynamically-resizing concurrent cuckoo map for arbitrary key/value
/// types (locked reads).
///
/// # Examples
///
/// ```
/// use cuckoo::CuckooMap;
///
/// let m: CuckooMap<String, Vec<u32>> = CuckooMap::new();
/// m.insert("a".into(), vec![1, 2])?;
/// m.modify(&"a".to_string(), |v| v.push(3));
/// assert_eq!(m.get_with(&"a".to_string(), |v| v.len()), Some(3));
/// # Ok::<(), cuckoo::InsertError>(())
/// ```
pub struct CuckooMap<K, V, const B: usize = 8, S = DefaultHashBuilder> {
    /// Current bucket array. During an incremental migration this stays
    /// the *old* table until the last chunk completes; swapped under
    /// `resize_lock` (plus all stripes in the stop-the-world paths).
    storage: AtomicPtr<RawTable<K, V, B>>,
    /// In-flight incremental expansion, or null. Transitions
    /// null → descriptor (begin) → null (finalize/emergency), all
    /// serialized by `resize_lock`.
    migration: AtomicPtr<Migration<K, V, B>>,
    /// Serializes begin/finalize/emergency so exactly one resolution of
    /// each migration wins. Always acquired *before* any stripe lock.
    resize_lock: Mutex<()>,
    resize_mode: ResizeMode,
    /// How the insert slow path plans kick-out eviction (default BFS).
    eviction: EvictionPolicy,
    stripes: LockStripes,
    hash_builder: S,
    count: ShardedCounter,
    max_search_slots: usize,
    /// Tracks in-flight operations so retired allocations are freed only
    /// after every operation that could hold their pointer has finished.
    epochs: EpochRegistry,
    /// Retired allocations awaiting quiescence. Boxed so raced pointers
    /// into a retired table stay stable when the vector reallocates.
    graveyard: Mutex<Vec<Retired<K, V, B>>>,
    /// Write counter sampling which migration-era writes volunteer an
    /// extra chunk sweep (see [`HELP_SWEEP_INTERVAL`]).
    help_tick: AtomicU64,
    /// Total cuckoo-path displacement steps ever executed. Correctness-
    /// bearing (not a resettable metric): [`scan`](Self::scan) validates
    /// it to detect an entry hopping between stripes mid-scan, which
    /// would otherwise let a live key escape a fuzzy snapshot.
    displacements: AtomicU64,
    /// Observability counters (migration progress, graveyard depth).
    /// Boxed so the counters don't dilute the struct's hot cache lines.
    table_metrics: Box<TableMetrics>,
}

// SAFETY: the map owns its entries (moving the map moves them) and
// synchronizes all shared access through the stripe locks; `K`/`V` cross
// threads both by move (displacement, expansion) and by reference
// (lookups), hence `Send + Sync` on both. The hasher is shared by
// reference.
unsafe impl<K: Send + Sync, V: Send + Sync, const B: usize, S: Send + Sync> Send
    for CuckooMap<K, V, B, S>
{
}
// SAFETY: as above.
unsafe impl<K: Send + Sync, V: Send + Sync, const B: usize, S: Send + Sync> Sync
    for CuckooMap<K, V, B, S>
{
}

impl<K, V, const B: usize> CuckooMap<K, V, B, DefaultHashBuilder>
where
    K: Hash + Eq,
{
    /// Creates a map with at least `capacity` slots.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_hasher(capacity, DefaultHashBuilder::new())
    }

    /// Creates an empty map with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates a map with an explicit [`ResizeMode`] (the default is
    /// [`ResizeMode::Incremental`]).
    pub fn with_capacity_and_mode(capacity: usize, mode: ResizeMode) -> Self {
        let mut map = Self::with_capacity(capacity);
        map.resize_mode = mode;
        map
    }

    /// Creates a map with an explicit [`EvictionPolicy`] for the insert
    /// slow path (the default is [`EvictionPolicy::Bfs`]).
    pub fn with_capacity_and_eviction(capacity: usize, policy: EvictionPolicy) -> Self {
        let mut map = Self::with_capacity(capacity);
        map.eviction = policy;
        map
    }
}

impl<K, V, const B: usize> Default for CuckooMap<K, V, B, DefaultHashBuilder>
where
    K: Hash + Eq,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, const B: usize, S> CuckooMap<K, V, B, S>
where
    K: Hash + Eq,
    S: BuildHasher,
{
    /// Creates a map with an explicit hasher.
    pub fn with_capacity_and_hasher(capacity: usize, hasher: S) -> Self {
        let raw = Box::new(RawTable::with_capacity(capacity));
        CuckooMap {
            storage: AtomicPtr::new(Box::into_raw(raw)),
            migration: AtomicPtr::new(std::ptr::null_mut()),
            resize_lock: Mutex::new(()),
            resize_mode: ResizeMode::Incremental,
            eviction: EvictionPolicy::Bfs,
            stripes: LockStripes::new(DEFAULT_STRIPES),
            hash_builder: hasher,
            count: ShardedCounter::new(),
            max_search_slots: DEFAULT_MAX_SEARCH_SLOTS,
            epochs: EpochRegistry::new(),
            graveyard: Mutex::new(Vec::new()),
            help_tick: AtomicU64::new(0),
            displacements: AtomicU64::new(0),
            table_metrics: Box::new(TableMetrics::new()),
        }
    }

    /// How this map resizes.
    pub fn resize_mode(&self) -> ResizeMode {
        self.resize_mode
    }

    /// How the insert slow path plans kick-out eviction.
    pub fn eviction(&self) -> EvictionPolicy {
        self.eviction
    }

    /// Whether an incremental expansion is currently in flight.
    pub fn is_migrating(&self) -> bool {
        !self.migration.load(Ordering::SeqCst).is_null()
    }

    /// The observability counters (migration progress, graveyard depth).
    pub fn metrics(&self) -> &TableMetrics {
        &self.table_metrics
    }

    /// Appends this map's metric sample set under the stable `cuckoo_*`
    /// exposition names. This map's reads are lock-based (no seqlock
    /// retries) and it keeps no path stats, so those families report
    /// zero; the migration and lock-stripe families are live.
    pub fn metric_samples(&self, out: &mut Vec<metrics::Sample>) {
        self.table_metrics.collect(
            &self.stripes.lock_stats(),
            &crate::stats::PathStatsSnapshot::default(),
            out,
        );
    }

    /// Resets every metric family this map exports (not atomic with
    /// respect to concurrent operations).
    pub fn reset_metrics(&self) {
        self.table_metrics.reset();
        self.stripes.reset_lock_stats();
    }

    /// The current bucket array.
    ///
    /// The reference is only guaranteed live while the caller holds an
    /// epoch pin (every public operation takes one): retired arrays are
    /// freed once the registry proves no pinned operation can still hold
    /// them.
    #[inline]
    fn current(&self) -> &RawTable<K, V, B> {
        // SAFETY: callers hold an epoch pin (or `&mut self`), so the
        // loaded pointer cannot be reclaimed while in use.
        unsafe { &*self.storage.load(Ordering::SeqCst) }
    }

    #[inline]
    fn is_current(&self, raw: &RawTable<K, V, B>) -> bool {
        std::ptr::eq(self.storage.load(Ordering::SeqCst), raw)
    }

    /// Normal-path validation, checked *inside* the stripe locks: `raw`
    /// is still the live table and no migration has begun. The second
    /// clause is load-bearing — once a migration starts, buckets drain
    /// old → new, and a write landing in an already-migrated old bucket
    /// (or a read trusting one) would be lost.
    #[inline]
    fn table_is_stable(&self, raw: &RawTable<K, V, B>) -> bool {
        self.is_current(raw) && self.migration.load(Ordering::SeqCst).is_null()
    }

    /// Migration-path validation, checked inside the stripe locks on the
    /// *new* table: the migration `m` is still in flight, or it finalized
    /// and `m`'s new table became current (operating on it is then just a
    /// normal-path operation). A different live migration or an emergency
    /// rebuild invalidates the caller's view.
    ///
    /// # Safety
    ///
    /// `m` must be a descriptor the caller observed while pinned.
    #[inline]
    fn migration_still_targets(&self, m: *mut Migration<K, V, B>) -> bool {
        let cur = self.migration.load(Ordering::SeqCst);
        if cur == m {
            return true;
        }
        if !cur.is_null() {
            return false;
        }
        // SAFETY: caller is pinned and observed `m` live, so the
        // descriptor is at worst retired-but-not-freed.
        let mig = unsafe { &*m };
        self.storage.load(Ordering::SeqCst) == mig.new
    }

    /// Whether a writer's view `(raw, m)` from
    /// [`writer_table`](Self::writer_table) is still the table to write
    /// to; checked inside the stripe locks.
    #[inline]
    fn view_valid(&self, raw: &RawTable<K, V, B>, m: *mut Migration<K, V, B>) -> bool {
        if m.is_null() {
            self.table_is_stable(raw)
        } else {
            self.migration_still_targets(m)
        }
    }

    /// This map's parameters for the shared write core.
    #[inline]
    fn write_ctx(&self) -> WriteCtx<'_, S> {
        WriteCtx {
            stripes: &self.stripes,
            hash_builder: &self.hash_builder,
            count: &self.count,
            metrics: &self.table_metrics,
            displacements: &self.displacements,
            eviction: self.eviction,
            max_search_slots: self.max_search_slots,
            prefetch: true,
        }
    }

    /// Runs `f` on the table a writer must operate on for hash `h`, with
    /// the candidate pair locked and the view validated under that lock.
    /// Caller must hold an epoch pin.
    fn with_locked_pair<R>(
        &self,
        h: u64,
        f: impl FnOnce(&RawTable<K, V, B>, KeySlots) -> R,
    ) -> R {
        loop {
            let (raw, m) = self.writer_table(h);
            let ks = slots_from_hash(h, raw.mask());
            let _g = self.stripes.lock_pair(ks.i1, ks.i2);
            if self.view_valid(raw, m) {
                return f(raw, ks);
            }
        }
    }

    /// Looks up `key`, applying `f` to the value under the lock.
    ///
    /// Readers never help (or wait for) a migration: during one they
    /// check the old table, then the new — correct because entries only
    /// ever move old → new, atomically under both tables' stripe locks.
    pub fn get_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        let _pin = self.epochs.pin();
        let mut f = Some(f);
        // Hash exactly once: retries and the two-table migration path
        // re-derive per-mask slots from this hash instead of rehashing.
        self.visit_hashed(hash_of(&self.hash_builder, key), key, |v| {
            v.map(f.take().expect("a locked read shows its key once"))
        })
    }

    /// One [`Locked`] read of `key` in `raw`: `f` sees the value (or the
    /// miss) under the pair lock; `None` when `valid` failed under it.
    #[inline]
    fn read_in<T>(
        &self,
        raw: &RawTable<K, V, B>,
        h: u64,
        key: &K,
        valid: impl Fn() -> bool,
        mut f: impl FnMut(Option<&V>) -> T,
    ) -> Option<T> {
        let p = Locked { raw, stripes: &self.stripes, valid };
        p.read_one(slots_from_hash(h, raw.mask()), key, |at| {
            // SAFETY: pair lock held; the slot is occupied.
            f(at.map(|(bi, s)| unsafe { &*raw.bucket(bi).val_ptr(s) }))
        })
    }

    /// The single-key read, by hash: shows `f` the value, or the miss,
    /// exactly once, under a pair lock of the table that settles it.
    /// Caller must hold an epoch pin.
    fn visit_hashed<R>(&self, h: u64, key: &K, mut f: impl FnMut(Option<&V>) -> R) -> R {
        loop {
            let m = self.migration.load(Ordering::SeqCst);
            let mut raw = self.current();
            if !m.is_null() {
                // SAFETY: (all three derefs) pinned; the descriptor and
                // both tables outlive this operation even if the
                // migration resolves.
                let mig = unsafe { &*m };
                let old = unsafe { &*mig.old };
                raw = unsafe { &*mig.new };
                let ks_old = slots_from_hash(h, old.mask());
                if !(mig.chunk_done(Migration::<K, V, B>::chunk_of(ks_old.i1))
                    && mig.chunk_done(Migration::<K, V, B>::chunk_of(ks_old.i2)))
                {
                    // Chunk movers need these stripes too, so a hit is
                    // stable; a miss means the entry is in new or absent,
                    // and can never move back, so new settles it.
                    let still_migrating = || self.migration.load(Ordering::SeqCst) == m;
                    match self.read_in(old, h, key, still_migrating, |v| v.map(|v| f(Some(v)))) {
                        None => continue, // emergency rebuild resolved it
                        Some(Some(shown)) => return shown,
                        Some(None) => {}
                    }
                }
            }
            // `None`: expanded, or a migration began or resolved, while
            // locking.
            if let Some(shown) = self.read_in(raw, h, key, || self.view_valid(raw, m), &mut f) {
                return shown;
            }
        }
    }

    /// The batched lookup: calls `f(i, value)` exactly once per key, in
    /// order, with what [`get_with`](Self::get_with) would show for
    /// `keys[i]` — under that key's bucket lock, so `f` must not call
    /// back into the map. Groups of `MULTIGET_GROUP` (8) keys are
    /// software-pipelined — all hashes computed up front, candidate
    /// metadata then tag-hit buckets prefetched — so the per-key cache
    /// misses overlap before the (serializing) per-key lock
    /// acquisitions. A key that finds a migration in flight, or the
    /// table swapped mid-group, falls back to the two-table single-key
    /// path on its own.
    pub fn visit_many(&self, keys: &[K], mut f: impl FnMut(usize, Option<&V>)) {
        let _pin = self.epochs.pin();
        let mut hashes = [0u64; MULTIGET_GROUP];
        let mut ks_buf = [KeySlots { i1: 0, i2: 0, tag: 1 }; MULTIGET_GROUP];
        for (g, group) in keys.chunks(MULTIGET_GROUP).enumerate() {
            let raw = self.current();
            for (j, key) in group.iter().enumerate() {
                hashes[j] = hash_of(&self.hash_builder, key);
                ks_buf[j] = slots_from_hash(hashes[j], raw.mask());
            }
            // Mid-migration `valid` fails for the whole group: two-table
            // lookups take locks per table anyway, and the single-key
            // path already orders those.
            let p = Locked { raw, stripes: &self.stripes, valid: || self.table_is_stable(raw) };
            let first = g * MULTIGET_GROUP;
            let failed = read_group(&p, &self.table_metrics, &ks_buf[..group.len()], group, |j, at| {
                // SAFETY: pair lock held; the slot is occupied.
                f(first + j, at.map(|(bi, s)| unsafe { &*raw.bucket(bi).val_ptr(s) }))
            });
            // A table that failed `valid` stays failed, so the keys left
            // are the group's tail and `f` still sees every key in order.
            debug_assert!(failed == 0 || (failed.trailing_zeros() + failed.count_ones()) as usize == group.len());
            for j in (0..group.len()).filter(|j| failed & (1 << j) != 0) {
                self.visit_hashed(hashes[j], &group[j], |v| f(first + j, v));
            }
        }
    }

    /// Batched [`get_with`](Self::get_with): one result per key, in
    /// order (`None` = miss).
    pub fn get_with_many<R>(&self, keys: &[K], mut f: impl FnMut(&V) -> R) -> Vec<Option<R>> {
        let mut out = Vec::with_capacity(keys.len());
        self.visit_many(keys, |_, v| out.push(v.map(&mut f)));
        out
    }

    /// Batched [`get`](Self::get): one cloned value per key, in order.
    pub fn get_many(&self, keys: &[K]) -> Vec<Option<V>>
    where
        V: Clone,
    {
        self.get_with_many(keys, V::clone)
    }

    /// [`get_many`](Self::get_many) into a caller-provided buffer
    /// (cleared first), so steady-state batched readers reuse one
    /// allocation.
    pub fn get_many_into(&self, keys: &[K], out: &mut Vec<Option<V>>)
    where
        V: Clone,
    {
        out.clear();
        out.reserve(keys.len());
        self.visit_many(keys, |_, v| out.push(v.cloned()));
    }

    /// Looks up `key`, returning a clone of its value.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, V::clone)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get_with(key, |_| ()).is_some()
    }

    /// Inserts `key → val`; `Err(KeyExists)` leaves the old value.
    ///
    /// Expands the table automatically instead of returning
    /// `Err(TableFull)`.
    pub fn insert(&self, key: K, val: V) -> Result<(), InsertError> {
        self.insert_inner(key, val, false).map(|_| ())
    }

    /// Inserts or replaces, returning which happened.
    pub fn upsert(&self, key: K, val: V) -> UpsertOutcome {
        self.insert_inner(key, val, true)
            .expect("upsert cannot fail: expansion handles fullness")
    }

    /// Batched insert: one result per entry, in order, equivalent to
    /// calling [`insert`](Self::insert) per entry (duplicates within a
    /// batch included) — but groups of entries are software-pipelined
    /// (hash all + write-intent prefetch → one coalesced batch lock →
    /// in-order claim). Entries needing a cuckoo path search — or hitting
    /// an in-flight migration — fall back, in order, to the single-key
    /// insert.
    pub fn insert_many(
        &self,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> Vec<Result<(), InsertError>> {
        self.write_many(entries, false).into_iter().map(|r| r.map(|_| ())).collect()
    }

    /// Batched [`upsert`](Self::upsert): same pipeline and equivalence
    /// contract as [`insert_many`](Self::insert_many), reporting which of
    /// insert/update happened per entry. Never `Err` on this map
    /// (expansion handles fullness); the type matches
    /// `OptimisticCuckooMap::upsert_many`.
    pub fn upsert_many(
        &self,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> Vec<Result<UpsertOutcome, InsertError>> {
        self.write_many(entries, true)
    }

    fn write_many(
        &self,
        entries: impl IntoIterator<Item = (K, V)>,
        upsert: bool,
    ) -> Vec<Result<UpsertOutcome, InsertError>> {
        let _pin = self.epochs.pin();
        self.write_ctx().write_many::<PlainStore, K, V, B>(
            entries,
            upsert,
            || (!self.is_migrating()).then(|| self.current()),
            |raw| self.table_is_stable(raw),
            |key, val| self.insert_inner(key, val, upsert),
        )
    }

    /// Removes `key`, returning its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        let _pin = self.epochs.pin();
        self.with_locked_pair(hash_of(&self.hash_builder, key), |raw, ks| {
            let (bi, s) = probe::<PlainStore, K, V, B>(raw, ks, key)?;
            // SAFETY: pair lock held; slot occupied.
            let (_, v) = unsafe { raw.take_entry(bi, s) };
            self.count.add(bi, -1);
            Some(v)
        })
    }

    /// Replaces the value of an existing key, returning the old value.
    pub fn update(&self, key: &K, val: V) -> Option<V> {
        let _pin = self.epochs.pin();
        self.with_locked_pair(hash_of(&self.hash_builder, key), |raw, ks| {
            let (bi, s) = probe::<PlainStore, K, V, B>(raw, ks, key)?;
            // SAFETY: pair lock held; slot occupied.
            Some(std::mem::replace(unsafe { &mut *raw.bucket(bi).val_ptr(s) }, val))
        })
    }

    /// Writer-side migration checkpoint: when a migration is in flight,
    /// migrates (or waits for) the chunks covering `key`'s old-table
    /// buckets, occasionally sweeps one extra chunk so the tail
    /// completes without a dedicated thread, and returns the *new*
    /// table to operate on, with the migration it belongs to.
    ///
    /// A null migration means none is in flight, or the observed one
    /// resolved mid-checkpoint: operate on `current()`. Either way the
    /// caller validates the pair with [`view_valid`](Self::view_valid)
    /// under its stripe locks and loops on failure.
    fn writer_table(&self, h: u64) -> (&RawTable<K, V, B>, *mut Migration<K, V, B>) {
        let m = self.migration.load(Ordering::SeqCst);
        if m.is_null() {
            return (self.current(), m);
        }
        // SAFETY: caller is pinned; descriptor and tables stay live.
        let mig = unsafe { &*m };
        let old = unsafe { &*mig.old };
        let ks_old = slots_from_hash(h, old.mask());
        if !self.ensure_chunks_done(mig, m, ks_old.i1, ks_old.i2) {
            return (self.current(), std::ptr::null_mut());
        }
        // Voluntary helping is throttled: the mandatory own-chunk work
        // above already guarantees every write lands in the new table,
        // and random keys cover the chunk space on their own. Sweeping
        // on every write would put a whole extra chunk move on every
        // write's latency; sweeping on a sampled subset keeps the
        // common write at its baseline cost while still pushing the
        // migration tail (cold chunks no write happens to cover) to
        // completion even without a background sweeper.
        // ORDERING: advisory.relaxed — a sampling tick; only steers how
        // often this writer volunteers for a sweep.
        if self.help_tick.fetch_add(1, Ordering::Relaxed).is_multiple_of(HELP_SWEEP_INTERVAL) {
            self.help_sweep(mig, m, 1);
        }
        // SAFETY: the caller is pinned and `mig` was loaded from
        // `self.migration` under that pin, so the new table it points to
        // cannot be reclaimed before the returned borrow ends (epoch
        // ordering argument: DESIGN.md §5d).
        (unsafe { &*mig.new }, m)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.count.sum()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current slot capacity (doubles on expansion).
    pub fn capacity(&self) -> usize {
        self.current().total_slots()
    }

    /// Fraction of slots occupied.
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.capacity() as f64
    }

    /// Bytes used by the live bucket array, stripes, counters, epoch
    /// registry, any in-flight migration target, and any retired
    /// allocations still parked in the graveyard.
    pub fn memory_bytes(&self) -> usize {
        let _pin = self.epochs.pin();
        let graveyard: usize = self
            .graveyard
            .lock()
            .expect("graveyard mutex poisoned: a drain panicked mid-free")
            .iter()
            .map(|r| r.memory_bytes())
            .sum();
        let mut total = self.current().memory_bytes()
            + self.stripes.memory_bytes()
            + self.count.memory_bytes()
            + self.epochs.memory_bytes()
            + graveyard;
        let m = self.migration.load(Ordering::SeqCst);
        if !m.is_null() {
            // SAFETY: pinned; descriptor and its new table are live.
            let mig = unsafe { &*m };
            total += unsafe { &*mig.new }.memory_bytes() + mig.chunk_states.len();
        }
        total
    }

    /// Frees retired allocations unconditionally. Callers must guarantee
    /// no concurrent operations are in flight (hence `&mut self`).
    pub fn purge_retired(&mut self) {
        // `&mut self` proves no guard is live, so poison is the only
        // possible error; the retired tables are freed either way.
        self.graveyard
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }

    /// Visits every entry under the full-table lock.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let _pin = self.epochs.pin();
        let _g = self.lock_all_quiesced();
        let raw = self.current();
        for (bi, s) in raw.occupied_coords() {
            let b = raw.bucket(bi);
            // SAFETY: all stripes held; slots stable and occupied.
            unsafe { f(&*b.key_ptr(s), &*b.val_ptr(s)) };
        }
    }

    /// Acquires every stripe with no migration in flight, so all entries
    /// live in `current()`. A mid-flight migration is driven to
    /// completion first (entries would otherwise be split across the
    /// old/new pair); one that begins *after* we hold the stripes is
    /// harmless — no chunk can migrate until the guard drops, so
    /// `current()` still holds every entry.
    fn lock_all_quiesced(&self) -> crate::sync::AllGuard<'_> {
        loop {
            while self.help_migrate(usize::MAX) {
                crate::sync2::thread::yield_now();
            }
            let g = self.stripes.lock_all();
            if self.migration.load(Ordering::SeqCst).is_null() {
                return g;
            }
            drop(g);
        }
    }

    /// Claims and migrates up to `max_chunks` chunks of any in-flight
    /// incremental expansion. Returns whether a migration was active —
    /// so `while map.help_migrate(usize::MAX) {}` drives one to
    /// completion. Intended for background sweeper threads (`cuckood`
    /// runs one) so migrations finish even when writers go idle.
    pub fn help_migrate(&self, max_chunks: usize) -> bool {
        let _pin = self.epochs.pin();
        let m = self.migration.load(Ordering::SeqCst);
        if m.is_null() {
            return false;
        }
        // SAFETY: pinned; the descriptor stays live.
        let mig = unsafe { &*m };
        self.help_sweep(mig, m, max_chunks);
        true
    }

    /// Clones every entry out (snapshot).
    pub fn snapshot(&self) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// Visits every entry **without ever blocking readers**: one stripe
    /// lock at a time instead of [`for_each`](Self::for_each)'s
    /// full-table lock, under an epoch pin so the visited table cannot
    /// be reclaimed mid-scan.
    ///
    /// The view is *per-bucket consistent but not point-in-time*: each
    /// entry is its key's live value at the moment its stripe was
    /// visited, and concurrent writers keep running on every other
    /// stripe. That fuzziness is exactly what the durability tier's
    /// snapshot-then-replay recovery tolerates (each key's snapshot
    /// value is a state at-or-after the log rotation point, and replay
    /// of the log tail converges it — see `DESIGN.md` §5g).
    ///
    /// Returns `false` (visiting may stop early, and entries may have
    /// been visited twice) if a table swap or migration started
    /// mid-scan; the caller discards accumulated state and retries, or
    /// falls back to `for_each`. An in-flight migration is driven to
    /// completion before scanning so every entry lives in one table.
    pub fn scan(&self, f: impl FnMut(&K, &V)) -> bool {
        let _pin = self.epochs.pin();
        while self.help_migrate(usize::MAX) {
            crate::sync2::thread::yield_now();
        }
        // A migration (incremental) or table swap (stop-the-world) that
        // starts mid-scan strands entries outside `raw`: abort, the caller
        // restarts on the new table. The pin keeps `raw` alive either way.
        let raw = self.current();
        self.write_ctx().scan(raw, || self.table_is_stable(raw), f)
    }

    fn insert_inner(&self, key: K, val: V, upsert: bool) -> Result<UpsertOutcome, InsertError> {
        let _pin = self.epochs.pin();
        let h = hash_of(&self.hash_builder, &key);
        let (mut key, mut val) = (key, val);
        let mut stale_retries = 0usize;
        loop {
            // Mid-migration our old-table chunks are drained, so the key
            // (if present) and the insert target are both in the new
            // table, and displacement happens within it.
            let (raw, m) = self.writer_table(h);
            let valid = || self.view_valid(raw, m);
            let ks = slots_from_hash(h, raw.mask());
            {
                let _g = self.stripes.lock_pair(ks.i1, ks.i2);
                if !valid() {
                    continue;
                }
                // SAFETY: pair lock held over both candidate buckets of a
                // validated table; readers are locked out, so plain
                // stores suffice.
                match unsafe { claim::<PlainStore, K, V, B>(raw, ks, key, val, upsert) }
                    .settle(&self.count, ks)
                {
                    Ok(result) => return result,
                    Err(unplaced) => (key, val) = unplaced,
                }
            }
            // Lock-free path search over atomic metadata only (safe even
            // for non-`Plain` keys — keys are never read).
            let executed = search::with_scratch(|scratch| {
                self.write_ctx().search_and_displace::<PlainStore, K, V, B>(raw, ks, scratch, valid)
            });
            match executed {
                Some(true) => stale_retries = 0,
                Some(false) if stale_retries < 16 => stale_retries += 1,
                // No path — or the livelock escape hatch: make room.
                // Mid-migration even the doubled table is full, so
                // rebuild bigger under the full-table lock (rare).
                _ => {
                    stale_retries = 0;
                    if m.is_null() {
                        self.grow(raw);
                    } else {
                        self.emergency_rebuild(m);
                    }
                }
            }
        }
    }

    /// Mode dispatch for a full table: begin an incremental migration or
    /// fall back to the stop-the-world rehash.
    #[cold]
    fn grow(&self, seen: &RawTable<K, V, B>) {
        match self.resize_mode {
            ResizeMode::Incremental => self.begin_migration(seen),
            ResizeMode::StopTheWorld => self.expand(seen),
        }
    }

    /// Doubles the table under the full-stripe lock and rehashes every
    /// entry — the stop-the-world fallback. `seen` is the table the
    /// caller found full; if another thread already expanded, this
    /// returns immediately.
    fn expand(&self, seen: &RawTable<K, V, B>) {
        let _g = self.stripes.lock_all();
        if !self.is_current(seen) {
            return; // someone else already expanded
        }
        let old_ptr = self.storage.load(Ordering::SeqCst);
        // SAFETY: all stripes held — exclusive access to the live table.
        let old = unsafe { &*old_ptr };

        let mut entries = Vec::new();
        // SAFETY: all stripes held.
        unsafe { old.drain_into(&mut entries) };
        let new = Box::new(self.write_ctx().rebuild(old.total_slots() * 2, entries));
        self.storage.store(Box::into_raw(new), Ordering::SeqCst);
        // SAFETY: `old_ptr` came from `Box::into_raw` at construction or a
        // previous expansion, and is no longer reachable as current.
        let retired = unsafe { Box::from_raw(old_ptr) };
        self.retire([RetiredAlloc::Table(retired)]);
    }

    /// Starts an incremental migration to a doubled table: allocates the
    /// target and publishes the descriptor. No entries move here — chunks
    /// migrate via [`CuckooMap::help_migrate`] and the per-operation
    /// checkpoints. No-ops if a migration is already running or `seen` is
    /// no longer current.
    fn begin_migration(&self, seen: &RawTable<K, V, B>) {
        self.try_drain_graveyard();
        let _lk = self.resize_lock.lock().expect("resize_lock poisoned: an expansion panicked mid-flight");
        if !self.migration.load(Ordering::SeqCst).is_null() {
            return; // a migration is already in flight
        }
        if !self.is_current(seen) {
            return; // resolved by an expansion we raced with
        }
        let old_ptr = self.storage.load(Ordering::SeqCst);
        // SAFETY: caller is pinned and `seen` is current.
        let old = unsafe { &*old_ptr };
        let new = Box::new(RawTable::<K, V, B>::with_capacity(old.total_slots() * 2));
        debug_assert_eq!(new.n_buckets(), old.n_buckets() * 2);
        let n_chunks = old.n_buckets().div_ceil(MIGRATION_CHUNK);
        let desc = Box::new(Migration {
            old: old_ptr,
            new: Box::into_raw(new),
            chunk_states: (0..n_chunks).map(|_| AtomicU8::new(CHUNK_PENDING)).collect(),
            chunks_done: AtomicUsize::new(0),
            next_hint: AtomicUsize::new(0),
        });
        self.migration.store(Box::into_raw(desc), Ordering::SeqCst);
        self.table_metrics.migrations_started.inc();
    }

    /// Model-only: starts an incremental migration immediately, exactly
    /// as load-factor pressure would, so model tests can explore
    /// lookup-vs-migration interleavings without the ~thousand inserts
    /// needed to trip the organic trigger.
    #[cfg(cuckoo_model)]
    pub fn force_migration(&self) {
        let _pin = self.epochs.pin();
        self.begin_migration(self.current());
    }

    /// Migrates (or waits out) the chunks covering old-table buckets
    /// `b1`/`b2`. `false` means the migration resolved underneath us.
    fn ensure_chunks_done(
        &self,
        mig: &Migration<K, V, B>,
        m: *mut Migration<K, V, B>,
        b1: usize,
        b2: usize,
    ) -> bool {
        let c1 = Migration::<K, V, B>::chunk_of(b1);
        let c2 = Migration::<K, V, B>::chunk_of(b2);
        if !self.wait_chunk_done(mig, m, c1) {
            return false;
        }
        c2 == c1 || self.wait_chunk_done(mig, m, c2)
    }

    /// Drives chunk `c` to `DONE`: claims it if pending, else spins until
    /// its owner finishes. Spinners hold no locks, so an owner escalating
    /// to the full-table emergency rebuild cannot deadlock against them.
    fn wait_chunk_done(&self, mig: &Migration<K, V, B>, m: *mut Migration<K, V, B>, c: usize) -> bool {
        let mut spins = 0u32;
        loop {
            // ORDERING: migration.chunk-poll
            match mig.chunk_states[c].load(Ordering::Acquire) {
                CHUNK_DONE => return true,
                CHUNK_PENDING => {
                    // ORDERING: migration.chunk-claim
                    if mig.chunk_states[c]
                        .compare_exchange(
                            CHUNK_PENDING,
                            CHUNK_BUSY,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return self.complete_chunk(mig, m, c);
                    }
                }
                _ => {
                    if self.migration.load(Ordering::SeqCst) != m {
                        return false; // resolved by emergency rebuild
                    }
                    crate::sync::backoff(&mut spins);
                }
            }
        }
    }

    /// Migrates an owned (`BUSY`) chunk, publishes `DONE`, and finalizes
    /// the whole migration if this was the last chunk.
    fn complete_chunk(
        &self,
        mig: &Migration<K, V, B>,
        m: *mut Migration<K, V, B>,
        c: usize,
    ) -> bool {
        if !self.migrate_chunk(mig, m, c) {
            return false; // migration resolved (emergency rebuild)
        }
        // ORDERING: migration.chunk-done
        mig.chunk_states[c].store(CHUNK_DONE, Ordering::Release);
        self.table_metrics.migration_chunks.inc();
        // ORDERING: cold.seqcst — completion count; one increment per chunk.
        if mig.chunks_done.fetch_add(1, Ordering::SeqCst) + 1 == mig.n_chunks() {
            self.finalize_migration(m);
        }
        true
    }

    /// Claims and migrates up to `max_chunks` pending chunks — the
    /// cooperative tail sweep.
    fn help_sweep(&self, mig: &Migration<K, V, B>, m: *mut Migration<K, V, B>, max_chunks: usize) {
        self.table_metrics.help_sweeps.inc();
        let total = mig.n_chunks();
        for _ in 0..max_chunks {
            // ORDERING: alloc.unique-id — a rotation hint; any value works,
            // distinct values just spread sweepers over the chunks.
            let start = mig.next_hint.fetch_add(1, Ordering::Relaxed) % total;
            let mut claimed = None;
            for off in 0..total {
                let c = (start + off) % total;
                // ORDERING: migration.chunk-poll, migration.chunk-claim — probe, then claim.
                if mig.chunk_states[c].load(Ordering::Acquire) == CHUNK_PENDING
                    && mig.chunk_states[c]
                        .compare_exchange(
                            CHUNK_PENDING,
                            CHUNK_BUSY,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                {
                    claimed = Some(c);
                    break;
                }
            }
            match claimed {
                None => return, // nothing pending; the tail is others' BUSY chunks
                Some(c) => {
                    if !self.complete_chunk(mig, m, c) {
                        return;
                    }
                }
            }
        }
    }

    /// Moves every entry of one owned chunk from the old table into the
    /// new. Each entry moves atomically under the stripes of its old
    /// bucket and both new-table candidate buckets, so no concurrent
    /// operation can observe it absent from both tables or present in
    /// both. `false` means the migration resolved underneath us.
    fn migrate_chunk(
        &self,
        mig: &Migration<K, V, B>,
        m: *mut Migration<K, V, B>,
        chunk: usize,
    ) -> bool {
        // SAFETY: (both derefs) callers are pinned and own the chunk, so
        // both tables are live (epoch + chunk-state ordering argument:
        // DESIGN.md §5d).
        let old = unsafe { &*mig.old };
        let new = unsafe { &*mig.new };
        let lo = chunk * MIGRATION_CHUNK;
        let hi = (lo + MIGRATION_CHUNK).min(old.n_buckets());
        for ob in lo..hi {
            let mut room_attempts = 0u32;
            loop {
                // Phase 1: pick the bucket's next entry and hash its key
                // for the new table, under the old bucket's stripe only.
                // Owning the chunk means only we (or an emergency
                // rebuild, which the validation below catches) can touch
                // this bucket's entries.
                let (slot, ks_new);
                {
                    let _g = self.stripes.lock_pair(ob, ob);
                    if self.migration.load(Ordering::SeqCst) != m {
                        return false;
                    }
                    match old.first_occupied_slot(ob) {
                        None => break, // bucket drained; next bucket
                        Some(s) => {
                            // SAFETY: stripe lock held; slot occupied.
                            let key = unsafe { &*old.bucket(ob).key_ptr(s) };
                            slot = s;
                            ks_new = key_slots(&self.hash_builder, key, new.mask());
                        }
                    }
                }
                // Phase 2: move the entry under all three stripes.
                let moved = {
                    let _g = self.stripes.lock_batch(&[ob, ks_new.i1, ks_new.i2]);
                    if self.migration.load(Ordering::SeqCst) != m {
                        return false;
                    }
                    debug_assert!(
                        old.meta(ob).is_occupied(slot),
                        "only the chunk owner may drain its buckets"
                    );
                    match locked_empty_slot(new, ks_new) {
                        Some((nbi, ns)) => {
                            // SAFETY: all three stripes held; source
                            // occupied, destination empty.
                            unsafe {
                                let (k, v) = old.take_entry(ob, slot);
                                new.write_entry(nbi, ns, ks_new.tag, k, v);
                            }
                            true
                        }
                        None => false,
                    }
                };
                if !moved {
                    // Both new candidate buckets are full: displace
                    // within the new table, then retry this entry.
                    room_attempts += 1;
                    if room_attempts > 8 || !self.make_room_in_new(mig, m, ks_new) {
                        if self.migration.load(Ordering::SeqCst) != m {
                            return false;
                        }
                        self.emergency_rebuild(m);
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Displaces entries inside the new table to open a slot in one of
    /// `ks`'s candidate buckets. `false` only when the search finds no
    /// path (the new table is effectively full).
    fn make_room_in_new(
        &self,
        mig: &Migration<K, V, B>,
        m: *mut Migration<K, V, B>,
        ks: KeySlots,
    ) -> bool {
        // SAFETY: caller is pinned; the new table is live.
        let new = unsafe { &*mig.new };
        // A stale path just means a concurrent writer got there first;
        // the caller re-examines the buckets either way.
        search::with_scratch(|scratch| {
            self.write_ctx().search_and_displace::<PlainStore, K, V, B>(new, ks, scratch, || {
                self.migration.load(Ordering::SeqCst) == m
            })
        })
        .is_some()
    }

    /// Publishes the fully-migrated new table and retires the old one.
    /// Serialized with begin/emergency by `resize_lock`; only the
    /// transition that still sees `m` live wins.
    fn finalize_migration(&self, m: *mut Migration<K, V, B>) {
        {
            let _lk = self.resize_lock.lock().expect("resize_lock poisoned: an expansion panicked mid-flight");
            if self.migration.load(Ordering::SeqCst) != m {
                return; // an emergency rebuild beat us to it
            }
            // SAFETY: `m` is the live descriptor (checked under the lock).
            let mig = unsafe { &*m };
            debug_assert_eq!(mig.chunks_done.load(Ordering::SeqCst), mig.n_chunks());
            // Order matters for lock-free observers: after the first
            // store, readers see (storage = new, migration = m) — the
            // two-table path handles that (old is drained). After the
            // second, the normal path takes over.
            self.storage.store(mig.new, Ordering::SeqCst);
            self.migration.store(std::ptr::null_mut(), Ordering::SeqCst);
            self.table_metrics.migrations_completed.inc();
        }
        // SAFETY: the descriptor is disconnected (no new loads of `m` can
        // occur); re-owning the boxes exactly once. Pinned stragglers are
        // covered by the epoch stamp.
        let (old_box, desc_box) = unsafe {
            let desc = Box::from_raw(m);
            (Box::from_raw(desc.old), desc)
        };
        self.retire([
            RetiredAlloc::Table(old_box),
            RetiredAlloc::Desc(desc_box),
        ]);
    }

    /// Escape hatch when the migration target itself cannot absorb the
    /// load (BFS failure or livelock on the new table): rebuild
    /// everything into a bigger table under the full-table lock, ending
    /// the migration. The pause is proportional to table size, but this
    /// only triggers when a doubling was insufficient mid-flight.
    #[cold]
    fn emergency_rebuild(&self, m: *mut Migration<K, V, B>) {
        let _lk = self.resize_lock.lock().expect("resize_lock poisoned: an expansion panicked mid-flight");
        let all = self.stripes.lock_all();
        if self.migration.load(Ordering::SeqCst) != m {
            return; // finalized or already rebuilt by someone else
        }
        // SAFETY: `m` is the live descriptor; all stripes held, so we
        // have exclusive access to both tables.
        let mig = unsafe { &*m };
        let old = unsafe { &*mig.old };
        let new = unsafe { &*mig.new };
        let mut entries = Vec::new();
        for t in [old, new] {
            // SAFETY: all stripes held.
            unsafe { t.drain_into(&mut entries) };
        }
        let rebuilt = Box::new(self.write_ctx().rebuild(new.total_slots() * 2, entries));
        // Disconnect the migration before publishing the rebuilt table;
        // both orders are safe here because every observer re-validates
        // under stripe locks we still hold.
        self.migration.store(std::ptr::null_mut(), Ordering::SeqCst);
        self.storage.store(Box::into_raw(rebuilt), Ordering::SeqCst);
        self.table_metrics.emergency_rebuilds.inc();
        drop(all);
        // SAFETY: descriptor and both tables are disconnected; re-owning
        // each box exactly once.
        let (old_box, new_box, desc_box) = unsafe {
            let desc = Box::from_raw(m);
            (Box::from_raw(desc.old), Box::from_raw(desc.new), desc)
        };
        self.retire([
            RetiredAlloc::Table(old_box),
            RetiredAlloc::Table(new_box),
            RetiredAlloc::Desc(desc_box),
        ]);
    }

    /// Stamps `allocs` with a fresh retirement epoch and parks them in
    /// the graveyard; over the soft cap, drains whatever older garbage
    /// has quiesced.
    fn retire<I: IntoIterator<Item = RetiredAlloc<K, V, B>>>(&self, allocs: I) {
        let epoch = self.epochs.retire_epoch();
        let mut g = self.graveyard.lock().expect("graveyard mutex poisoned: a drain panicked mid-free");
        g.extend(allocs.into_iter().map(|alloc| Retired { epoch, alloc }));
        if g.len() > GRAVEYARD_SOFT_CAP {
            let min = self.epochs.min_active();
            g.retain(|r| r.epoch >= min);
        }
        self.table_metrics.graveyard_depth.set(g.len() as u64);
    }

    /// Opportunistically frees retired allocations no in-flight operation
    /// can still reference.
    fn try_drain_graveyard(&self) {
        if let Ok(mut g) = self.graveyard.try_lock() {
            if g.is_empty() {
                return;
            }
            let min = self.epochs.min_active();
            g.retain(|r| r.epoch >= min);
            self.table_metrics.graveyard_depth.set(g.len() as u64);
        }
    }
}

impl<K, V, const B: usize, S> CuckooMap<K, V, B, S>
where
    K: Hash + Eq,
    S: BuildHasher,
{
    /// Returns a clone of `key`'s value, inserting `make()` first if the
    /// key is absent.
    ///
    /// On a race where another thread inserts the key between the miss
    /// and our insert, `make`'s value is discarded and the winner's value
    /// is returned (so `make` may run without its result being used).
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V
    where
        K: Clone,
        V: Clone,
    {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let val = make();
        loop {
            match self.insert(key.clone(), val.clone()) {
                Ok(()) => return val,
                Err(InsertError::KeyExists) => {
                    if let Some(v) = self.get(&key) {
                        return v;
                    }
                    // A concurrent delete removed the winner between our
                    // failed insert and the read; retry our own insert.
                }
                Err(InsertError::TableFull) => unreachable!("insert expands instead"),
            }
        }
    }

    /// Applies `f` to `key`'s value in place under the lock; `false` when
    /// absent.
    pub fn modify(&self, key: &K, f: impl FnOnce(&mut V)) -> bool {
        let _pin = self.epochs.pin();
        self.with_locked_pair(hash_of(&self.hash_builder, key), |raw, ks| {
            let found = probe::<PlainStore, K, V, B>(raw, ks, key);
            if let Some((bi, s)) = found {
                // SAFETY: pair lock held; slot occupied.
                f(unsafe { &mut *raw.bucket(bi).val_ptr(s) });
            }
            found.is_some()
        })
    }

    /// Removes every entry for which `f` returns `false`, under the
    /// full-table lock. Returns how many entries were removed.
    pub fn retain(&self, mut f: impl FnMut(&K, &V) -> bool) -> usize {
        let _pin = self.epochs.pin();
        let _g = self.lock_all_quiesced();
        let raw = self.current();
        let coords: Vec<(usize, usize)> = raw.occupied_coords().collect();
        let mut removed = 0;
        for (bi, s) in coords {
            let b = raw.bucket(bi);
            // SAFETY: all stripes held; slots stable and occupied.
            let keep = unsafe { f(&*b.key_ptr(s), &*b.val_ptr(s)) };
            if !keep {
                // SAFETY: as above.
                drop(unsafe { raw.take_entry(bi, s) });
                self.count.add(bi, -1);
                removed += 1;
            }
        }
        removed
    }
}

impl<K, V, const B: usize, S> core::fmt::Debug for CuckooMap<K, V, B, S>
where
    K: Hash + Eq,
    S: BuildHasher,
{
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CuckooMap")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("ways", &B)
            .finish()
    }
}

impl<K, V, const B: usize> FromIterator<(K, V)> for CuckooMap<K, V, B, DefaultHashBuilder>
where
    K: Hash + Eq,
{
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let map = CuckooMap::with_capacity(iter.size_hint().0 * 2);
        for (k, v) in iter {
            let _ = map.insert(k, v); // later duplicates lose, like libcuckoo
        }
        map
    }
}

impl<K, V, const B: usize, S> Drop for CuckooMap<K, V, B, S> {
    fn drop(&mut self) {
        let m = *self.migration.get_mut();
        if !m.is_null() {
            // Dropped mid-migration: entries are split across old and
            // new. `old` is the storage pointer (freed below); the
            // descriptor and its new table are owned only by us.
            // SAFETY: `&mut self` — no concurrent users; both pointers
            // came from `Box::into_raw` exactly once.
            let desc = unsafe { Box::from_raw(m) };
            drop(unsafe { Box::from_raw(desc.new) });
            drop(desc);
        }
        let ptr = *self.storage.get_mut();
        if !ptr.is_null() {
            // SAFETY: `ptr` came from `Box::into_raw` and is owned solely
            // by this map.
            drop(unsafe { Box::from_raw(ptr) });
        }
        // graveyard drops via Mutex<Vec<Retired<_>>>.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_keys_and_values() {
        let m: CuckooMap<String, String> = CuckooMap::with_capacity(1000);
        m.insert("hello".into(), "world".into()).unwrap();
        m.insert("foo".into(), "bar".into()).unwrap();
        assert_eq!(m.get(&"hello".to_string()), Some("world".to_string()));
        assert_eq!(
            m.insert("hello".into(), "x".into()),
            Err(InsertError::KeyExists)
        );
        assert_eq!(m.update(&"foo".to_string(), "baz".into()), Some("bar".into()));
        assert_eq!(m.remove(&"foo".to_string()), Some("baz".to_string()));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn insert_many_batch_semantics_with_owned_types() {
        // Non-`Plain` keys/values: every rejected or replaced entry must
        // be dropped exactly once (no leaks, no double frees).
        let m: CuckooMap<String, String, 8> = CuckooMap::with_capacity(512);
        let entries: Vec<(String, String)> =
            (0..100).map(|i| (format!("k{i}"), format!("v{i}"))).collect();
        assert!(m.insert_many(entries.clone()).into_iter().all(|r| r.is_ok()));
        let dup = m.insert_many(entries);
        assert!(dup.into_iter().all(|r| r == Err(InsertError::KeyExists)));
        let ups = m.upsert_many((0..100).map(|i| (format!("k{i}"), format!("w{i}"))));
        assert!(ups.into_iter().all(|o| o == Ok(UpsertOutcome::Updated)));
        assert_eq!(m.get(&"k7".to_string()), Some("w7".to_string()));
        assert_eq!(m.len(), 100);
        assert!(m.metrics().insert_batch_groups.get() >= 3 * (100 / 8) as u64);
        assert_eq!(m.metrics().insert_batch_keys.get(), 300);
    }

    #[test]
    fn insert_many_expands_automatically_like_single_inserts() {
        // A batch far beyond capacity forces expansion mid-stream; the
        // group path must hand keys to the migrating single-key writer
        // without losing or duplicating any.
        let m: CuckooMap<u64, u64, 8> = CuckooMap::with_capacity(64);
        let entries: Vec<(u64, u64)> = (0..1000).map(|k| (k, k ^ 0xabcd)).collect();
        assert!(m.insert_many(entries).into_iter().all(|r| r.is_ok()));
        assert_eq!(m.len(), 1000);
        for k in 0..1000 {
            assert_eq!(m.get(&k), Some(k ^ 0xabcd), "key {k}");
        }
        assert!(m.capacity() >= 1000);
    }

    #[test]
    fn upsert_and_get_with() {
        let m: CuckooMap<u32, Vec<u8>> = CuckooMap::new();
        assert_eq!(m.upsert(1, vec![1, 2, 3]), UpsertOutcome::Inserted);
        assert_eq!(m.upsert(1, vec![4]), UpsertOutcome::Updated);
        assert_eq!(m.get_with(&1, |v| v.len()), Some(1));
        assert_eq!(m.get_with(&2, |v| v.len()), None);
    }

    #[test]
    fn automatic_expansion_preserves_contents() {
        let m: CuckooMap<u64, u64, 4> = CuckooMap::with_capacity(0);
        let initial_cap = m.capacity();
        let n = (initial_cap * 4) as u64;
        for k in 0..n {
            m.insert(k, k * 2).unwrap();
        }
        assert!(m.capacity() > initial_cap, "table must have expanded");
        assert_eq!(m.len(), n as usize);
        for k in 0..n {
            assert_eq!(m.get(&k), Some(k * 2), "key {k} lost in expansion");
        }
    }

    #[test]
    fn drop_frees_owned_values() {
        use std::sync::Arc;
        let sentinel = Arc::new(());
        {
            let m: CuckooMap<u64, Arc<()>> = CuckooMap::with_capacity(1000);
            for k in 0..100 {
                m.insert(k, Arc::clone(&sentinel)).unwrap();
            }
            assert_eq!(Arc::strong_count(&sentinel), 101);
            m.remove(&0);
            assert_eq!(Arc::strong_count(&sentinel), 100);
        }
        assert_eq!(Arc::strong_count(&sentinel), 1);
    }

    #[test]
    fn expansion_drops_nothing() {
        use std::sync::Arc;
        let sentinel = Arc::new(());
        let m: CuckooMap<u64, Arc<()>, 4> = CuckooMap::with_capacity(0);
        let n = (m.capacity() * 3) as u64;
        for k in 0..n {
            m.insert(k, Arc::clone(&sentinel)).unwrap();
        }
        assert_eq!(Arc::strong_count(&sentinel), n as usize + 1);
        drop(m);
        assert_eq!(Arc::strong_count(&sentinel), 1);
    }

    #[test]
    fn concurrent_insert_during_expansion() {
        let m: CuckooMap<u64, u64, 4> = CuckooMap::with_capacity(0);
        const THREADS: u64 = 4;
        const PER: u64 = 3_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let m = &m;
                s.spawn(move || {
                    for i in 0..PER {
                        let key = t * 1_000_000 + i;
                        m.insert(key, key).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.len(), (THREADS * PER) as usize);
        for t in 0..THREADS {
            for i in 0..PER {
                let key = t * 1_000_000 + i;
                assert_eq!(m.get(&key), Some(key));
            }
        }
    }

    #[test]
    fn for_each_and_snapshot() {
        let m: CuckooMap<u64, u64> = CuckooMap::with_capacity(1000);
        for k in 0..50 {
            m.insert(k, k + 1).unwrap();
        }
        let mut count = 0;
        m.for_each(|k, v| {
            assert_eq!(*v, *k + 1);
            count += 1;
        });
        assert_eq!(count, 50);
        let mut snap = m.snapshot();
        snap.sort_unstable();
        assert_eq!(snap[0], (0, 1));
        assert_eq!(snap.len(), 50);
    }

    #[test]
    fn get_or_insert_with_semantics() {
        let m: CuckooMap<String, u64> = CuckooMap::new();
        assert_eq!(m.get_or_insert_with("a".into(), || 1), 1);
        assert_eq!(m.get_or_insert_with("a".into(), || 2), 1, "existing wins");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn modify_in_place() {
        let m: CuckooMap<u64, Vec<u8>> = CuckooMap::new();
        m.insert(1, vec![1]).unwrap();
        assert!(m.modify(&1, |v| v.push(9)));
        assert_eq!(m.get(&1), Some(vec![1, 9]));
        assert!(!m.modify(&2, |_| unreachable!("absent key")));
    }

    #[test]
    fn retain_filters_and_counts() {
        let m: CuckooMap<u64, u64> = CuckooMap::with_capacity(1000);
        for k in 0..100u64 {
            m.insert(k, k).unwrap();
        }
        let removed = m.retain(|k, _| k % 2 == 0);
        assert_eq!(removed, 50);
        assert_eq!(m.len(), 50);
        assert_eq!(m.get(&2), Some(2));
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn from_iterator_and_debug() {
        let m: CuckooMap<u64, u64> = (0..50u64).map(|k| (k, k + 1)).collect();
        assert_eq!(m.len(), 50);
        assert_eq!(m.get(&10), Some(11));
        let dbg = format!("{m:?}");
        assert!(dbg.contains("CuckooMap"));
        assert!(dbg.contains("len: 50"));
    }

    #[test]
    fn retain_drops_removed_values() {
        use std::sync::Arc;
        let sentinel = Arc::new(());
        let m: CuckooMap<u64, Arc<()>> = CuckooMap::with_capacity(100);
        for k in 0..20 {
            m.insert(k, Arc::clone(&sentinel)).unwrap();
        }
        m.retain(|k, _| *k < 5);
        assert_eq!(Arc::strong_count(&sentinel), 6);
    }

    #[test]
    fn incremental_migration_serves_reads_mid_flight() {
        let m: CuckooMap<u64, u64, 4> = CuckooMap::with_capacity(0);
        let initial_cap = m.capacity();
        let n = 512u64;
        for k in 0..n {
            m.insert(k, k + 7).unwrap();
        }
        m.begin_migration(m.current());
        assert!(m.is_migrating());
        // Nothing migrated yet: every read goes through the two-table
        // path and must still see every key.
        for k in 0..n {
            assert_eq!(m.get(&k), Some(k + 7), "mid-migration read of {k}");
        }
        // A write migrates only the chunks covering its own buckets
        // (plus one swept chunk), not the whole table.
        assert_eq!(m.remove(&3), Some(10));
        assert!(m.is_migrating(), "one write must not finish the migration");
        assert_eq!(m.get(&3), None);
        for k in 4..n {
            assert_eq!(m.get(&k), Some(k + 7));
        }
        // Drive the migration to completion.
        while m.help_migrate(usize::MAX) {}
        assert!(!m.is_migrating());
        assert_eq!(m.capacity(), initial_cap * 2);
        assert_eq!(m.len(), n as usize - 1);
        for k in 4..n {
            assert_eq!(m.get(&k), Some(k + 7), "key {k} lost in migration");
        }
    }

    #[test]
    fn migration_writer_protocol_updates_land_in_new_table() {
        let m: CuckooMap<u64, u64, 4> = CuckooMap::with_capacity(0);
        for k in 0..400u64 {
            m.insert(k, k).unwrap();
        }
        m.begin_migration(m.current());
        // Mutations mid-migration: each first migrates its key's chunks.
        assert_eq!(m.update(&10, 99), Some(10));
        assert!(m.modify(&11, |v| *v += 1));
        m.insert(1_000, 1).unwrap();
        assert_eq!(m.upsert(1_001, 2), UpsertOutcome::Inserted);
        assert_eq!(m.upsert(10, 100), UpsertOutcome::Updated);
        while m.help_migrate(usize::MAX) {}
        assert_eq!(m.get(&10), Some(100));
        assert_eq!(m.get(&11), Some(12));
        assert_eq!(m.get(&1_000), Some(1));
        assert_eq!(m.get(&1_001), Some(2));
        assert_eq!(m.len(), 402);
    }

    #[test]
    fn stop_the_world_mode_expands_and_drains_graveyard() {
        let m: CuckooMap<u64, u64, 4> =
            CuckooMap::with_capacity_and_mode(0, ResizeMode::StopTheWorld);
        assert_eq!(m.resize_mode(), ResizeMode::StopTheWorld);
        let initial = m.capacity();
        let n = (initial * 16) as u64;
        for k in 0..n {
            m.insert(k, k).unwrap();
        }
        assert!(!m.is_migrating(), "stop-the-world mode never migrates");
        assert!(m.capacity() >= initial * 16);
        for k in 0..n {
            assert_eq!(m.get(&k), Some(k));
        }
        // The old leak: one table parked forever per doubling. Retires
        // now drain at the soft cap once older epochs quiesce.
        assert!(
            m.graveyard.lock().unwrap().len() <= GRAVEYARD_SOFT_CAP + 1,
            "retired tables must drain at quiescent points"
        );
    }

    #[test]
    fn graveyard_drains_across_incremental_doublings() {
        let m: CuckooMap<u64, u64, 4> = CuckooMap::with_capacity(0);
        let initial = m.capacity();
        let mut k = 0u64;
        // Force at least 8 consecutive doublings.
        while m.capacity() < initial * 256 {
            m.insert(k, k).unwrap();
            k += 1;
        }
        let live = m.current().memory_bytes();
        assert!(
            m.graveyard.lock().unwrap().len() <= GRAVEYARD_SOFT_CAP + 2,
            "graveyard must stay bounded across doublings"
        );
        assert!(
            m.memory_bytes() < live * 4,
            "retired tables must not accumulate: total {} vs live {live}",
            m.memory_bytes()
        );
        for i in 0..k {
            assert_eq!(m.get(&i), Some(i), "key {i} lost across doublings");
        }
    }

    #[test]
    fn get_or_insert_with_survives_concurrent_deletes() {
        // Regression: a concurrent delete between this call's failed
        // insert (KeyExists) and its follow-up get used to panic on
        // `.expect("exists")`.
        let m: CuckooMap<u64, u64> = CuckooMap::with_capacity(4096);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..20_000u64 {
                        let k = i % 8;
                        let v = m.get_or_insert_with(k, || 7);
                        assert!(v == 1 || v == 7, "value must come from insert or racer");
                    }
                });
            }
            let m = &m;
            s.spawn(move || {
                for i in 0..20_000u64 {
                    let k = i % 8;
                    let _ = m.insert(k, 1);
                    m.remove(&k);
                }
            });
        });
    }

    #[test]
    fn concurrent_mixed_ops_during_incremental_migrations() {
        // Writers force doublings while readers hammer gets; values
        // carry an invariant so any torn/stale read is caught.
        let m: CuckooMap<u64, u64, 4> = CuckooMap::with_capacity(0);
        const WRITERS: u64 = 2;
        const READERS: u64 = 2;
        const PER: u64 = 8_000;
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let m = &m;
                s.spawn(move || {
                    for i in 0..PER {
                        let key = t * 1_000_000 + i;
                        m.insert(key, key * 2 + 1).unwrap();
                        if i % 64 == 0 {
                            m.remove(&key);
                        }
                    }
                });
            }
            for t in 0..READERS {
                let m = &m;
                s.spawn(move || {
                    for i in 0..PER {
                        let key = (t % WRITERS) * 1_000_000 + (i * 7) % PER;
                        if let Some(v) = m.get(&key) {
                            assert_eq!(v, key * 2 + 1, "torn read of {key}");
                        }
                    }
                });
            }
        });
        for t in 0..WRITERS {
            for i in 0..PER {
                let key = t * 1_000_000 + i;
                if i % 64 != 0 {
                    assert_eq!(m.get(&key), Some(key * 2 + 1), "key {key} lost");
                }
            }
        }
    }

    #[test]
    fn purge_retired_reclaims_memory() {
        let mut m: CuckooMap<u64, u64, 4> = CuckooMap::with_capacity(0);
        let n = (m.capacity() * 8) as u64;
        for k in 0..n {
            m.insert(k, k).unwrap();
        }
        // Finish any in-flight expansion: finalization retires the old
        // table into the graveyard, and the finalizing operation's own
        // epoch pin keeps that entry parked there (nothing after it
        // drains), so `purge_retired` has something to reclaim.
        while m.help_migrate(usize::MAX) {}
        let before = m.memory_bytes();
        m.purge_retired();
        let after = m.memory_bytes();
        assert!(after < before, "graveyard should have held memory");
        for k in 0..n {
            assert_eq!(m.get(&k), Some(k));
        }
    }
}
