//! A MemC3-style bounded concurrent cache: cuckoo+ hashing with CLOCK
//! eviction.
//!
//! The paper's table descends from MemC3 (Fan, Andersen, Kaminsky — NSDI
//! 2013), which pairs exactly this hash table with **CLOCK** eviction —
//! one recency bit per entry, a sweeping hand, second-chance semantics —
//! as a concurrency-friendly LRU approximation for memcached. This crate
//! closes that loop: [`ClockCache`] is the "compact and concurrent
//! memcache" application built on this repository's
//! [`OptimisticCuckooMap`].
//!
//! Design (mirroring MemC3's separation of index and recency state):
//!
//! - the cuckoo map stores `key → (slot, value)` where `slot` indexes a
//!   fixed-size side **slab** of per-entry metadata;
//! - `GET` is the map's lock-free optimistic read plus one relaxed store
//!   to the slab's recency bit — reads never touch the table's cache
//!   lines for writing (preserving the paper's read path) and the
//!   recency bits live in a dense side array exactly as MemC3's CLOCK
//!   bits do;
//! - `SET` allocates a slab slot from a freelist; when the cache is at
//!   capacity the CLOCK hand sweeps the slab: recency bit set → clear
//!   and advance (second chance), clear → evict that slot's key. The
//!   table has only as many slots as the cache has entries (rounded up
//!   to its bucket grid), and the slab holds at most
//!   [`MAX_LOAD_PERCENT`] of them, so the slab binds before the table's
//!   load limit and eviction stays on this path. An insert that still
//!   finds no cuckoo path evicts the same way until it lands, which is
//!   MemC3's answer to a failed insert.
//!
//! Recency is approximate under races (a `GET` may mark a slot that was
//! just recycled) — which is CLOCK's nature and why MemC3 chose it: "a
//! compact data structure that can be updated concurrently without
//! locking".

// ORDERING-FILE: stats.counter — hit/miss/eviction counters for the stats contract.
use cuckoo::{InsertError, OptimisticCuckooMap, Plain};
use cuckoo::sync2::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use cuckoo::sync2::Mutex;

/// Slab slot states.
const FREE: u8 = 0;
/// Allocated by a `put` whose map insert has not landed yet; invisible to
/// the CLOCK hand.
const SETUP: u8 = 1;
const USED: u8 = 2;
const EVICTING: u8 = 3;

/// The most of its table's slots a cache fills, in percent. Filling an
/// empty table, the insert search first fails at load 0.977–0.986
/// (2^12–2^21 slots), and a failed search escalates to the full-table
/// lock. A cache allowed up to that limit pays this on nearly every new
/// key once full; at 95 % (the paper's occupancy, §6.2), 2 threads
/// churning 4× a 2^18-slot cache's keys took no full-table fallback.
pub const MAX_LOAD_PERCENT: usize = 95;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found the key.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// Entries evicted by the CLOCK hand.
    pub evictions: u64,
    /// Second chances granted (recency bit cleared instead of evicting).
    pub second_chances: u64,
    /// Entries newly inserted (`put` of an absent key, successful
    /// `put_if_absent`).
    pub inserts: u64,
    /// In-place replacements (`put` of a present key, successful
    /// `replace`).
    pub updates: u64,
    /// Explicit `delete` calls that removed an entry.
    pub deletes: u64,
    /// Lazy TTL expirations reported by the owner via
    /// [`ClockCache::record_expiration`] (the cache itself has no clock;
    /// the layer that stamps lifetimes also detects their end).
    pub expirations: u64,
}

/// A fixed-capacity concurrent cache with CLOCK eviction over a cuckoo+
/// table. Keys are `u64` (hash upstream identifiers into them); values
/// are any [`Plain`] type.
///
/// # Examples
///
/// ```
/// use cache::ClockCache;
///
/// let cache: ClockCache<[u8; 16]> = ClockCache::new(1000);
/// cache.put(1, [7; 16]);
/// assert_eq!(cache.get(1), Some([7; 16]));     // marks key 1 recently used
/// assert_eq!(cache.get(2), None);
/// for k in 0..2000 {
///     cache.put(k, [0; 16]);                   // CLOCK evicts beyond capacity
/// }
/// assert!(cache.len() <= cache.capacity());
/// ```
pub struct ClockCache<V: Plain> {
    map: OptimisticCuckooMap<u64, (u32, V), 8>,
    /// Slab: per-slot owning key (valid while state == USED).
    slab_keys: Box<[AtomicU64]>,
    /// Slab: CLOCK recency bits.
    recency: Box<[AtomicU8]>,
    /// Slab: slot lifecycle (FREE / USED / EVICTING).
    state: Box<[AtomicU8]>,
    /// Free slot stack.
    free: Mutex<Vec<u32>>,
    /// The CLOCK hand.
    hand: AtomicUsize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    second_chances: AtomicU64,
    inserts: AtomicU64,
    updates: AtomicU64,
    deletes: AtomicU64,
    expirations: AtomicU64,
    /// Model-checking mutation switch: re-enables the pre-fix delete
    /// ordering (remove the map entry *before* claiming the slot) so the
    /// model tests can prove the checker catches the original ABA bug.
    #[cfg(cuckoo_model)]
    aba_mutation: bool,
}

impl<V: Plain> ClockCache<V> {
    /// Creates a cache holding at most `capacity` entries, or fewer when
    /// `capacity` lies within 5 % of its table's size.
    ///
    /// The underlying table has `capacity` slots rounded up to its
    /// power-of-two bucket grid ([`table_slots`](Self::table_slots)), so
    /// it runs as dense as the paper's table does. The cache's
    /// [`capacity`](Self::capacity) is at most [`MAX_LOAD_PERCENT`] of
    /// those slots: a `capacity` of exactly 2^20 holds 996,147 entries.
    /// The CLOCK hand then evicts before the table nears its load limit,
    /// where a failed insert search would take the full-table lock.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8);
        assert!(capacity < u32::MAX as usize, "slab indices are u32");
        let map = OptimisticCuckooMap::with_capacity(capacity);
        let capacity = capacity.min(map.capacity() * MAX_LOAD_PERCENT / 100);
        ClockCache {
            map,
            slab_keys: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            recency: (0..capacity).map(|_| AtomicU8::new(0)).collect(),
            state: (0..capacity).map(|_| AtomicU8::new(FREE)).collect(),
            free: Mutex::new((0..capacity as u32).rev().collect()),
            hand: AtomicUsize::new(0),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            second_chances: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
            #[cfg(cuckoo_model)]
            aba_mutation: false,
        }
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Item slots in the underlying table: the capacity asked of
    /// [`new`](Self::new), rounded up to the table's power-of-two bucket
    /// grid.
    pub fn table_slots(&self) -> usize {
        self.map.capacity()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident heap footprint: the cuckoo table (buckets,
    /// lock stripes, sharded counter) plus the CLOCK slab arrays and
    /// free stack. Fixed at construction — the cache never resizes — so
    /// owners can report it (e.g. `cuckood`'s `stats`) without taking
    /// any locks.
    pub fn memory_bytes(&self) -> usize {
        self.map.memory_bytes()
            + self.slab_keys.len() * core::mem::size_of::<AtomicU64>()
            + self.recency.len() * core::mem::size_of::<AtomicU8>()
            + self.state.len() * core::mem::size_of::<AtomicU8>()
            + self.capacity * core::mem::size_of::<u32>()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            second_chances: self.second_chances.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
        }
    }

    /// Appends the underlying cuckoo table's metric sample set (stripe
    /// contention, seqlock retries, multiget fallbacks, BFS histograms)
    /// under the stable `cuckoo_*` exposition names.
    pub fn metric_samples(&self, out: &mut Vec<metrics::Sample>) {
        self.map.metric_samples(out);
    }

    /// Resets the underlying table's metric families (CLOCK counters —
    /// hits, misses, evictions — are part of the memcached stats
    /// contract and are left untouched).
    pub fn reset_metrics(&self) {
        self.map.reset_metrics();
    }

    /// Records a lazy TTL expiration. The cache stores opaque values and
    /// has no notion of time; an owner that embeds lifetimes in its
    /// values calls this when it deletes an entry because it expired (as
    /// the `cuckood` server does), so `stats` can tell expiry apart from
    /// both eviction and explicit deletion.
    pub fn record_expiration(&self) {
        self.expirations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the outcome of reads made through
    /// [`visit_many`](Self::visit_many). The cache stores opaque values;
    /// an owner that keeps its own key and lifetime inside them (as
    /// `cuckood`'s store does) is the one who knows what was a hit.
    pub fn record_gets(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Looks up `key`, marking it recently used on a hit.
    pub fn get(&self, key: u64) -> Option<V> {
        match self.map.get(&key) {
            Some((slot, v)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Benign approximation: the slot may have been recycled
                // by a racing eviction; marking a stranger's slot recent
                // only delays its eviction by one sweep.
                // ORDERING: advisory.relaxed
                self.recency[slot as usize].store(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Batched [`get`](Self::get): one result per key, in order. Hits
    /// mark recency and count exactly as single-key `get` does (counters
    /// are updated once per batch).
    pub fn get_many(&self, keys: &[u64], out: &mut Vec<Option<V>>) {
        out.clear();
        out.reserve(keys.len());
        self.visit_many(keys, |_, v| out.push(v.copied()));
        let hits = out.iter().flatten().count() as u64;
        self.record_gets(hits, keys.len() as u64 - hits);
    }

    /// The batched read itself, via the table's software-pipelined
    /// multi-key path: calls `f(i, value)` exactly once per key, in
    /// order, with the resident value borrowed from the pipeline's
    /// validated copy. Marks every found entry recently used and counts
    /// nothing: an owner that only peeks stays out of `hits`/`misses`,
    /// and one that decides for itself what a hit is reports through
    /// [`record_gets`](Self::record_gets).
    pub fn visit_many(&self, keys: &[u64], mut f: impl FnMut(usize, Option<&V>)) {
        self.map.visit_many(keys, |i, entry| {
            f(
                i,
                entry.map(|(slot, v)| {
                    // Same benign race as `get`: marking a recycled slot
                    // recent only delays one eviction.
                    // ORDERING: advisory.relaxed
                    self.recency[*slot as usize].store(1, Ordering::Relaxed);
                    v
                }),
            )
        });
    }

    /// Inserts or replaces `key → value`, evicting via CLOCK when at
    /// capacity.
    pub fn put(&self, key: u64, value: V) {
        // A racing put of the same key may win the insert; then retry as
        // a replace.
        while !self.replace(key, value) && !self.put_if_absent(key, value) {}
    }

    /// Batched [`put`](Self::put): stores every pair in order, with
    /// per-pair semantics (and counter updates) identical to `put` —
    /// duplicates within a batch included, last write wins. Stage 1 of
    /// the table's batched write pipeline is applied here: each group
    /// of keys has both candidate bucket metadata lines prefetched
    /// with write intent before any is written, so the group's cache
    /// misses overlap instead of serializing. Slot allocation and
    /// CLOCK eviction stay per-pair — the hand is inherently serial.
    pub fn put_many(&self, pairs: &[(u64, V)]) {
        for group in pairs.chunks(cuckoo::WRITE_GROUP) {
            for (key, _) in group {
                self.map.prefetch_write_for(key);
            }
            for (key, value) in group {
                self.put(*key, *value);
            }
        }
    }

    /// Stores `key → value` only if the key is already present
    /// (memcached `replace`). Returns whether it stored.
    pub fn replace(&self, key: u64, value: V) -> bool {
        // Replace in place when present: the read-modify-write runs
        // under the table's pair lock, so the slot index we mark
        // recent is the entry's *current* slot (a stale get+update
        // pair could resurrect a recycled slot index).
        if let Some((slot, _)) = self.map.read_modify_write(&key, |(s, _)| (s, value)) {
            // ORDERING: advisory.relaxed
            self.recency[slot as usize].store(1, Ordering::Relaxed);
            self.updates.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Stores `key → value` only if the key is absent (memcached `add`).
    /// Returns whether it stored. Atomic against racing `put_if_absent`
    /// and `put` of the same key: exactly one writer wins, the rest see
    /// `false`.
    pub fn put_if_absent(&self, key: u64, value: V) -> bool {
        let slot = self.alloc_slot();
        // ORDERING: publish.release-store
        self.slab_keys[slot as usize].store(key, Ordering::Release);
        // ORDERING: advisory.relaxed
        self.recency[slot as usize].store(1, Ordering::Relaxed);
        loop {
            match self.map.insert(key, (slot, value)) {
                Ok(()) => {
                    // Publish to the CLOCK hand only once the entry is
                    // resident.
                    // ORDERING: publish.release-store
                    self.state[slot as usize].store(USED, Ordering::Release);
                    self.inserts.fetch_add(1, Ordering::Relaxed); // ORDERING: stats.counter
                    return true;
                }
                Err(InsertError::KeyExists) => {
                    self.abandon_slot(slot);
                    return false;
                }
                // No cuckoo path (MemC3's failed insert). The slab keeps
                // the load below the search's limit, so this takes keys
                // crowding one bucket pair: keep the slot, and evict
                // until the insert finds a path. Abandoning the slot
                // instead would re-allocate it and fail again at the
                // same load.
                Err(InsertError::TableFull) => self.evict_one(),
            }
        }
    }

    /// Removes `key`, returning its value.
    ///
    /// Claims the slot (`USED → EVICTING`) *before* removing the map
    /// entry. The reverse order (remove, then flip the state) is an ABA
    /// bug: between the removal and the state change, the CLOCK hand can
    /// observe the orphaned slot, release it, and a racing `put` can
    /// re-allocate it — at which point the delayed state change frees a
    /// slot the new entry still owns, the freelist holds it twice, and
    /// two live entries end up sharing one slot (caught by the churn
    /// test as `len() > capacity`).
    pub fn delete(&self, key: u64) -> Option<V> {
        #[cfg(cuckoo_model)]
        if self.aba_mutation {
            return self.delete_aba_buggy(key);
        }
        loop {
            let (slot, _) = self.map.get(&key)?;
            let si = slot as usize;
            if self.state[si]
                // ORDERING: handoff.acqrel-rmw
                .compare_exchange(USED, EVICTING, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                // SETUP (its put is between insert and publish) or
                // EVICTING (the hand owns it); the owner resolves the
                // state promptly — re-read and retry.
                std::hint::spin_loop();
                continue;
            }
            // Exclusive reclamation right on `slot`. Remove only while
            // the entry still references it: the lookup above is
            // optimistic, and the entry may have been re-keyed onto a
            // different slot in between.
            match self.map.remove_if(&key, |(s, _)| *s == slot) {
                Some((_, v)) => {
                    self.deletes.fetch_add(1, Ordering::Relaxed);
                    self.release_slot(slot);
                    return Some(v);
                }
                None => {
                    // The entry moved or a racing delete/evictor got it;
                    // give the slot back to its current owner and
                    // re-examine the key.
                    // ORDERING: publish.release-store
                    self.state[si].store(USED, Ordering::Release);
                }
            }
        }
    }

    /// The pre-PR 1 delete: removes the map entry *first* and only then
    /// frees the slot, without claiming it `USED → EVICTING`. Between
    /// those two steps the CLOCK hand can observe the orphaned USED
    /// slot, fail its `remove_if`, and reclaim the slot itself — after
    /// which our own `release_slot` frees it a second time. Kept (model
    /// builds only, behind [`Self::enable_aba_mutation`]) as the seeded
    /// bug that proves the model checker catches this class of race.
    #[cfg(cuckoo_model)]
    fn delete_aba_buggy(&self, key: u64) -> Option<V> {
        let (slot, v) = self.map.remove(&key)?;
        self.deletes.fetch_add(1, Ordering::Relaxed);
        self.release_slot(slot);
        Some(v)
    }

    /// Model-only: arms [`Self::delete`] with the pre-fix ABA ordering.
    #[cfg(cuckoo_model)]
    pub fn enable_aba_mutation(&mut self) {
        self.aba_mutation = true;
    }

    /// Model-only: one CLOCK sweep, exactly as eviction pressure would
    /// drive it, without needing `capacity` puts to drain the freelist.
    #[cfg(cuckoo_model)]
    pub fn force_evict_one(&self) {
        self.evict_one();
    }

    /// Model-only: clears every recency bit, as a full CLOCK revolution
    /// would — so the next sweep evicts on first encounter instead of
    /// needing the (schedule-deep) second-chance revolution.
    #[cfg(cuckoo_model)]
    pub fn force_clear_recency(&self) {
        for r in self.recency.iter() {
            r.store(0, Ordering::SeqCst);
        }
    }

    /// Model-only invariant check: every freelist slot is FREE and
    /// appears exactly once (a duplicate means a slot was double-freed).
    #[cfg(cuckoo_model)]
    pub fn check_slab_invariants(&self) {
        let free = self.free.lock().expect("freelist mutex poisoned");
        let mut seen = std::collections::HashSet::new();
        for &slot in free.iter() {
            assert!(
                seen.insert(slot),
                "slot {slot} on the freelist twice (double free)"
            );
            assert_eq!(
                self.state[slot as usize].load(Ordering::SeqCst),
                FREE,
                "freelist slot {slot} not in FREE state"
            );
        }
    }

    /// Visits every resident entry without blocking readers (the
    /// underlying table is walked one lock stripe at a time). The view
    /// is *fuzzy* — each entry reflects its value at the moment its
    /// stripe was visited — which is exactly what a persistence snapshot
    /// wants. Returns `false` if a concurrent cuckoo-path displacement
    /// may have hidden an entry from this pass; the caller must discard
    /// what `f` accumulated and retry.
    pub fn scan(&self, mut f: impl FnMut(u64, &V)) -> bool {
        self.map.scan(|k, entry| f(*k, &entry.1))
    }

    /// Deletes every resident entry (memcached `flush_all`), returning
    /// how many were removed. Safe against concurrent writers — each
    /// removal goes through [`delete`](Self::delete)'s slot-claiming
    /// protocol — but not atomic: keys inserted while the flush runs may
    /// survive it. Flushed entries count toward the `deletes` statistic.
    pub fn flush(&self) -> u64 {
        let mut flushed = 0u64;
        loop {
            let mut keys = Vec::new();
            // A displacement can hide a key from one pass; the loop only
            // exits on a clean pass that found nothing.
            let clean = self.scan(|k, _| keys.push(k));
            if keys.is_empty() && clean {
                return flushed;
            }
            for k in keys {
                if self.delete(k).is_some() {
                    flushed += 1;
                }
            }
        }
    }

    /// Pops a free slot (in SETUP state, invisible to the hand), evicting
    /// until one is available.
    fn alloc_slot(&self) -> u32 {
        loop {
            if let Some(slot) = self.free.lock().expect("freelist mutex poisoned").pop() {
                // ORDERING: handoff.acqrel-rmw
                let prev = self.state[slot as usize].swap(SETUP, Ordering::AcqRel);
                debug_assert_eq!(prev, FREE);
                return slot;
            }
            self.evict_one();
        }
    }

    /// Returns a slot to the freelist (caller owns it as USED or
    /// EVICTING).
    fn release_slot(&self, slot: u32) {
        // ORDERING: publish.release-store
        self.state[slot as usize].store(FREE, Ordering::Release);
        self.free.lock().expect("freelist mutex poisoned").push(slot);
    }

    /// Gives up a SETUP slot we own (the hand cannot see SETUP slots, so
    /// the release is unconditional).
    fn abandon_slot(&self, slot: u32) {
        // ORDERING: handoff.acqrel-rmw
        let prev = self.state[slot as usize].swap(FREE, Ordering::AcqRel);
        debug_assert_eq!(prev, SETUP);
        self.free.lock().expect("freelist mutex poisoned").push(slot);
    }

    /// One CLOCK sweep step that frees exactly one slot (or discovers
    /// another thread already did).
    fn evict_one(&self) {
        // Bound the sweep: after two full revolutions every recency bit
        // has been cleared once, so a USED slot must yield.
        for _ in 0..self.capacity * 2 + 1 {
            // ORDERING: alloc.unique-id
            let h = self.hand.fetch_add(1, Ordering::Relaxed) % self.capacity;
            if self.state[h]
                // ORDERING: handoff.acqrel-rmw
                .compare_exchange(USED, EVICTING, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue; // free, or another evictor owns it
            }
            // ORDERING: handoff.acqrel-rmw
            if self.recency[h].swap(0, Ordering::AcqRel) != 0 {
                // Second chance.
                self.second_chances.fetch_add(1, Ordering::Relaxed); // ORDERING: stats.counter
                // ORDERING: publish.release-store
                self.state[h].store(USED, Ordering::Release);
                continue;
            }
            // ORDERING: publish.acquire-load
            let key = self.slab_keys[h].load(Ordering::Acquire);
            // Remove only while the entry still references this slot: a
            // racing delete + re-put may have re-keyed the entry onto a
            // different slot, and evicting that one would strand it.
            if self
                .map
                .remove_if(&key, |(s, _)| *s == h as u32)
                .is_some()
            {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            // Either we evicted the entry, or its owner died (delete or
            // failed put) and left the release to us: the slot is ours
            // to reclaim in both cases.
            self.release_slot(h as u32);
            return;
        }
        // All slots raced away (deleted/evicted concurrently); let the
        // caller re-check the freelist.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_get_put_delete() {
        let c: ClockCache<u64> = ClockCache::new(100);
        assert_eq!(c.get(1), None);
        c.put(1, 10);
        c.put(2, 20);
        assert_eq!(c.get(1), Some(10));
        c.put(1, 11);
        assert_eq!(c.get(1), Some(11));
        assert_eq!(c.delete(1), Some(11));
        assert_eq!(c.get(1), None);
        assert_eq!(c.len(), 1);
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn get_many_matches_single_gets() {
        let c: ClockCache<u64> = ClockCache::new(256);
        for k in 0..100u64 {
            c.put(k, k * 3);
        }
        // Hits, misses, and duplicates, larger than one pipeline group.
        let keys: Vec<u64> = (0..30).map(|i| if i % 3 == 2 { 1_000 + i } else { i % 7 }).collect();
        let mut out = Vec::new();
        c.get_many(&keys, &mut out);
        assert_eq!(out.len(), keys.len());
        for (k, got) in keys.iter().zip(&out) {
            assert_eq!(*got, c.get(*k), "key {k}");
        }
        // Hit/miss accounting matched the per-key outcomes.
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 2 * keys.len() as u64);
    }

    #[test]
    fn put_many_matches_put_semantics() {
        let c: ClockCache<u64> = ClockCache::new(256);
        c.put(2, 2); // incumbent: batch pair (2, 222) must replace it
        // Inserts, replacements, and an in-batch duplicate (last wins),
        // larger than one pipeline group.
        let pairs: Vec<(u64, u64)> =
            (0..20u64).map(|k| (k, k * 10)).chain([(2, 222), (5, 555), (5, 556)]).collect();
        c.put_many(&pairs);
        assert_eq!(c.get(2), Some(222));
        assert_eq!(c.get(5), Some(556));
        for k in [0u64, 1, 3, 4, 6, 19] {
            assert_eq!(c.get(k), Some(k * 10), "key {k}");
        }
        let s = c.stats();
        assert_eq!(s.inserts, 20, "one insert per distinct new key");
        assert_eq!(s.updates, 4, "incumbent + in-batch duplicates replace in place");
        // Eviction still bounds a batch bigger than the cache.
        let flood: Vec<(u64, u64)> = (1_000..3_000u64).map(|k| (k, k)).collect();
        c.put_many(&flood);
        assert!(c.len() <= c.capacity());
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn capacity_is_bounded() {
        let c: ClockCache<u64> = ClockCache::new(64);
        for k in 0..10_000u64 {
            c.put(k, k);
        }
        assert!(c.len() <= 64, "resident {} > capacity", c.len());
        assert!(c.stats().evictions >= 10_000 - 64);
    }

    #[test]
    fn second_chance_protects_hot_keys() {
        let c: ClockCache<u64> = ClockCache::new(32);
        // Hot working set.
        for k in 0..8u64 {
            c.put(k, k);
        }
        // Cold scan with periodic hot-key touches.
        for cold in 100..2_000u64 {
            c.put(cold, cold);
            for k in 0..8u64 {
                let _ = c.get(k);
            }
        }
        let surviving = (0..8u64).filter(|k| c.get(*k).is_some()).count();
        assert!(
            surviving >= 7,
            "hot keys should survive a cold scan, kept {surviving}/8"
        );
        assert!(c.stats().second_chances > 0);
    }

    #[test]
    fn untouched_key_is_evicted_first() {
        // Deterministic single-threaded CLOCK semantics: fill, touch all
        // but one, insert one more — the untouched entry goes.
        let c: ClockCache<u64> = ClockCache::new(8);
        for k in 0..8u64 {
            c.put(k, k);
        }
        // `put` sets recency; one full hand sweep will clear everyone
        // once. Touch all but key 3 afterwards so only 3 lacks recency.
        for k in 0..8u64 {
            if k != 3 {
                let _ = c.get(k);
            }
        }
        // First insertion at capacity: hand clears bits one revolution
        // (everyone has recency 1 from put/get), then evicts the first
        // cleared-and-untouched slot. Re-touch survivors between puts to
        // keep them protected.
        c.put(100, 100);
        for k in 0..8u64 {
            if k != 3 {
                let _ = c.get(k);
            }
        }
        c.put(101, 101);
        assert_eq!(c.get(3), None, "untouched key must be evicted");
        let kept = (0..8u64).filter(|&k| k != 3 && c.get(k).is_some()).count();
        assert!(kept >= 6, "touched keys mostly survive, kept {kept}/7");
    }

    #[test]
    fn concurrent_churn_stays_bounded_and_consistent() {
        let c: ClockCache<u64> = ClockCache::new(256);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        let k = t * 1_000_000 + (i % 500);
                        c.put(k, k ^ 0xff);
                        if let Some(v) = c.get(k) {
                            assert_eq!(v, k ^ 0xff, "wrong value for {k}");
                        }
                        if i % 7 == 0 {
                            c.delete(k);
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 256);
        // Slab bookkeeping is consistent: resident entries == used slots.
        let used = c
            .state
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) == USED)
            .count();
        assert_eq!(used, c.len(), "slab/map divergence");
        let free = c.free.lock().unwrap().len();
        assert_eq!(used + free, c.capacity);
    }

    /// A capacity equal to the table's slot count: the slab holds
    /// [`MAX_LOAD_PERCENT`] of the slots, so a full cache evicts through
    /// the CLOCK hand and its inserts stay off the full-table lock.
    #[test]
    fn writers_fill_a_cache_sized_to_its_table() {
        use std::collections::HashMap;
        use std::time::{Duration, Instant};
        const CAP: usize = 1 << 12;
        const THREADS: u64 = 2;
        const KEYS_PER_THREAD: u64 = 2 * CAP as u64; // 4× capacity in all
        let c: std::sync::Arc<ClockCache<u64>> = std::sync::Arc::new(ClockCache::new(CAP));
        assert_eq!(c.table_slots(), CAP);
        assert_eq!(c.capacity(), CAP * MAX_LOAD_PERCENT / 100);
        // Threads of their own rather than a scope, so that a livelocked
        // writer fails the test at the deadline instead of hanging it.
        let (done, finished) = std::sync::mpsc::channel();
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (c, done) = (c.clone(), done.clone());
                std::thread::spawn(move || {
                    // Each key's last written value; `None` once a
                    // `replace` found it evicted (no one writes it again).
                    let mut last = HashMap::new();
                    let keys: Vec<u64> = (0..KEYS_PER_THREAD).map(|i| t << 32 | i).collect();
                    for (j, group) in keys.chunks(16).enumerate() {
                        match j % 3 {
                            0 => group.iter().for_each(|&k| c.put(k, k)),
                            1 => c.put_many(&group.iter().map(|&k| (k, k)).collect::<Vec<_>>()),
                            _ => {
                                for &k in group {
                                    assert!(c.put_if_absent(k, k), "fresh key {k} refused");
                                }
                            }
                        }
                        for &k in group {
                            let v = if k % 4 == 0 { c.replace(k, !k).then_some(!k) } else { Some(k) };
                            last.insert(k, v);
                        }
                    }
                    let _ = done.send(());
                    last
                })
            })
            .collect();
        drop(done);
        let deadline = Instant::now() + Duration::from_secs(60);
        for _ in 0..THREADS {
            let wait = deadline.saturating_duration_since(Instant::now());
            match finished.recv_timeout(wait) {
                Ok(()) => {}
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    panic!("writers still busy after 60 s: livelock in a full cache")
                }
                // A writer panicked; joining it reports why.
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        let last: HashMap<u64, Option<u64>> =
            writers.into_iter().flat_map(|w| w.join().expect("writer panicked")).collect();
        let (len, s) = (c.len(), c.stats());
        assert!(len <= c.capacity(), "resident {len} > capacity");
        assert!(len as f64 >= 0.9 * c.table_slots() as f64, "resident {len}: the table ran sparse");
        assert_eq!(s.evictions, s.inserts - s.deletes - len as u64, "{s:?}");
        // At the table's own load limit nearly every insert escalated to
        // the full-table lock; below it, next to none do.
        let fallbacks = c.map.path_stats().full_table_fallbacks;
        assert!(fallbacks * 100 < s.inserts, "{fallbacks} full-table inserts of {}", s.inserts);
        let mut resident = 0;
        assert!(c.scan(|k, &v| {
            resident += 1;
            assert_eq!(last[&k], Some(v), "key {k} holds a stale value");
        }));
        assert_eq!(resident, len);
    }

    /// Keys crowding one bucket pair leave an insert no cuckoo path at
    /// any load: it keeps its slab slot and evicts until it lands.
    #[test]
    fn an_insert_with_no_cuckoo_path_evicts_until_it_lands() {
        let c: ClockCache<u64> = ClockCache::new(64);
        let pair = |k: u64| {
            let ks = c.map.key_slots(&k);
            (ks.i1.min(ks.i2), ks.i1.max(ks.i2))
        };
        // One more key than the pair's two 8-way buckets hold.
        let crowd: Vec<u64> = (1..).filter(|&k| pair(k) == pair(0)).take(16).collect();
        let crowd: Vec<u64> = std::iter::once(0).chain(crowd).collect();
        for &k in &crowd[..16] {
            c.put(k, k);
        }
        assert_eq!(c.stats().evictions, 0);
        c.put(crowd[16], crowd[16]);
        assert!(c.map.path_stats().full_table_fallbacks >= 1, "the insert found a path");
        // The hand clears every recency bit once, then takes the oldest.
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.get(crowd[0]), None);
        assert_eq!(c.get(crowd[16]), Some(crowd[16]));
        assert_eq!(c.len(), 16);
    }

    #[test]
    fn add_replace_semantics() {
        let c: ClockCache<u64> = ClockCache::new(64);
        assert!(!c.replace(1, 10), "replace of absent key must fail");
        assert!(c.put_if_absent(1, 10), "add of absent key must store");
        assert!(!c.put_if_absent(1, 11), "add of present key must fail");
        assert_eq!(c.get(1), Some(10));
        assert!(c.replace(1, 12));
        assert_eq!(c.get(1), Some(12));
        let s = c.stats();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.updates, 1);
        assert_eq!(s.deletes, 0);
        c.delete(1);
        assert_eq!(c.stats().deletes, 1);
        c.record_expiration();
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn racing_adds_store_exactly_once() {
        let c: ClockCache<u64> = ClockCache::new(1024);
        let wins: AtomicU64 = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (c, wins) = (&c, &wins);
                s.spawn(move || {
                    for k in 0..500u64 {
                        if c.put_if_absent(k, k) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 500, "each key admits one add");
        assert_eq!(c.len(), 500);
    }

    #[test]
    fn delete_frees_capacity() {
        let c: ClockCache<u64> = ClockCache::new(16);
        for k in 0..16u64 {
            c.put(k, k);
        }
        assert_eq!(c.len(), 16);
        for k in 0..8u64 {
            c.delete(k);
        }
        assert_eq!(c.len(), 8);
        // Re-fill without evictions of the survivors.
        let evictions_before = c.stats().evictions;
        for k in 100..108u64 {
            c.put(k, k);
        }
        assert_eq!(c.stats().evictions, evictions_before);
        assert_eq!(c.len(), 16);
    }

    #[test]
    fn memory_footprint_is_fixed() {
        let c: ClockCache<[u8; 64]> = ClockCache::new(1024);
        let empty = c.memory_bytes();
        // At least the table's inline entries plus the slab arrays.
        assert!(empty > 1024 * 64);
        for k in 0..10_000u64 {
            c.put(k, [0; 64]);
        }
        // The cache never allocates after construction: same footprint
        // at full occupancy (with evictions churning) as when empty.
        assert_eq!(c.memory_bytes(), empty);
    }
}
