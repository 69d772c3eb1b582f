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
//! Design (MemC3's layout: a small index over an item slab):
//!
//! - the cuckoo map stores `key → slot`, about 12 bytes per table slot,
//!   where `slot` names a size class of the side **slab** and a slot in
//!   it. The classes are the strides of [`STRIDES`] (64, 80, 96, … 320
//!   bytes, up to the one that holds the largest `V`), and an item takes
//!   the smallest slot that holds its [used length](Plain::used_len). A
//!   slot is a 16-byte header — the owning key, and one word that
//!   combines the slot's lifecycle with a seqlock version (the idiom of
//!   `cuckoo::sync`) — followed by the item's bytes, in every build: the
//!   model checker's builds read the same header words. An 8-way bucket
//!   is 1.5 lines whatever the value size, and a cuckoo displacement
//!   moves 12 bytes, not the item;
//! - `GET` is the map's lock-free optimistic read of the slot, then a
//!   copy of the slab slot validated against its word: the slot must be
//!   live, unwritten across the copy, and still owned by the key probed.
//!   A slot freed or recycled since the probe sends the read back to the
//!   table: the key has left it, or moved to a slot of another class. A
//!   hit sets the slot's recency bit if it is clear; reads never write
//!   the table's or the items' cache lines, and the recency bits live in
//!   dense side arrays exactly as MemC3's CLOCK bits do;
//! - `SET` of a present key whose new value needs the same class
//!   rewrites its slab slot in place, inside the word's write window;
//!   the table is not written. A value that needs another class is
//!   written to a slot of that class, and the table entry is repointed
//!   to it before the old slot is freed. A new key takes a slot of its
//!   class — a returned one, else the next never-used one — fills it,
//!   and publishes it with the table insert. When the cache holds its
//!   capacity, a CLOCK hand sweeps the new item's class (another class
//!   when that one holds nothing): recency bit set → clear and advance
//!   (second chance), clear → evict that slot's key. The table has only
//!   as many slots as the cache has entries (rounded up to its bucket
//!   grid), and the cache holds at most [`MAX_LOAD_PERCENT`] of them, so
//!   the capacity binds before the table's load limit and eviction stays
//!   on this path. An insert that still finds no cuckoo path evicts the
//!   same way until it lands, which is MemC3's answer to a failed insert;
//! - each class reserves room for the whole capacity, allocated zeroed
//!   and mapped lazily, and hands out slots densely from index 0, so
//!   resident memory follows the resident items and their sizes, not the
//!   capacity; [`ClockCache::memory_bytes`] counts what is handed out.
//!
//! Recency is approximate under races (a `GET` may mark a slot that was
//! just recycled) — which is CLOCK's nature and why MemC3 chose it: "a
//! compact data structure that can be updated concurrently without
//! locking".

// ORDERING-FILE: stats.counter — hit/miss/eviction counters for the stats contract.
use core::mem::{size_of, MaybeUninit};

use cuckoo::prefetch::{prefetch_read, prefetch_write};
use cuckoo::raw::zeroed_slice;
use cuckoo::sync::backoff;
use cuckoo::sync2::atomic::{fence, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use cuckoo::sync2::Mutex;
use cuckoo::{InsertError, OptimisticCuckooMap, Plain};

/// A slab slot's lifecycle, in the low two bits of its word.
const STATE: u64 = 0b11;
/// Never used, or back on the free stack.
const FREE: u64 = 0;
/// Allocated by a `put` whose map insert (or repoint) has not landed
/// yet; invisible to the CLOCK hand.
const SETUP: u64 = 1;
const USED: u64 = 2;
/// Claimed by the CLOCK hand, a `delete`, or a `replace` that moves the
/// item to another class: the only ones that take a slot's key off it.
const EVICTING: u64 = 3;
/// One step of the version above the state bits. The version is odd
/// while the slot's item or owner is being written.
const WRITING: u64 = 1 << 2;

/// Keys per batch group of [`ClockCache::visit_many`] and
/// [`ClockCache::put_many`]: a group's table reads resolve first, then
/// every hit's slab lines are requested before any is copied, so the
/// items' misses overlap. Kept because a plain loop loses end to end
/// (CHANGES.md has the rows).
const MULTIGET_GROUP: usize = 8;

/// A cache line.
const LINE: usize = 64;

/// The slab's slot sizes, smallest first: a cache of `V` uses those
/// below `HEAD + size_of::<V>()` and the first that holds it. Each is a
/// multiple of 16 whose slots, wherever they start, span no more lines
/// than their size needs (`ceil(stride / 64)`), so a read copies no
/// line a larger class would not: 112 is left out, since its slot at
/// offset 48 spans three lines. Eight classes keep a slot name's class
/// in three bits.
pub const STRIDES: [usize; 8] = [64, 80, 96, 128, 160, 192, 256, 320];

/// Bytes of a slot's header: its word, then its owner.
pub const HEAD: usize = 16;

/// The most of its table's slots a cache fills, in percent. Filling an
/// empty table, the insert search first fails at load 0.977–0.986
/// (2^12–2^21 slots), and a failed search escalates to the full-table
/// lock. A cache allowed up to that limit pays this on nearly every new
/// key once full; at 95 % (the paper's occupancy, §6.2), 2 threads
/// churning 4× a 2^18-slot cache's keys took no full-table fallback.
pub const MAX_LOAD_PERCENT: usize = 95;

/// One size class of the slab: slots of `stride` bytes, each a header
/// (word, owner) and then the item's bytes.
///
/// Invariant: a USED slot's owner maps to the slot in the table. The
/// insert or repoint lands before the slot turns USED, and only a
/// claimant — the one that moved the word to EVICTING — takes the entry
/// off the slot, before it frees the slot.
///
/// The slots are stored as 8-byte words: std zero-fills an allocation
/// aligned beyond 16 bytes by hand, touching every page, while a zeroed
/// array of words stays lazily mapped. The slots start at the first line
/// boundary inside it. The words are `cuckoo::sync2`'s atomics, so a
/// slot's header is its first two words in every build: in model builds
/// the checker's instrumented atomics are laid out as std's, and each
/// header access is one of its scheduling points. An item access is a
/// racy per-chunk copy (`cuckoo::racy`), so concurrent readers and
/// writers are defined behavior; the slot's word says whether a copy is
/// whole.
struct Class {
    words: Box<[AtomicU64]>,
    /// Index of the first line-aligned word.
    first: usize,
    /// Bytes from one slot to the next: one of [`STRIDES`].
    stride: usize,
    /// CLOCK recency bits, one per slot.
    recency: Box<[AtomicU8]>,
    /// Slots returned by evictions, deletes and moves; reused before
    /// fresh ones.
    free: Mutex<Vec<u32>>,
    /// Slots below this have been handed out. Raised only under the
    /// `free` lock; the CLOCK hand sweeps below it.
    bump: AtomicUsize,
    /// The class's CLOCK hand.
    hand: AtomicUsize,
    /// Slots out of the free stack (SETUP, USED or EVICTING): steers
    /// eviction to a class that holds items.
    held: AtomicUsize,
    /// Items the CLOCK hand evicted from this class.
    evictions: AtomicU64,
}

impl Class {
    /// A class of `n` slots of `stride` bytes.
    fn new(n: usize, stride: usize) -> Self {
        // SAFETY: zero bytes are a valid atomic word — in model builds too,
        // where the checker's atomics are laid out as std's — and a FREE
        // header at version 0.
        let words: Box<[AtomicU64]> = unsafe { zeroed_slice((n * stride + LINE) / 8) };
        let first = words.as_ptr().cast::<u8>().align_offset(LINE) / 8;
        Class {
            words,
            first,
            stride,
            // SAFETY: zero bytes are a clear recency bit.
            recency: unsafe { zeroed_slice(n) },
            free: Mutex::new(Vec::with_capacity(n)),
            bump: AtomicUsize::new(0),
            hand: AtomicUsize::new(0),
            held: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The words of slot `i`, header first (bounds-checked).
    #[inline]
    fn slot(&self, i: usize) -> &[AtomicU64] {
        let at = self.first + i * self.stride / 8;
        &self.words[at..at + self.stride / 8]
    }

    /// Slot `i`'s word: seqlock version (bits 2..) | lifecycle (bits
    /// 0..2). Each write window advances the version by two, so a reader
    /// that sees one word before and after its copy saw no write and no
    /// reuse.
    #[inline]
    fn word(&self, i: usize) -> &AtomicU64 {
        &self.slot(i)[0]
    }

    /// Slot `i`'s owning key, written only inside a write window.
    #[inline]
    fn owner(&self, i: usize) -> &AtomicU64 {
        &self.slot(i)[1]
    }

    /// Bytes a read of a `V` copies from a slot: the slot's item bytes,
    /// or the whole `V` if that is shorter.
    #[inline]
    fn item_len<V>(&self) -> usize {
        (self.stride - HEAD).min(size_of::<V>())
    }

    /// A copy of slot `i`'s item that a concurrent writer may have torn:
    /// the caller's word validation decides whether it is kept. The
    /// bytes of `V` past the slot are zero.
    #[inline]
    fn load<V: Plain>(&self, i: usize) -> V {
        let n = self.item_len::<V>();
        let item = &self.slot(i)[HEAD / 8..];
        let mut out = MaybeUninit::<V>::uninit();
        // SAFETY: `item` holds `stride - HEAD >= n` bytes, `out` is valid
        // for `size_of::<V>()` writes, and the copy is per-chunk atomic,
        // so racing writers are defined behavior; any bytes are a valid
        // `V` (`Plain`).
        unsafe {
            let dst = out.as_mut_ptr().cast::<u8>();
            cuckoo::racy::load_bytes(item.as_ptr() as usize, dst, n);
            dst.add(n).write_bytes(0, size_of::<V>() - n);
            out.assume_init()
        }
    }

    /// Writes `v`'s used bytes (rounded up to whole words, so the copy
    /// goes a word at a time) into slot `i`. The caller holds the slot's
    /// write window, so no other writer races it, and chose this class
    /// for `v`, so they fit.
    #[inline]
    fn store<V: Plain>(&self, i: usize, v: &V) {
        let n = v.used_len().next_multiple_of(8).min(size_of::<V>());
        let item = &self.slot(i)[HEAD / 8..];
        assert!(n <= size_of_val(item), "a {n}-byte item in a {}-byte slot", self.stride);
        // SAFETY: `item` holds at least `n` bytes (checked), and `v` is
        // valid for `size_of::<V>() >= n` reads.
        unsafe { cuckoo::racy::store_bytes(item.as_ptr() as usize, (v as *const V).cast::<u8>(), n) }
    }

    /// Applies `hint` (a prefetch) to every line a read of a `V` from
    /// slot `i` touches — header, item and recency bit.
    #[inline]
    fn prefetch<V>(&self, i: usize, hint: fn(*const u8)) {
        cuckoo::prefetch::lines(self.slot(i).as_ptr().cast(), HEAD + self.item_len::<V>(), hint);
        hint((&self.recency[i] as *const AtomicU8).cast());
    }

    /// Marks slot `i` recently used. The bit is written only when clear,
    /// so a hot item's hits leave its line shared.
    #[inline]
    fn touch(&self, i: usize) {
        let r = &self.recency[i];
        // ORDERING: advisory.relaxed
        if r.load(Ordering::Relaxed) == 0 {
            // ORDERING: advisory.relaxed
            r.store(1, Ordering::Relaxed);
        }
    }
}

/// What one validated look at a slab slot found.
enum Seen<V> {
    /// The key's item, copied whole.
    Hit(V),
    /// The slot no longer holds the key: it has left the table, or moved
    /// to a slot of another class, since it was probed.
    Gone,
    /// Mid-write, mid-claim, or just inserted: resolves promptly.
    Busy,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found the key.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// Entries evicted by the CLOCK hand, summed over the size classes.
    pub evictions: u64,
    /// Second chances granted (recency bit cleared instead of evicting).
    pub second_chances: u64,
    /// Entries newly inserted (`put` of an absent key, successful
    /// `put_if_absent`).
    pub inserts: u64,
    /// Replacements (`put` of a present key, successful `replace`).
    pub updates: u64,
    /// Explicit `delete` calls that removed an entry.
    pub deletes: u64,
    /// Lazy TTL expirations reported by the owner via
    /// [`ClockCache::record_expiration`] (the cache itself has no clock;
    /// the layer that stamps lifetimes also detects their end).
    pub expirations: u64,
}

/// One size class of a [`ClockCache`]'s slab, as memcached's `stats
/// slabs` reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Bytes of a slot: its 16-byte header and the largest item it holds.
    pub stride: usize,
    /// Slots handed out so far, the class's resident prefix: held or free.
    pub slots: usize,
    /// Slots holding an item, or being filled or emptied.
    pub held: usize,
    /// Handed-out slots back on the free stack.
    pub free: usize,
    /// Items the CLOCK hand evicted from this class.
    pub evictions: u64,
}

/// A fixed-capacity concurrent cache with CLOCK eviction over a cuckoo+
/// table. Keys are `u64` (hash upstream identifiers into them); values
/// are any [`Plain`] type, each kept in a slab slot sized to its
/// [`used_len`](Plain::used_len).
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
    /// The index: key → slot name (`index << CLASS_BITS | class`).
    map: OptimisticCuckooMap<u64, u32, 8>,
    /// The slab, one class per stride of [`STRIDES`] up to the one that
    /// holds the largest `V`.
    classes: Box<[Class]>,
    /// Slots out of the free stacks, across classes: at most `capacity`.
    held: AtomicUsize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    second_chances: AtomicU64,
    inserts: AtomicU64,
    updates: AtomicU64,
    deletes: AtomicU64,
    expirations: AtomicU64,
    item: core::marker::PhantomData<fn() -> V>,
}

impl<V: Plain> ClockCache<V> {
    /// Size classes: the strides below the largest item (header and a
    /// whole `V`), and one that holds it.
    const CLASSES: usize = {
        let mut n = 1;
        while n < STRIDES.len() && STRIDES[n - 1] < HEAD + size_of::<V>() {
            n += 1;
        }
        n
    };

    /// Low bits of a slot name that name its class.
    const CLASS_BITS: u32 = usize::BITS - (Self::CLASSES - 1).leading_zeros();

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
    ///
    /// Nothing is touched per slot: each class's arrays come zeroed and
    /// are mapped as its slots are first handed out.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8);
        assert!(capacity < (u32::MAX >> Self::CLASS_BITS) as usize, "slab slot names are u32");
        let map = OptimisticCuckooMap::with_capacity(capacity);
        let capacity = capacity.min(map.capacity() * MAX_LOAD_PERCENT / 100);
        ClockCache {
            map,
            classes: (0..Self::CLASSES).map(|c| Class::new(capacity, Self::stride(c))).collect(),
            held: AtomicUsize::new(0),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            second_chances: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
            item: core::marker::PhantomData,
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

    /// Heap bytes the cache holds: the cuckoo table (buckets, lock
    /// stripes, sharded counter) plus every slab slot handed out so far,
    /// with its recency byte. Each class reserves room for the whole
    /// capacity, since every item may take the same class, but its pages
    /// are mapped only as its slots are first handed out, densely from
    /// index 0; so this follows the items stored and their classes, and
    /// never falls, since a freed slot stays handed out for reuse. Read
    /// without locks, so owners can report it (e.g. `cuckood`'s `stats`).
    pub fn memory_bytes(&self) -> usize {
        // ORDERING: advisory.relaxed
        let slab = |c: &Class| c.bump.load(Ordering::Relaxed) * (c.stride + size_of::<AtomicU8>());
        self.map.memory_bytes() + self.classes.iter().map(slab).sum::<usize>()
    }

    /// Each size class's stride and slot counts, smallest first. Takes
    /// each class's free-stack lock: for reporting, not for hot paths.
    pub fn class_stats(&self) -> Vec<ClassStats> {
        let stats = |class: &Class| {
            let free = class.free.lock().expect("freelist mutex poisoned");
            ClassStats {
                stride: class.stride,
                // ORDERING: advisory.relaxed
                slots: class.bump.load(Ordering::Relaxed),
                // ORDERING: advisory.relaxed
                held: class.held.load(Ordering::Relaxed),
                free: free.len(),
                evictions: class.evictions.load(Ordering::Relaxed),
            }
        };
        self.classes.iter().map(stats).collect()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.classes.iter().map(|c| c.evictions.load(Ordering::Relaxed)).sum(),
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

    /// Bytes of a slot of class `c`: its stride in [`STRIDES`], or, for
    /// the last class of a `V` larger than every stride, the whole item
    /// rounded up to a line.
    fn stride(c: usize) -> usize {
        let whole = HEAD + size_of::<V>();
        if c + 1 == Self::CLASSES && STRIDES[c] < whole {
            whole.next_multiple_of(LINE)
        } else {
            STRIDES[c]
        }
    }

    /// The class whose slots hold `v`: the smallest stride that holds the
    /// header and `v`'s used bytes.
    fn class_of(v: &V) -> usize {
        let need = HEAD + v.used_len().min(size_of::<V>());
        STRIDES[..Self::CLASSES - 1].iter().take_while(|&&stride| stride < need).count()
    }

    /// The name the table stores for slot `i` of class `c`.
    fn name(c: usize, i: usize) -> u32 {
        (i << Self::CLASS_BITS | c) as u32
    }

    /// The class and index a slot name stands for.
    #[inline]
    fn at(&self, t: u32) -> (usize, &Class, usize) {
        let c = t as usize & ((1 << Self::CLASS_BITS) - 1);
        (c, &self.classes[c], (t >> Self::CLASS_BITS) as usize)
    }

    /// Looks up `key`, marking it recently used on a hit.
    pub fn get(&self, key: u64) -> Option<V> {
        let v = self.read(key, self.map.get(&key));
        match v {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        v
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

    /// The batched read itself: calls `f(i, value)` exactly once per key,
    /// in order, with the resident value borrowed from a validated copy.
    /// Each group of `MULTIGET_GROUP` keys goes through the table's
    /// multi-key read; once the group's slots resolve, every hit's slab
    /// lines are requested before any is copied, so the items' misses
    /// overlap too.
    /// Marks every found entry recently used and counts nothing: an
    /// owner that only peeks stays out of `hits`/`misses`, and one that
    /// decides for itself what a hit is reports through
    /// [`record_gets`](Self::record_gets).
    pub fn visit_many(&self, keys: &[u64], mut f: impl FnMut(usize, Option<&V>)) {
        let mut slots = [None; MULTIGET_GROUP];
        for (g, group) in keys.chunks(MULTIGET_GROUP).enumerate() {
            let slots = &mut slots[..group.len()];
            self.probe_group(group, slots, prefetch_read::<u8>);
            for (j, (&key, &s)) in group.iter().zip(slots.iter()).enumerate() {
                f(g * MULTIGET_GROUP + j, self.read(key, s).as_ref());
            }
        }
    }

    /// The table's multi-key read of one group of keys into `slots`,
    /// then `hint` (a prefetch) over every hit's slab lines — header,
    /// item and recency bit — before any is touched.
    fn probe_group(&self, keys: &[u64], slots: &mut [Option<u32>], hint: fn(*const u8)) {
        self.map.visit_many(keys, |j, s| slots[j] = s.copied());
        for &t in slots.iter().flatten() {
            let (_, class, i) = self.at(t);
            class.prefetch::<V>(i, hint);
        }
    }

    /// The slab half of a lookup: `key`'s value, given the slot the table
    /// mapped it to (`None`: the table has no `key`). Marks a hit
    /// recently used.
    fn read(&self, key: u64, mut slot: Option<u32>) -> Option<V> {
        let mut spins = 0;
        loop {
            let t = slot?;
            match self.look(t, key) {
                Seen::Hit(v) => {
                    // Benign approximation: the slot may be recycled
                    // right after; marking a stranger's slot recent only
                    // delays its eviction by one sweep.
                    let (_, class, i) = self.at(t);
                    class.touch(i);
                    return Some(v);
                }
                // Gone from this slot, not necessarily from the table: a
                // replace may have moved it to another class.
                Seen::Gone => slot = self.map.get(&key),
                // The claim under way may remove the key, so the table is
                // probed again.
                Seen::Busy => {
                    backoff(&mut spins);
                    slot = self.map.get(&key);
                }
            }
        }
    }

    /// One validated look at slot `t` for `key`: stamp the word, copy,
    /// re-check the word. The copy counts only if the slot was USED and
    /// outside a write window throughout, and owned by `key`.
    fn look(&self, t: u32, key: u64) -> Seen<V> {
        let (_, class, i) = self.at(t);
        let word = class.word(i);
        // ORDERING: seqlock.read-begin
        let w = word.load(Ordering::Acquire);
        match w & (STATE | WRITING) {
            USED => {}
            // Released: the table maps a key here only until then.
            FREE => return Seen::Gone,
            _ => return Seen::Busy,
        }
        // ORDERING: advisory.relaxed
        let owner = class.owner(i).load(Ordering::Relaxed);
        let v = class.load(i);
        // ORDERING: seqlock.validate
        fence(Ordering::Acquire);
        let stable = word.load(Ordering::Acquire) == w;
        if !stable {
            Seen::Busy
        } else if owner != key {
            // Recycled: `key` left the slot before it was reused.
            Seen::Gone
        } else {
            Seen::Hit(v)
        }
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
    /// duplicates within a batch included, last write wins. Each group
    /// of `MULTIGET_GROUP` keys is pipelined before any is written:
    /// both candidate bucket metadata lines of every key are requested
    /// with write intent, the group's table read finds the present
    /// keys' slots, and those slots' slab lines are requested with
    /// write intent, so the group's misses overlap instead of
    /// serializing. Slot allocation and CLOCK eviction stay per-pair —
    /// the hand is inherently serial.
    pub fn put_many(&self, pairs: &[(u64, V)]) {
        let mut keys = [0; MULTIGET_GROUP];
        let mut slots = [None; MULTIGET_GROUP];
        for group in pairs.chunks(MULTIGET_GROUP) {
            let (keys, slots) = (&mut keys[..group.len()], &mut slots[..group.len()]);
            for (k, (key, _)) in keys.iter_mut().zip(group) {
                self.map.prefetch_write_for(key);
                *k = *key;
            }
            self.probe_group(keys, slots, prefetch_write::<u8>);
            for (key, value) in group {
                self.put(*key, *value);
            }
        }
    }

    /// Stores `key → value` only if the key is already present
    /// (memcached `replace`). Returns whether it stored.
    pub fn replace(&self, key: u64, value: V) -> bool {
        self.replace_if(key, value, |_| true)
    }

    /// [`replace`](Self::replace) only if `key`'s current value passes
    /// `keep`, decided under the same claim as the write — so an owner
    /// that stores lifetimes or full keys inside its values can refuse
    /// to overwrite an expired item or a hash-colliding stranger without
    /// a separate look first. Returns whether it stored.
    ///
    /// A value of the item's class is rewritten in place in its slab
    /// slot, inside the slot's write window; the table is not written.
    /// A value of another class is first written to a free slot of that
    /// class; then the old slot is claimed, the table entry repointed to
    /// the new slot under its pair lock, and the old slot freed. The new
    /// slot is taken before the claim, so a claimant never waits for an
    /// eviction.
    pub fn replace_if(&self, key: u64, value: V, keep: impl FnOnce(&V) -> bool) -> bool {
        let c = Self::class_of(&value);
        // A SETUP slot of class `c` holding `value`, once one is needed.
        let mut spare: Option<(u32, u64)> = None;
        let mut spins = 0;
        let (t, w, moving) = loop {
            let Some(t) = self.map.get(&key) else {
                if let Some((s, sw)) = spare {
                    self.release_slot(s, sw);
                }
                return false;
            };
            let moving = self.at(t).0 != c;
            if moving && spare.is_none() {
                // Filling may evict `key` itself: probe again after.
                spare = Some(self.fill(c, key, &value));
                continue;
            }
            let claimed = |w| if moving { w & !STATE | EVICTING } else { w + WRITING };
            if let Some(w) = self.claim_at(t, key, claimed) {
                break (t, w, moving);
            }
            backoff(&mut spins);
        };
        let (_, class, i) = self.at(t);
        let stored = keep(&class.load(i));
        if !moving {
            if stored {
                class.store(i, &value);
                class.touch(i);
            }
            // ORDERING: seqlock.unlock-release
            class.word(i).store(w + 2 * WRITING, Ordering::Release);
        } else if stored {
            let (s, sw) = spare.take().expect("a move claims only with its new slot filled");
            // The claim keeps the entry on `t` until this repoint.
            let repointed = self.map.read_modify_write(&key, |cur| {
                debug_assert_eq!(cur, t, "claimed slot {t} lost its entry");
                s
            });
            debug_assert!(repointed.is_some(), "USED slot {t} was not in the table");
            self.publish(s, sw);
            self.release_slot(t, w);
        } else {
            // ORDERING: publish.release-store
            class.word(i).store(w, Ordering::Release);
        }
        // Refused, or the key came to class `c` while the spare was filled.
        if let Some((s, sw)) = spare {
            self.release_slot(s, sw);
        }
        if stored {
            self.updates.fetch_add(1, Ordering::Relaxed);
        }
        stored
    }

    /// Stores `key → value` only if the key is absent (memcached `add`).
    /// Returns whether it stored. Atomic against racing `put_if_absent`
    /// and `put` of the same key: exactly one writer wins, the rest see
    /// `false`.
    pub fn put_if_absent(&self, key: u64, value: V) -> bool {
        let c = Self::class_of(&value);
        let (t, w) = self.fill(c, key, &value);
        loop {
            match self.map.insert(key, t) {
                Ok(()) => {
                    self.publish(t, w);
                    self.inserts.fetch_add(1, Ordering::Relaxed); // ORDERING: stats.counter
                    return true;
                }
                Err(InsertError::KeyExists) => {
                    self.release_slot(t, w);
                    return false;
                }
                // No cuckoo path (MemC3's failed insert). The capacity
                // keeps the load below the search's limit, so this takes
                // keys crowding one bucket pair: keep the slot, and evict
                // until the insert finds a path. Abandoning the slot
                // instead would re-allocate it and fail again at the
                // same load.
                Err(InsertError::TableFull) => {
                    self.evict_for(c);
                }
            }
        }
    }

    /// Takes a slot of class `c` and writes `key → value` into it, in
    /// SETUP: invisible to the CLOCK hand and to readers until
    /// [`publish`](Self::publish)ed. Returns the slot and its word.
    fn fill(&self, c: usize, key: u64, value: &V) -> (u32, u64) {
        let (t, w) = self.alloc_slot(c);
        let (_, class, i) = self.at(t);
        // ORDERING: advisory.relaxed
        class.owner(i).store(key, Ordering::Relaxed);
        class.store(i, value);
        let w = w + WRITING;
        // ORDERING: seqlock.unlock-release
        class.word(i).store(w, Ordering::Release);
        class.touch(i);
        (t, w)
    }

    /// Turns slot `t`, filled at word `w`, USED: done once the table maps
    /// its key to it, and only then visible to the CLOCK hand.
    fn publish(&self, t: u32, w: u64) {
        let (_, class, i) = self.at(t);
        // ORDERING: publish.release-store
        class.word(i).store(w & !STATE | USED, Ordering::Release);
    }

    /// Removes `key`, returning its value.
    pub fn delete(&self, key: u64) -> Option<V> {
        self.delete_if(key, |_| true)
    }

    /// [`delete`](Self::delete) only if `key`'s current value passes
    /// `pred`, decided under the claim that removes it — so an owner that
    /// stores full keys or lifetimes inside its values can delete exactly
    /// the item it named, or only one still expired, without a separate
    /// look first.
    ///
    /// Claims the slot (`USED → EVICTING`) *before* removing the map
    /// entry. The reverse order (remove, then flip the state) is an ABA
    /// bug: between the removal and the state change, the CLOCK hand can
    /// observe the orphaned slot, release it, and a racing `put` can
    /// re-allocate it — at which point the delayed state change frees a
    /// slot the new entry still owns, the freelist holds it twice, and
    /// two live entries end up sharing one slot (caught by the churn
    /// test as `len() > capacity`).
    pub fn delete_if(&self, key: u64, pred: impl FnOnce(&V) -> bool) -> Option<V> {
        let mut spins = 0;
        let (t, w) = loop {
            let t = self.map.get(&key)?;
            if let Some(w) = self.claim_at(t, key, |w| w & !STATE | EVICTING) {
                break (t, w);
            }
            backoff(&mut spins);
        };
        let (_, class, i) = self.at(t);
        let v = class.load(i);
        if !pred(&v) {
            // ORDERING: publish.release-store
            class.word(i).store(w, Ordering::Release);
            return None;
        }
        // The claim keeps the entry in the table until this removal.
        let removed = self.map.remove_if(&key, |&s| s == t);
        debug_assert!(removed.is_some(), "USED slot {t} was not in the table");
        self.deletes.fetch_add(1, Ordering::Relaxed);
        self.release_slot(t, w);
        Some(v)
    }

    /// Claims slot `t` for `key` by moving its word from a stable USED
    /// `w`, owned by `key`, to `claimed(w)`: into a write window, or to
    /// EVICTING. Returns `w`; `None` if the slot was mid-write, mid-claim,
    /// just inserted, or no longer `key`'s — the first three resolve
    /// promptly, and the caller probes the table again since the key may
    /// have left it or moved.
    fn claim_at(&self, t: u32, key: u64, claimed: impl Fn(u64) -> u64) -> Option<u64> {
        let (_, class, i) = self.at(t);
        let word = class.word(i);
        // ORDERING: seqlock.read-begin
        let w = word.load(Ordering::Acquire);
        // ORDERING: advisory.relaxed
        let ours = w & (STATE | WRITING) == USED && class.owner(i).load(Ordering::Relaxed) == key;
        // ORDERING: slab.word
        (ours && word.compare_exchange(w, claimed(w), Ordering::AcqRel, Ordering::Relaxed).is_ok()).then_some(w)
    }

    /// The pre-PR 1 delete: removes the map entry *first* and only then
    /// frees the slot, without claiming it `USED → EVICTING`. Between
    /// those two steps the CLOCK hand can observe the orphaned USED
    /// slot, fail its `remove_if`, and reclaim the slot itself — after
    /// which our own `release_slot` frees it a second time. Kept, in
    /// model builds only, as the seeded bug that proves the model checker
    /// catches this class of race: a model calls it in place of
    /// [`Self::delete`].
    #[cfg(cuckoo_model)]
    pub fn delete_aba_buggy(&self, key: u64) -> Option<V> {
        let t = self.map.remove(&key)?;
        let (_, class, i) = self.at(t);
        let v = class.load(i);
        self.deletes.fetch_add(1, Ordering::Relaxed);
        // ORDERING: publish.acquire-load
        let w = class.word(i).load(Ordering::Acquire);
        self.release_slot(t, w);
        Some(v)
    }

    /// Model-only: one CLOCK sweep, exactly as eviction pressure for an
    /// item of the smallest class would drive it, without needing
    /// `capacity` puts to fill the cache.
    #[cfg(cuckoo_model)]
    pub fn force_evict_one(&self) {
        self.evict_for(0);
    }

    /// Model-only: clears every recency bit, as a full CLOCK revolution
    /// would — so the next sweep evicts on first encounter instead of
    /// needing the (schedule-deep) second-chance revolution.
    #[cfg(cuckoo_model)]
    pub fn force_clear_recency(&self) {
        for r in self.classes.iter().flat_map(|c| c.recency.iter()) {
            r.store(0, Ordering::SeqCst);
        }
    }

    /// Checks the slab's bookkeeping at quiescence (no call in flight),
    /// for tests: every free-stack slot is FREE, handed out before, and
    /// on the stack exactly once (a duplicate means a slot was freed
    /// twice); every other handed-out slot is USED, one per resident
    /// entry; and the slots held, per class and in all, add up and stay
    /// within the capacity.
    #[doc(hidden)]
    pub fn check_slab_invariants(&self) {
        let mut held = 0;
        let mut used = 0;
        for (c, class) in self.classes.iter().enumerate() {
            let free = class.free.lock().expect("freelist mutex poisoned");
            let bump = class.bump.load(Ordering::SeqCst);
            let mut seen = std::collections::HashSet::new();
            for &i in free.iter() {
                assert!(seen.insert(i), "class {c} slot {i} on the freelist twice (double free)");
                assert!((i as usize) < bump, "class {c} free slot {i} was never handed out");
                assert_eq!(
                    class.word(i as usize).load(Ordering::SeqCst) & STATE,
                    FREE,
                    "class {c} freelist slot {i} not in FREE state"
                );
            }
            let class_held = class.held.load(Ordering::SeqCst);
            assert_eq!(class_held + free.len(), bump, "class {c}: held + free != handed out");
            let class_used =
                (0..bump).filter(|&i| class.word(i).load(Ordering::SeqCst) & STATE == USED).count();
            assert_eq!(class_used, class_held, "class {c}: a held slot is not USED");
            held += class_held;
            used += class_used;
        }
        assert_eq!(self.held.load(Ordering::SeqCst), held, "class counts disagree with the total");
        assert!(held <= self.capacity, "{held} slots held, capacity {}", self.capacity);
        assert_eq!(used, self.len(), "USED slots and table entries diverge");
    }

    /// Visits every resident entry without blocking readers (the
    /// underlying table is walked one lock stripe at a time). The view
    /// is *fuzzy* — each entry reflects its value at the moment its
    /// stripe was visited — which is exactly what a persistence snapshot
    /// wants. Returns `false` if a concurrent cuckoo-path displacement
    /// may have hidden an entry from this pass; the caller must discard
    /// what `f` accumulated and retry.
    pub fn scan(&self, mut f: impl FnMut(u64, &V)) -> bool {
        self.map.scan(|&key, &t| f(key, &self.stable_item(t)))
    }

    /// Slot `t`'s item, copied outside any write window. The caller holds
    /// the table stripe of an entry that maps here, so no claimant can
    /// remove or repoint it and release the slot: only an in-place
    /// writer can be mid-write, and it takes no table lock, so waiting it
    /// out cannot deadlock.
    fn stable_item(&self, t: u32) -> V {
        let (_, class, i) = self.at(t);
        let word = class.word(i);
        let mut spins = 0;
        loop {
            // ORDERING: seqlock.read-begin
            let w = word.load(Ordering::Acquire);
            if w & WRITING == 0 {
                let v = class.load(i);
                // ORDERING: seqlock.validate
                fence(Ordering::Acquire);
                if word.load(Ordering::Acquire) == w {
                    return v;
                }
            }
            backoff(&mut spins);
        }
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
            let clean = self.map.scan(|&k, _| keys.push(k));
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

    /// Takes a slot of class `c` for a new item — a returned one, else
    /// the next never-used one — once the cache holds fewer than
    /// `capacity`, evicting until it does, and opens its write window
    /// (SETUP, odd version), invisible to the hand. Returns the slot and
    /// its word.
    fn alloc_slot(&self, c: usize) -> (u32, u64) {
        // ORDERING: handoff.acqrel-rmw
        while self.held.fetch_update(Ordering::AcqRel, Ordering::Acquire, |h| (h < self.capacity).then_some(h + 1)).is_err() {
            self.evict_for(c);
        }
        let class = &self.classes[c];
        let i = {
            let mut free = class.free.lock().expect("freelist mutex poisoned");
            free.pop().map(|i| i as usize).unwrap_or_else(|| {
                // Every class has room for the whole capacity.
                // ORDERING: advisory.relaxed
                let fresh = class.bump.load(Ordering::Relaxed);
                debug_assert!(fresh < self.capacity, "class {c} has no fresh slot");
                // ORDERING: advisory.relaxed
                class.bump.store(fresh + 1, Ordering::Relaxed);
                fresh
            })
        };
        // ORDERING: advisory.relaxed
        class.held.fetch_add(1, Ordering::Relaxed);
        // ORDERING: handoff.acqrel-rmw
        let prev = class.word(i).fetch_add(WRITING | SETUP, Ordering::AcqRel);
        debug_assert_eq!(prev & (STATE | WRITING), FREE);
        (Self::name(c, i), prev + (WRITING | SETUP))
    }

    /// Returns slot `t`, claimed or still in SETUP at word `w`, to its
    /// class's free stack.
    fn release_slot(&self, t: u32, w: u64) {
        let (_, class, i) = self.at(t);
        // ORDERING: publish.release-store
        class.word(i).store(w & !STATE | FREE, Ordering::Release);
        class.free.lock().expect("freelist mutex poisoned").push(i as u32);
        // ORDERING: advisory.relaxed
        class.held.fetch_sub(1, Ordering::Relaxed);
        // Only now, with the slot on the stack, may another allocation
        // count on it.
        // ORDERING: handoff.acqrel-rmw
        self.held.fetch_sub(1, Ordering::AcqRel);
    }

    /// Frees one slot for an item of class `c`: by the CLOCK hand of
    /// class `c` while it holds items, else of the other classes in
    /// turn. Frees nothing if every item raced away (deleted or evicted
    /// concurrently); the caller checks the count again.
    fn evict_for(&self, c: usize) {
        for k in 0..Self::CLASSES {
            let c = (c + k) % Self::CLASSES;
            // ORDERING: advisory.relaxed
            if self.classes[c].held.load(Ordering::Relaxed) > 0 && self.evict_one(c) {
                return;
            }
        }
    }

    /// CLOCK sweep steps over class `c` until one slot is freed; `false`
    /// if none was.
    fn evict_one(&self, c: usize) -> bool {
        let class = &self.classes[c];
        // ORDERING: advisory.relaxed
        let used = class.bump.load(Ordering::Relaxed);
        // Bound the sweep: after two full revolutions every recency bit
        // has been cleared once, so a USED slot must yield.
        for _ in 0..used * 2 {
            // ORDERING: alloc.unique-id
            let i = class.hand.fetch_add(1, Ordering::Relaxed) % used;
            let word = class.word(i);
            // ORDERING: seqlock.advisory-probe
            let w = word.load(Ordering::Relaxed);
            if w & (STATE | WRITING) != USED
                // ORDERING: slab.word
                || word.compare_exchange(w, w & !STATE | EVICTING, Ordering::AcqRel, Ordering::Relaxed).is_err()
            {
                continue; // free, being written, or another claimant has it
            }
            // ORDERING: handoff.acqrel-rmw
            if class.recency[i].swap(0, Ordering::AcqRel) != 0 {
                // Second chance.
                self.second_chances.fetch_add(1, Ordering::Relaxed); // ORDERING: stats.counter
                // ORDERING: publish.release-store
                word.store(w, Ordering::Release);
                continue;
            }
            // ORDERING: advisory.relaxed
            let key = class.owner(i).load(Ordering::Relaxed);
            let t = Self::name(c, i);
            // The claim keeps the entry in the table until this removal;
            // it can be missing only if a delete skipped the claim (the
            // model checker's seeded ABA bug). The slot is ours to
            // reclaim either way.
            if self.map.remove_if(&key, |&s| s == t).is_some() {
                class.evictions.fetch_add(1, Ordering::Relaxed);
            }
            self.release_slot(t, w);
            return true;
        }
        false
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
        // Slab bookkeeping is consistent: resident entries == used slots,
        // and every handed-out slot is either used or free.
        c.check_slab_invariants();
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

    /// `memory_bytes` is the table plus each slot handed out, with its
    /// recency byte: a fresh slot adds its stride and one byte, while a
    /// delete, a reuse and an in-place write add nothing.
    #[test]
    fn memory_bytes_counts_the_slots_handed_out() {
        // 16 + 64 bytes: every item takes an 80-byte slot.
        let c: ClockCache<[u8; 64]> = ClockCache::new(1024);
        let per_slot = 80 + size_of::<AtomicU8>();
        let empty = c.memory_bytes();
        assert_eq!(empty, c.map.memory_bytes(), "an empty cache holds no slab slot");
        for k in 0..100u64 {
            c.put(k, [k as u8; 64]);
            assert_eq!(c.memory_bytes(), empty + (k as usize + 1) * per_slot);
        }
        c.put(5, [0; 64]);
        for k in 0..10u64 {
            c.delete(k);
        }
        assert_eq!(c.memory_bytes(), empty + 100 * per_slot, "an in-place write or a delete");
        for k in 100..110u64 {
            c.put(k, [0; 64]);
        }
        assert_eq!(c.memory_bytes(), empty + 100 * per_slot, "freed slots are reused first");
        // Churn past the capacity: the slab stops at one slot per item.
        for k in 0..10_000u64 {
            c.put(k, [0; 64]);
        }
        assert_eq!(c.memory_bytes(), empty + c.capacity() * per_slot);
    }

    /// Slots are handed out densely from index 0, and a returned slot is
    /// reused before a fresh one: the slab's touched prefix follows the
    /// resident items, not the capacity.
    #[test]
    fn slots_are_handed_out_densely_and_reused() {
        let c: ClockCache<u64> = ClockCache::new(1 << 12);
        for k in 0..100u64 {
            c.put(k, k);
            c.put(k, k + 1); // in place: no second slot
        }
        // A `u64` cache has one class.
        let class = &c.classes[0];
        assert_eq!(class.bump.load(Ordering::Relaxed), 100);
        for k in 0..10u64 {
            assert_eq!(c.delete(k), Some(k + 1));
        }
        for k in 100..110u64 {
            c.put(k, k);
        }
        assert_eq!(class.bump.load(Ordering::Relaxed), 100, "returned slots are reused first");
        assert!(class.free.lock().unwrap().is_empty());
        assert_eq!(c.len(), 100);
    }

    /// `delete_if` decides on the value under the claim that removes it:
    /// a refused delete leaves the item readable and in place.
    #[test]
    fn delete_if_decides_under_the_claim() {
        let c: ClockCache<u64> = ClockCache::new(64);
        c.put(1, 10);
        assert_eq!(c.delete_if(1, |&v| v == 11), None);
        assert_eq!(c.get(1), Some(10));
        assert_eq!(c.stats().deletes, 0);
        assert_eq!(c.delete_if(1, |&v| v == 10), Some(10));
        assert_eq!(c.get(1), None);
        assert_eq!(c.delete_if(1, |_| true), None, "absent key");
        assert_eq!(c.stats().deletes, 1);
        assert!(c.is_empty());
    }

    /// Readers through `visit_many` race two in-place overwriters of the
    /// keys they read and a churner whose fresh keys evict those keys and
    /// reuse their slab slots. Every value shown must be whole (its 32
    /// words equal) and the key's own. (Pinned by the
    /// `cache-skip-slot-revalidate` mutant.)
    #[test]
    fn visit_many_shows_only_whole_values_of_the_key_read() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        const HOT: u64 = 16;
        let item = |key: u64, n: u64| [key << 32 | (n & 0xffff_ffff); 32];
        let c: ClockCache<[u64; 32]> = ClockCache::new(64);
        let stop = AtomicBool::new(false);
        let hot: Vec<u64> = (0..HOT).collect();
        let shown = std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut n = 0;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for &k in &hot {
                            c.put(k, item(k, n));
                            n += 1;
                        }
                    }
                });
            }
            s.spawn(|| {
                for k in HOT.. {
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    c.put(k, item(k, 0));
                }
            });
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let deadline = Instant::now() + Duration::from_millis(400);
                        let mut shown = 0u64;
                        while Instant::now() < deadline {
                            c.visit_many(&hot, |i, v| {
                                let Some(v) = v else { return };
                                assert!(v.iter().all(|&x| x == v[0]), "torn value for key {i}: {v:x?}");
                                assert_eq!(v[0] >> 32, hot[i], "key {i} showed a stranger's value");
                                shown += 1;
                            });
                        }
                        shown
                    })
                })
                .collect();
            let joined: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
            // Stop the writers before a reader's panic resumes: the scope
            // joins them.
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            joined.into_iter().map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e))).sum::<u64>()
        });
        assert!(shown > 0, "no read ever hit");
        assert!(c.stats().evictions > 0, "the churner never evicted");
    }

    /// A value whose used length is its own: `len` words after the
    /// length word, so one type spans every class of its cache.
    #[derive(Clone, Copy, Debug, PartialEq)]
    #[repr(C)]
    struct Var {
        len: u64,
        words: [u64; 36],
    }

    // SAFETY: integers only; any bit pattern is a valid value.
    unsafe impl Plain for Var {
        fn used_len(&self) -> usize {
            8 * (1 + self.len as usize)
        }
    }

    impl Var {
        /// `len` words, each `key << 32 | n`.
        fn new(key: u64, n: u64, len: usize) -> Self {
            let mut words = [0; 36];
            words[..len].fill(key << 32 | n);
            Var { len: len as u64, words }
        }

        /// The words that carry the value.
        fn used(&self) -> &[u64] {
            &self.words[..(self.len as usize).min(36)]
        }
    }

    /// The class a key's item sits in.
    fn class_of_key(c: &ClockCache<Var>, key: u64) -> usize {
        c.at(c.map.get(&key).expect("resident")).0
    }

    /// Every stride is a multiple of 16 whose slots span no more lines
    /// than their size needs at every offset a slot of it can start at,
    /// and the largest item of the widest `V` here fits the last one.
    #[test]
    fn strides_never_straddle_an_extra_line() {
        assert!(STRIDES.windows(2).all(|w| w[0] < w[1]), "{STRIDES:?} ascend");
        for stride in STRIDES {
            assert_eq!(stride % 16, 0, "{stride}");
            for i in 0..LINE {
                let start = i * stride % LINE;
                let lines = (start + stride).div_ceil(LINE);
                assert_eq!(lines, stride.div_ceil(LINE), "a {stride}-byte slot at offset {start}");
            }
        }
        // 112 would: its slot at offset 48 spans three lines.
        assert_eq!((112 % LINE + 112).div_ceil(LINE), 3);
        assert_eq!(ClockCache::<Var>::CLASSES, STRIDES.len(), "16 + 296 bytes: every class");
        assert_eq!(ClockCache::<Var>::CLASS_BITS, 3);
        assert_eq!(ClockCache::<u64>::CLASSES, 1);
        // A `V` past the last stride widens the last class to hold it.
        assert_eq!(ClockCache::<[u8; 400]>::stride(STRIDES.len() - 1), 448);
    }

    /// Each item takes the smallest stride that holds its header and used
    /// bytes, and a replace into another class moves it there and back,
    /// freeing the slot it left.
    #[test]
    fn items_take_the_smallest_class_that_holds_them() {
        let c: ClockCache<Var> = ClockCache::new(64);
        // Header + length word + `len` words: 24 + 8 × `len` bytes.
        for len in 0..=36 {
            let need = HEAD + Var::new(0, 0, len).used_len();
            let smallest = STRIDES.iter().position(|&s| s >= need).expect("the last stride holds any Var");
            assert_eq!(ClockCache::<Var>::class_of(&Var::new(0, 0, len)), smallest, "{len} words");
            assert!(smallest == 0 || STRIDES[smallest - 1] < need);
        }
        let table = [(0, 0), (5, 0), (6, 1), (7, 1), (8, 2), (9, 2), (10, 3), (13, 3), (14, 4), (17, 4)];
        for (len, class) in table.into_iter().chain([(18, 5), (21, 5), (22, 6), (29, 6), (30, 7), (36, 7)]) {
            let key = 100 + len as u64;
            c.put(key, Var::new(key, 0, len));
            assert_eq!(class_of_key(&c, key), class, "{len} words");
            assert_eq!(c.get(key).unwrap().used(), Var::new(key, 0, len).used());
        }
        c.put(1, Var::new(1, 0, 1));
        for (n, len) in [(1, 30), (2, 2), (3, 8), (4, 9), (5, 13)] {
            assert!(c.replace(1, Var::new(1, n, len)));
            assert_eq!(c.get(1).unwrap().used(), Var::new(1, n, len).used());
        }
        assert_eq!(class_of_key(&c, 1), 3);
        // The moves left their old slots free: class 7 holds the two
        // items of 30 and 36 words, class 0 the two of 0 and 5, class 3
        // those of 10 and 13 words and key 1.
        let held: Vec<usize> = c.class_stats().iter().map(|s| s.held).collect();
        assert_eq!(held, [2, 2, 2, 3, 2, 2, 2, 2]);
        assert_eq!(c.stats().updates, 5);
        c.check_slab_invariants();
    }

    /// `class_stats` reports each class's stride, its slots handed out,
    /// held and free, and its own evictions, which sum to the cache's.
    #[test]
    fn class_stats_report_what_each_class_holds() {
        let c: ClockCache<Var> = ClockCache::new(32);
        let cap = c.capacity() as u64;
        for k in 0..4 {
            c.put(k, Var::new(k, 0, 7)); // 80-byte slots
        }
        c.put(10, Var::new(10, 0, 9)); // a 96-byte slot
        c.delete(0);
        let s = c.class_stats();
        assert_eq!(s.iter().map(|s| s.stride).collect::<Vec<_>>(), STRIDES);
        assert_eq!(s[1], ClassStats { stride: 80, slots: 4, held: 3, free: 1, evictions: 0 });
        assert_eq!(s[2], ClassStats { stride: 96, slots: 1, held: 1, free: 0, evictions: 0 });
        assert!(s.iter().enumerate().all(|(i, s)| i == 1 || i == 2 || s.slots == 0));
        // Class-0 items past the capacity: once class 0 holds items, the
        // hand evicts there.
        for k in 100..100 + cap {
            c.put(k, Var::new(k, 0, 1));
        }
        let s = c.class_stats();
        let evicted: u64 = s.iter().map(|s| s.evictions).sum();
        assert!(s[0].evictions > 0 && evicted == c.stats().evictions, "{s:?}");
        assert_eq!(s.iter().map(|s| s.held).sum::<usize>(), c.len());
        c.check_slab_invariants();
    }

    /// `-c` bounds the items of every class together: a full cache evicts
    /// from the new item's class while it holds items, else from another.
    #[test]
    fn a_full_cache_evicts_across_classes() {
        let c: ClockCache<Var> = ClockCache::new(32);
        let cap = c.capacity() as u64;
        for k in 0..cap {
            c.put(k, Var::new(k, 0, 1));
        }
        assert_eq!(c.stats().evictions, 0);
        // The 192-byte class holds nothing: its first item evicts one of
        // class 0's.
        c.put(cap, Var::new(cap, 0, 20));
        assert_eq!(class_of_key(&c, cap), 5);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), cap as usize);
        // Now class 5 holds an item: more of them evict their own class,
        // so the class keeps the share it had when the cache filled.
        for k in cap + 1..cap + 8 {
            c.put(k, Var::new(k, 0, 20));
        }
        assert_eq!(c.stats().evictions, 8);
        let s = c.class_stats();
        assert_eq!((s[5].held, s[5].evictions), (1, 7));
        assert_eq!((s[0].held, s[0].evictions), (cap as usize - 1, 1));
        // Replacing into a full class moves through a slot of it.
        let small = (0..cap).find(|&k| c.get(k).is_some()).expect("a class-0 item survives");
        assert!(c.replace(small, Var::new(small, 1, 20)));
        assert_eq!(c.get(small).unwrap().used(), Var::new(small, 1, 20).used());
        assert!(c.len() <= c.capacity());
        c.check_slab_invariants();
    }

    /// Readers race writers that move their keys between classes with
    /// every write: each read shows the key's own whole value, and never
    /// a miss, since a move repoints the table before it frees the slot
    /// the reader may hold.
    #[test]
    fn readers_follow_items_across_classes() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        const KEYS: u64 = 8;
        // 1, 7, 9, 13, 16, 32 words: the 64-, 80-, 96-, 128-, 160- and
        // 320-byte classes.
        const LENS: [usize; 6] = [1, 7, 9, 13, 16, 32];
        let c: ClockCache<Var> = ClockCache::new(64);
        let classes = LENS.map(|len| ClockCache::<Var>::class_of(&Var::new(0, 0, len)));
        assert_eq!(classes, [0, 1, 2, 3, 4, 7]);
        let keys: Vec<u64> = (0..KEYS).collect();
        for &k in &keys {
            c.put(k, Var::new(k, 0, 1));
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut n = 1;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for &k in &keys {
                        c.put(k, Var::new(k, n, LENS[(n as usize + k as usize) % LENS.len()]));
                    }
                    n += 1;
                }
            });
            let deadline = Instant::now() + Duration::from_millis(300);
            let mut shown = 0u64;
            while Instant::now() < deadline {
                c.visit_many(&keys, |i, v| {
                    let v = v.unwrap_or_else(|| panic!("key {i} missed while it moved"));
                    let used = v.used();
                    assert!(used.iter().all(|&x| x == used[0]), "torn value for key {i}: {used:x?}");
                    assert_eq!(used[0] >> 32, keys[i], "key {i} showed a stranger's value");
                    shown += 1;
                });
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            assert!(shown > 0);
        });
        assert!(c.stats().updates > 0);
        c.check_slab_invariants();
    }
}
