//! Storage engines behind the wire protocol.
//!
//! Two interchangeable backends implement [`Store`]:
//!
//! - [`ClockStore`] (the default) fronts [`cache::ClockCache`] — the
//!   MemC3-style bounded cache. Byte-string keys are mapped onto the
//!   table's `u64` key space with the workspace's SipHash-1-3 (seeded per
//!   process), and the full key + value + metadata are packed into an
//!   [`InlineEntry`]. The cuckoo table maps the key hash to a slab slot,
//!   and the entry lives in that slot of the cache's CLOCK slab, in the
//!   smallest size class that holds it, so a read is the
//!   table's optimistic probe plus one validated copy of the slot, with
//!   zero locking. This mirrors the paper's §6 MemC3 evaluation, which
//!   uses small items; items that do not fit the inline budget are
//!   refused with `SERVER_ERROR object too large for cache`.
//! - [`CuckooStore`] (`--no-evict`) fronts [`cuckoo::CuckooMap`] — the
//!   general auto-resizing table. Arbitrary item sizes, no eviction:
//!   the working set is bounded only by memory, as when `cuckood` is
//!   used as a plain key-value store rather than a cache. The table
//!   maps the same 64-bit key hash to a shared item that holds key,
//!   value and metadata; keys whose hashes collide chain behind one
//!   another in that hash's one entry, so both are kept and served.
//!
//! Expiry (`exptime`) follows memcached: `0` never expires, values up to
//! thirty days are relative seconds, larger values are absolute unix
//! time. Expiry is lazy — detected on access, counted via
//! [`cache::CacheStats::expirations`].

// ORDERING-FILE: stats.counter — hit/miss/eviction tallies and the monotonic CAS-id allocator.

use cache::{CacheStats, ClassStats, ClockCache};
use cuckoo::hash::SipHashBuilder;
use cuckoo::{CuckooMap, Plain};
use persist::SetRef;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::proto::StoreVerb;

/// `exptime` values above this are absolute unix timestamps.
const THIRTY_DAYS: u32 = 60 * 60 * 24 * 30;

/// Current unix time in seconds, saturated into `u32` (valid until 2106).
pub fn now_secs() -> u32 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs().min(u32::MAX as u64) as u32)
        .unwrap_or(0)
}

/// Resolves a wire `exptime` into an absolute deadline (`0` = never).
fn deadline(exptime: u32, now: u32) -> u32 {
    match exptime {
        0 => 0,
        t if t <= THIRTY_DAYS => now.saturating_add(t),
        t => t,
    }
}

pub(crate) fn expired(deadline: u32, now: u32) -> bool {
    deadline != 0 && now >= deadline
}

/// Result of a storage command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// `STORED`. Carries the durable metadata the engine assigned —
    /// the persistence layer logs exactly these values so replay and
    /// replication reproduce the same cas and absolute deadline without
    /// re-reading the table.
    Stored { cas: u64, expires_at: u32 },
    /// `NOT_STORED` — `add` hit a present key / `replace` an absent one.
    NotStored,
    /// `SERVER_ERROR object too large for cache`
    TooLarge,
}

/// One live item as [`Store::read_many`] shows it to its visitor: the
/// value bytes are borrowed from the engine's own copy and are gone
/// when the visitor returns.
#[derive(Debug, Clone, Copy)]
pub struct ItemRef<'a> {
    pub flags: u32,
    pub cas: u64,
    pub data: &'a [u8],
}

/// An owned item copy, for callers that keep one ([`Store::get`]).
pub struct ItemOut {
    pub flags: u32,
    pub cas: u64,
    pub data: Vec<u8>,
}

impl From<ItemRef<'_>> for ItemOut {
    fn from(item: ItemRef<'_>) -> Self {
        ItemOut { flags: item.flags, cas: item.cas, data: item.data.to_vec() }
    }
}

/// One storage command of a coalesced burst (see
/// [`Store::write_many`]): the arguments of [`Store::store`] minus the
/// shared `now`, borrowed straight from the connection's receive
/// buffer. `noreply` stays with the connection — it shapes the reply
/// stream, not the engine.
#[derive(Debug, Clone, Copy)]
pub struct StoreCmd<'a> {
    pub verb: StoreVerb,
    pub key: &'a [u8],
    pub flags: u32,
    pub exptime: u32,
    pub data: &'a [u8],
}

/// Counters surfaced by the `stats` command, uniform across backends.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    pub cache: CacheStats,
    pub len: usize,
    pub capacity: usize,
    /// Bytes the engine's index occupies: the cuckoo table (buckets,
    /// metadata, lock stripes, counters) and, for the clock engine, the
    /// slots of the CLOCK slab beside it that have been handed out, each
    /// with its recency byte: what is resident, not what each size class
    /// reserves. A full cache of 49-byte items (73-byte entries) holds
    /// 97 B of slab per item, and a fresh one holds none. For the
    /// growing engine, also any expansion target and retired table not
    /// yet freed.
    pub table_bytes: usize,
    /// Item slots in the engine's cuckoo table. The clock engine fills at
    /// most 95 % of them, so `capacity` is below this; for the growing
    /// engine the two are equal.
    pub table_slots: usize,
    /// ClockStore only: gets whose 64-bit key hash collided with a
    /// different resident key (answered as a miss).
    pub hash_collisions: u64,
}

/// The protocol-facing storage interface. `now` is passed in (rather
/// than read internally) so tests can drive time.
pub trait Store: Send + Sync + 'static {
    /// The engine's one read path: calls `visit(i, item)` exactly once
    /// per key, in order, with the live item under `keys[i]` (`None` =
    /// miss) borrowed from the engine, so the connection encodes a hit
    /// straight into its reply buffer. A batch goes through the table's
    /// multi-key read; one key is a batch of one. An item
    /// found expired at `now` is reaped and shown as a miss; each key
    /// counts as one `get_hits` or `get_misses` by what was shown.
    fn read_many(&self, keys: &[&[u8]], now: u32, visit: &mut dyn FnMut(usize, Option<ItemRef<'_>>));
    /// [`read_many`](Self::read_many) of one key, as an owned copy.
    fn get(&self, key: &[u8], now: u32) -> Option<ItemOut> {
        let mut out = None;
        self.read_many(&[key], now, &mut |_, item| out = item.map(ItemOut::from));
        out
    }
    /// [`read_many`](Self::read_many) collected into owned copies: one
    /// result per key, in order (`None` = miss).
    fn get_many(&self, keys: &[&[u8]], now: u32, out: &mut Vec<Option<ItemOut>>) {
        out.clear();
        out.reserve(keys.len());
        self.read_many(keys, now, &mut |_, item| out.push(item.map(ItemOut::from)));
    }
    /// The engine's one write path: applies `cmds` in order, each
    /// observing every earlier one (duplicate keys included), with one
    /// cas allocated per command in command order, and calls
    /// `done(i, outcome)` exactly once per command, in order. The CLOCK
    /// engine lands a run of `set`s through the cache's pipelined
    /// `put_many`; the `--no-evict` engine writes one key at a time. One
    /// command is a burst of one. `add` and `replace` decide on the
    /// incumbent (present, expired) under the lock that writes it. Every
    /// write has landed when the call returns, though `done` may see a
    /// `set`'s outcome before it is visible.
    fn write_many(&self, cmds: &[StoreCmd<'_>], now: u32, done: &mut dyn FnMut(usize, StoreOutcome));
    /// [`write_many`](Self::write_many) of one command.
    fn store(
        &self,
        verb: StoreVerb,
        key: &[u8],
        flags: u32,
        exptime: u32,
        data: &[u8],
        now: u32,
    ) -> StoreOutcome {
        let mut out = StoreOutcome::NotStored;
        self.write_many(&[StoreCmd { verb, key, flags, exptime, data }], now, &mut |_, o| out = o);
        out
    }
    /// [`write_many`](Self::write_many) collected: one outcome per
    /// command, in order.
    fn store_many(&self, cmds: &[StoreCmd<'_>], now: u32, out: &mut Vec<StoreOutcome>) {
        out.clear();
        out.reserve(cmds.len());
        self.write_many(cmds, now, &mut |_, o| out.push(o));
    }
    fn delete(&self, key: &[u8]) -> bool;
    /// `flush_all`: drops every item, returning how many went. Not
    /// atomic against concurrent writers (memcached's isn't either);
    /// the persistent wrapper serializes it against all writes.
    fn flush_all(&self) -> u64;
    /// Reinstates one recovered item verbatim — given cas, given
    /// absolute deadline — and keeps the engine's cas allocator above
    /// it. Only called before the server accepts connections (warm
    /// restart) or from the replication applier.
    fn restore(&self, key: &[u8], flags: u32, expires_at: u32, cas: u64, value: &[u8]);
    /// One non-blocking pass over the table, handing every live entry to
    /// `f` as the `Set` that stores it, borrowed from the table. Returns
    /// `false` if a concurrent cuckoo displacement may have hidden an
    /// entry from the pass — the caller must discard what it saw and
    /// retry. Entries already expired at `now` are skipped.
    fn scan_entries(&self, now: u32, f: &mut dyn FnMut(SetRef<'_>)) -> bool;
    /// Graceful-drain hook: flush and fsync any durability tier. The
    /// default (no persistence) is a no-op.
    fn persist_shutdown(&self) -> std::io::Result<()> {
        Ok(())
    }
    fn stats(&self) -> StoreStats;
    /// The CLOCK slab's size classes, smallest first (`stats slabs`).
    /// Default: none, for an engine that keeps no slab.
    fn slab_classes(&self) -> Vec<ClassStats> {
        Vec::new()
    }
    /// Human label for the `stats` output.
    fn engine(&self) -> &'static str;
    /// Appends the backend's cuckoo observability samples (`stats
    /// cuckoo` / `stats prometheus`). Default: no samples, so trivial
    /// backends need not care.
    fn metrics(&self, out: &mut Vec<metrics::Sample>) {
        let _ = out;
    }
    /// Zeroes the backend's resettable metric families (`stats reset`).
    fn metrics_reset(&self) {}
}

// ---------------------------------------------------------------------------
// ClockStore: bounded cache, items in the size-classed CLOCK slab
// ---------------------------------------------------------------------------

/// Inline item budget: key + value together. With the 24-byte header the
/// largest entry is 256 bytes, which with the slab slot's own 16-byte
/// header takes the slab's largest class, 320 bytes (five cache lines).
pub const INLINE_DATA: usize = 232;

/// A complete item (key, value, metadata) packed into a POD block. The
/// CLOCK slab keeps its [used bytes](Plain::used_len) in a slot of the
/// smallest size class that holds them (17-byte keys with 32-byte
/// values: a 96-byte slot, two lines), where readers copy it lock-free
/// and validate the copy against the slot's version word.
#[derive(Clone, Copy)]
#[repr(C)]
pub struct InlineEntry {
    klen: u16,
    vlen: u16,
    flags: u32,
    expires_at: u32,
    _pad: u32,
    cas: u64,
    bytes: [u8; INLINE_DATA],
}

// SAFETY: all fields are integers or byte arrays; every bit pattern is a
// valid value. Lengths are re-clamped on every read, so even a torn
// (pre-validation) copy cannot index out of bounds.
unsafe impl Plain for InlineEntry {
    /// The header, key and value: the CLOCK slab keeps these bytes only,
    /// in the smallest slot class that holds them.
    fn used_len(&self) -> usize {
        core::mem::offset_of!(InlineEntry, bytes) + self.klen as usize + self.vlen as usize
    }
}

impl InlineEntry {
    fn new(key: &[u8], flags: u32, expires_at: u32, cas: u64, data: &[u8]) -> Option<Self> {
        if key.len() + data.len() > INLINE_DATA {
            return None;
        }
        let mut bytes = [0u8; INLINE_DATA];
        bytes[..key.len()].copy_from_slice(key);
        bytes[key.len()..key.len() + data.len()].copy_from_slice(data);
        Some(InlineEntry {
            klen: key.len() as u16,
            vlen: data.len() as u16,
            flags,
            expires_at,
            _pad: 0,
            cas,
            bytes,
        })
    }

    fn key(&self) -> &[u8] {
        let k = (self.klen as usize).min(INLINE_DATA);
        &self.bytes[..k]
    }

    fn value(&self) -> &[u8] {
        let k = (self.klen as usize).min(INLINE_DATA);
        let v = (self.vlen as usize).min(INLINE_DATA - k);
        &self.bytes[k..k + v]
    }
}

/// Bounded CLOCK-evicting store over `cache::ClockCache`.
pub struct ClockStore {
    cache: ClockCache<InlineEntry>,
    hasher: SipHashBuilder,
    cas: AtomicU64,
    collisions: AtomicU64,
}

impl ClockStore {
    /// `capacity` is the maximum resident item count.
    pub fn new(capacity: usize) -> Self {
        ClockStore {
            cache: ClockCache::new(capacity),
            hasher: SipHashBuilder::new(),
            cas: AtomicU64::new(1),
            collisions: AtomicU64::new(0),
        }
    }

    fn hash_key(&self, key: &[u8]) -> u64 {
        let mut h = self.hasher.build_hasher();
        h.write(key);
        h.finish()
    }

    fn next_cas(&self) -> u64 {
        self.cas.fetch_add(1, Ordering::Relaxed)
    }

    /// Drops `key`'s item under `h`, found past its deadline at `now`.
    /// The deadline is checked again under the claim that removes it, so
    /// a fresh `set` that landed since is kept. Counted when the delete
    /// removed something, so an item expires once however many readers
    /// (or duplicates within one batch) notice.
    fn reap(&self, h: u64, key: &[u8], now: u32) {
        if self.cache.delete_if(h, |e| e.key() == key && expired(e.expires_at, now)).is_some() {
            self.cache.record_expiration();
        }
    }

    /// `add`: stores `entry` when nothing lives under `h` — when the
    /// slot is empty, or its incumbent has expired (it is taken over and
    /// counted as expired). A live stranger sharing `key`'s hash blocks
    /// it, as `key` itself would.
    fn add(&self, h: u64, entry: InlineEntry, now: u32) -> bool {
        loop {
            if self.cache.put_if_absent(h, entry) {
                return true;
            }
            let mut live = false;
            if self.cache.replace_if(h, entry, |old| {
                live = !expired(old.expires_at, now);
                !live
            }) {
                self.cache.record_expiration();
                return true;
            }
            if live {
                return false;
            }
            // The incumbent went between the two calls: try again.
        }
    }
}

impl Store for ClockStore {
    fn read_many(&self, keys: &[&[u8]], now: u32, visit: &mut dyn FnMut(usize, Option<ItemRef<'_>>)) {
        let hashes: Vec<u64> = keys.iter().map(|k| self.hash_key(k)).collect();
        let mut hits = 0;
        self.cache.visit_many(&hashes, |i, entry| {
            let item = entry.and_then(|e| {
                if e.key() != keys[i] {
                    // 64-bit hash collision between distinct resident
                    // keys: indistinguishable from a miss at the
                    // protocol level.
                    self.collisions.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                if expired(e.expires_at, now) {
                    self.reap(hashes[i], keys[i], now);
                    return None;
                }
                Some(ItemRef { flags: e.flags, cas: e.cas, data: e.value() })
            });
            hits += item.is_some() as u64;
            visit(i, item);
        });
        // `get_hits` / `get_misses` count what clients were answered:
        // a collision or an expired item is a hit only to the table.
        self.cache.record_gets(hits, keys.len() as u64 - hits);
    }

    fn write_many(&self, cmds: &[StoreCmd<'_>], now: u32, done: &mut dyn FnMut(usize, StoreOutcome)) {
        // A run of `set`s gathers here and lands in one batched put; an
        // `add` or `replace` lands the run before it first, so it sees
        // every earlier command. An oversized item is refused and drops
        // out of the run.
        let mut sets = Vec::with_capacity(cmds.len());
        for (i, c) in cmds.iter().enumerate() {
            let h = self.hash_key(c.key);
            let expires_at = deadline(c.exptime, now);
            let cas = self.next_cas();
            let Some(entry) = InlineEntry::new(c.key, c.flags, expires_at, cas, c.data) else {
                done(i, StoreOutcome::TooLarge);
                continue;
            };
            if c.verb != StoreVerb::Set {
                self.cache.put_many(&sets);
                sets.clear();
            }
            let stored = match c.verb {
                StoreVerb::Set => {
                    sets.push((h, entry));
                    true
                }
                StoreVerb::Add => self.add(h, entry, now),
                StoreVerb::Replace => self.cache.replace_if(h, entry, |old| {
                    old.key() == c.key && !expired(old.expires_at, now)
                }),
            };
            done(i, if stored { StoreOutcome::Stored { cas, expires_at } } else { StoreOutcome::NotStored });
        }
        self.cache.put_many(&sets);
    }

    fn delete(&self, key: &[u8]) -> bool {
        // Only delete what the client named: the resident key is checked
        // under the claim that removes it, so a stranger sharing its
        // 64-bit hash stays.
        self.cache.delete_if(self.hash_key(key), |e| e.key() == key).is_some()
    }

    fn flush_all(&self) -> u64 {
        self.cache.flush()
    }

    fn restore(&self, key: &[u8], flags: u32, expires_at: u32, cas: u64, value: &[u8]) {
        // An item that fit when logged can only fail here if it came
        // from a foreign engine (replication across --no-evict and the
        // bounded cache); dropping it matches the cache's contract.
        let Some(entry) = InlineEntry::new(key, flags, expires_at, cas, value) else {
            return;
        };
        self.cache.put(self.hash_key(key), entry);
        // Future allocations must stay above every restored cas.
        self.cas.fetch_max(cas + 1, Ordering::Relaxed);
    }

    fn scan_entries(&self, now: u32, f: &mut dyn FnMut(SetRef<'_>)) -> bool {
        self.cache.scan(|_h, e| {
            if !expired(e.expires_at, now) {
                f(SetRef { key: e.key(), flags: e.flags, expires_at: e.expires_at, cas: e.cas, value: e.value() });
            }
        })
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            cache: self.cache.stats(),
            len: self.cache.len(),
            capacity: self.cache.capacity(),
            table_bytes: self.cache.memory_bytes(),
            table_slots: self.cache.table_slots(),
            hash_collisions: self.collisions.load(Ordering::Relaxed),
        }
    }

    fn slab_classes(&self) -> Vec<ClassStats> {
        self.cache.class_stats()
    }

    fn engine(&self) -> &'static str {
        "clock-cuckoo"
    }

    fn metrics(&self, out: &mut Vec<metrics::Sample>) {
        self.cache.metric_samples(out);
    }

    fn metrics_reset(&self) {
        self.cache.reset_metrics();
    }
}

// ---------------------------------------------------------------------------
// CuckooStore: unbounded (resizing) table, arbitrary item sizes
// ---------------------------------------------------------------------------

/// One item of the growing engine: its key and value in one buffer, and
/// the items whose keys share its 64-bit key hash chained behind it.
/// Items are immutable once shared; a chain edit builds a new chain.
struct StoredItem {
    flags: u32,
    expires_at: u32,
    cas: u64,
    /// Where `bytes` splits into key and value.
    key_len: usize,
    /// The key, then the value.
    bytes: Box<[u8]>,
    /// The next item under the same key hash (`None` but for a collision).
    next: Option<Arc<StoredItem>>,
}

impl StoredItem {
    fn new(key: &[u8], flags: u32, expires_at: u32, cas: u64, value: &[u8]) -> Arc<Self> {
        let mut bytes = Vec::with_capacity(key.len() + value.len());
        bytes.extend_from_slice(key);
        bytes.extend_from_slice(value);
        Arc::new(StoredItem { flags, expires_at, cas, key_len: key.len(), bytes: bytes.into(), next: None })
    }

    fn key(&self) -> &[u8] {
        &self.bytes[..self.key_len]
    }

    fn value(&self) -> &[u8] {
        &self.bytes[self.key_len..]
    }

    /// This item, then the ones chained behind it.
    fn chain(self: &Arc<Self>) -> impl Iterator<Item = &Arc<StoredItem>> {
        std::iter::successors(Some(self), |item| item.next.as_ref())
    }

    /// The item with `key` in this chain.
    fn find(self: &Arc<Self>, key: &[u8]) -> Option<&Arc<StoredItem>> {
        self.chain().find(|item| item.key() == key)
    }

    /// A copy of this item with `next` chained behind it.
    fn relink(&self, next: Option<Arc<StoredItem>>) -> Arc<StoredItem> {
        Arc::new(StoredItem { bytes: self.bytes.clone(), next, ..*self })
    }
}

/// A new chain of copies of `items`, in order, ending in `tail`.
fn rechain(items: &[&Arc<StoredItem>], tail: Option<Arc<StoredItem>>) -> Option<Arc<StoredItem>> {
    items.iter().rev().fold(tail, |next, item| Some(item.relink(next)))
}

/// Chunks the background sweeper migrates per pass. Small enough that a
/// pass never monopolizes the stripe locks, large enough that an idle
/// server still finishes a doubling in a few hundred passes.
const SWEEP_CHUNKS: usize = 8;

/// No-eviction store over the general `cuckoo::CuckooMap`.
///
/// The table is keyed by the key's 64-bit keyed SipHash-1-3 (the hash
/// [`ClockStore`] uses), so a slot is a `u64` and an `Arc`, and a bucket
/// split rehashes the inline `u64` without touching an item. Keys that
/// share a hash chain behind one another in that hash's one entry (see
/// `StoredItem`), so every operation on a colliding key still runs
/// under one pair lock. A `set` makes two allocations: the item and its
/// key + value buffer.
///
/// The map expands incrementally: writers that land on an unmigrated
/// bucket move a chunk themselves, so expansion progresses with the
/// write load. A read-mostly workload, however, could leave a migration
/// half-finished (and readers on the two-table path) indefinitely, so
/// each store spawns a detached background sweeper that drains pending
/// chunks whenever a migration is in flight, and is parked while none
/// is. The map unparks it when a migration begins and when it drops;
/// the sweeper holds only a [`Weak`] reference, so it then exits.
pub struct CuckooStore<S = SipHashBuilder> {
    map: Arc<CuckooMap<u64, Arc<StoredItem>, 8>>,
    hasher: S,
    /// Items chained behind another under a shared hash: `stats().len`
    /// is the map's entry count plus these. Raised under the lock that
    /// chains an item, lowered only once it is unchained, so it never
    /// wraps.
    chained: AtomicUsize,
    cas: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    updates: AtomicU64,
    deletes: AtomicU64,
    expirations: AtomicU64,
}

impl CuckooStore {
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, SipHashBuilder::new())
    }
}

impl<S: BuildHasher> CuckooStore<S> {
    /// A store that hashes keys with `hasher`; the product uses
    /// [`new`](CuckooStore::new), tests a colliding hasher.
    fn with_hasher(capacity: usize, hasher: S) -> Self {
        let map = Arc::new(CuckooMap::with_capacity(capacity));
        let weak = Arc::downgrade(&map);
        let sweeper = std::thread::Builder::new()
            .name("cuckoo-sweeper".into())
            .spawn(move || loop {
                let Some(map) = weak.upgrade() else { return };
                let migrating = map.help_migrate(SWEEP_CHUNKS);
                // Don't keep the store alive while parked.
                drop(map);
                if !migrating {
                    std::thread::park();
                }
            })
            .expect("failed to spawn cuckoo-sweeper thread");
        // Before the store is returned, so before any migration can begin.
        map.unpark_on_migration(sweeper.thread().clone());
        CuckooStore {
            map,
            hasher,
            chained: AtomicUsize::new(0),
            cas: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
        }
    }

    fn hash_key(&self, key: &[u8]) -> u64 {
        let mut h = self.hasher.build_hasher();
        h.write(key);
        h.finish()
    }

    /// `item` (what the map holds under `key`, hash `h`) if it is still
    /// live at `now`; an expired one is reaped instead. The deadline is
    /// checked again under the lock that removes it, so a fresh `set`
    /// that landed since is kept. Counted when the removal took something
    /// out — once per item, not per observer.
    fn live_or_reap(
        &self,
        h: u64,
        key: &[u8],
        item: Option<Arc<StoredItem>>,
        now: u32,
    ) -> Option<Arc<StoredItem>> {
        let item = item?;
        if expired(item.expires_at, now) {
            if self.take(h, |i| i.key() == key && expired(i.expires_at, now)) {
                self.expirations.fetch_add(1, Ordering::Relaxed);
            }
            return None;
        }
        Some(item)
    }

    /// Takes the item under `h` that `pick` accepts (at most one does)
    /// out of its chain: the entry goes when the item is alone in it,
    /// else the chain is rebuilt without it. Whether one was taken.
    fn take(&self, h: u64, pick: impl Fn(&StoredItem) -> bool) -> bool {
        loop {
            let (mut found, mut alone) = (false, false);
            let removed = self.map.remove_if(&h, |head| {
                found = head.chain().any(|i| pick(i));
                alone = head.next.is_none();
                found && alone
            });
            if removed.is_some() {
                return true;
            }
            if !found {
                return false;
            }
            let mut taken = false;
            self.map.modify(&h, |head| {
                if head.next.is_some() && head.chain().any(|i| pick(i)) {
                    let rest: Vec<_> = head.chain().filter(|i| !pick(i)).collect();
                    *head = rechain(&rest, None).expect("a chain of two keeps one");
                    self.chained.fetch_sub(1, Ordering::Relaxed);
                    taken = true;
                }
            });
            if taken {
                return true;
            }
            // The chain changed between the two calls: decide again.
        }
    }

    /// Puts `item` into the chain at `head`: in place of the item with
    /// its key (`true`), or behind the strangers that share its hash.
    /// Caller holds the entry's lock.
    fn put(&self, head: &mut Arc<StoredItem>, item: &Arc<StoredItem>) -> bool {
        let key = item.key();
        let others: Vec<_> = head.chain().filter(|i| i.key() != key).collect();
        let replaced = head.chain().count() > others.len();
        *head = rechain(&others, Some(Arc::clone(item))).expect("the chain holds `item`");
        if !replaced {
            self.chained.fetch_add(1, Ordering::Relaxed);
        }
        replaced
    }

    /// Stores `item` under `h` (`set`, `restore`), replacing its key's
    /// incumbent. A fresh hash is one `insert`.
    fn set(&self, h: u64, item: Arc<StoredItem>) {
        loop {
            if self.map.insert(h, Arc::clone(&item)).is_ok() {
                self.inserts.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let mut replaced = false;
            if self.map.modify(&h, |head| replaced = self.put(head, &item)) {
                let counter = if replaced { &self.updates } else { &self.inserts };
                counter.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // The entry went between the two calls: try again.
        }
    }

    /// `add`: stores `item` when its key is absent under `h` (strangers
    /// sharing the hash do not block it), or takes over its incumbent
    /// when that has expired (counted as expired).
    fn add(&self, h: u64, item: Arc<StoredItem>, now: u32) -> bool {
        loop {
            if self.map.insert(h, Arc::clone(&item)).is_ok() {
                self.inserts.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            // `Some(live)` for an incumbent with the key.
            let mut incumbent = None;
            let found = self.map.modify(&h, |head| {
                incumbent = head.find(item.key()).map(|cur| !expired(cur.expires_at, now));
                if incumbent != Some(true) {
                    self.put(head, &item);
                }
            });
            if found {
                match incumbent {
                    Some(true) => return false,
                    Some(false) => {
                        self.expirations.fetch_add(1, Ordering::Relaxed);
                        self.updates.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        self.inserts.fetch_add(1, Ordering::Relaxed);
                    }
                }
                return true;
            }
            // The entry went between the two calls: try again.
        }
    }

    /// `replace`: puts `item` in place of its key's incumbent if that is
    /// live.
    fn replace(&self, h: u64, item: Arc<StoredItem>, now: u32) -> bool {
        let mut stored = false;
        self.map.modify(&h, |head| {
            if head.find(item.key()).is_some_and(|cur| !expired(cur.expires_at, now)) {
                self.put(head, &item);
                stored = true;
            }
        });
        if stored {
            self.updates.fetch_add(1, Ordering::Relaxed);
        }
        stored
    }
}

impl<S: BuildHasher + Send + Sync + 'static> Store for CuckooStore<S> {
    fn read_many(&self, keys: &[&[u8]], now: u32, visit: &mut dyn FnMut(usize, Option<ItemRef<'_>>)) {
        let hashes: Vec<u64> = keys.iter().map(|k| self.hash_key(k)).collect();
        let mut found = Vec::with_capacity(keys.len());
        self.map.visit_many(&hashes, |i, head| found.push(head.and_then(|head| head.find(keys[i])).cloned()));
        let mut hits = 0;
        for (i, item) in found.into_iter().enumerate() {
            let live = self.live_or_reap(hashes[i], keys[i], item, now);
            hits += live.is_some() as u64;
            visit(i, live.as_deref().map(|item| ItemRef { flags: item.flags, cas: item.cas, data: item.value() }));
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(keys.len() as u64 - hits, Ordering::Relaxed);
    }

    fn write_many(&self, cmds: &[StoreCmd<'_>], now: u32, done: &mut dyn FnMut(usize, StoreOutcome)) {
        for (i, c) in cmds.iter().enumerate() {
            let h = self.hash_key(c.key);
            let expires_at = deadline(c.exptime, now);
            let cas = self.cas.fetch_add(1, Ordering::Relaxed);
            let item = StoredItem::new(c.key, c.flags, expires_at, cas, c.data);
            let stored = match c.verb {
                StoreVerb::Set => {
                    self.set(h, item);
                    true
                }
                StoreVerb::Add => self.add(h, item, now),
                StoreVerb::Replace => self.replace(h, item, now),
            };
            done(i, if stored { StoreOutcome::Stored { cas, expires_at } } else { StoreOutcome::NotStored });
        }
    }

    fn delete(&self, key: &[u8]) -> bool {
        let taken = self.take(self.hash_key(key), |i| i.key() == key);
        if taken {
            self.deletes.fetch_add(1, Ordering::Relaxed);
        }
        taken
    }

    fn flush_all(&self) -> u64 {
        let mut flushed = 0u64;
        // The map has no O(1) clear; drain by scan + remove, repeating
        // until a displacement-clean pass finds nothing (the same loop
        // `ClockCache::flush` runs — see there for why a dirty empty
        // pass cannot be trusted).
        loop {
            let mut hashes = Vec::new();
            let clean = self.map.scan(|&h, _| hashes.push(h));
            if hashes.is_empty() && clean {
                return flushed;
            }
            for h in hashes {
                if let Some(head) = self.map.remove(&h) {
                    let n = head.chain().count();
                    self.chained.fetch_sub(n - 1, Ordering::Relaxed);
                    self.deletes.fetch_add(n as u64, Ordering::Relaxed);
                    flushed += n as u64;
                }
            }
        }
    }

    fn restore(&self, key: &[u8], flags: u32, expires_at: u32, cas: u64, value: &[u8]) {
        self.set(self.hash_key(key), StoredItem::new(key, flags, expires_at, cas, value));
        // Future allocations must stay above every restored cas.
        self.cas.fetch_max(cas + 1, Ordering::Relaxed);
    }

    fn scan_entries(&self, now: u32, f: &mut dyn FnMut(SetRef<'_>)) -> bool {
        self.map.scan(|_, head| {
            for item in head.chain().filter(|item| !expired(item.expires_at, now)) {
                f(SetRef { key: item.key(), flags: item.flags, expires_at: item.expires_at, cas: item.cas, value: item.value() });
            }
        })
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            cache: CacheStats {
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
                evictions: 0,
                second_chances: 0,
                inserts: self.inserts.load(Ordering::Relaxed),
                updates: self.updates.load(Ordering::Relaxed),
                deletes: self.deletes.load(Ordering::Relaxed),
                expirations: self.expirations.load(Ordering::Relaxed),
            },
            len: self.map.len() + self.chained.load(Ordering::Relaxed),
            capacity: self.map.capacity(),
            table_bytes: self.map.memory_bytes(),
            table_slots: self.map.capacity(),
            hash_collisions: 0,
        }
    }

    fn engine(&self) -> &'static str {
        "cuckoo-noevict"
    }

    fn metrics(&self, out: &mut Vec<metrics::Sample>) {
        self.map.metric_samples(out);
    }

    fn metrics_reset(&self) {
        self.map.reset_metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored(outcome: StoreOutcome) -> bool {
        matches!(outcome, StoreOutcome::Stored { .. })
    }

    /// `(get_hits, get_misses, expired)` as `stats` would print them.
    fn read_counters(store: &dyn Store) -> (u64, u64, u64) {
        let c = store.stats().cache;
        (c.hits, c.misses, c.expirations)
    }

    fn check_common(store: &dyn Store) {
        let now = 1000;

        // Writes are not reads: however a storage command or a delete
        // looks at the incumbent, `get_hits`/`get_misses` stay put.
        for i in 0..20 {
            let key = format!("w{i}");
            assert!(stored(store.store(StoreVerb::Set, key.as_bytes(), 0, 0, b"v", now)));
            assert!(stored(store.store(StoreVerb::Set, key.as_bytes(), 0, 0, b"v2", now)));
        }
        assert_eq!(store.store(StoreVerb::Add, b"w0", 0, 0, b"x", now), StoreOutcome::NotStored);
        assert_eq!(store.store(StoreVerb::Replace, b"w-absent", 0, 0, b"x", now), StoreOutcome::NotStored);
        let burst: Vec<StoreCmd<'_>> = [b"w1".as_slice(), b"w2", b"w-new"]
            .iter()
            .map(|key| StoreCmd { verb: StoreVerb::Set, key, flags: 0, exptime: 0, data: b"v3" })
            .collect();
        store.store_many(&burst, now, &mut Vec::new());
        for i in 0..20 {
            assert!(store.delete(format!("w{i}").as_bytes()));
        }
        assert!(store.delete(b"w-new"));
        assert!(!store.delete(b"w-absent"));
        assert_eq!(read_counters(store), (0, 0, 0), "a write or a delete was counted as a get");

        assert!(store.get(b"k", now).is_none());
        let outcome = store.store(StoreVerb::Set, b"k", 7, 0, b"value", now);
        let item = store.get(b"k", now).expect("stored item readable");
        assert_eq!(item.flags, 7);
        assert_eq!(item.data, b"value");
        // The outcome reports the exact metadata the engine committed.
        assert_eq!(
            outcome,
            StoreOutcome::Stored { cas: item.cas, expires_at: 0 }
        );

        // add fails on present, replace succeeds.
        assert_eq!(
            store.store(StoreVerb::Add, b"k", 0, 0, b"x", now),
            StoreOutcome::NotStored
        );
        assert!(stored(store.store(StoreVerb::Replace, b"k", 1, 0, b"y", now)));
        assert_eq!(store.get(b"k", now).unwrap().data, b"y");

        // replace fails on absent, add succeeds.
        assert_eq!(
            store.store(StoreVerb::Replace, b"nope", 0, 0, b"x", now),
            StoreOutcome::NotStored
        );
        assert!(stored(store.store(StoreVerb::Add, b"fresh", 0, 0, b"x", now)));

        // delete.
        assert!(store.delete(b"k"));
        assert!(!store.delete(b"k"));
        assert!(store.get(b"k", now).is_none());

        // relative expiry: live at now, gone after the deadline — and
        // the outcome carries the resolved absolute deadline.
        assert_eq!(
            store.store(StoreVerb::Set, b"ttl", 0, 10, b"v", now),
            StoreOutcome::Stored {
                cas: store.get(b"ttl", now).unwrap().cas,
                expires_at: now + 10
            }
        );
        assert!(store.get(b"ttl", now + 9).is_some());
        assert!(store.get(b"ttl", now + 10).is_none(), "expired item served");
        assert!(store.stats().cache.expirations >= 1);

        // an expired incumbent does not block add, which takes it over
        // and counts its expiry; nor does it let replace through.
        assert!(stored(store.store(StoreVerb::Set, b"ttl2", 0, 10, b"v", now)));
        let before = read_counters(store);
        assert!(stored(store.store(StoreVerb::Add, b"ttl2", 0, 0, b"w", now + 100)));
        assert_eq!(read_counters(store), (before.0, before.1, before.2 + 1));
        assert_eq!(store.get(b"ttl2", now + 100).unwrap().data, b"w");
        assert!(stored(store.store(StoreVerb::Set, b"ttl5", 0, 10, b"v", now)));
        assert_eq!(store.store(StoreVerb::Replace, b"ttl5", 0, 0, b"w", now + 10), StoreOutcome::NotStored);
        assert!(store.get(b"ttl5", now + 10).is_none(), "replace revived an expired item");

        // cas values increase across stores.
        store.store(StoreVerb::Set, b"c1", 0, 0, b"v", now);
        store.store(StoreVerb::Set, b"c2", 0, 0, b"v", now);
        let c1 = store.get(b"c1", now).unwrap().cas;
        let c2 = store.get(b"c2", now).unwrap().cas;
        assert!(c2 > c1);

        // read_many, the one read path: every key shown exactly once,
        // in request order — hits, a miss, a duplicate — and counted by
        // what was shown.
        let keys: Vec<&[u8]> = vec![b"c1", b"no-such-key", b"c2", b"c1", b"fresh"];
        let before = read_counters(store);
        let mut shown = Vec::new();
        store.read_many(&keys, now, &mut |i, item| {
            shown.push((i, item.map(|item| (item.flags, item.cas, item.data.to_vec()))));
        });
        assert_eq!(
            shown.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            (0..keys.len()).collect::<Vec<_>>(),
            "read_many must visit every key once, in order"
        );
        assert_eq!(read_counters(store), (before.0 + 4, before.1 + 1, before.2));
        assert!(shown[1].1.is_none());
        assert_eq!(shown[0].1, shown[3].1, "duplicate keys see the same item");
        assert_eq!(shown[2].1.as_ref().map(|item| item.1), Some(c2));

        // The wrappers are that path and nothing else.
        let mut many = Vec::new();
        store.get_many(&keys, now, &mut many);
        assert_eq!(many.len(), keys.len());
        for ((key, (_, shown)), many) in keys.iter().zip(&shown).zip(many) {
            let owned = |item: ItemOut| (item.flags, item.cas, item.data);
            assert_eq!(many.map(owned), *shown, "get_many diverged for {:?}", String::from_utf8_lossy(key));
            assert_eq!(store.get(key, now).map(owned), *shown, "get diverged for {:?}", String::from_utf8_lossy(key));
        }

        // An expired read is one miss and one expiry.
        store.store(StoreVerb::Set, b"ttl3", 0, 10, b"v", now);
        let before = read_counters(store);
        assert!(store.get(b"ttl3", now + 10).is_none(), "expired item served");
        assert_eq!(read_counters(store), (before.0, before.1 + 1, before.2 + 1));

        // A batch applies lazy expiry to every occurrence of the key
        // (each is a miss) and counts the item's expiry once.
        store.store(StoreVerb::Set, b"ttl4", 0, 10, b"v", now);
        let before = read_counters(store);
        let mut live = Vec::new();
        let keys: Vec<&[u8]> = vec![b"ttl4", b"c1", b"ttl4"];
        store.read_many(&keys, now + 11, &mut |_, item| live.push(item.is_some()));
        assert_eq!(live, [false, true, false], "expired item served by read_many");
        assert_eq!(read_counters(store), (before.0 + 1, before.1 + 2, before.2 + 1));

        // scan_entries sees exactly the live items, with their cas.
        let mut entries = Vec::new();
        while !{
            entries.clear();
            store.scan_entries(now, &mut |e| entries.push((e.key.to_vec(), e.cas)))
        } {}
        let by_key: std::collections::HashMap<_, _> = entries.into_iter().collect();
        assert!(by_key.contains_key(b"c1".as_slice()));
        assert!(by_key.contains_key(b"fresh".as_slice()));
        assert!(!by_key.contains_key(b"k".as_slice()), "deleted key scanned");
        assert_eq!(by_key[b"c1".as_slice()], store.get(b"c1", now).unwrap().cas);

        // restore reinstates an item verbatim and cas allocation resumes
        // above it.
        store.restore(b"warm", 3, 0, 1_000_000, b"restored");
        let item = store.get(b"warm", now).unwrap();
        assert_eq!((item.flags, item.cas, item.data.as_slice()), (3, 1_000_000, b"restored".as_slice()));
        match store.store(StoreVerb::Set, b"after-warm", 0, 0, b"v", now) {
            StoreOutcome::Stored { cas, .. } => assert!(cas > 1_000_000),
            other => panic!("{other:?}"),
        }

        // flush_all empties the table.
        assert!(store.flush_all() > 0);
        assert!(store.get(b"fresh", now).is_none());
        assert!(store.get(b"warm", now).is_none());
        assert_eq!(store.stats().len, 0);
    }

    #[test]
    fn clock_store_semantics() {
        check_common(&ClockStore::new(1024));
    }

    #[test]
    fn cuckoo_store_semantics() {
        check_common(&CuckooStore::new(1024));
    }

    /// Maps every key to one of two hashes (the parity of its bytes), so
    /// most keys share a hash with many others.
    #[derive(Clone, Copy, Default)]
    struct TwoHashes;

    struct TwoHasher(u8);

    impl Hasher for TwoHasher {
        fn write(&mut self, bytes: &[u8]) {
            self.0 = bytes.iter().fold(self.0, |acc, b| acc ^ b);
        }
        fn finish(&self) -> u64 {
            (self.0.count_ones() & 1) as u64
        }
    }

    impl BuildHasher for TwoHashes {
        type Hasher = TwoHasher;
        fn build_hasher(&self) -> TwoHasher {
            TwoHasher(0)
        }
    }

    /// The whole contract again with colliding keys chained under two
    /// hashes: a chain edit must keep every other key's item.
    #[test]
    fn cuckoo_store_semantics_under_colliding_hashes() {
        check_common(&CuckooStore::with_hasher(1024, TwoHashes));
        check_store_many(|| Box::new(CuckooStore::with_hasher(1024, TwoHashes)));
    }

    /// Four threads own 16 keys each, all 64 keys under two hashes, and
    /// mix every verb on their own keys. Whatever the others do to the
    /// shared chains, each thread sees exactly its own history, and after
    /// the join the store holds each owner's last write once.
    #[test]
    fn cuckoo_store_colliding_keys_race() {
        const THREADS: usize = 4;
        const KEYS: usize = 16;
        let store = CuckooStore::with_hasher(64, TwoHashes);
        let key = |t: usize, k: usize| format!("t{t}-key{k}").into_bytes();
        let models: Vec<Vec<Option<Vec<u8>>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let store = &store;
                    s.spawn(move || {
                        let mut model: Vec<Option<Vec<u8>>> = vec![None; KEYS];
                        let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ t as u64;
                        for step in 0..4000 {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            let k = (rng >> 8) as usize % KEYS;
                            let key = key(t, k);
                            let value = format!("{t}.{k}.{step}").into_bytes();
                            let was = model[k].is_some();
                            match rng % 5 {
                                0 => {
                                    assert!(stored(store.store(StoreVerb::Set, &key, 0, 0, &value, 0)));
                                    model[k] = Some(value);
                                }
                                1 => {
                                    assert_eq!(stored(store.store(StoreVerb::Add, &key, 0, 0, &value, 0)), !was, "add");
                                    model[k].get_or_insert(value);
                                }
                                2 => {
                                    assert_eq!(stored(store.store(StoreVerb::Replace, &key, 0, 0, &value, 0)), was, "replace");
                                    if was {
                                        model[k] = Some(value);
                                    }
                                }
                                3 => {
                                    assert_eq!(store.delete(&key), was, "delete");
                                    model[k] = None;
                                }
                                _ => assert_eq!(store.get(&key, 0).map(|item| item.data), model[k], "get"),
                            }
                        }
                        model
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut live = Vec::new();
        for (t, model) in models.iter().enumerate() {
            for (k, want) in model.iter().enumerate() {
                assert_eq!(store.get(&key(t, k), 0).map(|item| item.data), *want, "key t{t}-key{k}");
                live.extend(want.is_some().then(|| key(t, k)));
            }
        }
        assert_eq!(store.stats().len, live.len());
        let mut scanned: Vec<Vec<u8>> = Vec::new();
        while !{
            scanned.clear();
            store.scan_entries(0, &mut |e| scanned.push(e.key.to_vec()))
        } {}
        scanned.sort();
        live.sort();
        assert_eq!(scanned, live, "scan_entries must yield each live key once");
    }

    /// Readers keep finding `key` expired and reaping it while a writer
    /// re-`set`s it: a `set` acknowledged `STORED` must never be reaped
    /// as the expired item a reader saw before it landed. With
    /// `strangers`, live keys share the hash, so reaping edits a chain.
    fn check_reap_race(store: &dyn Store, strangers: &[&[u8]]) {
        let now = 1000;
        let key: &[u8] = b"reaped";
        for s in strangers {
            assert!(stored(store.store(StoreVerb::Set, s, 0, 0, b"stranger", now)));
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        /// Stops the readers however the writer leaves, a failed assert
        /// included.
        struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        // Repeats of the key reap it one after another,
                        // which widens the window a stale reap acts in.
                        store.read_many(&[key; 32], now, &mut |_, _| {});
                    }
                });
            }
            let _stop = StopOnDrop(&stop);
            for round in 0..200u32 {
                // An item set a while ago with a one-second lifetime;
                // wait until a reader reaps it, with its repeats still to go.
                let reaped = store.stats().cache.expirations;
                store.store(StoreVerb::Set, key, 0, 1, b"old", now - 10);
                while store.stats().cache.expirations == reaped {
                    std::hint::spin_loop();
                }
                let value = round.to_le_bytes();
                assert!(stored(store.store(StoreVerb::Set, key, 0, 0, &value, now)));
                for _ in 0..4 {
                    let got = store.get(key, now).map(|item| item.data);
                    assert_eq!(got.as_deref(), Some(value.as_slice()), "round {round}: an acknowledged set was reaped");
                    std::thread::yield_now();
                }
            }
        });
        for s in strangers {
            assert_eq!(store.get(s, now).unwrap().data, b"stranger");
        }
    }

    #[test]
    fn cuckoo_store_reaping_keeps_a_fresh_set() {
        check_reap_race(&CuckooStore::new(64), &[]);
        let strangers: Vec<&[u8]> = vec![b"s1", b"s2", b"s3", b"s4"];
        check_reap_race(&CuckooStore::with_hasher(64, TwoHashes), &strangers);
    }

    /// The durability decorator answers reads with its engine's one
    /// read path: the same contract holds through it, over each engine.
    #[test]
    fn persistent_store_semantics() {
        let engines: [(&str, Arc<dyn Store>); 2] = [
            ("clock", Arc::new(ClockStore::new(1024))),
            ("cuckoo", Arc::new(CuckooStore::new(1024))),
        ];
        for (tag, engine) in engines {
            let dir = std::env::temp_dir()
                .join(format!("store-contract-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let (store, _) = crate::persist_store::PersistentStore::open(
                engine,
                persist::PersistConfig::new(&dir),
                Arc::new(metrics::persist::PersistMetrics::new()),
            )
            .unwrap();
            check_common(store.as_ref());
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Two distinct keys under one 64-bit hash: the resident stranger
    /// answers a read of the other key as a miss (and is tallied), and
    /// survives a delete, a `replace` and an `add` that did not name it.
    #[test]
    fn clock_store_hash_collision_reads_as_miss() {
        let s = ClockStore::new(64);
        let stranger = InlineEntry::new(b"stranger", 0, 0, 1, b"v").unwrap();
        s.cache.put(s.hash_key(b"mine"), stranger);
        let mut shown = Vec::new();
        s.read_many(&[b"mine".as_slice(), b"mine"], 0, &mut |_, item| shown.push(item.is_some()));
        assert_eq!(shown, [false, false]);
        let st = s.stats();
        assert_eq!((st.cache.hits, st.cache.misses, st.hash_collisions), (0, 2, 2));
        assert!(!s.delete(b"mine"));
        assert_eq!(s.store(StoreVerb::Replace, b"mine", 0, 0, b"w", 0), StoreOutcome::NotStored);
        assert_eq!(s.store(StoreVerb::Add, b"mine", 0, 0, b"w", 0), StoreOutcome::NotStored);
        assert_eq!(s.stats().len, 1);
        let mut kept = false;
        s.cache.visit_many(&[s.hash_key(b"mine")], |_, e| kept = e.is_some_and(|e| e.key() == b"stranger"));
        assert!(kept, "the stranger was overwritten");
    }

    /// Drives the same mixed burst through one `write_many` on one fresh
    /// store and one command at a time on another: outcomes (including
    /// cas allocation order) and resulting items must be identical.
    fn check_store_many(make: impl Fn() -> Box<dyn Store>) {
        let batched = make();
        let looped = make();
        let now = 1000;
        // Items that expire before `now`, for `add` and `replace` to find.
        for store in [&batched, &looped] {
            store.store(StoreVerb::Set, b"old1", 0, 1, b"o", 1);
            store.store(StoreVerb::Set, b"old2", 0, 1, b"o", 1);
        }
        // Set runs (with an in-run duplicate), conditional verbs
        // breaking the runs, and a trailing run.
        let cmds: Vec<(StoreVerb, &[u8], &[u8])> = vec![
            (StoreVerb::Set, b"a", b"1"),
            (StoreVerb::Set, b"b", b"2"),
            (StoreVerb::Set, b"a", b"3"), // duplicate inside the run: last wins
            (StoreVerb::Add, b"a", b"x"), // NOT_STORED: present
            (StoreVerb::Add, b"c", b"4"),
            (StoreVerb::Replace, b"miss", b"x"), // NOT_STORED: absent
            (StoreVerb::Set, b"d", b"5"),
            (StoreVerb::Set, b"e", b"6"),
            (StoreVerb::Replace, b"b", b"7"),
            (StoreVerb::Replace, b"old1", b"x"), // NOT_STORED: expired
            (StoreVerb::Add, b"old2", b"8"),      // takes the expired item over
            (StoreVerb::Set, b"f", b"9"),
            (StoreVerb::Replace, b"f", b"10"), // sees the set just before it
        ];
        let burst: Vec<StoreCmd<'_>> = cmds
            .iter()
            .map(|(verb, key, data)| StoreCmd { verb: *verb, key, flags: 9, exptime: 0, data })
            .collect();
        let mut outcomes = Vec::new();
        batched.store_many(&burst, now, &mut outcomes);
        let expect: Vec<StoreOutcome> =
            cmds.iter().map(|(verb, key, data)| looped.store(*verb, key, 9, 0, data, now)).collect();
        assert_eq!(outcomes, expect, "a burst diverged from one command at a time");
        let not_stored: Vec<usize> =
            outcomes.iter().enumerate().filter(|(_, o)| !stored(**o)).map(|(i, _)| i).collect();
        assert_eq!(not_stored, [3, 5, 9]);
        for key in [b"a".as_slice(), b"b", b"c", b"d", b"e", b"f", b"old2"] {
            let b = batched.get(key, now).expect("batched item present");
            let l = looped.get(key, now).expect("looped item present");
            assert_eq!(
                (b.flags, b.cas, b.data),
                (l.flags, l.cas, l.data),
                "item {:?} diverged",
                String::from_utf8_lossy(key)
            );
        }
        assert_eq!(batched.stats().cache, looped.stats().cache);
        assert!(batched.get(b"miss", now).is_none());
        assert_eq!(batched.get(b"f", now).unwrap().data, b"10");
    }

    #[test]
    fn clock_store_many_matches_loop() {
        check_store_many(|| Box::new(ClockStore::new(1024)));
    }

    #[test]
    fn cuckoo_store_many_matches_loop() {
        check_store_many(|| Box::new(CuckooStore::new(1024)));
    }

    #[test]
    fn clock_store_many_rejects_oversized_mid_run() {
        let s = ClockStore::new(64);
        let big = vec![0u8; INLINE_DATA + 1];
        let burst = [
            StoreCmd { verb: StoreVerb::Set, key: b"ok1", flags: 0, exptime: 0, data: b"v1" },
            StoreCmd { verb: StoreVerb::Set, key: b"huge", flags: 0, exptime: 0, data: &big },
            StoreCmd { verb: StoreVerb::Set, key: b"ok2", flags: 0, exptime: 0, data: b"v2" },
        ];
        let mut outcomes = Vec::new();
        s.store_many(&burst, 0, &mut outcomes);
        assert!(matches!(outcomes[0], StoreOutcome::Stored { .. }));
        assert_eq!(outcomes[1], StoreOutcome::TooLarge);
        assert!(matches!(outcomes[2], StoreOutcome::Stored { .. }));
        assert_eq!(s.get(b"ok1", 0).unwrap().data, b"v1");
        assert!(s.get(b"huge", 0).is_none());
        assert_eq!(s.get(b"ok2", 0).unwrap().data, b"v2");
    }

    #[test]
    fn clock_store_rejects_oversized_items() {
        let s = ClockStore::new(64);
        let big = vec![0u8; INLINE_DATA + 1];
        assert_eq!(
            s.store(StoreVerb::Set, b"k", 0, 0, &big, 0),
            StoreOutcome::TooLarge
        );
        // Key + value together must fit.
        let key = vec![b'k'; 200];
        let val = vec![0u8; INLINE_DATA - 200 + 1];
        assert_eq!(
            s.store(StoreVerb::Set, &key, 0, 0, &val, 0),
            StoreOutcome::TooLarge
        );
        let val = vec![1u8; INLINE_DATA - 200];
        assert!(stored(s.store(StoreVerb::Set, &key, 0, 0, &val, 0)));
        assert_eq!(s.get(&key, 0).unwrap().data, val);
    }

    #[test]
    fn cuckoo_store_takes_large_items() {
        let s = CuckooStore::new(64);
        let big = vec![7u8; 100_000];
        assert!(stored(s.store(StoreVerb::Set, b"big", 0, 0, &big, 0)));
        assert_eq!(s.get(b"big", 0).unwrap().data, big);
    }

    #[test]
    fn cuckoo_store_sweeper_finishes_migration_without_writers() {
        let s = CuckooStore::new(8192);
        // Insert until we catch an incremental expansion mid-flight, then
        // stop writing entirely: the background sweeper alone must drive
        // the migration to completion.
        let mut n = 0u64;
        while !s.map.is_migrating() {
            let key = format!("key-{n}");
            assert!(stored(s.store(StoreVerb::Set, key.as_bytes(), 0, 0, b"v", 0)));
            n += 1;
            assert!(n < 1_000_000, "never observed a migration in flight");
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while s.map.is_migrating() {
            assert!(
                std::time::Instant::now() < deadline,
                "sweeper failed to finish the migration"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // Nothing lost across the sweeper-driven migration.
        for i in 0..n {
            let key = format!("key-{i}");
            assert_eq!(s.get(key.as_bytes(), 0).unwrap().data, b"v");
        }
    }

    #[test]
    fn clock_store_is_bounded() {
        let s = ClockStore::new(128);
        for i in 0..10_000u64 {
            let key = format!("key-{i}");
            assert!(stored(s.store(StoreVerb::Set, key.as_bytes(), 0, 0, b"v", 0)));
        }
        let st = s.stats();
        assert!(st.len <= st.capacity);
        assert!(st.cache.evictions > 0);
    }

    /// An item of `n` key + value bytes: a key of up to four bytes that
    /// names `n`, the rest value bytes.
    fn sized_item(n: usize) -> (Vec<u8>, Vec<u8>) {
        let key = format!("{n:04}").into_bytes()[4 - n.min(4)..].to_vec();
        let value = vec![n as u8; n - key.len()];
        (key, value)
    }

    /// Sets a fresh `n`-byte item under a six-byte key `i`.
    fn set_filler(s: &ClockStore, i: usize, n: usize) {
        assert!(stored(s.store(StoreVerb::Set, format!("{i:06}").as_bytes(), 0, 0, &vec![0; n - 6], 0)));
    }

    /// Every total of key + value bytes, 0 to the 232-byte cap, across
    /// every class edge of the slab: `set`, read back with its cas,
    /// `replace` into another class and back, `delete`. With `refill`,
    /// a fresh item of each of the two classes then takes the room the
    /// round freed, so a full cache stays full and every class keeps
    /// its items.
    fn sweep_item_sizes(s: &ClockStore, refill: bool) {
        for n in 0..=INLINE_DATA {
            let (key, value) = sized_item(n);
            let StoreOutcome::Stored { cas, .. } = s.store(StoreVerb::Set, &key, 7, 0, &value, 0) else {
                panic!("{n}-byte item refused")
            };
            let got = s.get(&key, 0).unwrap_or_else(|| panic!("{n}-byte item missing"));
            assert_eq!((got.flags, got.cas, &got.data), (7, cas, &value), "{n}-byte item");
            // 116 bytes away is always another class: the classes are at
            // most 64 bytes apart.
            let other = if n <= 116 { n + 116 } else { n - 116 };
            let moved = vec![!(n as u8); other.saturating_sub(key.len())];
            for v in [&moved, &value] {
                assert!(stored(s.store(StoreVerb::Replace, &key, 8, 0, v, 0)), "{n}-byte item");
                assert_eq!(&s.get(&key, 0).unwrap().data, v, "{n}-byte item");
            }
            assert!(s.delete(&key), "{n}-byte item");
            assert!(s.get(&key, 0).is_none());
            if refill {
                set_filler(s, 1000 + 2 * n, n.max(6));
                set_filler(s, 1001 + 2 * n, other.max(6));
            }
            assert!(s.cache.len() <= s.cache.capacity());
            s.cache.check_slab_invariants();
        }
        let (key, value) = sized_item(INLINE_DATA);
        assert_eq!(s.store(StoreVerb::Set, &key, 0, 0, &[&value[..], b"x"].concat(), 0), StoreOutcome::TooLarge);
    }

    /// The largest entry fits the slab's last class, and `table_bytes`
    /// is the empty store's plus one slot and its recency byte per item:
    /// 2^16 entries of 73 bytes (17-byte keys, 32-byte values) take
    /// 96-byte slots.
    #[test]
    fn clock_store_table_bytes_count_resident_slots() {
        assert!(cache::HEAD + size_of::<InlineEntry>() <= cache::STRIDES[cache::STRIDES.len() - 1]);
        const ITEMS: usize = 1 << 16;
        let s = ClockStore::new(2 * ITEMS);
        let empty = s.stats().table_bytes;
        for i in 0..ITEMS {
            let key = format!("key:{i:013}");
            assert!(stored(s.store(StoreVerb::Set, key.as_bytes(), 0, 0, &[b'v'; 32], 0)));
        }
        assert_eq!(s.stats().len, ITEMS);
        assert_eq!(s.stats().table_bytes, empty + ITEMS * (96 + 1));
        let slabs = s.slab_classes();
        assert_eq!((slabs[2].stride, slabs[2].slots, slabs[2].held), (96, ITEMS, ITEMS));
        assert_eq!(slabs.iter().map(|c| c.slots).sum::<usize>(), ITEMS);
    }

    #[test]
    fn clock_store_items_of_every_size_cross_every_class() {
        sweep_item_sizes(&ClockStore::new(1024), false);
        // Full, holding items of every class, and kept so: each item's
        // `set` and first move evict.
        let s = ClockStore::new(64);
        for i in 0..4 * 64 {
            set_filler(&s, i, [10, 60, 130, 190, 225][i % 5]);
        }
        let evictions = s.stats().cache.evictions;
        sweep_item_sizes(&s, true);
        assert!(s.stats().cache.evictions >= evictions + 2 * INLINE_DATA as u64, "{:?}", s.stats().cache);
    }
}
