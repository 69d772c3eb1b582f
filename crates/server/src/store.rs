//! Storage engines behind the wire protocol.
//!
//! Two interchangeable backends implement [`Store`]:
//!
//! - [`ClockStore`] (the default) fronts [`cache::ClockCache`] — the
//!   MemC3-style bounded cache. Byte-string keys are mapped onto the
//!   table's `u64` key space with the workspace's SipHash-1-3 (seeded per
//!   process), and the full key + value + metadata are packed into a
//!   fixed [`InlineEntry`] so the table's optimistic read path serves
//!   whole items with zero locking. This mirrors the paper's §6 MemC3
//!   evaluation, which uses small fixed-size items; items that do not
//!   fit the inline budget are refused with `SERVER_ERROR object too
//!   large for cache`.
//! - [`CuckooStore`] (`--no-evict`) fronts [`cuckoo::CuckooMap`] — the
//!   general auto-resizing table. Arbitrary item sizes, no eviction:
//!   the working set is bounded only by memory, as when `cuckood` is
//!   used as a plain key-value store rather than a cache.
//!
//! Expiry (`exptime`) follows memcached: `0` never expires, values up to
//! thirty days are relative seconds, larger values are absolute unix
//! time. Expiry is lazy — detected on access, counted via
//! [`cache::CacheStats::expirations`].

// ORDERING-FILE: stats.counter — hit/miss/eviction tallies and the monotonic CAS-id allocator.

use cache::{CacheStats, ClockCache};
use cuckoo::hash::SipHashBuilder;
use cuckoo::{CuckooMap, Plain};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
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

fn expired(deadline: u32, now: u32) -> bool {
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
/// [`Store::store_many`]): the arguments of [`Store::store`] minus the
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
    /// CLOCK slab beside it; for the growing engine, also any expansion
    /// target and retired table not yet freed.
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
    /// pipelined multi-key lookup; one key is a batch of one. An item
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
    fn store(
        &self,
        verb: StoreVerb,
        key: &[u8],
        flags: u32,
        exptime: u32,
        data: &[u8],
        now: u32,
    ) -> StoreOutcome;
    /// Batched mutation: one outcome per command, in order, with
    /// per-command semantics identical to [`store`](Self::store) —
    /// including cas allocation order and duplicate keys within the
    /// batch (later commands observe earlier ones). The default loops
    /// `store`; backends whose table has a pipelined multi-key write
    /// path override it to run `set` bursts through the batch engine.
    fn store_many(&self, cmds: &[StoreCmd<'_>], now: u32, out: &mut Vec<StoreOutcome>) {
        out.clear();
        out.extend(
            cmds.iter().map(|c| self.store(c.verb, c.key, c.flags, c.exptime, c.data, now)),
        );
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
    /// One non-blocking pass over the table, pushing every live entry.
    /// Returns `false` if a concurrent cuckoo displacement may have
    /// hidden an entry from the pass — the caller must discard and
    /// retry. Entries already expired at `now` are skipped.
    fn scan_entries(&self, now: u32, out: &mut Vec<persist::Entry>) -> bool;
    /// Graceful-drain hook: flush and fsync any durability tier. The
    /// default (no persistence) is a no-op.
    fn persist_shutdown(&self) -> std::io::Result<()> {
        Ok(())
    }
    fn stats(&self) -> StoreStats;
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
// ClockStore: bounded cache, inline fixed-size items
// ---------------------------------------------------------------------------

/// Inline item budget: key + value together. With the 24-byte header the
/// whole entry is 256 bytes — four cache lines per optimistic copy-out.
pub const INLINE_DATA: usize = 232;

/// A complete item (key, value, metadata) packed into a POD block so it
/// can live *inside* the cuckoo table and be read via the paper's
/// lock-free optimistic path.
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
unsafe impl Plain for InlineEntry {}

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

    /// Whether `key` itself — not a stranger sharing its 64-bit hash —
    /// is resident under `h` and passes `test`. An uncounted look: the
    /// `set` or `delete` that takes it is not tallied as a `get`.
    fn resident(&self, h: u64, key: &[u8], test: impl Fn(&InlineEntry) -> bool) -> bool {
        let mut found = false;
        self.cache.visit_many(&[h], |_, e| found = e.is_some_and(|e| e.key() == key && test(e)));
        found
    }

    /// Drops the item under `h`, found past its deadline. Counted when
    /// the delete removed something, so an item expires once however
    /// many readers (or duplicates within one batch) notice.
    fn reap(&self, h: u64) {
        if self.cache.delete(h).is_some() {
            self.cache.record_expiration();
        }
    }

    /// Reaps `key`'s incumbent if it has expired, so that `add` and
    /// `replace` see it as absent, as memcached semantics require.
    fn reap_if_expired(&self, h: u64, key: &[u8], now: u32) {
        if self.resident(h, key, |e| expired(e.expires_at, now)) {
            self.reap(h);
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
                    self.reap(hashes[i]);
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

    fn store(
        &self,
        verb: StoreVerb,
        key: &[u8],
        flags: u32,
        exptime: u32,
        data: &[u8],
        now: u32,
    ) -> StoreOutcome {
        let h = self.hash_key(key);
        let expires_at = deadline(exptime, now);
        let cas = self.next_cas();
        let Some(entry) = InlineEntry::new(key, flags, expires_at, cas, data) else {
            return StoreOutcome::TooLarge;
        };
        self.reap_if_expired(h, key, now);
        let stored = match verb {
            StoreVerb::Set => {
                self.cache.put(h, entry);
                true
            }
            StoreVerb::Add => self.cache.put_if_absent(h, entry),
            StoreVerb::Replace => self.cache.replace(h, entry),
        };
        if stored {
            StoreOutcome::Stored { cas, expires_at }
        } else {
            StoreOutcome::NotStored
        }
    }

    fn store_many(&self, cmds: &[StoreCmd<'_>], now: u32, out: &mut Vec<StoreOutcome>) {
        out.clear();
        out.reserve(cmds.len());
        let mut i = 0;
        while i < cmds.len() {
            let run = cmds[i..].iter().take_while(|c| c.verb == StoreVerb::Set).count();
            if run < 2 {
                // Conditional verbs (and lone sets) keep the
                // per-command path: add/replace semantics hinge on the
                // present/absent check the engine does per key.
                let c = &cmds[i];
                out.push(self.store(c.verb, c.key, c.flags, c.exptime, c.data, now));
                i += 1;
                continue;
            }
            // A `set` run: per-command metadata (hash, cas allocation,
            // inline packing, lazy reap of an expired incumbent) in
            // command order, then one batched put through the table's
            // pipelined write path. Oversized items report `TooLarge`
            // and drop out of the batch, exactly as `store` refuses
            // them.
            let mut pairs = Vec::with_capacity(run);
            for c in &cmds[i..i + run] {
                let h = self.hash_key(c.key);
                let expires_at = deadline(c.exptime, now);
                let cas = self.next_cas();
                let Some(entry) = InlineEntry::new(c.key, c.flags, expires_at, cas, c.data)
                else {
                    out.push(StoreOutcome::TooLarge);
                    continue;
                };
                self.reap_if_expired(h, c.key, now);
                pairs.push((h, entry));
                out.push(StoreOutcome::Stored { cas, expires_at });
            }
            self.cache.put_many(&pairs);
            i += run;
        }
    }

    fn delete(&self, key: &[u8]) -> bool {
        let h = self.hash_key(key);
        // Only delete what the client named: verify the resident key.
        self.resident(h, key, |_| true) && self.cache.delete(h).is_some()
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

    fn scan_entries(&self, now: u32, out: &mut Vec<persist::Entry>) -> bool {
        self.cache.scan(|_h, e| {
            if !expired(e.expires_at, now) {
                out.push(persist::Entry {
                    key: e.key().to_vec(),
                    flags: e.flags,
                    expires_at: e.expires_at,
                    cas: e.cas,
                    value: e.value().to_vec(),
                });
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

struct StoredItem {
    flags: u32,
    expires_at: u32,
    cas: u64,
    data: Box<[u8]>,
}

/// Chunks the background sweeper migrates per pass. Small enough that a
/// pass never monopolizes the stripe locks, large enough that an idle
/// server still finishes a doubling in a few hundred passes.
const SWEEP_CHUNKS: usize = 8;

/// Sweeper nap between passes when no migration is in flight.
const SWEEP_IDLE: std::time::Duration = std::time::Duration::from_millis(2);

/// No-eviction store over the general `cuckoo::CuckooMap`.
///
/// The map expands incrementally: writers that land on an unmigrated
/// bucket move a chunk themselves, so expansion progresses with the
/// write load. A read-mostly workload, however, could leave a migration
/// half-finished (and readers on the two-table path) indefinitely, so
/// each store spawns a detached background sweeper that drains pending
/// chunks whenever a migration is in flight. The sweeper holds only a
/// [`Weak`] reference and exits when the store is dropped.
pub struct CuckooStore {
    map: Arc<CuckooMap<Box<[u8]>, Arc<StoredItem>, 8>>,
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
        let map = Arc::new(CuckooMap::with_capacity(capacity));
        let weak = Arc::downgrade(&map);
        std::thread::Builder::new()
            .name("cuckoo-sweeper".into())
            .spawn(move || loop {
                let Some(map) = weak.upgrade() else { return };
                let migrating = map.help_migrate(SWEEP_CHUNKS);
                // Don't keep the store alive while napping.
                drop(map);
                if !migrating {
                    std::thread::sleep(SWEEP_IDLE);
                }
            })
            .expect("failed to spawn cuckoo-sweeper thread");
        CuckooStore {
            map,
            cas: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
        }
    }

    /// `item` (what the map holds under `key`) if it is still live at
    /// `now`; an expired one is reaped instead, and counted when the
    /// removal took something out — once per item, not per observer.
    fn live_or_reap(
        &self,
        key: &[u8],
        item: Option<Arc<StoredItem>>,
        now: u32,
    ) -> Option<Arc<StoredItem>> {
        let item = item?;
        if expired(item.expires_at, now) {
            if self.map.remove(&key.into()).is_some() {
                self.expirations.fetch_add(1, Ordering::Relaxed);
            }
            return None;
        }
        Some(item)
    }

    /// Fetches the live (unexpired) item, reaping it lazily otherwise:
    /// the uncounted look `add` and `replace` take before they write.
    fn live(&self, key: &[u8], now: u32) -> Option<Arc<StoredItem>> {
        self.live_or_reap(key, self.map.get(&key.into()), now)
    }
}

impl Store for CuckooStore {
    fn read_many(&self, keys: &[&[u8]], now: u32, visit: &mut dyn FnMut(usize, Option<ItemRef<'_>>)) {
        let owned: Vec<Box<[u8]>> = keys.iter().map(|&k| k.into()).collect();
        let mut hits = 0;
        for (i, item) in self.map.get_many(&owned).into_iter().enumerate() {
            let live = self.live_or_reap(keys[i], item, now);
            hits += live.is_some() as u64;
            visit(i, live.as_deref().map(|item| ItemRef { flags: item.flags, cas: item.cas, data: &item.data }));
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(keys.len() as u64 - hits, Ordering::Relaxed);
    }

    fn store(
        &self,
        verb: StoreVerb,
        key: &[u8],
        flags: u32,
        exptime: u32,
        data: &[u8],
        now: u32,
    ) -> StoreOutcome {
        let expires_at = deadline(exptime, now);
        let cas = self.cas.fetch_add(1, Ordering::Relaxed);
        let item = Arc::new(StoredItem { flags, expires_at, cas, data: data.into() });
        let stored = StoreOutcome::Stored { cas, expires_at };
        let owned: Box<[u8]> = key.into();
        match verb {
            StoreVerb::Set => {
                match self.map.upsert(owned, item) {
                    cuckoo::UpsertOutcome::Inserted => {
                        self.inserts.fetch_add(1, Ordering::Relaxed)
                    }
                    cuckoo::UpsertOutcome::Updated => {
                        self.updates.fetch_add(1, Ordering::Relaxed)
                    }
                };
                stored
            }
            StoreVerb::Add => {
                // Reap an expired incumbent first so `add` can win.
                let _ = self.live(key, now);
                match self.map.insert(owned, item) {
                    Ok(()) => {
                        self.inserts.fetch_add(1, Ordering::Relaxed);
                        stored
                    }
                    Err(_) => StoreOutcome::NotStored,
                }
            }
            StoreVerb::Replace => {
                if self.live(key, now).is_none() {
                    return StoreOutcome::NotStored;
                }
                match self.map.update(&owned, item) {
                    Some(_) => {
                        self.updates.fetch_add(1, Ordering::Relaxed);
                        stored
                    }
                    // Raced with a concurrent delete between the liveness
                    // check and the update.
                    None => StoreOutcome::NotStored,
                }
            }
        }
    }

    fn store_many(&self, cmds: &[StoreCmd<'_>], now: u32, out: &mut Vec<StoreOutcome>) {
        out.clear();
        out.reserve(cmds.len());
        let mut i = 0;
        while i < cmds.len() {
            let run = cmds[i..].iter().take_while(|c| c.verb == StoreVerb::Set).count();
            if run < 2 {
                // Conditional verbs (and lone sets) keep the
                // per-command path: add/replace hinge on per-key
                // liveness checks.
                let c = &cmds[i];
                out.push(self.store(c.verb, c.key, c.flags, c.exptime, c.data, now));
                i += 1;
                continue;
            }
            // A `set` run maps onto one pipelined `upsert_many`: cas
            // values are allocated in command order and duplicates
            // within the run resolve last-wins under the batch lock,
            // so outcomes match the per-command loop exactly.
            let entries = cmds[i..i + run].iter().map(|c| {
                let expires_at = deadline(c.exptime, now);
                let cas = self.cas.fetch_add(1, Ordering::Relaxed);
                let item =
                    Arc::new(StoredItem { flags: c.flags, expires_at, cas, data: c.data.into() });
                out.push(StoreOutcome::Stored { cas, expires_at });
                (Box::<[u8]>::from(c.key), item)
            });
            let (mut ins, mut upd) = (0u64, 0u64);
            for outcome in self.map.upsert_many(entries) {
                match outcome.expect("CuckooMap grows instead of reporting full") {
                    cuckoo::UpsertOutcome::Inserted => ins += 1,
                    cuckoo::UpsertOutcome::Updated => upd += 1,
                }
            }
            if ins != 0 {
                self.inserts.fetch_add(ins, Ordering::Relaxed);
            }
            if upd != 0 {
                self.updates.fetch_add(upd, Ordering::Relaxed);
            }
            i += run;
        }
    }

    fn delete(&self, key: &[u8]) -> bool {
        let owned: Box<[u8]> = key.into();
        if self.map.remove(&owned).is_some() {
            self.deletes.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn flush_all(&self) -> u64 {
        let mut flushed = 0u64;
        // The map has no O(1) clear; drain by scan + remove, repeating
        // until a displacement-clean pass finds nothing (the same loop
        // `ClockCache::flush` runs — see there for why a dirty empty
        // pass cannot be trusted).
        loop {
            let mut keys: Vec<Box<[u8]>> = Vec::new();
            let clean = self.map.scan(|k, _| keys.push(k.clone()));
            if keys.is_empty() && clean {
                return flushed;
            }
            for k in keys {
                if self.map.remove(&k).is_some() {
                    self.deletes.fetch_add(1, Ordering::Relaxed);
                    flushed += 1;
                }
            }
        }
    }

    fn restore(&self, key: &[u8], flags: u32, expires_at: u32, cas: u64, value: &[u8]) {
        let item = Arc::new(StoredItem { flags, expires_at, cas, data: value.into() });
        if matches!(self.map.upsert(key.into(), item), cuckoo::UpsertOutcome::Inserted) {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        } else {
            self.updates.fetch_add(1, Ordering::Relaxed);
        }
        // Future allocations must stay above every restored cas.
        self.cas.fetch_max(cas + 1, Ordering::Relaxed);
    }

    fn scan_entries(&self, now: u32, out: &mut Vec<persist::Entry>) -> bool {
        self.map.scan(|k, item| {
            if !expired(item.expires_at, now) {
                out.push(persist::Entry {
                    key: k.to_vec(),
                    flags: item.flags,
                    expires_at: item.expires_at,
                    cas: item.cas,
                    value: item.data.to_vec(),
                });
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
            len: self.map.len(),
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

        // an expired incumbent does not block add.
        assert!(stored(store.store(StoreVerb::Set, b"ttl2", 0, 10, b"v", now)));
        assert!(stored(store.store(StoreVerb::Add, b"ttl2", 0, 0, b"w", now + 100)));
        assert_eq!(store.get(b"ttl2", now + 100).unwrap().data, b"w");

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
            store.scan_entries(now, &mut entries)
        } {}
        let by_key: std::collections::HashMap<_, _> =
            entries.iter().map(|e| (e.key.clone(), e)).collect();
        assert!(by_key.contains_key(b"c1".as_slice()));
        assert!(by_key.contains_key(b"fresh".as_slice()));
        assert!(!by_key.contains_key(b"k".as_slice()), "deleted key scanned");
        assert_eq!(by_key[b"c1".as_slice()].cas, store.get(b"c1", now).unwrap().cas);

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
    /// survives a delete that did not name it.
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
        assert_eq!(s.stats().len, 1);
    }

    /// Drives the same mixed burst through `store_many` on one fresh
    /// store and a per-command `store` loop on another: outcomes
    /// (including cas allocation order) and resulting items must be
    /// identical.
    fn check_store_many(make: impl Fn() -> Box<dyn Store>) {
        let batched = make();
        let looped = make();
        let now = 1000;
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
        ];
        let burst: Vec<StoreCmd<'_>> = cmds
            .iter()
            .map(|(verb, key, data)| StoreCmd { verb: *verb, key, flags: 9, exptime: 0, data })
            .collect();
        let mut outcomes = Vec::new();
        batched.store_many(&burst, now, &mut outcomes);
        let expect: Vec<StoreOutcome> =
            cmds.iter().map(|(verb, key, data)| looped.store(*verb, key, 9, 0, data, now)).collect();
        assert_eq!(outcomes, expect, "store_many diverged from the per-command loop");
        for key in [b"a".as_slice(), b"b", b"c", b"d", b"e"] {
            let b = batched.get(key, now).expect("batched item present");
            let l = looped.get(key, now).expect("looped item present");
            assert_eq!(
                (b.flags, b.cas, b.data),
                (l.flags, l.cas, l.data),
                "item {:?} diverged",
                String::from_utf8_lossy(key)
            );
        }
        assert!(batched.get(b"miss", now).is_none());
        assert_eq!(batched.stats().cache.inserts, looped.stats().cache.inserts);
        assert_eq!(batched.stats().cache.updates, looped.stats().cache.updates);
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
}
