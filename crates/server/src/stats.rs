//! Server-side operation statistics: per-op-class latency histograms
//! (from `metrics::latency`) and connection counters, rendered as
//! memcached `STAT` lines.

// ORDERING-FILE: stats.counter — every atomic here is a monotonic reporting counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use cache::ClassStats;
use metrics::latency::LatencyHistogram;

use crate::proto::{encode_stat, encode_stat_u64};
use crate::store::{Store, StoreStats};

/// Precomputed `lat_<class>_<quantile>_ns` stat names, so the stats path
/// never formats a name at request time (the hot-path budget covers the
/// stats command too: a monitoring loop polling `stats` every second
/// should not allocate per poll).
const LAT_NAMES: [[&str; 5]; 3] = [
    ["lat_get_mean_ns", "lat_get_p50_ns", "lat_get_p99_ns", "lat_get_p999_ns", "lat_get_max_ns"],
    [
        "lat_store_mean_ns",
        "lat_store_p50_ns",
        "lat_store_p99_ns",
        "lat_store_p999_ns",
        "lat_store_max_ns",
    ],
    [
        "lat_delete_mean_ns",
        "lat_delete_p50_ns",
        "lat_delete_p99_ns",
        "lat_delete_p999_ns",
        "lat_delete_max_ns",
    ],
];

/// Which histogram an operation's service time lands in; `Other`
/// (admin commands, `flush_all`) is timed by none.
#[derive(Debug, Clone, Copy)]
pub enum OpClass {
    Get,
    Store,
    Delete,
    Other,
}

/// Shared (lock-free) server counters; one instance per server, updated
/// by every worker.
pub struct ServerStats {
    started: Instant,
    pub get_latency: LatencyHistogram,
    pub store_latency: LatencyHistogram,
    pub delete_latency: LatencyHistogram,
    pub total_connections: AtomicU64,
    pub curr_connections: AtomicU64,
    pub protocol_errors: AtomicU64,
    /// Requests answered `SERVER_ERROR object too large for cache`.
    pub too_large: AtomicU64,
    /// Read bursts of more than one key — a multi-key `get`, a run of
    /// pipelined `get`s, or both — served by one batched store read.
    pub multiget_batches: AtomicU64,
    /// Total keys carried by those bursts (so
    /// `multiget_keys / multiget_batches` is the mean batch size).
    pub multiget_keys: AtomicU64,
    /// Pipelined storage-command bursts coalesced into one batched
    /// `write_many` call.
    pub multiset_batches: AtomicU64,
    /// Total commands carried by those bursts (so
    /// `multiset_keys / multiset_batches` is the mean burst size).
    pub multiset_keys: AtomicU64,
}

impl ServerStats {
    pub fn new() -> Self {
        ServerStats {
            started: Instant::now(),
            get_latency: LatencyHistogram::new(),
            store_latency: LatencyHistogram::new(),
            delete_latency: LatencyHistogram::new(),
            total_connections: AtomicU64::new(0),
            curr_connections: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            too_large: AtomicU64::new(0),
            multiget_batches: AtomicU64::new(0),
            multiget_keys: AtomicU64::new(0),
            multiset_batches: AtomicU64::new(0),
            multiset_keys: AtomicU64::new(0),
        }
    }

    /// Records `n` requests served together since `t0` — one, or a
    /// burst: one histogram sample per request, each of the mean, so
    /// `cmd_get` / `cmd_set` count individual requests and the mean
    /// reflects per-request service time. A burst is one histogram
    /// update.
    pub fn record_served(&self, class: OpClass, t0: Instant, n: usize) {
        let histogram = match class {
            OpClass::Get => &self.get_latency,
            OpClass::Store => &self.store_latency,
            OpClass::Delete => &self.delete_latency,
            OpClass::Other => return,
        };
        let per_request = t0.elapsed().as_nanos() as u64 / n as u64;
        histogram.record_n(per_request, n as u64);
    }

    /// Records one batched read burst of `keys` keys.
    pub fn record_multiget(&self, keys: usize) {
        self.multiget_batches.fetch_add(1, Ordering::Relaxed);
        self.multiget_keys.fetch_add(keys as u64, Ordering::Relaxed);
    }

    /// Records one coalesced storage burst of `cmds` commands.
    pub fn record_multiset(&self, cmds: usize) {
        self.multiset_batches.fetch_add(1, Ordering::Relaxed);
        self.multiset_keys.fetch_add(cmds as u64, Ordering::Relaxed);
    }

    /// Renders the full `stats` response body (without the trailing
    /// `END`): server identity, store counters, then latency tails.
    pub fn encode(&self, out: &mut Vec<u8>, store: &dyn Store, workers: usize) {
        let s: StoreStats = store.stats();
        encode_stat_u64(out, "pid", std::process::id() as u64);
        encode_stat_u64(out, "uptime", self.started.elapsed().as_secs());
        encode_stat_u64(out, "time", crate::store::now_secs() as u64);
        encode_stat(out, "version", crate::VERSION);
        encode_stat_u64(out, "pointer_size", usize::BITS as u64);
        encode_stat_u64(out, "threads", workers as u64);
        encode_stat(out, "engine", store.engine());
        encode_stat_u64(out, "curr_connections", self.curr_connections.load(Ordering::Relaxed));
        encode_stat_u64(out, "total_connections", self.total_connections.load(Ordering::Relaxed));
        encode_stat_u64(out, "curr_items", s.len as u64);
        encode_stat_u64(out, "max_items", s.capacity as u64);
        encode_stat_u64(out, "table_bytes", s.table_bytes as u64);
        encode_stat_u64(out, "table_slots", s.table_slots as u64);
        encode_stat_u64(out, "cmd_get", self.get_latency.len());
        encode_stat_u64(out, "cmd_set", self.store_latency.len());
        encode_stat_u64(out, "cmd_delete", self.delete_latency.len());
        encode_stat_u64(out, "get_hits", s.cache.hits);
        encode_stat_u64(out, "get_misses", s.cache.misses);
        encode_stat_u64(out, "evictions", s.cache.evictions);
        encode_stat_u64(out, "second_chances", s.cache.second_chances);
        encode_stat_u64(out, "expired", s.cache.expirations);
        encode_stat_u64(out, "total_inserts", s.cache.inserts);
        encode_stat_u64(out, "total_updates", s.cache.updates);
        encode_stat_u64(out, "total_deletes", s.cache.deletes);
        encode_stat_u64(out, "hash_collisions", s.hash_collisions);
        encode_stat_u64(out, "protocol_errors", self.protocol_errors.load(Ordering::Relaxed));
        encode_stat_u64(out, "object_too_large", self.too_large.load(Ordering::Relaxed));
        encode_stat_u64(out, "multiget_batches", self.multiget_batches.load(Ordering::Relaxed));
        encode_stat_u64(out, "multiget_keys", self.multiget_keys.load(Ordering::Relaxed));
        encode_stat_u64(out, "multiset_batches", self.multiset_batches.load(Ordering::Relaxed));
        encode_stat_u64(out, "multiset_keys", self.multiset_keys.load(Ordering::Relaxed));
        for (names, h) in LAT_NAMES.iter().zip([
            &self.get_latency,
            &self.store_latency,
            &self.delete_latency,
        ]) {
            if h.is_empty() {
                continue;
            }
            encode_stat_u64(out, names[0], h.mean().round() as u64);
            encode_stat_u64(out, names[1], h.percentile(50.0));
            encode_stat_u64(out, names[2], h.percentile(99.0));
            encode_stat_u64(out, names[3], h.percentile(99.9));
            encode_stat_u64(out, names[4], h.max());
        }
    }

    /// `stats reset`: zeroes the server-side resettable counters — the
    /// latency histograms and protocol/multiget tallies. Connection
    /// gauges and store-owned counters (hits, misses, evictions) are
    /// deliberately left alone, as memcached leaves item stats alone.
    pub fn reset(&self) {
        self.get_latency.reset();
        self.store_latency.reset();
        self.delete_latency.reset();
        self.protocol_errors.store(0, Ordering::Relaxed);
        self.too_large.store(0, Ordering::Relaxed);
        self.multiget_batches.store(0, Ordering::Relaxed);
        self.multiget_keys.store(0, Ordering::Relaxed);
        self.multiset_batches.store(0, Ordering::Relaxed);
        self.multiset_keys.store(0, Ordering::Relaxed);
    }
}

/// Renders the `stats slabs` body (without the trailing `END`) under
/// memcached's field names: per class, numbered from 1, its slot size
/// (`chunk_size`), slots handed out (`total_chunks`), held
/// (`used_chunks`), free and evicted; then how many classes have slots
/// (`active_slabs`) and their bytes (`total_malloced`). An engine with no
/// slab reports `active_slabs 0` alone.
pub fn encode_slabs(out: &mut Vec<u8>, classes: &[ClassStats]) {
    for (n, c) in (1..).zip(classes) {
        encode_stat_u64(out, &format!("{n}:chunk_size"), c.stride as u64);
        encode_stat_u64(out, &format!("{n}:total_chunks"), c.slots as u64);
        encode_stat_u64(out, &format!("{n}:used_chunks"), c.held as u64);
        encode_stat_u64(out, &format!("{n}:free_chunks"), c.free as u64);
        encode_stat_u64(out, &format!("{n}:evicted"), c.evictions);
    }
    encode_stat_u64(out, "active_slabs", classes.iter().filter(|c| c.slots > 0).count() as u64);
    if !classes.is_empty() {
        let malloced: usize = classes.iter().map(|c| c.slots * c.stride).sum();
        encode_stat_u64(out, "total_malloced", malloced as u64);
    }
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}
