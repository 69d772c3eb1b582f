//! The uniform table interface the benchmark driver runs against.
//!
//! Every table in the evaluation — the three cuckoo flavors, the general
//! map, and the baselines — implements [`ConcurrentMap`] so a single
//! driver produces comparable numbers for all of them (one adapter per
//! paper configuration).

use baselines::{
    ChainingMap, ConcurrentDense, ConcurrentNodeChain, ElidedCuckooMap, MemC3Cuckoo, SearchKind,
    WriterLockKind,
};
use cuckoo::{CuckooMap, OptimisticCuckooMap};
use htm::StatsSnapshot;

/// What an insert did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutResult {
    /// The key was inserted.
    Inserted,
    /// The key already exists.
    Exists,
    /// The table refused for capacity reasons.
    Full,
}

/// Benchmark value types: synthesized from the key so correctness spot
/// checks are possible without side tables.
pub trait BenchValue: Copy + Send + Sync + 'static {
    /// Derives the canonical value for `key`.
    fn from_key(key: u64) -> Self;
}

impl BenchValue for u64 {
    #[inline]
    fn from_key(key: u64) -> Self {
        key.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1
    }
}

impl<const N: usize> BenchValue for [u8; N] {
    #[inline]
    fn from_key(key: u64) -> Self {
        let mut v = [0u8; N];
        let bytes = key.to_le_bytes();
        let mut i = 0;
        while i < N {
            v[i] = bytes[i % 8] ^ (i as u8);
            i += 1;
        }
        v
    }
}

/// A concurrent `u64 → V` table under benchmark.
pub trait ConcurrentMap<V: BenchValue>: Sync {
    /// Inserts `key → val`.
    fn put(&self, key: u64, val: V) -> PutResult;
    /// Looks up `key`.
    fn read(&self, key: &u64) -> Option<V>;
    /// Batched lookup: one result per key, in order (`None` = miss).
    /// The default loops [`read`](Self::read); tables with a pipelined
    /// multi-key path override it so the driver's batch mode measures
    /// the real engine.
    fn read_many(&self, keys: &[u64], out: &mut Vec<Option<V>>) {
        out.clear();
        out.extend(keys.iter().map(|k| self.read(k)));
    }
    /// Batched insert: one result per pair, in order, equivalent to
    /// calling [`put`](Self::put) per pair (duplicates within a batch
    /// included). The default loops `put`; tables with a pipelined
    /// multi-key write path override it so the driver's write-batch
    /// mode measures the real engine.
    fn write_many(&self, pairs: &[(u64, V)], out: &mut Vec<PutResult>) {
        out.clear();
        out.extend(pairs.iter().map(|(k, v)| self.put(*k, *v)));
    }
    /// Removes `key`, reporting whether it was present.
    fn del(&self, key: &u64) -> bool;
    /// Current item count.
    fn items(&self) -> usize;
    /// Capacity the fill driver targets (slots for fixed tables; the
    /// pre-sized capacity for growable ones).
    fn fill_capacity(&self) -> usize;
    /// Bytes of memory in use.
    fn mem_bytes(&self) -> usize;
    /// Short display name for reports.
    fn label(&self) -> String;
    /// Transactional statistics, when running elided.
    fn htm_stats(&self) -> Option<StatsSnapshot> {
        None
    }
    /// Appends the table's observability samples (lock contention, BFS
    /// histograms, read retries...), for tables that keep them. The
    /// driver snapshots these around a measured phase so reports carry
    /// counter deltas. Default: no samples.
    fn metric_samples(&self, out: &mut Vec<metrics::Sample>) {
        let _ = out;
    }
}

/// Label suffix describing a non-default eviction policy, so A/B reports
/// distinguish the planner variants at a glance.
fn eviction_suffix(policy: cuckoo::EvictionPolicy) -> String {
    match policy {
        cuckoo::EvictionPolicy::Bfs => String::new(),
        cuckoo::EvictionPolicy::RandomWalk { max_kicks } => format!("+walk{max_kicks}"),
        cuckoo::EvictionPolicy::Hybrid { bfs_slots, max_kicks } => {
            format!("+hybrid{bfs_slots}/{max_kicks}")
        }
    }
}

fn put_from_cuckoo(r: Result<(), cuckoo::InsertError>) -> PutResult {
    match r {
        Ok(()) => PutResult::Inserted,
        Err(cuckoo::InsertError::KeyExists) => PutResult::Exists,
        Err(cuckoo::InsertError::TableFull) => PutResult::Full,
    }
}

fn put_from_baseline(r: Result<(), baselines::InsertError>) -> PutResult {
    match r {
        Ok(()) => PutResult::Inserted,
        Err(baselines::InsertError::KeyExists) => PutResult::Exists,
        Err(baselines::InsertError::TableFull) => PutResult::Full,
    }
}

impl<V: BenchValue + cuckoo::Plain, const B: usize> ConcurrentMap<V>
    for OptimisticCuckooMap<u64, V, B>
{
    fn put(&self, key: u64, val: V) -> PutResult {
        put_from_cuckoo(self.insert(key, val))
    }

    fn read(&self, key: &u64) -> Option<V> {
        self.get(key)
    }

    fn read_many(&self, keys: &[u64], out: &mut Vec<Option<V>>) {
        self.get_many_into(keys, out);
    }

    fn write_many(&self, pairs: &[(u64, V)], out: &mut Vec<PutResult>) {
        out.clear();
        out.extend(self.insert_many(pairs.iter().copied()).into_iter().map(put_from_cuckoo));
    }

    fn del(&self, key: &u64) -> bool {
        self.remove(key).is_some()
    }

    fn items(&self) -> usize {
        self.len()
    }

    fn fill_capacity(&self) -> usize {
        self.capacity()
    }

    fn mem_bytes(&self) -> usize {
        self.memory_bytes()
    }

    fn label(&self) -> String {
        format!("cuckoo+ FG {B}-way{}", eviction_suffix(self.eviction()))
    }

    fn metric_samples(&self, out: &mut Vec<metrics::Sample>) {
        OptimisticCuckooMap::metric_samples(self, out);
    }
}

impl<V: BenchValue + cuckoo::Plain, const B: usize> ConcurrentMap<V>
    for ElidedCuckooMap<u64, V, B>
{
    fn put(&self, key: u64, val: V) -> PutResult {
        put_from_cuckoo(self.insert(key, val))
    }

    fn read(&self, key: &u64) -> Option<V> {
        self.get(key)
    }

    fn del(&self, key: &u64) -> bool {
        self.remove(key).is_some()
    }

    fn items(&self) -> usize {
        self.len()
    }

    fn fill_capacity(&self) -> usize {
        self.capacity()
    }

    fn mem_bytes(&self) -> usize {
        self.memory_bytes()
    }

    fn label(&self) -> String {
        format!("cuckoo+ TSX {B}-way")
    }

    fn htm_stats(&self) -> Option<StatsSnapshot> {
        MemC3Cuckoo::htm_stats(self)
    }
}

impl<V: BenchValue + cuckoo::Plain, const B: usize> ConcurrentMap<V> for MemC3Cuckoo<u64, V, B> {
    fn put(&self, key: u64, val: V) -> PutResult {
        put_from_cuckoo(self.insert(key, val))
    }

    fn read(&self, key: &u64) -> Option<V> {
        self.get(key)
    }

    fn del(&self, key: &u64) -> bool {
        self.remove(key).is_some()
    }

    fn items(&self) -> usize {
        self.len()
    }

    fn fill_capacity(&self) -> usize {
        self.capacity()
    }

    fn mem_bytes(&self) -> usize {
        self.memory_bytes()
    }

    fn label(&self) -> String {
        let c = self.config();
        let mut parts = vec!["memc3".to_string()];
        if c.lock_later {
            parts.push("lock-later".into());
        }
        parts.push(
            match c.search {
                SearchKind::Dfs => "dfs".to_string(),
                SearchKind::Bfs => format!("bfs{}", eviction_suffix(c.eviction)),
            },
        );
        if c.prefetch {
            parts.push("prefetch".into());
        }
        parts.push(
            match c.lock {
                WriterLockKind::Global => "global",
                WriterLockKind::ElidedGlibc => "tsx-glibc",
                WriterLockKind::ElidedOptimized => "tsx*",
            }
            .into(),
        );
        parts.join("+")
    }

    fn htm_stats(&self) -> Option<StatsSnapshot> {
        MemC3Cuckoo::htm_stats(self)
    }

    fn metric_samples(&self, out: &mut Vec<metrics::Sample>) {
        MemC3Cuckoo::metric_samples(self, out);
    }
}

impl<V: BenchValue, const B: usize> ConcurrentMap<V> for CuckooMap<u64, V, B> {
    fn put(&self, key: u64, val: V) -> PutResult {
        put_from_cuckoo(self.insert(key, val))
    }

    fn read(&self, key: &u64) -> Option<V> {
        self.get(key)
    }

    fn read_many(&self, keys: &[u64], out: &mut Vec<Option<V>>) {
        self.get_many_into(keys, out);
    }

    fn write_many(&self, pairs: &[(u64, V)], out: &mut Vec<PutResult>) {
        out.clear();
        out.extend(self.insert_many(pairs.iter().copied()).into_iter().map(put_from_cuckoo));
    }

    fn del(&self, key: &u64) -> bool {
        self.remove(key).is_some()
    }

    fn items(&self) -> usize {
        self.len()
    }

    fn fill_capacity(&self) -> usize {
        self.capacity()
    }

    fn mem_bytes(&self) -> usize {
        self.memory_bytes()
    }

    fn label(&self) -> String {
        format!("libcuckoo-style map {B}-way")
    }

    fn metric_samples(&self, out: &mut Vec<metrics::Sample>) {
        CuckooMap::metric_samples(self, out);
    }
}

impl<V: BenchValue> ConcurrentMap<V> for ChainingMap<u64, V> {
    fn put(&self, key: u64, val: V) -> PutResult {
        put_from_baseline(self.insert(key, val))
    }

    fn read(&self, key: &u64) -> Option<V> {
        self.get(key)
    }

    fn del(&self, key: &u64) -> bool {
        self.remove(key).is_some()
    }

    fn items(&self) -> usize {
        self.len()
    }

    fn fill_capacity(&self) -> usize {
        // Growable; the driver targets the pre-sized bucket count.
        self.buckets()
    }

    fn mem_bytes(&self) -> usize {
        self.memory_bytes()
    }

    fn label(&self) -> String {
        "chaining (TBB-style)".into()
    }
}

impl<V: BenchValue + htm::Plain> ConcurrentMap<V> for ConcurrentDense<u64, V> {
    fn put(&self, key: u64, val: V) -> PutResult {
        put_from_baseline(self.insert(key, val))
    }

    fn read(&self, key: &u64) -> Option<V> {
        self.get(key)
    }

    fn del(&self, key: &u64) -> bool {
        self.remove(key).is_some()
    }

    fn items(&self) -> usize {
        self.len()
    }

    fn fill_capacity(&self) -> usize {
        self.capacity()
    }

    fn mem_bytes(&self) -> usize {
        self.memory_bytes()
    }

    fn label(&self) -> String {
        match self.htm_stats() {
            Some(_) => "dense (global+TSX)".into(),
            None => "dense (global lock)".into(),
        }
    }

    fn htm_stats(&self) -> Option<StatsSnapshot> {
        ConcurrentDense::htm_stats(self)
    }
}

impl<V: BenchValue + htm::Plain> ConcurrentMap<V> for ConcurrentNodeChain<u64, V> {
    fn put(&self, key: u64, val: V) -> PutResult {
        put_from_baseline(self.insert(key, val))
    }

    fn read(&self, key: &u64) -> Option<V> {
        self.get(key)
    }

    fn del(&self, key: &u64) -> bool {
        self.remove(key).is_some()
    }

    fn items(&self) -> usize {
        self.len()
    }

    fn fill_capacity(&self) -> usize {
        self.capacity()
    }

    fn mem_bytes(&self) -> usize {
        self.memory_bytes()
    }

    fn label(&self) -> String {
        match self.htm_stats() {
            Some(_) => "node-chain (global+TSX)".into(),
            None => "node-chain (global lock)".into(),
        }
    }

    fn htm_stats(&self) -> Option<StatsSnapshot> {
        ConcurrentNodeChain::htm_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<V: BenchValue + PartialEq + std::fmt::Debug>(m: &dyn ConcurrentMap<V>) {
        for k in 0..200u64 {
            assert_eq!(m.put(k, V::from_key(k)), PutResult::Inserted, "{}", m.label());
        }
        assert_eq!(m.put(0, V::from_key(0)), PutResult::Exists);
        for k in 0..200u64 {
            assert_eq!(m.read(&k), Some(V::from_key(k)), "{}", m.label());
        }
        assert_eq!(m.read(&9999), None);
        // Batched read (pipelined override or default loop) agrees with
        // single reads, including misses and duplicates.
        let keys: Vec<u64> = (0..20).map(|i| if i % 4 == 3 { 9_999 + i } else { i }).collect();
        let mut many = Vec::new();
        m.read_many(&keys, &mut many);
        assert_eq!(many.len(), keys.len());
        for (k, got) in keys.iter().zip(&many) {
            assert_eq!(*got, m.read(k), "{} key {k}", m.label());
        }
        // Batched write (pipelined override or default loop) matches the
        // per-key loop, duplicates included.
        let pairs: Vec<(u64, V)> =
            (200..220).map(|k| (k, V::from_key(k))).chain([(5, V::from_key(5))]).collect();
        let mut results = Vec::new();
        m.write_many(&pairs, &mut results);
        assert_eq!(results.len(), pairs.len());
        for (i, r) in results[..20].iter().enumerate() {
            assert_eq!(*r, PutResult::Inserted, "{} pair {i}", m.label());
        }
        assert_eq!(results[20], PutResult::Exists, "{}", m.label());
        for k in 200..220u64 {
            assert_eq!(m.read(&k), Some(V::from_key(k)), "{} key {k}", m.label());
        }
        assert!(m.del(&0));
        assert!(!m.del(&0));
        assert_eq!(m.items(), 219);
        assert!(m.mem_bytes() > 0);
        assert!(m.fill_capacity() > 0);
    }

    #[test]
    fn every_adapter_is_exercisable() {
        use baselines::locked::{LockKind, Locked};
        use baselines::{dense::DenseTable, node_chain::NodeChainTable};
        use std::collections::hash_map::RandomState;

        exercise::<u64>(&OptimisticCuckooMap::<u64, u64, 8>::with_capacity(4096));
        exercise::<u64>(&ElidedCuckooMap::<u64, u64, 8>::with_capacity(4096));
        exercise::<u64>(&MemC3Cuckoo::<u64, u64, 4>::with_capacity(
            4096,
            baselines::MemC3Config::baseline(),
        ));
        exercise::<u64>(&CuckooMap::<u64, u64, 8>::with_capacity(4096));
        exercise::<u64>(&ChainingMap::with_capacity(4096));
        exercise::<u64>(&Locked::new(
            DenseTable::with_capacity_and_hasher(4096, RandomState::new()),
            LockKind::Global,
        ));
        exercise::<u64>(&Locked::new(
            NodeChainTable::with_capacity_and_hasher(4096, RandomState::new()),
            LockKind::ElidedOptimized,
        ));
    }

    #[test]
    fn bench_values_derive_deterministically() {
        assert_eq!(u64::from_key(5), u64::from_key(5));
        assert_ne!(u64::from_key(5), u64::from_key(6));
        let a: [u8; 32] = BenchValue::from_key(7);
        let b: [u8; 32] = BenchValue::from_key(7);
        let c: [u8; 32] = BenchValue::from_key(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
