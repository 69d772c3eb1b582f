//! `cuckoo+` with (simulated) TSX lock elision (paper §5).
//!
//! The paper's second concurrency regime for the optimized table: keep
//! every algorithmic improvement — BFS path search outside the critical
//! section, 8-way buckets, optimistic reads — but protect writes with a
//! *single coarse lock that is elided*. Because the optimizations shrink
//! the critical section "from hundreds of bucket reads and writes to only
//! a few bucket writes", the transactional abort rate collapses and the
//! coarse lock scales.
//!
//! [`ElidedCuckooMap`] composes [`crate::MemC3Cuckoo`] with the
//! lock-later + BFS + prefetch configuration and an elided writer lock;
//! only the default set-associativity differs (8-way, §4.3.3).

use crate::memc3::{MemC3Config, MemC3Cuckoo, WriterLockKind};
use core::hash::Hash;
use cuckoo::{DefaultHashBuilder, Plain};
use htm::HtmDomain;
use std::sync::Arc;

/// cuckoo+ under an elided global lock: all of §4.3's algorithmic
/// optimizations, transactional writes.
///
/// # Examples
///
/// ```
/// use baselines::ElidedCuckooMap;
///
/// let m: ElidedCuckooMap<u64, u64> = ElidedCuckooMap::with_capacity(1024);
/// m.insert(7, 42)?;
/// assert_eq!(m.get(&7), Some(42));
/// let stats = m.htm_stats().unwrap();
/// assert!(stats.commits >= 1); // the insert ran as a transaction
/// # Ok::<(), cuckoo::InsertError>(())
/// ```
pub struct ElidedCuckooMap<K, V, const B: usize = 8, S = DefaultHashBuilder> {
    inner: MemC3Cuckoo<K, V, B, S>,
}

impl<K, V, const B: usize> ElidedCuckooMap<K, V, B, DefaultHashBuilder>
where
    K: Plain + Eq + Hash,
    V: Plain,
{
    /// Creates a table with the paper's `TSX*` elision policy.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_policy(capacity, WriterLockKind::ElidedOptimized)
    }

    /// Creates a table with an explicit elision policy (or a plain global
    /// lock, for "cuckoo+ minus HTM" comparisons).
    pub fn with_capacity_and_policy(capacity: usize, lock: WriterLockKind) -> Self {
        Self::with_capacity_policy_and_domain(capacity, lock, Arc::new(HtmDomain::new()))
    }

    /// Creates a table whose elided critical sections run in the supplied
    /// transactional domain — for modeling specific hardware capacity
    /// budgets (Figure 10b's footprint experiments).
    pub fn with_capacity_policy_and_domain(
        capacity: usize,
        lock: WriterLockKind,
        domain: Arc<HtmDomain>,
    ) -> Self {
        let config = MemC3Config::baseline()
            .plus_lock_later()
            .plus_bfs()
            .plus_prefetch()
            .with_lock(lock);
        ElidedCuckooMap {
            inner: MemC3Cuckoo::with_capacity_hasher_and_domain(
                capacity,
                config,
                DefaultHashBuilder::new(),
                domain,
            ),
        }
    }
}

/// Every table operation is [`MemC3Cuckoo`]'s, under the configuration
/// the constructors chose.
impl<K, V, const B: usize, S> core::ops::Deref for ElidedCuckooMap<K, V, B, S> {
    type Target = MemC3Cuckoo<K, V, B, S>;

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuckoo::InsertError;

    #[test]
    fn crud_through_elision() {
        let m: ElidedCuckooMap<u64, u64> = ElidedCuckooMap::with_capacity(10_000);
        for k in 0..1000u64 {
            m.insert(k, k + 5).unwrap();
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(&k), Some(k + 5));
        }
        assert_eq!(m.remove(&3), Some(8));
        assert!(m.update(&4, 0));
        assert_eq!(m.get(&4), Some(0));
        assert_eq!(m.insert(5, 1), Err(InsertError::KeyExists));
        let stats = m.htm_stats().unwrap();
        assert!(stats.commits > 0, "speculation should mostly succeed");
    }

    #[test]
    fn concurrent_elided_writers() {
        let m: ElidedCuckooMap<u64, u64> = ElidedCuckooMap::with_capacity(1 << 15);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..3000u64 {
                        let key = t * 1_000_000 + i;
                        m.insert(key, key).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.len(), 12_000);
        for t in 0..4u64 {
            for i in 0..3000u64 {
                let key = t * 1_000_000 + i;
                assert_eq!(m.get(&key), Some(key));
            }
        }
        let stats = m.htm_stats().unwrap();
        assert!(stats.starts >= 12_000);
    }

    #[test]
    fn high_occupancy_with_short_transactions() {
        let m: ElidedCuckooMap<u64, u64, 4> = ElidedCuckooMap::with_capacity(1 << 11);
        let target = m.capacity() * 95 / 100;
        for k in 0..target as u64 {
            m.insert(k, k).unwrap();
        }
        assert!(m.load_factor() > 0.94);
        let stats = m.htm_stats().unwrap();
        // The headline §5 claim: with BFS + lock-later the transactional
        // footprint is small enough that most sections commit
        // speculatively even while displacing at high load.
        assert!(
            stats.fallback_rate() < 0.5,
            "fallback rate {:.3} too high for short transactions",
            stats.fallback_rate()
        );
    }
}
