//! Concurrent multi-reader/multi-writer cuckoo hash tables.
//!
//! This crate reproduces the data structures from *Algorithmic
//! Improvements for Fast Concurrent Cuckoo Hashing* (Li, Andersen,
//! Kaminsky, Freedman — EuroSys 2014), the design that became
//! [libcuckoo]. Two maps share one storage layout, one write core
//! (`core.rs`) and one read core (`read.rs`):
//!
//! - [`OptimisticCuckooMap`] — **cuckoo+ with fine-grained locking**, the
//!   paper's headline table (§4): optimistic lock-free reads validated by
//!   striped version counters, BFS cuckoo-path discovery outside the
//!   critical section, and per-displacement pair locking with striped
//!   spinlocks.
//! - [`CuckooMap`] — a libcuckoo-style general-purpose map (§7):
//!   arbitrary key/value types, locks for reads as well as writes, and
//!   dynamic expansion.
//!
//! The reproduction apparatus — MemC3's single-writer table and Figure
//! 5's optimization ladder, TSX lock elision (§5), DFS path search and
//! Eq. 1's closed forms — lives in the `baselines` crate.
//!
//! [libcuckoo]: https://github.com/efficient/libcuckoo
//!
//! # Quick start
//!
//! ```
//! use cuckoo::OptimisticCuckooMap;
//!
//! // 8-way set-associative (the paper's default), 64-bit keys/values.
//! let map: OptimisticCuckooMap<u64, u64> = OptimisticCuckooMap::with_capacity(10_000);
//! map.insert(1, 100).unwrap();
//! map.insert(2, 200).unwrap();
//! assert_eq!(map.get(&1), Some(100));
//! assert_eq!(map.remove(&2), Some(200));
//! assert_eq!(map.get(&2), None);
//! ```

pub mod bucket;
pub mod error;
pub mod hash;
pub mod prefetch;
pub mod racy;
pub mod raw;
pub mod search;
pub mod stats;
pub mod sync;
pub mod sync2;

mod core;
mod counter;
mod map;
mod optimistic;
mod read;

pub use error::{InsertError, UpsertOutcome};
pub use hash::{DefaultHashBuilder, FxHasher64, RandomState, SipHashBuilder, SipHasher13};
pub use map::{CuckooMap, ResizeMode};
pub use optimistic::{Builder as OptimisticBuilder, OptimisticCuckooMap};
pub use racy::Plain;
pub use stats::{PathStatsSnapshot, TableMetrics};

/// The paper's default search budget `M`: maximum slots examined while
/// looking for an empty slot before declaring the table too full
/// (§4.3.2: "As used in MemC3, B = 4, M = 2000").
pub const DEFAULT_MAX_SEARCH_SLOTS: usize = 2000;

/// Single-threaded smoke tests sized for Miri (`cargo miri test -p
/// cuckoo --lib miri_`, driven by `cargo xtask check`). They walk the
/// unsafe-heavy paths — raw bucket access, seqlock-validated reads,
/// displacement, deletion — where Miri can catch UB that native test
/// runs cannot. They also run as ordinary tests; keep them small, Miri
/// executes ~2 orders of magnitude slower than native.
#[cfg(test)]
mod miri_smoke {
    use super::{CuckooMap, OptimisticCuckooMap};

    #[test]
    fn miri_striped_map_insert_get_remove() {
        let map: CuckooMap<u64, u64> = CuckooMap::with_capacity(64);
        for k in 0..40u64 {
            map.insert(k, k * 3).unwrap();
        }
        for k in 0..40u64 {
            assert_eq!(map.get(&k), Some(k * 3));
        }
        for k in (0..40u64).step_by(2) {
            assert_eq!(map.remove(&k), Some(k * 3));
        }
        assert_eq!(map.len(), 20);
        assert_eq!(map.get(&1), Some(3));
        assert_eq!(map.get(&2), None);
    }

    #[test]
    fn miri_optimistic_map_displacement_paths() {
        // Small table + enough keys to force cuckoo displacement chains
        // (and thus the BFS search and raw slot moves).
        let map: OptimisticCuckooMap<u64, u64, 4> = OptimisticCuckooMap::with_capacity(32);
        let mut inserted = Vec::new();
        for k in 0..24u64 {
            if map.insert(k, !k).is_ok() {
                inserted.push(k);
            }
        }
        assert!(inserted.len() >= 16, "table filled suspiciously early");
        for &k in &inserted {
            assert_eq!(map.get(&k), Some(!k));
        }
        for &k in &inserted {
            assert_eq!(map.remove(&k), Some(!k));
        }
        assert!(map.is_empty());
    }

    #[test]
    fn miri_map_update_and_reinsert() {
        let map: CuckooMap<u64, u64> = CuckooMap::with_capacity(32);
        map.insert(7, 1).unwrap();
        map.upsert(7, 2);
        assert_eq!(map.get(&7), Some(2));
        map.remove(&7);
        map.insert(7, 3).unwrap();
        assert_eq!(map.get(&7), Some(3));
    }
}
