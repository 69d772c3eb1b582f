//! Baseline hash tables from the paper's evaluation (§2, §5, §6).
//!
//! The paper compares its cuckoo tables against three other designs; this
//! crate implements all of them from scratch:
//!
//! - [`DenseMap`] / [`ConcurrentDense`] — Google `dense_hash_map` analog:
//!   open addressing with quadratic probing, a 0.5 maximum load factor,
//!   and a single flat entry array ("sacrifices space efficiency for
//!   extremely high speed"). Single-writer; the concurrent wrapper
//!   serializes through a global lock, optionally elided (Figure 2).
//! - [`NodeChainMap`] / [`ConcurrentNodeChain`] — C++11
//!   `std::unordered_map` analog: separate chaining with one allocation
//!   per entry, which is exactly the pointer overhead the paper charges
//!   against chaining tables for small key-value pairs. Node storage
//!   comes from a pre-allocated arena so elided inserts do not allocate
//!   inside the transactional region (the paper's §5 advice).
//! - [`ChainingMap`] — Intel TBB `concurrent_hash_map` analog: separate
//!   chaining with striped reader-writer bucket locks, concurrent readers
//!   *and* writers, and lock-all-and-double expansion.
//!
//! `DenseMap` and `NodeChainMap` route all memory access through
//! [`htm::MemCtx`], so their global-lock wrappers can elide the lock with
//! genuine conflict detection — reproducing the paper's §2.3 experiment
//! where naive lock elision fails to scale single-writer tables.
//!
//! # The cuckoo ladder
//!
//! The paper's own starting point and its steps towards cuckoo+ live here
//! too, on the storage and read path of [`cuckoo::OptimisticCuckooMap`]:
//!
//! - [`MemC3Cuckoo`] — MemC3's optimistic multi-reader / *single*-writer
//!   table (§4.2): cuckoo+'s lock-free reads, writers serialized through
//!   one global lock. Its [`MemC3Config`] is Figure 5's cumulative
//!   optimization ladder:
//!
//!   | figure label      | config                                            |
//!   |-------------------|---------------------------------------------------|
//!   | `cuckoo`          | [`MemC3Config::baseline`] — Algorithm 1: DFS search *inside* the critical section |
//!   | `+lock later`     | `.plus_lock_later()` — Algorithm 2: search first, lock for validate-execute only |
//!   | `+BFS`            | `.plus_bfs()` — breadth-first path search          |
//!   | `+prefetch`       | `.plus_prefetch()` — prefetch the BFS frontier     |
//!   | `+TSX-glibc`      | `.with_lock(WriterLockKind::ElidedGlibc)`          |
//!   | `+TSX*`           | `.with_lock(WriterLockKind::ElidedOptimized)`      |
//!
//! - [`ElidedCuckooMap`] — cuckoo+ under (simulated) TSX lock elision
//!   (§5): the top rung with 8-way buckets.
//! - [`search::dfs`] — MemC3's two-way random-walk path search, and
//!   [`analysis`] — Eq. 1's closed forms for path invalidation.

pub mod analysis;
pub mod chaining;
mod crit;
pub mod dense;
mod elided;
pub mod locked;
mod memc3;
pub mod node_chain;

/// Cuckoo-path search for the ladder's DFS rungs.
pub mod search {
    pub mod dfs;
}

pub use chaining::ChainingMap;
pub use dense::{ConcurrentDense, DenseMap};
pub use elided::ElidedCuckooMap;
pub use locked::LockKind;
pub use memc3::{MemC3Config, MemC3Cuckoo, SearchKind, SpinGuard, SpinLock, WriterLockKind};
pub use node_chain::{ConcurrentNodeChain, NodeChainMap};

/// Insert error shared by the non-cuckoo baseline tables (the same two
/// outcomes as `cuckoo::InsertError`, which the ladder tables return).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The table cannot accept more items (fixed-capacity variants).
    TableFull,
    /// The key is already present.
    KeyExists,
}

impl core::fmt::Display for InsertError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InsertError::TableFull => write!(f, "hash table too full to insert"),
            InsertError::KeyExists => write!(f, "key already exists"),
        }
    }
}

impl std::error::Error for InsertError {}
