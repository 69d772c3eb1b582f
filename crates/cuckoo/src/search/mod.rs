//! Cuckoo-path search: BFS (the paper's contribution) and the
//! high-density random walk.
//!
//! A *cuckoo path* is the sequence of displacements that frees a slot in
//! one of a key's two candidate buckets (paper §4.1, Figure 3). Every
//! searcher runs **without any locks held** (§4.3.1): it reads only the
//! atomic occupancy bitmaps and partial-key bytes, so a discovered path is
//! merely a *plan* that execution re-validates displacement by
//! displacement.

pub mod bfs;
pub(crate) mod exec;
pub mod random_walk;

use crate::hash::mix64;
use crate::raw::RawTable;

/// How the insert slow path plans kick-out eviction when both candidate
/// buckets are full.
///
/// The policy only selects how a cuckoo *path* is discovered; execution
/// is always the shared validated hole-backwards routine
/// (`search::exec`), so every policy provides the same reader-visibility
/// guarantees. The trade-off is density versus tail latency:
///
/// - [`Bfs`](EvictionPolicy::Bfs) finds *shortest* paths (≈5 steps at
///   95% load, Eq. 2) but declares the table full once its breadth
///   budget `M` is exhausted — in practice ~95-97% sustainable load.
/// - [`RandomWalk`](EvictionPolicy::RandomWalk) follows Kuszmaul's
///   high-density kick-out schemes: a bounded random walk that keeps
///   kicking far past BFS's give-up point, with loop detection via
///   visited-slot fingerprints so the walk never revisits (and thus
///   never self-invalidates) a slot. Longer paths, higher sustainable
///   density (98%+).
/// - [`Hybrid`](EvictionPolicy::Hybrid) is the breadth-bounded
///   compromise: a small BFS first (short paths for the common case),
///   falling back to the random walk only when the bounded breadth
///   search fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Breadth-first search with the configured budget `M` (§4.3.2) —
    /// the paper's scheme and this crate's default.
    #[default]
    Bfs,
    /// Bounded random-walk kick-out with fingerprint loop detection.
    RandomWalk {
        /// Maximum victim kicks before the insert gives up.
        max_kicks: usize,
    },
    /// Breadth-bounded hybrid: BFS over at most `bfs_slots` slots, then
    /// random walk on failure.
    Hybrid {
        /// BFS slot budget for the first phase.
        bfs_slots: usize,
        /// Random-walk kick budget for the fallback phase.
        max_kicks: usize,
    },
}

/// Discovers a cuckoo path from `(i1, i2)` under `policy`, leaving it in
/// `scratch.path` (root first, vacancy last — the format
/// [`exec`] executes). `max_slots` and `prefetch` parameterize the BFS
/// phases; random-walk phases are bounded by their own kick budgets.
///
/// Like [`bfs::search`], this runs with **no locks
/// held** and reads only atomic metadata: the result is a plan that
/// execution re-validates step by step.
pub fn plan<K, V, const B: usize>(
    policy: EvictionPolicy,
    raw: &RawTable<K, V, B>,
    i1: usize,
    i2: usize,
    max_slots: usize,
    prefetch: bool,
    scratch: &mut SearchScratch,
) -> Result<(), SearchFailure> {
    scratch.kicks = 0;
    scratch.loops_detected = 0;
    match policy {
        EvictionPolicy::Bfs => bfs::search(raw, i1, i2, max_slots, prefetch, scratch),
        EvictionPolicy::RandomWalk { max_kicks } => {
            random_walk::search(raw, i1, i2, max_kicks, scratch)
        }
        EvictionPolicy::Hybrid { bfs_slots, max_kicks } => {
            if bfs::search(raw, i1, i2, bfs_slots.min(max_slots), prefetch, scratch).is_ok() {
                return Ok(());
            }
            let bfs_examined = scratch.examined;
            let r = random_walk::search(raw, i1, i2, max_kicks, scratch);
            // Report the whole search's cost, both phases.
            scratch.examined += bfs_examined;
            r
        }
    }
}

/// One step of a cuckoo path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEntry {
    /// Bucket this step operates on.
    pub bucket: usize,
    /// For intermediate steps: the slot whose occupant moves to the next
    /// entry's bucket. For the final entry: the empty slot discovered.
    pub slot: u8,
    /// The occupant's partial key as observed during search (0 and unused
    /// for the final entry). Execution re-validates it: a changed tag
    /// means the path is stale.
    pub tag: u8,
}

/// Search bookkeeping reused across inserts so the hot path does not
/// allocate.
pub struct SearchScratch {
    pub(crate) visited: Vec<Visited>,
    /// The discovered path, root first, empty-slot bucket last.
    pub path: Vec<PathEntry>,
    /// Slots examined by the most recent search (success or failure) —
    /// the observability layer's search-depth sample.
    pub examined: usize,
    /// Victim kicks performed by the most recent random-walk search
    /// (0 for BFS/DFS) — the eviction-engine kick-count sample.
    pub kicks: usize,
    /// Walk steps the most recent random-walk search rejected because
    /// their slot fingerprint was already visited (loop detection).
    pub loops_detected: usize,
    /// Fingerprints of `(bucket, slot)` coordinates visited by the
    /// current random-walk search (see `random_walk::fingerprint`).
    pub(crate) fingerprints: Vec<u32>,
    rng_state: u64,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Visited {
    pub bucket: usize,
    /// Index of the parent in the visited list, or `u32::MAX` for roots.
    pub parent: u32,
    /// Slot in the parent bucket whose occupant leads here.
    pub slot_in_parent: u8,
    /// That occupant's observed tag.
    pub tag_in_parent: u8,
}

pub(crate) const NO_PARENT: u32 = u32::MAX;

impl SearchScratch {
    /// Creates scratch buffers seeded for victim selection.
    pub fn new(seed: u64) -> Self {
        SearchScratch {
            visited: Vec::with_capacity(512),
            path: Vec::with_capacity(16),
            examined: 0,
            kicks: 0,
            loops_detected: 0,
            fingerprints: Vec::with_capacity(128),
            rng_state: mix64(seed | 1),
        }
    }

    /// SplitMix64 step for random victim selection. Part of the paper
    /// ladder's seam (see `OptimisticCuckooMap`'s hidden impl block).
    #[doc(hidden)]
    #[inline]
    pub fn next_random(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.rng_state)
    }
}

impl Default for SearchScratch {
    fn default() -> Self {
        Self::new(0x5eed)
    }
}

/// Why a search ended without a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchFailure {
    /// The slot-examination budget `M` was exhausted: the table is
    /// (effectively) too full.
    TableFull,
}

thread_local! {
    /// Per-thread pool of search scratch buffers so inserts never allocate
    /// on the hot path.
    static SCRATCH_POOL: std::cell::RefCell<Vec<SearchScratch>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

static SCRATCH_SEED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Runs `f` with a pooled per-thread [`SearchScratch`]. Reentrant (nested
/// calls get distinct buffers).
pub fn with_scratch<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    let mut scratch = SCRATCH_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_else(|| {
        let seed = SCRATCH_SEED.fetch_add(0x9e37_79b9, std::sync::atomic::Ordering::Relaxed); // ORDERING: alloc.unique-id
        SearchScratch::new(seed)
    });
    let r = f(&mut scratch);
    SCRATCH_POOL.with(|p| p.borrow_mut().push(scratch));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_rng_is_deterministic_per_seed() {
        let mut a = SearchScratch::new(1);
        let mut b = SearchScratch::new(1);
        let mut c = SearchScratch::new(2);
        let xa: Vec<u64> = (0..4).map(|_| a.next_random()).collect();
        let xb: Vec<u64> = (0..4).map(|_| b.next_random()).collect();
        let xc: Vec<u64> = (0..4).map(|_| c.next_random()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }
}
