//! Cuckoo-path search: BFS, the paper's planner (§4.3.2), and the one
//! every table uses.
//!
//! A *cuckoo path* is the sequence of displacements that frees a slot in
//! one of a key's two candidate buckets (paper §4.1, Figure 3). The
//! search runs **without any locks held** (§4.3.1): it reads only the
//! atomic occupancy bitmaps and partial-key bytes, so a discovered path is
//! merely a *plan* that execution (`exec`) re-validates displacement by
//! displacement.

pub mod bfs;
pub(crate) mod exec;

use crate::hash::mix64;

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
    /// Victim-selection state for the paper ladder's DFS baseline; see
    /// [`next_random`](Self::next_random).
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
