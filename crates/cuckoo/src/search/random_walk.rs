//! Bounded random-walk kick-out eviction with fingerprint loop
//! detection — the high-density scheme from Kuszmaul's *Fast Concurrent
//! Cuckoo Kick-out Eviction Schemes for High-Density Tables*.
//!
//! BFS (the paper's §4.3.2 scheme) finds provably short paths but gives
//! up once its breadth budget `M` is exhausted, which caps sustainable
//! load around 95-97%. A random walk keeps kicking: each step evicts a
//! random victim from the current bucket and follows it to its alternate
//! bucket, so the only limit is the kick budget. The classic failure
//! mode — the walk wandering into a cycle and burning its budget
//! revisiting the same handful of buckets — is what the loop detection
//! removes.
//!
//! # Loop detection via visited-slot fingerprints
//!
//! Every `(bucket, slot)` coordinate the walk kicks is remembered as a
//! 32-bit **fingerprint**: the high half of `mix64(bucket << 8 | slot)`.
//! A victim whose fingerprint was already recorded is skipped (the walk
//! tries the bucket's other slots, re-randomized). Storing fingerprints
//! instead of full coordinates halves the footprint; a fingerprint
//! collision merely skips a viable victim — conservative, never unsafe.
//! Cycle-free paths have a second benefit beyond budget: a path that
//! never revisits a slot cannot *self-invalidate* during execution
//! (an earlier displacement emptying a slot a later step expects full),
//! so validated execution needs no special-casing for repeats.
//!
//! Like [`bfs`](super::bfs) and MemC3's DFS, the walk is
//! lock-free and read-only: it plans displacements over the atomic
//! metadata for later validated execution. Two walks run in parallel
//! (one per candidate bucket, the MemC3 refinement) and the first to
//! stand on a vacancy wins.

use super::{PathEntry, SearchFailure, SearchScratch};
use crate::hash::mix64;
use crate::raw::RawTable;

/// Fingerprint of a visited `(bucket, slot)` coordinate.
#[inline]
pub(crate) fn fingerprint(bucket: usize, slot: usize) -> u32 {
    (mix64(((bucket as u64) << 8) | slot as u64) >> 32) as u32
}

/// One of the two parallel walks.
struct Walk {
    /// Path steps so far (slots whose occupant will be displaced).
    entries: Vec<PathEntry>,
    /// Bucket the walk currently stands on.
    bucket: usize,
    /// Set when every victim in the current bucket is already visited:
    /// the walk is wedged and only the other walk can still succeed.
    stuck: bool,
}

/// Searches for a cuckoo path by bounded two-way random walk, kicking at
/// most `max_kicks` victims. On success the path is left in
/// `scratch.path` (root first, vacancy last); `scratch.kicks` and
/// `scratch.loops_detected` report the walk's effort either way.
pub fn search<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    i1: usize,
    i2: usize,
    max_kicks: usize,
    scratch: &mut SearchScratch,
) -> Result<(), SearchFailure> {
    scratch.path.clear();
    scratch.fingerprints.clear();
    scratch.examined = 0;
    scratch.kicks = 0;
    scratch.loops_detected = 0;

    let mut walks = [
        Walk { entries: Vec::with_capacity(64), bucket: i1, stuck: false },
        Walk { entries: Vec::with_capacity(64), bucket: i2, stuck: false },
    ];
    let n_walks = if i1 == i2 { 1 } else { 2 };

    loop {
        let mut all_stuck = true;
        for walk in walks.iter_mut().take(n_walks) {
            if walk.stuck {
                continue;
            }
            all_stuck = false;
            if scratch.kicks >= max_kicks {
                return Err(SearchFailure::TableFull);
            }
            scratch.examined += B;

            let meta = raw.meta(walk.bucket);
            if let Some(slot) = meta.empty_slot() {
                scratch.path.append(&mut walk.entries);
                scratch.path.push(PathEntry {
                    bucket: walk.bucket,
                    slot: slot as u8,
                    tag: 0,
                });
                return Ok(());
            }

            // Kick a random victim — the first of the bucket's slots
            // (scanned from a random offset) that is not already on a
            // walk. Skipped slots are the detected loops.
            let offset = (scratch.next_random() % B as u64) as usize;
            let mut victim = None;
            for j in 0..B {
                let slot = (offset + j) % B;
                let tag = meta.partial(slot);
                if tag == 0 {
                    // Racy uninitialized tag: a degenerate edge, skip.
                    continue;
                }
                if scratch.fingerprints.contains(&fingerprint(walk.bucket, slot)) {
                    scratch.loops_detected += 1;
                    continue;
                }
                victim = Some((slot, tag));
                break;
            }
            let Some((slot, tag)) = victim else {
                // Every occupant of this bucket is already on a walk:
                // kicking any of them would close a cycle. Wedge this
                // walk; its twin may still find a vacancy elsewhere.
                walk.stuck = true;
                continue;
            };
            scratch.kicks += 1;
            scratch.fingerprints.push(fingerprint(walk.bucket, slot));
            walk.entries.push(PathEntry {
                bucket: walk.bucket,
                slot: slot as u8,
                tag,
            });
            walk.bucket = raw.alt_index(walk.bucket, tag);
        }
        if all_stuck {
            return Err(SearchFailure::TableFull);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_vacancy_yields_single_entry() {
        let raw: RawTable<u64, u64, 4> = RawTable::with_capacity(4096);
        let mut scratch = SearchScratch::default();
        search(&raw, 8, 9, 128, &mut scratch).unwrap();
        assert_eq!(scratch.path.len(), 1);
        assert_eq!(scratch.kicks, 0);
        assert!(scratch.path[0].bucket == 8 || scratch.path[0].bucket == 9);
    }

    #[test]
    fn walk_follows_alt_index_edges_and_never_repeats_a_slot() {
        let raw: RawTable<u64, u64, 4> = RawTable::with_capacity(4096);
        let i1 = 42;
        let tag = 5u8;
        let i2 = raw.alt_index(i1, tag);
        for bi in [i1, i2] {
            while let Some(s) = raw.meta(bi).empty_slot() {
                // SAFETY: single-threaded test.
                unsafe { raw.write_entry(bi, s, 9, 0, 0) };
            }
        }
        let mut scratch = SearchScratch::default();
        search(&raw, i1, i2, 128, &mut scratch).unwrap();
        let path = &scratch.path;
        assert!(path.len() >= 2);
        for w in path.windows(2) {
            assert_eq!(raw.alt_index(w[0].bucket, w[0].tag), w[1].bucket);
        }
        let last = path.last().unwrap();
        assert!(!raw.meta(last.bucket).is_occupied(last.slot as usize));
        // Loop detection: no (bucket, slot) appears twice.
        let mut coords: Vec<(usize, u8)> =
            path[..path.len() - 1].iter().map(|e| (e.bucket, e.slot)).collect();
        coords.sort_unstable();
        coords.dedup();
        assert_eq!(coords.len(), path.len() - 1, "walk revisited a slot");
    }

    #[test]
    fn closed_cycle_is_detected_not_spun_on() {
        // Two buckets pointing only at each other, both full: the walk
        // must detect the 2-cycle and give up with kicks ≪ budget,
        // instead of bouncing until the budget dies.
        let raw: RawTable<u64, u64, 4> = RawTable::with_capacity(4096);
        let a = 7;
        let t = 3u8;
        let b = raw.alt_index(a, t);
        for bi in [a, b] {
            while let Some(s) = raw.meta(bi).empty_slot() {
                // SAFETY: single-threaded test.
                unsafe { raw.write_entry(bi, s, t, 0, 0) };
            }
        }
        let mut scratch = SearchScratch::default();
        assert_eq!(search(&raw, a, b, 10_000, &mut scratch), Err(SearchFailure::TableFull));
        assert!(scratch.kicks <= 8, "cycle not detected: {} kicks", scratch.kicks);
        assert!(scratch.loops_detected > 0, "no loop events recorded");
    }

    #[test]
    fn kick_budget_bounds_the_walk() {
        // A sparse-but-locally-full neighborhood: the walk from a full
        // pair must stop at the kick budget.
        let raw: RawTable<u64, u64, 4> = RawTable::with_capacity(1 << 12);
        let mut x = 1u64;
        // ~97% full with varied tags so walks roam far.
        let target = raw.total_slots() * 97 / 100;
        let mut placed = 0;
        'fill: for bi in 0..raw.n_buckets() {
            for _ in 0..4 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let tag = ((x >> 56) as u8).max(1);
                if let Some(s) = raw.meta(bi).empty_slot() {
                    // SAFETY: single-threaded test.
                    unsafe { raw.write_entry(bi, s, tag, 0, 0) };
                    placed += 1;
                    if placed >= target {
                        break 'fill;
                    }
                }
            }
        }
        let mut scratch = SearchScratch::default();
        for i in 0..64 {
            let tag = ((i as u8) | 1).max(1);
            let b1 = (i * 13) & raw.mask();
            let _ = search(&raw, b1, raw.alt_index(b1, tag), 32, &mut scratch);
            assert!(scratch.kicks <= 32, "budget exceeded: {}", scratch.kicks);
        }
    }

    #[test]
    fn sustains_higher_density_than_bounded_bfs() {
        // The scheme's reason to exist: with comparable effort budgets,
        // the loop-detecting walk packs a table further than BFS before
        // the first failure.
        fn fill(policy: crate::search::EvictionPolicy, budget: usize) -> usize {
            let raw: RawTable<u64, u64, 4> = RawTable::with_capacity(1 << 10);
            let mut scratch = SearchScratch::default();
            let mut placed = 0usize;
            let mut x = 7u64;
            loop {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let i1 = (x >> 32) as usize & raw.mask();
                let tag = ((x >> 24) as u8).max(1);
                let i2 = raw.alt_index(i1, tag);
                let direct = [i1, i2]
                    .iter()
                    .find_map(|&bi| raw.meta(bi).empty_slot().map(|s| (bi, s)));
                let (bi, slot) = match direct {
                    Some(t) => t,
                    None => {
                        if crate::search::plan(policy, &raw, i1, i2, budget, false, &mut scratch)
                            .is_err()
                        {
                            return placed;
                        }
                        // Execute the plan single-threadedly.
                        let path = scratch.path.clone();
                        for i in (0..path.len() - 1).rev() {
                            let (src, dst) = (path[i], path[i + 1]);
                            // SAFETY: single-threaded test; path valid.
                            unsafe {
                                raw.move_entry(
                                    src.bucket,
                                    src.slot as usize,
                                    dst.bucket,
                                    dst.slot as usize,
                                    src.tag,
                                );
                            }
                        }
                        (path[0].bucket, path[0].slot as usize)
                    }
                };
                // SAFETY: single-threaded test; slot free.
                unsafe { raw.write_entry(bi, slot, tag, 0, 0) };
                placed += 1;
            }
        }
        // 256 slots examined ≈ 64 buckets for BFS; 64 kicks for the walk.
        let bfs = fill(crate::search::EvictionPolicy::Bfs, 256);
        let walk = fill(crate::search::EvictionPolicy::RandomWalk { max_kicks: 64 }, 256);
        assert!(
            walk > bfs,
            "random walk should out-pack budget-limited BFS: walk={walk} bfs={bfs}"
        );
    }
}
