//! Random-walk depth-first search (the MemC3 baseline, paper §4.3.2).
//!
//! "If the current bucket is full, a random key is 'kicked out' to its
//! alternate location, and possibly kicks out another random key there,
//! until a vacant position is found." MemC3's refinement — which this
//! implements — tracks **two** paths in parallel (one per candidate
//! bucket) and completes when either finds an empty slot, halving the
//! expected path length but leaving it linear in the budget: up to 250
//! displacements at M = 2000, versus BFS's logarithmic 5.
//!
//! Like the BFS, the walk itself is lock-free and read-only: it plans
//! displacements for later validated execution. (MemC3 separates path
//! discovery from item movement precisely to keep readers from ever
//! missing an item.)

use cuckoo::raw::RawTable;
use cuckoo::search::{PathEntry, SearchFailure, SearchScratch};

/// One of the two parallel walks.
struct Walk {
    /// Path steps so far (buckets whose occupant will be displaced).
    entries: Vec<PathEntry>,
    /// Bucket the walk currently stands on.
    bucket: usize,
}

/// Searches for a cuckoo path by two-way random walk, examining at most
/// `max_slots` slots. On success the path is left in `scratch.path`.
pub fn search<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    i1: usize,
    i2: usize,
    max_slots: usize,
    scratch: &mut SearchScratch,
) -> Result<(), SearchFailure> {
    scratch.path.clear();

    let mut walks = [
        Walk {
            entries: Vec::with_capacity(64),
            bucket: i1,
        },
        Walk {
            entries: Vec::with_capacity(64),
            bucket: i2,
        },
    ];
    let n_walks = if i1 == i2 { 1 } else { 2 };

    let mut examined = 0usize;
    loop {
        for walk in walks.iter_mut().take(n_walks) {
            if examined >= max_slots {
                return Err(SearchFailure::TableFull);
            }
            examined += B;

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

            // Kick out a random victim and follow it.
            let slot = (scratch.next_random() % B as u64) as usize;
            let tag = meta.partial(slot);
            if tag == 0 {
                // Racy uninitialized tag: step again from the same bucket
                // next round rather than following a degenerate edge.
                continue;
            }
            walk.entries.push(PathEntry {
                bucket: walk.bucket,
                slot: slot as u8,
                tag,
            });
            walk.bucket = raw.alt_index(walk.bucket, tag);
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
        search(&raw, 8, 9, 2000, &mut scratch).unwrap();
        assert_eq!(scratch.path.len(), 1);
        assert!(scratch.path[0].bucket == 8 || scratch.path[0].bucket == 9);
    }

    #[test]
    fn walk_follows_alt_index_edges() {
        let raw: RawTable<u64, u64, 4> = RawTable::with_capacity(4096);
        let i1 = 42;
        let tag = 5u8;
        let i2 = raw.alt_index(i1, tag);
        for bi in [i1, i2] {
            while let Some(s) = raw.meta(bi).empty_slot() {
                // Occupants of i1/i2 with tag 9 lead to vacancies.
                // SAFETY: single-threaded test.
                unsafe { raw.write_entry(bi, s, 9, 0, 0) };
            }
        }
        let mut scratch = SearchScratch::default();
        search(&raw, i1, i2, 2000, &mut scratch).unwrap();
        let path = &scratch.path;
        assert!(path.len() >= 2);
        for w in path.windows(2) {
            assert_eq!(raw.alt_index(w[0].bucket, w[0].tag), w[1].bucket);
        }
        let last = path.last().unwrap();
        assert!(!raw.meta(last.bucket).is_occupied(last.slot as usize));
    }

    #[test]
    fn budget_exhaustion_reports_full() {
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
        assert_eq!(
            search(&raw, a, b, 64, &mut scratch),
            Err(SearchFailure::TableFull)
        );
    }

    #[test]
    fn dfs_paths_are_longer_than_bfs_at_high_load() {
        // The paper's core claim for §4.3.2: at high occupancy, BFS paths
        // are dramatically shorter than DFS paths.
        let raw: RawTable<u64, u64, 4> = RawTable::with_capacity(1 << 12);
        let total = raw.total_slots() * 95 / 100;
        let mut placed = 0;
        let mut x = 99u64;
        for round in 0..raw.n_buckets() * 64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(round as u64);
            let bi = (x >> 32) as usize & raw.mask();
            let tag = ((x >> 24) as u8).max(1);
            if let Some(s) = raw.meta(bi).empty_slot() {
                // SAFETY: single-threaded test.
                unsafe { raw.write_entry(bi, s, tag, 0, 0) };
                placed += 1;
                if placed >= total {
                    break;
                }
            }
        }
        let mut scratch = SearchScratch::default();
        let mut dfs_total = 0usize;
        let mut bfs_total = 0usize;
        let mut n = 0usize;
        for i in (0..raw.n_buckets()).step_by(53) {
            let tag = ((i as u8) | 1).max(1);
            let i2 = raw.alt_index(i, tag);
            let dfs_ok = search(&raw, i, i2, 2000, &mut scratch).is_ok();
            let dfs_len = scratch.path.len();
            let bfs_ok =
                cuckoo::search::bfs::search(&raw, i, i2, 2000, false, &mut scratch).is_ok();
            let bfs_len = scratch.path.len();
            if dfs_ok && bfs_ok {
                dfs_total += dfs_len;
                bfs_total += bfs_len;
                n += 1;
            }
        }
        assert!(n > 10, "too few comparable searches: {n}");
        assert!(
            dfs_total as f64 >= 1.5 * bfs_total as f64,
            "expected DFS paths much longer: dfs={dfs_total} bfs={bfs_total} over {n}"
        );
    }
}
