//! Property-based equivalence: `get_many` (and the visitor under it,
//! `visit_many`) ≡ N independent `get`s.
//!
//! The batched engine takes a different code path (software-pipelined
//! prefetch + shared-stamp validation, per-key fallback) but must be
//! observationally identical to looping the single-key read: same hits,
//! same misses, same values, in request order — for duplicates within a
//! group, batches longer than the table, and any group-boundary split.

use cuckoo_repro::cuckoo::{CuckooMap, OptimisticCuckooMap};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's heap allocations, so a test can show a call
/// makes none.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers to `System`; the counter is a destructor-free
// thread-local, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

proptest! {
    /// Optimistic map: batched lookups agree with single-key gets for
    /// arbitrary fill sets and query streams (hits, misses, duplicates).
    #[test]
    fn optimistic_get_many_equals_single_gets(
        fill in proptest::collection::vec(any::<u16>(), 0..300),
        queries in proptest::collection::vec(any::<u16>(), 0..80),
    ) {
        let m: OptimisticCuckooMap<u64, u64, 8> = OptimisticCuckooMap::with_capacity(2048);
        for &k in &fill {
            // Duplicate fill keys simply lose the insert race.
            let _ = m.insert(k as u64, (k as u64) * 31 + 1);
        }
        let keys: Vec<u64> = queries.iter().map(|&k| k as u64).collect();
        let batched = m.get_many(&keys);
        prop_assert_eq!(batched.len(), keys.len());
        for (j, k) in keys.iter().enumerate() {
            prop_assert_eq!(batched[j], m.get(k), "key {}", k);
        }
        // And through the mapping variant.
        let doubled = m.get_with_many(&keys, |v| v * 2);
        for (j, k) in keys.iter().enumerate() {
            prop_assert_eq!(doubled[j], m.get(k).map(|v| v * 2));
        }
    }

    /// The visitor form with a four-line value: `visit_many` shows each
    /// key exactly once, in order, exactly what `get` returns.
    #[test]
    fn optimistic_visit_many_shows_what_get_returns(
        fill in proptest::collection::vec(any::<u16>(), 0..300),
        queries in proptest::collection::vec(any::<u16>(), 0..80),
    ) {
        let m: OptimisticCuckooMap<u64, Wide, 8> = OptimisticCuckooMap::with_capacity(2048);
        for &k in &fill {
            let _ = m.insert(k as u64, wide(k as u64, 1));
        }
        let keys: Vec<u64> = queries.iter().map(|&k| k as u64).collect();
        let mut shown = Vec::new();
        m.visit_many(&keys, |i, v| shown.push((i, v.copied())));
        prop_assert_eq!(shown.len(), keys.len());
        for (j, k) in keys.iter().enumerate() {
            prop_assert_eq!(shown[j], (j, m.get(k)), "key {}", k);
        }
    }

    /// General map: same equivalence, including `get_with_many` closure
    /// results, against the locked single-key path.
    #[test]
    fn cuckoo_map_get_many_equals_single_gets(
        fill in proptest::collection::vec(any::<u16>(), 0..300),
        queries in proptest::collection::vec(any::<u16>(), 0..80),
    ) {
        let m: CuckooMap<u64, u64, 8> = CuckooMap::with_capacity(2048);
        for &k in &fill {
            let _ = m.insert(k as u64, (k as u64) * 17 + 3);
        }
        let keys: Vec<u64> = queries.iter().map(|&k| k as u64).collect();
        let batched = m.get_many(&keys);
        prop_assert_eq!(batched.len(), keys.len());
        for (j, k) in keys.iter().enumerate() {
            let single = m.get(k);
            prop_assert_eq!(batched[j].as_ref(), single.as_ref(), "key {}", k);
        }
        let mapped = m.get_with_many(&keys, |v| v + 1);
        for (j, k) in keys.iter().enumerate() {
            prop_assert_eq!(mapped[j], m.get(k).map(|v| v + 1));
        }
    }
}

/// A 256-byte value — four cache lines of copy-out, the shape of the
/// server's inline items — whose every 8-byte chunk says the same thing:
/// which key it belongs to and which version of it this is.
type Wide = [u64; 32];

fn wide(key: u64, version: u64) -> Wide {
    [key << 32 | version; 32]
}

/// `visit_many` racing overwriters of the very keys it reads and an
/// inserter whose fresh keys keep displacing them: the closure must
/// never be shown a value mixing two versions (or another key's), never
/// a miss for a key that is always resident, never a hit for a key
/// that never is, and per key never an older version after a newer one.
#[test]
fn visit_many_under_writers_shows_only_whole_current_values() {
    const HOT: u64 = 64;
    const ROUNDS: u64 = 300;
    let m: OptimisticCuckooMap<u64, Wide, 4> = OptimisticCuckooMap::with_capacity(1 << 10);
    for k in 0..HOT {
        m.insert(k, wide(k, 0)).unwrap();
    }
    // Resident keys interleaved with keys nobody ever inserts, over
    // several pipeline groups with a ragged tail.
    let keys: Vec<u64> = (0..HOT).flat_map(|k| [k, 1 << 40 | k]).chain([3, 3, 5]).collect();
    let writers_left = std::sync::atomic::AtomicUsize::new(2);
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        let (m, keys, writers_left, start) = (&m, &keys, &writers_left, &start);
        for w in 0..2 {
            s.spawn(move || {
                start.wait();
                for version in 1..=ROUNDS {
                    for k in (w..HOT).step_by(2) {
                        m.upsert(k, wide(k, version)).unwrap();
                    }
                }
                writers_left.fetch_sub(1, std::sync::atomic::Ordering::Release);
            });
        }
        s.spawn(move || {
            start.wait();
            // Fill the table with strangers until it refuses, empty it
            // again: every pass walks cuckoo paths through the hot keys'
            // buckets.
            while writers_left.load(std::sync::atomic::Ordering::Acquire) != 0 {
                let mut fresh = 1 << 20;
                while m.insert(fresh, wide(fresh, 0)).is_ok() {
                    fresh += 1;
                }
                for k in 1 << 20..fresh {
                    m.remove(&k);
                }
            }
        });
        start.wait();
        let mut newest = [0u64; HOT as usize];
        let mut passes = 0;
        while writers_left.load(std::sync::atomic::Ordering::Acquire) != 0 || passes < 10 {
            let mut next = 0;
            m.visit_many(keys, |i, v| {
                assert_eq!(i, next, "keys are visited in order, each once");
                next += 1;
                let key = keys[i];
                let Some(v) = v else {
                    assert!(key >= HOT, "resident key {key} shown as a miss");
                    return;
                };
                assert!(v.iter().all(|&chunk| chunk == v[0]), "torn value for key {key}: {v:?}");
                assert_eq!(v[0] >> 32, key, "key {key} shown another key's value");
                let version = v[0] & u32::MAX as u64;
                assert!(version >= newest[key as usize], "key {key} went back in time");
                newest[key as usize] = version;
            });
            assert_eq!(next, keys.len());
            passes += 1;
        }
    });
    // Quiescent: the visitor and `get` agree on every key.
    m.visit_many(&keys, |i, v| assert_eq!(v.copied(), m.get(&keys[i]), "key {}", keys[i]));
    for k in 0..HOT {
        assert_eq!(m.get(&k), Some(wide(k, ROUNDS)));
    }
}

/// A batch far longer than the table's population (and capacity) walks
/// every group-boundary case: full groups, a ragged tail, all-miss
/// groups, and duplicate-heavy groups.
#[test]
fn batch_longer_than_table() {
    let m: OptimisticCuckooMap<u64, u64, 4> = OptimisticCuckooMap::with_capacity(64);
    let capacity = m.capacity() as u64;
    let mut resident = Vec::new();
    for k in 0..capacity {
        if m.insert(k, k + 100).is_ok() {
            resident.push(k);
        }
    }
    assert!(!resident.is_empty());
    // 4x the table size, cycling hits, misses, and duplicates.
    let keys: Vec<u64> = (0..capacity * 4)
        .map(|i| match i % 3 {
            0 => resident[(i as usize / 3) % resident.len()],
            1 => 1_000_000 + i, // always a miss
            _ => resident[0],   // duplicate of the same hit
        })
        .collect();
    let batched = m.get_many(&keys);
    assert_eq!(batched.len(), keys.len());
    for (j, k) in keys.iter().enumerate() {
        assert_eq!(batched[j], m.get(k), "index {j} key {k}");
    }

    let general: CuckooMap<u64, u64, 4> = CuckooMap::with_capacity(64);
    for &k in &resident {
        general.insert(k, k + 200).unwrap();
    }
    let batched = general.get_many(&keys);
    for (j, k) in keys.iter().enumerate() {
        assert_eq!(batched[j], general.get(k), "index {j} key {k}");
    }
}

/// Batched reads racing a migration: force the general map to expand
/// mid-stream and keep issuing `get_many` over the full key set — every
/// key inserted before the expansion must stay visible with its exact
/// value through the two-table window.
#[test]
fn get_many_sees_all_keys_across_live_expansion() {
    let m: CuckooMap<u64, u64, 8> = CuckooMap::with_capacity(1 << 10);
    let n = m.capacity() as u64; // > capacity * fill threshold → expands
    let keys: Vec<u64> = (0..n).collect();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let (m_ref, stop_ref, keys_ref) = (&m, &stop, &keys);
        let reader = s.spawn(move || {
            let mut seen_max = 0u64;
            while !stop_ref.load(std::sync::atomic::Ordering::Acquire) {
                let out = m_ref.get_many(keys_ref);
                for (k, v) in keys_ref.iter().zip(out) {
                    if let Some(v) = v {
                        assert_eq!(v, k * 7 + 5, "key {k} corrupted");
                        seen_max = seen_max.max(*k);
                    }
                }
            }
            seen_max
        });
        for &k in &keys {
            m.insert(k, k * 7 + 5).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        let _ = reader.join().unwrap();
    });
    // After the dust settles every key is present with its value.
    let out = m.get_many(&keys);
    for (k, v) in keys.iter().zip(out) {
        assert_eq!(v, Some(k * 7 + 5), "key {k} lost");
    }
}

/// A batch that finds an expansion in flight is counted and still
/// right: every key demotes to the two-table single-key path, bumps
/// `multiget_fallbacks` (which used to stay 0 on this map), and returns
/// what `get` returns; once the migration is driven home the same batch
/// pipelines again. Either way `get_many_into` fills the caller's buffer
/// without allocating one of its own.
#[test]
fn get_many_mid_expansion_is_counted_and_correct() {
    let m: CuckooMap<u64, u64, 8> = CuckooMap::with_capacity(1 << 10);
    let mut keys = Vec::new();
    while !m.is_migrating() {
        let k = keys.len() as u64;
        m.insert(k, k * 7 + 5).unwrap();
        keys.push(k);
    }
    keys.extend([1 << 40, 3, 3]); // a miss and a duplicate, mid-group
    let want: Vec<Option<u64>> = keys.iter().map(|k| m.get(k)).collect();
    assert!(m.is_migrating(), "reads never help a migration along");
    assert_eq!(m.metrics().multiget_fallbacks.get(), 0);

    let mut out = Vec::with_capacity(keys.len());
    let allocations = ALLOCATIONS.with(Cell::get);
    m.get_many_into(&keys, &mut out);
    assert_eq!(ALLOCATIONS.with(Cell::get), allocations, "get_many_into allocated mid-migration");
    assert_eq!(out, want);
    assert_eq!(m.metrics().multiget_fallbacks.get(), keys.len() as u64);

    while m.help_migrate(usize::MAX) {}
    let allocations = ALLOCATIONS.with(Cell::get);
    m.get_many_into(&keys, &mut out);
    assert_eq!(ALLOCATIONS.with(Cell::get), allocations, "get_many_into allocated");
    assert_eq!(out, want);
    assert_eq!(m.metrics().multiget_fallbacks.get(), keys.len() as u64, "a stable table pipelines");
}
