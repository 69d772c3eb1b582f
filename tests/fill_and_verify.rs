//! High-occupancy fill tests: every BFS cuckoo variant must reach 95%
//! occupancy under concurrent writers with nothing lost, matching the
//! paper's experimental procedure ("fills it to 95% capacity"); MemC3's
//! DFS rungs must reach 90%.

use cuckoo_repro::baselines::{ElidedCuckooMap, MemC3Config, MemC3Cuckoo, WriterLockKind};
use cuckoo_repro::cuckoo::{CuckooMap, OptimisticCuckooMap};
use cuckoo_repro::workload::keygen::key_of;

const THREADS: u64 = 4;

/// Per-thread disjoint key streams that together fill `percent` % of
/// `capacity`.
fn keys_for_fill(capacity: usize, percent: usize) -> Vec<Vec<u64>> {
    let per_thread = (capacity * percent / 100) as u64 / THREADS;
    (0..THREADS)
        .map(|t| (0..per_thread).map(|i| key_of(t, i)).collect())
        .collect()
}

#[test]
fn optimistic_fill_95_concurrent() {
    let m: OptimisticCuckooMap<u64, u64, 8> = OptimisticCuckooMap::with_capacity(1 << 14);
    let keys = keys_for_fill(m.capacity(), 95);
    std::thread::scope(|s| {
        for keyset in &keys {
            let m = &m;
            s.spawn(move || {
                for &k in keyset {
                    m.insert(k, k ^ 0xff).unwrap();
                }
            });
        }
    });
    assert!(m.load_factor() > 0.94);
    for keyset in &keys {
        for &k in keyset {
            assert_eq!(m.get(&k), Some(k ^ 0xff));
        }
    }
    let stats = m.path_stats();
    assert!(
        stats.searches > 0,
        "95% fill must exercise path search: {stats:?}"
    );
}

#[test]
fn optimistic_4way_fill_95_concurrent() {
    // 4-way tables need longer cuckoo paths at the same occupancy.
    let m: OptimisticCuckooMap<u64, u64, 4> = OptimisticCuckooMap::with_capacity(1 << 13);
    let keys = keys_for_fill(m.capacity(), 95);
    std::thread::scope(|s| {
        for keyset in &keys {
            let m = &m;
            s.spawn(move || {
                for &k in keyset {
                    m.insert(k, k).unwrap();
                }
            });
        }
    });
    for keyset in &keys {
        for &k in keyset {
            assert_eq!(m.get(&k), Some(k));
        }
    }
}

#[test]
fn elided_fill_95_concurrent() {
    let m: ElidedCuckooMap<u64, u64, 8> = ElidedCuckooMap::with_capacity(1 << 13);
    let keys = keys_for_fill(m.capacity(), 95);
    std::thread::scope(|s| {
        for keyset in &keys {
            let m = &m;
            s.spawn(move || {
                for &k in keyset {
                    m.insert(k, k + 1).unwrap();
                }
            });
        }
    });
    for keyset in &keys {
        for &k in keyset {
            assert_eq!(m.get(&k), Some(k + 1));
        }
    }
    let stats = m.htm_stats().unwrap();
    assert!(stats.commits > 0);
}

/// Every rung here is `MemC3Config::baseline()`'s DFS: a two-way random
/// walk with M = 2000, so 250 kicks per walk. At the edge of 4-way
/// capacity that budget, not a bug, is what ends an insert. Filled to
/// 95 %, this test failed 12 times in 2,000 runs, always in the global-lock
/// lock-later rung at load 0.9426. That table state still had paths: BFS
/// found one, other walk seeds found one in 100 of 100 tries, and the same
/// insert retried succeeded. The test process's counter-seeded hashers and
/// walk seeds made the unlucky walk repeat. In 18,000 release-mode fills
/// the DFS rungs' first `TableFull` came at load 0.951–0.98 (median 0.972).
/// So these rungs fill to 90 %; the BFS tables above keep 95 %.
#[test]
fn memc3_all_lock_kinds_fill_95_concurrent() {
    for lock in [
        WriterLockKind::Global,
        WriterLockKind::ElidedGlibc,
        WriterLockKind::ElidedOptimized,
    ] {
        for lock_later in [false, true] {
            let mut cfg = MemC3Config::baseline().with_lock(lock);
            if lock_later {
                cfg = cfg.plus_lock_later();
            }
            let m: MemC3Cuckoo<u64, u64, 4> = MemC3Cuckoo::with_capacity(1 << 12, cfg);
            let keys = keys_for_fill(m.capacity(), 90);
            std::thread::scope(|s| {
                for keyset in &keys {
                    let m = &m;
                    s.spawn(move || {
                        for &k in keyset {
                            m.insert(k, k).unwrap_or_else(|e| {
                                panic!("{lock:?} lock_later={lock_later}: {e}")
                            });
                        }
                    });
                }
            });
            for keyset in &keys {
                for &k in keyset {
                    assert_eq!(m.get(&k), Some(k), "{lock:?} lock_later={lock_later}");
                }
            }
        }
    }
}

#[test]
fn general_map_expands_past_initial_capacity_concurrent() {
    let m: CuckooMap<u64, u64, 8> = CuckooMap::with_capacity(1 << 10);
    let initial = m.capacity();
    let keys = keys_for_fill(initial * 8, 95);
    std::thread::scope(|s| {
        for keyset in &keys {
            let m = &m;
            s.spawn(move || {
                for &k in keyset {
                    m.insert(k, k).unwrap();
                }
            });
        }
    });
    assert!(m.capacity() > initial);
    for keyset in &keys {
        for &k in keyset {
            assert_eq!(m.get(&k), Some(k));
        }
    }
}

#[test]
fn readers_never_miss_during_high_occupancy_displacement() {
    // The §4.2 guarantee: moving holes backwards means a reader can
    // never miss a present key, even while displacement storms run.
    let m: OptimisticCuckooMap<u64, u64, 4> = OptimisticCuckooMap::with_capacity(1 << 12);
    let resident = (m.capacity() / 2) as u64;
    for k in 0..resident {
        m.insert(key_of(9, k), k).unwrap();
    }
    let stop = std::sync::atomic::AtomicBool::new(false);
    let stop = &stop;
    let m = &m;
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let k = i % resident;
                    assert_eq!(m.get(&key_of(9, k)), Some(k), "resident key went missing");
                    i += 1;
                }
            });
        }
        s.spawn(move || {
            // Writer pushes occupancy to 95%, forcing displacements that
            // shuffle resident keys between their candidate buckets.
            let extra = (m.capacity() * 95 / 100) as u64 - resident;
            for k in 0..extra {
                m.insert(key_of(8, k), k).unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
    });
}
