//! Delete/insert churn at high occupancy — the "heavy insert/delete
//! workload" use mode the paper calls out when discussing why 90-95%
//! window throughput matters (§6.3: "Others may issue inserts and
//! deletes to a table at high occupancy").

use cuckoo_repro::baselines::{ElidedCuckooMap, MemC3Config, MemC3Cuckoo};
use cuckoo_repro::cuckoo::{CuckooMap, OptimisticCuckooMap};
use cuckoo_repro::workload::keygen::{key_of, SplitMix64};

/// Fills to ~93%, then each thread repeatedly deletes one of its own keys
/// and inserts a replacement, holding occupancy constant. Verifies the
/// final population exactly.
#[test]
fn optimistic_steady_state_churn() {
    const THREADS: u64 = 4;
    let m: OptimisticCuckooMap<u64, u64, 4> = OptimisticCuckooMap::with_capacity(1 << 13);
    let per_thread = (m.capacity() * 93 / 100) as u64 / THREADS;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let m = &m;
            s.spawn(move || {
                // Generation 0 fill.
                for i in 0..per_thread {
                    m.insert(key_of(t, i), 0).unwrap();
                }
                // Churn: replace each key with its next generation.
                let mut rng = SplitMix64::new(t);
                let mut generation = vec![0u64; per_thread as usize];
                for _ in 0..per_thread * 4 {
                    let i = rng.below(per_thread);
                    let old_gen = generation[i as usize];
                    let old_key = key_of(t + 100 * old_gen, i);
                    assert_eq!(m.remove(&old_key), Some(old_gen), "t{t} i{i}");
                    let new_gen = old_gen + 1;
                    let new_key = key_of(t + 100 * new_gen, i);
                    m.insert(new_key, new_gen).unwrap();
                    generation[i as usize] = new_gen;
                }
                // Verify our slice of the population.
                for (i, &g) in generation.iter().enumerate() {
                    let key = key_of(t + 100 * g, i as u64);
                    assert_eq!(m.get(&key), Some(g), "t{t} i{i} gen{g}");
                }
            });
        }
    });
    assert_eq!(m.len(), (per_thread * THREADS) as usize);
}

#[test]
fn elided_churn_with_stats() {
    const THREADS: u64 = 4;
    let m: ElidedCuckooMap<u64, u64, 8> = ElidedCuckooMap::with_capacity(1 << 12);
    let per_thread = (m.capacity() * 90 / 100) as u64 / THREADS;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let m = &m;
            s.spawn(move || {
                for i in 0..per_thread {
                    m.insert(key_of(t, i), i).unwrap();
                }
                for round in 0..3u64 {
                    for i in 0..per_thread {
                        assert_eq!(m.remove(&key_of(t + 100 * round, i)), Some(i));
                        m.insert(key_of(t + 100 * (round + 1), i), i).unwrap();
                    }
                }
            });
        }
    });
    assert_eq!(m.len(), (per_thread * THREADS) as usize);
    let stats = m.htm_stats().unwrap();
    // Every remove and insert is a critical section.
    assert!(stats.commits + stats.fallbacks >= per_thread * THREADS * 7);
}

#[test]
fn memc3_churn_mixed_with_readers() {
    let cfg = MemC3Config::baseline().plus_lock_later().plus_bfs();
    let m: MemC3Cuckoo<u64, u64, 4> = MemC3Cuckoo::with_capacity(1 << 12, cfg);
    let resident = (m.capacity() / 2) as u64;
    for i in 0..resident {
        m.insert(key_of(0, i), i).unwrap();
    }
    let stop = std::sync::atomic::AtomicBool::new(false);
    let stop = &stop;
    let m = &m;
    std::thread::scope(|s| {
        // Churning writer on its own key space.
        s.spawn(move || {
            for round in 0..5u64 {
                for i in 0..resident / 2 {
                    m.insert(key_of(1 + round, i), i).unwrap();
                }
                for i in 0..resident / 2 {
                    assert_eq!(m.remove(&key_of(1 + round, i)), Some(i));
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
        // Readers on stable keys.
        for _ in 0..2 {
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let k = i % resident;
                    assert_eq!(m.get(&key_of(0, k)), Some(k));
                    i += 1;
                }
            });
        }
    });
    assert_eq!(m.len(), resident as usize);
}

#[test]
fn general_map_churn_with_owned_values() {
    // Heap-owned values through churn: leaks or double-frees would show
    // up under the allocator (and in Arc counts).
    use std::sync::Arc;
    let sentinel = Arc::new(());
    let m: CuckooMap<u64, Arc<()>, 4> = CuckooMap::with_capacity(1 << 10);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let m = &m;
            let sentinel = &sentinel;
            s.spawn(move || {
                for round in 0..10u64 {
                    for i in 0..200u64 {
                        m.insert(key_of(t + 10 * round, i), Arc::clone(sentinel))
                            .unwrap();
                    }
                    for i in 0..200u64 {
                        assert!(m.remove(&key_of(t + 10 * round, i)).is_some());
                    }
                }
            });
        }
    });
    assert!(m.is_empty());
    assert_eq!(Arc::strong_count(&sentinel), 1, "leaked values");
}
