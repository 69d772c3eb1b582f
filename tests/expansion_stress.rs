//! Expansion stress: concurrent readers and writers across repeated
//! incremental doublings of `CuckooMap`.
//!
//! These tests target the resize-path guarantees:
//!
//! - readers never observe torn or mismatched key/value pairs while
//!   buckets migrate between tables;
//! - no key is lost across any number of doublings, including keys
//!   removed and re-inserted mid-migration;
//! - reader pauses stay bounded (no stop-the-world stall);
//! - memory stays flat across many consecutive doublings (retired
//!   tables are reclaimed, not leaked).
//!
//! Thread counts scale with `CUCKOO_STRESS_THREADS` (default 2 per
//! role) and working-set size with `CUCKOO_STRESS_SCALE` (default 1),
//! so CI can crank both without changing the code.

use cuckoo_repro::cuckoo::{CuckooMap, ResizeMode};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

fn stress_threads() -> usize {
    std::env::var("CUCKOO_STRESS_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(2)
}

fn stress_scale() -> u64 {
    std::env::var("CUCKOO_STRESS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// The value every key must map to; any other observation is a torn or
/// misattributed read.
fn value_of(k: u64) -> u64 {
    k.wrapping_mul(31).wrapping_add(7)
}

/// A cheap thread-local generator (tests must not depend on ambient
/// randomness for reproducibility of the *shape* of the workload).
struct SplitMix64(u64);
impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[test]
fn readers_survive_repeated_doublings_without_stalls_or_torn_reads() {
    let n_writers = stress_threads();
    let n_readers = stress_threads();
    // Start tiny so the fill forces many doublings.
    let m: CuckooMap<u64, u64, 8> =
        CuckooMap::with_capacity_and_mode(1 << 9, ResizeMode::Incremental);
    let initial_capacity = m.capacity();
    let n_keys: u64 = (1 << 15) * stress_scale();
    let per_writer = n_keys / n_writers as u64;
    let n_keys = per_writer * n_writers as u64;

    let stop = AtomicBool::new(false);
    let max_pause_ns = AtomicU64::new(0);
    let published = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..n_writers as u64 {
            let m = &m;
            let published = &published;
            s.spawn(move || {
                let lo = w * per_writer;
                let mut rng = SplitMix64(w ^ 0xDEAD);
                for i in 0..per_writer {
                    let k = lo + i;
                    m.insert(k, value_of(k)).unwrap();
                    published.fetch_max(k + 1, Ordering::Release);
                    // Sprinkle deletes + re-inserts so migration handles
                    // vanishing and reappearing keys, not just growth.
                    if i > 0 && rng.next().is_multiple_of(64) {
                        let victim = lo + rng.next() % i;
                        if m.remove(&victim).is_some() {
                            m.insert(victim, value_of(victim)).unwrap();
                        }
                    }
                }
            });
        }
        for r in 0..n_readers as u64 {
            let m = &m;
            let stop = &stop;
            let max_pause_ns = &max_pause_ns;
            let published = &published;
            s.spawn(move || {
                let mut rng = SplitMix64(r ^ 0xBEEF);
                while !stop.load(Ordering::Acquire) {
                    let hi = published.load(Ordering::Acquire);
                    if hi == 0 {
                        continue;
                    }
                    let k = rng.next() % hi;
                    let t0 = Instant::now();
                    let got = m.get(&k);
                    let pause = t0.elapsed().as_nanos() as u64;
                    max_pause_ns.fetch_max(pause, Ordering::Relaxed);
                    // A key below the published watermark is either
                    // mid-delete/re-insert (rare) or present with exactly
                    // its expected value. Anything else is a torn read.
                    if let Some(v) = got {
                        assert_eq!(v, value_of(k), "torn/misattributed read of key {k}");
                    }
                }
            });
        }
        // Scope drops writer handles first; signal readers once writers
        // are done by joining via a monitor thread is overkill — instead
        // writers publish completion through the key watermark.
        let m = &m;
        let stop = &stop;
        let published = &published;
        s.spawn(move || {
            while published.load(Ordering::Acquire) < n_keys {
                std::thread::yield_now();
            }
            // Writers are done (watermark full); let readers run one
            // more beat over the complete table, then stop them.
            std::thread::sleep(std::time::Duration::from_millis(20));
            // Drain any still-pending migration so the final
            // verification sees a single-table steady state.
            while m.help_migrate(usize::MAX) {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
        });
    });

    // No lost keys across however many doublings the fill forced.
    assert_eq!(m.len(), n_keys as usize);
    for k in 0..n_keys {
        assert_eq!(m.get(&k), Some(value_of(k)), "key {k} lost across doublings");
    }
    assert!(
        m.capacity() >= initial_capacity * 8,
        "working set should have forced several doublings (capacity {} -> {})",
        initial_capacity,
        m.capacity()
    );
    // Liveness, not latency benchmarking: a reader must never be parked
    // for anything in the vicinity of a full-table rehash. The bound is
    // deliberately loose so debug builds and loaded CI machines pass.
    let max_pause = std::time::Duration::from_nanos(max_pause_ns.load(Ordering::Relaxed));
    assert!(
        max_pause < std::time::Duration::from_secs(1),
        "reader stalled {max_pause:?} during incremental expansion"
    );
}

#[test]
fn get_or_insert_with_hammer_across_doublings() {
    let n_threads = stress_threads().max(2);
    let m: CuckooMap<u64, u64, 8> =
        CuckooMap::with_capacity_and_mode(1 << 9, ResizeMode::Incremental);
    let n_keys: u64 = (1 << 13) * stress_scale();

    std::thread::scope(|s| {
        for t in 0..n_threads as u64 {
            let m = &m;
            s.spawn(move || {
                let mut rng = SplitMix64(t);
                for i in 0..n_keys {
                    // All racers agree on the value function, so whoever
                    // wins the race the observed value must match.
                    let k = i % n_keys;
                    let v = m.get_or_insert_with(k, || value_of(k));
                    assert_eq!(v, value_of(k));
                    // Concurrent deletes force the retry path inside
                    // get_or_insert_with (insert -> KeyExists -> get ->
                    // gone again -> reinsert).
                    if rng.next().is_multiple_of(32) {
                        m.remove(&(rng.next() % n_keys));
                    }
                }
            });
        }
    });
    // Whatever survived the deletes must carry the agreed value.
    for k in 0..n_keys {
        if let Some(v) = m.get(&k) {
            assert_eq!(v, value_of(k));
        }
    }
}

#[test]
fn memory_stays_flat_across_eight_consecutive_doublings() {
    let m: CuckooMap<u64, u64, 8> =
        CuckooMap::with_capacity_and_mode(1 << 9, ResizeMode::Incremental);
    let initial_capacity = m.capacity();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        // A reader keeps epochs churning (pin/unpin) while the writer
        // below forces doublings, so reclamation must work under load
        // rather than only at idle.
        let m_ref = &m;
        let stop_ref = &stop;
        s.spawn(move || {
            let mut rng = SplitMix64(42);
            while !stop_ref.load(Ordering::Acquire) {
                let _ = m_ref.get(&(rng.next() % 1024));
            }
        });

        let mut doublings = 0;
        let mut k = 0u64;
        let mut last_capacity = m.capacity();
        while doublings < 8 {
            m.insert(k, value_of(k)).unwrap();
            k += 1;
            let c = m.capacity();
            if c > last_capacity {
                doublings += 1;
                last_capacity = c;
            }
        }
        stop.store(true, Ordering::Release);
    });

    while m.help_migrate(usize::MAX) {
        std::thread::yield_now();
    }
    assert!(m.capacity() >= initial_capacity << 8);

    // After ≥8 doublings the retired tables (whose summed size is about
    // equal to the live table's) must have been reclaimed: the map's
    // footprint must be within a small factor of a pristine map of the
    // same capacity, not 2x+ as a graveyard leak would make it.
    let pristine: CuckooMap<u64, u64, 8> = CuckooMap::with_capacity(m.capacity());
    let leak_factor = m.memory_bytes() as f64 / pristine.memory_bytes() as f64;
    assert!(
        leak_factor < 1.75,
        "memory not flat after 8 doublings: {} bytes vs pristine {} ({}x)",
        m.memory_bytes(),
        pristine.memory_bytes(),
        leak_factor
    );
}

/// Single-key writes racing a migration: one writer drives the whole
/// key space through `insert` while the map expands underneath it
/// (capacity overflow triggers expansion; a helper thread keeps
/// migration moving). Every entry must land exactly once.
#[test]
fn inserts_land_all_keys_across_live_expansion() {
    let m: CuckooMap<u64, u64, 8> = CuckooMap::with_capacity(1 << 10);
    let n = m.capacity() as u64; // > capacity * fill threshold → expands
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (m_ref, stop_ref) = (&m, &stop);
        let helper = s.spawn(move || {
            while !stop_ref.load(Ordering::Acquire) {
                while m_ref.help_migrate(usize::MAX) {}
                std::hint::spin_loop();
            }
        });
        for k in 0..n {
            m.insert(k, k * 7 + 5).unwrap();
        }
        stop.store(true, Ordering::Release);
        helper.join().unwrap();
    });
    assert_eq!(m.len() as u64, n);
    let keys: Vec<u64> = (0..n).collect();
    for (k, v) in keys.iter().zip(m.get_many(&keys)) {
        assert_eq!(v, Some(k * 7 + 5), "key {k} lost");
    }
}

/// `remove_if` racing bucket splits: a filler's inserts double the map
/// again and again while a remover, paced to spread its work over the
/// whole fill, takes every even key out with an accepting predicate and
/// leaves every odd key with a refusing one. A removed key must stay gone
/// (no split may copy it back), and a refused one must stay put (no split
/// may drop it), during the race and after.
#[test]
fn remove_if_races_bucket_splits() {
    const GROWTH: u64 = 16;
    let m: CuckooMap<u64, u64, 8> = CuckooMap::with_capacity(1 << 9);
    let n: u64 = (1 << 12) * stress_scale();
    for k in 0..n {
        m.insert(k, value_of(k)).unwrap();
    }
    let start = m.capacity();
    let inserted = AtomicU64::new(0);
    let mut mid_split = 0;
    std::thread::scope(|s| {
        let (m, inserted) = (&m, &inserted);
        s.spawn(move || {
            for k in n..GROWTH * n {
                m.insert(k, value_of(k)).unwrap();
                inserted.fetch_add(1, Ordering::Release);
            }
        });
        for k in 0..n {
            while inserted.load(Ordering::Acquire) < k * (GROWTH - 1) {
                std::thread::yield_now();
            }
            mid_split += m.is_migrating() as u64;
            if k % 2 == 0 {
                assert_eq!(m.remove_if(&k, |&v| v == value_of(k)), Some(value_of(k)), "key {k} lost before its removal");
                assert_eq!(m.get(&k), None, "key {k} resurrected");
            } else {
                assert_eq!(m.remove_if(&k, |_| false), None, "a refusing predicate removed key {k}");
                assert_eq!(m.get(&k), Some(value_of(k)), "key {k} lost");
            }
        }
    });
    assert!(m.capacity() >= start << 2, "the fill did not double the map twice");
    assert!(mid_split > 0, "no removal raced a split");
    for k in 0..GROWTH * n {
        let want = (k >= n || k % 2 == 1).then(|| value_of(k));
        assert_eq!(m.get(&k), want, "key {k}");
    }
    assert_eq!(m.len() as u64, GROWTH * n - n / 2);
}
