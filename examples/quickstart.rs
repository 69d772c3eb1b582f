//! Quickstart: the three table flavors in two minutes.
//!
//! Run with `cargo run --release --example quickstart`.

use cuckoo_repro::baselines::ElidedCuckooMap;
use cuckoo_repro::cuckoo::{CuckooMap, InsertError, OptimisticCuckooMap, UpsertOutcome};

fn main() {
    // 1. cuckoo+ with fine-grained locking: the paper's headline table.
    //    Fixed capacity, `Plain` (fixed-size, any-bits-valid) keys and
    //    values, lock-free reads, concurrent writers.
    let map: OptimisticCuckooMap<u64, u64> = OptimisticCuckooMap::with_capacity(100_000);
    map.insert(1, 100).unwrap();
    map.insert(2, 200).unwrap();
    assert_eq!(map.get(&1), Some(100));
    assert_eq!(map.insert(1, 999), Err(InsertError::KeyExists));
    assert_eq!(map.upsert(1, 101).unwrap(), UpsertOutcome::Updated);
    assert_eq!(map.remove(&2), Some(200));
    println!(
        "cuckoo+ (fine-grained): {} items, load factor {:.4}, {} KiB",
        map.len(),
        map.load_factor(),
        map.memory_bytes() / 1024
    );

    // Concurrent use needs no locks on the caller side.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let map = &map;
            s.spawn(move || {
                for i in 0..10_000u64 {
                    let key = (t + 1) * 1_000_000 + i;
                    map.insert(key, key * 2).unwrap();
                }
            });
        }
    });
    assert_eq!(map.len(), 40_001);
    println!("after 4 concurrent writers: {} items", map.len());

    // 2. cuckoo+ under (simulated) TSX lock elision: same algorithms, one
    //    coarse lock that is almost never really taken.
    let elided: ElidedCuckooMap<u64, u64> = ElidedCuckooMap::with_capacity(10_000);
    for k in 0..5_000 {
        elided.insert(k, k).unwrap();
    }
    let stats = elided.htm_stats().unwrap();
    println!(
        "cuckoo+ (elided): {} commits, {} aborts ({:.2}% abort rate), {} fallbacks",
        stats.commits,
        stats.aborts(),
        stats.abort_rate() * 100.0,
        stats.fallbacks
    );

    // 3. The libcuckoo-style general map (paper §7): arbitrary key/value
    //    types, locked reads, automatic expansion.
    let general: CuckooMap<String, Vec<u8>> = CuckooMap::new();
    general.insert("alpha".into(), vec![1, 2, 3]).unwrap();
    general.insert("beta".into(), b"hello".to_vec()).unwrap();
    assert_eq!(general.get_with(&"alpha".to_string(), |v| v.len()), Some(3));
    let before = general.capacity();
    for i in 0..10_000u32 {
        general.insert(format!("key-{i}"), i.to_le_bytes().to_vec()).unwrap();
    }
    println!(
        "general map: grew from {} to {} slots holding {} items",
        before,
        general.capacity(),
        general.len()
    );
}
