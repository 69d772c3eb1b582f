//! Cross-table oracle tests: every concurrent table must agree with a
//! `Mutex<HashMap>` oracle under a randomized concurrent workload.

use cuckoo_repro::baselines::locked::{LockKind, Locked};
use cuckoo_repro::baselines::{dense::DenseTable, node_chain::NodeChainTable, ChainingMap};
use cuckoo_repro::baselines::{ElidedCuckooMap, MemC3Config, MemC3Cuckoo, WriterLockKind};
use cuckoo_repro::cuckoo::{CuckooMap, OptimisticCuckooMap};
use cuckoo_repro::workload::keygen::SplitMix64;
use cuckoo_repro::workload::{ConcurrentMap, PutResult};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::sync::Mutex;

/// Drives a mixed insert/lookup/remove workload with per-thread key
/// ownership, then checks the final contents against the oracle.
fn oracle_test<M: ConcurrentMap<u64>>(map: M, threads: u64, ops: u64) {
    let oracle: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
    std::thread::scope(|s| {
        for t in 0..threads {
            let map = &map;
            let oracle = &oracle;
            s.spawn(move || {
                let mut rng = SplitMix64::new(0x5eed ^ t);
                for i in 0..ops {
                    // Each thread owns a disjoint key space so oracle
                    // updates are unambiguous.
                    let key = (t << 32) | rng.below(ops / 2 + 1);
                    match rng.below(10) {
                        0..=5 => {
                            let val = i;
                            match map.put(key, val) {
                                PutResult::Inserted => {
                                    let prev = oracle.lock().unwrap().insert(key, val);
                                    assert!(prev.is_none(), "oracle had {key}");
                                }
                                PutResult::Exists => {
                                    assert!(
                                        oracle.lock().unwrap().contains_key(&key),
                                        "table claims {key} exists, oracle disagrees"
                                    );
                                }
                                PutResult::Full => {}
                            }
                        }
                        6..=7 => {
                            let got = map.read(&key);
                            let expect = oracle.lock().unwrap().get(&key).copied();
                            // Own-key space + per-key determinism: values
                            // must match exactly when present.
                            assert_eq!(got, expect, "key {key}");
                        }
                        _ => {
                            let removed = map.del(&key);
                            let oracle_removed =
                                oracle.lock().unwrap().remove(&key).is_some();
                            assert_eq!(removed, oracle_removed, "remove {key}");
                        }
                    }
                }
            });
        }
    });
    let oracle = oracle.into_inner().unwrap();
    assert_eq!(map.items(), oracle.len());
    for (k, v) in &oracle {
        assert_eq!(map.read(k), Some(*v), "final check key {k}");
    }
}

const THREADS: u64 = 4;
const OPS: u64 = 6_000;

#[test]
fn optimistic_cuckoo_matches_oracle() {
    oracle_test(
        OptimisticCuckooMap::<u64, u64, 8>::with_capacity(1 << 16),
        THREADS,
        OPS,
    );
}

#[test]
fn optimistic_cuckoo_4way_small_table_matches_oracle() {
    // Small table: displacement paths and full-table fallbacks exercised.
    oracle_test(
        OptimisticCuckooMap::<u64, u64, 4>::with_capacity(1 << 12),
        THREADS,
        3_000,
    );
}

#[test]
fn elided_cuckoo_matches_oracle() {
    oracle_test(
        ElidedCuckooMap::<u64, u64, 8>::with_capacity(1 << 16),
        THREADS,
        OPS,
    );
}

#[test]
fn memc3_global_matches_oracle() {
    oracle_test(
        MemC3Cuckoo::<u64, u64, 4>::with_capacity(1 << 16, MemC3Config::baseline()),
        THREADS,
        OPS,
    );
}

#[test]
fn memc3_lock_later_bfs_matches_oracle() {
    oracle_test(
        MemC3Cuckoo::<u64, u64, 4>::with_capacity(
            1 << 16,
            MemC3Config::baseline().plus_lock_later().plus_bfs().plus_prefetch(),
        ),
        THREADS,
        OPS,
    );
}

#[test]
fn memc3_elided_glibc_matches_oracle() {
    oracle_test(
        MemC3Cuckoo::<u64, u64, 4>::with_capacity(
            1 << 16,
            MemC3Config::baseline().with_lock(WriterLockKind::ElidedGlibc),
        ),
        THREADS,
        OPS,
    );
}

#[test]
fn general_cuckoo_map_matches_oracle() {
    oracle_test(CuckooMap::<u64, u64, 8>::with_capacity(1 << 10), THREADS, OPS);
}

#[test]
fn chaining_map_matches_oracle() {
    oracle_test(ChainingMap::<u64, u64>::with_capacity(1 << 10), THREADS, OPS);
}

#[test]
fn locked_dense_matches_oracle() {
    oracle_test(
        Locked::new(
            DenseTable::<u64, u64>::with_capacity_and_hasher(1 << 16, RandomState::new()),
            LockKind::Global,
        ),
        THREADS,
        OPS,
    );
}

#[test]
fn elided_dense_matches_oracle() {
    oracle_test(
        Locked::new(
            DenseTable::<u64, u64>::with_capacity_and_hasher(1 << 16, RandomState::new()),
            LockKind::ElidedOptimized,
        ),
        THREADS,
        OPS,
    );
}

#[test]
fn elided_node_chain_matches_oracle() {
    oracle_test(
        Locked::new(
            NodeChainTable::<u64, u64>::with_capacity_and_hasher(1 << 16, RandomState::new()),
            LockKind::ElidedGlibc,
        ),
        THREADS,
        OPS,
    );
}
