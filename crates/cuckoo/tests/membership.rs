//! Membership properties: whatever path the insert slow path plans and
//! executes, it changes *where* entries live — never *what* the table
//! contains. These generative tests drive random workloads through one
//! table of each map and demand the final membership match an oracle:
//!
//! 1. **Sequential**: an arbitrary insert/upsert/remove trace produces
//!    the oracle's key→value membership, on both [`OptimisticCuckooMap`]
//!    (cuckoo+ fine-grained) and [`CuckooMap`] (libcuckoo-style), checked
//!    against a `HashMap`.
//! 2. **Concurrent**: multiple writer threads hammering one table with
//!    thread-owned keys (plus churn that punches holes and forces
//!    re-planning of displacement paths that went stale mid-execution)
//!    lose nothing, and end with the same membership a sequential fill of
//!    the surviving keys produces.
//! 3. **Read protocols**: the optimistic (seqlock) and locked-pair read
//!    protocols run one probe, so on the same contents `visit_many` ≡
//!    per-key `get` ≡ `contains_key`, on both maps and against the
//!    oracle. (The probe's two key loads are compared slot for slot —
//!    coinciding buckets included, which real geometry never produces —
//!    by `read.rs`'s `probe_agrees_under_plain_and_racy_key_loads`.)
//!
//! Load is kept at ~70% of capacity so no table legitimately reports
//! `TableFull` — any divergence is a write-path bug, not saturation.
//! Case count respects `PROPTEST_CASES` (CI runs 64).

use cuckoo::{CuckooMap, OptimisticBuilder, OptimisticCuckooMap, RandomState};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Upsert(u64, u64),
    Remove(u64),
}

/// Decodes a raw generated tuple into an op: 3:2:2 insert/upsert/remove
/// mix. Keys are confined to 0..96 over 128 slots — dense enough that
/// inserts regularly displace, sparse enough that no table hits
/// `TableFull`.
fn decode_op(&(sel, k, v): &(u64, u64, u64)) -> Op {
    match sel % 7 {
        0..=2 => Op::Insert(k % 96, v),
        3 | 4 => Op::Upsert(k % 96, v),
        _ => Op::Remove(k % 96),
    }
}

proptest! {
    /// An optimistic (cuckoo+ fine-grained) table replays an arbitrary op
    /// trace to the HashMap oracle's membership.
    #[test]
    fn optimistic_membership_matches_oracle(
        raw_ops in collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..400),
        hash_seed in any::<u64>(),
    ) {
        let map: OptimisticCuckooMap<u64, u64, 4, RandomState> =
            OptimisticBuilder::new(128).hasher(RandomState::with_seed(hash_seed)).build();
        let mut oracle: HashMap<u64, u64> = HashMap::new();

        for op in raw_ops.iter().map(decode_op) {
            match op {
                Op::Insert(k, v) => {
                    let r = map.insert(k, v);
                    prop_assert_eq!(
                        r.is_err(),
                        oracle.contains_key(&k),
                        "insert({}) diverged from oracle: {:?}",
                        k, r
                    );
                    oracle.entry(k).or_insert(v);
                }
                Op::Upsert(k, v) => {
                    map.upsert(k, v).unwrap();
                    oracle.insert(k, v);
                }
                Op::Remove(k) => prop_assert_eq!(map.remove(&k), oracle.remove(&k)),
            }
        }

        prop_assert_eq!(map.len(), oracle.len());
        for k in 0..96u64 {
            prop_assert_eq!(map.get(&k), oracle.get(&k).copied(), "membership of key {}", k);
        }
    }

    /// A striped (libcuckoo-style) table: same trace, same property.
    #[test]
    fn striped_membership_matches_oracle(
        raw_ops in collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..400),
    ) {
        let map: CuckooMap<u64, u64, 4> = CuckooMap::with_capacity(128);
        let mut oracle: HashMap<u64, u64> = HashMap::new();

        for op in raw_ops.iter().map(decode_op) {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(map.insert(k, v).is_err(), oracle.contains_key(&k));
                    oracle.entry(k).or_insert(v);
                }
                Op::Upsert(k, v) => {
                    map.upsert(k, v);
                    oracle.insert(k, v);
                }
                Op::Remove(k) => prop_assert_eq!(map.remove(&k), oracle.remove(&k)),
            }
        }

        prop_assert_eq!(map.len(), oracle.len());
        for k in 0..96u64 {
            prop_assert_eq!(map.get(&k), oracle.get(&k).copied());
        }
    }
}

proptest! {
    /// Both read protocols, single-key and grouped, show the same thing
    /// for the same contents. Keys come from a 12-bit domain over a
    /// 1024-slot 4-way table, so buckets routinely hold several keys —
    /// and absent keys routinely tag-collide with a resident stranger in
    /// one of their candidate buckets (~2 % of probes) — while the query
    /// stream repeats keys within a group and runs longer than the
    /// table.
    #[test]
    fn read_protocols_agree_single_key_and_grouped(
        fill in collection::vec(0u64..4096, 0..600),
        queries in collection::vec(0u64..4096, 0..1500),
        hash_seed in any::<u64>(),
    ) {
        let optimistic: OptimisticCuckooMap<u64, u64, 4, RandomState> =
            OptimisticBuilder::new(1024).hasher(RandomState::with_seed(hash_seed)).build();
        let locked: CuckooMap<u64, u64, 4, RandomState> =
            CuckooMap::with_capacity_and_hasher(1024, RandomState::with_seed(hash_seed));
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for &k in &fill {
            let fresh = oracle.insert(k, k ^ 0x5bd1).is_none();
            prop_assert_eq!(optimistic.insert(k, k ^ 0x5bd1).is_ok(), fresh);
            prop_assert_eq!(locked.insert(k, k ^ 0x5bd1).is_ok(), fresh);
        }
        // Every key twice in a row: duplicates land inside one group and
        // across group boundaries.
        let keys: Vec<u64> = queries.iter().flat_map(|&k| [k, k]).collect();

        let mut shown = Vec::with_capacity(keys.len());
        optimistic.visit_many(&keys, |i, v| shown.push((i, v.copied())));
        let mut lent = Vec::with_capacity(keys.len());
        locked.visit_many(&keys, |i, v| lent.push((i, v.copied())));
        prop_assert_eq!(shown.len(), keys.len());
        prop_assert_eq!(&shown, &lent);
        for (i, k) in keys.iter().enumerate() {
            let want = oracle.get(k).copied();
            prop_assert_eq!(shown[i], (i, want), "visit_many, key {}", k);
            prop_assert_eq!(optimistic.get(k), want, "optimistic get({})", k);
            prop_assert_eq!(locked.get(k), want, "locked get({})", k);
            prop_assert_eq!(optimistic.contains_key(k), want.is_some());
            prop_assert_eq!(locked.contains_key(k), want.is_some());
        }
        prop_assert_eq!(locked.get_many(&keys), optimistic.get_many(&keys));
    }
}

/// Deterministic per-thread churn: thread `t` owns keys `t*10_000 + i`.
/// A SplitMix64 stream (seeded per case) decides which owned keys get a
/// remove + reinsert cycle, punching holes other threads' in-flight
/// displacement paths may have counted on — the stale-path retry case.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    /// Concurrent writers with churn: every key a thread owns at the end
    /// is present with its final value, and the surviving membership
    /// equals a sequential fill.
    #[test]
    fn concurrent_churn_agrees_with_bfs_baseline(churn_seed in any::<u64>()) {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 180; // 720 keys in 1024 slots: ~70% load.

        let map: Arc<OptimisticCuckooMap<u64, u64, 8>> =
            Arc::new(OptimisticCuckooMap::with_capacity(1024));

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    let mut rng = churn_seed ^ (t.wrapping_mul(0xa076_1d64_78bd_642f));
                    for i in 0..PER_THREAD {
                        let k = t * 10_000 + i;
                        map.insert(k, k + 1).unwrap();
                        // ~25% of owned keys get removed and reinserted
                        // with a new value mid-fill.
                        if splitmix(&mut rng).is_multiple_of(4) {
                            let victim = t * 10_000 + splitmix(&mut rng) % (i + 1);
                            if map.remove(&victim).is_some() {
                                map.insert(victim, victim + 2).unwrap();
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let baseline: OptimisticCuckooMap<u64, u64, 8> = OptimisticCuckooMap::with_capacity(1024);
        prop_assert_eq!(map.len(), (THREADS * PER_THREAD) as usize);
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let k = t * 10_000 + i;
                let got = map.get(&k);
                prop_assert!(
                    got == Some(k + 1) || got == Some(k + 2),
                    "key {} lost or corrupted: {:?}",
                    k, got
                );
                baseline.insert(k, got.unwrap()).unwrap();
            }
        }
        prop_assert_eq!(baseline.len(), map.len());
    }
}
