//! Eviction-policy equivalence properties.
//!
//! The [`cuckoo::EvictionPolicy`] knob changes *how* the insert slow
//! path hunts for an empty slot — never *what* the table contains. These
//! generative tests drive random workloads through one table per policy
//! and demand the final membership match the BFS baseline exactly:
//!
//! 1. **Sequential**: an arbitrary insert/upsert/remove trace produces
//!    identical key→value membership under every policy, on both
//!    [`OptimisticCuckooMap`] (cuckoo+ fine-grained) and [`CuckooMap`]
//!    (libcuckoo-style), checked against a `HashMap` oracle.
//! 2. **Concurrent**: multiple writer threads hammering one table with
//!    thread-owned keys (plus churn that punches holes and forces
//!    re-planning of displacement paths that went stale mid-execution)
//!    lose nothing under the walk policies, and end with the same
//!    membership a sequential BFS fill of the surviving keys produces.
//!
//! 3. **Read protocols**: the optimistic (seqlock) and locked-pair read
//!    protocols run one probe, so on the same contents `visit_many` ≡
//!    per-key `get` ≡ `contains_key`, on both maps and against the
//!    oracle. (The probe's two key loads are compared slot for slot —
//!    coinciding buckets included, which real geometry never produces —
//!    by `read.rs`'s `probe_agrees_under_plain_and_racy_key_loads`.)
//!
//! Load is kept at ~70% of capacity so no policy legitimately reports
//! `TableFull` — any divergence is a policy bug, not saturation skew.
//! Case count respects `PROPTEST_CASES` (CI runs 64).

use cuckoo::{CuckooMap, EvictionPolicy, OptimisticBuilder, OptimisticCuckooMap, RandomState};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Every policy under test, BFS baseline first. Small `max_kicks` /
/// `bfs_slots` values are deliberately included: an exhausted walk that
/// falls back or gives up must still never corrupt membership.
fn policies() -> Vec<EvictionPolicy> {
    vec![
        EvictionPolicy::Bfs,
        EvictionPolicy::RandomWalk { max_kicks: 64 },
        EvictionPolicy::RandomWalk { max_kicks: 500 },
        EvictionPolicy::Hybrid { bfs_slots: 64, max_kicks: 500 },
    ]
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Upsert(u64, u64),
    Remove(u64),
}

/// Decodes a raw generated tuple into an op: 3:2:2 insert/upsert/remove
/// mix. Keys are confined to 0..96 over 128 slots — dense enough that
/// inserts regularly displace, sparse enough that no policy hits
/// `TableFull`.
fn decode_op(&(sel, k, v): &(u64, u64, u64)) -> Op {
    match sel % 7 {
        0..=2 => Op::Insert(k % 96, v),
        3 | 4 => Op::Upsert(k % 96, v),
        _ => Op::Remove(k % 96),
    }
}

proptest! {
    /// Optimistic (cuckoo+ fine-grained) tables: every policy replays an
    /// arbitrary op trace to the same membership as the HashMap oracle —
    /// and therefore as the BFS baseline.
    #[test]
    fn optimistic_membership_matches_bfs_baseline(
        raw_ops in collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..400),
        hash_seed in any::<u64>(),
    ) {
        let ops: Vec<Op> = raw_ops.iter().map(decode_op).collect();
        let maps: Vec<OptimisticCuckooMap<u64, u64, 4, RandomState>> = policies()
            .into_iter()
            .map(|p| {
                OptimisticBuilder::new(128)
                    .hasher(RandomState::with_seed(hash_seed))
                    .eviction(p)
                    .build()
            })
            .collect();
        let mut oracle: HashMap<u64, u64> = HashMap::new();

        for op in &ops {
            for map in &maps {
                match *op {
                    Op::Insert(k, v) => {
                        let r = map.insert(k, v);
                        let expect_exists = oracle.contains_key(&k);
                        prop_assert_eq!(
                            r.is_err(),
                            expect_exists,
                            "insert({}) on {:?} diverged from oracle: {:?}",
                            k, map.eviction(), r
                        );
                    }
                    Op::Upsert(k, v) => { map.upsert(k, v).unwrap(); }
                    Op::Remove(k) => {
                        prop_assert_eq!(map.remove(&k), oracle.get(&k).copied());
                    }
                }
            }
            match *op {
                Op::Insert(k, v) => { oracle.entry(k).or_insert(v); }
                Op::Upsert(k, v) => { oracle.insert(k, v); }
                Op::Remove(k) => { oracle.remove(&k); }
            }
        }

        for map in &maps {
            prop_assert_eq!(map.len(), oracle.len(), "len under {:?}", map.eviction());
            for k in 0..96u64 {
                prop_assert_eq!(
                    map.get(&k),
                    oracle.get(&k).copied(),
                    "membership of key {} under {:?}",
                    k, map.eviction()
                );
            }
        }
    }

    /// Striped (libcuckoo-style) tables: same trace, same property. Each
    /// table draws its own hasher here — membership must not depend on
    /// geometry either.
    #[test]
    fn striped_membership_matches_bfs_baseline(
        raw_ops in collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..400),
    ) {
        let ops: Vec<Op> = raw_ops.iter().map(decode_op).collect();
        let maps: Vec<CuckooMap<u64, u64, 4>> = policies()
            .into_iter()
            .map(|p| CuckooMap::with_capacity_and_eviction(128, p))
            .collect();
        let mut oracle: HashMap<u64, u64> = HashMap::new();

        for op in &ops {
            for map in &maps {
                match *op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(map.insert(k, v).is_err(), oracle.contains_key(&k));
                    }
                    Op::Upsert(k, v) => { map.upsert(k, v); }
                    Op::Remove(k) => {
                        prop_assert_eq!(map.remove(&k), oracle.get(&k).copied());
                    }
                }
            }
            match *op {
                Op::Insert(k, v) => { oracle.entry(k).or_insert(v); }
                Op::Upsert(k, v) => { oracle.insert(k, v); }
                Op::Remove(k) => { oracle.remove(&k); }
            }
        }

        for map in &maps {
            prop_assert_eq!(map.len(), oracle.len(), "len under {:?}", map.eviction());
            for k in 0..96u64 {
                prop_assert_eq!(map.get(&k), oracle.get(&k).copied());
            }
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
    /// Concurrent writers with churn on the walk policies: every key a
    /// thread owns at the end is present with its final value, and the
    /// surviving membership equals a sequential BFS-baseline fill.
    #[test]
    fn concurrent_churn_agrees_with_bfs_baseline(churn_seed in any::<u64>()) {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 180; // 720 keys in 1024 slots: ~70% load.

        for policy in [
            EvictionPolicy::RandomWalk { max_kicks: 500 },
            EvictionPolicy::Hybrid { bfs_slots: 128, max_kicks: 500 },
        ] {
            let map: Arc<OptimisticCuckooMap<u64, u64, 8>> =
                Arc::new(OptimisticBuilder::new(1024).eviction(policy).build());

            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let map = Arc::clone(&map);
                    std::thread::spawn(move || {
                        let mut rng = churn_seed ^ (t.wrapping_mul(0xa076_1d64_78bd_642f));
                        for i in 0..PER_THREAD {
                            let k = t * 10_000 + i;
                            map.insert(k, k + 1).unwrap();
                            // ~25% of owned keys get removed and
                            // reinserted with a new value mid-fill.
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

            let baseline: OptimisticCuckooMap<u64, u64, 8> =
                OptimisticBuilder::new(1024).build();
            prop_assert_eq!(map.len(), (THREADS * PER_THREAD) as usize);
            for t in 0..THREADS {
                for i in 0..PER_THREAD {
                    let k = t * 10_000 + i;
                    let got = map.get(&k);
                    prop_assert!(
                        got == Some(k + 1) || got == Some(k + 2),
                        "key {} lost or corrupted under {:?}: {:?}",
                        k, policy, got
                    );
                    baseline.insert(k, got.unwrap()).unwrap();
                }
            }
            prop_assert_eq!(baseline.len(), map.len());
        }
    }
}
