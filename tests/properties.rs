//! Property-based tests (proptest) over the core invariants.

use cuckoo_repro::baselines::analysis::{p_invalid_exact, p_invalid_max};
use cuckoo_repro::cuckoo::hash::{alt_index, key_slots, tag_of};
use cuckoo_repro::cuckoo::hash::RandomState;
use cuckoo_repro::cuckoo::raw::RawTable;
use cuckoo_repro::cuckoo::search::bfs::{bfs_max_path_len, search as bfs_search};
use cuckoo_repro::cuckoo::search::SearchScratch;
use cuckoo_repro::cuckoo::{CuckooMap, OptimisticCuckooMap};
use cuckoo_repro::htm::HtmDomain;
use proptest::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

proptest! {
    /// alt_index is an involution for any power-of-two table >= 256.
    #[test]
    fn alt_index_involution(index in 0usize..(1 << 20), tag in 1u8..=255, shift in 8u32..=20) {
        let mask = (1usize << shift) - 1;
        let i = index & mask;
        let a = alt_index(i, tag, mask);
        prop_assert_eq!(alt_index(a, tag, mask), i);
        prop_assert_ne!(a, i, "candidates must differ (tag {}, mask {:#x})", tag, mask);
    }

    /// Tags extracted from any hash are non-zero.
    #[test]
    fn tags_never_zero(h in any::<u64>()) {
        prop_assert_ne!(tag_of(h), 0);
    }

    /// key_slots' two buckets are mutually reachable for any key.
    #[test]
    fn key_slots_reachable(key in any::<u64>(), seed in any::<u64>()) {
        let s = RandomState::with_seed(seed);
        let mask = (1usize << 12) - 1;
        let ks = key_slots(&s, &key, mask);
        prop_assert_eq!(alt_index(ks.i1, ks.tag, mask), ks.i2);
    }

    /// A sequential fill + random removals leaves exactly the expected
    /// contents (single-threaded model check of the optimistic table).
    #[test]
    fn optimistic_model_check(ops in proptest::collection::vec((any::<u16>(), any::<bool>()), 1..400)) {
        let m: OptimisticCuckooMap<u64, u64, 4> = OptimisticCuckooMap::with_capacity(4096);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (k, insert) in ops {
            let k = k as u64;
            if insert {
                let r = m.insert(k, k * 2);
                match model.entry(k) {
                    Entry::Occupied(_) => prop_assert!(r.is_err()),
                    Entry::Vacant(e) => {
                        if r.is_ok() {
                            e.insert(k * 2);
                        }
                    }
                }
            } else {
                let removed = m.remove(&k);
                prop_assert_eq!(removed.is_some(), model.remove(&k).is_some());
            }
        }
        prop_assert_eq!(m.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(m.get(k), Some(*v));
        }
    }

    /// Same model check for the general (resizing) map with string keys.
    #[test]
    fn general_map_model_check(ops in proptest::collection::vec((0u16..512, any::<bool>()), 1..300)) {
        let m: CuckooMap<String, u32, 4> = CuckooMap::with_capacity(0);
        let mut model: HashMap<String, u32> = HashMap::new();
        for (k, insert) in ops {
            let key = format!("k{k}");
            if insert {
                let r = m.insert(key.clone(), k as u32);
                match model.entry(key) {
                    Entry::Occupied(_) => prop_assert!(r.is_err()),
                    Entry::Vacant(e) => {
                        prop_assert!(r.is_ok());
                        e.insert(k as u32);
                    }
                }
            } else {
                prop_assert_eq!(m.remove(&key).is_some(), model.remove(&key).is_some());
            }
        }
        prop_assert_eq!(m.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(m.get(k), Some(*v));
        }
    }

    /// SWAR tag matching agrees with a naive per-slot scan for arbitrary
    /// tag contents (including the 0x00/0x01/0x80/0xff corner bytes that
    /// break borrow-based zero detectors).
    #[test]
    fn swar_matches_naive(tags in proptest::collection::vec(any::<u8>(), 8), probe in any::<u8>()) {
        use cuckoo_repro::cuckoo::bucket::BucketMeta;
        let m: BucketMeta<8> = BucketMeta::new();
        for (s, &t) in tags.iter().enumerate() {
            m.set_partial(s, t);
        }
        let naive: u16 = (0..8)
            .filter(|&s| tags[s] == probe)
            .fold(0, |acc, s| acc | (1 << s));
        prop_assert_eq!(m.match_tag_mask(probe), naive);
    }

    /// Eq. 2: real BFS paths never exceed the closed-form bound, at any
    /// occupancy pattern.
    #[test]
    fn bfs_respects_eq2_bound(seed in any::<u64>(), load_pct in 50usize..96) {
        let raw: RawTable<u64, u64, 4> = RawTable::with_capacity(1 << 10);
        let total = raw.total_slots() * load_pct / 100;
        let mut x = seed | 1;
        let mut placed = 0;
        for round in 0..raw.n_buckets() * 64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(round as u64);
            let bi = (x >> 32) as usize & raw.mask();
            let tag = ((x >> 24) as u8).max(1);
            if let Some(s) = raw.meta(bi).empty_slot() {
                // SAFETY: single-threaded test.
                unsafe { raw.write_entry(bi, s, tag, 0, 0) };
                placed += 1;
                if placed >= total { break; }
            }
        }
        let bound = bfs_max_path_len(4, 2000);
        let mut scratch = SearchScratch::default();
        for i in (0..raw.n_buckets()).step_by(97) {
            let tag = ((i as u8) | 1).max(1);
            if bfs_search(&raw, i, raw.alt_index(i, tag), 2000, false, &mut scratch).is_ok() {
                prop_assert!(scratch.path.len() <= bound + 1,
                    "path len {} exceeds bound {}", scratch.path.len(), bound);
            }
        }
    }

    /// Eq. 1's approximation stays within 10% of the exact product form
    /// and within [0, 1].
    #[test]
    fn eq1_approximation_quality(
        n in 10_000u64..10_000_000,
        l in 1u64..300,
        t in 1u64..32,
    ) {
        prop_assume!(l * 2 < n / 10);
        let approx = p_invalid_max(n, l, t);
        let exact = p_invalid_exact(n, l, t);
        prop_assert!((0.0..=1.0).contains(&approx));
        prop_assert!((0.0..=1.0).contains(&exact));
        if exact > 1e-9 {
            prop_assert!((approx - exact).abs() / exact < 0.10,
                "approx {approx} vs exact {exact}");
        }
    }

    /// STM serializability: random transactional transfers between
    /// accounts conserve the total balance.
    #[test]
    fn stm_transfers_conserve_total(transfers in proptest::collection::vec((0usize..8, 0usize..8, 1u64..50), 1..60)) {
        let domain = HtmDomain::new();
        let mut accounts = [1000u64; 8];
        let base = accounts.as_mut_ptr();
        for (from, to, amount) in transfers {
            if from == to {
                continue; // self-transfer: modeled as a no-op
            }
            let _ = domain.execute(|tx| {
                // SAFETY: indices < 8; the array outlives the transaction.
                unsafe {
                    let f = tx.read(base.add(from))?;
                    if f >= amount {
                        let t = tx.read(base.add(to))?;
                        tx.write(base.add(from), f - amount)?;
                        tx.write(base.add(to), t + amount)?;
                    }
                }
                Ok(())
            });
        }
        prop_assert_eq!(accounts.iter().sum::<u64>(), 8000);
    }
}

/// Concurrent STM bank: the classic serializability smoke test, outside
/// proptest so it can use real threads.
#[test]
fn stm_concurrent_bank_conserves_total() {
    use cuckoo_repro::workload::keygen::SplitMix64;
    let domain = HtmDomain::new();
    const ACCOUNTS: usize = 16;
    let mut accounts = [1_000u64; ACCOUNTS];
    let base = SendPtr(accounts.as_mut_ptr());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let domain = &domain;
            s.spawn(move || {
                let base = base;
                let mut rng = SplitMix64::new(t + 1);
                let mut committed = 0u32;
                while committed < 2_000 {
                    let from = rng.below(ACCOUNTS as u64) as usize;
                    let to = rng.below(ACCOUNTS as u64) as usize;
                    if from == to {
                        continue;
                    }
                    let amount = rng.below(10) + 1;
                    let r = domain.execute(|tx| {
                        // SAFETY: indices in bounds; array outlives scope;
                        // all access transactional.
                        unsafe {
                            let f = tx.read(base.0.add(from))?;
                            if f >= amount {
                                let tv = tx.read(base.0.add(to))?;
                                tx.write(base.0.add(from), f - amount)?;
                                tx.write(base.0.add(to), tv + amount)?;
                            }
                        }
                        Ok(())
                    });
                    if r.is_ok() {
                        committed += 1;
                    }
                }
            });
        }
    });
    assert_eq!(accounts.iter().sum::<u64>(), (ACCOUNTS as u64) * 1_000);
}

#[derive(Clone, Copy)]
struct SendPtr(*mut u64);
// SAFETY: test-only; pointee outlives the scope, access is transactional.
unsafe impl Send for SendPtr {}
