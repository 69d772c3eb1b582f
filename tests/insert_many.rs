//! Property-based equivalence: `insert_many` ≡ N independent `insert`s.
//!
//! The batched write engine takes a different code path (hash-all +
//! prefetch, stripe-sorted batch locking, SIMD probe, per-key
//! fallback on path search / migration / duplicates) but must be
//! observationally identical to looping the single-key write: same
//! per-entry results in request order — for duplicates within a
//! batch, ragged tails, batches longer than the table, and writes
//! racing a live expansion.

use cuckoo_repro::cuckoo::{
    CuckooMap, InsertError, OptimisticBuilder, OptimisticCuckooMap, RandomState, UpsertOutcome,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The default hasher seeds every table differently (deliberately), so
/// a differential test comparing two *maps* must pin one hash function:
/// near saturation, `TableFull` outcomes depend on key→bucket geometry,
/// not just on the key set.
const HASH_SEED: u64 = 0xd1f_f00d;

fn opt_map<const B: usize>(capacity: usize) -> OptimisticCuckooMap<u64, u64, B, RandomState> {
    OptimisticBuilder::new(capacity).hasher(RandomState::with_seed(HASH_SEED)).build()
}

fn gen_map(capacity: usize) -> CuckooMap<u64, u64, 8, RandomState> {
    CuckooMap::with_capacity_and_hasher(capacity, RandomState::with_seed(HASH_SEED))
}

/// The write surface the differential body needs. The batch calls have
/// one signature on both maps; only the single-key `upsert` differs
/// (`CuckooMap`'s is infallible — it expands instead of filling up).
trait Writes {
    fn insert(&self, k: u64, v: u64) -> Result<(), InsertError>;
    fn upsert(&self, k: u64, v: u64) -> Result<UpsertOutcome, InsertError>;
    fn insert_many(&self, e: &[(u64, u64)]) -> Vec<Result<(), InsertError>>;
    fn upsert_many(&self, e: &[(u64, u64)]) -> Vec<Result<UpsertOutcome, InsertError>>;
    fn get(&self, k: &u64) -> Option<u64>;
    fn len(&self) -> usize;
}

macro_rules! impl_writes {
    ($map:ty, $upsert:expr) => {
        impl Writes for $map {
            fn insert(&self, k: u64, v: u64) -> Result<(), InsertError> {
                <$map>::insert(self, k, v)
            }
            fn upsert(&self, k: u64, v: u64) -> Result<UpsertOutcome, InsertError> {
                $upsert(<$map>::upsert(self, k, v))
            }
            fn insert_many(&self, e: &[(u64, u64)]) -> Vec<Result<(), InsertError>> {
                <$map>::insert_many(self, e.iter().copied())
            }
            fn upsert_many(&self, e: &[(u64, u64)]) -> Vec<Result<UpsertOutcome, InsertError>> {
                <$map>::upsert_many(self, e.iter().copied())
            }
            fn get(&self, k: &u64) -> Option<u64> {
                <$map>::get(self, k)
            }
            fn len(&self) -> usize {
                <$map>::len(self)
            }
        }
    };
}
impl_writes!(OptimisticCuckooMap<u64, u64, 8, RandomState>, core::convert::identity);
impl_writes!(CuckooMap<u64, u64, 8, RandomState>, Ok);

/// A trace of batches, each an insert (`false`) or an upsert (`true`).
/// Keys come from a small domain so duplicates — within a batch and
/// across batches — are common.
fn trace() -> impl Strategy<Value = Vec<(bool, Vec<(u16, u64)>)>> {
    proptest::collection::vec(
        (any::<bool>(), proptest::collection::vec((0u16..300, any::<u64>()), 0..40)),
        1..8,
    )
}

/// Arbitrary interleavings of batched inserts and upserts produce the
/// same per-entry results, in request order, and the same final contents
/// as a single-key-only replay on an identically-hashed map — including
/// Inserted/Updated outcomes for duplicate keys within one batch (the
/// earlier entry inserts, later entries update or are rejected).
fn check_write_many_equals_loop<M: Writes>(
    batched: M,
    looped: M,
    ops: &[(bool, Vec<(u16, u64)>)],
) -> Result<(), TestCaseError> {
    for (upsert, batch) in ops {
        let entries: Vec<(u64, u64)> = batch.iter().map(|&(k, v)| (k as u64, v)).collect();
        if *upsert {
            let want: Vec<_> = entries.iter().map(|&(k, v)| looped.upsert(k, v)).collect();
            prop_assert_eq!(batched.upsert_many(&entries), want, "upsert {:?}", entries);
        } else {
            let want: Vec<_> = entries.iter().map(|&(k, v)| looped.insert(k, v)).collect();
            prop_assert_eq!(batched.insert_many(&entries), want, "insert {:?}", entries);
        }
    }
    prop_assert_eq!(batched.len(), looped.len());
    for &(k, _) in ops.iter().flat_map(|(_, batch)| batch) {
        prop_assert_eq!(batched.get(&(k as u64)), looped.get(&(k as u64)), "key {}", k);
    }
    Ok(())
}

proptest! {
    /// Optimistic map (which can report `TableFull`).
    #[test]
    fn optimistic_write_many_equals_loop(ops in trace()) {
        check_write_many_equals_loop(opt_map::<8>(2048), opt_map::<8>(2048), &ops)?;
    }

    /// General map: the locked single-key path never observes
    /// `TableFull` — it expands instead — and neither may the batch.
    #[test]
    fn cuckoo_map_write_many_equals_loop(ops in trace()) {
        check_write_many_equals_loop(gen_map(2048), gen_map(2048), &ops)?;
    }
}

/// One batch far longer than the table's capacity walks every
/// group-boundary case — full groups, the ragged tail, duplicate-heavy
/// groups — and must degrade exactly like the loop: `KeyExists` for
/// duplicates, `TableFull` once the small optimistic table saturates.
#[test]
fn batch_longer_than_table() {
    let batched = opt_map::<4>(64);
    let looped = opt_map::<4>(64);
    let capacity = batched.capacity() as u64;
    // 4x the table size, cycling fresh keys and duplicates.
    let entries: Vec<(u64, u64)> = (0..capacity * 4)
        .map(|i| match i % 3 {
            0 => (i / 3, i + 100),  // mostly-fresh ascending keys
            1 => (0, i + 200),      // duplicate of the first key
            _ => (i / 3 + 7, i + 300),
        })
        .collect();
    let got = batched.insert_many(entries.iter().copied());
    let want: Vec<Result<(), InsertError>> =
        entries.iter().map(|&(k, v)| looped.insert(k, v)).collect();
    assert_eq!(got, want);
    assert!(
        want.iter().any(|r| matches!(r, Err(InsertError::TableFull))),
        "trace was meant to saturate the table"
    );
    assert_eq!(batched.len(), looped.len());
    for &(k, _) in &entries {
        assert_eq!(batched.get(&k), looped.get(&k), "key {k}");
    }
}

/// Batched writes racing a migration: a writer thread drives the whole
/// key space through `insert_many` while the general map expands
/// underneath it (capacity overflow triggers expansion; a helper thread
/// keeps migration moving). Every entry must land exactly once.
#[test]
fn insert_many_lands_all_keys_across_live_expansion() {
    let m: CuckooMap<u64, u64, 8> = CuckooMap::with_capacity(1 << 10);
    let n = m.capacity() as u64; // > capacity * fill threshold → expands
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let (m_ref, stop_ref) = (&m, &stop);
        let helper = s.spawn(move || {
            while !stop_ref.load(std::sync::atomic::Ordering::Acquire) {
                while m_ref.help_migrate(usize::MAX) {}
                std::hint::spin_loop();
            }
        });
        for chunk_start in (0..n).step_by(37) {
            let entries: Vec<(u64, u64)> = (chunk_start..(chunk_start + 37).min(n))
                .map(|k| (k, k * 7 + 5))
                .collect();
            for r in m.insert_many(entries) {
                r.unwrap();
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        helper.join().unwrap();
    });
    assert_eq!(m.len() as u64, n);
    let keys: Vec<u64> = (0..n).collect();
    for (k, v) in keys.iter().zip(m.get_many(&keys)) {
        assert_eq!(v, Some(k * 7 + 5), "key {k} lost");
    }
}
