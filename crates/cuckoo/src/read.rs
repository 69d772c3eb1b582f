//! Lock-free optimistic reads (paper §4.2).
//!
//! Readers take no locks and dirty no cache lines: they stamp the version
//! counters of both candidate buckets' stripes, scan the buckets with
//! racy-but-race-free copies, and re-validate the stamps. Any concurrent
//! writer — fine-grained locker (odd version while held), global-lock
//! holder, or committing transaction (seqlock bumps around publication) —
//! moves a stamp and sends the reader around again. Because writers move
//! *holes* backwards rather than items forwards (§4.2), a present key is
//! never missing mid-displacement; at worst it is momentarily duplicated,
//! which a reader resolves to either copy (both carry the same value).
//!
//! Retries are **bounded**: under a writer storm (a stripe whose version
//! never stops moving) the optimistic loop abandons after
//! [`MAX_OPTIMISTIC_RETRIES`] attempts and takes the stripe pair locks,
//! which guarantees one consistent scan in bounded time instead of
//! retrying forever. The model checker surfaced the unbounded loop: a
//! schedule that always interleaves a version bump between `read_begin`
//! and `read_validate` starves the reader permanently.

use crate::core::MULTIGET_GROUP;
use crate::hash::KeySlots;
use crate::raw::RawTable;
use crate::stats::TableMetrics;
use crate::sync::{LockStripes, ReadStamp};
use htm::Plain;

/// Optimistic validation attempts before falling back to the locked
/// path. Failed validations are rare (a writer touched one of the two
/// stripes mid-scan), and consecutive failures rarer still; 64 failures
/// means sustained writer pressure on this stripe pair, at which point
/// queueing on the lock is both faster and fair.
const MAX_OPTIMISTIC_RETRIES: u32 = 64;

/// Probes one bucket's candidate slots (a SWAR tag-match mask) for
/// `key`, returning the racy value copy on a full-key match.
///
/// # Safety contract (internal)
///
/// The mask must come from `meta(bucket_idx)` (so every set bit is
/// `< B`); the copies may be torn and the caller discards them unless
/// its stripe stamps validate or it holds the pair lock.
#[inline]
fn probe_mask<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    bucket_idx: usize,
    mut cand: u16,
    key: &K,
) -> Option<V>
where
    K: Plain + Eq,
    V: Plain,
{
    while cand != 0 {
        let slot = cand.trailing_zeros() as usize;
        cand &= cand - 1;
        // SAFETY: `slot < B` (from the B-bit candidate mask); the
        // copy may be torn, and the caller discards it unless the
        // stamps validate / the pair lock was held (seqlock ordering
        // argument: DESIGN.md §5d).
        let k = unsafe { raw.read_key_racy(bucket_idx, slot) };
        if k == *key {
            // SAFETY: as above.
            return Some(unsafe { raw.read_val_racy(bucket_idx, slot) });
        }
    }
    None
}

/// Scans both candidate buckets for `key`, returning the value copy.
///
/// The copies are racy; the caller makes them trustworthy either by
/// validating stripe stamps around the call (optimistic path) or by
/// holding the stripe pair locks across it (fallback path).
fn scan_value<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    ks: KeySlots,
    key: &K,
) -> Option<V>
where
    K: Plain + Eq,
    V: Plain,
{
    let m1 = raw.meta(ks.i1);
    // SWAR: all candidate slots (tag match AND occupied) in two loads.
    let cand1 = m1.match_tag_mask(ks.tag) & m1.occupied_mask();
    if ks.i2 == ks.i1 {
        return probe_mask(raw, ks.i1, cand1, key);
    }
    if cand1 == 0 {
        // Tag miss in the primary: the lookup is headed for the
        // alternate bucket, so start pulling its entry storage now —
        // the data-line fetch overlaps the alternate metadata check
        // that decides whether to probe it.
        raw.prefetch_data(ks.i2);
    }
    if let Some(v) = probe_mask(raw, ks.i1, cand1, key) {
        return Some(v);
    }
    let m2 = raw.meta(ks.i2);
    let cand2 = m2.match_tag_mask(ks.tag) & m2.occupied_mask();
    probe_mask(raw, ks.i2, cand2, key)
}

/// Presence-only variant of [`scan_value`] (no value copy).
fn scan_present<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    ks: KeySlots,
    key: &K,
) -> bool
where
    K: Plain + Eq,
{
    for bucket_idx in [ks.i1, ks.i2] {
        let m = raw.meta(bucket_idx);
        let mut cand = m.match_tag_mask(ks.tag) & m.occupied_mask();
        while cand != 0 {
            let slot = cand.trailing_zeros() as usize;
            cand &= cand - 1;
            // SAFETY: `slot < B`; racy copy, validated or locked by the
            // caller as in [`scan_value`].
            if unsafe { raw.read_key_racy(bucket_idx, slot) } == *key {
                return true;
            }
        }
        if ks.i2 == ks.i1 {
            break;
        }
    }
    false
}

/// Optimistically reads `key`'s value, falling back to the stripe locks
/// after [`MAX_OPTIMISTIC_RETRIES`] failed validations.
pub(crate) fn get<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    m: &TableMetrics,
    ks: KeySlots,
    key: &K,
) -> Option<V>
where
    K: Plain + Eq,
    V: Plain,
{
    let mut spins = 0u32;
    for _ in 0..MAX_OPTIMISTIC_RETRIES {
        if let Some(result) = try_get(raw, stripes, ks, key) {
            return result;
        }
        // A failed validation means a writer holds (or bumped) a stripe;
        // hammering the version counters only slows that writer down.
        // (Metrics are bumped only here on the failure path — a
        // first-attempt success never touches a shared counter line.)
        m.read_retries.inc();
        crate::sync::backoff(&mut spins);
    }
    // Writer storm on this stripe pair: take the locks. Writers mutating
    // these buckets hold the same pair, so the scan below is consistent
    // and the racy copies cannot tear.
    m.read_lock_fallbacks.inc();
    let _g = stripes.lock_pair(ks.i1, ks.i2);
    scan_value(raw, ks, key)
}

/// Per-key state the batched pipeline carries from the stamping stage to
/// the probing stage.
#[derive(Clone, Copy)]
struct Staged {
    st1: ReadStamp,
    st2: ReadStamp,
    same_stripe: bool,
    cand1: u16,
    cand2: u16,
}

/// Stage-2 hint for one bucket of a batched lookup: when its tag probe
/// reported candidates, the key array and each candidate slot's value
/// storage — everything stage 3's compare and copy-out will touch.
#[inline]
fn prefetch_candidates<K, V, const B: usize>(raw: &RawTable<K, V, B>, bucket_idx: usize, mut cand: u16) {
    if cand != 0 {
        raw.prefetch_data(bucket_idx);
    }
    while cand != 0 {
        raw.prefetch_val(bucket_idx, cand.trailing_zeros() as usize);
        cand &= cand - 1;
    }
}

/// Software-pipelined batched lookup over one group of at most
/// [`MULTIGET_GROUP`] keys (`ks`, `keys`, and `out` are parallel).
///
/// The stages interleave *across* keys so each key's cache misses
/// overlap the others':
///
/// 1. **prefetch metadata** — both candidate `BucketMeta` words for
///    every key are requested before any is read;
/// 2. **stamp + tag-match + prefetch data** — per key: stamp the stripe
///    versions, SWAR-probe the (now warm) metadata, and prefetch the key
///    array of buckets reporting a candidate and every line of each
///    candidate slot's value;
/// 3. **probe + validate** — per key: full-key compare the candidates
///    and copy the value out (key and value lines now warm), then
///    validate the stamps. Stamp movement
///    means a writer touched the pair mid-pipeline; that key alone
///    falls back to the single-key path (bounded retries, then locks).
///
/// Correctness is the single-key argument unchanged: the candidate
/// masks read in stage 2 and the entries probed in stage 3 are all
/// loads between `read_begin` and `read_validate` on the same stamps,
/// so a passing validation proves none of it was concurrently written.
/// Prefetches are hints and carry no ordering obligations.
pub(crate) fn get_group<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    m: &TableMetrics,
    ks: &[KeySlots],
    keys: &[K],
    out: &mut [Option<V>],
) where
    K: Plain + Eq,
    V: Plain,
{
    debug_assert!(keys.len() <= MULTIGET_GROUP);
    debug_assert!(ks.len() == keys.len() && out.len() == keys.len());
    // Stage 1: issue every key's metadata prefetches back-to-back.
    for k in ks {
        raw.prefetch_meta(k.i1);
        raw.prefetch_meta(k.i2);
    }
    // Stage 2: stamp stripes, SWAR-match tags, prefetch hit buckets.
    let mut staged = [Staged {
        st1: ReadStamp::default(),
        st2: ReadStamp::default(),
        same_stripe: true,
        cand1: 0,
        cand2: 0,
    }; MULTIGET_GROUP];
    for (j, k) in ks.iter().enumerate() {
        let s1 = stripes.stripe(k.i1);
        let s2 = stripes.stripe(k.i2);
        let same_stripe = stripes.stripe_of(k.i1) == stripes.stripe_of(k.i2);
        let st1 = s1.read_begin();
        let st2 = if same_stripe { st1 } else { s2.read_begin() };
        let m1 = raw.meta(k.i1);
        let cand1 = m1.match_tag_mask(k.tag) & m1.occupied_mask();
        let cand2 = if k.i2 == k.i1 {
            0
        } else {
            let m2 = raw.meta(k.i2);
            m2.match_tag_mask(k.tag) & m2.occupied_mask()
        };
        prefetch_candidates(raw, k.i1, cand1);
        prefetch_candidates(raw, k.i2, cand2);
        staged[j] = Staged { st1, st2, same_stripe, cand1, cand2 };
    }
    // Stage 3: full-key probes under the captured stamps.
    for (j, k) in ks.iter().enumerate() {
        let st = staged[j];
        let key = &keys[j];
        let found = match probe_mask(raw, k.i1, st.cand1, key) {
            Some(v) => Some(v),
            None => probe_mask(raw, k.i2, st.cand2, key),
        };
        let valid = stripes.stripe(k.i1).read_validate(st.st1)
            && (st.same_stripe || stripes.stripe(k.i2).read_validate(st.st2));
        out[j] = if valid {
            found
        } else {
            // A writer moved one of this key's stripes mid-pipeline;
            // only this key pays for the slow path.
            m.multiget_fallbacks.inc();
            get(raw, stripes, m, *k, key)
        };
    }
}

/// One validated attempt; `None` means a writer interfered — retry.
fn try_get<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    ks: KeySlots,
    key: &K,
) -> Option<Option<V>>
where
    K: Plain + Eq,
    V: Plain,
{
    let s1 = stripes.stripe(ks.i1);
    let s2 = stripes.stripe(ks.i2);
    let same_stripe = stripes.stripe_of(ks.i1) == stripes.stripe_of(ks.i2);

    let st1 = s1.read_begin();
    let st2 = if same_stripe { st1 } else { s2.read_begin() };

    let found = scan_value(raw, ks, key);

    let valid = s1.read_validate(st1) && (same_stripe || s2.read_validate(st2));
    if valid {
        Some(found)
    } else {
        None
    }
}

/// Optimistically checks for `key`'s presence (a value-copy-free `get`),
/// with the same bounded-retry locked fallback as [`get`].
pub(crate) fn contains<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    m: &TableMetrics,
    ks: KeySlots,
    key: &K,
) -> bool
where
    K: Plain + Eq,
{
    let mut spins = 0u32;
    for _ in 0..MAX_OPTIMISTIC_RETRIES {
        let s1 = stripes.stripe(ks.i1);
        let s2 = stripes.stripe(ks.i2);
        let same_stripe = stripes.stripe_of(ks.i1) == stripes.stripe_of(ks.i2);
        let st1 = s1.read_begin();
        let st2 = if same_stripe { st1 } else { s2.read_begin() };

        let found = scan_present(raw, ks, key);

        if s1.read_validate(st1) && (same_stripe || s2.read_validate(st2)) {
            return found;
        }
        m.read_retries.inc();
        crate::sync::backoff(&mut spins);
    }
    m.read_lock_fallbacks.inc();
    let _g = stripes.lock_pair(ks.i1, ks.i2);
    scan_present(raw, ks, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{key_slots, RandomState};

    #[test]
    fn get_and_contains_roundtrip() {
        let raw: RawTable<u64, u64, 8> = RawTable::with_capacity(1 << 12);
        let stripes = LockStripes::new(64);
        let hb = RandomState::with_seed(3);
        let tm = TableMetrics::new();
        for key in 0..500u64 {
            let ks = key_slots(&hb, &key, raw.mask());
            // Place directly via a locked-writer protocol.
            let g = stripes.lock_pair(ks.i1, ks.i2);
            let slot = raw.meta(ks.i1).empty_slot().expect("low occupancy");
            // SAFETY: pair lock held.
            unsafe { raw.write_entry_racy(ks.i1, slot, ks.tag, key, key * 3) };
            drop(g);
        }
        for key in 0..500u64 {
            let ks = key_slots(&hb, &key, raw.mask());
            assert_eq!(get(&raw, &stripes, &tm, ks, &key), Some(key * 3));
            assert!(contains(&raw, &stripes, &tm, ks, &key));
        }
        for key in 500..600u64 {
            let ks = key_slots(&hb, &key, raw.mask());
            assert_eq!(get(&raw, &stripes, &tm, ks, &key), None);
            assert!(!contains(&raw, &stripes, &tm, ks, &key));
        }
    }

    #[test]
    fn get_group_matches_single_gets() {
        let raw: RawTable<u64, u64, 8> = RawTable::with_capacity(1 << 12);
        let stripes = LockStripes::new(64);
        let hb = RandomState::with_seed(21);
        let tm = TableMetrics::new();
        for key in 0..400u64 {
            let ks = key_slots(&hb, &key, raw.mask());
            let g = stripes.lock_pair(ks.i1, ks.i2);
            let slot = raw.meta(ks.i1).empty_slot().expect("low occupancy");
            // SAFETY: pair lock held.
            unsafe { raw.write_entry_racy(ks.i1, slot, ks.tag, key, key ^ 0xdead) };
            drop(g);
        }
        // Hits, misses, and duplicates within one group.
        let keys: Vec<u64> = vec![0, 1, 999_999, 2, 2, 888_888, 3, 0];
        let ks: Vec<KeySlots> = keys.iter().map(|k| key_slots(&hb, k, raw.mask())).collect();
        let mut out = vec![None; keys.len()];
        get_group(&raw, &stripes, &tm, &ks, &keys, &mut out);
        for (j, key) in keys.iter().enumerate() {
            assert_eq!(out[j], get(&raw, &stripes, &tm, ks[j], key), "key {key}");
        }
        // Short (partial) group.
        let mut short = vec![None; 3];
        get_group(&raw, &stripes, &tm, &ks[..3], &keys[..3], &mut short);
        assert_eq!(short, out[..3].to_vec());
    }

    #[test]
    fn get_group_falls_back_under_writer_pressure() {
        // Hold a stripe's version odd-adjacent behavior via a lock/unlock
        // storm while the group pipeline runs: invalidated keys must take
        // the single-key fallback and still return correct results.
        let raw: RawTable<u64, u64, 8> = RawTable::with_capacity(4096);
        let stripes = LockStripes::new(16);
        let hb = RandomState::with_seed(31);
        let tm = TableMetrics::new();
        let keys: Vec<u64> = (0..64).collect();
        for key in &keys {
            let ks = key_slots(&hb, key, raw.mask());
            let g = stripes.lock_pair(ks.i1, ks.i2);
            let slot = raw.meta(ks.i1).empty_slot().expect("low occupancy");
            // SAFETY: pair lock held.
            unsafe { raw.write_entry_racy(ks.i1, slot, ks.tag, *key, key * 7) };
            drop(g);
        }
        let ks: Vec<KeySlots> = keys.iter().map(|k| key_slots(&hb, k, raw.mask())).collect();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let stop = &stop;
        let stripes = &stripes;
        let raw = &raw;
        std::thread::scope(|s| {
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    for b in 0..16 {
                        let _g = stripes.lock_pair(b, b);
                    }
                }
            });
            for _ in 0..300 {
                for (kc, oc) in ks.chunks(MULTIGET_GROUP).zip(keys.chunks(MULTIGET_GROUP)) {
                    let mut out = vec![None; kc.len()];
                    get_group(raw, stripes, &tm, kc, oc, &mut out);
                    for (j, key) in oc.iter().enumerate() {
                        assert_eq!(out[j], Some(key * 7), "key {key}");
                    }
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
        // With a lock storm running, some keys must have paid a retry or
        // fallback; whatever happened, the counters stay consistent.
        assert!(tm.multiget_fallbacks.get() <= 300 * 64);
    }

    #[test]
    fn tag_collision_with_different_key_is_not_a_hit() {
        let raw: RawTable<u64, u64, 4> = RawTable::with_capacity(4096);
        let stripes = LockStripes::new(16);
        let hb = RandomState::with_seed(5);
        let tm = TableMetrics::new();
        let ks = key_slots(&hb, &123u64, raw.mask());
        // A *different* key with the same tag in the same bucket.
        // SAFETY: single-threaded.
        unsafe { raw.write_entry_racy(ks.i1, 0, ks.tag, 999u64, 7u64) };
        assert_eq!(get(&raw, &stripes, &tm, ks, &123u64), None);
        assert!(!contains(&raw, &stripes, &tm, ks, &123u64));
        let ks999 = KeySlots { ..ks };
        assert_eq!(get(&raw, &stripes, &tm, ks999, &999u64), Some(7));
    }

    /// The bounded-retry fallback must return correct results when every
    /// optimistic attempt fails: pre-bump a stripe to look permanently
    /// unstable (odd version = writer active) and verify the reader
    /// still terminates with the right answer via the locked path.
    #[test]
    fn locked_fallback_terminates_under_permanent_instability() {
        let raw: RawTable<u64, u64, 8> = RawTable::with_capacity(4096);
        let stripes = LockStripes::new(16);
        let hb = RandomState::with_seed(11);
        let tm = TableMetrics::new();
        let key = 42u64;
        let ks = key_slots(&hb, &key, raw.mask());
        {
            let _g = stripes.lock_pair(ks.i1, ks.i2);
            // SAFETY: pair lock held.
            unsafe { raw.write_entry_racy(ks.i1, 0, ks.tag, key, 777u64) };
        }
        // A writer that locks/unlocks the stripe in a tight loop while
        // the reader runs: optimistic validation keeps failing, so the
        // reader must reach the fallback rather than spin forever.
        let stop = std::sync::atomic::AtomicBool::new(false);
        let stop = &stop;
        let stripes = &stripes;
        std::thread::scope(|s| {
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let _g = stripes.lock_pair(ks.i1, ks.i1);
                }
            });
            for _ in 0..200 {
                assert_eq!(get(&raw, stripes, &tm, ks, &key), Some(777));
                assert!(contains(&raw, stripes, &tm, ks, &key));
                assert_eq!(get(&raw, stripes, &tm, ks, &(key + 1)), None);
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
    }

    #[test]
    fn readers_make_progress_alongside_writers() {
        // A writer hammers one key's value while readers verify they only
        // ever observe complete values (never torn halves).
        let raw: RawTable<u64, [u64; 4], 4> = RawTable::with_capacity(4096);
        let stripes = LockStripes::new(16);
        let hb = RandomState::with_seed(9);
        let tm = TableMetrics::new();
        let ks = key_slots(&hb, &1u64, raw.mask());
        {
            let _g = stripes.lock_pair(ks.i1, ks.i2);
            // SAFETY: pair lock held.
            unsafe { raw.write_entry_racy(ks.i1, 0, ks.tag, 1u64, [0u64; 4]) };
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        let stop = &stop;
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..20_000u64 {
                    let _g = stripes.lock_pair(ks.i1, ks.i2);
                    let b = raw.bucket(ks.i1);
                    // SAFETY: pair lock held; slot 0 occupied.
                    unsafe {
                        htm::mem::store_bytes(
                            b.val_ptr(0) as usize,
                            [i; 4].as_ptr().cast(),
                            32,
                        );
                    }
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        if let Some(v) = get(&raw, &stripes, &tm, ks, &1u64) {
                            assert!(
                                v.iter().all(|&x| x == v[0]),
                                "torn read escaped validation: {v:?}"
                            );
                        }
                    }
                });
            }
        });
    }
}
