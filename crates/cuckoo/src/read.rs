//! The read core: the paper's lookup, written once for every table.
//!
//! A lookup is one [`probe`] — tag-match both candidate buckets,
//! full-key compare the candidates — made trustworthy by one of two
//! [`ReadProtocol`]s:
//!
//! - [`Optimistic`] (§4.2, §4.4): no locks and no cache-line writes.
//!   Stamp both buckets' stripe versions, probe with racy-but-race-free
//!   copies, re-validate the stamps. Any concurrent writer — pair
//!   locker (odd version while held), global-lock holder, committing
//!   transaction (seqlock bumps around publication) — moves a stamp and
//!   sends the reader around again. Writers move *holes* backwards, so
//!   a present key is never missing mid-displacement, at worst
//!   momentarily duplicated with the same value. Retries are bounded:
//!   the model checker found the schedule that always interleaves a
//!   version bump between stamp and validation and starves an unbounded
//!   loop, so after [`MAX_OPTIMISTIC_RETRIES`] the reader takes the
//!   pair lock.
//! - [`Locked`] (§7, `CuckooMap`): take the pair lock, re-check under it
//!   that the table is still the one to read, probe with plain loads,
//!   and lend `&V` while the lock is held — any `K`/`V`.
//!
//! [`ReadProtocol::read_one`] is the single-key read and [`read_group`]
//! the software-pipelined batch; [`get`] / [`contains`] / [`get_group`]
//! are their optimistic instantiations for the `Plain` tables.

use crate::core::{PlainStore, RacyStore, Stores, MULTIGET_GROUP};
use crate::hash::KeySlots;
use crate::prefetch::prefetch_read;
use crate::racy::Plain;
use crate::raw::RawTable;
use crate::stats::TableMetrics;
use crate::sync::LockStripes;

/// Optimistic validation attempts before falling back to the locked
/// path. Failed validations are rare (a writer touched one of the two
/// stripes mid-scan), and consecutive failures rarer still; 64 failures
/// means sustained writer pressure on this stripe pair, at which point
/// queueing on the lock is both faster and fair.
const MAX_OPTIMISTIC_RETRIES: u32 = 64;

/// The slots of `bucket` that may hold a key tagged `tag` (tag match AND
/// occupied, two SWAR loads).
#[inline]
fn candidates<K, V, const B: usize>(raw: &RawTable<K, V, B>, bucket: usize, tag: u8) -> u16 {
    let m = raw.meta(bucket);
    m.match_tag_mask(tag) & m.occupied_mask()
}

/// What a [`probe`] finds: the `(bucket, slot)` holding the key.
pub(crate) type Slot = Option<(usize, usize)>;

/// The lookup: `key`'s [`Slot`] in its candidate buckets, `i1` before
/// `i2` (once when they coincide).
///
/// What `W` loads is only trustworthy under its protection — writer
/// exclusion over both buckets for [`PlainStore`]; for [`RacyStore`],
/// stripe stamps that validate afterwards (or the pair lock). Inlined
/// into every caller: handing the slot back through memory costs a
/// cache-resident `get` a quarter of its time.
#[inline(always)]
pub(crate) fn probe<W: Stores<K, V, B>, K: Eq, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    ks: KeySlots,
    key: &K,
) -> Slot {
    for bucket in [ks.i1, ks.i2] {
        let mut cand = candidates(raw, bucket, ks.tag);
        if cand == 0 && bucket != ks.i2 {
            // Tag miss in the primary: the lookup is headed for the
            // alternate bucket, so start pulling its entry storage now —
            // the data-line fetch overlaps the alternate metadata check
            // that decides whether to probe it.
            raw.prefetch_data(ks.i2);
        }
        while cand != 0 {
            let slot = cand.trailing_zeros() as usize;
            cand &= cand - 1;
            // SAFETY: `slot < B` (a bit of the B-bit candidate mask, so
            // also occupied when read under exclusion); the caller has
            // `W`'s protection in force.
            if unsafe { W::key_is(raw, bucket, slot, key) } {
                return Some((bucket, slot));
            }
        }
        if ks.i2 == ks.i1 {
            break;
        }
    }
    None
}

/// How a reader makes one [`probe`] of a key's bucket pair trustworthy.
pub(crate) trait ReadProtocol<K: Eq, V, const B: usize> {
    /// The table read, and the stripes stamped or locked over it.
    fn table(&self) -> (&RawTable<K, V, B>, &LockStripes);

    /// One protected probe for `key`: `look` is handed its slot inside
    /// the protection; `None` when the protocol cannot vouch for what
    /// `look` saw.
    fn attempt<T>(&self, ks: KeySlots, key: &K, look: impl FnOnce(Slot) -> T) -> Option<T>;

    /// The single-key read: [`attempt`](Self::attempt)s until one holds
    /// — `look` may run more than once, and only the returned result is
    /// vouched for. `None` when trying again cannot help and the caller
    /// must find the right table.
    #[inline]
    fn read_one<T>(&self, ks: KeySlots, key: &K, look: impl FnMut(Slot) -> T) -> Option<T> {
        self.attempt(ks, key, look)
    }
}

/// Stamp → probe → validate; `look` may see torn bytes, hence `Plain`
/// and [`RacyStore`] loads, and its result counts only once validated.
pub(crate) struct Optimistic<'a, K, V, const B: usize> {
    pub raw: &'a RawTable<K, V, B>,
    pub stripes: &'a LockStripes,
    pub metrics: &'a TableMetrics,
}

impl<K: Plain + Eq, V: Plain, const B: usize> ReadProtocol<K, V, B> for Optimistic<'_, K, V, B> {
    #[inline]
    fn table(&self) -> (&RawTable<K, V, B>, &LockStripes) {
        (self.raw, self.stripes)
    }

    #[inline]
    fn attempt<T>(&self, ks: KeySlots, key: &K, look: impl FnOnce(Slot) -> T) -> Option<T> {
        let s1 = self.stripes.stripe(ks.i1);
        let s2 = self.stripes.stripe(ks.i2);
        let same_stripe = self.stripes.stripe_of(ks.i1) == self.stripes.stripe_of(ks.i2);
        let st1 = s1.read_begin();
        let st2 = if same_stripe { st1 } else { s2.read_begin() };
        let seen = look(probe::<RacyStore, K, V, B>(self.raw, ks, key));
        (s1.read_validate(st1) && (same_stripe || s2.read_validate(st2))).then_some(seen)
    }

    /// Never `None`: bounded retries, then the [`Locked`] protocol.
    #[inline]
    fn read_one<T>(&self, ks: KeySlots, key: &K, mut look: impl FnMut(Slot) -> T) -> Option<T> {
        let mut spins = 0u32;
        for _ in 0..MAX_OPTIMISTIC_RETRIES {
            let held = self.attempt(ks, key, &mut look);
            if held.is_some() {
                return held;
            }
            // A failed validation means a writer holds (or bumped) a
            // stripe; hammering the version counters only slows that
            // writer down. (Metrics are bumped only here on the failure
            // path — a first-attempt success never touches a shared
            // counter line.)
            self.metrics.read_retries.inc();
            crate::sync::backoff(&mut spins);
        }
        // Writer storm on this stripe pair: take the locks. Writers
        // mutating these buckets hold the same pair, so the probe is
        // consistent and `look`'s racy copies cannot tear.
        self.metrics.read_lock_fallbacks.inc();
        Locked { raw: self.raw, stripes: self.stripes, valid: || true }.attempt(ks, key, look)
    }
}

/// Pair lock → `valid` → probe; `look` may borrow from the buckets for
/// as long as it runs. `valid` says, under the lock, whether the table
/// is still the one to read; it cannot turn true again, so
/// [`read_one`](ReadProtocol::read_one) is a single attempt.
pub(crate) struct Locked<'a, K, V, const B: usize, F> {
    pub raw: &'a RawTable<K, V, B>,
    pub stripes: &'a LockStripes,
    pub valid: F,
}

impl<K: Eq, V, const B: usize, F: Fn() -> bool> ReadProtocol<K, V, B> for Locked<'_, K, V, B, F> {
    #[inline]
    fn table(&self) -> (&RawTable<K, V, B>, &LockStripes) {
        (self.raw, self.stripes)
    }

    #[inline]
    fn attempt<T>(&self, ks: KeySlots, key: &K, look: impl FnOnce(Slot) -> T) -> Option<T> {
        let _g = self.stripes.lock_pair(ks.i1, ks.i2);
        (self.valid)().then(|| look(probe::<PlainStore, K, V, B>(self.raw, ks, key)))
    }
}

/// Software-pipelined lookup of one group of at most [`MULTIGET_GROUP`]
/// keys (`ks` and `keys` are parallel), under `p`. The stages
/// interleave *across* keys so each key's cache misses overlap the
/// others':
///
/// 1. **prefetch metadata** — both candidate `BucketMeta` words and
///    stripe words of every key are requested before any is read;
/// 2. **prefetch data** — per key: tag-match the (now warm) metadata
///    and request the key array of buckets reporting a candidate plus
///    every line of each candidate slot's value. Nothing here is
///    trusted: a racing writer costs at most a wasted hint;
/// 3. **probe** — per key, in order: one [`ReadProtocol::attempt`] over
///    lines that are now warm, handing `each(j, slot)` the result
///    inside the protection.
///
/// A key whose attempt fails — a writer moved one of its stripes, or the
/// table went stale — is counted in `multiget_fallbacks` and reported
/// in the returned mask (bit `j`) for the caller's single-key path,
/// whatever `each` did with it; only that key pays. Correctness is the
/// single-key argument unchanged, key by key.
pub(crate) fn read_group<K: Eq, V, const B: usize>(
    p: &impl ReadProtocol<K, V, B>,
    metrics: &TableMetrics,
    ks: &[KeySlots],
    keys: &[K],
    mut each: impl FnMut(usize, Slot),
) -> u32 {
    debug_assert!(ks.len() <= MULTIGET_GROUP && ks.len() == keys.len());
    let (raw, stripes) = p.table();
    for k in ks {
        for bucket in [k.i1, k.i2] {
            raw.prefetch_meta(bucket);
            prefetch_read(stripes.stripe(bucket));
        }
    }
    for k in ks {
        for bucket in [k.i1, k.i2] {
            let mut cand = candidates(raw, bucket, k.tag);
            if cand != 0 {
                raw.prefetch_data(bucket);
            }
            while cand != 0 {
                raw.prefetch_val(bucket, cand.trailing_zeros() as usize);
                cand &= cand - 1;
            }
        }
    }
    let mut failed = 0;
    for (j, (k, key)) in ks.iter().zip(keys).enumerate() {
        if p.attempt(*k, key, |at| each(j, at)).is_none() {
            metrics.multiget_fallbacks.inc();
            failed |= 1 << j;
        }
    }
    failed
}

/// The racy copy of the value at a probed slot, for [`Optimistic`]'s
/// `look`.
#[inline]
fn copy_out<K, V: Plain, const B: usize>(raw: &RawTable<K, V, B>, at: Slot) -> Option<V> {
    // SAFETY: `slot < B` (from the probe); the copy may be torn, and
    // the protocol discards it unless the stamps validate / the pair
    // lock was held (seqlock ordering argument: DESIGN.md §5d).
    at.map(|(bucket, slot)| unsafe { raw.read_val_racy(bucket, slot) })
}

/// Optimistically reads `key`'s value.
#[inline]
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
    Optimistic { raw, stripes, metrics: m }
        .read_one(ks, key, |at| copy_out(raw, at))
        .expect("the optimistic protocol ends under the pair lock")
}

/// Optimistically checks for `key`'s presence: a [`get`] that copies
/// nothing.
#[inline]
pub(crate) fn contains<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    m: &TableMetrics,
    ks: KeySlots,
    key: &K,
) -> bool
where
    K: Plain + Eq,
    V: Plain,
{
    Optimistic { raw, stripes, metrics: m }
        .read_one(ks, key, |at| at.is_some())
        .expect("the optimistic protocol ends under the pair lock")
}

/// Optimistic [`read_group`] into `out` (parallel to `ks` and `keys`);
/// a key invalidated mid-pipeline falls back to [`get`].
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
    debug_assert!(out.len() == keys.len());
    let p = Optimistic { raw, stripes, metrics: m };
    let mut failed = read_group(&p, m, ks, keys, |j, at| out[j] = copy_out(raw, at));
    while failed != 0 {
        let j = failed.trailing_zeros() as usize;
        failed &= failed - 1;
        out[j] = get(raw, stripes, m, ks[j], &keys[j]);
    }
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
                        crate::racy::store_bytes(
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

    /// A key whose candidate buckets sit under two different stripes of
    /// a 16-stripe set, placed in its primary bucket.
    fn two_stripe_fixture() -> (RawTable<u64, u64, 8>, LockStripes, KeySlots, u64) {
        let raw: RawTable<u64, u64, 8> = RawTable::with_capacity(4096);
        let stripes = LockStripes::new(16);
        let hb = RandomState::with_seed(17);
        let (key, ks) = (0..)
            .map(|key: u64| (key, key_slots(&hb, &key, raw.mask())))
            .find(|(_, ks)| stripes.stripe_of(ks.i1) != stripes.stripe_of(ks.i2))
            .expect("some key spans two stripes");
        // SAFETY: single-threaded.
        unsafe { raw.write_entry_racy(ks.i1, 0, ks.tag, key, 5u64) };
        (raw, stripes, ks, key)
    }

    /// The optimistic window closes on *both* stripes: a writer that
    /// touches only the alternate bucket's stripe — where a displaced
    /// key lands — must fail the attempt as surely as one in the
    /// primary's. (Pinned by the `read-skip-second-validate` mutant.)
    #[test]
    fn optimistic_attempt_validates_both_stripes() {
        let (raw, stripes, ks, key) = two_stripe_fixture();
        let tm = TableMetrics::new();
        let p = Optimistic { raw: &raw, stripes: &stripes, metrics: &tm };
        assert_eq!(p.attempt(ks, &key, |at| at), Some(Some((ks.i1, 0))));
        for bumped in [ks.i1, ks.i2] {
            let seen = p.attempt(ks, &key, |at| {
                // A writer locks and unlocks one stripe mid-window.
                drop(stripes.lock_pair(bumped, bumped));
                at
            });
            assert_eq!(seen, None, "stripe of bucket {bumped} moved inside the window");
        }
        assert_eq!(get(&raw, &stripes, &tm, ks, &key), Some(5));
    }

    /// The locked protocol re-checks `valid` *under* the pair lock and
    /// never probes a table that failed it: a `CuckooMap` reader that
    /// trusted a table swapped (or drained by a migration) while it
    /// waited for the lock would report a false miss. (Pinned by the
    /// `read-locked-skip-valid` mutant.)
    #[test]
    fn locked_attempt_rechecks_valid_under_the_lock() {
        let (raw, stripes, ks, key) = two_stripe_fixture();
        let held = || stripes.stripe(ks.i1).is_locked() && stripes.stripe(ks.i2).is_locked();
        let stale = Locked { raw: &raw, stripes: &stripes, valid: || !held() };
        assert_eq!(stale.attempt(ks, &key, |_| unreachable!("probed a stale table")), None::<()>);
        assert_eq!(stale.read_one(ks, &key, |at| at), None);
        let live = Locked { raw: &raw, stripes: &stripes, valid: held };
        assert_eq!(live.read_one(ks, &key, |at| at), Some(Some((ks.i1, 0))));
        assert_eq!(live.read_one(ks, &(key + 1), |at| at), Some(None));
        assert!(!held(), "the pair lock is released");
    }

    /// The one probe gives the same answer under both key loads, for
    /// every shape of candidate pair: distinct buckets, coinciding
    /// buckets (probed once), the key in either bucket, and strangers
    /// sharing its tag in the same bucket.
    #[test]
    fn probe_agrees_under_plain_and_racy_key_loads() {
        let raw: RawTable<u64, u64, 4> = RawTable::with_capacity(1024);
        let tag = 9u8;
        // Buckets 3 and 7: strangers with the probed tag before the
        // real keys; bucket 5 doubles as a coinciding pair.
        // SAFETY: single-threaded; slots unoccupied.
        unsafe {
            raw.write_entry_racy(3, 0, tag, 100, 0);
            raw.write_entry_racy(3, 2, tag, 1, 0);
            raw.write_entry_racy(7, 1, tag, 101, 0);
            raw.write_entry_racy(7, 3, tag, 2, 0);
            raw.write_entry_racy(7, 0, tag + 1, 3, 0);
            raw.write_entry_racy(5, 3, tag, 4, 0);
        }
        let pair = KeySlots { i1: 3, i2: 7, tag };
        let same = KeySlots { i1: 5, i2: 5, tag };
        for (ks, key, want) in [
            (pair, 1u64, Some((3, 2))),
            (pair, 2, Some((7, 3))),
            (pair, 3, None), // present, but under another tag
            (pair, 9, None),
            (KeySlots { i1: 7, i2: 3, tag }, 1, Some((3, 2))),
            (same, 4, Some((5, 3))),
            (same, 1, None),
            (KeySlots { i1: 11, i2: 13, tag }, 1, None), // empty buckets
        ] {
            assert_eq!(probe::<PlainStore, u64, u64, 4>(&raw, ks, &key), want, "{ks:?} key {key}");
            assert_eq!(probe::<RacyStore, u64, u64, 4>(&raw, ks, &key), want, "{ks:?} key {key}");
        }
    }
}
