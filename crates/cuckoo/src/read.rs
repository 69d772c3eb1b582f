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
//! [`ReadProtocol::read_one`] is the single-key read, and [`read_ahead`]
//! runs it over many keys with the next few keys' lines warming; [`get`]
//! / [`contains`] / [`visit_many`] are their optimistic instantiations
//! for the `Plain` tables.

use crate::bucket::{Bucket, BucketMeta};
use crate::core::{PlainStore, RacyStore, Stores};
use crate::hash::KeySlots;
use crate::prefetch::{lines, prefetch_read};
use crate::racy::Plain;
use crate::raw::RawTable;
use crate::stats::TableMetrics;
use crate::sync::{LockStripes, VersionLock};

/// Optimistic validation attempts before falling back to the locked
/// path. Failed validations are rare (a writer touched one of the two
/// stripes mid-scan), and consecutive failures rarer still; 64 failures
/// means sustained writer pressure on this stripe pair, at which point
/// queueing on the lock is both faster and fair.
const MAX_OPTIMISTIC_RETRIES: u32 = 64;

/// Keys [`read_ahead`] hashes and [`warm`]s ahead of the one it reads:
/// enough that a key's DRAM misses are served while the keys before it
/// are read, few enough that the lines warmed ahead are still cached
/// when their key's turn comes. Chosen on `multiget_throughput` at 2¹⁶
/// and 2²² slots; the sweep over 2, 4 and 8 is in CHANGES.md.
const READ_AHEAD: usize = 4;

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
            // that decides whether to probe it. Reads have already
            // `warm`ed it; this serves the probes that run unwarmed:
            // `insert_exclusive` (the full-table fallback and `rebuild`).
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

/// Hints every line a single-key operation on `ks` goes on to touch:
/// both stripe words, both buckets' metadata lines and every line of
/// both buckets' entries, with `hint` = [`prefetch_read`] for a reader
/// and [`prefetch_write`](crate::prefetch::prefetch_write) for a writer,
/// which is about to store to them. All of them are known once the key
/// is hashed (§4.3.2), so issued together their misses overlap instead
/// of following one another through stamp or lock, tag match and key
/// compare — and a writer takes them before its lock, not inside it.
///
/// Once per key: [`read_ahead`] warms a key [`READ_AHEAD`] keys before
/// it reads it, and reads it through [`ReadProtocol::read_warmed`].
#[inline(always)]
pub(crate) fn warm<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    ks: KeySlots,
    hint: fn(*const u8),
) {
    for bucket in [ks.i1, ks.i2] {
        hint((stripes.stripe(bucket) as *const VersionLock).cast());
        hint((raw.meta(bucket) as *const BucketMeta<B>).cast());
        let entries: *const Bucket<K, V, B> = raw.bucket(bucket);
        lines(entries.cast(), size_of::<Bucket<K, V, B>>(), hint);
    }
}

/// How a reader makes one [`probe`] of a key's bucket pair trustworthy.
pub(crate) trait ReadProtocol<K: Eq, V, const B: usize> {
    /// The table read, and the stripes stamped or locked over it.
    fn table(&self) -> (&RawTable<K, V, B>, &LockStripes);

    /// One protected probe for `key`: `look` is handed its slot inside
    /// the protection; `None` when the protocol cannot vouch for what
    /// `look` saw.
    fn attempt<T>(&self, ks: KeySlots, key: &K, look: impl FnOnce(Slot) -> T) -> Option<T>;

    /// The single-key read of a key whose lines are already [`warm`]:
    /// [`attempt`](Self::attempt)s until one holds — `look` may run
    /// more than once, and only the returned result is vouched for.
    /// `None` when trying again cannot help and the caller must find
    /// the right table.
    #[inline]
    fn read_warmed<T>(&self, ks: KeySlots, key: &K, look: impl FnMut(Slot) -> T) -> Option<T> {
        self.attempt(ks, key, look)
    }

    /// The single-key read: [`warm`]s the key's lines, then
    /// [`read_warmed`](Self::read_warmed).
    #[inline]
    fn read_one<T>(&self, ks: KeySlots, key: &K, look: impl FnMut(Slot) -> T) -> Option<T> {
        let (raw, stripes) = self.table();
        warm(raw, stripes, ks, prefetch_read::<u8>);
        self.read_warmed(ks, key, look)
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
    fn read_warmed<T>(&self, ks: KeySlots, key: &K, mut look: impl FnMut(Slot) -> T) -> Option<T> {
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
/// [`read_warmed`](ReadProtocol::read_warmed) is a single attempt.
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

/// The multi-key read: `read(i, key, h)` for every key in order, where
/// `h = prep(key)` hashes the key and [`warm`]s its lines — called
/// [`READ_AHEAD`] keys before the key's `read`, so each key's misses
/// overlap the reads of the keys before it. Every key is prepared once
/// and read by the single-key read; nothing is staged across keys, so
/// there is no group to fall back from.
#[inline]
pub(crate) fn read_ahead<K, H: Copy>(
    keys: &[K],
    mut prep: impl FnMut(&K) -> H,
    mut read: impl FnMut(usize, &K, H),
) {
    let Some(first) = keys.first() else { return };
    let mut ahead = [prep(first); READ_AHEAD];
    for (j, key) in keys.iter().enumerate().take(READ_AHEAD).skip(1) {
        ahead[j] = prep(key);
    }
    for (i, key) in keys.iter().enumerate() {
        let h = ahead[i % READ_AHEAD];
        if let Some(next) = keys.get(i + READ_AHEAD) {
            ahead[i % READ_AHEAD] = prep(next);
        }
        read(i, key, h);
    }
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

/// Optimistic [`read_ahead`]: `f(i, v)` for every key in order, with
/// `v` what [`get`] returns for `keys[i]`. `f` runs outside every
/// seqlock window, on a validated copy.
pub(crate) fn visit_many<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    m: &TableMetrics,
    keys: &[K],
    slots_of: impl Fn(&K) -> KeySlots,
    mut f: impl FnMut(usize, Option<&V>),
) where
    K: Plain + Eq,
    V: Plain,
{
    let p = Optimistic { raw, stripes, metrics: m };
    let prep = |key: &K| {
        let ks = slots_of(key);
        warm(raw, stripes, ks, prefetch_read::<u8>);
        ks
    };
    read_ahead(keys, prep, |i, key, ks| {
        let v = p.read_warmed(ks, key, |at| copy_out(raw, at));
        f(i, v.expect("the optimistic protocol ends under the pair lock").as_ref());
    });
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

    /// `visit_many` over `keys`, collected.
    fn visit_all(
        raw: &RawTable<u64, u64, 8>,
        stripes: &LockStripes,
        tm: &TableMetrics,
        hb: &RandomState,
        keys: &[u64],
    ) -> Vec<(usize, Option<u64>)> {
        let mut shown = Vec::new();
        visit_many(raw, stripes, tm, keys, |k| key_slots(hb, k, raw.mask()), |i, v| {
            shown.push((i, v.copied()))
        });
        shown
    }

    #[test]
    fn visit_many_matches_single_gets() {
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
        // Hits, misses and duplicates, at every length around the
        // read-ahead window: shorter than it, filling it, and past it.
        let pool: Vec<u64> = vec![0, 1, 999_999, 2, 2, 888_888, 3, 0, 399, 7, 400, 7];
        for n in 0..=2 * READ_AHEAD + 1 {
            let keys: Vec<u64> = pool.iter().cycle().take(n).copied().collect();
            let want: Vec<(usize, Option<u64>)> = keys
                .iter()
                .enumerate()
                .map(|(i, k)| (i, get(&raw, &stripes, &tm, key_slots(&hb, k, raw.mask()), k)))
                .collect();
            assert_eq!(visit_all(&raw, &stripes, &tm, &hb, &keys), want, "{n} keys");
        }
    }

    #[test]
    fn visit_many_is_correct_under_a_lock_storm() {
        // A lock/unlock storm over every stripe while `visit_many` runs:
        // keys whose validation fails retry, or fall back to the pair
        // lock, and still show their values.
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
        let want: Vec<(usize, Option<u64>)> =
            keys.iter().map(|k| (*k as usize, Some(k * 7))).collect();
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
                assert_eq!(visit_all(raw, stripes, &tm, &hb, &keys), want);
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
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
