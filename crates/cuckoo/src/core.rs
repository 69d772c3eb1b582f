//! The write core: the paper's insert, written once for every table.
//!
//! An insert is four steps (§4.3–4.4; SNIPPETS.md §3):
//!
//! 1. **claim** — with writer exclusion over the key's two candidate
//!    buckets, find a duplicate ([`crate::read::probe`]; overwrite or
//!    reject it) or take an empty slot ([`claim`]);
//! 2. **find a path** — with no locks held, over atomic metadata only
//!    ([`WriteCtx::plan_and_record`]; the kick-out policy varies only
//!    this step);
//! 3. **execute it hole-backwards** — one validated displacement at a
//!    time ([`crate::search::exec`]), then claim again;
//! 4. **grow**, or report `TableFull`, when no path exists — the
//!    caller's decision.
//!
//! [`WriteCtx::search_and_displace`] is steps 2–3 for a shared table,
//! [`WriteCtx::insert_exclusive`] is steps 1–3 for a table the caller
//! holds exclusively (every stripe, `&mut`, or a private rebuild target),
//! and [`WriteCtx::write_many`] is the batch pipeline around step 1.
//!
//! The two things that differ between the maps are passed in, the way
//! [`crate::search::exec`] takes its mover: *how* a writer stores into a
//! bucket it holds ([`Stores`]: [`PlainStore`] behind locked readers,
//! [`RacyStore`] under optimistic ones), and `CuckooMap`'s "is this table
//! still the one to write to" check (a `valid` closure). Both are
//! monomorphised away.
//!
//! The batch group sizes — read and write — are defined here too, so
//! the pipelines and the lock layer size their stack arrays from one
//! place.

use crate::counter::ShardedCounter;
use crate::error::{InsertError, UpsertOutcome};
use crate::hash::{key_slots, KeySlots};
use crate::racy::Plain;
use crate::raw::RawTable;
use crate::read::probe;
use crate::search::exec::{self, Mover};
use crate::search::{self, EvictionPolicy, PathEntry, SearchFailure, SearchScratch};
use crate::stats::TableMetrics;
use crate::sync::LockStripes;
use crate::sync2::atomic::{AtomicU64, Ordering};
use core::hash::{BuildHasher, Hash};

/// Keys per software-pipelined lookup group (the batched `get_many`
/// engine). Sized like the paper's prefetch argument (§4.3.2) sizes the
/// BFS frontier: large enough that by the time the first key's bucket
/// lines are demanded the later keys' prefetches are in flight (covering
/// a DRAM-latency's worth of independent misses — ~8 lines at ≈80 ns
/// latency and ≈10 ns/line of pipeline work), small enough that G keys'
/// staged state (stamps + candidate masks) stays register/L1-resident
/// and the earliest prefetched lines are not evicted before use.
pub(crate) const MULTIGET_GROUP: usize = 8;

/// Keys per pipelined write group (`insert_many`/`upsert_many`), sized
/// like the read path's multiget group: large enough to overlap a
/// group's DRAM misses, small enough that stage-1 prefetches survive
/// until stage 3 probes them.
pub const WRITE_GROUP: usize = 8;

/// Most buckets one [`LockStripes::lock_batch`] call may cover: a full
/// pipelined write group × two candidate buckets each.
pub(crate) const MAX_BATCH_BUCKETS: usize = 2 * WRITE_GROUP;

/// How a bucket's entries are stored by a writer that holds it
/// exclusively, and loaded by the probe — what the readers' protocol
/// demands of both.
pub(crate) trait Stores<K: Eq, V, const B: usize> {
    /// The matching per-step mover for the hole-backwards executor.
    const MOVER: Mover<K, V, B>;

    /// Whether `(bucket, slot)` holds `key` — the probe's load.
    ///
    /// # Safety
    ///
    /// `slot < B`, and the matching protection is in force: exclusion
    /// over an occupied slot ([`PlainStore`]), or a stripe stamp that
    /// must validate before the answer is trusted ([`RacyStore`]).
    unsafe fn key_is(raw: &RawTable<K, V, B>, bucket: usize, slot: usize, key: &K) -> bool;

    /// Writes a full entry into the empty `(bucket, slot)`.
    ///
    /// # Safety
    ///
    /// The caller holds writer exclusion over `bucket`; `slot` is
    /// unoccupied.
    unsafe fn write(raw: &RawTable<K, V, B>, bucket: usize, slot: usize, tag: u8, key: K, val: V);

    /// Replaces the value in the occupied `(bucket, slot)`.
    ///
    /// # Safety
    ///
    /// The caller holds writer exclusion over `bucket`; `slot` is
    /// occupied.
    unsafe fn overwrite(raw: &RawTable<K, V, B>, bucket: usize, slot: usize, val: V);
}

/// Plain stores: readers are locked out (`CuckooMap`, and any table held
/// privately or through `&mut`). Any `K`/`V`; an overwritten value is
/// dropped in place.
pub(crate) struct PlainStore;

impl<K: Eq, V, const B: usize> Stores<K, V, B> for PlainStore {
    const MOVER: Mover<K, V, B> = RawTable::move_entry;

    // SAFETY: (contract) as documented on `Stores::key_is`.
    #[inline]
    unsafe fn key_is(raw: &RawTable<K, V, B>, bucket: usize, slot: usize, key: &K) -> bool {
        // SAFETY: exclusion held and slot occupied, so no concurrent
        // writer can mutate the key; a plain read is race-free.
        unsafe { &*raw.bucket(bucket).key_ptr(slot) == key }
    }

    // SAFETY: (contract) as documented on `Stores::write`.
    #[inline]
    unsafe fn write(raw: &RawTable<K, V, B>, bucket: usize, slot: usize, tag: u8, key: K, val: V) {
        // SAFETY: this function's contract is `write_entry`'s.
        unsafe { raw.write_entry(bucket, slot, tag, key, val) }
    }

    // SAFETY: (contract) as documented on `Stores::overwrite`.
    #[inline]
    unsafe fn overwrite(raw: &RawTable<K, V, B>, bucket: usize, slot: usize, val: V) {
        // SAFETY: the slot is occupied, so it holds an initialized value
        // to assign over (and drop); exclusion plus locked-out readers
        // make the plain access race-free.
        unsafe { *raw.bucket(bucket).val_ptr(slot) = val }
    }
}

/// Atomic-chunk stores under optimistic readers: a reader racing the
/// store copies possibly-torn bytes and then fails stamp validation (the
/// stripe version is odd while the writer holds it), hence `Plain`.
pub(crate) struct RacyStore;

impl<K: Plain + Eq, V: Plain, const B: usize> Stores<K, V, B> for RacyStore {
    const MOVER: Mover<K, V, B> = RawTable::move_entry_racy;

    // SAFETY: (contract) as documented on `Stores::key_is`.
    #[inline]
    unsafe fn key_is(raw: &RawTable<K, V, B>, bucket: usize, slot: usize, key: &K) -> bool {
        // SAFETY: `slot < B`; the copy may be torn, and the caller
        // discards the answer unless its stamps validate.
        unsafe { raw.read_key_racy(bucket, slot) == *key }
    }

    // SAFETY: (contract) as documented on `Stores::write`.
    #[inline]
    unsafe fn write(raw: &RawTable<K, V, B>, bucket: usize, slot: usize, tag: u8, key: K, val: V) {
        // SAFETY: this function's contract is `write_entry_racy`'s.
        unsafe { raw.write_entry_racy(bucket, slot, tag, key, val) }
    }

    // SAFETY: (contract) as documented on `Stores::overwrite`.
    #[inline]
    unsafe fn overwrite(raw: &RawTable<K, V, B>, bucket: usize, slot: usize, val: V) {
        // SAFETY: the destination is bucket storage valid for `V`'s
        // bytes and covered by the caller's exclusion; the atomic-chunk
        // store keeps racing optimistic readers race-free.
        unsafe {
            crate::racy::store_bytes(
                raw.bucket(bucket).val_ptr(slot) as usize,
                &val as *const V as *const u8,
                core::mem::size_of::<V>(),
            );
        }
    }
}

/// First empty slot in either candidate bucket; writer exclusion over
/// both must be held for the answer to stay true.
#[inline]
pub(crate) fn locked_empty_slot<K, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    ks: KeySlots,
) -> Option<(usize, usize)> {
    for bi in [ks.i1, ks.i2] {
        if let Some(slot) = raw.meta(bi).empty_slot() {
            return Some((bi, slot));
        }
        if ks.i2 == ks.i1 {
            break;
        }
    }
    None
}

/// Outcome of step 1.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Claim<K, V> {
    /// The entry was written into an empty candidate slot.
    Inserted,
    /// The key was present and `upsert` replaced its value.
    Updated,
    /// The key was present and the entry was rejected (and dropped).
    Exists,
    /// Both candidate buckets are full: the entry comes back unconsumed
    /// for steps 2–4.
    Full(K, V),
}

impl<K, V> Claim<K, V> {
    /// The per-entry result of a finished claim, counting a fresh insert
    /// in `count`; `Err` hands the unplaced entry back.
    #[inline]
    pub(crate) fn settle(
        self,
        count: &ShardedCounter,
        ks: KeySlots,
    ) -> Result<Result<UpsertOutcome, InsertError>, (K, V)> {
        match self {
            Claim::Inserted => {
                count.add(ks.i1, 1);
                Ok(Ok(UpsertOutcome::Inserted))
            }
            Claim::Updated => Ok(Ok(UpsertOutcome::Updated)),
            Claim::Exists => Ok(Err(InsertError::KeyExists)),
            Claim::Full(key, val) => Err((key, val)),
        }
    }
}

/// Step 1: duplicate check, then direct claim of an empty candidate
/// slot.
///
/// # Safety
///
/// The caller holds writer exclusion over both of `ks`'s candidate
/// buckets in `raw` (and, for [`RacyStore`], has made the covering stripe
/// versions odd so racing readers retry).
#[inline]
pub(crate) unsafe fn claim<W: Stores<K, V, B>, K: Eq, V, const B: usize>(
    raw: &RawTable<K, V, B>,
    ks: KeySlots,
    key: K,
    val: V,
    upsert: bool,
) -> Claim<K, V> {
    if let Some((bi, slot)) = probe::<PlainStore, K, V, B>(raw, ks, &key) {
        if !upsert {
            return Claim::Exists;
        }
        // SAFETY: exclusion over `bi` per this function's contract; the
        // slot is occupied (just found).
        unsafe { W::overwrite(raw, bi, slot, val) };
        return Claim::Updated;
    }
    match locked_empty_slot(raw, ks) {
        Some((bi, slot)) => {
            // SAFETY: exclusion over `bi` per this function's contract;
            // the slot is empty (just checked).
            unsafe { W::write(raw, bi, slot, ks.tag, key, val) };
            Claim::Inserted
        }
        None => Claim::Full(key, val),
    }
}

/// What the write core needs of a table besides its bucket array: a
/// bundle of borrows each map assembles per operation.
pub(crate) struct WriteCtx<'a, S> {
    pub stripes: &'a LockStripes,
    pub hash_builder: &'a S,
    pub count: &'a ShardedCounter,
    pub metrics: &'a TableMetrics,
    /// Bumped per executed displacement; see
    /// [`exec::execute_hole_backwards`].
    pub displacements: &'a AtomicU64,
    pub eviction: EvictionPolicy,
    pub max_search_slots: usize,
    pub prefetch: bool,
}

impl<S> WriteCtx<'_, S> {
    /// Step 2: discovers a cuckoo path for `ks` into `scratch.path` and
    /// records the search in the table's metrics.
    pub(crate) fn plan_and_record<K, V, const B: usize>(
        &self,
        raw: &RawTable<K, V, B>,
        ks: KeySlots,
        scratch: &mut SearchScratch,
    ) -> Result<(), SearchFailure> {
        let searched = search::plan(
            self.eviction,
            raw,
            ks.i1,
            ks.i2,
            self.max_search_slots,
            self.prefetch,
            scratch,
        );
        // One histogram sample per search (success or failure): the
        // search itself examined hundreds of slots, so the relative cost
        // of recording is negligible (P1 budget).
        self.metrics.bfs_examined_slots.record(scratch.examined as u64);
        if self.eviction != EvictionPolicy::Bfs {
            self.metrics.record_eviction(scratch, searched.is_err());
        }
        if searched.is_ok() {
            self.metrics.bfs_path_len.record(scratch.path.len() as u64);
        }
        searched
    }

    /// Step 3 on a shared table: executes `path` one pair-locked,
    /// validated displacement at a time. `false` means the path went
    /// stale (or `valid`, re-checked inside every pair lock, failed).
    pub(crate) fn displace<W: Stores<K, V, B>, K: Eq, V, const B: usize>(
        &self,
        raw: &RawTable<K, V, B>,
        path: &[PathEntry],
        valid: impl Fn() -> bool,
    ) -> bool {
        exec::execute_hole_backwards(
            raw,
            Some(self.stripes),
            path,
            self.displacements,
            valid,
            W::MOVER,
        )
    }

    /// Steps 2–3 on a shared table, no lock held on entry. `None`: no
    /// path exists (step 4 is the caller's); `Some(false)`: the path went
    /// stale mid-execution. Either way the caller re-enters step 1, which
    /// re-checks duplicates and claims whatever slot was freed.
    pub(crate) fn search_and_displace<W: Stores<K, V, B>, K: Eq, V, const B: usize>(
        &self,
        raw: &RawTable<K, V, B>,
        ks: KeySlots,
        scratch: &mut SearchScratch,
        valid: impl Fn() -> bool,
    ) -> Option<bool> {
        self.plan_and_record(raw, ks, scratch).ok()?;
        Some(self.displace::<W, K, V, B>(raw, &scratch.path, valid))
    }

    /// Steps 1–3 on a table the caller holds exclusively, looping until
    /// the entry is placed or `find_path` (step 2, leaving its result in
    /// the scratch's `path`) reports none — then `Full` hands it back.
    ///
    /// Paths are validated even here: a DFS random walk may revisit a
    /// `(bucket, slot)`, so a later step of its own path can be stale.
    /// Each applied displacement is individually valid, so the loop just
    /// claims — and if need be searches — again.
    ///
    /// # Safety
    ///
    /// The caller holds writer exclusion over the whole of `raw` for the
    /// duration of the call.
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn insert_exclusive<W: Stores<K, V, B>, K: Eq, V, const B: usize>(
        &self,
        raw: &RawTable<K, V, B>,
        ks: KeySlots,
        mut key: K,
        mut val: V,
        upsert: bool,
        scratch: &mut SearchScratch,
        mut find_path: impl FnMut(&mut SearchScratch) -> bool,
    ) -> Claim<K, V> {
        loop {
            // SAFETY: whole-table exclusion covers both candidate buckets.
            match unsafe { claim::<W, K, V, B>(raw, ks, key, val, upsert) } {
                Claim::Full(k, v) => (key, val) = (k, v),
                done => return done,
            }
            if !find_path(scratch) {
                return Claim::Full(key, val);
            }
            exec::execute_hole_backwards(
                raw,
                None,
                &scratch.path,
                self.displacements,
                || true,
                W::MOVER,
            );
        }
    }

    /// Visits every entry of `raw` one stripe at a time, so writers only
    /// ever contend with the single stripe under visit. The view is fuzzy
    /// (each entry as of its stripe's visit), and `false` means it may be
    /// incomplete — `valid`, re-checked under every stripe lock, failed,
    /// or a displacement hopped an entry from a bucket not yet reached
    /// into one already passed — and the caller must discard what `f`
    /// accumulated.
    pub(crate) fn scan<K, V, const B: usize>(
        &self,
        raw: &RawTable<K, V, B>,
        valid: impl Fn() -> bool,
        mut f: impl FnMut(&K, &V),
    ) -> bool {
        // ORDERING: exec.scan-counter
        let displacements_before = self.displacements.load(Ordering::SeqCst);
        let n_buckets = raw.n_buckets();
        for s in 0..self.stripes.len().min(n_buckets) {
            // `stripe_of(s) == s` here; a pair guard with both buckets
            // equal holds exactly that one stripe.
            let _g = self.stripes.lock_pair(s, s);
            if !valid() {
                return false;
            }
            for bi in (s..n_buckets).step_by(self.stripes.len()) {
                let b = raw.bucket(bi);
                let mut occ = raw.meta(bi).occupied_mask();
                while occ != 0 {
                    let slot = occ.trailing_zeros() as usize;
                    occ &= occ - 1;
                    // SAFETY: the stripe covering `bi` is held, so no
                    // writer mutates the occupied slot's entry.
                    unsafe { f(&*b.key_ptr(slot), &*b.val_ptr(slot)) };
                }
            }
        }
        // ORDERING: exec.scan-counter
        self.displacements.load(Ordering::SeqCst) == displacements_before
    }

    /// Builds a private table of at least `slots` capacity holding
    /// `entries` (distinct keys). A table at ≤50% load *usually* rehashes
    /// without exhausting the search budget, but an adversarial key set
    /// can defeat one attempt (all keys sharing few candidate buckets
    /// under the new mask), so the rebuild keeps doubling until every
    /// entry places rather than failing on that tail case.
    pub(crate) fn rebuild<K: Hash + Eq, V, const B: usize>(
        &self,
        mut slots: usize,
        mut entries: Vec<(K, V)>,
    ) -> RawTable<K, V, B>
    where
        S: BuildHasher,
    {
        search::with_scratch(|scratch| loop {
            let table = RawTable::with_capacity(slots);
            while let Some((key, val)) = entries.pop() {
                let ks = key_slots(self.hash_builder, &key, table.mask());
                // SAFETY: `table` is private to this thread.
                let placed = unsafe {
                    self.insert_exclusive::<PlainStore, K, V, B>(
                        &table,
                        ks,
                        key,
                        val,
                        false,
                        scratch,
                        |s| self.plan_and_record(&table, ks, s).is_ok(),
                    )
                };
                if let Claim::Full(key, val) = placed {
                    entries.push((key, val));
                    break;
                }
            }
            if entries.is_empty() {
                return table;
            }
            // Hand the partial table's entries back for the retry.
            // SAFETY: private table.
            unsafe { table.drain_into(&mut entries) };
            slots *= 2;
        })
    }

    /// The write-group pipeline behind `insert_many`/`upsert_many`: one
    /// result per entry, in order, equivalent to calling `single` per
    /// entry. Per group of [`WRITE_GROUP`] entries:
    ///
    /// 1. hash every key and prefetch both candidate metadata lines with
    ///    write intent, so the group's cache misses overlap;
    /// 2. take the group's stripe set in one ascending, deduplicated
    ///    [`lock_batch`](LockStripes::lock_batch) pass;
    /// 3. [`claim`] each entry in request order, so duplicate keys within
    ///    the group observe one another exactly like a loop of single
    ///    inserts would.
    ///
    /// The first entry whose candidate pair is full demotes itself AND
    /// the rest of its group to `single`, in order, once the batch lock
    /// drops: its path search displaces entries that later keys' outcomes
    /// may depend on, so finishing the group under the batch lock first
    /// would not be loop-equivalent.
    ///
    /// `table` names the table a group may batch against — `None` sends
    /// the whole group through `single` (`CuckooMap` mid-migration: the
    /// two-table single-key writer already orders its per-chunk work) —
    /// and `valid` re-checks it under the batch lock.
    pub(crate) fn write_many<'t, W: Stores<K, V, B>, K: Hash + Eq + 't, V: 't, const B: usize>(
        &self,
        entries: impl IntoIterator<Item = (K, V)>,
        upsert: bool,
        table: impl Fn() -> Option<&'t RawTable<K, V, B>>,
        valid: impl Fn(&RawTable<K, V, B>) -> bool,
        single: impl Fn(K, V) -> Result<UpsertOutcome, InsertError>,
    ) -> Vec<Result<UpsertOutcome, InsertError>>
    where
        S: BuildHasher,
    {
        let mut entries = entries.into_iter();
        let mut out = Vec::with_capacity(entries.size_hint().0);
        // `Option` slots so each entry moves exactly once: into a bucket,
        // or into `single`.
        let mut group: [Option<(K, V)>; WRITE_GROUP] = core::array::from_fn(|_| None);
        let mut ks_buf = [KeySlots { i1: 0, i2: 0, tag: 1 }; WRITE_GROUP];
        let mut buckets = [0usize; MAX_BATCH_BUCKETS];
        loop {
            let mut glen = 0;
            while glen < WRITE_GROUP {
                let Some(entry) = entries.next() else { break };
                group[glen] = Some(entry);
                glen += 1;
            }
            if glen == 0 {
                return out;
            }
            let group = &mut group[..glen];
            self.metrics.insert_batch_groups.inc();
            self.metrics.insert_batch_keys.add(glen as u64);
            let demote_from = match table() {
                None => 0,
                Some(raw) => {
                    for (j, entry) in group.iter().enumerate() {
                        let (key, _) = entry.as_ref().expect("group slot filled above");
                        let ks = key_slots(self.hash_builder, key, raw.mask());
                        ks_buf[j] = ks;
                        buckets[2 * j] = ks.i1;
                        buckets[2 * j + 1] = ks.i2;
                        if self.prefetch {
                            raw.prefetch_meta_write(ks.i1);
                            raw.prefetch_meta_write(ks.i2);
                        }
                    }
                    let _g = self.stripes.lock_batch(&buckets[..glen * 2]);
                    // An invalid table (swapped, or a migration began,
                    // between `table()` and the lock) demotes everyone.
                    let batchable = if valid(raw) { glen } else { 0 };
                    let mut claimed = 0;
                    for (entry, &ks) in group[..batchable].iter_mut().zip(&ks_buf) {
                        let (key, val) = entry.take().expect("group slot filled above");
                        // SAFETY: the batch lock covers every candidate
                        // bucket of the group (stripe versions odd, so
                        // optimistic readers retry).
                        match unsafe { claim::<W, K, V, B>(raw, ks, key, val, upsert) }
                            .settle(self.count, ks)
                        {
                            Ok(result) => out.push(result),
                            Err(unplaced) => {
                                *entry = Some(unplaced);
                                break;
                            }
                        }
                        claimed += 1;
                    }
                    claimed
                }
            };
            if demote_from < glen {
                self.metrics.insert_batch_fallbacks.add((glen - demote_from) as u64);
                for entry in &mut group[demote_from..] {
                    let (key, val) = entry.take().expect("demoted entries are unconsumed");
                    out.push(single(key, val));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    /// Step 1's whole decision table on a private 4-way table:
    /// {insert, upsert} × {key absent, key present, candidate pair full}
    /// × {`i1 != i2`, `i1 == i2`}, for one store policy. `k` makes keys
    /// and values (the same type, to keep the table small).
    fn claim_decision_table<W: Stores<T, T, 4>, T: Eq + core::fmt::Debug>(k: impl Fn(u64) -> T) {
        for (upsert, same_bucket) in [(false, false), (false, true), (true, false), (true, true)] {
            let raw = RawTable::<T, T, 4>::with_capacity(1024);
            let ks = KeySlots { i1: 3, i2: if same_bucket { 3 } else { 7 }, tag: 9 };
            let count = ShardedCounter::new();
            let go = |key: u64, val: u64| {
                // SAFETY: `raw` is private to this thread.
                unsafe { claim::<W, T, T, 4>(&raw, ks, k(key), k(val), upsert) }
            };
            // Absent: written once, counted once.
            assert_eq!(go(1, 10).settle(&count, ks), Ok(Ok(UpsertOutcome::Inserted)));
            // Present: overwritten or rejected, never counted.
            let (want, stored) =
                if upsert { (Ok(UpsertOutcome::Updated), 11) } else { (Err(InsertError::KeyExists), 10) };
            assert_eq!(go(1, 11).settle(&count, ks), Ok(want));
            let (bi, slot) = probe::<PlainStore, T, T, 4>(&raw, ks, &k(1)).expect("claimed above");
            // SAFETY: private table; the slot is occupied (just found).
            assert_eq!(unsafe { &*raw.bucket(bi).val_ptr(slot) }, &k(stored));
            assert_eq!(count.sum(), 1);
            // Fill the rest of the candidate pair (one bucket when they
            // coincide — it must not be probed, or counted, twice).
            let slots = if same_bucket { 4 } else { 8 };
            for i in 1..slots {
                assert_eq!(go(100 + i, 0), Claim::Inserted, "slot {i} of {slots}");
            }
            assert_eq!(raw.count_occupied(), slots as usize);
            // Full: the entry comes back unconsumed, nothing is counted,
            // and a present key is still found first.
            assert_eq!(go(2, 20).settle(&count, ks), Err((k(2), k(20))));
            assert_eq!(go(1, 12).settle(&count, ks), Ok(want));
            assert_eq!((count.sum(), raw.count_occupied()), (1, slots as usize));
        }
    }

    #[test]
    fn miri_claim_decision_table_racy_store() {
        claim_decision_table::<RacyStore, u64>(|n| n);
    }

    /// Owned keys and values: every `Rc` handed to `claim` is dropped
    /// exactly once — by the table, by a rejected insert, by an upsert's
    /// overwrite, or by the caller that `Full` hands it back to.
    #[test]
    fn miri_claim_decision_table_plain_store_owned_entries() {
        let pool: Vec<Rc<u64>> = (0..128).map(Rc::new).collect();
        claim_decision_table::<PlainStore, Rc<u64>>(|n| pool[n as usize].clone());
        assert!(pool.iter().all(|rc| Rc::strong_count(rc) == 1), "leaked or double-dropped entry");
    }
}
