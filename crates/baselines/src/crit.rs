//! Critical-section bodies, written once against [`MemCtx`].
//!
//! The paper runs the same insert/delete logic under three regimes: a
//! global spinlock (baseline), TSX lock elision (§5), and — for cuckoo+ —
//! fine-grained striped locks (§4.4). The first two share these
//! `MemCtx`-generic bodies: under a real lock they execute with
//! [`htm::DirectCtx`] (plain atomic-chunk memory access), and under
//! elision with a transactional context that gives genuine conflict
//! detection. Writers publish through the stripe version counters
//! ([`MemCtx::seq_write_begin`]) so the lock-free optimistic readers of
//! [`cuckoo::OptimisticCuckooMap`] always detect a concurrent writer.
//!
//! Displacements here follow MemC3's no-undo discipline: each one alone
//! moves an item to its *alternate* bucket (dest written before source
//! cleared), so a path execution that stops halfway — stale validation,
//! aborted transaction — leaves the table fully consistent ("each
//! displacement relocates only one item to its alternate bucket, so there
//! is no undo needed if execution aborts", §4.3.1).

use cuckoo::bucket::BucketMeta;
use cuckoo::hash::KeySlots;
use cuckoo::raw::RawTable;
use cuckoo::search::{PathEntry, SearchScratch};
use cuckoo::sync::LockStripes;
use htm::{Abort, MemCtx, Plain};

/// What a critical section accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CritOutcome {
    /// The key was inserted.
    Inserted,
    /// The key already exists; nothing was changed.
    Exists,
    /// Both candidate buckets are full and no path was supplied; the
    /// caller should search for one and re-enter.
    NeedPath,
    /// The supplied path was stale (another writer moved things); any
    /// displacements already applied are individually valid. Retry with a
    /// fresh search.
    PathStale,
    /// In-critical-section search exhausted its budget: table too full.
    SearchFull,
}

/// Scans `bucket_idx` for `key`, returning its slot.
pub(crate) fn find_key<C, K, V, const B: usize>(
    ctx: &mut C,
    raw: &RawTable<K, V, B>,
    bucket_idx: usize,
    tag: u8,
    key: &K,
) -> Result<Option<usize>, Abort>
where
    C: MemCtx,
    K: Plain + Eq,
{
    let b = raw.bucket(bucket_idx);
    let m = raw.meta(bucket_idx);
    // SAFETY: all pointers below derive from bucket/metadata storage
    // owned by `raw`, which outlives the critical section.
    let mask = unsafe { ctx.load(m.occupied_ptr() as *const u16)? };
    for s in 0..B {
        if mask & (1 << s) == 0 {
            continue;
        }
        // SAFETY: as above.
        let p = unsafe { ctx.load(m.partial_ptr(s) as *const u8)? };
        if p != tag {
            continue;
        }
        // SAFETY: as above; `K: Plain` so a (transactionally validated)
        // copy is always a valid value.
        let k = unsafe { ctx.load(b.key_ptr(s) as *const K)? };
        if k == *key {
            return Ok(Some(s));
        }
    }
    Ok(None)
}

/// Inserts into the first empty slot of `bucket_idx`, if any.
pub(crate) fn try_add<C, K, V, const B: usize>(
    ctx: &mut C,
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    bucket_idx: usize,
    tag: u8,
    key: K,
    val: V,
) -> Result<bool, Abort>
where
    C: MemCtx,
    K: Plain,
    V: Plain,
{
    // SAFETY: metadata storage outlives the critical section.
    let mask = unsafe { ctx.load(raw.meta(bucket_idx).occupied_ptr() as *const u16)? };
    let free = !mask & BucketMeta::<B>::FULL_MASK;
    if free == 0 {
        return Ok(false);
    }
    let slot = free.trailing_zeros() as usize;
    write_slot(ctx, raw, stripes, bucket_idx, slot, mask, tag, key, val)?;
    Ok(true)
}

/// Inserts at a *specific* slot (the head of an executed cuckoo path),
/// failing if the slot has been taken since.
#[allow(clippy::too_many_arguments)] // mirrors the paper's operation signature
pub(crate) fn add_at_slot<C, K, V, const B: usize>(
    ctx: &mut C,
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    bucket_idx: usize,
    slot: usize,
    tag: u8,
    key: K,
    val: V,
) -> Result<bool, Abort>
where
    C: MemCtx,
    K: Plain,
    V: Plain,
{
    // SAFETY: metadata storage outlives the critical section.
    let mask = unsafe { ctx.load(raw.meta(bucket_idx).occupied_ptr() as *const u16)? };
    if mask & (1 << slot) != 0 {
        return Ok(false);
    }
    write_slot(ctx, raw, stripes, bucket_idx, slot, mask, tag, key, val)?;
    Ok(true)
}

/// Writes one slot (tag, key, value, occupancy bit) with publication via
/// the covering stripe.
#[allow(clippy::too_many_arguments)]
fn write_slot<C, K, V, const B: usize>(
    ctx: &mut C,
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    bucket_idx: usize,
    slot: usize,
    occupied_mask: u16,
    tag: u8,
    key: K,
    val: V,
) -> Result<(), Abort>
where
    C: MemCtx,
    K: Plain,
    V: Plain,
{
    let b = raw.bucket(bucket_idx);
    let m = raw.meta(bucket_idx);
    // SAFETY: stripe words live as long as the table; the caller holds
    // writer-side mutual exclusion (global lock or elided execution).
    unsafe { ctx.seq_write_begin(stripes.stripe(bucket_idx).word())? };
    // SAFETY: bucket/metadata storage outlives the critical section;
    // mutual exclusion per the enclosing regime.
    unsafe {
        ctx.store(m.partial_ptr(slot), tag)?;
        ctx.store(b.key_ptr(slot), key)?;
        ctx.store(b.val_ptr(slot), val)?;
        ctx.store(m.occupied_ptr(), occupied_mask | (1 << slot))?;
    }
    Ok(())
}

/// Removes `key` from either candidate bucket, returning its value.
pub(crate) fn remove_key<C, K, V, const B: usize>(
    ctx: &mut C,
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    ks: KeySlots,
    key: &K,
) -> Result<Option<V>, Abort>
where
    C: MemCtx,
    K: Plain + Eq,
    V: Plain,
{
    for bucket_idx in [ks.i1, ks.i2] {
        if let Some(slot) = find_key(ctx, raw, bucket_idx, ks.tag, key)? {
            let b = raw.bucket(bucket_idx);
            let m = raw.meta(bucket_idx);
            // SAFETY: bucket storage outlives the critical section.
            let val = unsafe { ctx.load(b.val_ptr(slot) as *const V)? };
            // SAFETY: stripe word lives as long as the table.
            unsafe { ctx.seq_write_begin(stripes.stripe(bucket_idx).word())? };
            // SAFETY: as above.
            let mask = unsafe { ctx.load(m.occupied_ptr() as *const u16)? };
            // SAFETY: as above.
            unsafe { ctx.store(m.occupied_ptr(), mask & !(1 << slot))? };
            return Ok(Some(val));
        }
        if ks.i2 == ks.i1 {
            break;
        }
    }
    Ok(None)
}

/// Updates the value of an existing `key`, returning whether it was found.
pub(crate) fn update_key<C, K, V, const B: usize>(
    ctx: &mut C,
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    ks: KeySlots,
    key: &K,
    val: V,
) -> Result<bool, Abort>
where
    C: MemCtx,
    K: Plain + Eq,
    V: Plain,
{
    for bucket_idx in [ks.i1, ks.i2] {
        if let Some(slot) = find_key(ctx, raw, bucket_idx, ks.tag, key)? {
            let b = raw.bucket(bucket_idx);
            // SAFETY: stripe word and bucket storage outlive the section.
            unsafe {
                ctx.seq_write_begin(stripes.stripe(bucket_idx).word())?;
                ctx.store(b.val_ptr(slot), val)?;
            }
            return Ok(true);
        }
        if ks.i2 == ks.i1 {
            break;
        }
    }
    Ok(false)
}

/// Validates and applies a cuckoo path's displacements, hole moving
/// backwards (dest written before source cleared, so readers never miss
/// the item — it may transiently exist twice, never zero times).
///
/// Returns `Ok(false)` when validation finds the path stale; displacements
/// already applied remain (they are individually valid).
pub(crate) fn execute_path<C, K, V, const B: usize>(
    ctx: &mut C,
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    path: &[PathEntry],
) -> Result<bool, Abort>
where
    C: MemCtx,
    K: Plain,
    V: Plain,
{
    if path.len() < 2 {
        return Ok(true);
    }
    for i in (0..path.len() - 1).rev() {
        let src = path[i];
        let dst = path[i + 1];
        let sb = raw.bucket(src.bucket);
        let db = raw.bucket(dst.bucket);
        let sm = raw.meta(src.bucket);
        let dm = raw.meta(dst.bucket);
        debug_assert_ne!(src.bucket, dst.bucket, "alt bucket equals primary");

        // Validate: source still holds an item with the observed tag and
        // the destination slot is still free.
        // SAFETY: metadata storage outlives the critical section.
        let s_mask = unsafe { ctx.load(sm.occupied_ptr() as *const u16)? };
        if s_mask & (1 << src.slot) == 0 {
            return Ok(false);
        }
        // SAFETY: as above.
        let s_tag = unsafe { ctx.load(sm.partial_ptr(src.slot as usize) as *const u8)? };
        if s_tag != src.tag {
            return Ok(false);
        }
        // SAFETY: as above.
        let d_mask = unsafe { ctx.load(dm.occupied_ptr() as *const u16)? };
        if d_mask & (1 << dst.slot) != 0 {
            return Ok(false);
        }

        // SAFETY: stripe words live as long as the table.
        unsafe {
            ctx.seq_write_begin(stripes.stripe(src.bucket).word())?;
            ctx.seq_write_begin(stripes.stripe(dst.bucket).word())?;
        }
        // SAFETY: bucket/metadata storage outlives the critical section;
        // `K`/`V` are `Plain`, and under transactional execution the
        // loads are validated.
        unsafe {
            let k = ctx.load(sb.key_ptr(src.slot as usize) as *const K)?;
            let v = ctx.load(sb.val_ptr(src.slot as usize) as *const V)?;
            ctx.store(dm.partial_ptr(dst.slot as usize), src.tag)?;
            ctx.store(db.key_ptr(dst.slot as usize), k)?;
            ctx.store(db.val_ptr(dst.slot as usize), v)?;
            ctx.store(dm.occupied_ptr(), d_mask | (1 << dst.slot))?;
            ctx.store(sm.occupied_ptr(), s_mask & !(1 << src.slot))?;
        }
    }
    Ok(true)
}

/// Algorithm 2's critical section (paper §4.3.1): duplicate check, direct
/// add, then validated execution of a pre-discovered path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn insert_critical<C, K, V, const B: usize>(
    ctx: &mut C,
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    ks: KeySlots,
    key: K,
    val: V,
    path: Option<&[PathEntry]>,
) -> Result<CritOutcome, Abort>
where
    C: MemCtx,
    K: Plain + Eq,
    V: Plain,
{
    if find_key(ctx, raw, ks.i1, ks.tag, &key)?.is_some()
        || (ks.i2 != ks.i1 && find_key(ctx, raw, ks.i2, ks.tag, &key)?.is_some())
    {
        return Ok(CritOutcome::Exists);
    }
    if try_add(ctx, raw, stripes, ks.i1, ks.tag, key, val)?
        || (ks.i2 != ks.i1 && try_add(ctx, raw, stripes, ks.i2, ks.tag, key, val)?)
    {
        return Ok(CritOutcome::Inserted);
    }
    let Some(path) = path else {
        return Ok(CritOutcome::NeedPath);
    };
    if !execute_path(ctx, raw, stripes, path)? {
        return Ok(CritOutcome::PathStale);
    }
    let head = path[0];
    debug_assert!(head.bucket == ks.i1 || head.bucket == ks.i2);
    if add_at_slot(
        ctx,
        raw,
        stripes,
        head.bucket,
        head.slot as usize,
        ks.tag,
        key,
        val,
    )? {
        Ok(CritOutcome::Inserted)
    } else {
        Ok(CritOutcome::PathStale)
    }
}

/// Algorithm 1's critical section (paper §4.3.1): the *entire* insert —
/// duplicate check, DFS path search, and execution — inside one critical
/// section. This is the MemC3 baseline configuration whose enormous
/// transactional footprint the paper's Figure 5b quantifies.
#[allow(clippy::too_many_arguments)] // mirrors the paper's operation signature
pub(crate) fn insert_critical_full<C, K, V, const B: usize>(
    ctx: &mut C,
    raw: &RawTable<K, V, B>,
    stripes: &LockStripes,
    ks: KeySlots,
    key: K,
    val: V,
    max_slots: usize,
    scratch: &mut SearchScratch,
) -> Result<CritOutcome, Abort>
where
    C: MemCtx,
    K: Plain + Eq,
    V: Plain,
{
    match insert_critical(ctx, raw, stripes, ks, key, val, None)? {
        CritOutcome::NeedPath => {}
        done => return Ok(done),
    }
    if !dfs_search_in(ctx, raw, ks.i1, ks.i2, max_slots, scratch)? {
        return Ok(CritOutcome::SearchFull);
    }
    // The path came from this critical section's own (consistent) reads,
    // so execution cannot find it stale; re-validation is still run for
    // uniformity and costs only re-reads of buckets already in cache (or
    // the read set).
    let path = std::mem::take(&mut scratch.path);
    let r = insert_critical(ctx, raw, stripes, ks, key, val, Some(&path));
    scratch.path = path;
    r
}

/// Two-way random-walk DFS with every read routed through the context, so
/// transactional execution accrues the walk's full read footprint.
fn dfs_search_in<C, K, V, const B: usize>(
    ctx: &mut C,
    raw: &RawTable<K, V, B>,
    i1: usize,
    i2: usize,
    max_slots: usize,
    scratch: &mut SearchScratch,
) -> Result<bool, Abort>
where
    C: MemCtx,
{
    scratch.path.clear();
    let mut entries: [Vec<PathEntry>; 2] = [Vec::with_capacity(64), Vec::with_capacity(64)];
    let mut at = [i1, i2];
    let n_walks = if i1 == i2 { 1 } else { 2 };

    let mut examined = 0usize;
    loop {
        for w in 0..n_walks {
            if examined >= max_slots {
                return Ok(false);
            }
            examined += B;
            let m = raw.meta(at[w]);
            // SAFETY: metadata storage outlives the critical section.
            let mask = unsafe { ctx.load(m.occupied_ptr() as *const u16)? };
            let free = !mask & BucketMeta::<B>::FULL_MASK;
            if free != 0 {
                scratch.path.append(&mut entries[w]);
                scratch.path.push(PathEntry {
                    bucket: at[w],
                    slot: free.trailing_zeros() as u8,
                    tag: 0,
                });
                return Ok(true);
            }
            let slot = (scratch.next_random() % B as u64) as usize;
            // SAFETY: as above.
            let tag = unsafe { ctx.load(m.partial_ptr(slot) as *const u8)? };
            if tag == 0 {
                continue;
            }
            entries[w].push(PathEntry {
                bucket: at[w],
                slot: slot as u8,
                tag,
            });
            at[w] = raw.alt_index(at[w], tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuckoo::hash::{key_slots, RandomState};
    use htm::DirectCtx;

    type Raw = RawTable<u64, u64, 4>;

    fn setup() -> (Raw, LockStripes, RandomState) {
        (
            Raw::with_capacity(4096),
            LockStripes::new(64),
            RandomState::with_seed(11),
        )
    }

    fn ks_for(raw: &Raw, hb: &RandomState, key: u64) -> KeySlots {
        key_slots(hb, &key, raw.mask())
    }

    /// What a reader of these tables sees for `key`: the tests are
    /// single-threaded, so a plain probe of both candidate buckets, once
    /// every publication has closed its stripe's write window.
    fn get(raw: &Raw, stripes: &LockStripes, ks: KeySlots, key: u64) -> Option<u64> {
        [ks.i1, ks.i2].into_iter().find_map(|bi| {
            assert_eq!(
                stripes.stripe(bi).version() % 2,
                0,
                "write window left open"
            );
            let b = raw.bucket(bi);
            // SAFETY: single-threaded; occupied slots hold initialized entries.
            (0..4)
                .find(|&s| raw.meta(bi).is_occupied(s) && unsafe { *b.key_ptr(s) } == key)
                .map(|s| unsafe { *b.val_ptr(s) })
        })
    }

    #[test]
    fn insert_find_remove_roundtrip() {
        let (raw, stripes, hb) = setup();
        let mut ctx = DirectCtx::new();
        for key in 0..100u64 {
            let ks = ks_for(&raw, &hb, key);
            let out =
                insert_critical(&mut ctx, &raw, &stripes, ks, key, key * 2, None).unwrap();
            assert_eq!(out, CritOutcome::Inserted);
            ctx.finish();
        }
        for key in 0..100u64 {
            let ks = ks_for(&raw, &hb, key);
            assert_eq!(get(&raw, &stripes, ks, key), Some(key * 2));
        }
        for key in (0..100u64).step_by(2) {
            let ks = ks_for(&raw, &hb, key);
            assert_eq!(
                remove_key(&mut ctx, &raw, &stripes, ks, &key).unwrap(),
                Some(key * 2)
            );
            ctx.finish();
        }
        for key in 0..100u64 {
            let ks = ks_for(&raw, &hb, key);
            let expect = if key % 2 == 0 { None } else { Some(key * 2) };
            assert_eq!(get(&raw, &stripes, ks, key), expect);
        }
    }

    #[test]
    fn duplicate_insert_reports_exists() {
        let (raw, stripes, hb) = setup();
        let mut ctx = DirectCtx::new();
        let ks = ks_for(&raw, &hb, 7);
        assert_eq!(
            insert_critical(&mut ctx, &raw, &stripes, ks, 7u64, 1u64, None).unwrap(),
            CritOutcome::Inserted
        );
        ctx.finish();
        assert_eq!(
            insert_critical(&mut ctx, &raw, &stripes, ks, 7u64, 2u64, None).unwrap(),
            CritOutcome::Exists
        );
        ctx.finish();
        assert_eq!(get(&raw, &stripes, ks, 7u64), Some(1));
    }

    #[test]
    fn update_existing_key() {
        let (raw, stripes, hb) = setup();
        let mut ctx = DirectCtx::new();
        let ks = ks_for(&raw, &hb, 5);
        insert_critical(&mut ctx, &raw, &stripes, ks, 5u64, 50u64, None).unwrap();
        ctx.finish();
        assert!(update_key(&mut ctx, &raw, &stripes, ks, &5u64, 55u64).unwrap());
        ctx.finish();
        assert_eq!(get(&raw, &stripes, ks, 5u64), Some(55));
        let ks9 = ks_for(&raw, &hb, 9);
        assert!(!update_key(&mut ctx, &raw, &stripes, ks9, &9u64, 1u64).unwrap());
        ctx.finish();
    }

    #[test]
    fn full_buckets_need_path_and_full_insert_resolves_it() {
        let (raw, stripes, hb) = setup();
        let mut ctx = DirectCtx::new();
        let ks = ks_for(&raw, &hb, 1000);
        // Fill both candidate buckets directly.
        for bi in [ks.i1, ks.i2] {
            let mut fake = 0u64;
            while let Some(s) = raw.meta(bi).empty_slot() {
                // SAFETY: single-threaded test.
                unsafe { raw.write_entry(bi, s, 9, fake, 0) };
                fake += 1;
            }
        }
        assert_eq!(
            insert_critical(&mut ctx, &raw, &stripes, ks, 1000u64, 1u64, None).unwrap(),
            CritOutcome::NeedPath
        );
        ctx.finish();
        let mut scratch = SearchScratch::default();
        let out = insert_critical_full(
            &mut ctx, &raw, &stripes, ks, 1000u64, 1u64, 2000, &mut scratch,
        )
        .unwrap();
        assert_eq!(out, CritOutcome::Inserted);
        ctx.finish();
        assert_eq!(get(&raw, &stripes, ks, 1000u64), Some(1));
        // Every displaced fake key must still be findable via its tag's
        // alternate-bucket relation: total occupancy is conserved + 1.
        assert_eq!(raw.count_occupied(), 9);
    }

    #[test]
    fn stale_path_is_detected() {
        let (raw, stripes, hb) = setup();
        let mut ctx = DirectCtx::new();
        let ks = ks_for(&raw, &hb, 42);
        // Build a fake 2-entry path whose source slot does not hold the
        // expected tag.
        let path = [
            PathEntry {
                bucket: ks.i1,
                slot: 0,
                tag: 77,
            },
            PathEntry {
                bucket: raw.alt_index(ks.i1, 77),
                slot: 0,
                tag: 0,
            },
        ];
        assert!(!execute_path(&mut ctx, &raw, &stripes, &path).unwrap());
        ctx.finish();
    }

    #[test]
    fn transactional_and_direct_agree() {
        use htm::{HtmDomain, TxCtx};
        let (raw, stripes, hb) = setup();
        let domain = HtmDomain::new();
        for key in 0..200u64 {
            let ks = ks_for(&raw, &hb, key);
            let out = domain
                .execute(|tx| {
                    let mut ctx = TxCtx::new(tx);
                    let r = insert_critical(&mut ctx, &raw, &stripes, ks, key, key + 1, None)?;
                    ctx.finish();
                    Ok(r)
                })
                .unwrap();
            assert_eq!(out, CritOutcome::Inserted, "key {key}");
        }
        for key in 0..200u64 {
            let ks = ks_for(&raw, &hb, key);
            assert_eq!(get(&raw, &stripes, ks, key), Some(key + 1));
        }
        // Stripe versions must be even (all publications completed).
        for i in 0..64 {
            assert_eq!(stripes.stripe(i).version() % 2, 0);
        }
    }
}
