//! The raw bucket array shared by every table flavor.
//!
//! A [`RawTable`] is pure storage: a power-of-two array of entry
//! [`Bucket`]s, the parallel packed [`BucketMeta`] array (occupancy
//! bitmaps + tags — everything path search reads), and the index mask.
//! Concurrency control (striped locks, global locks, transactions) lives
//! in the table types layered on top.

use crate::bucket::{Bucket, BucketMeta};
use crate::hash;
use crate::racy::Plain;

/// A transparent huge page (x86-64, and arm64 with 4 KiB base pages).
const HUGE_PAGE: usize = 2 << 20;

/// Arrays below two huge pages get no huge-page advice: only whole
/// aligned 2 MiB extents can become huge pages, and a smaller array may
/// hold none.
const HUGE_PAGE_MIN_BYTES: usize = 2 * HUGE_PAGE;

/// Advises the kernel to back the whole 2 MiB extents inside `array`
/// with transparent huge pages. `Ok(false)`: nothing was asked, because
/// the array is below [`HUGE_PAGE_MIN_BYTES`] or the platform has no
/// such advice.
fn advise_huge_pages<T>(array: &[T]) -> std::io::Result<bool> {
    let start = array.as_ptr() as usize;
    let len = core::mem::size_of_val(array);
    if len < HUGE_PAGE_MIN_BYTES {
        return Ok(false);
    }
    // At least one whole extent lies inside: `len` spans two.
    let first = start.next_multiple_of(HUGE_PAGE);
    let end = (start + len) / HUGE_PAGE * HUGE_PAGE;
    thp::advise(first, end - first)
}

#[cfg(all(target_os = "linux", not(miri)))]
mod thp {
    /// `MADV_HUGEPAGE`, from the kernel's `asm-generic/mman-common.h`.
    const MADV_HUGEPAGE: i32 = 14;

    extern "C" {
        /// `int madvise(void *addr, size_t length, int advice);` — std
        /// links the C library, and no `libc` crate resolves offline.
        fn madvise(addr: *mut core::ffi::c_void, length: usize, advice: i32) -> i32;
    }

    pub(super) fn advise(addr: usize, len: usize) -> std::io::Result<bool> {
        // SAFETY: advice changes no memory contents or protections; the
        // range is page-aligned and lies inside one live allocation of
        // the caller's, so the call cannot disturb memory it does not own.
        if unsafe { madvise(addr as *mut core::ffi::c_void, len, MADV_HUGEPAGE) } == 0 {
            Ok(true)
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
}

#[cfg(not(all(target_os = "linux", not(miri))))]
mod thp {
    pub(super) fn advise(_addr: usize, _len: usize) -> std::io::Result<bool> {
        Ok(false)
    }
}

/// Allocates `n` zero-filled `T`s, then advises the array onto
/// transparent huge pages when it spans at least 4 MiB.
///
/// The allocation is not touched: for large arrays the allocator maps
/// zeroed pages lazily, so construction is O(1) and a page becomes
/// resident when something first writes to it. The advice comes before
/// any such write, so those first faults take 2 MiB pages wherever the
/// kernel has them: a random access then needs one TLB entry per 2 MiB
/// instead of one per 4 KiB. Off Linux, under Miri, or where the kernel
/// refuses the advice, the array is allocated exactly as without it.
///
/// # Safety
///
/// The all-zero bit pattern must be a valid `T`.
pub unsafe fn zeroed_slice<T>(n: usize) -> Box<[T]> {
    // SAFETY: zero bytes are a valid `T`, per this function's contract.
    let array = unsafe { Box::new_zeroed_slice(n).assume_init() };
    // Best effort: a refused advice leaves ordinary 4 KiB pages.
    let _ = advise_huge_pages(&array);
    array
}

/// Power-of-two array of B-way buckets plus their metadata.
pub struct RawTable<K, V, const B: usize> {
    buckets: Box<[Bucket<K, V, B>]>,
    meta: Box<[BucketMeta<B>]>,
    mask: usize,
}

// SAFETY: the table owns its entries; transferring the whole table moves
// them, which is safe exactly when the entry types are `Send`.
unsafe impl<K: Send, V: Send, const B: usize> Send for RawTable<K, V, B> {}

// SAFETY: shared access to the table hands out entry copies/references
// across threads, requiring `Sync`; displacement also moves entries
// between buckets while shared, requiring `Send`.
unsafe impl<K: Send + Sync, V: Send + Sync, const B: usize> Sync for RawTable<K, V, B> {}

impl<K, V, const B: usize> RawTable<K, V, B> {
    /// Minimum bucket count: guarantees every tag's alternate bucket is
    /// distinct from its primary (see [`crate::hash::alt_index`]).
    pub const MIN_BUCKETS: usize = 256;

    /// Creates a table with at least `capacity` item slots, rounding the
    /// bucket count up to a power of two.
    ///
    /// Both arrays come from [`zeroed_slice`] rather than per-element
    /// construction: construction is O(1), and the touch cost is paid as
    /// buckets are first used. This keeps `begin_migration` — which
    /// allocates the doubled table inline in whichever insert trips the
    /// expansion — off the latency tail. Each array of at least 4 MiB is
    /// advised onto transparent huge pages before anything touches it.
    pub fn with_capacity(capacity: usize) -> Self {
        // Bucket::new() carries the associativity bound; keep it here.
        assert!(B > 0 && B <= crate::bucket::MAX_WAYS, "set-associativity must be 1..=16");
        let want_buckets = capacity.div_ceil(B).max(Self::MIN_BUCKETS);
        let n = want_buckets.next_power_of_two();
        // SAFETY: all-zero bytes are a valid `Bucket` (entry storage is
        // `MaybeUninit`; occupancy lives solely in the metadata).
        let buckets = unsafe { zeroed_slice(n) };
        // SAFETY: all-zero bytes are a valid `BucketMeta` (atomics at 0 =
        // nothing occupied, no tags).
        let meta = unsafe { zeroed_slice(n) };
        RawTable { buckets, meta, mask: n - 1 }
    }

    /// Number of buckets (a power of two).
    #[inline]
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket index mask (`n_buckets - 1`).
    #[inline]
    pub fn mask(&self) -> usize {
        self.mask
    }

    /// Total item capacity (`n_buckets * B`).
    #[inline]
    pub fn total_slots(&self) -> usize {
        self.n_buckets() * B
    }

    /// The entry storage of bucket `index`.
    #[inline]
    pub fn bucket(&self, index: usize) -> &Bucket<K, V, B> {
        &self.buckets[index]
    }

    /// The metadata (occupancy + tags) of bucket `index`.
    #[inline]
    pub fn meta(&self, index: usize) -> &BucketMeta<B> {
        &self.meta[index]
    }

    /// The alternate bucket index for an item with `tag` in `index`.
    #[inline]
    pub fn alt_index(&self, index: usize, tag: u8) -> usize {
        hash::alt_index(index, tag, self.mask)
    }

    /// Write-intent hint for bucket `index`'s metadata word (tags +
    /// occupancy), for a write pipeline fronting the table: the line is
    /// about to be locked and stored to, so prime it for ownership.
    #[inline]
    pub fn prefetch_meta_write(&self, index: usize) {
        crate::prefetch::prefetch_write(self.meta(index) as *const BucketMeta<B>);
    }

    /// Hints the start of bucket `index`'s entry storage (the key array)
    /// into cache, for an unwarmed probe headed for that bucket's
    /// full-key comparisons.
    #[inline]
    pub fn prefetch_data(&self, index: usize) {
        crate::prefetch::prefetch_read(self.bucket(index) as *const Bucket<K, V, B>);
    }

    /// Write-intent hints for every line of buckets `first..first + n`,
    /// metadata and entries: a run a migration is about to drain or fill.
    #[inline]
    pub(crate) fn prefetch_run_write(&self, first: usize, n: usize) {
        let meta: *const BucketMeta<B> = self.meta(first);
        crate::prefetch::lines(meta.cast(), n * size_of::<BucketMeta<B>>(), crate::prefetch::prefetch_write::<u8>);
        let entries: *const Bucket<K, V, B> = self.bucket(first);
        crate::prefetch::lines(entries.cast(), n * size_of::<Bucket<K, V, B>>(), crate::prefetch::prefetch_write::<u8>);
    }

    /// Writes a full entry into `(bucket, slot)` and publishes it,
    /// assuming exclusive write access to that bucket.
    ///
    /// # Safety
    ///
    /// The caller must hold whatever writer-side mutual exclusion covers
    /// the bucket, and `slot` must currently be unoccupied (its storage
    /// is treated as uninitialized).
    pub unsafe fn write_entry(&self, bucket: usize, slot: usize, tag: u8, key: K, val: V) {
        let m = self.meta(bucket);
        debug_assert!(!m.is_occupied(slot));
        m.set_partial(slot, tag);
        let b = self.bucket(bucket);
        // SAFETY: slot is unoccupied, so the storage is ours to
        // initialize; exclusive write access per this function's contract.
        unsafe {
            b.key_ptr(slot).write(key);
            b.val_ptr(slot).write(val);
        }
        m.set_occupied(slot);
    }

    /// Removes the entry at `(bucket, slot)`, returning its key and
    /// value, assuming exclusive write access.
    ///
    /// # Safety
    ///
    /// The caller must hold writer-side mutual exclusion for the bucket
    /// and `slot` must be occupied.
    pub unsafe fn take_entry(&self, bucket: usize, slot: usize) -> (K, V) {
        let m = self.meta(bucket);
        debug_assert!(m.is_occupied(slot));
        m.clear_occupied(slot);
        let b = self.bucket(bucket);
        // SAFETY: the slot was occupied, so both fields are initialized;
        // after `clear_occupied` the storage is logically dead and we may
        // move out of it.
        unsafe { (b.key_ptr(slot).read(), b.val_ptr(slot).read()) }
    }

    /// Moves the entry at `(src_bucket, src_slot)` into the empty slot
    /// `(dst_bucket, dst_slot)` with plain reads/writes, **destination
    /// first**: the destination is fully written and published before
    /// the source's occupied bit is cleared, so there is no instant at
    /// which the entry is in neither bucket. This is the move discipline
    /// the shared hole-backwards path executor
    /// ([`crate::search::exec`]) relies on.
    ///
    /// # Safety
    ///
    /// The caller must hold writer-side mutual exclusion over *both*
    /// buckets; `src_slot` must be occupied and `dst_slot` unoccupied.
    pub unsafe fn move_entry(
        &self,
        src_bucket: usize,
        src_slot: usize,
        dst_bucket: usize,
        dst_slot: usize,
        tag: u8,
    ) {
        let sm = self.meta(src_bucket);
        debug_assert!(sm.is_occupied(src_slot));
        let sb = self.bucket(src_bucket);
        // SAFETY: the source slot is occupied, so both fields are
        // initialized; reading (not taking) duplicates the bits, but the
        // source's occupied bit is cleared below before this function
        // returns, so exactly one logically-live copy ever exists and
        // drop glue runs once.
        let (k, v) = unsafe { (sb.key_ptr(src_slot).read(), sb.val_ptr(src_slot).read()) };
        // SAFETY: destination unoccupied and covered by the caller's
        // exclusion, per this function's contract.
        unsafe { self.write_entry(dst_bucket, dst_slot, tag, k, v) };
        sm.clear_occupied(src_slot);
    }

    /// Exact number of occupied slots. Only meaningful when writers are
    /// quiescent (or all stripes are held); individual tables maintain
    /// faster sharded counters for concurrent use.
    pub fn count_occupied(&self) -> usize {
        self.meta.iter().map(|m| m.occupied_count()).sum()
    }

    /// Bytes of memory the bucket and metadata arrays occupy.
    pub fn memory_bytes(&self) -> usize {
        self.buckets.len() * core::mem::size_of::<Bucket<K, V, B>>()
            + self.meta.len() * core::mem::size_of::<BucketMeta<B>>()
    }

    /// Lowest occupied slot index in `bucket`, if any.
    #[inline]
    pub fn first_occupied_slot(&self, bucket: usize) -> Option<usize> {
        let mask = self.meta(bucket).occupied_mask();
        if mask == 0 {
            None
        } else {
            Some(mask.trailing_zeros() as usize)
        }
    }

    /// Moves every entry out of the table into `out`.
    ///
    /// # Safety
    ///
    /// The caller holds writer exclusion over the whole table.
    pub unsafe fn drain_into(&self, out: &mut Vec<(K, V)>) {
        out.reserve(self.count_occupied());
        for bi in 0..self.n_buckets() {
            while let Some(slot) = self.first_occupied_slot(bi) {
                // SAFETY: exclusion per this function's contract; the
                // slot is occupied (just read under that exclusion).
                out.push(unsafe { self.take_entry(bi, slot) });
            }
        }
    }

    /// Iterates over `(bucket_index, slot)` of every occupied slot.
    ///
    /// Only sound to *use* the yielded coordinates while writers are
    /// excluded; the iteration itself reads only atomics.
    pub fn occupied_coords(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.meta.iter().enumerate().flat_map(|(bi, m)| {
            let mask = m.occupied_mask();
            (0..B).filter_map(move |s| {
                if mask & (1 << s) != 0 {
                    Some((bi, s))
                } else {
                    None
                }
            })
        })
    }
}

impl<K: Plain, V, const B: usize> RawTable<K, V, B> {
    /// Racy-but-race-free copy of the key at `(bucket, slot)`, for
    /// optimistic readers that validate a version counter afterwards.
    ///
    /// The returned value may be torn if a writer raced us — `K: Plain`
    /// makes that merely a wrong value, which the caller's validation
    /// discards.
    ///
    /// # Safety
    ///
    /// `slot < B`. (The slot need not be stably occupied.)
    #[inline]
    pub unsafe fn read_key_racy(&self, bucket: usize, slot: usize) -> K {
        let mut out = core::mem::MaybeUninit::<K>::uninit();
        // SAFETY: key storage is always valid bucket memory; racing
        // writers are tolerated because the copy is per-chunk atomic.
        unsafe {
            crate::racy::load_bytes(
                self.bucket(bucket).key_ptr(slot) as usize,
                out.as_mut_ptr().cast::<u8>(),
                core::mem::size_of::<K>(),
            );
            out.assume_init()
        }
    }
}

impl<K, V: Plain, const B: usize> RawTable<K, V, B> {
    /// Racy-but-race-free copy of the value at `(bucket, slot)`; see
    /// [`RawTable::read_key_racy`].
    ///
    /// # Safety
    ///
    /// `slot < B`.
    #[inline]
    pub unsafe fn read_val_racy(&self, bucket: usize, slot: usize) -> V {
        let mut out = core::mem::MaybeUninit::<V>::uninit();
        // SAFETY: as for `read_key_racy`.
        unsafe {
            crate::racy::load_bytes(
                self.bucket(bucket).val_ptr(slot) as usize,
                out.as_mut_ptr().cast::<u8>(),
                core::mem::size_of::<V>(),
            );
            out.assume_init()
        }
    }
}

impl<K: Plain, V: Plain, const B: usize> RawTable<K, V, B> {
    /// Writes a full entry with atomic-chunk stores, for writers whose
    /// readers are optimistic (they may observe the write in progress and
    /// must merely never see garbage *after validation passes*).
    ///
    /// # Safety
    ///
    /// The caller must hold writer-side mutual exclusion for the bucket
    /// (and have made the covering version counter odd, so readers racing
    /// these stores fail validation); `slot` must be unoccupied.
    pub unsafe fn write_entry_racy(&self, bucket: usize, slot: usize, tag: u8, key: K, val: V) {
        let m = self.meta(bucket);
        debug_assert!(!m.is_occupied(slot));
        m.set_partial(slot, tag);
        let b = self.bucket(bucket);
        // SAFETY: exclusive writer per contract; destination is bucket
        // storage valid for K/V bytes.
        unsafe {
            crate::racy::store_bytes(
                b.key_ptr(slot) as usize,
                &key as *const K as *const u8,
                core::mem::size_of::<K>(),
            );
            crate::racy::store_bytes(
                b.val_ptr(slot) as usize,
                &val as *const V as *const u8,
                core::mem::size_of::<V>(),
            );
        }
        m.set_occupied(slot);
    }

    /// Moves the entry at `(src_bucket, src_slot)` into the empty slot
    /// `(dst_bucket, dst_slot)` with atomic-chunk publication
    /// (destination first, like [`RawTable::move_entry`]) for tables
    /// whose readers are optimistic: the destination becomes visible —
    /// occupied bit and all — *before* the source's occupied bit clears,
    /// so a reader probing both candidate buckets finds the entry in at
    /// least one of them at every instant and never validates a false
    /// miss.
    ///
    /// # Safety
    ///
    /// The caller must hold writer-side mutual exclusion over both
    /// buckets (with the covering version counters odd, so readers
    /// racing the stores fail validation); `src_slot` must be occupied
    /// and `dst_slot` unoccupied.
    pub unsafe fn move_entry_racy(
        &self,
        src_bucket: usize,
        src_slot: usize,
        dst_bucket: usize,
        dst_slot: usize,
        tag: u8,
    ) {
        let sm = self.meta(src_bucket);
        debug_assert!(sm.is_occupied(src_slot));
        let sb = self.bucket(src_bucket);
        // SAFETY: writer exclusion covers the source bucket, so plain
        // reads of its occupied slot are race-free; `K: Plain`/`V: Plain`
        // have no drop glue, so the bitwise duplicate left behind (until
        // `clear_occupied` below) needs no cleanup.
        let (k, v) = unsafe { (sb.key_ptr(src_slot).read(), sb.val_ptr(src_slot).read()) };
        // SAFETY: destination unoccupied per contract; atomic-chunk
        // stores keep racing optimistic readers race-free.
        unsafe { self.write_entry_racy(dst_bucket, dst_slot, tag, k, v) };
        sm.clear_occupied(src_slot);
    }
}

impl<K, V, const B: usize> Drop for RawTable<K, V, B> {
    fn drop(&mut self) {
        if !core::mem::needs_drop::<K>() && !core::mem::needs_drop::<V>() {
            return;
        }
        for (bi, m) in self.meta.iter().enumerate() {
            let mask = m.occupied_mask();
            for slot in 0..B {
                if mask & (1 << slot) != 0 {
                    let b = &self.buckets[bi];
                    // SAFETY: `&mut self`; occupied slots hold initialized
                    // values, dropped exactly once here.
                    unsafe {
                        core::ptr::drop_in_place(b.key_ptr(slot));
                        core::ptr::drop_in_place(b.val_ptr(slot));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn capacity_rounding() {
        let t: RawTable<u64, u64, 4> = RawTable::with_capacity(1000);
        assert!(t.n_buckets().is_power_of_two());
        assert!(t.total_slots() >= 1000);
        assert_eq!(t.mask(), t.n_buckets() - 1);
    }

    #[test]
    fn enforces_minimum_buckets() {
        let t: RawTable<u64, u64, 8> = RawTable::with_capacity(1);
        assert!(t.n_buckets() >= RawTable::<u64, u64, 8>::MIN_BUCKETS);
    }

    #[test]
    fn alt_index_roundtrip_through_table() {
        let t: RawTable<u64, u64, 4> = RawTable::with_capacity(4096);
        for i in [0usize, 17, 300, t.mask()] {
            for tag in [1u8, 77, 255] {
                let a = t.alt_index(i, tag);
                assert_ne!(a, i);
                assert_eq!(t.alt_index(a, tag), i);
            }
        }
    }

    #[test]
    fn write_take_roundtrip_and_occupancy() {
        let t: RawTable<u32, u32, 4> = RawTable::with_capacity(1024);
        assert_eq!(t.count_occupied(), 0);
        // SAFETY: single-threaded exclusive access; slots unoccupied.
        unsafe {
            t.write_entry(3, 0, 9, 1, 2);
            t.write_entry(3, 2, 9, 3, 4);
            t.write_entry(100, 1, 5, 5, 6);
        }
        assert_eq!(t.count_occupied(), 3);
        assert_eq!(t.meta(3).partial(0), 9);
        let coords: Vec<_> = t.occupied_coords().collect();
        assert_eq!(coords, vec![(3, 0), (3, 2), (100, 1)]);
        // SAFETY: slot (3, 2) occupied.
        let (k, v) = unsafe { t.take_entry(3, 2) };
        assert_eq!((k, v), (3, 4));
        assert_eq!(t.count_occupied(), 2);
    }

    #[test]
    fn racy_ops_roundtrip_when_quiescent() {
        let t: RawTable<u64, [u8; 24], 4> = RawTable::with_capacity(1024);
        // SAFETY: single-threaded; slot unoccupied.
        unsafe { t.write_entry_racy(7, 1, 3, 99, [5u8; 24]) };
        // SAFETY: slot in range.
        unsafe {
            assert_eq!(t.read_key_racy(7, 1), 99);
            assert_eq!(t.read_val_racy(7, 1), [5u8; 24]);
        }
        assert!(t.meta(7).is_occupied(1));
    }

    #[test]
    fn drop_runs_for_occupied_slots_only() {
        let counter = Arc::new(());
        {
            let t: RawTable<Arc<()>, Arc<()>, 4> = RawTable::with_capacity(1024);
            // SAFETY: exclusive access; slots unoccupied.
            unsafe {
                t.write_entry(0, 0, 1, Arc::clone(&counter), Arc::clone(&counter));
                t.write_entry(9, 3, 2, Arc::clone(&counter), Arc::clone(&counter));
            }
            assert_eq!(Arc::strong_count(&counter), 5);
        }
        assert_eq!(Arc::strong_count(&counter), 1, "drop freed occupied slots");
    }

    #[test]
    fn take_entry_does_not_double_drop() {
        let counter = Arc::new(());
        {
            let t: RawTable<Arc<()>, u8, 2> = RawTable::with_capacity(512);
            // SAFETY: exclusive access.
            unsafe {
                t.write_entry(0, 0, 1, Arc::clone(&counter), 0);
                let (k, _) = t.take_entry(0, 0);
                drop(k);
            }
        }
        assert_eq!(Arc::strong_count(&counter), 1);
    }

    #[test]
    fn move_entry_relocates_without_double_drop() {
        let counter = Arc::new(());
        {
            let t: RawTable<Arc<()>, u8, 4> = RawTable::with_capacity(1024);
            // SAFETY: exclusive access; slot unoccupied.
            unsafe { t.write_entry(2, 1, 7, Arc::clone(&counter), 9) };
            // SAFETY: source occupied, destination empty.
            unsafe { t.move_entry(2, 1, 50, 3, 7) };
            assert!(!t.meta(2).is_occupied(1));
            assert!(t.meta(50).is_occupied(3));
            assert_eq!(t.meta(50).partial(3), 7);
            // SAFETY: slot occupied (just moved there).
            let (k, v) = unsafe { t.take_entry(50, 3) };
            assert_eq!(v, 9);
            drop(k);
            assert_eq!(Arc::strong_count(&counter), 1, "exactly one live copy");
        }
        assert_eq!(Arc::strong_count(&counter), 1);
    }

    #[test]
    fn move_entry_racy_relocates_and_publishes() {
        let t: RawTable<u64, u64, 4> = RawTable::with_capacity(1024);
        // SAFETY: single-threaded; slot unoccupied.
        unsafe { t.write_entry_racy(7, 1, 3, 99, 77) };
        // SAFETY: source occupied, destination empty.
        unsafe { t.move_entry_racy(7, 1, 200, 0, 3) };
        assert!(!t.meta(7).is_occupied(1));
        assert!(t.meta(200).is_occupied(0));
        // SAFETY: slot in range.
        unsafe {
            assert_eq!(t.read_key_racy(200, 0), 99);
            assert_eq!(t.read_val_racy(200, 0), 77);
        }
    }

    /// Whether some `/proc/self/smaps` mapping overlapping `array` carries
    /// the `hg` (`MADV_HUGEPAGE`) flag.
    #[cfg(all(target_os = "linux", not(miri)))]
    fn huge_page_advised<T>(array: &[T]) -> bool {
        let (start, end) = (array.as_ptr() as usize, array.as_ptr_range().end as usize);
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
        let mut overlaps = false;
        for line in smaps.lines() {
            if let Some(flags) = line.strip_prefix("VmFlags:") {
                if overlaps && flags.split_whitespace().any(|f| f == "hg") {
                    return true;
                }
            } else if let Some((lo, hi)) = line.split(' ').next().and_then(|r| r.split_once('-')) {
                // A mapping header: `lo-hi perms offset dev inode [path]`.
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    overlaps = lo < end && start < hi;
                }
            }
        }
        false
    }

    /// The advice is deterministic where the kernel has THP at all;
    /// whether 2 MiB pages then back the table depends on fragmentation,
    /// so the flag is asserted, not `AnonHugePages`.
    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn large_tables_are_advised_onto_huge_pages() {
        // 2^21 slots of 16-byte entries: 32 MiB of buckets, 4 MiB of
        // metadata.
        let big: RawTable<u64, u64, 8> = RawTable::with_capacity(1 << 21);
        if !huge_page_advised(&big.buckets) {
            // The only excuse: a kernel built without THP refuses it.
            const EINVAL: i32 = 22;
            match advise_huge_pages(&big.buckets) {
                Err(e) if e.raw_os_error() == Some(EINVAL) => return,
                other => panic!("a 32 MiB bucket array was not advised ({other:?})"),
            }
        }
        assert!(huge_page_advised(&big.meta), "a 4 MiB metadata array unadvised");
        // 2^16 slots: 1 MiB of buckets, 128 KiB of metadata.
        let small: RawTable<u64, u64, 8> = RawTable::with_capacity(1 << 16);
        assert_eq!(core::mem::size_of_val(&*small.buckets), 1 << 20);
        assert!(matches!(advise_huge_pages(&small.buckets), Ok(false)));
        assert!(matches!(advise_huge_pages(&small.meta), Ok(false)));
    }

    #[test]
    fn memory_accounting_matches_paper_layout() {
        // 8-way, 8B/8B: 128B of entries + 16B of metadata per bucket =
        // 18B per slot (vs 24B/slot when metadata was inlined and padded).
        let t: RawTable<u64, u64, 8> = RawTable::with_capacity(1 << 14);
        let per_slot = t.memory_bytes() as f64 / t.total_slots() as f64;
        assert!(
            (17.5..18.5).contains(&per_slot),
            "bytes/slot = {per_slot} (paper layout: 16B data + 2B metadata)"
        );
    }
}
