//! B-way set-associative buckets (paper §4.1, §4.3.3).
//!
//! All items live inline in a flat array of buckets — "no pointers or
//! linked lists" — which is where cuckoo hashing's memory efficiency for
//! small key-value pairs comes from. Following the paper's layout, "each
//! bucket has all the keys come first and then the values, and fits
//! exactly two cache lines" for the default 8-way, 8-byte/8-byte
//! configuration: a [`Bucket`] holds **only** keys then values (128
//! bytes), while the hot per-bucket metadata — the occupancy bitmap and
//! the one-byte *partial keys* (tags) — lives in a parallel packed
//! [`BucketMeta`] array (see [`crate::raw::RawTable`]). The split keeps
//! data buckets padding-free (memory efficiency is a headline claim,
//! §6.2) and concentrates everything path search reads into a dense
//! metadata array.
//!
//! Tags let lookups compare one byte before touching full keys, and make
//! a slot's alternate bucket computable without reading the key (see
//! [`crate::hash`]).
//!
//! Buckets and metadata are *passive*: no locking, no version
//! management. Callers combine them with [`crate::sync`] stripes
//! (fine-grained or global locking) or transactional execution. Methods
//! that touch key/value memory are `unsafe` with explicit contracts; the
//! metadata words are atomics, so unlocked path search may read them
//! freely (racy-but-validated, §4.3.1).

use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use crate::sync2::atomic::{AtomicU16, AtomicU64, AtomicU8, Ordering};

/// Maximum supported set-associativity (occupancy bitmap is 16 bits).
pub const MAX_WAYS: usize = 16;

/// Hot per-bucket metadata: per-slot tags + occupancy bitmap.
///
/// Nearly packed (`repr(C, align(8))`: 8 bytes for a 4-way bucket, 16 for
/// 8-way) — the "small additional" overhead the paper accepts on top of
/// the raw entries. Tags come first and the struct is 8-aligned so
/// [`BucketMeta::match_tag_mask`] can compare eight tags per 64-bit SWAR
/// step.
#[repr(C, align(8))]
pub struct BucketMeta<const B: usize> {
    /// Per-slot partial keys; meaningful only for occupied slots.
    partials: [AtomicU8; B],
    /// Bit `s` set means slot `s` holds an initialized key/value.
    occupied: AtomicU16,
}

impl<const B: usize> BucketMeta<B> {
    /// Bitmask with one bit per way.
    pub const FULL_MASK: u16 = if B >= 16 { u16::MAX } else { (1 << B) - 1 };

    /// Creates empty metadata.
    pub fn new() -> Self {
        assert!(B > 0 && B <= MAX_WAYS, "set-associativity must be 1..=16");
        BucketMeta {
            partials: [(); B].map(|_| AtomicU8::new(0)),
            occupied: AtomicU16::new(0),
        }
    }

    /// Bitmask of slots whose tag equals `tag` (the lookup fast path
    /// scans `candidates = match_tag_mask(tag) & occupied_mask()` instead
    /// of probing tags one by one).
    ///
    /// Dispatches at compile time to an explicit vector probe where one
    /// exists — SSE2 on x86_64 (its baseline; 256-bit lanes add nothing
    /// at ≤16 ways), NEON on aarch64 — and otherwise to the portable
    /// SWAR kernel [`BucketMeta::match_tag_mask_swar`], which also
    /// serves as the differential-test oracle for every vector path.
    /// Sanitized/model builds (`miri`, `cuckoo_model`, `cuckoo_tsan`)
    /// and `--cfg cuckoo_force_swar` always take the SWAR kernel, whose
    /// atomic block loads those tools understand; `--cfg
    /// cuckoo_force_simd` asserts the vector path is live (see
    /// [`tag_probe_kind`]).
    #[inline]
    pub fn match_tag_mask(&self, tag: u8) -> u16 {
        #[cfg(all(
            target_arch = "x86_64",
            not(any(miri, cuckoo_model, cuckoo_tsan, cuckoo_force_swar))
        ))]
        return self.match_tag_mask_sse2(tag);
        #[cfg(all(
            target_arch = "aarch64",
            not(any(miri, cuckoo_model, cuckoo_tsan, cuckoo_force_swar))
        ))]
        return self.match_tag_mask_neon(tag);
        #[allow(unreachable_code)]
        self.match_tag_mask_swar(tag)
    }

    /// Portable SWAR tag probe: eight tags compared per 64-bit step.
    ///
    /// Kept alongside the vector kernels as the fallback for targets
    /// without one and as the oracle the differential proptests compare
    /// them against.
    ///
    /// Like individual tag reads, the comparison is racy-but-race-free:
    /// the blocks are loaded through `AtomicU64` (the struct is 8-aligned
    /// and its size is always a multiple of 8, so whole-block loads stay
    /// in bounds; bytes beyond the tag array are masked off).
    #[inline]
    pub fn match_tag_mask_swar(&self, tag: u8) -> u16 {
        const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
        let needle = 0x0101_0101_0101_0101u64.wrapping_mul(tag as u64);
        let base = self.partials.as_ptr().cast::<AtomicU64>();
        let mut mask = 0u16;
        let blocks = B.div_ceil(8);
        for blk in 0..blocks {
            // SAFETY: `repr(C, align(8))` makes `partials` the first
            // field at an 8-aligned address, and `size_of::<Self>()` is a
            // multiple of 8 covering `blocks * 8` bytes (trailing bytes
            // are the occupancy word/padding, masked off below).
            // ORDERING: bucket.meta-acquire
            let block = unsafe { &*base.add(blk) }.load(Ordering::Acquire);
            let x = block ^ needle;
            // Exact per-byte zero detector (no cross-byte borrow, unlike
            // the `(x - 0x01…) & !x & 0x80…` folk formula): the high bit
            // of each byte of `hits` is set iff that byte of `x` is zero,
            // i.e. the tag matched.
            let t = (x & LO7).wrapping_add(LO7);
            let mut hits = !(t | x | LO7);
            while hits != 0 {
                let lane = blk * 8 + (hits.trailing_zeros() as usize) / 8;
                if lane < B {
                    mask |= 1 << lane;
                }
                hits &= hits - 1;
            }
        }
        mask
    }

    /// SSE2 tag probe: every tag byte compared in one (or, for wide
    /// buckets, one 128-bit) `pcmpeqb`. AVX2 detection selects the same
    /// kernel — 256-bit lanes add nothing at ≤16 ways (see the dispatch
    /// table in DESIGN.md §5j).
    ///
    /// Raciness contract: the vector load is a *non-atomic* read of bytes
    /// that concurrent writers store through `AtomicU8`. That is the same
    /// racy-but-validated discipline as the SWAR kernel's block loads
    /// (§4.3.1) — every probe result is revalidated under a stripe lock
    /// (writers) or a seqlock stamp (optimistic readers) before it is
    /// believed, so a torn or stale byte can only cause a spurious
    /// candidate or a retry, never a wrong answer. Sanitizers that flag
    /// such reads (Miri, TSan, loom) are routed to the SWAR kernel by
    /// `match_tag_mask`'s cfg dispatch and never reach this function.
    #[cfg(all(
        target_arch = "x86_64",
        not(any(miri, cuckoo_model, cuckoo_tsan, cuckoo_force_swar))
    ))]
    #[inline]
    fn match_tag_mask_sse2(&self, tag: u8) -> u16 {
        use core::arch::x86_64::{
            __m128i, _mm_cmpeq_epi8, _mm_loadl_epi64, _mm_loadu_si128, _mm_movemask_epi8,
            _mm_set1_epi8,
        };
        let base = self.partials.as_ptr().cast::<__m128i>();
        // SAFETY: SSE2 is part of the x86_64 baseline, so every
        // intrinsic in this function is available on any CPU this code
        // can execute on (the cfg above restricts to x86_64).
        let needle = unsafe { _mm_set1_epi8(tag as i8) };
        let block = if B > 6 {
            // SAFETY: `repr(C, align(8))` puts `partials` first, and
            // `size_of::<Self>()` = 8-rounded `B + 2` ≥ 16 whenever
            // B > 6, so the unaligned 16-byte load stays in bounds
            // (bytes past the tag array are the occupancy word and
            // padding, masked off below).
            unsafe { _mm_loadu_si128(base) }
        } else {
            // SAFETY: the struct is 8-aligned and ≥ 8 bytes, so the
            // 64-bit load stays in bounds for B ≤ 6 (trailing bytes
            // masked off below).
            unsafe { _mm_loadl_epi64(base) }
        };
        // Order the racy tag bytes after the occupancy/stamp loads the
        // caller pairs them with, exactly like the SWAR kernel's
        // per-block Acquire loads.
        // ORDERING: simd_probe
        core::sync::atomic::fence(core::sync::atomic::Ordering::Acquire);
        // SAFETY: baseline SSE2 (see above); pure register ops.
        let hits = unsafe { _mm_movemask_epi8(_mm_cmpeq_epi8(block, needle)) };
        (hits as u16) & Self::FULL_MASK
    }

    /// NEON tag probe (aarch64 mandates NEON, so this is compile-time
    /// dispatched). Same raciness contract as the SSE2 kernel.
    #[cfg(all(
        target_arch = "aarch64",
        not(any(miri, cuckoo_model, cuckoo_tsan, cuckoo_force_swar))
    ))]
    #[inline]
    #[allow(unused_unsafe)]
    fn match_tag_mask_neon(&self, tag: u8) -> u16 {
        use core::arch::aarch64::{
            vceq_u8, vceqq_u8, vdup_n_u8, vdupq_n_u8, vget_lane_u64, vld1_u8, vld1q_u8,
            vreinterpret_u64_u8, vreinterpretq_u16_u8, vshrn_n_u16,
        };
        let base = self.partials.as_ptr().cast::<u8>();
        let mut mask = 0u16;
        if B > 6 {
            // SAFETY: as in the SSE2 kernel, `size_of::<Self>()` ≥ 16
            // for B > 6, so the 16-byte load stays in bounds; NEON has
            // no byte movemask, so the 16 lanes are narrowed to one
            // nibble each (the `vshrn` idiom) and the nibbles' low bits
            // collected.
            let eq = unsafe { vceqq_u8(vld1q_u8(base), vdupq_n_u8(tag)) };
            // SAFETY: pure register-to-register lane shuffling on the
            // comparison result above; no memory access.
            let nibbles =
                unsafe { vget_lane_u64(vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(eq), 4)), 0) };
            for lane in 0..16 {
                mask |= (((nibbles >> (4 * lane)) & 1) as u16) << lane;
            }
        } else {
            // SAFETY: struct is 8-aligned and ≥ 8 bytes, so the 8-byte
            // load stays in bounds for B ≤ 6.
            let eq = unsafe { vget_lane_u64(vreinterpret_u64_u8(vceq_u8(vld1_u8(base), vdup_n_u8(tag))), 0) };
            let mut hits = eq & 0x8080_8080_8080_8080;
            while hits != 0 {
                mask |= 1 << (hits.trailing_zeros() / 8);
                hits &= hits - 1;
            }
        }
        // Same pairing as the SWAR kernel's per-block Acquire loads.
        // ORDERING: simd_probe
        core::sync::atomic::fence(core::sync::atomic::Ordering::Acquire);
        mask & Self::FULL_MASK
    }

    /// Current occupancy bitmap.
    #[inline]
    pub fn occupied_mask(&self) -> u16 {
        self.occupied.load(Ordering::Acquire) // ORDERING: bucket.meta-acquire
    }

    /// Whether slot `slot` is occupied.
    #[inline]
    pub fn is_occupied(&self, slot: usize) -> bool {
        self.occupied_mask() & (1 << slot) != 0
    }

    /// Number of occupied slots.
    #[inline]
    pub fn occupied_count(&self) -> usize {
        self.occupied_mask().count_ones() as usize
    }

    /// Whether every slot is occupied.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.occupied_mask() == Self::FULL_MASK
    }

    /// Lowest-index empty slot, if any.
    #[inline]
    pub fn empty_slot(&self) -> Option<usize> {
        let free = !self.occupied_mask() & Self::FULL_MASK;
        if free == 0 {
            None
        } else {
            Some(free.trailing_zeros() as usize)
        }
    }

    /// Marks slot `slot` occupied. The slot's key/value must already be
    /// written (publication order: data, then occupancy bit).
    #[inline]
    pub fn set_occupied(&self, slot: usize) {
        self.occupied.fetch_or(1 << slot, Ordering::Release); // ORDERING: bucket.meta-publish
    }

    /// Marks slot `slot` empty. The key/value become logically dead; the
    /// caller owns dropping them if needed.
    #[inline]
    pub fn clear_occupied(&self, slot: usize) {
        self.occupied.fetch_and(!(1 << slot), Ordering::Release); // ORDERING: bucket.meta-publish
    }

    /// The partial key stored at `slot` (meaningful only if occupied;
    /// reading a racing value is allowed — consumers validate).
    #[inline]
    pub fn partial(&self, slot: usize) -> u8 {
        self.partials[slot].load(Ordering::Acquire) // ORDERING: bucket.meta-acquire
    }

    /// Stores the partial key for `slot`.
    #[inline]
    pub fn set_partial(&self, slot: usize, tag: u8) {
        self.partials[slot].store(tag, Ordering::Release); // ORDERING: bucket.meta-publish
    }

    /// Pointer to the atomic occupancy word (for transactional access).
    #[inline]
    pub fn occupied_ptr(&self) -> *mut u16 {
        self.occupied.as_ptr()
    }

    /// Pointer to the atomic partial byte of `slot` (for transactional
    /// access).
    #[inline]
    pub fn partial_ptr(&self, slot: usize) -> *mut u8 {
        self.partials[slot].as_ptr()
    }
}

impl<const B: usize> Default for BucketMeta<B> {
    fn default() -> Self {
        Self::new()
    }
}

/// Which engine [`BucketMeta::match_tag_mask`] dispatches to in this
/// build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagProbeKind {
    /// Portable 64-bit SWAR kernel (fallback and differential oracle).
    Swar,
    /// 128-bit `pcmpeqb` kernel (x86_64 baseline).
    Sse2,
    /// 128-bit `vceqq_u8` kernel (aarch64 mandates NEON).
    Neon,
}

#[cfg(all(cuckoo_force_simd, any(miri, cuckoo_model, cuckoo_tsan, cuckoo_force_swar)))]
compile_error!(
    "`cuckoo_force_simd` contradicts sanitizer/model/force-SWAR cfgs: those builds must \
     take the atomic SWAR kernel"
);

/// The probe engine [`BucketMeta::match_tag_mask`] uses in this build.
/// Exposed so tests (and the `cuckoo_force_simd` CI run) can assert which
/// kernel is actually live.
pub fn tag_probe_kind() -> TagProbeKind {
    #[cfg(all(
        target_arch = "x86_64",
        not(any(miri, cuckoo_model, cuckoo_tsan, cuckoo_force_swar))
    ))]
    {
        TagProbeKind::Sse2
    }
    #[cfg(all(
        target_arch = "aarch64",
        not(any(miri, cuckoo_model, cuckoo_tsan, cuckoo_force_swar))
    ))]
    {
        TagProbeKind::Neon
    }
    #[cfg(any(
        not(any(target_arch = "x86_64", target_arch = "aarch64")),
        miri,
        cuckoo_model,
        cuckoo_tsan,
        cuckoo_force_swar
    ))]
    {
        TagProbeKind::Swar
    }
}

/// One B-way bucket's entry storage: all keys first, then all values
/// (the paper's cache-line-friendly order).
#[repr(C)]
pub struct Bucket<K, V, const B: usize> {
    keys: [UnsafeCell<MaybeUninit<K>>; B],
    vals: [UnsafeCell<MaybeUninit<V>>; B],
}

impl<K, V, const B: usize> Bucket<K, V, B> {
    /// Creates an uninitialized bucket (occupancy lives in
    /// [`BucketMeta`]).
    pub fn new() -> Self {
        assert!(B > 0 && B <= MAX_WAYS, "set-associativity must be 1..=16");
        Bucket {
            keys: [(); B].map(|_| UnsafeCell::new(MaybeUninit::uninit())),
            vals: [(); B].map(|_| UnsafeCell::new(MaybeUninit::uninit())),
        }
    }

    /// Raw pointer to slot `slot`'s key storage.
    #[inline]
    pub fn key_ptr(&self, slot: usize) -> *mut K {
        self.keys[slot].get().cast::<K>()
    }

    /// Raw pointer to slot `slot`'s value storage.
    #[inline]
    pub fn val_ptr(&self, slot: usize) -> *mut V {
        self.vals[slot].get().cast::<V>()
    }
}

impl<K, V, const B: usize> Default for Bucket<K, V, B> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_empty_state() {
        let m: BucketMeta<4> = BucketMeta::new();
        assert_eq!(m.occupied_mask(), 0);
        assert_eq!(m.occupied_count(), 0);
        assert_eq!(m.empty_slot(), Some(0));
        assert!(!m.is_full());
    }

    #[test]
    fn meta_occupancy_bit_twiddling() {
        let m: BucketMeta<8> = BucketMeta::new();
        m.set_occupied(3);
        m.set_occupied(0);
        assert!(m.is_occupied(0));
        assert!(m.is_occupied(3));
        assert!(!m.is_occupied(1));
        assert_eq!(m.occupied_count(), 2);
        assert_eq!(m.empty_slot(), Some(1));
        m.clear_occupied(0);
        assert_eq!(m.empty_slot(), Some(0));
        assert_eq!(m.occupied_count(), 1);
    }

    #[test]
    fn meta_full_masks() {
        assert_eq!(BucketMeta::<4>::FULL_MASK, 0xf);
        assert_eq!(BucketMeta::<8>::FULL_MASK, 0xff);
        assert_eq!(BucketMeta::<16>::FULL_MASK, 0xffff);
        let m: BucketMeta<4> = BucketMeta::new();
        for s in 0..4 {
            m.set_occupied(s);
        }
        assert!(m.is_full());
        assert_eq!(m.empty_slot(), None);
    }

    #[test]
    fn meta_partials() {
        let m: BucketMeta<4> = BucketMeta::new();
        m.set_partial(2, 0xab);
        assert_eq!(m.partial(2), 0xab);
        assert_eq!(m.partial(0), 0);
    }

    #[test]
    #[should_panic(expected = "set-associativity")]
    fn rejects_excessive_ways() {
        let _: BucketMeta<17> = BucketMeta::new();
    }

    #[test]
    fn paper_layout_bucket_is_exactly_two_cache_lines() {
        // The §6 claim: an 8-way bucket of 8-byte keys and values "fits
        // exactly two cache lines: one for 8 keys and another for 8
        // values".
        assert_eq!(core::mem::size_of::<Bucket<u64, u64, 8>>(), 128);
        // Metadata: B tag bytes + the occupancy word, rounded to the
        // 8-byte alignment that enables SWAR tag matching.
        assert_eq!(core::mem::size_of::<BucketMeta<8>>(), 16);
        assert_eq!(core::mem::size_of::<BucketMeta<4>>(), 8);
        assert_eq!(core::mem::size_of::<BucketMeta<16>>(), 24);
    }

    #[test]
    fn swar_tag_match_equals_naive_scan() {
        fn check<const B: usize>(tags: &[u8]) {
            let m: BucketMeta<B> = BucketMeta::new();
            for (s, &t) in tags.iter().enumerate().take(B) {
                m.set_partial(s, t);
            }
            for probe in [0u8, 1, 7, 0x7f, 0x80, 0xff, tags[0]] {
                let naive: u16 = (0..B)
                    .filter(|&s| m.partial(s) == probe)
                    .fold(0, |acc, s| acc | (1 << s));
                assert_eq!(
                    m.match_tag_mask(probe),
                    naive,
                    "B={B} probe={probe:#x} tags={tags:?}"
                );
            }
        }
        check::<4>(&[1, 2, 1, 0xff]);
        check::<8>(&[9, 9, 9, 9, 9, 9, 9, 9]);
        check::<8>(&[0x80, 0x7f, 0, 1, 0xfe, 0xff, 3, 0x80]);
        check::<16>(&[5; 16]);
        check::<16>(&[
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
        ]);
        check::<2>(&[0xaa, 0xbb]);
    }

    #[test]
    fn swar_never_reports_phantom_lanes() {
        // Bytes beyond the tag array (the occupancy word) must never leak
        // into the match mask: fill occupancy with 0x4141-like patterns
        // by occupying slots, then probe for the byte values occupancy
        // could alias to.
        let m: BucketMeta<4> = BucketMeta::new();
        for s in 0..4 {
            m.set_occupied(s); // occupied = 0x000f at offset 4
        }
        assert_eq!(m.match_tag_mask(0x0f) & !BucketMeta::<4>::FULL_MASK, 0);
        assert_eq!(m.match_tag_mask(0x0f), 0, "tags are all zero");
        assert_eq!(m.match_tag_mask(0), 0xf, "all four zero tags match");
    }

    /// Fills a meta block with `tags` (and a ragged occupancy prefix) and
    /// checks the dispatched probe against both the SWAR kernel and a
    /// naive scan for a sweep of probe bytes.
    fn probe_agrees<const B: usize>(tags: &[u8], occupied: usize) {
        let m: BucketMeta<B> = BucketMeta::new();
        for (s, &t) in tags.iter().enumerate().take(B) {
            m.set_partial(s, t);
        }
        for s in 0..occupied.min(B) {
            m.set_occupied(s);
        }
        let mut probes = vec![0u8, 1, 0x7f, 0x80, 0xfe, 0xff];
        probes.extend(tags.iter().copied());
        for probe in probes {
            let naive: u16 =
                (0..B).filter(|&s| m.partial(s) == probe).fold(0, |acc, s| acc | (1 << s));
            assert_eq!(m.match_tag_mask_swar(probe), naive, "SWAR B={B} probe={probe:#x}");
            assert_eq!(
                m.match_tag_mask(probe),
                naive,
                "dispatched ({:?}) B={B} probe={probe:#x} tags={tags:?}",
                super::tag_probe_kind()
            );
        }
    }

    proptest::proptest! {
        /// Differential test across every interesting lane width: below,
        /// at, and above the 8-byte SWAR block / both vector load widths
        /// (8-byte for B ≤ 6, 16-byte above), with duplicate tags and
        /// partial occupancy.
        #[test]
        fn simd_probe_equals_swar_oracle_on_random_tags(
            tags in proptest::collection::vec(proptest::prelude::any::<u8>(), 16),
            occupied in 0usize..=16,
        ) {
            probe_agrees::<2>(&tags, occupied);
            probe_agrees::<4>(&tags, occupied);
            probe_agrees::<6>(&tags, occupied);
            probe_agrees::<7>(&tags, occupied);
            probe_agrees::<8>(&tags, occupied);
            probe_agrees::<12>(&tags, occupied);
            probe_agrees::<16>(&tags, occupied);
        }
    }

    #[test]
    fn dispatched_probe_equals_swar_on_edge_patterns() {
        // The deterministic cases the SWAR suite pinned, now also run
        // through the dispatched (vector where available) probe.
        probe_agrees::<4>(&[1, 2, 1, 0xff], 4);
        probe_agrees::<8>(&[9; 8], 8);
        probe_agrees::<8>(&[0x80, 0x7f, 0, 1, 0xfe, 0xff, 3, 0x80], 3);
        probe_agrees::<16>(&[5; 16], 16);
        probe_agrees::<16>(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16], 9);
    }

    #[test]
    fn tag_probe_kind_matches_build() {
        let kind = super::tag_probe_kind();
        #[cfg(any(miri, cuckoo_model, cuckoo_tsan, cuckoo_force_swar))]
        assert_eq!(kind, TagProbeKind::Swar);
        // The force-SIMD CI run exists to prove the vector kernel is the
        // one under test — fail loudly if dispatch fell back.
        #[cfg(cuckoo_force_simd)]
        assert_ne!(kind, TagProbeKind::Swar);
        #[cfg(all(
            target_arch = "x86_64",
            not(any(miri, cuckoo_model, cuckoo_tsan, cuckoo_force_swar))
        ))]
        assert_eq!(kind, TagProbeKind::Sse2);
        let _ = kind;
    }

    #[test]
    fn key_value_pointers_are_distinct_and_ordered() {
        let b: Bucket<u64, u64, 4> = Bucket::new();
        // Keys come first, then values (paper layout).
        assert!((b.key_ptr(3) as usize) < (b.val_ptr(0) as usize));
        assert_ne!(b.key_ptr(0), b.key_ptr(1));
        // SAFETY: single-threaded; writing then reading our own storage.
        unsafe {
            b.key_ptr(0).write(7);
            b.val_ptr(0).write(9);
            assert_eq!(b.key_ptr(0).read(), 7);
            assert_eq!(b.val_ptr(0).read(), 9);
        }
    }
}
