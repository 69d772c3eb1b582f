//! The seqlock's data half: what an optimistic reader may copy, and how.
//!
//! A reader under a stripe stamp ([`crate::sync::VersionLock`]) copies
//! memory that a version-publishing writer may be mutating concurrently,
//! and learns only afterwards — at validation — whether the copy raced.
//! Two things make that sound:
//!
//! - the copied type is [`Plain`]: any bit pattern is a valid value, so
//!   materializing a torn copy is merely a wrong value that validation
//!   discards, never undefined behavior;
//! - the copy itself goes through [`load_bytes`] / [`store_bytes`]:
//!   per-chunk atomics (64-bit chunks when alignment allows, bytes
//!   otherwise), so the intentional race is defined behavior.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Marker for types where any bit pattern is a valid value.
///
/// # Safety
///
/// Implementors must guarantee that every possible bit pattern of
/// `size_of::<Self>()` bytes is a valid instance of `Self`, and that the
/// type contains no padding whose contents could be observed (padding is
/// tolerated for reads we immediately validate, but implementors should
/// prefer padding-free layouts). `bool`, enums with niches, references,
/// and `NonZero*` types must **not** implement this trait.
pub unsafe trait Plain: Copy {
    /// How many leading bytes carry this value: the bytes past them may
    /// be any bytes without changing what it means. A store that sizes
    /// its slots by the value (the CLOCK cache's slab) keeps only these.
    /// The whole value unless an implementor says less.
    #[inline]
    fn used_len(&self) -> usize {
        size_of_val(self)
    }
}

macro_rules! impl_plain {
    ($($t:ty),* $(,)?) => {
        $(
            // SAFETY: all bit patterns of these primitive integer and float
            // types are valid values.
            unsafe impl Plain for $t {}
        )*
    };
}

impl_plain!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64);

// SAFETY: the unit type has size zero; there are no bits to be invalid.
unsafe impl Plain for () {}

// SAFETY: an array of `Plain` values is valid for any bit pattern because
// each element is.
unsafe impl<T: Plain, const N: usize> Plain for [T; N] {}

// SAFETY: a tuple of `Plain` values contains only `Plain` fields; any bit
// pattern of the fields themselves is valid. (Inter-field padding bytes are
// never interpreted.)
unsafe impl<A: Plain, B: Plain> Plain for (A, B) {}

// SAFETY: as for pairs.
unsafe impl<A: Plain, B: Plain, C: Plain> Plain for (A, B, C) {}

/// Orderings for the deliberately racy per-chunk copies.
///
/// In the real build these are Relaxed: the enclosing seqlock's
/// version/fence pair supplies all ordering, and the atomics exist only
/// to make the intentional race defined. Under `--cfg cuckoo_tsan` they
/// strengthen to Acquire/Release so ThreadSanitizer — which does not
/// model the fence-based validation argument — sees a happens-before
/// edge on every chunk and stays quiet about the copies themselves
/// while still checking everything around them.
// ORDERING: htm.racy-chunk
#[cfg(not(cuckoo_tsan))]
const RACY_LOAD: Ordering = Ordering::Relaxed;
// ORDERING: htm.racy-chunk
#[cfg(not(cuckoo_tsan))]
const RACY_STORE: Ordering = Ordering::Relaxed;
// ORDERING: htm.racy-chunk
#[cfg(cuckoo_tsan)]
const RACY_LOAD: Ordering = Ordering::Acquire;
// ORDERING: htm.racy-chunk
#[cfg(cuckoo_tsan)]
const RACY_STORE: Ordering = Ordering::Release;

/// Scheduling point between per-chunk copies under the model checker:
/// tearing *is* the interesting behavior here, so each chunk boundary
/// must be a place where the scheduler can interleave a writer.
#[inline]
fn model_yield() {
    #[cfg(cuckoo_model)]
    loom::yield_point();
}

/// Copies `len` bytes from `addr` into `dst` using relaxed atomic loads.
///
/// # Safety
///
/// `addr..addr + len` must be readable memory for the duration of the
/// call; `dst` must be valid for `len` writes and not overlap the source.
/// Concurrent writers to the source are permitted.
pub unsafe fn load_bytes(addr: usize, dst: *mut u8, len: usize) {
    if addr.is_multiple_of(8) && len.is_multiple_of(8) && (dst as usize).is_multiple_of(8) {
        for i in 0..len / 8 {
            model_yield();
            // SAFETY: in-bounds by the loop range; 8-aligned by the check.
            let v = unsafe { &*((addr + i * 8) as *const AtomicU64) }.load(RACY_LOAD);
            // SAFETY: `dst` is valid for `len` bytes and 8-aligned.
            unsafe { (dst as *mut u64).add(i).write(v) };
        }
    } else {
        for i in 0..len {
            model_yield();
            // SAFETY: in-bounds by the loop range; u8 has no alignment.
            let v = unsafe { &*((addr + i) as *const AtomicU8) }.load(RACY_LOAD);
            // SAFETY: `dst` is valid for `len` bytes.
            unsafe { dst.add(i).write(v) };
        }
    }
}

/// Copies `len` bytes from `src` to `addr` using relaxed atomic stores.
///
/// # Safety
///
/// `addr..addr + len` must be writable memory for the duration of the
/// call; `src` must be valid for `len` reads and not overlap the
/// destination. Concurrent (validating) readers of the destination are
/// permitted; concurrent writers are not.
pub unsafe fn store_bytes(addr: usize, src: *const u8, len: usize) {
    if addr.is_multiple_of(8) && len.is_multiple_of(8) && (src as usize).is_multiple_of(8) {
        for i in 0..len / 8 {
            model_yield();
            // SAFETY: in-bounds by the loop range; 8-aligned by the check.
            let v = unsafe { (src as *const u64).add(i).read() };
            // SAFETY: `addr` is valid for `len` bytes and 8-aligned.
            unsafe { &*((addr + i * 8) as *const AtomicU64) }.store(v, RACY_STORE);
        }
    } else {
        for i in 0..len {
            model_yield();
            // SAFETY: in-bounds by the loop range.
            let v = unsafe { src.add(i).read() };
            // SAFETY: `addr` is valid for `len` bytes; u8 has no alignment.
            unsafe { &*((addr + i) as *const AtomicU8) }.store(v, RACY_STORE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_plain<T: Plain>() {}

    #[test]
    fn primitives_are_plain() {
        assert_plain::<u8>();
        assert_plain::<u64>();
        assert_plain::<i128>();
        assert_plain::<f64>();
        assert_plain::<usize>();
    }

    #[test]
    fn composites_are_plain() {
        assert_plain::<[u8; 64]>();
        assert_plain::<[u64; 4]>();
        assert_plain::<(u64, u64)>();
        assert_plain::<(u32, [u8; 12], u64)>();
        assert_plain::<[[u64; 2]; 8]>();
    }

    #[test]
    fn aligned_roundtrip() {
        let src = [0x1122_3344_5566_7788u64, 0xaabb_ccdd_eeff_0011];
        let mut dst = [0u64; 2];
        // SAFETY: both buffers are 16 valid, 8-aligned bytes.
        unsafe {
            store_bytes(dst.as_mut_ptr() as usize, src.as_ptr().cast::<u8>(), 16);
        }
        assert_eq!(dst, src);
        let mut back = [0u64; 2];
        // SAFETY: as above.
        unsafe { load_bytes(dst.as_ptr() as usize, back.as_mut_ptr().cast::<u8>(), 16) };
        assert_eq!(back, src);
    }

    #[test]
    fn unaligned_roundtrip() {
        let mut buf = [0u8; 32];
        let src: [u8; 13] = *b"hello, world!";
        // SAFETY: offset 3 keeps the 13 bytes inside `buf`.
        unsafe { store_bytes(buf.as_mut_ptr() as usize + 3, src.as_ptr(), 13) };
        assert_eq!(&buf[3..16], b"hello, world!");
        let mut out = [0u8; 13];
        // SAFETY: as above.
        unsafe { load_bytes(buf.as_ptr() as usize + 3, out.as_mut_ptr(), 13) };
        assert_eq!(&out, b"hello, world!");
        assert_eq!(buf[0], 0);
        assert_eq!(buf[16], 0);
    }

    #[test]
    fn zero_length_is_noop() {
        let buf = [7u8; 4];
        // SAFETY: zero bytes touched.
        unsafe { load_bytes(buf.as_ptr() as usize, core::ptr::null_mut(), 0) };
    }
}
