//! Software prefetching (paper §4.3.2, "Prefetching").
//!
//! BFS path search makes the schedule of buckets to visit predictable, so
//! "before scanning one neighbor, the processor can load the
//! next_neighbor in cache". The same predictability argument holds for
//! every key: its candidate buckets are known once it is hashed. A
//! single-key read or write hints its stripe words, both metadata lines
//! and both buckets' entry lines before the first dependent load or
//! lock (`read::warm`); a multi-key read warms each key a few keys
//! before it reads it (`read::read_ahead`), and the CLOCK cache hints
//! the slab items its batches are about to copy.
//!
//! Per-architecture lowering:
//!
//! - **x86-64**: `prefetcht0` via `_mm_prefetch` (all cache levels).
//! - **aarch64**: `prfm pldl1keep` via inline asm — prefetch for load,
//!   L1, "keep" (temporal) policy, matching `_MM_HINT_T0`'s intent.
//! - **anything else**: documented no-op. Prefetch is a pure hint, never
//!   a semantic requirement, so compiling it away preserves correctness;
//!   ports to further architectures only forgo the overlap win.

/// Hints the CPU to pull the cache line(s) at `ptr` into all cache levels.
///
/// Accepts any pointer; never dereferences it architecturally, so it is
/// safe even for null or dangling pointers (both instructions below are
/// defined to be fault-free hints).
#[inline]
pub fn prefetch_read<T>(ptr: *const T) {
    // Skipped under Miri: the interpreter has no cache to warm and its
    // support for vendor intrinsics is incidental.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: `prefetcht0` is a pure performance hint; it cannot fault on
    // any address and has no architectural side effects.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr.cast());
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    // SAFETY: `prfm pldl1keep` is the AArch64 prefetch-memory hint
    // (prefetch-for-load, target L1, temporal). The architecture defines
    // PRFM to never generate a synchronous abort regardless of the
    // address, so any pointer value — null, dangling, unmapped — is fine;
    // `nostack`/`preserves_flags` hold because the instruction touches
    // neither the stack nor NZCV.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{addr}]",
            addr = in(reg) ptr,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(
        all(target_arch = "x86_64", not(miri)),
        all(target_arch = "aarch64", not(miri))
    )))]
    {
        // No-op fallback: other targets simply skip the hint.
        let _ = ptr;
    }
}

/// Hints the CPU to pull the cache line(s) at `ptr` in anticipation of a
/// *store*: a writer's hint for the lines it is about to lock and
/// mutate.
///
/// On x86-64 this still lowers to `prefetcht0` (portable across vendors;
/// `prefetchw` requires a separate feature probe for marginal gain — the
/// line arrives in Exclusive state on first RFO anyway). On aarch64 it
/// issues `prfm pstl1keep`, the prefetch-for-store variant, which primes
/// the line for ownership directly. Same fault-free-hint contract as
/// [`prefetch_read`].
#[inline]
pub fn prefetch_write<T>(ptr: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: `prefetcht0` is a pure performance hint; it cannot fault on
    // any address and has no architectural side effects.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr.cast());
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    // SAFETY: `prfm pstl1keep` (prefetch-for-store, L1, temporal) is
    // defined to never generate a synchronous abort regardless of the
    // address; `nostack`/`preserves_flags` hold as for `prefetch_read`.
    unsafe {
        core::arch::asm!(
            "prfm pstl1keep, [{addr}]",
            addr = in(reg) ptr,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(
        all(target_arch = "x86_64", not(miri)),
        all(target_arch = "aarch64", not(miri))
    )))]
    {
        // No-op fallback: other targets simply skip the hint.
        let _ = ptr;
    }
}

/// The cache-line size the hints below walk in: 64 bytes on every
/// supported target.
const LINE: usize = 64;

/// Applies `hint` ([`prefetch_read`] or [`prefetch_write`]) once to
/// every 64-byte cache line that overlaps `[addr, addr + len)`; to none
/// when `len` is 0. `addr` need not be line-aligned: an object of one
/// line's size straddles two lines unless it starts on a boundary.
#[inline]
pub fn lines(addr: *const u8, len: usize, mut hint: impl FnMut(*const u8)) {
    if len == 0 {
        return;
    }
    let lead = addr as usize % LINE;
    let first = addr.wrapping_sub(lead);
    for offset in (0..lead + len).step_by(LINE) {
        hint(first.wrapping_add(offset));
    }
}

#[cfg(test)]
mod tests {
    use super::{lines, prefetch_read, prefetch_write};

    /// The line addresses `lines(base + at, len, _)` hints, relative to
    /// a line-aligned `base`.
    fn hinted(at: usize, len: usize) -> Vec<usize> {
        let base = 64 * 1024usize;
        let mut seen = Vec::new();
        let addr = (base + at) as *const u8;
        lines(addr, len, |p| seen.push(p as usize - base));
        seen
    }

    #[test]
    fn lines_hints_every_overlapping_line_once() {
        assert_eq!(hinted(0, 0), []);
        assert_eq!(hinted(40, 0), []);
        assert_eq!(hinted(0, 64), [0]);
        assert_eq!(hinted(128, 64), [128]);
        // A 96-byte `u64 -> u32` bucket covers 2 or 3 lines by offset.
        assert_eq!(hinted(32, 96), [0, 64]);
        assert_eq!(hinted(48, 96), [0, 64, 128]);
        assert_eq!(hinted(63, 2), [0, 64]);
    }

    #[test]
    fn prefetch_never_faults() {
        let v = [1u8; 128];
        prefetch_read(v.as_ptr());
        prefetch_read(core::ptr::null::<u8>());
        prefetch_read(usize::MAX as *const u8);
        prefetch_write(v.as_ptr());
        prefetch_write(core::ptr::null::<u8>());
        prefetch_write(usize::MAX as *const u8);
    }
}
