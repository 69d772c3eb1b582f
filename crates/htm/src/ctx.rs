//! The [`MemCtx`] abstraction: one critical section, two execution modes.
//!
//! The paper's elided hash tables run the *same* critical-section logic
//! either speculatively (as a hardware transaction) or under the fallback
//! lock. Writing that logic twice invites divergence bugs, so data
//! structures here write it once against [`MemCtx`] and instantiate it
//! with:
//!
//! - [`TxCtx`] — every access routed through a [`Transaction`], giving
//!   genuine conflict detection and buffered writes;
//! - [`DirectCtx`] — plain (atomic-chunk) loads and stores, for execution
//!   under a real lock. Its operations never return `Err`.
//!
//! Because the methods are generic and the trait is implemented by two
//! zero-cost-ish concrete types, the direct path monomorphizes to code
//! with no transactional overhead.

use crate::abort::Abort;
use cuckoo::Plain;
use cuckoo::racy::{load_bytes as atomic_load_bytes, store_bytes as atomic_store_bytes};
use crate::txn::Transaction;
use std::sync::atomic::{AtomicU64, Ordering};

/// Memory access abstraction for critical sections that must run both
/// transactionally and under a lock.
pub trait MemCtx {
    /// Reads the value at `ptr`.
    ///
    /// # Safety
    ///
    /// `ptr` must be non-null and valid for reads of `size_of::<T>()`
    /// bytes for the duration of the enclosing critical section.
    /// Concurrent writers must either be excluded by the critical
    /// section's mutual-exclusion protocol or detected by it (the
    /// transactional implementation aborts on conflicts).
    unsafe fn load<T: Plain>(&mut self, ptr: *const T) -> Result<T, Abort>;

    /// Writes `value` to `ptr`.
    ///
    /// Transactional implementations buffer the store until commit; the
    /// direct implementation applies it immediately.
    ///
    /// # Safety
    ///
    /// `ptr` must be non-null and valid for writes of `size_of::<T>()`
    /// bytes until the critical section completes.
    unsafe fn store<T: Plain>(&mut self, ptr: *mut T, value: T) -> Result<(), Abort>;

    /// Announces that subsequent stores are published through the seqlock
    /// version counter `word`: lock-free readers validating `word` must
    /// never observe a partial update.
    ///
    /// Transactionally, the word is bumped odd/even around the atomic
    /// commit. Directly, the word is incremented (to odd) immediately and
    /// incremented again by [`MemCtx::finish`].
    ///
    /// # Safety
    ///
    /// `word` must remain valid until the critical section completes and
    /// must currently be even. The caller must hold whatever writer-side
    /// mutual exclusion covers `word`.
    unsafe fn seq_write_begin(&mut self, word: &AtomicU64) -> Result<(), Abort>;

    /// Completes the critical section's published writes (bumps
    /// direct-mode seqlock words back to even). Called exactly once by the
    /// execution wrapper after the critical-section closure returns `Ok`.
    fn finish(&mut self);

    /// Whether this context is speculative (useful for assertions and
    /// statistics, never for algorithmic decisions).
    fn is_transactional(&self) -> bool;
}

/// Direct execution under a real lock: loads and stores go straight to
/// memory (as relaxed atomic chunk copies, so optimistic readers racing a
/// locked writer stay race-free).
pub struct DirectCtx {
    seq_words: Vec<usize>,
}

impl DirectCtx {
    /// Creates a direct context.
    pub fn new() -> Self {
        DirectCtx {
            seq_words: Vec::with_capacity(8),
        }
    }
}

impl Default for DirectCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl MemCtx for DirectCtx {
    // SAFETY: caller contract is `MemCtx::load`'s (trait-level
    // `# Safety`): `ptr` valid for reads of `T` for the call's duration.
    unsafe fn load<T: Plain>(&mut self, ptr: *const T) -> Result<T, Abort> {
        let size = std::mem::size_of::<T>();
        let mut value = std::mem::MaybeUninit::<T>::uninit();
        if size != 0 {
            // SAFETY: caller guarantees `ptr` is valid for `size` bytes;
            // `value` is a fresh buffer of the same size.
            unsafe { atomic_load_bytes(ptr as usize, value.as_mut_ptr().cast::<u8>(), size) };
        }
        // SAFETY: fully initialized above (or zero-sized); `T: Plain`.
        Ok(unsafe { value.assume_init() })
    }

    unsafe fn store<T: Plain>(&mut self, ptr: *mut T, value: T) -> Result<(), Abort> {
        let size = std::mem::size_of::<T>();
        if size != 0 {
            // SAFETY: caller guarantees `ptr` is valid for `size` bytes;
            // `value` is a live `T` providing `size` readable bytes.
            unsafe {
                atomic_store_bytes(ptr as usize, &value as *const T as *const u8, size);
            }
        }
        Ok(())
    }

    // SAFETY: caller contract is `MemCtx::seq_write_begin`'s: `word`
    // must stay valid until `finish`, which re-derefs its address.
    unsafe fn seq_write_begin(&mut self, word: &AtomicU64) -> Result<(), Abort> {
        let addr = word as *const AtomicU64 as usize;
        if !self.seq_words.contains(&addr) {
            self.seq_words.push(addr);
            // ORDERING: handoff.acqrel-rmw — odd-stamp the seqlock word.
            let prev = word.fetch_add(1, Ordering::AcqRel);
            debug_assert_eq!(prev % 2, 0, "seqlock word was already odd");
        }
        Ok(())
    }

    fn finish(&mut self) {
        for &addr in &self.seq_words {
            // SAFETY: `seq_write_begin`'s contract keeps the word valid
            // until the critical section completes, which is now.
            let word = unsafe { &*(addr as *const AtomicU64) };
            // ORDERING: handoff.acqrel-rmw — even-stamp: publishes the writes.
            word.fetch_add(1, Ordering::AcqRel);
        }
        self.seq_words.clear();
    }

    fn is_transactional(&self) -> bool {
        false
    }
}

/// Transactional execution: accesses route through a [`Transaction`].
pub struct TxCtx<'a, 't> {
    tx: &'a mut Transaction<'t>,
}

impl<'a, 't> TxCtx<'a, 't> {
    /// Wraps a transaction as a memory context.
    pub fn new(tx: &'a mut Transaction<'t>) -> Self {
        TxCtx { tx }
    }
}

impl MemCtx for TxCtx<'_, '_> {
    // SAFETY: caller contract is `MemCtx::load`'s, forwarded verbatim
    // to `Transaction::read`.
    unsafe fn load<T: Plain>(&mut self, ptr: *const T) -> Result<T, Abort> {
        // SAFETY: forwarded contract.
        unsafe { self.tx.read(ptr) }
    }

    unsafe fn store<T: Plain>(&mut self, ptr: *mut T, value: T) -> Result<(), Abort> {
        // SAFETY: forwarded contract.
        unsafe { self.tx.write(ptr, value) }
    }

    unsafe fn seq_write_begin(&mut self, word: &AtomicU64) -> Result<(), Abort> {
        // SAFETY: forwarded contract.
        unsafe { self.tx.seq_write_begin(word) }
    }

    fn finish(&mut self) {
        // Commit performs the even-bump atomically with publication.
    }

    fn is_transactional(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orec::HtmDomain;

    /// A critical section written once against `MemCtx`.
    ///
    /// # Safety
    ///
    /// `cell` and `seq` must outlive the critical section.
    unsafe fn bump_cell<C: MemCtx>(
        ctx: &mut C,
        cell: *mut u64,
        seq: &AtomicU64,
    ) -> Result<(), Abort> {
        // SAFETY: forwarded from this function's contract.
        unsafe {
            ctx.seq_write_begin(seq)?;
            let v = ctx.load(cell)?;
            ctx.store(cell, v + 1)
        }
    }

    #[test]
    fn direct_ctx_applies_immediately_and_brackets_seq() {
        let mut x = 0u64;
        let seq = AtomicU64::new(0);
        let mut ctx = DirectCtx::new();
        // SAFETY: locals outlive the call.
        unsafe { bump_cell(&mut ctx, &mut x, &seq).unwrap() };
        assert_eq!(x, 1);
        assert_eq!(seq.load(Ordering::Relaxed), 1, "odd while open");
        ctx.finish();
        assert_eq!(seq.load(Ordering::Relaxed), 2, "even when finished");
    }

    #[test]
    fn direct_ctx_dedupes_seq_words() {
        let seq = AtomicU64::new(0);
        let mut ctx = DirectCtx::new();
        // SAFETY: `seq` outlives the context.
        unsafe {
            ctx.seq_write_begin(&seq).unwrap();
            ctx.seq_write_begin(&seq).unwrap();
        }
        ctx.finish();
        assert_eq!(seq.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn tx_ctx_runs_same_section_transactionally() {
        let d = HtmDomain::new();
        let mut x = 10u64;
        let seq = AtomicU64::new(0);
        let p: *mut u64 = &mut x;
        d.execute(|tx| {
            let mut ctx = TxCtx::new(tx);
            // SAFETY: locals outlive the transaction.
            unsafe { bump_cell(&mut ctx, p, &seq) }?;
            ctx.finish();
            Ok(())
        })
        .unwrap();
        assert_eq!(x, 11);
        assert_eq!(seq.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn mode_flags() {
        let d = HtmDomain::new();
        assert!(!DirectCtx::new().is_transactional());
        d.execute(|tx| {
            assert!(TxCtx::new(tx).is_transactional());
            Ok(())
        })
        .unwrap();
    }
}
