//! TSX-style lock elision (paper §5 and Appendix A, Figure 11).
//!
//! An [`ElidedLock`] first runs its critical section speculatively as a
//! transaction that merely *reads* the fallback lock word (putting it in
//! the transaction's read set); only after repeated aborts does it really
//! acquire the lock. While anyone holds the fallback lock, every in-flight
//! transaction aborts — acquiring it writes the lock word, which is in all
//! of their read sets — and new attempts see the lock busy and wait. That
//! is exactly why the paper observes that "whenever a fallback lock is
//! taken by one core, all the other cores have to abort their concurrent
//! transactions", and why its optimized wrapper takes the fallback as
//! rarely as possible.
//!
//! Two retry policies are provided:
//!
//! - [`ElisionPolicy::Glibc`] models the released glibc elision patch the
//!   paper benchmarks as `TSX-glibc`: when the hardware does not set the
//!   `_XABORT_RETRY` hint, it gives up and takes the fallback lock
//!   immediately.
//! - [`ElisionPolicy::Optimized`] is the paper's `TSX*` (Figure 11): the
//!   authors "found that even if `_ABORT_RETRY` is not set in the EAX
//!   register, the transaction may succeed still on a retry", so it always
//!   retries several times before falling back.

use crate::abort::Abort;
use crate::ctx::{DirectCtx, MemCtx, TxCtx};
use crate::orec::HtmDomain;
use cuckoo::Plain;
use crate::stats::HtmStats;
use crate::txn::TxScratch;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Retry policy on transactional aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElisionPolicy {
    /// Take the fallback lock as soon as an abort arrives without the
    /// retry hint (the released glibc behavior the paper criticizes).
    Glibc,
    /// Always retry a bounded number of times before falling back, with a
    /// larger budget when the retry hint is set (the paper's `TSX*`).
    Optimized,
}

/// Configuration for an [`ElidedLock`].
#[derive(Debug, Clone, Copy)]
pub struct ElisionConfig {
    /// `_MAX_XBEGIN_RETRY` from Figure 11: transactional attempts before
    /// taking the fallback lock.
    pub max_xbegin_retry: u32,
    /// `_MAX_ABORT_RETRY` from Figure 11: attempts allowed to continue
    /// after aborts *without* the retry hint (optimized policy only).
    pub max_abort_retry: u32,
    /// The retry policy.
    pub policy: ElisionPolicy,
}

impl ElisionConfig {
    /// The paper's optimized `TSX*` configuration.
    pub fn optimized() -> Self {
        ElisionConfig {
            max_xbegin_retry: 8,
            max_abort_retry: 4,
            policy: ElisionPolicy::Optimized,
        }
    }

    /// The released glibc elision behavior (`TSX-glibc` in the paper).
    pub fn glibc() -> Self {
        ElisionConfig {
            max_xbegin_retry: 3,
            max_abort_retry: 0,
            policy: ElisionPolicy::Glibc,
        }
    }

    /// Hardware Lock Elision semantics (Appendix A): the legacy-compatible
    /// TSX interface where an `XACQUIRE`-prefixed lock acquisition is
    /// elided exactly once; any abort re-executes the critical section
    /// with the lock really held. "RTM... allows much finer control of
    /// the transactions than HLE" — this config is the coarse end of that
    /// comparison.
    pub fn hle() -> Self {
        ElisionConfig {
            max_xbegin_retry: 1,
            max_abort_retry: 0,
            policy: ElisionPolicy::Glibc,
        }
    }
}

impl Default for ElisionConfig {
    fn default() -> Self {
        Self::optimized()
    }
}

/// The execution context handed to an elided critical section: either a
/// live transaction or direct access under the fallback lock.
///
/// It implements [`MemCtx`], so critical-section code written against the
/// trait runs unchanged in both modes.
pub enum ExecCtx<'a, 't> {
    /// Speculative execution inside a transaction.
    Tx(TxCtx<'a, 't>),
    /// Direct execution under the fallback lock.
    Direct(DirectCtx),
}

impl MemCtx for ExecCtx<'_, '_> {
    // SAFETY: caller contract is `MemCtx::load`'s, forwarded verbatim
    // to whichever mode is live.
    unsafe fn load<T: Plain>(&mut self, ptr: *const T) -> Result<T, Abort> {
        match self {
            // SAFETY: forwarded contract.
            ExecCtx::Tx(c) => unsafe { c.load(ptr) },
            // SAFETY: forwarded contract.
            ExecCtx::Direct(c) => unsafe { c.load(ptr) },
        }
    }

    unsafe fn store<T: Plain>(&mut self, ptr: *mut T, value: T) -> Result<(), Abort> {
        match self {
            // SAFETY: forwarded contract.
            ExecCtx::Tx(c) => unsafe { c.store(ptr, value) },
            // SAFETY: forwarded contract.
            ExecCtx::Direct(c) => unsafe { c.store(ptr, value) },
        }
    }

    unsafe fn seq_write_begin(&mut self, word: &AtomicU64) -> Result<(), Abort> {
        match self {
            // SAFETY: forwarded contract.
            ExecCtx::Tx(c) => unsafe { c.seq_write_begin(word) },
            // SAFETY: forwarded contract.
            ExecCtx::Direct(c) => unsafe { c.seq_write_begin(word) },
        }
    }

    fn finish(&mut self) {
        match self {
            ExecCtx::Tx(c) => c.finish(),
            ExecCtx::Direct(c) => c.finish(),
        }
    }

    fn is_transactional(&self) -> bool {
        matches!(self, ExecCtx::Tx(_))
    }
}

thread_local! {
    /// Per-thread pool of transaction scratch buffers, so elided sections
    /// never allocate on the hot path (paper §5: pre-allocate what a
    /// transactional region needs) and nested elided locks still work.
    static SCRATCH_POOL: RefCell<Vec<TxScratch>> = const { RefCell::new(Vec::new()) };
}

fn take_scratch() -> TxScratch {
    SCRATCH_POOL.with(|p| p.borrow_mut().pop().unwrap_or_default())
}

fn put_scratch(s: TxScratch) {
    SCRATCH_POOL.with(|p| p.borrow_mut().push(s));
}

/// A lock whose critical sections execute speculatively when possible.
pub struct ElidedLock {
    domain: Arc<HtmDomain>,
    /// 0 = free, 1 = held. Transactions read it; the fallback path CASes
    /// it under the covering ownership record so speculative readers are
    /// invalidated.
    lock_word: AtomicU64,
    config: ElisionConfig,
    stats: HtmStats,
}

impl ElidedLock {
    /// Creates an elided lock over the given transactional domain.
    pub fn new(domain: Arc<HtmDomain>, config: ElisionConfig) -> Self {
        ElidedLock {
            domain,
            lock_word: AtomicU64::new(0),
            config,
            stats: HtmStats::new(),
        }
    }

    /// The domain this lock's transactions run in.
    pub fn domain(&self) -> &Arc<HtmDomain> {
        &self.domain
    }

    /// Execution statistics (starts, commits, aborts, fallbacks).
    pub fn stats(&self) -> &HtmStats {
        &self.stats
    }

    /// Whether the fallback lock is currently held.
    pub fn fallback_held(&self) -> bool {
        // ORDERING: publish.acquire-load
        self.lock_word.load(Ordering::Acquire) != 0
    }

    /// Runs `f` as an elided critical section and returns its value.
    ///
    /// `f` may run several times (aborted speculative attempts discard all
    /// their buffered writes first), so it must be idempotent up to its
    /// `MemCtx` effects — which is automatic if all shared-memory access
    /// goes through the provided context. `f`'s `Err` returns must
    /// originate from the context's operations (or explicit aborts); in
    /// direct mode the context never fails, so the section always
    /// completes on the fallback path.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns `Err` while running in direct (fallback)
    /// mode, which indicates `f` fabricated an abort.
    pub fn execute<R>(&self, mut f: impl FnMut(&mut ExecCtx<'_, '_>) -> Result<R, Abort>) -> R {
        let mut scratch = take_scratch();
        let lock_ptr = self.lock_word.as_ptr() as *const u64;

        let mut xbegin_retry = 0;
        let mut abort_retry = 0;
        while xbegin_retry < self.config.max_xbegin_retry {
            self.stats.record_start();
            let attempt = self.domain.attempt(&mut scratch, |tx| {
                // Check the fallback lock and put it into the read set
                // (Figure 11): its release-by-CAS bumps our orec, aborting
                // us if anyone takes it mid-flight.
                //
                // SAFETY: the lock word lives as long as `self`.
                let lock = unsafe { tx.read(lock_ptr)? };
                if lock != 0 {
                    return Err(Abort::lock_busy());
                }
                // Hold the lock word's ownership record through commit so
                // buffered-write publication can never interleave with a
                // fallback holder's direct writes (see
                // `Transaction::guard_addr`).
                tx.guard_addr(lock_ptr as usize);
                let mut ctx = ExecCtx::Tx(TxCtx::new(tx));
                let value = f(&mut ctx)?;
                ctx.finish();
                Ok(value)
            });
            match attempt {
                Ok(value) => {
                    self.stats.record_commit();
                    put_scratch(scratch);
                    return value;
                }
                Err(abort) => {
                    self.stats.record_abort(abort.code);
                    if abort.code.is_lock_busy() {
                        // Someone is in the fallback path; speculation
                        // cannot succeed until they leave. Wait without
                        // consuming a retry (glibc does the same).
                        self.wait_fallback_free();
                        continue;
                    }
                    if !abort.code.may_retry() {
                        match self.config.policy {
                            ElisionPolicy::Glibc => break,
                            ElisionPolicy::Optimized => {
                                if abort_retry >= self.config.max_abort_retry {
                                    break;
                                }
                                abort_retry += 1;
                            }
                        }
                    }
                }
            }
            xbegin_retry += 1;
        }

        // Fallback: really take the lock and run directly.
        self.stats.record_fallback();
        self.acquire_fallback();
        let mut ctx = ExecCtx::Direct(DirectCtx::new());
        let result = f(&mut ctx);
        ctx.finish();
        self.release_fallback();
        put_scratch(scratch);
        match result {
            Ok(value) => value,
            Err(abort) => panic!("critical section aborted in direct mode: {abort}"),
        }
    }

    /// Acquires the fallback lock, invalidating all speculative readers of
    /// the lock word in the same step (CAS under the word's orec).
    fn acquire_fallback(&self) {
        let addr = self.lock_word.as_ptr() as usize;
        let mut spins = 0u32;
        loop {
            // ORDERING: seqlock.advisory-probe — the CAS below re-checks.
            if self.lock_word.load(Ordering::Relaxed) == 0 {
                let acquired = self.domain.locked_line_update(addr, || {
                    self.lock_word
                        // ORDERING: handoff.acqrel-rmw
                        .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                });
                if acquired {
                    return;
                }
            }
            backoff(&mut spins);
        }
    }

    fn release_fallback(&self) {
        // ORDERING: seqlock.advisory-probe — we hold the lock; debug-only.
        debug_assert_eq!(self.lock_word.load(Ordering::Relaxed), 1);
        // ORDERING: publish.release-store
        self.lock_word.store(0, Ordering::Release);
    }

    fn wait_fallback_free(&self) {
        let mut spins = 0u32;
        // ORDERING: publish.acquire-load
        while self.lock_word.load(Ordering::Acquire) != 0 {
            backoff(&mut spins);
        }
    }
}

/// Spin briefly, then yield: on machines with fewer cores than threads a
/// pure spin wastes whole scheduler quanta waiting for the lock holder to
/// be scheduled.
#[inline]
pub(crate) fn backoff(spins: &mut u32) {
    if *spins < 64 {
        std::hint::spin_loop();
        *spins += 1;
    } else {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock() -> ElidedLock {
        ElidedLock::new(Arc::new(HtmDomain::new()), ElisionConfig::optimized())
    }

    #[test]
    fn single_threaded_increment_commits_speculatively() {
        let l = lock();
        let mut x = 0u64;
        let p: *mut u64 = &mut x;
        for _ in 0..100 {
            l.execute(|ctx| {
                // SAFETY: `x` outlives the section.
                let v = unsafe { ctx.load(p)? };
                // SAFETY: as above.
                unsafe { ctx.store(p, v + 1) }
            });
        }
        assert_eq!(x, 100);
        let s = l.stats().snapshot();
        assert_eq!(s.commits, 100);
        assert_eq!(s.fallbacks, 0);
    }

    #[test]
    fn capacity_overflow_takes_fallback() {
        let domain = Arc::new(HtmDomain::with_config(crate::HtmConfig {
            write_capacity_lines: 2,
            ..crate::HtmConfig::default()
        }));
        let l = ElidedLock::new(domain, ElisionConfig::optimized());
        let mut arr = vec![0u64; 256];
        let base = arr.as_mut_ptr();
        l.execute(|ctx| {
            for i in 0..32 {
                // SAFETY: in bounds of `arr`, one write per cache line.
                unsafe { ctx.store(base.add(i * 8), i as u64)? };
            }
            Ok(())
        });
        for i in 0..32 {
            assert_eq!(arr[i * 8], i as u64);
        }
        let s = l.stats().snapshot();
        assert_eq!(s.fallbacks, 1);
        assert!(s.capacity_aborts >= 1);
    }

    #[test]
    fn glibc_policy_falls_back_faster_than_optimized() {
        // Force capacity aborts (no retry hint) and compare attempt counts.
        let mk = |cfg: ElisionConfig| {
            let domain = Arc::new(HtmDomain::with_config(crate::HtmConfig {
                write_capacity_lines: 1,
                ..crate::HtmConfig::default()
            }));
            let l = ElidedLock::new(domain, cfg);
            let mut arr = vec![0u64; 64];
            let base = arr.as_mut_ptr();
            l.execute(|ctx| {
                for i in 0..8 {
                    // SAFETY: in bounds of `arr`.
                    unsafe { ctx.store(base.add(i * 8), 1u64)? };
                }
                Ok(())
            });
            l.stats().snapshot()
        };
        let glibc = mk(ElisionConfig::glibc());
        let optimized = mk(ElisionConfig::optimized());
        assert_eq!(glibc.fallbacks, 1);
        assert_eq!(optimized.fallbacks, 1);
        assert!(
            optimized.starts > glibc.starts,
            "optimized policy should retry more before falling back \
             (optimized {} vs glibc {})",
            optimized.starts,
            glibc.starts
        );
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let l = std::sync::Arc::new(lock());
        let mut x = 0u64;
        let p = SendPtr(&mut x as *mut u64);
        const THREADS: usize = 4;
        const PER: usize = 500;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let l = std::sync::Arc::clone(&l);
                s.spawn(move || {
                    let p = p;
                    for _ in 0..PER {
                        l.execute(|ctx| {
                            // SAFETY: `x` outlives the scope; all access to
                            // it is via this lock.
                            let v = unsafe { ctx.load(p.0)? };
                            // SAFETY: as above.
                            unsafe { ctx.store(p.0, v + 1) }
                        });
                    }
                });
            }
        });
        assert_eq!(x, (THREADS * PER) as u64);
        let s = l.stats().snapshot();
        assert_eq!(s.commits + s.fallbacks, (THREADS * PER) as u64);
    }

    #[test]
    fn writes_under_fallback_abort_concurrent_transactions() {
        // Start a transaction, have another "thread" take the fallback
        // lock (same thread here; the protocol is what matters), and
        // verify the transaction cannot commit.
        let l = lock();
        let mut data = 0u64;
        let p: *mut u64 = &mut data;
        let r = l.domain().execute(|tx| {
            // SAFETY: the lock word outlives the transaction.
            let lock_val = unsafe { tx.read(l.lock_word.as_ptr() as *const u64)? };
            assert_eq!(lock_val, 0);
            // Fallback acquisition bumps the lock word's orec...
            l.acquire_fallback();
            // SAFETY: `data` outlives the transaction.
            unsafe { tx.write(p, 42)? };
            Ok(())
        });
        // ...so commit-time validation of our read set must fail.
        assert!(r.is_err());
        assert_eq!(data, 0);
        l.release_fallback();
    }

    #[test]
    fn commit_never_interleaves_with_fallback_writes() {
        // Regression test for the publication race: a transaction that
        // validated the fallback lock free must not apply its buffered
        // writes while a fallback holder is writing directly. Writers
        // publish through a seqlock word; any interleaving corrupts its
        // parity (leaving it odd forever) or tears the 4-word value.
        // Capacity-limited configs force frequent fallbacks.
        let domain = Arc::new(HtmDomain::with_config(crate::HtmConfig {
            write_capacity_lines: 2,
            ..crate::HtmConfig::default()
        }));
        let l = ElidedLock::new(domain, ElisionConfig::optimized());
        let seq = AtomicU64::new(0);
        let mut cells = [0u64; 4];
        let p = SendPtr(cells.as_mut_ptr());
        let big = Box::leak(Box::new([0u64; 64])) as *mut [u64; 64];
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let l = &l;
                let seq = &seq;
                let big = SendPtr(big as *mut u64);
                s.spawn(move || {
                    let p = p;
                    let big = big;
                    for i in 0..2000u64 {
                        l.execute(|ctx| {
                            // SAFETY: `seq` and `cells` outlive the scope;
                            // all writes go through this elided lock.
                            unsafe {
                                ctx.seq_write_begin(seq)?;
                                let v = ctx.load(p.0)?;
                                for k in 0..4 {
                                    ctx.store(p.0.add(k), v + 1)?;
                                }
                                if (t + i) % 7 == 0 {
                                    // Oversized section: forces capacity
                                    // aborts and the fallback path.
                                    for k in 0..48 {
                                        ctx.store(big.0.add(k), i)?;
                                    }
                                }
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(seq.load(Ordering::Relaxed) % 2, 0, "seqlock parity broken");
        assert_eq!(cells[0], 8000);
        assert!(cells.iter().all(|&c| c == cells[0]), "torn cells: {cells:?}");
        let stats = l.stats().snapshot();
        assert!(stats.fallbacks > 0, "test must exercise the fallback path");
    }

    #[derive(Clone, Copy)]
    struct SendPtr(*mut u64);
    // SAFETY: test-only wrapper; the pointee outlives all threads using it
    // and access is synchronized by the elided lock under test.
    unsafe impl Send for SendPtr {}
}
