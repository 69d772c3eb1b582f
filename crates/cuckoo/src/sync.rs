//! Striped version-spinlocks (paper §4.4).
//!
//! The paper stores "an actual lock in the stripe in addition to the
//! version counter (our lock uses the high-order bit of the counter)" and
//! favors "lightweight spinlocks using compare-and-swap" because the
//! critical sections are tiny. This module implements exactly that:
//!
//! - [`VersionLock`] — one `AtomicU64` word: bit 63 is the writer lock,
//!   the low 63 bits are a seqlock version counter. Acquiring the lock
//!   makes the version odd; releasing makes it even again, so optimistic
//!   readers validate with two loads and zero cache-line writes (paper
//!   §4.2: "allow reads to be performed with no cache line writes by
//!   using optimistic locking").
//! - [`LockStripes`] — a power-of-two array of cache-line-padded
//!   [`VersionLock`]s. Buckets map to stripes by masking, giving the
//!   "reasonable size lock tables, such as 1K-8K entries" the paper uses
//!   (default 2048, `DEFAULT_STRIPES`).
//! - Ordered two-stripe acquisition ([`LockStripes::lock_pair`]) — "locks
//!   of the pair of buckets are ordered by the bucket id to avoid
//!   deadlock. If two buckets share the same lock, then only one lock is
//!   acquired".
//! - [`LockStripes::lock_all`] — the pessimistic full-table acquisition
//!   the paper describes as the probabilistic-livelock escape hatch
//!   ("acquiring each of the 2048 locks in the lock-striped table").
//! - [`LockStripes::lock_batch`] — ordered, deduplicated acquisition of
//!   a small set of stripes at once: a pipelined write group's candidate
//!   pairs, or (incremental expansion) an old-table bucket plus its
//!   entry's two new-table candidate buckets.
//! - [`EpochRegistry`] — striped epoch counters for quiescence-based
//!   reclamation of retired bucket arrays: every table operation pins
//!   the current epoch in a padded per-thread stripe, and a retired
//!   allocation is freed once every active stripe has advanced past the
//!   retirement epoch (so no in-flight lock-free search can still hold
//!   the pointer).

use crate::core::MAX_BATCH_BUCKETS;
use crate::sync2::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of lock stripes the paper's implementation uses by default.
pub const DEFAULT_STRIPES: usize = 2048;

/// Bit 63 marks the stripe write-locked.
const LOCKED: u64 = 1 << 63;

/// A combined spinlock + seqlock version counter in one word.
///
/// Invariant: the version (low 63 bits) is odd exactly while a writer is
/// active — either because the lock is held, or because a lock-free
/// publication protocol (the elided-execution seqlock bumps) is mid-write.
/// Readers treat "odd or locked" as "retry".
#[derive(Debug)]
pub struct VersionLock {
    word: AtomicU64,
}

/// A validated snapshot of a stripe's version, for optimistic reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadStamp(u64);

impl VersionLock {
    /// Creates an unlocked stripe with version 0.
    pub const fn new() -> Self {
        VersionLock {
            word: AtomicU64::new(0),
        }
    }

    /// The raw atomic word (used by transactional execution to register
    /// the stripe as a seqlock publication word). Always the `std`
    /// atomic: the htm subsystem is outside the model checker's scope,
    /// so under `cfg(cuckoo_model)` this unwraps the instrumented word.
    #[inline]
    pub fn word(&self) -> &std::sync::atomic::AtomicU64 {
        #[cfg(not(cuckoo_model))]
        {
            &self.word
        }
        #[cfg(cuckoo_model)]
        {
            self.word.as_std()
        }
    }

    /// Attempts to acquire the writer lock once.
    #[inline]
    pub fn try_lock(&self) -> bool {
        // ORDERING: seqlock.advisory-probe — seeds the CAS below, which
        // re-checks the value it read.
        let cur = self.word.load(Ordering::Relaxed);
        if cur & LOCKED != 0 {
            return false;
        }
        // Acquiring sets the lock bit and makes the version odd in one CAS
        // so readers see a single transition into the write window.
        // ORDERING: seqlock.lock-acquire
        self.word
            .compare_exchange_weak(
                cur,
                (cur + 1) | LOCKED,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Spins (then yields) until the writer lock is acquired.
    #[inline]
    pub fn lock(&self) {
        let mut spins = 0u32;
        let mut watchdog = 0u64;
        while !self.try_lock() {
            watchdog += 1;
            debug_assert!(watchdog < 500_000_000, "VersionLock::lock stuck");
            backoff(&mut spins);
        }
    }

    /// Releases the writer lock, bumping the version back to even.
    ///
    /// # Panics
    ///
    /// Debug-asserts the lock is currently held.
    #[inline]
    pub fn unlock(&self) {
        // ORDERING: seqlock.advisory-probe — the holder wrote this word
        // last (it owns the lock); the store below carries the ordering.
        let cur = self.word.load(Ordering::Relaxed);
        debug_assert_ne!(cur & LOCKED, 0, "unlock of unheld VersionLock");
        debug_assert_eq!((cur & !LOCKED) % 2, 1, "version must be odd while locked");
        // ORDERING: seqlock.unlock-release
        self.word.store((cur & !LOCKED) + 1, Ordering::Release);
    }

    /// Whether the writer lock is currently held.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.word.load(Ordering::Relaxed) & LOCKED != 0 // ORDERING: seqlock.advisory-probe
    }

    /// Begins an optimistic read: spins until the stripe is quiescent
    /// (unlocked, even version) and returns the observed stamp.
    #[inline]
    pub fn read_begin(&self) -> ReadStamp {
        let mut spins = 0u32;
        let mut watchdog = 0u64;
        loop {
            // ORDERING: seqlock.read-begin
            let v = self.word.load(Ordering::Acquire);
            if v & LOCKED == 0 && v.is_multiple_of(2) {
                return ReadStamp(v);
            }
            watchdog += 1;
            debug_assert!(watchdog < 500_000_000, "read_begin stuck: word={v:#x}");
            backoff(&mut spins);
        }
    }

    /// Ends an optimistic read: `true` when no writer was active since the
    /// matching [`VersionLock::read_begin`].
    ///
    /// The fence orders the caller's racy data reads before the
    /// validating load — see DESIGN.md §5d for the pairing argument.
    #[inline]
    pub fn read_validate(&self, stamp: ReadStamp) -> bool {
        // ORDERING: seqlock.validate — fence first, then the stamp re-load.
        std::sync::atomic::fence(Ordering::Acquire);
        self.word.load(Ordering::Acquire) == stamp.0
    }

    /// Current raw version (for statistics and tests).
    #[inline]
    pub fn version(&self) -> u64 {
        self.word.load(Ordering::Relaxed) & !LOCKED // ORDERING: seqlock.advisory-probe
    }
}

impl Default for VersionLock {
    fn default() -> Self {
        Self::new()
    }
}

/// Spin briefly, then yield to the scheduler; with more threads than
/// cores, pure spinning wastes whole quanta waiting for a preempted lock
/// holder.
#[inline]
pub(crate) fn backoff(spins: &mut u32) {
    if *spins < 64 {
        crate::sync2::hint::spin_loop();
        *spins += 1;
    } else {
        crate::sync2::thread::yield_now();
    }
}

/// Dynamic lock-order auditor (debug builds only).
///
/// Deadlock freedom of the striped locking rests on two disciplines that
/// the type system cannot express:
///
/// 1. **Ascending stripe order** — every multi-stripe acquisition
///    ([`LockStripes::lock_pair`], [`LockStripes::lock_batch`],
///    [`LockStripes::lock_all`]) takes stripes of one table in strictly
///    increasing index order, and no thread starts a new acquisition at
///    an index at or below one it already holds in that table.
/// 2. **Pin before lock** — a thread must not establish an epoch pin
///    ([`EpochRegistry::pin`]) while holding stripe locks: a pinned
///    thread blocked on a stripe would pin the reclamation epoch in
///    place, so garbage retired by the lock holder could never drain
///    (and any future wait-for-quiesce while holding locks would
///    deadlock outright).
///
/// The auditor tracks held stripes per thread and panics the moment
/// either rule is broken, which turns "deadlocks under the right
/// interleaving" into a deterministic failure in any debug run
/// (including every schedule the model checker explores).
#[cfg(debug_assertions)]
mod audit {
    use std::cell::RefCell;

    /// Sentinel recorded while a whole-table [`super::AllGuard`] is held.
    const ALL: usize = usize::MAX;

    thread_local! {
        /// Stripes this thread holds, as (table identity, stripe index).
        static HELD: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn acquiring(table: usize, stripe: usize) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            for &(t, s) in h.iter() {
                if t != table {
                    continue;
                }
                assert!(
                    s != ALL,
                    "lock-order violation: acquiring stripe {stripe} while \
                     holding ALL stripes of the same table (self-deadlock)"
                );
                assert!(
                    s != stripe,
                    "lock-order violation: re-acquiring held stripe {stripe} \
                     (self-deadlock)"
                );
                assert!(
                    s < stripe,
                    "lock-order violation: acquiring stripe {stripe} while \
                     holding stripe {s} of the same table (descending order \
                     can deadlock against a concurrent ascending acquirer)"
                );
            }
            h.push((table, stripe));
        });
    }

    pub(super) fn acquiring_all(table: usize) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            assert!(
                !h.iter().any(|&(t, _)| t == table),
                "lock-order violation: lock_all while already holding \
                 stripes of the same table (self-deadlock)"
            );
            h.push((table, ALL));
        });
    }

    pub(super) fn released(table: usize, stripe: usize) {
        released_entry(table, stripe);
    }

    pub(super) fn released_all(table: usize) {
        released_entry(table, ALL);
    }

    fn released_entry(table: usize, stripe: usize) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            let pos = h
                .iter()
                .rposition(|&e| e == (table, stripe))
                .expect("released a stripe the auditor never saw acquired");
            h.remove(pos);
        });
    }

    /// [`super::EpochRegistry::pin`] calls this: pinning with stripe
    /// locks held is the lock/pin inversion described above.
    pub(super) fn assert_pin_allowed() {
        HELD.with(|h| {
            let h = h.borrow();
            assert!(
                h.is_empty(),
                "epoch pin while holding stripe locks {:?}: pin must be \
                 established before any stripe acquisition (lock/pin \
                 inversion stalls reclamation)",
                &*h
            );
        });
    }
}

/// A [`VersionLock`] alone on its cache line, so stripe contention does
/// not become false sharing.
///
/// The lock word uses 8 of the line's 64 bytes; the acquisition and
/// contention counters live in the otherwise-wasted padding, so bumping
/// them right after a successful CAS touches a line the owner already
/// holds exclusively (paper principle P1: statistics must not add
/// shared-cache-line traffic).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct PaddedLock {
    lock: VersionLock,
    /// Writer-side acquisitions of this stripe (via any `lock_*` path).
    acquisitions: metrics::Counter,
    /// Acquisitions whose first `try_lock` failed.
    contended: metrics::Counter,
}

/// The striped lock table.
#[derive(Debug)]
pub struct LockStripes {
    stripes: Box<[PaddedLock]>,
    mask: usize,
    /// Backoff iterations per *contended* acquisition, table-wide.
    /// Recorded only on the slow path, so the uncontended fast path
    /// never touches this (shared) line.
    spin_waits: metrics::Histogram,
}

/// Aggregated writer-lock statistics for one [`LockStripes`] table.
///
/// Relaxed-consistency: counters are summed stripe-by-stripe while
/// writers may still be running, so a snapshot is an in-flight
/// approximation, not a linearizable cut. [`LockStripes::lock_stats`]
/// loads `contended` before `acquisitions` and clamps, so the invariant
/// `contended <= acquisitions` holds in every snapshot regardless of
/// tearing (same discipline as `PathStats::snapshot`).
#[derive(Debug, Clone, Copy, Default)]
pub struct LockStats {
    /// Total writer-side stripe acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that found the stripe already locked.
    pub contended: u64,
    /// Backoff-iteration histogram over contended acquisitions.
    pub spin_waits: metrics::HistogramSnapshot,
}

impl LockStripes {
    /// Creates `count` stripes (rounded up to a power of two, minimum 1).
    pub fn new(count: usize) -> Self {
        let count = count.max(1).next_power_of_two();
        let stripes = (0..count)
            .map(|_| PaddedLock::default())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        LockStripes {
            mask: count - 1,
            stripes,
            spin_waits: metrics::Histogram::new(),
        }
    }

    /// Acquires stripe `idx`'s writer lock, maintaining its counters.
    ///
    /// Counters are bumped *after* the CAS succeeds: the CAS just wrote
    /// the stripe's cache line, so the increments hit a line this core
    /// already owns exclusively and add no coherence traffic.
    #[inline]
    fn lock_counted(&self, idx: usize) {
        let s = &self.stripes[idx];
        if !s.lock.try_lock() {
            let mut iterations = 0u64;
            let mut spins = 0u32;
            loop {
                iterations += 1;
                debug_assert!(iterations < 500_000_000, "lock_counted stuck");
                backoff(&mut spins);
                if s.lock.try_lock() {
                    break;
                }
            }
            s.contended.inc();
            self.spin_waits.record(iterations);
        }
        s.acquisitions.inc();
    }

    /// Number of stripes.
    #[inline]
    pub fn len(&self) -> usize {
        self.stripes.len()
    }

    /// Whether there are zero stripes (never true; kept for API symmetry).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stripes.is_empty()
    }

    /// Stripe index covering bucket `bucket`.
    #[inline]
    pub fn stripe_of(&self, bucket: usize) -> usize {
        bucket & self.mask
    }

    /// Table identity for the lock-order auditor (address-based: stripe
    /// indices only order within one table).
    #[cfg(debug_assertions)]
    #[inline]
    fn audit_id(&self) -> usize {
        self as *const LockStripes as usize
    }

    /// The stripe lock covering bucket `bucket`.
    #[inline]
    pub fn stripe(&self, bucket: usize) -> &VersionLock {
        &self.stripes[bucket & self.mask].lock
    }

    /// Locks the stripes covering `b1` and `b2` in stripe-index order
    /// (deadlock-free); a shared stripe is locked once.
    #[inline]
    pub fn lock_pair(&self, b1: usize, b2: usize) -> PairGuard<'_> {
        let (s1, s2) = (self.stripe_of(b1), self.stripe_of(b2));
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        #[cfg(debug_assertions)]
        audit::acquiring(self.audit_id(), lo);
        self.lock_counted(lo);
        if hi != lo {
            #[cfg(debug_assertions)]
            audit::acquiring(self.audit_id(), hi);
            self.lock_counted(hi);
        }
        PairGuard {
            stripes: self,
            lo,
            hi,
        }
    }

    /// Locks every stripe in index order — the pessimistic full-table
    /// lock. Expensive; used for resizing, whole-table iteration, and as
    /// the livelock escape hatch.
    pub fn lock_all(&self) -> AllGuard<'_> {
        #[cfg(debug_assertions)]
        audit::acquiring_all(self.audit_id());
        for i in 0..self.stripes.len() {
            self.lock_counted(i);
        }
        AllGuard { stripes: self }
    }

    /// Locks the stripes covering an arbitrary set of up to
    /// `2 *` [`WRITE_GROUP`](crate::WRITE_GROUP) buckets — one pipelined
    /// write group's candidate pairs — in ascending stripe-index order
    /// (deadlock-free with [`LockStripes::lock_pair`] and itself). Buckets
    /// sharing a stripe are coalesced under a single acquisition, so a
    /// group of G keys costs at most `2·G` lock words and usually far
    /// fewer.
    ///
    /// Incremental expansion also moves one entry atomically with it:
    /// the old-table bucket and both new-table candidate buckets are held
    /// together, so no reader or writer can observe the entry absent from
    /// both tables or present in both.
    pub fn lock_batch(&self, buckets: &[usize]) -> BatchGuard<'_> {
        assert!(
            buckets.len() <= MAX_BATCH_BUCKETS,
            "lock_batch covers at most {MAX_BATCH_BUCKETS} buckets"
        );
        let mut stripes = [usize::MAX; MAX_BATCH_BUCKETS];
        let m = buckets.len();
        for (s, &b) in stripes.iter_mut().zip(buckets) {
            *s = self.stripe_of(b);
        }
        stripes[..m].sort_unstable();
        let mut held = [usize::MAX; MAX_BATCH_BUCKETS];
        let mut n = 0;
        for &idx in &stripes[..m] {
            if n > 0 && held[n - 1] == idx {
                continue; // shared stripe: lock once
            }
            #[cfg(debug_assertions)]
            audit::acquiring(self.audit_id(), idx);
            self.lock_counted(idx);
            held[n] = idx;
            n += 1;
        }
        BatchGuard {
            stripes: self,
            held,
            n,
        }
    }

    /// Bytes of memory the stripe table occupies (for the paper's memory
    /// accounting: "the efficiency of the basic table plus the small
    /// additional lock-striping table").
    pub fn memory_bytes(&self) -> usize {
        self.stripes.len() * std::mem::size_of::<PaddedLock>()
    }

    /// Sums the per-stripe counters into one [`LockStats`] snapshot.
    ///
    /// Per stripe, `contended` is loaded *before* `acquisitions`: a
    /// locker bumps them in the opposite order, so any tear biases the
    /// snapshot toward `contended <= acquisitions`; the final clamp
    /// makes that invariant unconditional (see [`LockStats`]).
    pub fn lock_stats(&self) -> LockStats {
        let mut acquisitions = 0u64;
        let mut contended = 0u64;
        for s in self.stripes.iter() {
            contended = contended.saturating_add(s.contended.get());
            acquisitions = acquisitions.saturating_add(s.acquisitions.get());
        }
        LockStats {
            acquisitions,
            contended: contended.min(acquisitions),
            spin_waits: self.spin_waits.snapshot(),
        }
    }

    /// Zeroes every stripe counter and the spin histogram. Not atomic
    /// with respect to concurrent lockers (see the relaxed-consistency
    /// contract on [`LockStats`]).
    pub fn reset_lock_stats(&self) {
        for s in self.stripes.iter() {
            s.acquisitions.reset();
            s.contended.reset();
        }
        self.spin_waits.reset();
    }
}

/// Guard holding one or two stripe locks; releases in reverse order.
#[derive(Debug)]
pub struct PairGuard<'a> {
    stripes: &'a LockStripes,
    lo: usize,
    hi: usize,
}

impl PairGuard<'_> {
    /// Whether this guard covers the stripe of `bucket`.
    #[inline]
    pub fn covers(&self, bucket: usize) -> bool {
        let s = self.stripes.stripe_of(bucket);
        s == self.lo || s == self.hi
    }
}

impl Drop for PairGuard<'_> {
    fn drop(&mut self) {
        if self.hi != self.lo {
            self.stripes.stripes[self.hi].lock.unlock();
            #[cfg(debug_assertions)]
            audit::released(self.stripes.audit_id(), self.hi);
        }
        self.stripes.stripes[self.lo].lock.unlock();
        #[cfg(debug_assertions)]
        audit::released(self.stripes.audit_id(), self.lo);
    }
}

/// Guard holding a deduplicated stripe set (see
/// [`LockStripes::lock_batch`]); releases in reverse acquisition order.
#[derive(Debug)]
pub struct BatchGuard<'a> {
    stripes: &'a LockStripes,
    held: [usize; MAX_BATCH_BUCKETS],
    n: usize,
}

impl BatchGuard<'_> {
    /// Whether this guard covers the stripe of `bucket`.
    #[inline]
    pub fn covers(&self, bucket: usize) -> bool {
        let s = self.stripes.stripe_of(bucket);
        self.held[..self.n].contains(&s)
    }

    /// Distinct stripes actually locked (after coalescing).
    #[inline]
    pub fn stripes_held(&self) -> usize {
        self.n
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        for &idx in self.held[..self.n].iter().rev() {
            self.stripes.stripes[idx].lock.unlock();
            #[cfg(debug_assertions)]
            audit::released(self.stripes.audit_id(), idx);
        }
    }
}

/// Guard holding every stripe.
#[derive(Debug)]
pub struct AllGuard<'a> {
    stripes: &'a LockStripes,
}

impl Drop for AllGuard<'_> {
    fn drop(&mut self) {
        for s in self.stripes.stripes.iter().rev() {
            s.lock.unlock();
        }
        #[cfg(debug_assertions)]
        audit::released_all(self.stripes.audit_id());
    }
}

/// Number of reader-registration stripes in an [`EpochRegistry`].
const EPOCH_SLOTS: usize = 64;

/// Low 48 bits of a slot word hold the pinned epoch; the high 16 bits
/// count how many threads are pinned through the slot.
const EPOCH_MASK: u64 = (1 << 48) - 1;
const COUNT_UNIT: u64 = 1 << 48;

/// One epoch slot alone on its cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedEpochSlot(AtomicU64);

/// Striped epoch counters proving when retired allocations are
/// unreachable.
///
/// Every table operation [`pin`](EpochRegistry::pin)s the registry for
/// its duration. Retiring an allocation stamps it with the then-current
/// global epoch and bumps the epoch, so any *later* pin observes a
/// strictly greater epoch. An allocation stamped `e` is reclaimable once
/// [`min_active`](EpochRegistry::min_active) exceeds `e`: every operation
/// that could have loaded the retired pointer has since unpinned.
///
/// Slot words pack `(count:16, epoch:48)`. A thread joining a non-empty
/// slot keeps the slot's (older) epoch rather than publishing its own —
/// conservative, and what makes a single CAS per pin sufficient.
#[derive(Debug)]
pub struct EpochRegistry {
    global: AtomicU64,
    slots: Box<[PaddedEpochSlot]>,
}

impl Default for EpochRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochRegistry {
    /// Creates a registry at epoch 1 (so epoch 0 can mean "never").
    pub fn new() -> Self {
        EpochRegistry {
            global: AtomicU64::new(1),
            slots: (0..EPOCH_SLOTS)
                .map(|_| PaddedEpochSlot::default())
                .collect(),
        }
    }

    /// Registers the calling thread as active in the current epoch.
    ///
    /// Must be held for the whole window in which a pointer loaded from
    /// shared state is dereferenced.
    pub fn pin(&self) -> EpochGuard<'_> {
        #[cfg(debug_assertions)]
        audit::assert_pin_allowed();
        thread_local! {
            static SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
        }
        static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
        let slot = SLOT.with(|s| {
            let mut v = s.get();
            if v == usize::MAX {
                // ORDERING: alloc.unique-id
                v = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % EPOCH_SLOTS;
                s.set(v);
            }
            v
        });
        let word = &self.slots[slot].0;
        let mut spins = 0u32;
        loop {
            let cur = word.load(Ordering::SeqCst); // ORDERING: epoch.seqcst
            let next = if cur & !EPOCH_MASK == 0 {
                // First pinner through this slot: publish the current
                // global epoch. SeqCst orders this against the retirer's
                // epoch bump, so a retire that precedes our pin is
                // observed (we publish an epoch > its stamp).
                // ORDERING: epoch.seqcst
                COUNT_UNIT | self.global.load(Ordering::SeqCst)
            } else {
                // Nested/concurrent pin: keep the slot's older epoch.
                cur + COUNT_UNIT
            };
            if word
                // ORDERING: epoch.seqcst
                .compare_exchange_weak(cur, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return EpochGuard { word };
            }
            backoff(&mut spins);
        }
    }

    /// Stamps a retirement: returns the epoch to tag the retired
    /// allocation with, and advances the global epoch so later pins
    /// observe a greater value.
    pub fn retire_epoch(&self) -> u64 {
        self.global.fetch_add(1, Ordering::SeqCst) // ORDERING: epoch.seqcst
    }

    /// The smallest epoch any active pin may still observe, or
    /// `u64::MAX` when no thread is pinned. An allocation retired at
    /// epoch `e` is safe to free when `e < min_active()`.
    pub fn min_active(&self) -> u64 {
        let mut min = u64::MAX;
        for s in self.slots.iter() {
            let w = s.0.load(Ordering::SeqCst); // ORDERING: epoch.seqcst
            if w & !EPOCH_MASK != 0 {
                min = min.min(w & EPOCH_MASK);
            }
        }
        min
    }

    /// Bytes occupied by the registry (for memory accounting).
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<PaddedEpochSlot>()
    }
}

/// Active-pin token; dropping it deregisters the thread.
#[derive(Debug)]
pub struct EpochGuard<'a> {
    word: &'a AtomicU64,
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        // ORDERING: epoch.seqcst
        let prev = self.word.fetch_sub(COUNT_UNIT, Ordering::SeqCst);
        debug_assert!(prev & !EPOCH_MASK != 0, "unpin without matching pin");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn lock_sets_odd_version_unlock_restores_even() {
        let l = VersionLock::new();
        assert_eq!(l.version(), 0);
        assert!(l.try_lock());
        assert!(l.is_locked());
        assert_eq!(l.version() % 2, 1);
        assert!(!l.try_lock());
        l.unlock();
        assert!(!l.is_locked());
        assert_eq!(l.version(), 2);
    }

    #[test]
    fn optimistic_read_detects_writer() {
        let l = VersionLock::new();
        let stamp = l.read_begin();
        assert!(l.read_validate(stamp));
        l.lock();
        l.unlock();
        assert!(!l.read_validate(stamp), "version moved; reader must retry");
    }

    #[test]
    fn read_begin_waits_for_even_version() {
        // An odd version (seqlock mid-write) must not produce a stamp.
        let l = VersionLock::new();
        l.word().fetch_add(1, Ordering::AcqRel); // simulate publication start
        let word = l.word();
        std::thread::scope(|s| {
            let t = s.spawn(|| l.read_begin());
            std::thread::sleep(std::time::Duration::from_millis(10));
            word.fetch_add(1, Ordering::AcqRel); // publication ends
            let stamp = t.join().unwrap();
            assert!(l.read_validate(stamp));
        });
    }

    #[test]
    fn stripes_map_and_pair_lock() {
        let s = LockStripes::new(8);
        assert_eq!(s.len(), 8);
        assert_eq!(s.stripe_of(3), s.stripe_of(11), "wraps by mask");
        {
            let g = s.lock_pair(1, 9); // same stripe
            assert!(g.covers(1));
            assert!(g.covers(9));
            assert!(s.stripe(1).is_locked());
        }
        assert!(!s.stripe(1).is_locked());
        {
            let _g = s.lock_pair(2, 5);
            assert!(s.stripe(2).is_locked());
            assert!(s.stripe(5).is_locked());
            assert!(!s.stripe(3).is_locked());
        }
        assert!(!s.stripe(2).is_locked());
        assert!(!s.stripe(5).is_locked());
    }

    #[test]
    fn lock_batch_coalesces_and_acquires_in_ascending_stripe_order() {
        // Shuffled buckets with stripe-sharing duplicates: the guard must
        // coalesce shared stripes, acquire the distinct set ascending
        // (the debug auditor panics otherwise — this test is the kill for
        // the batch-sort mutation operator), and release everything.
        let s = LockStripes::new(8);
        {
            let g = s.lock_batch(&[6, 1, 14, 3, 9, 6, 0]); // stripes {6,1,3,0}; 14≡6, 9≡1
            assert_eq!(g.stripes_held(), 4);
            for b in [6, 1, 14, 3, 9, 0] {
                assert!(g.covers(b), "bucket {b}");
                assert!(s.stripe(b).is_locked());
            }
            assert!(!g.covers(2));
            assert!(!s.stripe(2).is_locked());
        }
        for b in 0..8 {
            assert!(!s.stripe(b).is_locked(), "released {b}");
        }
        // Empty and full-width batches are legal.
        assert_eq!(s.lock_batch(&[]).stripes_held(), 0);
        let all: Vec<usize> = (0..MAX_BATCH_BUCKETS).collect();
        assert_eq!(s.lock_batch(&all).stripes_held(), 8);
    }

    #[test]
    fn lock_batch_composes_with_pair_and_multi_ordering() {
        // Nested acquisition above the batch's highest stripe stays legal
        // under the auditor, mirroring how the write pipeline's per-key
        // fallback (batch guard dropped first) and independent pair
        // lockers interleave.
        let s = LockStripes::new(16);
        let g = s.lock_batch(&[1, 4, 2]);
        let _h = s.lock_pair(9, 12);
        drop(g);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    #[cfg(debug_assertions)]
    fn auditor_rejects_pair_below_held_batch() {
        let s = LockStripes::new(16);
        let _g = s.lock_batch(&[5, 9]);
        let _bad = s.lock_pair(2, 3);
    }

    #[test]
    fn rounds_stripe_count_to_power_of_two() {
        assert_eq!(LockStripes::new(5).len(), 8);
        assert_eq!(LockStripes::new(2048).len(), 2048);
        assert_eq!(LockStripes::new(0).len(), 1);
    }

    #[test]
    fn lock_all_excludes_pair_lockers() {
        let s = LockStripes::new(4);
        let g = s.lock_all();
        for i in 0..4 {
            assert!(s.stripe(i).is_locked());
        }
        drop(g);
        for i in 0..4 {
            assert!(!s.stripe(i).is_locked());
        }
    }

    #[test]
    fn pair_lock_mutual_exclusion_under_contention() {
        // Classic increment test: two buckets on two stripes, many
        // threads, counter protected by the pair lock.
        let s = LockStripes::new(16);
        let counter = AtomicUsize::new(0);
        let mut shadow = 0usize;
        let shadow_ptr = SendPtr(&mut shadow as *mut usize);
        const THREADS: usize = 4;
        const PER: usize = 2000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let s = &s;
                let counter = &counter;
                scope.spawn(move || {
                    let shadow_ptr = shadow_ptr;
                    for i in 0..PER {
                        let b1 = (t + i) % 16;
                        let b2 = (t * 7 + i) % 16;
                        let _g = s.lock_pair(b1, b2);
                        // Only safe because every thread locks *some*
                        // stripe pair... which does NOT serialize them.
                        // Use bucket 3 & 5 always for the shared counter:
                        drop(_g);
                        let _g = s.lock_pair(3, 5);
                        // SAFETY: all mutation happens under the (3,5)
                        // pair lock, serializing access.
                        unsafe { *shadow_ptr.0 += 1 };
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(shadow, THREADS * PER);
        assert_eq!(counter.load(Ordering::Relaxed), THREADS * PER);
    }

    #[test]
    fn padded_lock_counters_fit_one_cache_line() {
        assert_eq!(std::mem::size_of::<PaddedLock>(), 64);
        assert_eq!(std::mem::align_of::<PaddedLock>(), 64);
    }

    #[test]
    fn lock_stats_count_acquisitions_and_contention() {
        let s = LockStripes::new(4);
        assert_eq!(s.lock_stats().acquisitions, 0);
        drop(s.lock_pair(0, 1)); // two stripes
        drop(s.lock_pair(2, 2)); // one stripe
        drop(s.lock_all()); // four stripes
        drop(s.lock_batch(&[0, 1, 2])); // three stripes
        let st = s.lock_stats();
        assert_eq!(st.acquisitions, 2 + 1 + 4 + 3);
        assert_eq!(st.contended, 0, "single-threaded: no contention");
        assert_eq!(st.spin_waits.count(), 0);
        s.reset_lock_stats();
        assert_eq!(s.lock_stats().acquisitions, 0);
    }

    #[test]
    fn contended_acquisitions_record_spin_waits() {
        let s = LockStripes::new(2);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let held = s.lock_pair(0, 0);
            let (s2, b2) = (&s, &barrier);
            let t = scope.spawn(move || {
                b2.wait();
                drop(s2.lock_pair(0, 0)); // blocks until main unlocks
            });
            barrier.wait();
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(held);
            t.join().unwrap();
        });
        let st = s.lock_stats();
        assert_eq!(st.acquisitions, 2);
        assert_eq!(st.contended, 1);
        assert_eq!(st.spin_waits.count(), 1);
        assert!(st.contended <= st.acquisitions);
    }

    #[derive(Clone, Copy)]
    struct SendPtr(*mut usize);
    // SAFETY: test-only; the pointee outlives the scope and access is
    // serialized by the lock under test.
    unsafe impl Send for SendPtr {}

    #[test]
    fn multi_lock_dedupes_shared_stripes() {
        let s = LockStripes::new(8);
        {
            let g = s.lock_batch(&[1, 9, 3]); // 1 and 9 share a stripe
            assert!(g.covers(1));
            assert!(g.covers(9));
            assert!(g.covers(3));
            assert!(!g.covers(4));
            assert!(s.stripe(1).is_locked());
            assert!(s.stripe(3).is_locked());
        }
        assert!(!s.stripe(1).is_locked());
        assert!(!s.stripe(3).is_locked());
        {
            let _g = s.lock_batch(&[5, 5, 5]);
            assert!(s.stripe(5).is_locked());
        }
        assert!(!s.stripe(5).is_locked());
    }

    #[test]
    fn multi_lock_orders_against_pair_lock() {
        // Interleave lock_batch and lock_pair over overlapping stripes
        // from several threads; ordered acquisition must not deadlock.
        let s = LockStripes::new(4);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                let hits = &hits;
                scope.spawn(move || {
                    for i in 0..500 {
                        if (t + i) % 2 == 0 {
                            let _g = s.lock_batch(&[i % 4, (i + 1) % 4, (i + 3) % 4]);
                            hits.fetch_add(1, Ordering::Relaxed);
                        } else {
                            let _g = s.lock_pair((i + 2) % 4, i % 4);
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn epoch_pin_blocks_reclamation_until_dropped() {
        let r = EpochRegistry::new();
        assert_eq!(r.min_active(), u64::MAX, "no pins: everything freeable");
        let g = r.pin();
        let before = r.min_active();
        assert_ne!(before, u64::MAX);
        let tag = r.retire_epoch();
        // The pre-existing pin observed an epoch <= tag, so the retired
        // allocation is not yet freeable.
        assert!(r.min_active() <= tag);
        drop(g);
        // A fresh pin starts after the retire; it must not hold the tag back.
        let _g2 = r.pin();
        assert!(r.min_active() > tag, "post-retire pin observes newer epoch");
    }

    #[test]
    fn epoch_nested_pins_keep_oldest() {
        let r = EpochRegistry::new();
        // Two pins from the same thread share a slot; the second must not
        // advance the slot's published epoch past the first.
        let g1 = r.pin();
        let floor = r.min_active();
        r.retire_epoch();
        let g2 = r.pin();
        assert_eq!(r.min_active(), floor, "nested pin kept the older epoch");
        drop(g1);
        drop(g2);
        assert_eq!(r.min_active(), u64::MAX);
    }

    /// Deterministic ordering probe: `lock_pair` must sort its stripes,
    /// so descending arguments still acquire ascending. The CI mutation
    /// smoke test breaks the sort and expects the auditor to fail this.
    #[test]
    fn lock_pair_sorts_descending_arguments() {
        let stripes = LockStripes::new(8);
        let g = stripes.lock_pair(7, 3);
        assert!(g.covers(7) && g.covers(3));
        drop(g);
        let g = stripes.lock_batch(&[6, 1, 4]);
        drop(g);
        let _all = stripes.lock_all();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn auditor_rejects_descending_nested_acquisition() {
        let stripes = LockStripes::new(8);
        let _outer = stripes.lock_pair(5, 5);
        let _inner = stripes.lock_pair(3, 3); // 3 < 5: would deadlock
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn auditor_rejects_lock_all_under_held_stripe() {
        let stripes = LockStripes::new(8);
        let _outer = stripes.lock_pair(2, 2);
        let _all = stripes.lock_all(); // would self-deadlock on stripe 2
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "epoch pin while holding stripe locks")]
    fn auditor_rejects_pin_while_holding_stripe() {
        let stripes = LockStripes::new(8);
        let r = EpochRegistry::new();
        let _g = stripes.lock_pair(1, 2);
        let _pin = r.pin(); // lock/pin inversion
    }

    /// Two tables have independent stripe orders: interleaved
    /// acquisition across tables is legitimate (migration holds the
    /// map's stripes only, but keep the auditor honest about scoping).
    #[cfg(debug_assertions)]
    #[test]
    fn auditor_scopes_order_per_table() {
        let a = LockStripes::new(8);
        let b = LockStripes::new(8);
        let _ga = a.lock_pair(6, 6);
        let _gb = b.lock_pair(2, 2); // 2 < 6 but a different table
    }

    #[test]
    fn epoch_concurrent_pin_unpin_balances() {
        let r = EpochRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let r = &r;
                scope.spawn(move || {
                    for _ in 0..2000 {
                        let _g = r.pin();
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert_eq!(r.min_active(), u64::MAX, "all pins released");
    }
}
