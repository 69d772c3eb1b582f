//! Transactions: speculative reads, buffered writes, two-phase commit.
//!
//! A [`Transaction`] follows the TL2 recipe:
//!
//! 1. At begin, sample the domain's global version clock (`rv`).
//! 2. Reads validate that the covered ownership records are unlocked and
//!    not newer than `rv` (so the transaction only ever observes a
//!    consistent snapshot — no "zombie" executions), then log the record
//!    and version in the read set.
//! 3. Writes are buffered; memory is untouched until commit, exactly as
//!    hardware HTM keeps speculative stores in the L1 cache.
//! 4. Commit acquires the write-set ownership records in sorted order,
//!    re-validates the read set, applies the buffered writes, and releases
//!    the records stamped with a fresh clock value.
//!
//! Any step can fail, surfacing an [`Abort`] with the same cause taxonomy
//! as Intel RTM (see [`crate::abort`]).
//!
//! # Seqlock-published writes
//!
//! Hardware transactions are atomic with respect to *all* observers,
//! including plain non-transactional readers. A software commit is not: it
//! applies buffered writes one by one. Data structures that let lock-free
//! readers race transactional writers (the paper's optimistic cuckoo
//! readers, §4) therefore publish through per-stripe seqlock version
//! counters: [`Transaction::seq_write_begin`] registers a counter word,
//! and commit makes it odd before the first data write and even again
//! after the last one, so a racing reader always detects the window.

use crate::abort::Abort;
use crate::lineset::LineSet;
use cuckoo::racy::{load_bytes as atomic_load_bytes, store_bytes as atomic_store_bytes};
use crate::orec::{HtmDomain, CACHE_LINE, OREC_LOCKED};
use cuckoo::Plain;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

/// A buffered store: `len` bytes at `write_data[off..]` destined for `addr`.
#[derive(Debug, Clone, Copy)]
struct WriteEntry {
    addr: usize,
    off: u32,
    len: u32,
}

/// Reusable transaction buffers.
///
/// Allocating read/write sets on every attempt would put `malloc` inside
/// what models a transactional region — the exact anti-pattern the paper
/// warns about in §5 ("it is therefore useful to pre-allocate structures
/// that may be needed inside the transactional region"). Callers keep one
/// `TxScratch` per thread and reuse it across attempts.
pub struct TxScratch {
    read_set: Vec<(u32, u64)>,
    write_entries: Vec<WriteEntry>,
    write_data: Vec<u8>,
    read_lines: LineSet,
    write_lines: LineSet,
    seq_words: Vec<usize>,
    guard_addrs: Vec<usize>,
    commit_orecs: Vec<(u32, bool)>,
}

impl TxScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        TxScratch {
            read_set: Vec::with_capacity(64),
            write_entries: Vec::with_capacity(16),
            write_data: Vec::with_capacity(256),
            read_lines: LineSet::with_capacity(64),
            write_lines: LineSet::with_capacity(16),
            seq_words: Vec::with_capacity(8),
            guard_addrs: Vec::with_capacity(2),
            commit_orecs: Vec::with_capacity(16),
        }
    }

    fn reset(&mut self) {
        self.read_set.clear();
        self.write_entries.clear();
        self.write_data.clear();
        self.read_lines.clear();
        self.write_lines.clear();
        self.seq_words.clear();
        self.guard_addrs.clear();
        self.commit_orecs.clear();
    }
}

impl Default for TxScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// An in-flight speculative execution against an [`HtmDomain`].
pub struct Transaction<'t> {
    domain: &'t HtmDomain,
    scratch: &'t mut TxScratch,
    rv: u64,
}

impl<'t> Transaction<'t> {
    pub(crate) fn begin(domain: &'t HtmDomain, scratch: &'t mut TxScratch) -> Self {
        scratch.reset();
        let rv = domain.clock_now();
        Transaction {
            domain,
            scratch,
            rv,
        }
    }

    /// Number of distinct cache lines in the read set so far.
    pub fn read_footprint(&self) -> usize {
        self.scratch.read_lines.len()
    }

    /// Number of distinct cache lines in the write set so far.
    pub fn write_footprint(&self) -> usize {
        self.scratch.write_lines.len()
    }

    /// Transactionally reads the value at `ptr`.
    ///
    /// The read is validated against the covering ownership records before
    /// and after the data copy, so on `Ok` the value is consistent with
    /// every other value this transaction has read.
    ///
    /// # Safety
    ///
    /// `ptr` must be non-null, valid for reads of `size_of::<T>()` bytes
    /// for the duration of the call, and point into memory that stays
    /// allocated for the transaction's lifetime. Concurrent writes to the
    /// same bytes are permitted (they are detected and turn into aborts).
    pub unsafe fn read<T: Plain>(&mut self, ptr: *const T) -> Result<T, Abort> {
        let size = std::mem::size_of::<T>();
        if size == 0 {
            // SAFETY: zero-sized types have exactly one value, and reading
            // it touches no memory.
            return Ok(unsafe { std::mem::zeroed() });
        }
        let addr = ptr as usize;
        let first_line = addr / CACHE_LINE;
        let last_line = (addr + size - 1) / CACHE_LINE;

        // Pre-validate and log every covered ownership record.
        let read_set_start = self.scratch.read_set.len();
        for line in first_line..=last_line {
            let idx = self.domain.orec_index(line * CACHE_LINE);
            // ORDERING: publish.acquire-load
            let ver = self.domain.orec(idx).load(Ordering::Acquire);
            if ver & OREC_LOCKED != 0 || ver > self.rv {
                return Err(Abort::conflict());
            }
            self.scratch.read_set.push((idx, ver));
            if self.scratch.read_lines.insert(line as u64)
                && self.scratch.read_lines.len() > self.domain.config().read_capacity_lines
            {
                return Err(Abort::capacity());
            }
        }

        // Copy the bytes with per-chunk atomics: racing a committing writer
        // is detected below, but the copy itself must be race-free.
        let mut value = MaybeUninit::<T>::uninit();
        // SAFETY: `value` provides `size` writable bytes; `ptr` provides
        // `size` readable bytes per this function's contract.
        unsafe { atomic_load_bytes(addr, value.as_mut_ptr().cast::<u8>(), size) };

        // Post-validate: if any covering orec changed during the copy, the
        // bytes may be torn.
        for &(idx, ver) in &self.scratch.read_set[read_set_start..] {
            // ORDERING: publish.acquire-load
            if self.domain.orec(idx).load(Ordering::Acquire) != ver {
                return Err(Abort::conflict());
            }
        }

        // Read-after-write: overlay this transaction's own buffered stores,
        // oldest first, so the value reflects program order.
        for i in 0..self.scratch.write_entries.len() {
            let e = self.scratch.write_entries[i];
            let (e_start, e_end) = (e.addr, e.addr + e.len as usize);
            let (r_start, r_end) = (addr, addr + size);
            if e_start < r_end && r_start < e_end {
                let lo = e_start.max(r_start);
                let hi = e_end.min(r_end);
                let src = &self.scratch.write_data
                    [(e.off as usize + (lo - e_start))..(e.off as usize + (hi - e_start))];
                // SAFETY: `lo - r_start + (hi - lo) <= size`, staying inside
                // `value`'s buffer.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        src.as_ptr(),
                        value.as_mut_ptr().cast::<u8>().add(lo - r_start),
                        hi - lo,
                    );
                }
            }
        }

        // SAFETY: all `size` bytes were initialized by the atomic copy, and
        // `T: Plain` guarantees any bit pattern is a valid `T`.
        Ok(unsafe { value.assume_init() })
    }

    /// Buffers a transactional store of `value` to `ptr`.
    ///
    /// Memory is not modified until commit; the transaction's own
    /// subsequent [`Transaction::read`]s observe the buffered value.
    ///
    /// # Safety
    ///
    /// `ptr` must be non-null and remain valid for writes of
    /// `size_of::<T>()` bytes until the transaction commits or aborts.
    pub unsafe fn write<T: Plain>(&mut self, ptr: *mut T, value: T) -> Result<(), Abort> {
        let size = std::mem::size_of::<T>();
        if size == 0 {
            return Ok(());
        }
        let addr = ptr as usize;
        let first_line = addr / CACHE_LINE;
        let last_line = (addr + size - 1) / CACHE_LINE;
        for line in first_line..=last_line {
            if self.scratch.write_lines.insert(line as u64)
                && self.scratch.write_lines.len() > self.domain.config().write_capacity_lines
            {
                return Err(Abort::capacity());
            }
        }

        let value_bytes =
            // SAFETY: `T: Plain + Copy`; viewing its bytes is always valid.
            unsafe { std::slice::from_raw_parts(&value as *const T as *const u8, size) };

        // Exact-slot overwrite keeps the buffer small for the common
        // read-modify-write-same-field pattern.
        for e in &self.scratch.write_entries {
            if e.addr == addr && e.len as usize == size {
                self.scratch.write_data[e.off as usize..e.off as usize + size]
                    .copy_from_slice(value_bytes);
                return Ok(());
            }
        }
        let off = self.scratch.write_data.len() as u32;
        self.scratch.write_data.extend_from_slice(value_bytes);
        self.scratch.write_entries.push(WriteEntry {
            addr,
            off,
            len: size as u32,
        });
        Ok(())
    }

    /// Registers a seqlock version word to publish this transaction's
    /// writes through.
    ///
    /// At commit, every registered word is incremented (to odd) before the
    /// first buffered data write lands and incremented again (back to
    /// even) after the last one, with the word's ownership record held so
    /// concurrent transactions conflict on it. Lock-free readers
    /// validating the word therefore never observe a half-applied commit.
    ///
    /// The caller must not also [`Transaction::write`] the same word.
    ///
    /// # Safety
    ///
    /// `word` must remain valid until the transaction commits or aborts,
    /// and its current value must be even (not mid-publication by a
    /// non-transactional writer; mutual exclusion between writers is the
    /// caller's responsibility — under lock elision the fallback-lock
    /// protocol provides it).
    pub unsafe fn seq_write_begin(&mut self, word: &AtomicU64) -> Result<(), Abort> {
        let addr = word as *const AtomicU64 as usize;
        if self.scratch.seq_words.contains(&addr) {
            return Ok(());
        }
        let line = (addr / CACHE_LINE) as u64;
        if self.scratch.write_lines.insert(line)
            && self.scratch.write_lines.len() > self.domain.config().write_capacity_lines
        {
            return Err(Abort::capacity());
        }
        self.scratch.seq_words.push(addr);
        Ok(())
    }

    /// Registers `addr`'s ownership record to be *held* (but not
    /// re-stamped) across commit.
    ///
    /// This closes the publication race between a committing transaction
    /// and non-transactional writers coordinated through a flag at
    /// `addr`: hardware commits are atomic, so on real HTM a fallback-lock
    /// holder can never interleave with a commit's stores. Here, a
    /// transaction that read the fallback lock free could pass read-set
    /// validation and then apply its buffered writes *concurrently* with a
    /// fallback acquirer's direct writes. Guarding the lock word's record
    /// makes the two mutually exclusive: the fallback acquirer takes the
    /// record via [`HtmDomain::locked_line_update`], so either it waits
    /// for the commit to finish, or the commit (re-)validates after the
    /// acquirer's version bump and aborts.
    ///
    /// Guarded records are released with their original version (a guard
    /// is not a write).
    pub fn guard_addr(&mut self, addr: usize) {
        if !self.scratch.guard_addrs.contains(&addr) {
            self.scratch.guard_addrs.push(addr);
        }
    }

    /// Attempts to commit: lock write-set records, validate the read set,
    /// apply buffered writes (bracketed by the seqlock bumps), release.
    pub(crate) fn commit(self) -> Result<(), Abort> {
        let s = &mut *self.scratch;
        if s.write_entries.is_empty() && s.seq_words.is_empty() {
            // Read-only transactions already validated every read against
            // `rv`; nothing to publish.
            return Ok(());
        }

        // Gather the ownership records covering all written lines
        // (`true` = stamped with a fresh version on release) plus the
        // guarded records (`false` = held but released unstamped).
        s.commit_orecs.clear();
        for e in &s.write_entries {
            let first = e.addr / CACHE_LINE;
            let last = (e.addr + e.len as usize - 1) / CACHE_LINE;
            for line in first..=last {
                s.commit_orecs
                    .push((self.domain.orec_index(line * CACHE_LINE), true));
            }
        }
        for &addr in &s.seq_words {
            s.commit_orecs.push((self.domain.orec_index(addr), true));
        }
        for &addr in &s.guard_addrs {
            s.commit_orecs.push((self.domain.orec_index(addr), false));
        }
        // Sort by index; where an index is both written and guarded, the
        // written (stamped) entry wins the dedup.
        s.commit_orecs.sort_unstable_by_key(|e| (e.0, !e.1));
        s.commit_orecs.dedup_by_key(|e| e.0);

        // Phase 1: acquire write-set and guard orecs in sorted order
        // (deadlock-free).
        let mut acquired = 0usize;
        'acquire: for (i, &(idx, _)) in s.commit_orecs.iter().enumerate() {
            let orec = self.domain.orec(idx);
            for _ in 0..self.domain.config().acquire_spin {
                // ORDERING: publish.acquire-load
                let cur = orec.load(Ordering::Acquire);
                // ORDERING: handoff.acqrel-rmw
                if cur & OREC_LOCKED == 0
                    && orec
                        .compare_exchange_weak(
                            cur,
                            cur | OREC_LOCKED,
                            Ordering::Acquire,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                {
                    acquired = i + 1;
                    continue 'acquire;
                }
                std::hint::spin_loop();
            }
            // Could not lock: back out.
            release_orecs(self.domain, &s.commit_orecs[..acquired], None);
            return Err(Abort::conflict());
        }

        // Phase 2: validate the read set. A record we hold locked
        // ourselves validates against its pre-lock version.
        for &(idx, ver) in &s.read_set {
            // ORDERING: publish.acquire-load
            let cur = self.domain.orec(idx).load(Ordering::Acquire);
            let ok = cur == ver
                || (cur == (ver | OREC_LOCKED)
                    && s
                        .commit_orecs
                        .binary_search_by_key(&idx, |e| e.0)
                        .is_ok());
            if !ok {
                release_orecs(self.domain, &s.commit_orecs, None);
                return Err(Abort::conflict());
            }
        }

        // Phase 3: publish. Seqlock words go odd, data lands, words go
        // even; lock-free readers racing us must retry.
        for &addr in &s.seq_words {
            // SAFETY: caller of `seq_write_begin` guaranteed validity.
            let word = unsafe { &*(addr as *const AtomicU64) };
            // ORDERING: handoff.acqrel-rmw — odd-stamp before the data lands.
            word.fetch_add(1, Ordering::AcqRel);
        }
        for e in &s.write_entries {
            let src = &s.write_data[e.off as usize..(e.off + e.len) as usize];
            // SAFETY: caller of `write` guaranteed `e.addr` stays valid for
            // `e.len` bytes until commit; concurrent readers use validated
            // atomic reads.
            unsafe { atomic_store_bytes(e.addr, src.as_ptr(), e.len as usize) };
        }
        for &addr in &s.seq_words {
            // SAFETY: as above.
            let word = unsafe { &*(addr as *const AtomicU64) };
            // ORDERING: handoff.acqrel-rmw — even-stamp publishes the data.
            word.fetch_add(1, Ordering::AcqRel);
        }

        // Phase 4: stamp written records with a fresh timestamp; guarded
        // records go back unmodified.
        let wv = self.domain.clock_advance();
        release_orecs(self.domain, &s.commit_orecs, Some(wv));
        Ok(())
    }
}

/// Releases locked orecs; `stamp` of `None` restores every pre-lock
/// version (abort path), `Some(wv)` publishes the new version to stamped
/// (written) records and restores guarded ones (commit path).
fn release_orecs(domain: &HtmDomain, orecs: &[(u32, bool)], stamp: Option<u64>) {
    for &(idx, stamped) in orecs {
        let orec = domain.orec(idx);
        match stamp {
            // ORDERING: publish.release-store
            Some(wv) if stamped => orec.store(wv, Ordering::Release),
            _ => {
                // ORDERING: seqlock.advisory-probe — we hold the lock bit;
                // the value is ours, no synchronization rides on the load.
                let cur = orec.load(Ordering::Relaxed);
                debug_assert!(cur & OREC_LOCKED != 0);
                // ORDERING: publish.release-store
                orec.store(cur & !OREC_LOCKED, Ordering::Release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::AbortCode;
    use crate::orec::HtmConfig;

    #[test]
    fn read_sees_initial_value() {
        let d = HtmDomain::new();
        let x = 42u64;
        let got = d
            .execute(|tx| {
                // SAFETY: `x` outlives the transaction.
                unsafe { tx.read(&x as *const u64) }
            })
            .unwrap();
        assert_eq!(got, 42);
    }

    #[test]
    fn write_is_buffered_until_commit() {
        let d = HtmDomain::new();
        let mut x = 0u64;
        let p: *mut u64 = &mut x;
        d.execute(|tx| {
            // SAFETY: `x` outlives the transaction.
            unsafe { tx.write(p, 7)? };
            // The store must not have landed yet...
            assert_eq!(x, 0);
            // ...but our own read must observe it.
            // SAFETY: as above.
            let v = unsafe { tx.read(p as *const u64)? };
            assert_eq!(v, 7);
            Ok(())
        })
        .unwrap();
        assert_eq!(x, 7);
    }

    #[test]
    fn aborted_transaction_discards_writes() {
        let d = HtmDomain::new();
        let mut x = 1u64;
        let p: *mut u64 = &mut x;
        let r: Result<(), Abort> = d.execute(|tx| {
            // SAFETY: `x` outlives the transaction.
            unsafe { tx.write(p, 99)? };
            Err(Abort::explicit(5))
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Explicit(5));
        assert_eq!(x, 1);
    }

    #[test]
    fn read_after_write_partial_overlap() {
        let d = HtmDomain::new();
        let mut buf = [0u8; 16];
        let base = buf.as_mut_ptr();
        d.execute(|tx| {
            // SAFETY: `buf` outlives the transaction; offsets in bounds.
            unsafe {
                tx.write(base.add(4) as *mut u32, 0xdead_beefu32)?;
                let whole: [u8; 16] = tx.read(base as *const [u8; 16])?;
                assert_eq!(&whole[0..4], &[0, 0, 0, 0]);
                assert_eq!(
                    u32::from_ne_bytes(whole[4..8].try_into().unwrap()),
                    0xdead_beef
                );
                assert_eq!(&whole[8..16], &[0u8; 8]);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(u32::from_ne_bytes(buf[4..8].try_into().unwrap()), 0xdead_beef);
    }

    #[test]
    fn same_slot_rewrite_coalesces() {
        let d = HtmDomain::new();
        let mut x = 0u64;
        let p: *mut u64 = &mut x;
        d.execute(|tx| {
            for i in 0..100u64 {
                // SAFETY: `x` outlives the transaction.
                unsafe { tx.write(p, i)? };
            }
            assert_eq!(tx.scratch.write_entries.len(), 1);
            Ok(())
        })
        .unwrap();
        assert_eq!(x, 99);
    }

    #[test]
    fn write_capacity_abort() {
        let d = HtmDomain::with_config(HtmConfig {
            write_capacity_lines: 4,
            ..HtmConfig::default()
        });
        let mut arr = vec![0u64; 1024];
        let base = arr.as_mut_ptr();
        let r: Result<(), Abort> = d.execute(|tx| {
            for i in 0..64 {
                // SAFETY: indices stay inside `arr`; one write per line.
                unsafe { tx.write(base.add(i * 8), 1u64)? };
            }
            Ok(())
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Capacity);
        assert!(arr.iter().all(|&v| v == 0), "aborted tx must not write");
    }

    #[test]
    fn read_capacity_abort() {
        let d = HtmDomain::with_config(HtmConfig {
            read_capacity_lines: 4,
            ..HtmConfig::default()
        });
        let arr = vec![0u64; 1024];
        let base = arr.as_ptr();
        let r: Result<(), Abort> = d.execute(|tx| {
            for i in 0..64 {
                // SAFETY: indices stay inside `arr`; one read per line.
                unsafe { tx.read(base.add(i * 8))? };
            }
            Ok(())
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Capacity);
    }

    #[test]
    fn stale_read_aborts_after_external_invalidation() {
        let d = HtmDomain::new();
        let x = 5u64;
        let addr = &x as *const u64 as usize;
        let r: Result<u64, Abort> = d.execute(|tx| {
            // Simulate a non-transactional writer invalidating the line
            // mid-transaction (as the elision fallback path does).
            d.invalidate_line(addr);
            // SAFETY: `x` outlives the transaction.
            unsafe { tx.read(&x as *const u64) }
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Conflict);
    }

    #[test]
    fn commit_validation_catches_conflicting_commit() {
        let d = HtmDomain::new();
        let x = 5u64;
        let mut y = 0u64;
        let px = &x as *const u64;
        let py: *mut u64 = &mut y;
        let addr_x = px as usize;
        let r: Result<(), Abort> = d.execute(|tx| {
            // SAFETY: both locations outlive the transaction.
            let v = unsafe { tx.read(px)? };
            // Another thread commits to x's line after we read it...
            d.invalidate_line(addr_x);
            // SAFETY: as above.
            unsafe { tx.write(py, v + 1)? };
            Ok(())
        });
        // ...so our commit-time read-set validation must fail.
        assert_eq!(r.unwrap_err().code, AbortCode::Conflict);
        assert_eq!(y, 0);
    }

    #[test]
    fn seq_words_bracket_commit() {
        let d = HtmDomain::new();
        let word = AtomicU64::new(0);
        let mut x = 0u64;
        let p: *mut u64 = &mut x;
        d.execute(|tx| {
            // SAFETY: `word` and `x` outlive the transaction.
            unsafe {
                tx.seq_write_begin(&word)?;
                tx.write(p, 3)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(word.load(Ordering::Relaxed), 2, "odd then even bump");
        assert_eq!(x, 3);
    }

    #[test]
    fn read_only_transaction_commits_without_clock_advance() {
        let d = HtmDomain::new();
        let x = 9u64;
        let before = d.clock_now();
        // SAFETY: `x` outlives the transaction.
        d.execute(|tx| unsafe { tx.read(&x as *const u64) }).unwrap();
        assert_eq!(d.clock_now(), before);
    }

    #[test]
    fn zero_sized_reads_and_writes_are_noops() {
        let d = HtmDomain::new();
        let mut unit = ();
        let p: *mut () = &mut unit;
        d.execute(|tx| {
            // SAFETY: zero-sized access touches no memory.
            unsafe {
                tx.read(p as *const ())?;
                tx.write(p, ())?;
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn footprint_counters_track_distinct_lines() {
        let d = HtmDomain::new();
        let arr = vec![0u64; 64];
        let base = arr.as_ptr();
        d.execute(|tx| {
            // SAFETY: all indices in bounds.
            unsafe {
                tx.read(base)?; // line 0
                tx.read(base.add(1))?; // still line 0
                tx.read(base.add(8))?; // line 1
            }
            assert_eq!(tx.read_footprint(), 2);
            Ok(())
        })
        .unwrap();
    }
}
