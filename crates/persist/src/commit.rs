//! The group-commit core: a bounded in-flight buffer between the write
//! hot path and the single log-writer thread.
//!
//! This module is deliberately free of file I/O and timers so the model
//! checker can explore it (`--cfg cuckoo_model` swaps every primitive
//! here for the instrumented loom shim via `cuckoo::sync2`). The
//! protocol it owns:
//!
//! - **LSN assignment and enqueue are one atomic step** (both under the
//!   queue mutex): each record is encoded straight onto the end of one
//!   contiguous byte run in the critical section that assigns its LSN,
//!   so the run is always LSN-ordered frames and two racing appends can
//!   never enqueue out of order. The run *is* what the writer puts on
//!   disk: a drained batch is one write.
//! - **Backpressure never blocks on disk**: an appender that finds the
//!   buffer at its byte bound waits on the queue's condvar until the
//!   writer drains it — on *memory*, not on `fsync`. Only what releases
//!   a waiter notifies: a drain of a run at the bound, shutdown, and a
//!   durable mark while a [`CommitQueue::sync`] waits.
//! - **Watermarks** (`written_lsn` ≤ everything the writer handed to the
//!   OS; `durable_lsn` ≤ everything fsync'd) only ever advance, and
//!   `durable_lsn ≤ written_lsn ≤ last_lsn` always holds.
//!
//! The std-only writer thread (file writes, fsync cadence, rotation)
//! lives in [`crate::log`]; under the model a test thread plays its role
//! by calling [`CommitQueue::pop_batch`] / [`CommitQueue::mark_durable`]
//! directly, and a lost wakeup is a deadlock the checker reports.

use crate::record::{encode_op, OpRef};
use cuckoo::sync2::atomic::{AtomicBool, AtomicU64, Ordering};
use cuckoo::sync2::{Condvar, Mutex};
use metrics::persist::PersistMetrics;
use std::time::Instant;

struct Pending {
    /// Encoded frames (header + payload each), back to back in LSN
    /// order: exactly the bytes the writer appends to the log.
    buf: Vec<u8>,
    /// When the oldest frame in `buf` was enqueued; the writer turns its
    /// age at fsync time into the group-commit latency histogram. Not
    /// part of the modeled protocol.
    first_enqueued: Option<Instant>,
    next_lsn: u64,
    /// [`CommitQueue::sync`] callers waiting on `changed`.
    syncs: usize,
}

/// One drained run of frames, as [`CommitQueue::pop_batch`] hands it
/// to the writer.
pub struct Batch {
    /// Whole frames, LSN-ordered and dense; empty if nothing was queued.
    pub frames: Vec<u8>,
    /// LSN of the last frame in `frames` (the highest LSN assigned so
    /// far, so already written when `frames` is empty).
    pub last_lsn: u64,
    /// When the first frame in `frames` was enqueued.
    pub enqueued: Option<Instant>,
}

/// See the module docs.
pub struct CommitQueue {
    pending: Mutex<Pending>,
    /// Signalled, with `pending` held, when a waiter may proceed.
    changed: Condvar,
    /// Highest LSN assigned to an append.
    last_lsn: AtomicU64,
    /// Highest LSN written to the log file (not necessarily durable).
    written_lsn: AtomicU64,
    /// Highest LSN fsync'd.
    durable_lsn: AtomicU64,
    /// An appender wants durability now (graceful drain, tests).
    sync_requested: AtomicBool,
    /// No more appends; writer drains, fsyncs, and exits.
    shutdown: AtomicBool,
    max_bytes: usize,
}

impl CommitQueue {
    /// `start_lsn` is the highest LSN already on disk (recovery hands it
    /// in so restart continues the sequence); `max_bytes` bounds the
    /// in-flight buffer.
    pub fn new(start_lsn: u64, max_bytes: usize) -> Self {
        CommitQueue {
            pending: Mutex::new(Pending {
                buf: Vec::new(),
                first_enqueued: None,
                next_lsn: start_lsn + 1,
                syncs: 0,
            }),
            changed: Condvar::new(),
            last_lsn: AtomicU64::new(start_lsn),
            written_lsn: AtomicU64::new(start_lsn),
            durable_lsn: AtomicU64::new(start_lsn),
            sync_requested: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            max_bytes,
        }
    }

    /// Assigns the next LSN, encodes `op` under it, and enqueues the
    /// frame. Waits (never on the disk) while the buffer is at its
    /// bound, until the writer drains it or shutdown begins. Returns the
    /// assigned LSN.
    pub fn append(&self, op: OpRef<'_>, metrics: &PersistMetrics) -> u64 {
        self.append_many(1, |_, lsn, buf| encode_op(op, lsn, buf), metrics)
    }

    /// Enqueues `n` records under consecutive LSNs in one step, as
    /// [`append`](Self::append) enqueues one: `encode(i, lsn, buf)`
    /// appends record `i`'s frame to `buf` and returns its size. Returns
    /// the last LSN assigned (`last_lsn()` unchanged when `n` is 0).
    pub fn append_many(
        &self,
        n: usize,
        mut encode: impl FnMut(usize, u64, &mut Vec<u8>) -> usize,
        metrics: &PersistMetrics,
    ) -> u64 {
        if n == 0 {
            return self.last_lsn();
        }
        let full = |st: &Pending| st.buf.len() >= self.max_bytes && !self.is_shutdown();
        let mut st = self.pending.lock().expect("commit queue poisoned");
        if full(&st) {
            metrics.backpressure_waits.inc();
            while full(&st) {
                st = self.changed.wait(st).expect("commit queue poisoned");
            }
        }
        let st = &mut *st;
        if st.buf.is_empty() {
            st.first_enqueued = Some(Instant::now());
        }
        let mut bytes = 0;
        for i in 0..n {
            bytes += encode(i, st.next_lsn, &mut st.buf);
            st.next_lsn += 1;
        }
        let lsn = st.next_lsn - 1;
        // ORDERING: publish.release-store
        self.last_lsn.store(lsn, Ordering::Release);
        metrics.log_records.add(n as u64);
        metrics.log_bytes.add(bytes as u64);
        lsn
    }

    /// Takes the whole buffered run of frames (possibly empty) and
    /// leaves `spare`, cleared, in its place: the writer hands back the
    /// run it last wrote, so steady state allocates nothing. Wakes the
    /// appenders if the run had reached the bound: only then can one wait.
    pub fn pop_batch(&self, mut spare: Vec<u8>) -> Batch {
        spare.clear();
        let mut st = self.pending.lock().expect("commit queue poisoned");
        let frames = std::mem::replace(&mut st.buf, spare);
        let enqueued = st.first_enqueued.take();
        let last_lsn = st.next_lsn - 1;
        if frames.len() >= self.max_bytes {
            self.changed.notify_all();
        }
        Batch { frames, last_lsn, enqueued }
    }

    /// Writer: the batch up to `lsn` has been handed to the OS.
    pub fn mark_written(&self, lsn: u64) {
        // ORDERING: publish.release-store
        self.written_lsn.fetch_max(lsn, Ordering::Release);
    }

    /// Writer: everything up to `lsn` survived an fsync. Wakes the
    /// [`sync`](Self::sync) callers, if any wait.
    pub fn mark_durable(&self, lsn: u64) {
        // ORDERING: publish.acquire-load
        debug_assert!(lsn <= self.written_lsn.load(Ordering::Acquire));
        // ORDERING: publish.release-store
        self.durable_lsn.fetch_max(lsn, Ordering::Release);
        let st = self.pending.lock().expect("commit queue poisoned");
        if st.syncs > 0 {
            self.changed.notify_all();
        }
    }

    pub fn last_lsn(&self) -> u64 {
        // ORDERING: publish.acquire-load
        self.last_lsn.load(Ordering::Acquire)
    }

    pub fn written_lsn(&self) -> u64 {
        // ORDERING: publish.acquire-load
        self.written_lsn.load(Ordering::Acquire)
    }

    pub fn durable_lsn(&self) -> u64 {
        // ORDERING: publish.acquire-load
        self.durable_lsn.load(Ordering::Acquire)
    }

    /// Asks the writer to fsync at its next opportunity and waits until
    /// everything appended so far is durable.
    pub fn sync(&self) {
        let target = self.last_lsn();
        let mut st = self.pending.lock().expect("commit queue poisoned");
        while self.durable_lsn() < target {
            // ORDERING: publish.release-store
            self.sync_requested.store(true, Ordering::Release);
            st.syncs += 1;
            st = self.changed.wait(st).expect("commit queue poisoned");
            st.syncs -= 1;
        }
    }

    /// Writer side of [`sync`](Self::sync): consumes the request flag.
    pub fn take_sync_request(&self) -> bool {
        // ORDERING: handoff.acqrel-rmw
        self.sync_requested.swap(false, Ordering::AcqRel)
    }

    /// Stops accepting the backpressure wait (appends still succeed so a
    /// drain cannot deadlock) and tells the writer to finish. Sets the
    /// flag and wakes the waiters under the mutex, so none misses it.
    pub fn begin_shutdown(&self) {
        let _st = self.pending.lock().expect("commit queue poisoned");
        // ORDERING: publish.release-store
        self.shutdown.store(true, Ordering::Release);
        self.changed.notify_all();
    }

    pub fn is_shutdown(&self) -> bool {
        // ORDERING: publish.acquire-load
        self.shutdown.load(Ordering::Acquire)
    }
}

#[cfg(all(test, not(cuckoo_model)))]
mod tests {
    use super::*;
    use crate::record::{decode_each, SetRef};

    /// Appends a 16-byte `Set` of key `k{i}`.
    fn append_set(q: &CommitQueue, i: u64, m: &PersistMetrics) -> u64 {
        let key = format!("k{i}");
        q.append(OpRef::Set(SetRef { key: key.as_bytes(), flags: 0, expires_at: 0, cas: i, value: &[0u8; 16] }), m)
    }

    /// The LSNs of the whole frames in `frames`, in byte order; any
    /// torn or corrupt frame fails the test.
    fn lsns(frames: &[u8]) -> Vec<u64> {
        let mut lsns = Vec::new();
        let valid = decode_each(frames, |r| {
            lsns.push(r.lsn);
            Ok(())
        });
        assert_eq!(valid.unwrap(), frames.len(), "torn or corrupt frame in the run");
        lsns
    }

    #[test]
    fn lsns_are_dense_and_batches_ordered() {
        let q = CommitQueue::new(0, 1 << 20);
        let m = PersistMetrics::new();
        for i in 0..100 {
            assert_eq!(append_set(&q, i, &m), i + 1);
        }
        let batch = q.pop_batch(Vec::new());
        assert_eq!(lsns(&batch.frames), (1..=100).collect::<Vec<_>>());
        assert_eq!(batch.last_lsn, 100);
        assert!(batch.enqueued.is_some());
        assert_eq!(batch.frames.len() as u64, m.log_bytes.get());
        let empty = q.pop_batch(batch.frames);
        assert!(empty.frames.is_empty());
        assert!(empty.enqueued.is_none());
        assert_eq!(m.log_records.get(), 100);
    }

    #[test]
    fn concurrent_appends_fill_one_dense_sequence() {
        let q = std::sync::Arc::new(CommitQueue::new(0, 1 << 20));
        let m = std::sync::Arc::new(PersistMetrics::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (q, m) = (std::sync::Arc::clone(&q), std::sync::Arc::clone(&m));
                s.spawn(move || {
                    for i in 0..500 {
                        append_set(&q, t * 1000 + i, &m);
                    }
                });
            }
        });
        let batch = q.pop_batch(Vec::new());
        assert_eq!(
            lsns(&batch.frames),
            (1..=2000).collect::<Vec<_>>(),
            "the byte run must be LSN-ordered"
        );
    }

    #[test]
    fn backpressure_bounds_the_buffer() {
        let q = std::sync::Arc::new(CommitQueue::new(0, 2_000));
        let m = std::sync::Arc::new(PersistMetrics::new());
        let appender = {
            let (q, m) = (std::sync::Arc::clone(&q), std::sync::Arc::clone(&m));
            std::thread::spawn(move || {
                for i in 0..200 {
                    append_set(&q, i, &m);
                }
            })
        };
        // Drain slowly; the appender must block (on memory, not disk)
        // whenever the buffer is over bound.
        let mut drained = Vec::new();
        let mut spare = Vec::new();
        while drained.len() < 200 {
            std::thread::sleep(std::time::Duration::from_millis(1));
            let batch = q.pop_batch(spare);
            assert!(
                batch.frames.len() <= 2_000 + 100,
                "buffer exceeded its bound by more than one record"
            );
            drained.extend(lsns(&batch.frames));
            spare = batch.frames;
        }
        appender.join().unwrap();
        assert_eq!(drained, (1..=200).collect::<Vec<_>>());
        assert!(m.backpressure_waits.get() > 0, "the bound was never hit");
    }

    #[test]
    fn watermarks_are_monotonic_and_ordered() {
        let q = CommitQueue::new(10, 1 << 20);
        let m = PersistMetrics::new();
        assert_eq!(q.durable_lsn(), 10);
        let lsn = append_set(&q, 1, &m);
        assert_eq!(lsn, 11);
        assert_eq!(q.pop_batch(Vec::new()).last_lsn, 11);
        q.mark_written(11);
        assert_eq!(q.written_lsn(), 11);
        q.mark_durable(11);
        assert_eq!(q.durable_lsn(), 11);
        // Stale marks never move a watermark backwards.
        q.mark_written(5);
        q.mark_durable(5);
        assert_eq!(q.written_lsn(), 11);
        assert_eq!(q.durable_lsn(), 11);
    }
}
