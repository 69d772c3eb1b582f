//! The group-commit core: a bounded in-flight buffer between the write
//! hot path and the single log-writer thread, and the one handshake
//! every durable-path thread waits on.
//!
//! This module is deliberately free of file I/O so the model checker
//! can explore it (`--cfg cuckoo_model` swaps every primitive here for
//! the instrumented loom shim via `cuckoo::sync2`). The protocol it
//! owns:
//!
//! - **LSN assignment and enqueue are one atomic step** (both under the
//!   queue mutex): each record is encoded straight onto the end of one
//!   contiguous byte run in the critical section that assigns its LSN,
//!   so the run is always LSN-ordered frames and two racing appends can
//!   never enqueue out of order. The run *is* what the writer puts on
//!   disk: a drained batch is one write.
//! - **One mutex, one condvar, every wait.** The writer, a backpressured
//!   appender, a `sync` caller, the snapshotter and a log tailer each
//!   wait on `changed` for a condition kept under `pending`, rotation
//!   state included. Only what can release a waiter notifies (DESIGN.md
//!   §5g lists each); a busy writer drains at its fsync deadline, and
//!   only an appender at the byte bound wakes it sooner.
//! - **Watermarks** (`written_lsn` ≤ everything the writer handed to the
//!   OS; `durable_lsn` ≤ everything fsync'd) only ever advance, and
//!   `durable_lsn ≤ written_lsn ≤ last_lsn` always holds.
//!
//! The std-only writer thread (file writes, fsync, rotation) lives in
//! [`crate::log`]; under the model a test thread plays its role, and a
//! lost wakeup is a deadlock the checker reports (the models wait
//! untimed: a timed wait may time out at any point instead).

use crate::record::{encode_op, OpRef};
use cuckoo::sync2::atomic::{AtomicU64, Ordering};
use cuckoo::sync2::{Condvar, Mutex, MutexGuard};
use metrics::persist::PersistMetrics;
use std::time::Instant;

const POISONED: &str = "commit queue poisoned";

#[derive(Default)]
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
    /// [`CommitQueue::wait_for_log`] callers waiting on `changed`.
    tailers: usize,
    /// A `sync` wants the writer to fsync now.
    sync_requested: bool,
    /// The writer waits with nothing queued or unsynced: the next append
    /// wakes it.
    writer_idle: bool,
    /// The snapshotter wants the writer to rotate the log.
    rotate_requested: bool,
    /// Nonzero while a replication bootstrap pins the live `oplog`; the
    /// writer defers a requested rotation until it drops to zero.
    paused: usize,
    /// Completed rotations. A tailer at EOF that sees this change must
    /// reopen the log, which was renamed away.
    rotations: u64,
    /// The live `oplog` holds exactly the LSNs above this.
    rotate_lsn: u64,
    /// No more appends; the writer drains, fsyncs, and exits.
    shutdown: bool,
}

/// One drained run of frames ([`CommitQueue::next_work`],
/// [`CommitQueue::pop_batch`]).
pub struct Batch {
    /// Whole frames, LSN-ordered and dense; empty if nothing was queued.
    pub frames: Vec<u8>,
    /// LSN of the last frame in `frames` (the highest LSN assigned so
    /// far, so already written when `frames` is empty).
    pub last_lsn: u64,
    /// When the first frame in `frames` was enqueued.
    pub enqueued: Option<Instant>,
}

/// What the writer does next, as [`CommitQueue::next_work`] hands it:
/// write `batch`, then fsync if `fsync`, then rotate if `rotate`.
pub struct Work {
    pub batch: Batch,
    /// An fsync was asked for, or is due with something unsynced.
    pub fsync: bool,
    /// A rotation is requested and no pause holds the log.
    pub rotate: bool,
    /// Shutdown began: the writer exits once a batch comes back empty.
    pub shutdown: bool,
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
    max_bytes: usize,
}

impl CommitQueue {
    /// `start_lsn` is the highest LSN already on disk (recovery hands it
    /// in so restart continues the sequence); `max_bytes` bounds the
    /// in-flight buffer.
    pub fn new(start_lsn: u64, max_bytes: usize) -> Self {
        CommitQueue {
            pending: Mutex::new(Pending { next_lsn: start_lsn + 1, rotate_lsn: start_lsn, ..Pending::default() }),
            changed: Condvar::new(),
            last_lsn: AtomicU64::new(start_lsn),
            written_lsn: AtomicU64::new(start_lsn),
            durable_lsn: AtomicU64::new(start_lsn),
            max_bytes,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().expect(POISONED)
    }

    /// One wait on `changed`, until a notify or, if there is one,
    /// `deadline`. Returns the guard and whether the deadline passed.
    fn wait<'a>(&self, st: MutexGuard<'a, Pending>, deadline: Option<Instant>) -> (MutexGuard<'a, Pending>, bool) {
        let Some(d) = deadline else { return (self.changed.wait(st).expect(POISONED), false) };
        let (st, r) = self.changed.wait_timeout(st, d.saturating_duration_since(Instant::now())).expect(POISONED);
        (st, r.timed_out())
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
        let full = |st: &Pending| st.buf.len() >= self.max_bytes && !st.shutdown;
        let mut st = self.lock();
        if full(&st) {
            metrics.backpressure_waits.inc();
            // The writer may be waiting out its fsync deadline: drain now.
            self.changed.notify_all();
            while full(&st) {
                st = self.wait(st, None).0;
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
        if st.writer_idle {
            st.writer_idle = false;
            self.changed.notify_all();
        }
        metrics.log_records.add(n as u64);
        metrics.log_bytes.add(bytes as u64);
        lsn
    }

    /// Takes the whole buffered run of frames (possibly empty) and
    /// leaves `spare`, cleared, in its place: the writer hands back the
    /// run it last wrote, so steady state allocates nothing. Wakes the
    /// appenders if the run had reached the bound: only then can one wait.
    pub fn pop_batch(&self, spare: Vec<u8>) -> Batch {
        self.take_batch(&mut self.lock(), spare)
    }

    fn take_batch(&self, st: &mut Pending, mut spare: Vec<u8>) -> Batch {
        spare.clear();
        let frames = std::mem::replace(&mut st.buf, spare);
        let enqueued = st.first_enqueued.take();
        let last_lsn = st.next_lsn - 1;
        if frames.len() >= self.max_bytes {
            self.changed.notify_all();
        }
        Batch { frames, last_lsn, enqueued }
    }

    /// Writer: waits until there is work, then drains the queue. With
    /// nothing queued or unsynced the next append wakes it; else it waits
    /// until `fsync_due` or a full buffer. A sync, a rotation no pause
    /// holds back, and shutdown end either wait and ask for an fsync.
    pub fn next_work(&self, spare: Vec<u8>, fsync_due: Instant) -> Work {
        let mut st = self.lock();
        let mut due = false;
        let (fsync, rotate) = loop {
            let rotate = st.rotate_requested && st.paused == 0;
            let unsynced = !st.buf.is_empty() || self.durable_lsn() < self.written_lsn();
            due |= unsynced && Instant::now() >= fsync_due;
            if st.shutdown || st.sync_requested || rotate || due {
                break (true, rotate);
            }
            if st.buf.len() >= self.max_bytes {
                break (false, false);
            }
            st.writer_idle = !unsynced;
            (st, due) = self.wait(st, unsynced.then_some(fsync_due));
            st.writer_idle = false;
        };
        st.sync_requested = false;
        let shutdown = st.shutdown;
        Work { batch: self.take_batch(&mut st, spare), fsync, rotate, shutdown }
    }

    /// Writer: the batch up to `lsn` has been handed to the OS. Wakes
    /// the [`wait_for_log`](Self::wait_for_log) callers, if any wait.
    pub fn mark_written(&self, lsn: u64) {
        // ORDERING: publish.release-store
        self.written_lsn.fetch_max(lsn, Ordering::Release);
        if self.lock().tailers > 0 {
            self.changed.notify_all();
        }
    }

    /// Writer: everything up to `lsn` survived an fsync. Wakes the
    /// [`sync`](Self::sync) callers, if any wait.
    pub fn mark_durable(&self, lsn: u64) {
        // ORDERING: publish.acquire-load
        debug_assert!(lsn <= self.written_lsn.load(Ordering::Acquire));
        // ORDERING: publish.release-store
        self.durable_lsn.fetch_max(lsn, Ordering::Release);
        if self.lock().syncs > 0 {
            self.changed.notify_all();
        }
    }

    /// Writer: the log was rotated, and the fresh `oplog` starts after
    /// `lsn`. Wakes the snapshotter and the tailers.
    pub fn rotated(&self, lsn: u64) {
        let mut st = self.lock();
        st.rotate_requested = false;
        st.rotations += 1;
        st.rotate_lsn = lsn;
        self.changed.notify_all();
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

    /// Completed log rotations, and the LSN the live `oplog` starts
    /// after (it holds exactly the LSNs above it).
    pub fn rotation(&self) -> (u64, u64) {
        let st = self.lock();
        (st.rotations, st.rotate_lsn)
    }

    /// Asks the writer to fsync now and waits until everything appended
    /// so far is durable. One request serves every waiting `sync`: the
    /// writer drains all that was queued when it takes the request.
    pub fn sync(&self) {
        let target = self.last_lsn();
        let mut st = self.lock();
        while self.durable_lsn() < target {
            if !st.sync_requested {
                st.sync_requested = true;
                self.changed.notify_all();
            }
            st.syncs += 1;
            st = self.wait(st, None).0;
            st.syncs -= 1;
        }
    }

    /// Snapshotter: asks the writer to rotate the log. Returns the
    /// rotations completed so far, for [`wait_rotation`](Self::wait_rotation).
    pub fn request_rotation(&self) -> u64 {
        let mut st = self.lock();
        st.rotate_requested = true;
        self.changed.notify_all();
        st.rotations
    }

    /// Snapshotter: waits until a rotation after the `before`-th
    /// completes. Returns its LSN (the sealed `oplog.old` holds
    /// everything up to it), or `None` if shutdown began first.
    pub fn wait_rotation(&self, before: u64) -> Option<u64> {
        let mut st = self.lock();
        while st.rotations == before {
            if st.shutdown {
                return None;
            }
            st = self.wait(st, None).0;
        }
        Some(st.rotate_lsn)
    }

    /// Pins the live `oplog`: the writer defers rotation until every
    /// pause is released by [`unpause`](Self::unpause).
    pub fn pause(&self) {
        self.lock().paused += 1;
    }

    /// Releases one [`pause`](Self::pause), waking a deferred rotation.
    pub fn unpause(&self) {
        let mut st = self.lock();
        st.paused -= 1;
        if st.paused == 0 && st.rotate_requested {
            self.changed.notify_all();
        }
    }

    /// Log tailer: waits until the writer has written past `cursor`, a
    /// rotation other than the `rotations`-th completes, shutdown
    /// begins, or `deadline` passes.
    pub fn wait_for_log(&self, cursor: u64, rotations: u64, deadline: Option<Instant>) {
        let (mut st, mut timed_out) = (self.lock(), false);
        while !timed_out && self.written_lsn() <= cursor && st.rotations == rotations && !st.shutdown {
            st.tailers += 1;
            (st, timed_out) = self.wait(st, deadline);
            st.tailers -= 1;
        }
    }

    /// Sleeps until `deadline` or until shutdown begins; returns whether
    /// shutdown began.
    pub fn sleep_until(&self, deadline: Option<Instant>) -> bool {
        let (mut st, mut timed_out) = (self.lock(), false);
        while !timed_out && !st.shutdown {
            (st, timed_out) = self.wait(st, deadline);
        }
        st.shutdown
    }

    /// Stops accepting the backpressure wait (appends still succeed so a
    /// drain cannot deadlock), tells the writer to finish, and wakes
    /// every waiter. Sets the flag and notifies under the mutex, so no
    /// waiter misses it.
    pub fn begin_shutdown(&self) {
        let mut st = self.lock();
        st.shutdown = true;
        self.changed.notify_all();
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
