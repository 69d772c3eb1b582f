//! The std-only side of the op log: the writer thread that drains the
//! commit queue to disk and carries out the rotations the snapshotter
//! asks for to carve off a compactable prefix, and the recovery-time
//! file scanner.
//!
//! Each drain takes the queue's whole run of frames and appends it with
//! one `write(2)` (`cuckoo_persist_log_writes_total` counts them), then
//! hands the emptied buffer back as the queue's next run. A crash in
//! that write can tear any frame of the batch; recovery truncates at the
//! first torn frame as it would at any other.
//!
//! Everything here runs on real files and real time, so it is *not*
//! compiled under the model checker — the protocol it drives (the
//! commit queue, where the writer makes its one wait) is modeled
//! separately with a test thread standing in for this one.
//!
//! File layout inside a data directory:
//!
//! - `oplog` — the live log; the writer appends framed records here.
//! - `oplog.old` — the previous log generation, complete and fsync'd,
//!   waiting for the snapshotter to cover it and delete it.
//! - rotation = fsync `oplog` → rename it to `oplog.old` → open a fresh
//!   `oplog`. The rename is atomic and the content is already durable,
//!   so no crash point tears `oplog.old`.

use crate::commit::CommitQueue;
use crate::record::{decode_each, Frame};
use metrics::persist::PersistMetrics;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const OPLOG: &str = "oplog";
pub const OPLOG_OLD: &str = "oplog.old";

/// Spawns the group-commit writer. It exits after
/// [`CommitQueue::begin_shutdown`] once the queue is drained, leaving
/// everything fsync'd.
pub fn spawn_writer(
    dir: PathBuf,
    queue: Arc<CommitQueue>,
    metrics: Arc<PersistMetrics>,
    fsync_interval: Duration,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("persist-writer".into())
        .spawn(move || writer_loop(&dir, &queue, &metrics, fsync_interval))
        .expect("spawn persist writer")
}

fn open_log(dir: &Path) -> File {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(OPLOG))
        .expect("persist: cannot open op log")
}

/// Sleeps in [`CommitQueue::next_work`] until there is work, then
/// writes the drained run with one `write(2)`, fsyncs when asked, and
/// rotates when asked. While records keep coming it thus writes and
/// fsyncs once per `fsync_interval`; an idle writer is woken by the
/// first append and, its last fsync being older than the interval,
/// writes and fsyncs that record at once.
fn writer_loop(dir: &Path, queue: &CommitQueue, metrics: &PersistMetrics, fsync_interval: Duration) {
    let mut file = open_log(dir);
    let mut last_fsync = Instant::now();
    // Oldest record written since the last fsync; its age *at* the fsync
    // is the group-commit latency for that batch.
    let mut oldest_unsynced: Option<Instant> = None;
    // The run written last time round, handed back to the queue to fill.
    let mut spare = Vec::new();

    loop {
        let work = queue.next_work(spare, last_fsync + fsync_interval);
        let batch = work.batch;
        let drained = !batch.frames.is_empty();
        if drained {
            if oldest_unsynced.is_none() {
                oldest_unsynced = batch.enqueued;
            }
            file.write_all(&batch.frames).expect("persist: op log write failed");
            metrics.log_writes.inc();
            // Written (visible to a tailing replica feeder) but not yet
            // durable until the fsync below.
            queue.mark_written(batch.last_lsn);
        }
        spare = batch.frames;

        if work.fsync {
            if let Some(t) = oldest_unsynced.take() {
                file.sync_data().expect("persist: fsync failed");
                metrics.fsyncs.inc();
                metrics.group_commit_us.record(t.elapsed().as_micros() as u64);
                let written = queue.written_lsn();
                queue.mark_durable(written);
                metrics.durable_lsn.set(written);
                last_fsync = Instant::now();
            }
        }

        // Rotation only at a batch boundary, with everything durable
        // (the fsync above), and never while a replication bootstrap
        // holds the pause (`next_work` checked it).
        if work.rotate {
            debug_assert_eq!(queue.durable_lsn(), queue.written_lsn());
            drop(file);
            fs::rename(dir.join(OPLOG), dir.join(OPLOG_OLD))
                .expect("persist: log rotation rename failed");
            file = open_log(dir);
            queue.rotated(queue.written_lsn());
        }

        if work.shutdown && !drained {
            // An empty drain after the flag means the queue is drained
            // (appenders are quiesced before shutdown), and the fsync
            // above ran: shutdown always asks for one.
            debug_assert_eq!(queue.durable_lsn(), queue.last_lsn());
            return;
        }
    }
}

/// What [`scan_file`] found in one log file.
#[derive(Debug)]
pub struct ScannedFile {
    /// Bytes up to the end of the last intact frame.
    pub valid_bytes: u64,
    /// True if the file ended in a partial or corrupt frame (torn tail).
    pub torn: bool,
}

/// [`decode_each`] over the file at `path`: hands `f` every intact frame
/// and reports a torn tail — the caller decides whether that is
/// acceptable (last file on disk) or fatal (an interior file, which
/// rotation guarantees is complete). Returns `None` if the file does
/// not exist.
pub fn scan_file(path: &Path, f: impl FnMut(Frame<'_>) -> io::Result<()>) -> io::Result<Option<ScannedFile>> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    let valid = decode_each(&buf, f)?;
    Ok(Some(ScannedFile { valid_bytes: valid as u64, torn: valid < buf.len() }))
}

#[cfg(all(test, not(cuckoo_model)))]
mod tests {
    use super::*;
    use crate::record::{encode_op, OpRef, SetRef};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("persist-log-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// Appends an 8-byte `Set` of key `k{i}`.
    fn append_set(queue: &CommitQueue, i: u64, metrics: &PersistMetrics) {
        let key = format!("k{i}");
        queue.append(OpRef::Set(SetRef { key: key.as_bytes(), flags: 0, expires_at: 0, cas: i, value: b"vvvvvvvv" }), metrics);
    }

    /// The LSNs of `path`'s intact frames, with what the scan found.
    fn lsns(path: &Path) -> (Vec<u64>, ScannedFile) {
        let mut lsns = Vec::new();
        let scan = scan_file(path, |r| {
            lsns.push(r.lsn);
            Ok(())
        })
        .unwrap()
        .unwrap();
        (lsns, scan)
    }

    #[test]
    fn writer_drains_fsyncs_and_rotates() {
        let d = tmpdir("writer");
        let queue = Arc::new(CommitQueue::new(0, 1 << 20));
        let metrics = Arc::new(PersistMetrics::new());
        let h = spawn_writer(d.clone(), Arc::clone(&queue), Arc::clone(&metrics), Duration::from_millis(1));
        for i in 0..20 {
            append_set(&queue, i, &metrics);
        }
        queue.sync();
        assert_eq!(queue.durable_lsn(), 20);
        assert!(metrics.fsyncs.get() >= 1);

        // Rotate: the live log moves aside complete, a fresh one starts.
        let before = queue.request_rotation();
        assert_eq!(queue.wait_rotation(before), Some(20));
        assert_eq!(queue.rotation(), (1, 20));
        let (old, scan) = lsns(&d.join(OPLOG_OLD));
        assert_eq!(old.len(), 20);
        assert!(!scan.torn);

        for i in 20..25 {
            append_set(&queue, i, &metrics);
        }
        queue.begin_shutdown();
        h.join().unwrap();
        assert_eq!(lsns(&d.join(OPLOG)).0, (21..=25).collect::<Vec<_>>());
        assert_eq!(queue.durable_lsn(), 25);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn pause_defers_rotation() {
        let d = tmpdir("pause");
        let queue = Arc::new(CommitQueue::new(0, 1 << 20));
        let metrics = Arc::new(PersistMetrics::new());
        let h = spawn_writer(d.clone(), Arc::clone(&queue), Arc::clone(&metrics), Duration::from_millis(1));
        append_set(&queue, 1, &metrics);
        queue.sync();
        queue.pause();
        let before = queue.request_rotation();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(queue.rotation().0, 0, "rotated while paused");
        queue.unpause();
        assert_eq!(queue.wait_rotation(before), Some(1));
        queue.begin_shutdown();
        h.join().unwrap();
        fs::remove_dir_all(&d).unwrap();
    }

    /// A writer is asleep, not polling, and wakes for what it waits
    /// for: with a one-hour fsync window, a `sync` still returns at
    /// once; with a short one, the first append after an idle spell is
    /// written and fsync'd without a `sync`.
    #[test]
    fn a_sleeping_writer_wakes_for_a_sync_and_for_an_append() {
        for (window, sync) in [(Duration::from_secs(3600), true), (Duration::from_millis(1), false)] {
            let d = tmpdir(if sync { "sleep-sync" } else { "sleep-append" });
            let queue = Arc::new(CommitQueue::new(0, 1 << 20));
            let metrics = Arc::new(PersistMetrics::new());
            let h = spawn_writer(d.clone(), Arc::clone(&queue), Arc::clone(&metrics), window);
            std::thread::sleep(Duration::from_millis(20));
            append_set(&queue, 1, &metrics);
            let (tx, rx) = std::sync::mpsc::channel();
            let waiter = {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    if sync {
                        queue.sync();
                    }
                    while queue.durable_lsn() < 1 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    tx.send(()).unwrap();
                })
            };
            rx.recv_timeout(Duration::from_secs(10)).expect("the sleeping writer was not woken");
            waiter.join().unwrap();
            assert_eq!(lsns(&d.join(OPLOG)).0, [1]);
            queue.begin_shutdown();
            h.join().unwrap();
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn scan_reports_torn_tail_and_truncate_heals_it() {
        let d = tmpdir("torn");
        let path = d.join(OPLOG);
        let mut bytes = Vec::new();
        for i in 1..=5u64 {
            let key = format!("k{i}");
            encode_op(OpRef::Set(SetRef { key: key.as_bytes(), flags: 0, expires_at: 0, cas: i, value: b"vvvvvvvv" }), i, &mut bytes);
        }
        let full = bytes.len();
        bytes.extend_from_slice(&bytes.clone()[..13]); // partial sixth frame
        fs::write(&path, &bytes).unwrap();

        let (found, scan) = lsns(&path);
        assert!(scan.torn);
        assert_eq!(found, (1..=5).collect::<Vec<_>>());
        assert_eq!(scan.valid_bytes, full as u64);

        // Cutting the file at `valid_bytes` leaves exactly the intact frames.
        fs::write(&path, &bytes[..scan.valid_bytes as usize]).unwrap();
        let (found, scan) = lsns(&path);
        assert!(!scan.torn);
        assert_eq!(found.len(), 5);

        assert!(scan_file(&d.join("nope"), |_| Ok(())).unwrap().is_none());
        fs::remove_dir_all(&d).unwrap();
    }
}
