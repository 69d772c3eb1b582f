//! Durability tier for the cuckoo server: append-only op log with group
//! commit, periodic compacted snapshots, warm restart, and the building
//! blocks the server reuses for primary→replica streaming.
//!
//! # One record type
//!
//! Every record that goes to disk or to the wire, and every record that
//! comes back, is an [`OpRef`] (`Set(SetRef)` / `Delete` / `FlushAll`)
//! over borrowed bytes: the write path encodes it from the buffer the
//! command arrived in, snapshots and replica bootstraps encode it from
//! the table a scan lends it, and [`record::decode`] lends it from the
//! file or socket buffer it decodes. Nothing in between copies it into
//! an owned record.
//!
//! # Architecture
//!
//! The write hot path calls [`Persister::append`], which assigns an LSN
//! and buffers an encoded record in the [`commit::CommitQueue`] — it
//! never touches the disk. A single writer thread ([`log`]) drains the
//! queue, appends frames to `oplog`, and fsyncs on a configurable
//! cadence (the *group-commit window*: a `kill -9` loses at most the
//! appends since the last fsync, and nothing that was reported durable).
//!
//! A snapshot thread periodically asks the writer to *rotate* the log
//! (`oplog` → `oplog.old`, atomically, fully fsync'd), runs the
//! caller's [`TableScan`] over the live table, encoding each entry
//! straight into the snapshot buffer, and publishes a snapshot covering
//! the rotation LSN — after which `oplog.old` is garbage and is deleted.
//! The scan runs against the live table without blocking writers (the
//! maps' epoch-pinned `scan`), so the snapshot is *fuzzy*; convergence
//! holds because the store applies an op to the map *before* appending
//! it to the log while holding that key's [`WriteStripes`] lock — every
//! op the scan missed has an LSN above the rotation point and replays on
//! top. A pass the scan reports dirty (a displacement may have hidden an
//! entry) is cut back off the buffer and scanned again; the entry count
//! is written into the header once a pass is clean.
//!
//! # Recovery
//!
//! Recovery keeps no table of its own: the caller's last-writer-wins
//! table is the merge map. [`Persister::open`] streams into the caller's
//! sink the snapshot's entries, then `oplog.old` + `oplog` above the
//! snapshot's cover (LSN order, torn tail dropped), each borrowed from
//! the file buffer as it decodes, then *normalizes*: publishes a fresh
//! snapshot scanned from that table and removes the logs, so a running
//! directory always looks like {recent snapshot, short live log}.
//! Nothing is written before that snapshot publishes, so a crash
//! mid-recovery replays the same files again. When both logs are empty
//! — after a graceful shutdown, which ends by publishing a snapshot and
//! removing them — there is nothing to replay or rewrite, and startup
//! streams the snapshot alone.

pub mod commit;
pub mod log;
pub mod record;
pub mod snapshot;

pub use record::{OpRef, SetRef};

use commit::CommitQueue;
use cuckoo::sync2::{Mutex, MutexGuard};
use metrics::persist::PersistMetrics;
use record::{encode_op, Payload};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning for one data directory.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    pub dir: PathBuf,
    /// Group-commit window: records reach the log file and the disk at
    /// least this often while they are in flight. This is the maximum
    /// acknowledged-but-lost window on `kill -9`, and it bounds how far a
    /// replica trails.
    pub fsync_interval: Duration,
    /// How often the snapshot thread compacts the log. Zero disables the
    /// background thread (snapshots then only happen at shutdown).
    pub snapshot_interval: Duration,
    /// Bound on encoded bytes buffered between appenders and the writer;
    /// at it, appends wait (on memory, not disk) for the writer's drain.
    pub max_pending_bytes: usize,
}

impl PersistConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            fsync_interval: Duration::from_millis(5),
            snapshot_interval: Duration::from_secs(60),
            max_pending_bytes: 8 << 20,
        }
    }
}

/// What [`Persister::open`] streamed out of the data directory.
#[derive(Debug)]
pub struct Recovered {
    /// Highest LSN recovered; new appends continue right after it.
    pub last_lsn: u64,
    /// Log records replayed on top of the snapshot.
    pub replayed: u64,
}

/// Per-key write ordering locks. The store holds the key's stripe across
/// *apply to map, then append to log* so two racing writers to the same
/// key cannot log in the opposite order of their map application — the
/// invariant that makes both fuzzy snapshots and replica replay
/// converge. Routed through `cuckoo::sync2` so the model checker can
/// explore the protocol.
///
/// Lock order (enforced by the auditor in `cuckoo`): write stripe →
/// map bucket locks → commit-queue mutex.
pub struct WriteStripes {
    locks: Box<[Mutex<()>]>,
}

impl WriteStripes {
    /// `n` is rounded up to a power of two.
    pub fn new(n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        WriteStripes { locks: (0..n).map(|_| Mutex::new(())).collect() }
    }

    fn index(&self, key: &[u8]) -> usize {
        // FNV-1a; only stripe dispersion matters here.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h as usize) & (self.locks.len() - 1)
    }

    /// Locks the stripe owning `key`.
    pub fn lock_key(&self, key: &[u8]) -> MutexGuard<'_, ()> {
        self.locks[self.index(key)].lock().expect("write stripe poisoned")
    }

    /// Locks the stripe of every key in `keys`, each once, in index
    /// order: a write burst holds its keys' stripes across one batched
    /// apply and one [`Persister::append_sets`]. Index order makes it
    /// deadlock-free against `lock_key`, `lock_all` and other bursts.
    pub fn lock_keys<'k>(&self, keys: impl IntoIterator<Item = &'k [u8]>) -> Vec<MutexGuard<'_, ()>> {
        let mut stripes: Vec<usize> = keys.into_iter().map(|k| self.index(k)).collect();
        stripes.sort_unstable();
        stripes.dedup();
        stripes.into_iter().map(|i| self.locks[i].lock().expect("write stripe poisoned")).collect()
    }

    /// Locks every stripe in index order (deadlock-free against
    /// `lock_key`); used by `flush_all`, which must order against every
    /// in-flight write at once.
    pub fn lock_all(&self) -> Vec<MutexGuard<'_, ()>> {
        self.locks.iter().map(|m| m.lock().expect("write stripe poisoned")).collect()
    }
}

/// The live table's [`snapshot::Scan`], shared with the compaction
/// thread.
pub type TableScan = Arc<dyn Fn(&mut dyn FnMut(SetRef<'_>)) -> bool + Send + Sync>;

/// Keeps the log writer from rotating (and thus the live `oplog` file
/// from being renamed away) while held — replication bootstrap pins the
/// file it is about to stream. Dropping releases.
pub struct CompactionPause<'a> {
    queue: &'a CommitQueue,
}

impl Drop for CompactionPause<'_> {
    fn drop(&mut self) {
        self.queue.unpause();
    }
}

/// One open data directory: the commit queue, its writer thread, and
/// the compaction thread.
pub struct Persister {
    cfg: PersistConfig,
    queue: Arc<CommitQueue>,
    metrics: Arc<PersistMetrics>,
    // Cold-path state behind std mutexes (never touched by `append`), so
    // the server can drive start/shutdown through a shared `&self`.
    writer: std::sync::Mutex<Option<std::thread::JoinHandle<()>>>,
    snapshotter: std::sync::Mutex<Option<std::thread::JoinHandle<()>>>,
    scan: TableScan,
    finished: AtomicBool,
}

impl Persister {
    /// Recovers the directory (creating it if needed) into `sink`,
    /// normalizes it to {snapshot of `scan`, no log} unless both logs
    /// are already empty, and starts the writer and (unless
    /// `snapshot_interval` is zero) the compaction thread, both asleep
    /// on the commit queue until they have work. `scan` must scan the
    /// table `sink` fills.
    /// An error, or a panic in `sink`, leaves every file as it was.
    pub fn open(
        cfg: PersistConfig,
        metrics: Arc<PersistMetrics>,
        scan: TableScan,
        sink: &mut dyn FnMut(OpRef<'_>),
    ) -> io::Result<(Persister, Recovered)> {
        fs::create_dir_all(&cfg.dir)?;
        let log_paths = [cfg.dir.join(log::OPLOG_OLD), cfg.dir.join(log::OPLOG)];
        let logs_empty = log_paths
            .iter()
            .all(|p| fs::metadata(p).map(|m| m.len() == 0).unwrap_or(true));
        // A corrupt snapshot is fatal: it is published atomically, so a
        // bad one means real damage, unlike an expected torn log tail.
        let covers = match snapshot::load(&cfg.dir)? {
            Some(snap) => {
                snap.for_each(|set| sink(OpRef::Set(set)))?;
                Some(snap.covers_lsn)
            }
            None => None,
        };

        // With both logs empty replay applies nothing, and a rewrite
        // would write back the table the snapshot just filled. A `clean`
        // file an older binary left at shutdown is ignored.
        let recovered = if logs_empty {
            Recovered { last_lsn: covers.unwrap_or(0), replayed: 0 }
        } else {
            let recovered = replay(covers.unwrap_or(0), &log_paths, &metrics, sink)?;
            // Normalize: everything recovered is now in one fresh
            // snapshot, and the logs restart empty. Replay work is thus
            // bounded by one crash, not a lifetime of appends.
            publish(&cfg.dir, recovered.last_lsn, &scan, &metrics, &[log::OPLOG_OLD, log::OPLOG])?;
            recovered
        };

        metrics.replayed_records.add(recovered.replayed);
        metrics.durable_lsn.set(recovered.last_lsn);

        let queue = Arc::new(CommitQueue::new(recovered.last_lsn, cfg.max_pending_bytes));
        let writer = log::spawn_writer(cfg.dir.clone(), Arc::clone(&queue), Arc::clone(&metrics), cfg.fsync_interval);
        let p = Persister {
            cfg,
            queue,
            metrics,
            writer: std::sync::Mutex::new(Some(writer)),
            snapshotter: std::sync::Mutex::new(None),
            scan,
            finished: AtomicBool::new(false),
        };
        p.start_snapshots();
        Ok((p, recovered))
    }

    /// Assigns the next LSN to `op` and buffers it for the writer.
    /// Never blocks on disk. Call under the key's
    /// [`WriteStripes`] lock, *after* applying the op to the map.
    pub fn append(&self, op: OpRef<'_>) -> u64 {
        self.queue.append(op, &self.metrics)
    }

    /// [`append`](Self::append) of one `Set` per element of `sets`, in
    /// order, under consecutive LSNs and in one enqueue: a write burst's
    /// group-commit step. Returns the last LSN assigned. Call under every
    /// key's [`WriteStripes`] lock ([`WriteStripes::lock_keys`]), *after*
    /// applying the burst to the map.
    pub fn append_sets(&self, sets: &[SetRef<'_>]) -> u64 {
        self.queue.append_many(sets.len(), |i, lsn, buf| encode_op(OpRef::Set(sets[i]), lsn, buf), &self.metrics)
    }

    /// Blocks until everything appended so far is fsync'd.
    pub fn sync(&self) {
        self.queue.sync();
    }

    pub fn last_lsn(&self) -> u64 {
        self.queue.last_lsn()
    }

    pub fn metrics(&self) -> &Arc<PersistMetrics> {
        &self.metrics
    }

    pub fn oplog_path(&self) -> PathBuf {
        self.cfg.dir.join(log::OPLOG)
    }

    /// The commit queue: a log tailer reads the rotation state there
    /// and waits there at EOF.
    pub fn queue(&self) -> &CommitQueue {
        &self.queue
    }

    /// Pins the current `oplog` file (no rotation, and therefore no
    /// compaction) until the guard drops. Replication bootstrap wraps
    /// its "scan table at S, then stream the log above S" handoff in
    /// this so the file cannot be renamed away mid-handoff.
    pub fn pause_compaction(&self) -> CompactionPause<'_> {
        self.queue.pause();
        CompactionPause { queue: &self.queue }
    }

    /// Starts the compaction thread, unless `snapshot_interval` is zero.
    fn start_snapshots(&self) {
        if self.cfg.snapshot_interval.is_zero() {
            return;
        }
        let dir = self.cfg.dir.clone();
        let queue = Arc::clone(&self.queue);
        let metrics = Arc::clone(&self.metrics);
        let scan = Arc::clone(&self.scan);
        let interval = self.cfg.snapshot_interval;
        let h = std::thread::Builder::new()
            .name("persist-snapshot".into())
            .spawn(move || {
                // Shutdown ends the sleep at once.
                while !queue.sleep_until(Some(Instant::now() + interval)) {
                    if let Err(e) = snapshot_cycle(&dir, &queue, &metrics, &scan) {
                        // Leave the log un-compacted; durability is
                        // unaffected and the next cycle retries.
                        eprintln!("persist: snapshot failed: {e}");
                    }
                }
            })
            .expect("spawn persist snapshotter");
        *self.snapshotter.lock().expect("snapshotter mutex poisoned") = Some(h);
    }

    /// Runs one rotate-scan-publish-compact cycle synchronously (tests,
    /// benches, and admin tooling).
    pub fn snapshot_now(&self) -> io::Result<()> {
        snapshot_cycle(&self.cfg.dir, &self.queue, &self.metrics, &self.scan)
    }

    /// Graceful drain: stops the background threads, fsyncs everything,
    /// publishes a final snapshot and removes the logs, so the next
    /// start streams the snapshot alone.
    ///
    /// All appenders must be quiesced first (the server drains
    /// connections before calling this).
    pub fn shutdown(&self) -> io::Result<()> {
        // ORDERING: handoff.acqrel-rmw
        if self.finished.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        self.stop_threads();
        let last = self.queue.durable_lsn();
        debug_assert_eq!(last, self.queue.last_lsn());
        publish(&self.cfg.dir, last, &self.scan, &self.metrics, &[log::OPLOG_OLD, log::OPLOG])
    }

    /// Wakes every waiter with the queue's shutdown, then joins the
    /// snapshotter (a cycle in flight finishes its publish) and the
    /// writer (which drains and fsyncs first).
    fn stop_threads(&self) {
        self.queue.begin_shutdown();
        if let Some(h) = self.snapshotter.lock().expect("snapshotter mutex poisoned").take() {
            let _ = h.join();
        }
        if let Some(h) = self.writer.lock().expect("writer mutex poisoned").take() {
            let _ = h.join();
        }
    }
}

impl Drop for Persister {
    fn drop(&mut self) {
        // Ungraceful drop (tests, panics): stop the threads so the final
        // fsync still happens, but publish nothing — the next open
        // replays the logs, which is always safe.
        self.stop_threads();
    }
}

fn snapshot_cycle(dir: &Path, queue: &CommitQueue, metrics: &PersistMetrics, scan: &TableScan) -> io::Result<()> {
    // 1. Rotate, so the records to be covered sit in a frozen file. A
    // pause defers the rotation, and shutdown cancels the cycle.
    let before = queue.request_rotation();
    let Some(r) = queue.wait_rotation(before) else { return Ok(()) };

    // 2. Scan the live table *after* the rotation, publish, then drop
    // the covered generation. Apply-before-append under the write
    // stripes means any op missing from this scan has an LSN above `r`,
    // so {snapshot@r} + {oplog} still replays to the exact table.
    publish(dir, r, scan, metrics, &[log::OPLOG_OLD])
}

/// Publishes a snapshot of `scan`'s table covering `lsn`, then removes
/// the log files `logs`, which it covers. Every snapshot is written
/// here: compaction's, recovery's normalizing one, shutdown's.
fn publish(
    dir: &Path,
    lsn: u64,
    scan: &TableScan,
    metrics: &PersistMetrics,
    logs: &[&str],
) -> io::Result<()> {
    let entries = snapshot::write(dir, lsn, &**scan)?;
    metrics.snapshots.inc();
    metrics.snapshot_entries.set(entries);
    for name in logs {
        let _ = fs::remove_file(dir.join(name));
    }
    Ok(())
}

/// Streams every record of `log_paths` above `covers` into `sink`, in
/// LSN order, and checks the files as it goes: strictly increasing
/// LSNs, no heartbeat, and a torn tail only in the last file present.
fn replay(
    covers: u64,
    log_paths: &[PathBuf; 2],
    metrics: &PersistMetrics,
    sink: &mut dyn FnMut(OpRef<'_>),
) -> io::Result<Recovered> {
    let mut last_lsn = covers;
    let mut replayed = 0u64;
    let last_present = log_paths.iter().rposition(|p| p.exists());
    for (i, path) in log_paths.iter().enumerate() {
        let scan = log::scan_file(path, |frame| {
            if frame.lsn <= covers {
                // Already folded into the snapshot (crash landed between
                // snapshot publish and oplog.old deletion).
                return Ok(());
            }
            if frame.lsn <= last_lsn {
                return Err(invalid(format!("{}: LSN {} out of order", path.display(), frame.lsn)));
            }
            let Payload::Op(op) = frame.payload else {
                return Err(invalid(format!("{}: wire-only heartbeat in a log file", path.display())));
            };
            last_lsn = frame.lsn;
            replayed += 1;
            sink(op);
            Ok(())
        })?;
        if scan.is_some_and(|s| s.torn) {
            if Some(i) != last_present {
                // Rotation renames a complete fsync'd file, so an
                // interior generation can never legitimately tear.
                return Err(invalid(format!("{}: corrupt frame mid-log", path.display())));
            }
            metrics.torn_tails.inc();
        }
    }
    Ok(Recovered { last_lsn, replayed })
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(all(test, not(cuckoo_model)))]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("persist-lib-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn cfg(dir: &Path) -> PersistConfig {
        let mut c = PersistConfig::new(dir);
        c.fsync_interval = Duration::from_millis(1);
        c.snapshot_interval = Duration::ZERO; // drive snapshots by hand
        c
    }

    fn set_op<'a>(key: &'a str, val: &'a str, cas: u64) -> OpRef<'a> {
        OpRef::Set(SetRef { key: key.as_bytes(), flags: 0, expires_at: 0, cas, value: val.as_bytes() })
    }

    /// A key's item as the test table holds it:
    /// `(flags, expires_at, cas, value)`.
    type Item = (u32, u32, u64, Vec<u8>);
    type Table = Arc<std::sync::Mutex<HashMap<Vec<u8>, Item>>>;

    /// One clean pass over `table`.
    fn scan_of(table: Table) -> TableScan {
        Arc::new(move |f: &mut dyn FnMut(SetRef<'_>)| {
            for (key, (flags, expires_at, cas, value)) in table.lock().unwrap().iter() {
                f(SetRef { key, flags: *flags, expires_at: *expires_at, cas: *cas, value });
            }
            true
        })
    }

    /// Opens `dir` into a fresh last-writer-wins map: the table recovery
    /// streams into and every snapshot scans.
    fn open_map(dir: &Path, metrics: Arc<PersistMetrics>) -> (Persister, Recovered, Table) {
        let table = Table::default();
        let (p, rec) = Persister::open(cfg(dir), metrics, scan_of(Arc::clone(&table)), &mut |op| {
            let mut map = table.lock().unwrap();
            match op {
                OpRef::Set(s) => {
                    map.insert(s.key.to_vec(), (s.flags, s.expires_at, s.cas, s.value.to_vec()));
                }
                OpRef::Delete(key) => {
                    map.remove(key);
                }
                OpRef::FlushAll => map.clear(),
            }
        })
        .unwrap();
        (p, rec, table)
    }

    fn values(table: &Table) -> HashMap<Vec<u8>, Vec<u8>> {
        table.lock().unwrap().iter().map(|(k, e)| (k.clone(), e.3.clone())).collect()
    }

    #[test]
    fn dirty_restart_replays_the_log() {
        let d = tmpdir("dirty");
        {
            let (p, rec, _) = open_map(&d, Arc::new(PersistMetrics::new()));
            assert_eq!(rec.last_lsn, 0);
            p.append(set_op("a", "1", 1));
            p.append(set_op("b", "2", 2));
            p.append(OpRef::Delete(b"a"));
            p.append(set_op("c", "3", 3));
            p.sync();
            // Dropped without shutdown(): no snapshot, log left in place.
        }
        let m = Arc::new(PersistMetrics::new());
        let (_p, rec, t) = open_map(&d, Arc::clone(&m));
        assert_eq!(rec.last_lsn, 4);
        assert_eq!(rec.replayed, 4);
        let t = values(&t);
        assert_eq!(t.len(), 2);
        assert_eq!(t[b"b".as_slice()], b"2");
        assert_eq!(t[b"c".as_slice()], b"3");
        assert_eq!(m.replayed_records.get(), 4);
        drop(_p);
        fs::remove_dir_all(&d).unwrap();
    }

    /// A burst logged by `append_sets` replays exactly as the same sets
    /// appended one at a time: consecutive LSNs, in order, last wins.
    #[test]
    fn a_burst_of_sets_replays_like_single_appends() {
        let d = tmpdir("burst");
        let set = |key: &'static [u8], value: &'static [u8], cas| SetRef { key, flags: 5, expires_at: 0, cas, value };
        {
            let m = Arc::new(PersistMetrics::new());
            let (p, _, _) = open_map(&d, Arc::clone(&m));
            p.append(set_op("before", "0", 1));
            assert_eq!(p.append_sets(&[]), 1, "an empty burst logs nothing");
            let burst = [set(b"a", b"1", 2), set(b"b", b"2", 3), set(b"a", b"3", 4)];
            assert_eq!(p.append_sets(&burst), 4);
            assert_eq!(m.log_records.get(), 4);
            p.sync();
        }
        let (_p, rec, t) = open_map(&d, Arc::new(PersistMetrics::new()));
        assert_eq!((rec.last_lsn, rec.replayed), (4, 4));
        let t = t.lock().unwrap();
        let mut entries: Vec<_> = t.iter().map(|(k, e)| (k.as_slice(), e.0, e.2, e.3.as_slice())).collect();
        entries.sort();
        let expect: [(&[u8], u32, u64, &[u8]); 3] = [(b"a", 5, 4, b"3"), (b"b", 5, 3, b"2"), (b"before", 0, 1, b"0")];
        assert_eq!(entries, expect);
        drop(entries);
        drop(t);
        drop(_p);
        fs::remove_dir_all(&d).unwrap();
    }

    /// Two writers' bursts reach the file as one dense, LSN-ordered run
    /// of whole frames, in fewer writes than records.
    #[test]
    fn racing_bursts_reach_the_log_dense_and_coalesced() {
        let d = tmpdir("coalesce");
        let m = Arc::new(PersistMetrics::new());
        let (p, _, _) = open_map(&d, Arc::clone(&m));
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let p = &p;
                s.spawn(move || {
                    for burst in 0..500u32 {
                        let keys: Vec<Vec<u8>> =
                            (0..16u32).map(|i| format!("t{t}-{burst}-{i}").into_bytes()).collect();
                        let sets: Vec<SetRef<'_>> = keys
                            .iter()
                            .map(|k| SetRef { key: k, flags: t, expires_at: 0, cas: 0, value: b"value" })
                            .collect();
                        p.append_sets(&sets);
                    }
                    p.sync();
                });
            }
        });
        let mut lsns = Vec::new();
        let scan = log::scan_file(&p.oplog_path(), |r| {
            lsns.push(r.lsn);
            Ok(())
        })
        .unwrap()
        .unwrap();
        assert!(!scan.torn);
        assert_eq!(lsns, (1..=16_000).collect::<Vec<_>>());
        assert_eq!(scan.valid_bytes, m.log_bytes.get());
        assert_eq!(m.log_records.get(), 16_000);
        assert!(
            m.log_writes.get() < m.log_records.get(),
            "{} writes for {} records: the writer did not coalesce",
            m.log_writes.get(),
            m.log_records.get()
        );
        drop(p);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn clean_shutdown_skips_replay_and_lsns_continue() {
        let d = tmpdir("clean");
        {
            let (p, _, t) = open_map(&d, Arc::new(PersistMetrics::new()));
            t.lock().unwrap().insert(b"k".to_vec(), (0, 0, 1, b"v".to_vec()));
            p.append(set_op("k", "v", 1));
            p.shutdown().unwrap();
        }
        // Shutdown left a covering snapshot and no log: open streams
        // the snapshot alone, with no replay and no rewrite.
        let m = Arc::new(PersistMetrics::new());
        let (p, rec, t) = open_map(&d, Arc::clone(&m));
        assert_eq!(rec.replayed, 0);
        assert_eq!(m.snapshots.get(), 0, "an empty log needs no normalizing rewrite");
        assert_eq!(rec.last_lsn, 1);
        assert_eq!(values(&t)[b"k".as_slice()], b"v");
        assert_eq!(p.append(set_op("k2", "v2", 2)), 2, "LSNs continue after restart");
        drop(p);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn restart_normalizes_and_replay_is_bounded_by_one_crash() {
        let d = tmpdir("normalize");
        for round in 0u64..3 {
            let (p, rec, _) = open_map(&d, Arc::new(PersistMetrics::new()));
            // Each dirty restart folds the previous log into the
            // snapshot, so replay never exceeds one round's appends.
            assert_eq!(rec.replayed, if round == 0 { 0 } else { 10 });
            for i in 0..10 {
                p.append(set_op(&format!("r{round}-k{i}"), "x", round * 10 + i + 1));
            }
            p.sync();
        }
        let (_p, rec, t) = open_map(&d, Arc::new(PersistMetrics::new()));
        assert_eq!(t.lock().unwrap().len(), 30);
        assert_eq!(rec.last_lsn, 30);
        drop(_p);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let d = tmpdir("torn");
        {
            let (p, _, _) = open_map(&d, Arc::new(PersistMetrics::new()));
            p.append(set_op("a", "1", 1));
            p.append(set_op("b", "2", 2));
            p.sync();
        }
        // Tear the tail the way kill -9 mid-write does.
        let path = d.join(log::OPLOG);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let m = Arc::new(PersistMetrics::new());
        let (_p, rec, t) = open_map(&d, Arc::clone(&m));
        assert_eq!(rec.replayed, 1, "only the intact prefix replays");
        assert_eq!(rec.last_lsn, 1);
        assert_eq!(m.torn_tails.get(), 1);
        assert!(values(&t).contains_key(b"a".as_slice()));
        drop(_p);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn snapshot_cycle_compacts_and_preserves_contents() {
        let d = tmpdir("compact");
        let (p, _, live) = open_map(&d, Arc::new(PersistMetrics::new()));
        for i in 0..20u64 {
            let key = format!("k{i}");
            // Apply-to-table THEN append-to-log, as the store does.
            live.lock().unwrap().insert(key.clone().into_bytes(), (0, 0, i + 1, b"v".to_vec()));
            p.append(set_op(&key, "v", i + 1));
        }
        p.snapshot_now().unwrap();
        assert_eq!(p.queue().rotation(), (1, 20));
        assert!(!d.join(log::OPLOG_OLD).exists(), "covered generation deleted");
        assert_eq!(p.metrics().snapshots.get(), 1);

        // A few more appends after the snapshot land in the fresh log.
        p.append(OpRef::Delete(b"k0"));
        p.sync();
        drop(p);

        let (_p, rec, t) = open_map(&d, Arc::new(PersistMetrics::new()));
        assert_eq!(rec.replayed, 1, "snapshot covered everything before it");
        let t = values(&t);
        assert_eq!(t.len(), 19);
        assert!(!t.contains_key(b"k0".as_slice()));
        drop(_p);
        fs::remove_dir_all(&d).unwrap();
    }

    /// The snapshot thread sleeps its interval, then rotates and
    /// compacts on its own; shutdown ends its sleep at once, however
    /// long the interval.
    #[test]
    fn the_snapshot_thread_compacts_each_interval_and_stops_at_shutdown() {
        for interval in [Duration::from_millis(20), Duration::from_secs(3600)] {
            let d = tmpdir("interval");
            let table = Table::default();
            let mut c = cfg(&d);
            c.snapshot_interval = interval;
            let (p, _) = Persister::open(c, Arc::new(PersistMetrics::new()), scan_of(Arc::clone(&table)), &mut |_| {}).unwrap();
            table.lock().unwrap().insert(b"k".to_vec(), (0, 0, 1, b"v".to_vec()));
            p.append(set_op("k", "v", 1));
            let short = interval < Duration::from_secs(1);
            let deadline = Instant::now() + Duration::from_secs(10);
            while short && p.metrics().snapshots.get() == 0 {
                assert!(Instant::now() < deadline, "no snapshot within 10 s of a {interval:?} interval");
                std::thread::sleep(Duration::from_millis(1));
            }
            let (tx, rx) = std::sync::mpsc::channel();
            let closer = std::thread::spawn(move || tx.send(p.shutdown().map(|_| p.queue().rotation().0)).unwrap());
            let rotations = rx.recv_timeout(Duration::from_secs(10)).expect("shutdown did not end the snapshot thread's sleep");
            closer.join().unwrap();
            assert_eq!(rotations.unwrap() >= 1, short, "{interval:?}");
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn pause_compaction_blocks_rotation_until_dropped() {
        let d = tmpdir("pauseguard");
        let (p, _, _) = open_map(&d, Arc::new(PersistMetrics::new()));
        p.append(set_op("a", "1", 1));
        p.sync();
        let guard = p.pause_compaction();
        let before = p.queue().rotation().0;
        // A cycle started while paused must not rotate; run it from
        // another thread and watch it stay put.
        std::thread::scope(|s| {
            let h = s.spawn(|| p.snapshot_now());
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(p.queue().rotation().0, before, "rotated under pause");
            drop(guard);
            h.join().unwrap().unwrap();
        });
        assert_eq!(p.queue().rotation().0, before + 1);
        drop(p);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn flush_all_replays_to_empty() {
        let d = tmpdir("flush");
        {
            let (p, _, _) = open_map(&d, Arc::new(PersistMetrics::new()));
            p.append(set_op("a", "1", 1));
            p.append(set_op("b", "2", 2));
            p.append(OpRef::FlushAll);
            p.append(set_op("c", "3", 3));
            p.sync();
        }
        let (_p, _, t) = open_map(&d, Arc::new(PersistMetrics::new()));
        let t = values(&t);
        assert_eq!(t.len(), 1, "flush wipes everything logged before it");
        assert!(t.contains_key(b"c".as_slice()));
        drop(_p);
        fs::remove_dir_all(&d).unwrap();
    }

    /// A scan pass that reports dirty is discarded whole: the snapshot
    /// published after it is byte-identical to one clean pass's, with
    /// the same `n_entries` and no entry twice.
    #[test]
    fn a_dirty_scan_pass_is_discarded_whole() {
        let (d, reference) = (tmpdir("dirtypass"), tmpdir("cleanpass"));
        let table = Table::default();
        for i in 0..40u64 {
            table.lock().unwrap().insert(format!("k{i}").into_bytes(), (7, 0, i + 1, vec![i as u8; 9]));
        }
        let clean = scan_of(Arc::clone(&table));
        let passes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let flaky: TableScan = {
            let (table, passes) = (Arc::clone(&table), Arc::clone(&passes));
            Arc::new(move |f: &mut dyn FnMut(SetRef<'_>)| {
                if passes.fetch_add(1, Ordering::Relaxed) > 0 {
                    return clean(f);
                }
                // The first pass emits a part of the table, then says a
                // displacement may have hidden the rest.
                for (key, (flags, expires_at, cas, value)) in table.lock().unwrap().iter().take(15) {
                    f(SetRef { key, flags: *flags, expires_at: *expires_at, cas: *cas, value });
                }
                false
            })
        };
        let m = Arc::new(PersistMetrics::new());
        let (p, _) = Persister::open(cfg(&d), Arc::clone(&m), flaky, &mut |_| {}).unwrap();
        p.shutdown().unwrap();
        assert_eq!(passes.load(Ordering::Relaxed), 2, "the dirty pass must be retried once");
        assert_eq!(m.snapshot_entries.get(), 40);

        fs::create_dir_all(&reference).unwrap();
        assert_eq!(snapshot::write(&reference, 0, &*scan_of(table)).unwrap(), 40);
        let published = fs::read(d.join(snapshot::SNAPSHOT_FILE)).unwrap();
        assert_eq!(published, fs::read(reference.join(snapshot::SNAPSHOT_FILE)).unwrap());
        drop(p);
        fs::remove_dir_all(&d).unwrap();
        fs::remove_dir_all(&reference).unwrap();
    }

    #[test]
    fn write_stripes_same_key_same_lock() {
        let s = WriteStripes::new(64);
        let g = s.lock_key(b"alpha");
        drop(g);
        // A burst naming one key twice takes its stripe once.
        let burst = s.lock_keys([b"alpha".as_slice(), b"beta", b"alpha"]);
        assert_eq!(burst.len(), if s.index(b"alpha") == s.index(b"beta") { 1 } else { 2 });
        drop(burst);
        let _all = s.lock_all();
    }
}
