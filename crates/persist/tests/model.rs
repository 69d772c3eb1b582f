//! Model-checking suite for the durability protocols (build with
//! `RUSTFLAGS="--cfg cuckoo_model"`).
//!
//! `cuckoo::sync2` swaps the primitives inside [`persist::commit`] and
//! [`persist::WriteStripes`] for the instrumented loom shim, and
//! `loom::explore` walks the interleavings of the *real* protocol code:
//!
//! - LSN assignment under concurrent appenders stays dense and the
//!   byte run the writer puts on disk stays LSN-ordered (the property
//!   replica replay relies on);
//! - the `durable ≤ written ≤ last` watermark chain holds at every
//!   observable point while a writer thread drains concurrently;
//! - an appender waiting on the byte bound, and a `sync` waiting for
//!   durability, are woken by what releases them — shutdown, the
//!   writer's drain, the writer's durable mark. The waits are the shim's
//!   condvar, on which a waiter stays parked until notified, so a lost
//!   wakeup fails a schedule as a deadlock;
//! - every other thread of the durable path sleeps on the same condvar
//!   and is woken by what it waits for: the idle writer by an append, a
//!   rotation request or a pause release; the snapshotter by the
//!   rotation's completion; a log tailer by the written mark; and each
//!   of them by shutdown. These models wait untimed (no fsync or
//!   heartbeat deadline), because a timed wait may time out at any
//!   scheduling point and so can never fail as a deadlock;
//! - apply-to-map-then-append-to-log under a [`persist::WriteStripes`]
//!   stripe makes a fuzzy scan plus the log tail converge to the final
//!   table — the invariant behind both snapshots and replicas.
#![cfg(cuckoo_model)]

use cuckoo::sync2::atomic::{AtomicU64, Ordering};
use cuckoo::sync2::Mutex;
use metrics::persist::PersistMetrics;
use persist::commit::CommitQueue;
use persist::record::decode_each;
use persist::{OpRef, SetRef, WriteStripes};
use std::sync::Arc;
use std::time::Instant;

/// Appends a `Set` of key `k` whose cas and value are `tag`.
fn append_set(q: &CommitQueue, tag: u64, m: &PersistMetrics) -> u64 {
    let value = tag.to_le_bytes();
    q.append(OpRef::Set(SetRef { key: b"k", flags: 0, expires_at: 0, cas: tag, value: &value }), m)
}

/// The LSNs of the frames in a drained byte run, in byte order — what
/// the writer would put in the file.
fn lsns(frames: &[u8]) -> Vec<u64> {
    let mut lsns = Vec::new();
    let valid = decode_each(frames, |r| {
        lsns.push(r.lsn);
        Ok(())
    });
    assert_eq!(valid.unwrap(), frames.len(), "torn or corrupt frame in the run");
    lsns
}

/// Two racing appenders: every schedule must hand out exactly LSNs
/// {1, 2} with the byte run in LSN order — assignment and enqueue are
/// one atomic step, so replica replay can trust file order. Bounded DFS.
#[test]
fn concurrent_appends_stay_dense_and_ordered() {
    loom::explore(loom::Config::dfs(4_000), || {
        let q = Arc::new(CommitQueue::new(0, 1 << 20));
        let m = Arc::new(PersistMetrics::new());
        let threads: Vec<_> = (0..2u64)
            .map(|t| {
                let (q, m) = (Arc::clone(&q), Arc::clone(&m));
                loom::thread::spawn(move || append_set(&q, t, &m))
            })
            .collect();
        let mut assigned: Vec<u64> =
            threads.into_iter().map(|h| h.join().unwrap()).collect();
        assigned.sort_unstable();
        assert_eq!(assigned, [1, 2], "LSNs must be dense, no gap and no dup");
        assert_eq!(q.last_lsn(), 2);
        let batch = q.pop_batch(Vec::new());
        assert_eq!(lsns(&batch.frames), [1, 2], "byte run out of LSN order");
        assert_eq!(batch.last_lsn, 2);
    })
    .expect("no schedule may tear LSN assignment");
}

/// An appender races the writer's drain/mark cycle; the watermark chain
/// `durable ≤ written ≤ last` must hold at every point either thread
/// can observe it. Bounded DFS.
#[test]
fn watermarks_never_cross_under_a_racing_writer() {
    loom::explore(loom::Config::dfs(4_000), || {
        let q = Arc::new(CommitQueue::new(0, 1 << 20));
        let m = Arc::new(PersistMetrics::new());
        let appender = {
            let (q, m) = (Arc::clone(&q), Arc::clone(&m));
            loom::thread::spawn(move || {
                append_set(&q, 1, &m);
                let (d, w, l) = (q.durable_lsn(), q.written_lsn(), q.last_lsn());
                assert!(d <= w && w <= l, "watermarks crossed: {d} {w} {l}");
            })
        };
        let writer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                let mut spare = Vec::new();
                for _ in 0..2 {
                    let batch = q.pop_batch(spare);
                    if let Some(&last) = lsns(&batch.frames).last() {
                        assert_eq!(last, batch.last_lsn);
                        q.mark_written(last);
                        q.mark_durable(last);
                    }
                    spare = batch.frames;
                    let (d, w, l) = (q.durable_lsn(), q.written_lsn(), q.last_lsn());
                    assert!(d <= w && w <= l, "watermarks crossed: {d} {w} {l}");
                }
            })
        };
        appender.join().unwrap();
        writer.join().unwrap();
    })
    .expect("watermark ordering must hold in every schedule");
}

/// An appender parked in backpressure (1-byte bound: the second append
/// cannot fit) races `begin_shutdown`, with no writer to drain. Every
/// schedule must terminate with both records enqueued — shutdown
/// releases the wait rather than deadlocking the drain. Bounded DFS,
/// exhausted.
#[test]
fn shutdown_releases_backpressured_appenders() {
    let stats = loom::explore(loom::Config::dfs(4_000), || {
        let q = Arc::new(CommitQueue::new(0, 1));
        let m = Arc::new(PersistMetrics::new());
        let appender = {
            let (q, m) = (Arc::clone(&q), Arc::clone(&m));
            loom::thread::spawn(move || {
                append_set(&q, 1, &m);
                append_set(&q, 2, &m); // over bound: parks until shutdown
            })
        };
        q.begin_shutdown();
        appender.join().unwrap();
        assert_eq!(lsns(&q.pop_batch(Vec::new()).frames), [1, 2]);
    })
    .expect("shutdown must release appenders parked on the byte bound");
    assert!(stats.exhausted, "{stats:?}");
}

/// The writer's drain releases an appender parked on the byte bound:
/// record 1 fills the 1-byte bound, the appender of record 2 races one
/// `pop_batch`, and every schedule ends with both records drained in
/// order. Bounded DFS, exhausted.
#[test]
fn a_drain_releases_a_backpressured_appender() {
    let stats = loom::explore(loom::Config::dfs(4_000), || {
        let q = Arc::new(CommitQueue::new(0, 1));
        let m = Arc::new(PersistMetrics::new());
        append_set(&q, 1, &m);
        let appender = {
            let (q, m) = (Arc::clone(&q), Arc::clone(&m));
            loom::thread::spawn(move || append_set(&q, 2, &m)) // over bound: parks until the drain
        };
        let first = q.pop_batch(Vec::new());
        assert_eq!(appender.join().unwrap(), 2);
        let mut drained = lsns(&first.frames);
        drained.extend(lsns(&q.pop_batch(Vec::new()).frames));
        assert_eq!(drained, [1, 2]);
    })
    .expect("a drain must release an appender parked on the byte bound");
    assert!(stats.exhausted, "{stats:?}");
}

/// `sync` returns once the writer marks its record durable: the writer
/// drains, writes and marks durable while a `sync` of record 1 waits,
/// and every schedule ends with the record durable. Bounded DFS,
/// exhausted.
#[test]
fn sync_returns_once_the_writer_marks_durable() {
    let stats = loom::explore(loom::Config::dfs(4_000), || {
        let q = Arc::new(CommitQueue::new(0, 1 << 20));
        let m = PersistMetrics::new();
        append_set(&q, 1, &m);
        let syncer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                q.sync();
                assert_eq!(q.durable_lsn(), 1, "sync returned before its record was durable");
            })
        };
        let batch = q.pop_batch(Vec::new());
        q.mark_written(batch.last_lsn);
        q.mark_durable(batch.last_lsn);
        syncer.join().unwrap();
    })
    .expect("a sync must return once its record is durable");
    assert!(stats.exhausted, "{stats:?}");
}

/// An append wakes an idle writer: the writer waits with nothing queued
/// or unsynced (its fsync is already due, so a record ends the wait at
/// once), one record is appended, and every schedule ends with the
/// writer holding it. Bounded DFS, exhausted.
#[test]
fn an_append_wakes_an_idle_writer() {
    let stats = loom::explore(loom::Config::dfs(4_000), || {
        let q = Arc::new(CommitQueue::new(0, 1 << 20));
        let m = PersistMetrics::new();
        let writer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                let work = q.next_work(Vec::new(), Instant::now());
                assert!(work.fsync && !work.rotate && !work.shutdown);
                lsns(&work.batch.frames)
            })
        };
        append_set(&q, 1, &m);
        assert_eq!(writer.join().unwrap(), [1]);
    })
    .expect("an append must wake an idle writer");
    assert!(stats.exhausted, "{stats:?}");
}

/// The snapshotter's rotation request wakes an idle writer, and the
/// writer's completion wakes the snapshotter, which gets the rotation
/// LSN. Bounded DFS, exhausted.
#[test]
fn a_rotation_request_wakes_the_writer_and_its_completion_the_snapshotter() {
    let stats = loom::explore(loom::Config::dfs(4_000), || {
        let q = Arc::new(CommitQueue::new(7, 1 << 20));
        let writer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                let work = q.next_work(Vec::new(), Instant::now());
                assert!(work.rotate && work.fsync && work.batch.frames.is_empty());
                q.rotated(q.written_lsn());
            })
        };
        let before = q.request_rotation();
        assert_eq!(q.wait_rotation(before), Some(7));
        writer.join().unwrap();
        assert_eq!(q.rotation(), (1, 7));
    })
    .expect("a rotation request and its completion must each wake their waiter");
    assert!(stats.exhausted, "{stats:?}");
}

/// A pause defers a requested rotation, and its release lets it run:
/// the log is paused and a rotation requested before the writer starts
/// (so it must keep waiting), then the pause is released. Every
/// schedule ends with the rotation done. Bounded DFS, exhausted.
#[test]
fn a_pause_release_lets_a_deferred_rotation_run() {
    let stats = loom::explore(loom::Config::dfs(4_000), || {
        let q = Arc::new(CommitQueue::new(0, 1 << 20));
        q.pause();
        let before = q.request_rotation();
        let writer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                let work = q.next_work(Vec::new(), Instant::now());
                assert!(work.rotate, "woken without a rotation to run");
                q.rotated(q.written_lsn());
            })
        };
        q.unpause();
        assert_eq!(q.wait_rotation(before), Some(0));
        writer.join().unwrap();
    })
    .expect("a pause release must let a deferred rotation run");
    assert!(stats.exhausted, "{stats:?}");
}

/// `mark_written` wakes a log tailer waiting at the end of the log:
/// the tailer waits for anything past LSN 0, and the writer drains and
/// writes record 1. Bounded DFS, exhausted.
#[test]
fn mark_written_wakes_a_waiting_tailer() {
    let stats = loom::explore(loom::Config::dfs(4_000), || {
        let q = Arc::new(CommitQueue::new(0, 1 << 20));
        let m = PersistMetrics::new();
        let tailer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                q.wait_for_log(0, 0, None);
                assert_eq!(q.written_lsn(), 1, "woken before the record was written");
            })
        };
        append_set(&q, 1, &m);
        q.mark_written(q.pop_batch(Vec::new()).last_lsn);
        tailer.join().unwrap();
    })
    .expect("a written mark must wake a waiting tailer");
    assert!(stats.exhausted, "{stats:?}");
}

/// Shutdown wakes each waiter of the durable path: an idle writer, a
/// snapshotter waiting for a rotation no writer runs, a tailer at the
/// end of the log, and a snapshotter asleep between cycles. One
/// exhausted DFS per waiter, each racing `begin_shutdown`.
#[test]
fn shutdown_wakes_each_waiter() {
    type Waiter = fn(&CommitQueue);
    let waiters: [(&str, Waiter); 4] = [
        ("idle writer", |q| assert!(q.next_work(Vec::new(), Instant::now()).shutdown)),
        ("rotation waiter", |q| assert_eq!(q.wait_rotation(q.request_rotation()), None)),
        ("log tailer", |q| q.wait_for_log(0, 0, None)),
        ("sleeping snapshotter", |q| assert!(q.sleep_until(None))),
    ];
    let failures: Vec<String> = waiters
        .into_iter()
        .filter_map(|(name, wait)| {
            let explored = loom::explore(loom::Config::dfs(4_000), move || {
                let q = Arc::new(CommitQueue::new(0, 1 << 20));
                let waiter = {
                    let q = Arc::clone(&q);
                    loom::thread::spawn(move || wait(&q))
                };
                q.begin_shutdown();
                waiter.join().unwrap();
            });
            match explored {
                Ok(stats) if stats.exhausted => None,
                Ok(stats) => Some(format!("{name}: not exhausted: {stats:?}")),
                Err(f) => Some(format!("shutdown must wake the {name}: {f:?}")),
            }
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The convergence kernel behind fuzzy snapshots *and* replica
/// bootstrap. Two writers update one key with apply-to-map *then*
/// append-to-log under the key's write stripe; a scanner concurrently
/// takes a fuzzy image the way the snapshot/bootstrap path does: read
/// the cutoff first, then the map (no stripe held). Replaying
/// {image} + {log entries past the cutoff} must land on the final map
/// value in every schedule. Remove the stripe (or log before applying)
/// and schedules exist where it does not. Bounded DFS.
#[test]
fn fuzzy_scan_plus_log_tail_converges_to_the_table() {
    loom::explore(loom::Config::dfs(8_000), || {
        let stripes = Arc::new(WriteStripes::new(1));
        let map = Arc::new(AtomicU64::new(0));
        let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

        let writers: Vec<_> = [7u64, 9u64]
            .into_iter()
            .map(|v| {
                let (stripes, map, log) =
                    (Arc::clone(&stripes), Arc::clone(&map), Arc::clone(&log));
                loom::thread::spawn(move || {
                    let _stripe = stripes.lock_key(b"k");
                    map.store(v, Ordering::Release);
                    log.lock().unwrap().push(v);
                })
            })
            .collect();
        let scanner = {
            let (map, log) = (Arc::clone(&map), Arc::clone(&log));
            loom::thread::spawn(move || {
                // Cutoff first, image second — the snapshot_cycle order.
                let cutoff = log.lock().unwrap().len();
                let image = map.load(Ordering::Acquire);
                (cutoff, image)
            })
        };
        let (cutoff, image) = scanner.join().unwrap();
        for w in writers {
            w.join().unwrap();
        }

        let log = log.lock().unwrap();
        let replayed = log[cutoff..].last().copied().unwrap_or(image);
        let table = map.load(Ordering::Acquire);
        assert_eq!(
            replayed, table,
            "image {image} + tail {:?} diverged from table {table}",
            &log[cutoff..]
        );
    })
    .expect("fuzzy scan + log tail must converge in every schedule");
}
