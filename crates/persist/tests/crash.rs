//! Crash-recovery property tests: for any op history and any crash
//! point, `Persister::open` reconstructs exactly the state an oracle
//! (in-memory last-writer-wins replay of the intact log prefix) says it
//! should. "Crash point" is modeled the way real crashes present on
//! disk: the log truncated at an arbitrary byte offset (kill -9 mid
//! `write(2)`), or with a flipped byte in its final record (a torn
//! sector). Seeds are fixed unless `PROPTEST_SEED` overrides them, so CI
//! runs are reproducible. Recovery streams into a map that each test's
//! sink builds, and that map is what is compared with the oracle.

#![cfg(not(cuckoo_model))]

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use metrics::persist::PersistMetrics;
use persist::record;
use persist::{snapshot, OpRef, PersistConfig, Persister, Recovered, SetRef, TableScan};
use proptest::prelude::*;

/// A generated op, owned by the test.
#[derive(Debug, Clone)]
enum Op {
    Set { key: Vec<u8>, flags: u32, expires_at: u32, cas: u64, value: Vec<u8> },
    Delete { key: Vec<u8> },
    FlushAll,
}

impl Op {
    fn as_ref(&self) -> OpRef<'_> {
        match self {
            Op::Set { key, flags, expires_at, cas, value } => {
                OpRef::Set(SetRef { key, flags: *flags, expires_at: *expires_at, cas: *cas, value })
            }
            Op::Delete { key } => OpRef::Delete(key),
            Op::FlushAll => OpRef::FlushAll,
        }
    }
}

/// One key's state as the oracle and the recovered map hold it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    key: Vec<u8>,
    flags: u32,
    expires_at: u32,
    cas: u64,
    value: Vec<u8>,
}

impl Entry {
    fn as_set(&self) -> SetRef<'_> {
        SetRef { key: &self.key, flags: self.flags, expires_at: self.expires_at, cas: self.cas, value: &self.value }
    }
}

/// `(kind, key, val)` triple → a concrete op over an 8-key space.
/// kind 0..7 = Set (heavy), 7..9 = Delete, 9 = FlushAll.
fn make_op(kind: u8, key: u8, val: u16, lsn: u64) -> Op {
    let key = format!("k{}", key % 8).into_bytes();
    match kind {
        0..=6 => Op::Set {
            key,
            flags: u32::from(val),
            expires_at: 0,
            cas: lsn,
            value: val.to_le_bytes().to_vec(),
        },
        7 | 8 => Op::Delete { key },
        _ => Op::FlushAll,
    }
}

/// Encodes `ops` at LSNs `first_lsn..`, returning the log bytes and the
/// end offset of each frame.
fn encode_log(ops: &[Op], first_lsn: u64) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        record::encode_op(op.as_ref(), first_lsn + i as u64, &mut bytes);
        ends.push(bytes.len());
    }
    (bytes, ends)
}

/// Last-writer-wins oracle. `cas` mirrors what `make_op` stamped so the
/// comparison covers metadata, not just values.
fn oracle(base: &HashMap<Vec<u8>, Entry>, ops: &[Op], first_lsn: u64) -> HashMap<Vec<u8>, Entry> {
    let mut map = base.clone();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Set { key, flags, expires_at, cas, value } => {
                map.insert(
                    key.clone(),
                    Entry {
                        key: key.clone(),
                        flags: *flags,
                        expires_at: *expires_at,
                        cas: *cas,
                        value: value.clone(),
                    },
                );
                debug_assert_eq!(*cas, first_lsn + i as u64);
            }
            Op::Delete { key } => {
                map.remove(key);
            }
            Op::FlushAll => map.clear(),
        }
    }
    map
}

/// Last-writer-wins application of one streamed op: what a sink does.
fn apply(map: &mut HashMap<Vec<u8>, Entry>, op: OpRef<'_>) {
    match op {
        OpRef::Set(s) => {
            let e = Entry { key: s.key.to_vec(), flags: s.flags, expires_at: s.expires_at, cas: s.cas, value: s.value.to_vec() };
            map.insert(e.key.clone(), e);
        }
        OpRef::Delete(key) => {
            map.remove(key);
        }
        OpRef::FlushAll => map.clear(),
    }
}

/// Opens `dir`, streaming recovery into a fresh map that also backs the
/// persister's snapshots; `before(i)` runs ahead of the `i`th op. Returns
/// the map as recovery left it.
fn open_with(
    dir: &Path,
    metrics: Arc<PersistMetrics>,
    mut before: impl FnMut(usize),
) -> std::io::Result<(Persister, Recovered, HashMap<Vec<u8>, Entry>)> {
    let table: Arc<Mutex<HashMap<Vec<u8>, Entry>>> = Arc::default();
    let scanned = Arc::clone(&table);
    let scan: TableScan = Arc::new(move |f: &mut dyn FnMut(SetRef<'_>)| {
        scanned.lock().unwrap().values().for_each(|e| f(e.as_set()));
        true
    });
    let mut seen = 0;
    let (p, rec) = Persister::open(cfg(dir), metrics, scan, &mut |op| {
        before(seen);
        seen += 1;
        apply(&mut table.lock().unwrap(), op);
    })?;
    let map = table.lock().unwrap().clone();
    Ok((p, rec, map))
}

fn open(dir: &Path, metrics: Arc<PersistMetrics>) -> std::io::Result<(Persister, Recovered, HashMap<Vec<u8>, Entry>)> {
    open_with(dir, metrics, |_| {})
}

/// Publishes `base` as `dir`'s snapshot covering `covers`.
fn write_snapshot(dir: &Path, covers: u64, base: &HashMap<Vec<u8>, Entry>) {
    snapshot::write(dir, covers, &|f: &mut dyn FnMut(SetRef<'_>)| {
        base.values().for_each(|e| f(e.as_set()));
        true
    })
    .unwrap();
}

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|f| {
            let f = f.unwrap();
            (f.file_name().into_string().unwrap(), fs::read(f.path()).unwrap())
        })
        .collect()
}

fn tmpdir(tag: &str, case: u64) -> PathBuf {
    let d = std::env::temp_dir()
        .join(format!("persist-crash-{tag}-{}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn cfg(dir: &std::path::Path) -> PersistConfig {
    let mut c = PersistConfig::new(dir);
    c.fsync_interval = Duration::from_millis(1);
    c.snapshot_interval = Duration::ZERO;
    c
}

/// Unique-ish case counter so concurrent proptest cases don't share a
/// directory.
fn case_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

proptest! {
    /// Truncating the log at *any* byte offset recovers exactly the
    /// oracle state of the frames that survived whole, and the torn
    /// remainder is dropped silently (never an error, never a phantom
    /// record).
    #[test]
    fn truncation_at_any_byte_recovers_the_intact_prefix(
        raw in collection::vec((0u8..10, any::<u8>(), any::<u16>()), 1usize..48),
        cut_seed in any::<u32>(),
    ) {
        let ops: Vec<Op> = raw
            .iter()
            .enumerate()
            .map(|(i, &(k, key, val))| make_op(k, key, val, i as u64 + 1))
            .collect();
        let (bytes, ends) = encode_log(&ops, 1);
        let cut = cut_seed as usize % (bytes.len() + 1);
        let intact = ends.iter().filter(|&&e| e <= cut).count();

        let d = tmpdir("trunc", case_id());
        fs::write(d.join(persist::log::OPLOG), &bytes[..cut]).unwrap();

        let m = Arc::new(PersistMetrics::new());
        let (p, rec, got) = open(&d, Arc::clone(&m)).unwrap();
        prop_assert_eq!(rec.replayed, intact as u64);
        prop_assert_eq!(rec.last_lsn, intact as u64);
        let want = oracle(&HashMap::new(), &ops[..intact], 1);
        prop_assert_eq!(got, want);
        // Partial trailing bytes — and only those — count a torn tail.
        let torn = cut > 0 && !ends.contains(&cut);
        prop_assert_eq!(m.torn_tails.get(), u64::from(torn));
        drop(p);
        fs::remove_dir_all(&d).unwrap();
    }

    /// A snapshot plus a truncated log tail replays to the oracle over
    /// {snapshot state} + {intact tail frames} — the warm-restart shape
    /// after a crash that interrupted post-snapshot traffic.
    #[test]
    fn snapshot_plus_torn_tail_replays_to_oracle(
        raw in collection::vec((0u8..10, any::<u8>(), any::<u16>()), 2usize..48),
        split_seed in any::<u32>(),
        cut_seed in any::<u32>(),
    ) {
        let ops: Vec<Op> = raw
            .iter()
            .enumerate()
            .map(|(i, &(k, key, val))| make_op(k, key, val, i as u64 + 1))
            .collect();
        let split = 1 + (split_seed as usize % (ops.len() - 1));
        let covers = split as u64;
        let base = oracle(&HashMap::new(), &ops[..split], 1);
        let tail = &ops[split..];
        let (bytes, ends) = encode_log(tail, covers + 1);
        let cut = cut_seed as usize % (bytes.len() + 1);
        let intact = ends.iter().filter(|&&e| e <= cut).count();

        let d = tmpdir("snap", case_id());
        write_snapshot(&d, covers, &base);
        fs::write(d.join(persist::log::OPLOG), &bytes[..cut]).unwrap();

        let (p, rec, got) = open(&d, Arc::new(PersistMetrics::new())).unwrap();
        prop_assert_eq!(rec.replayed, intact as u64);
        prop_assert_eq!(rec.last_lsn, covers + intact as u64);
        let want = oracle(&base, &tail[..intact], covers + 1);
        prop_assert_eq!(got, want);
        drop(p);
        fs::remove_dir_all(&d).unwrap();
    }

    /// A flipped byte anywhere in the final record (torn sector) loses
    /// at most that one record: the CRC rejects it, recovery keeps the
    /// prefix, and the tear is counted.
    #[test]
    fn flipped_byte_in_final_record_loses_at_most_one_op(
        raw in collection::vec((0u8..10, any::<u8>(), any::<u16>()), 1usize..32),
        flip_seed in any::<u32>(),
        flip_with in 1u8..=255,
    ) {
        let ops: Vec<Op> = raw
            .iter()
            .enumerate()
            .map(|(i, &(k, key, val))| make_op(k, key, val, i as u64 + 1))
            .collect();
        let (mut bytes, ends) = encode_log(&ops, 1);
        let last_start = if ops.len() == 1 { 0 } else { ends[ops.len() - 2] };
        let last_len = ends[ops.len() - 1] - last_start;
        let flip_at = last_start + flip_seed as usize % last_len;
        bytes[flip_at] ^= flip_with;

        let d = tmpdir("flip", case_id());
        fs::write(d.join(persist::log::OPLOG), &bytes).unwrap();

        let m = Arc::new(PersistMetrics::new());
        let (p, rec, got) = open(&d, Arc::clone(&m)).unwrap();
        let intact = ops.len() - 1;
        prop_assert_eq!(rec.replayed, intact as u64);
        prop_assert_eq!(rec.last_lsn, intact as u64);
        prop_assert_eq!(got, oracle(&HashMap::new(), &ops[..intact], 1));
        prop_assert_eq!(m.torn_tails.get(), 1);
        drop(p);
        fs::remove_dir_all(&d).unwrap();
    }
}

/// Rotation renames a *complete, fsync'd* file, so a torn frame in
/// `oplog.old` while a newer `oplog` generation exists can only mean
/// real corruption — recovery must refuse, not guess, and must leave
/// the directory exactly as it found it.
#[test]
fn corruption_in_an_interior_generation_is_fatal() {
    let ops: Vec<Op> = (0..3).map(|i| make_op(0, i, 7, u64::from(i) + 1)).collect();
    let (mut old_bytes, ends) = encode_log(&ops, 1);
    let mid = (ends[0] + ends[1]) / 2; // inside the second frame
    old_bytes[mid] ^= 0xff;
    let (new_bytes, _) = encode_log(&[make_op(0, 3, 7, 4)], 4);

    let d = tmpdir("interior", case_id());
    let base = oracle(&HashMap::new(), &[make_op(0, 5, 1, 0)], 0);
    write_snapshot(&d, 0, &base);
    fs::write(d.join(persist::log::OPLOG_OLD), &old_bytes).unwrap();
    fs::write(d.join(persist::log::OPLOG), &new_bytes).unwrap();
    let before = files(&d);

    let err = open(&d, Arc::new(PersistMetrics::new())).err().expect("interior corruption must refuse to open");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(files(&d), before, "a refused open must leave snapshot, oplog.old and oplog untouched");
    fs::remove_dir_all(&d).unwrap();
}

/// A sink that dies mid-stream — here it panics, at every op in turn —
/// stops recovery before the normalizing snapshot publishes: every file
/// stays byte-identical, and the next open recovers the full state.
#[test]
fn a_sink_that_dies_mid_stream_leaves_the_directory_as_it_found_it() {
    // kinds: sets, a delete (7) and a flush (9), over lsns 1..=9.
    let ops: Vec<Op> =
        [0u8, 0, 7, 0, 9, 0, 0, 7, 0].iter().enumerate().map(|(i, &k)| make_op(k, i as u8 % 3, i as u16, i as u64 + 1)).collect();
    let base = oracle(&HashMap::new(), &ops[..3], 1);
    let (old_bytes, _) = encode_log(&ops[3..6], 4);
    let (new_bytes, _) = encode_log(&ops[6..], 7);

    let d = tmpdir("sinkdies", case_id());
    write_snapshot(&d, 3, &base);
    fs::write(d.join(persist::log::OPLOG_OLD), &old_bytes).unwrap();
    fs::write(d.join(persist::log::OPLOG), &new_bytes).unwrap();
    let before = files(&d);

    let streamed = base.len() + 6;
    for dies_at in 0..streamed {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            open_with(&d, Arc::new(PersistMetrics::new()), |i| {
                if i == dies_at {
                    // Unwind without the panic hook's report.
                    std::panic::resume_unwind(Box::new("sink died"));
                }
            })
        }));
        assert!(r.is_err(), "the sink dies at op {dies_at} of {streamed}");
        assert_eq!(files(&d), before, "sink died at op {dies_at}: the directory changed");
    }

    let (p, rec, got) = open(&d, Arc::new(PersistMetrics::new())).unwrap();
    assert_eq!((rec.last_lsn, rec.replayed), (9, 6));
    assert_eq!(got, oracle(&base, &ops[3..], 4));
    drop(p);
    fs::remove_dir_all(&d).unwrap();
}

/// The same flipped byte in the *live* (last) generation is an ordinary
/// torn tail: everything before it replays.
#[test]
fn corruption_in_the_live_tail_truncates() {
    let ops: Vec<Op> = (0..3).map(|i| make_op(0, i, 7, u64::from(i) + 1)).collect();
    let (mut bytes, ends) = encode_log(&ops, 1);
    bytes[ends[1] + 5] ^= 0xff; // inside the third frame

    let d = tmpdir("tail", case_id());
    fs::write(d.join(persist::log::OPLOG), &bytes).unwrap();

    let m = Arc::new(PersistMetrics::new());
    let (p, rec, _) = open(&d, Arc::clone(&m)).unwrap();
    assert_eq!(rec.replayed, 2);
    assert_eq!(rec.last_lsn, 2);
    assert_eq!(m.torn_tails.get(), 1);
    drop(p);
    fs::remove_dir_all(&d).unwrap();
}
