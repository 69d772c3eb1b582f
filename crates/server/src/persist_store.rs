//! [`PersistentStore`]: the durability decorator around a storage
//! engine.
//!
//! Wraps any [`Store`] and threads every acknowledged mutation through
//! the [`persist::Persister`] op log, in the order that makes fuzzy
//! snapshots and replica replay converge: **apply to the map first,
//! then append to the log, both under the key's write stripe**. Two
//! racing writers to the same key therefore log in the same order the
//! map observed them. A write burst takes all its keys' stripes at once,
//! applies through the engine's one batched write path and enqueues its
//! records in one step, so bursts over different keys contend only on
//! the commit-queue mutex (the append itself never touches the disk —
//! group commit happens on the writer thread).
//!
//! Reads bypass the stripes entirely; they are exactly as concurrent as
//! the undecorated engine. Restart and the replica land records one way,
//! `apply`: the engine itself is recovery's merge map.

use std::io;
use std::sync::Arc;

use metrics::persist::PersistMetrics;
use persist::{OpRef, PersistConfig, Persister, Recovered, SetRef, WriteStripes};

use crate::store::{expired, now_secs, ItemRef, Store, StoreCmd, StoreOutcome, StoreStats};

/// Stripe count: enough dispersion that unrelated keys essentially never
/// share a lock, small enough that `flush_all`'s lock-all sweep is cheap.
const STRIPES: usize = 1024;

pub struct PersistentStore {
    inner: Arc<dyn Store>,
    persister: Persister,
    stripes: WriteStripes,
}

/// What [`PersistentStore::open`] did: the data directory's recovery
/// summary, and how many entries the rebuilt table holds.
#[derive(Debug)]
pub struct Restored {
    pub recovered: Recovered,
    pub entries: Resident,
}

/// An entry count, read like a collection's length.
#[derive(Debug, Clone, Copy)]
pub struct Resident(pub usize);

impl Resident {
    pub fn len(self) -> usize {
        self.0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl PersistentStore {
    /// Opens (or creates) the data directory, streams it straight into
    /// `inner`, and hands the persister `inner`'s `scan_entries` for the
    /// normalizing snapshot and every later one.
    pub fn open(
        inner: Arc<dyn Store>,
        cfg: PersistConfig,
        metrics: Arc<PersistMetrics>,
    ) -> io::Result<(Arc<Self>, Restored)> {
        let (scanned, now) = (Arc::clone(&inner), now_secs());
        let scan = Arc::new(move |f: &mut dyn FnMut(SetRef<'_>)| scanned.scan_entries(now_secs(), f));
        let (persister, recovered) = Persister::open(cfg, metrics, scan, &mut |op| apply(&*inner, op, now))?;
        let entries = Resident(inner.stats().len);
        let store = Arc::new(PersistentStore {
            inner,
            persister,
            stripes: WriteStripes::new(STRIPES),
        });
        Ok((store, Restored { recovered, entries }))
    }

    pub fn persister(&self) -> &Persister {
        &self.persister
    }

    /// Applies one replicated record from the primary and relogs it, as
    /// received, into this node's own op log (a replica is durable in
    /// its own right — local LSNs, not the primary's). Same stripe
    /// discipline as the client write path, so replication and recovery
    /// stay convergent.
    pub fn apply_replicated(&self, op: OpRef<'_>) {
        let _g = match op {
            OpRef::Set(SetRef { key, .. }) | OpRef::Delete(key) => self.stripes.lock_keys([key]),
            OpRef::FlushAll => self.stripes.lock_all(),
        };
        apply(&*self.inner, op, now_secs());
        self.persister.append(op);
    }
}

/// Lands one recovered or replicated op in `store`. A `Set` already
/// expired at `now` lands as a `Delete` of its key, so it still hides
/// an earlier live value of that key.
fn apply(store: &dyn Store, op: OpRef<'_>, now: u32) {
    match op {
        OpRef::Set(s) if !expired(s.expires_at, now) => store.restore(s.key, s.flags, s.expires_at, s.cas, s.value),
        OpRef::Set(SetRef { key, .. }) | OpRef::Delete(key) => {
            store.delete(key);
        }
        OpRef::FlushAll => {
            store.flush_all();
        }
    }
}

impl Store for PersistentStore {
    fn read_many(&self, keys: &[&[u8]], now: u32, visit: &mut dyn FnMut(usize, Option<ItemRef<'_>>)) {
        self.inner.read_many(keys, now, visit)
    }

    fn write_many(&self, cmds: &[StoreCmd<'_>], now: u32, done: &mut dyn FnMut(usize, StoreOutcome)) {
        // The burst holds every key's stripe across one batched apply to
        // the engine and one enqueue of its records, encoded from the
        // commands' own bytes. Per key, the engine applies and the log
        // records in command order, so two racing writers of one key
        // still log in map order.
        let _g = self.stripes.lock_keys(cmds.iter().map(|c| c.key));
        let mut logged = Vec::with_capacity(cmds.len());
        self.inner.write_many(cmds, now, &mut |i, outcome| {
            if let StoreOutcome::Stored { cas, expires_at } = outcome {
                let c = &cmds[i];
                logged.push(SetRef { key: c.key, flags: c.flags, expires_at, cas, value: c.data });
            }
            done(i, outcome);
        });
        self.persister.append_sets(&logged);
    }

    fn delete(&self, key: &[u8]) -> bool {
        let _g = self.stripes.lock_key(key);
        let deleted = self.inner.delete(key);
        if deleted {
            self.persister.append(OpRef::Delete(key));
        }
        deleted
    }

    fn flush_all(&self) -> u64 {
        // Order against *every* in-flight write at once: any store that
        // logged before this point is flushed; any that logs after it
        // reappears after replay — exactly what a replayer reconstructs.
        let _g = self.stripes.lock_all();
        let flushed = self.inner.flush_all();
        self.persister.append(OpRef::FlushAll);
        flushed
    }

    fn restore(&self, key: &[u8], flags: u32, expires_at: u32, cas: u64, value: &[u8]) {
        // A restored item is already durable, so nothing is logged.
        self.inner.restore(key, flags, expires_at, cas, value)
    }

    fn scan_entries(&self, now: u32, f: &mut dyn FnMut(SetRef<'_>)) -> bool {
        self.inner.scan_entries(now, f)
    }

    fn persist_shutdown(&self) -> io::Result<()> {
        self.persister.shutdown()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn slab_classes(&self) -> Vec<cache::ClassStats> {
        self.inner.slab_classes()
    }

    fn engine(&self) -> &'static str {
        self.inner.engine()
    }

    fn metrics(&self, out: &mut Vec<metrics::Sample>) {
        self.inner.metrics(out);
        self.persister.metrics().samples(out);
    }

    fn metrics_reset(&self) {
        self.inner.metrics_reset();
        self.persister.metrics().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::StoreVerb;
    use crate::store::CuckooStore;
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pstore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn cfg(dir: &Path) -> PersistConfig {
        let mut c = PersistConfig::new(dir);
        c.fsync_interval = Duration::from_millis(1);
        c.snapshot_interval = Duration::ZERO;
        c
    }

    fn open(dir: &Path) -> (Arc<PersistentStore>, Recovered) {
        let (s, restored) =
            PersistentStore::open(Arc::new(CuckooStore::new(1024)), cfg(dir), Arc::new(PersistMetrics::new())).unwrap();
        (s, restored.recovered)
    }

    fn get_val(s: &PersistentStore, key: &[u8]) -> Option<Vec<u8>> {
        s.get(key, now_secs()).map(|i| i.data)
    }

    /// `(key, flags, cas, value)` of every resident item, sorted.
    fn items(s: &PersistentStore) -> Vec<(Vec<u8>, u32, u64, Vec<u8>)> {
        let mut items = Vec::new();
        while !{
            items.clear();
            s.scan_entries(now_secs(), &mut |e| items.push((e.key.to_vec(), e.flags, e.cas, e.value.to_vec())))
        } {}
        items.sort();
        items
    }

    /// Two writers race mixed bursts through the batched durable path,
    /// on each engine; a dirty restart then rebuilds the table they left,
    /// cas values included. Per key, the log must hold the writes in the
    /// order the engine applied them. Every round races on keys of its
    /// own, so each round's outcome survives to the final comparison.
    #[test]
    fn racing_bursts_replay_to_the_live_table() {
        const ROUNDS: u32 = 2_000;
        for tag in ["clock", "cuckoo"] {
            let engine = || -> Arc<dyn Store> {
                match tag {
                    // Large enough that nothing is evicted: evictions are
                    // not logged.
                    "clock" => Arc::new(crate::store::ClockStore::new(1 << 14)),
                    _ => Arc::new(CuckooStore::new(1024)),
                }
            };
            let d = tmpdir(&format!("race-{tag}"));
            let open = || PersistentStore::open(engine(), cfg(&d), Arc::new(PersistMetrics::new())).unwrap();
            let live = {
                let (s, _) = open();
                let start = std::sync::Barrier::new(2);
                std::thread::scope(|scope| {
                    for t in 0..2usize {
                        let (s, start) = (&s, &start);
                        scope.spawn(move || {
                            let verbs = [StoreVerb::Replace, StoreVerb::Set, StoreVerb::Add, StoreVerb::Set];
                            let values: Vec<String> = (0..12).map(|j| format!("{t}-{j}")).collect();
                            for round in 0..ROUNDS {
                                let keys: Vec<String> = (0..3).map(|j| format!("r{round}-k{j}")).collect();
                                let cmds: Vec<StoreCmd<'_>> = (0..12)
                                    .map(|j| StoreCmd {
                                        verb: verbs[(j + t) % verbs.len()],
                                        key: keys[j % keys.len()].as_bytes(),
                                        flags: t as u32,
                                        exptime: 0,
                                        data: values[j].as_bytes(),
                                    })
                                    .collect();
                                start.wait();
                                s.write_many(&cmds, now_secs(), &mut |_, _| {});
                            }
                        });
                    }
                });
                s.persister().sync();
                items(&s)
            };
            assert_eq!(live.len(), 3 * ROUNDS as usize, "{tag}");
            let (s, _) = open();
            assert_eq!(items(&s), live, "{tag}: replay diverged from the live table");
            drop(s);
            fs::remove_dir_all(&d).unwrap();
        }
    }

    /// Restart applies snapshot and log in stream order, on each engine.
    /// The cases come in two directories, because a `flush_all` hides
    /// everything logged before it:
    /// - a snapshot key deleted in the log stays deleted;
    /// - a key set live and then re-set with a deadline already past at
    ///   restart reads as a miss, not as its earlier live value;
    /// - a `flush_all` mid-log drops what came before it, but not the
    ///   sets after it.
    #[test]
    fn restart_applies_the_stream_in_order_on_both_engines() {
        let now = now_secs();
        let set = |key: &'static str, value: &'static str, expires_at: u32, cas: u64| SetRef {
            key: key.as_bytes(),
            flags: cas as u32,
            expires_at,
            cas,
            value: value.as_bytes(),
        };
        let log_set = |key, value, expires_at, cas| OpRef::Set(set(key, value, expires_at, cas));
        let delete = |key: &'static str| OpRef::Delete(key.as_bytes());
        // (snapshot covering LSN 3, log from LSN 4)
        let cases: [(Vec<SetRef<'_>>, Vec<OpRef<'_>>); 2] = [
            (
                vec![set("kept", "a", 0, 1), set("deleted", "b", 0, 2), set("expired", "c", 0, 3)],
                vec![delete("deleted"), log_set("expired", "live", 0, 5), log_set("expired", "dead", now - 10, 6)],
            ),
            (
                vec![set("old", "a", 0, 1), set("older", "b", 0, 2), set("oldest", "c", 0, 3)],
                vec![log_set("pre", "x", 0, 4), OpRef::FlushAll, log_set("post", "y", 0, 6), log_set("old", "z", 0, 7)],
            ),
        ];
        for tag in ["clock", "cuckoo"] {
            for (i, (snap, log)) in cases.iter().enumerate() {
                // The oracle: the same stream, last writer wins, then
                // what is still live at `now`.
                let mut oracle = std::collections::BTreeMap::new();
                for op in snap.iter().map(|&s| OpRef::Set(s)).chain(log.iter().copied()) {
                    match op {
                        OpRef::Set(s) => {
                            oracle.insert(s.key.to_vec(), (s.flags, s.cas, s.value.to_vec(), s.expires_at));
                        }
                        OpRef::Delete(key) => {
                            oracle.remove(key);
                        }
                        OpRef::FlushAll => oracle.clear(),
                    }
                }
                oracle.retain(|_, (.., expires_at)| !expired(*expires_at, now));
                let want: Vec<_> = oracle.into_iter().map(|(k, (f, c, v, _))| (k, f, c, v)).collect();

                let d = tmpdir(&format!("order-{tag}-{i}"));
                fs::create_dir_all(&d).unwrap();
                persist::snapshot::write(&d, 3, &|f: &mut dyn FnMut(SetRef<'_>)| {
                    snap.iter().for_each(|&s| f(s));
                    true
                })
                .unwrap();
                let mut bytes = Vec::new();
                for (lsn, op) in (4..).zip(log) {
                    persist::record::encode_op(*op, lsn, &mut bytes);
                }
                fs::write(d.join(persist::log::OPLOG), &bytes).unwrap();

                let engine: Arc<dyn Store> = match tag {
                    "clock" => Arc::new(crate::store::ClockStore::new(1 << 10)),
                    _ => Arc::new(CuckooStore::new(1024)),
                };
                let (s, restored) = PersistentStore::open(engine, cfg(&d), Arc::new(PersistMetrics::new())).unwrap();
                assert_eq!(restored.recovered.replayed, log.len() as u64, "{tag} case {i}");
                assert_eq!(items(&s), want, "{tag} case {i}: restart diverged from the oracle");
                assert_eq!(restored.entries.len(), want.len(), "{tag} case {i}");
                for key in ["deleted", "expired", "pre", "older"] {
                    assert_eq!(get_val(&s, key.as_bytes()), None, "{tag} case {i}: {key} must read as a miss");
                }
                drop(s);
                fs::remove_dir_all(&d).unwrap();
            }
        }
    }

    #[test]
    fn writes_survive_a_dirty_restart() {
        let d = tmpdir("dirty");
        {
            let (s, _) = open(&d);
            let now = now_secs();
            s.store(StoreVerb::Set, b"alpha", 7, 0, b"one", now);
            s.store(StoreVerb::Set, b"beta", 0, 0, b"two", now);
            s.delete(b"alpha");
            s.persister().sync();
            // Dropped without persist_shutdown: the kill -9 shape.
        }
        let (s, _) = open(&d);
        assert_eq!(get_val(&s, b"alpha"), None);
        assert_eq!(get_val(&s, b"beta"), Some(b"two".to_vec()));
        // cas allocation continues above every recovered value.
        let now = now_secs();
        let out = s.store(StoreVerb::Set, b"gamma", 0, 0, b"three", now);
        let StoreOutcome::Stored { cas, .. } = out else {
            panic!("store failed after restart")
        };
        let beta_cas = s.get(b"beta", now).unwrap().cas;
        assert!(cas > beta_cas, "fresh cas {cas} must exceed recovered {beta_cas}");
        drop(s);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn clean_shutdown_then_snapshot_only_restart() {
        let d = tmpdir("clean");
        {
            let (s, _) = open(&d);
            s.store(StoreVerb::Set, b"k", 0, 0, b"v", now_secs());
            s.persist_shutdown().unwrap();
        }
        // The drain left a covering snapshot and no log: the restart
        // streams the snapshot alone, with no replay and no rewrite.
        let (s, rec) = open(&d);
        assert_eq!(rec.replayed, 0);
        assert_eq!(s.persister().metrics().snapshots.get(), 0, "an empty log needs no normalizing rewrite");
        assert_eq!(get_val(&s, b"k"), Some(b"v".to_vec()));
        let StoreOutcome::Stored { .. } = s.store(StoreVerb::Set, b"k2", 0, 0, b"v2", now_secs()) else {
            panic!("store failed after restart")
        };
        assert_eq!(s.persister().last_lsn(), rec.last_lsn + 1, "LSNs continue after restart");
        drop(s);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn flush_all_is_logged_and_replays_empty() {
        let d = tmpdir("flush");
        {
            let (s, _) = open(&d);
            let now = now_secs();
            s.store(StoreVerb::Set, b"a", 0, 0, b"1", now);
            s.store(StoreVerb::Set, b"b", 0, 0, b"2", now);
            assert_eq!(s.flush_all(), 2);
            s.store(StoreVerb::Set, b"c", 0, 0, b"3", now);
            s.persister().sync();
        }
        let (s, _) = open(&d);
        assert_eq!(s.stats().len, 1);
        assert_eq!(get_val(&s, b"c"), Some(b"3".to_vec()));
        drop(s);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn apply_replicated_mirrors_and_relogs() {
        let d = tmpdir("applyrep");
        {
            let (s, _) = open(&d);
            s.apply_replicated(OpRef::Set(SetRef { key: b"r", flags: 3, expires_at: 0, cas: 42, value: b"from-primary" }));
            assert_eq!(get_val(&s, b"r"), Some(b"from-primary".to_vec()));
            assert_eq!(s.get(b"r", now_secs()).unwrap().cas, 42);
            s.persister().sync();
        }
        // Relogged: the replica recovers the replicated write on its own.
        let (s, _) = open(&d);
        assert_eq!(get_val(&s, b"r"), Some(b"from-primary".to_vec()));
        drop(s);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn snapshot_cycle_runs_against_the_live_engine() {
        let d = tmpdir("cycle");
        let (s, _) = open(&d);
        let now = now_secs();
        for i in 0..50 {
            s.store(StoreVerb::Set, format!("k{i}").as_bytes(), 0, 0, b"v", now);
        }
        s.persister().snapshot_now().unwrap();
        assert_eq!(s.persister().metrics().snapshots.get(), 1);
        assert_eq!(s.persister().metrics().snapshot_entries.get(), 50);
        drop(s);
        let (s, rec) = open(&d);
        assert_eq!(rec.replayed, 0, "snapshot covered every append");
        assert_eq!(s.stats().len, 50);
        drop(s);
        fs::remove_dir_all(&d).unwrap();
    }
}
