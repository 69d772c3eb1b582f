//! [`PersistentStore`]: the durability decorator around a storage
//! engine.
//!
//! Wraps any [`Store`] and threads every acknowledged mutation through
//! the [`persist::Persister`] op log, in the order that makes fuzzy
//! snapshots and replica replay converge: **apply to the map first,
//! then append to the log, both under the key's write stripe**. Two
//! racing writers to the same key therefore log in the same order the
//! map observed them, while writers to different keys never contend on
//! more than the commit-queue mutex (the append itself never touches
//! the disk — group commit happens on the writer thread).
//!
//! Reads bypass the stripes entirely; they are exactly as concurrent as
//! the undecorated engine.

use std::io;
use std::sync::Arc;

use metrics::persist::PersistMetrics;
use persist::record::Op;
use persist::{Entry, PersistConfig, Persister, Recovered, WriteStripes};

use crate::proto::StoreVerb;
use crate::store::{now_secs, ItemRef, Store, StoreCmd, StoreOutcome, StoreStats};

/// Stripe count: enough dispersion that unrelated keys essentially never
/// share a lock, small enough that `flush_all`'s lock-all sweep is cheap.
const STRIPES: usize = 1024;

pub struct PersistentStore {
    inner: Arc<dyn Store>,
    persister: Persister,
    stripes: WriteStripes,
}

impl PersistentStore {
    /// Opens (or creates) the data directory, replays it into `inner`,
    /// and starts the background snapshot thread with a provider that
    /// scans `inner` (retrying until the displacement-race check says
    /// the pass was consistent).
    pub fn open(
        inner: Arc<dyn Store>,
        cfg: PersistConfig,
        metrics: Arc<PersistMetrics>,
    ) -> io::Result<(Arc<Self>, Recovered)> {
        let (persister, recovered) = Persister::open(cfg, metrics)?;
        let now = now_secs();
        for e in &recovered.entries {
            if e.expires_at != 0 && now >= e.expires_at {
                continue; // died while we were down; don't resurrect it
            }
            inner.restore(&e.key, e.flags, e.expires_at, e.cas, &e.value);
        }
        persister.start_snapshots(scan_provider(Arc::clone(&inner)));
        let store = Arc::new(PersistentStore {
            inner,
            persister,
            stripes: WriteStripes::new(STRIPES),
        });
        Ok((store, recovered))
    }

    pub fn persister(&self) -> &Persister {
        &self.persister
    }

    /// Applies one replicated record from the primary and relogs it into
    /// this node's own op log (a replica is durable in its own right —
    /// local LSNs, not the primary's). Same stripe discipline as the
    /// client write path, so replication and recovery stay convergent.
    pub fn apply_replicated(&self, op: &Op) {
        match op {
            Op::Set { key, flags, expires_at, cas, value } => {
                let _g = self.stripes.lock_key(key);
                self.inner.restore(key, *flags, *expires_at, *cas, value);
                self.persister.append(op);
            }
            Op::Delete { key } => {
                let _g = self.stripes.lock_key(key);
                self.inner.delete(key);
                self.persister.append(op);
            }
            Op::FlushAll => {
                let _g = self.stripes.lock_all();
                self.inner.flush_all();
                self.persister.append(op);
            }
            Op::Heartbeat { .. } => {}
        }
    }
}

/// Builds the snapshot thread's table scanner over `inner`.
fn scan_provider(inner: Arc<dyn Store>) -> persist::EntryProvider {
    Arc::new(move || {
        let mut entries = Vec::new();
        loop {
            entries.clear();
            if inner.scan_entries(now_secs(), &mut entries) {
                return entries;
            }
            // A concurrent displacement may have hidden an entry from
            // that pass; scan again.
            std::thread::yield_now();
        }
    })
}

impl Store for PersistentStore {
    fn read_many(&self, keys: &[&[u8]], now: u32, visit: &mut dyn FnMut(usize, Option<ItemRef<'_>>)) {
        self.inner.read_many(keys, now, visit)
    }

    fn store(
        &self,
        verb: StoreVerb,
        key: &[u8],
        flags: u32,
        exptime: u32,
        data: &[u8],
        now: u32,
    ) -> StoreOutcome {
        let _g = self.stripes.lock_key(key);
        let outcome = self.inner.store(verb, key, flags, exptime, data, now);
        if let StoreOutcome::Stored { cas, expires_at } = outcome {
            self.persister.append(&Op::Set {
                key: key.to_vec(),
                flags,
                expires_at,
                cas,
                value: data.to_vec(),
            });
        }
        outcome
    }

    fn store_many(&self, cmds: &[StoreCmd<'_>], now: u32, out: &mut Vec<StoreOutcome>) {
        // Deliberately the per-command loop, NOT the inner engine's
        // batched path: the durability contract requires each op to
        // apply to the map and append to the log under its key's write
        // stripe, so two racing writers of one key log in map order.
        // A batched inner write would need every key's stripe held
        // around one multi-append — serializing unrelated keys for no
        // recovery benefit. Burst coalescing therefore speeds up the
        // non-durable engines and leaves the logged path's ordering
        // exactly as audited.
        out.clear();
        out.extend(
            cmds.iter().map(|c| self.store(c.verb, c.key, c.flags, c.exptime, c.data, now)),
        );
    }

    fn delete(&self, key: &[u8]) -> bool {
        let _g = self.stripes.lock_key(key);
        let deleted = self.inner.delete(key);
        if deleted {
            self.persister.append(&Op::Delete { key: key.to_vec() });
        }
        deleted
    }

    fn flush_all(&self) -> u64 {
        // Order against *every* in-flight write at once: any store that
        // logged before this point is flushed; any that logs after it
        // reappears after replay — exactly what a replayer reconstructs.
        let _g = self.stripes.lock_all();
        let flushed = self.inner.flush_all();
        self.persister.append(&Op::FlushAll);
        flushed
    }

    fn restore(&self, key: &[u8], flags: u32, expires_at: u32, cas: u64, value: &[u8]) {
        // Warm-restart path only; the recovered state is already durable,
        // so nothing is logged.
        self.inner.restore(key, flags, expires_at, cas, value)
    }

    fn scan_entries(&self, now: u32, out: &mut Vec<Entry>) -> bool {
        self.inner.scan_entries(now, out)
    }

    fn persist_shutdown(&self) -> io::Result<()> {
        self.persister.shutdown()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
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
        PersistentStore::open(
            Arc::new(CuckooStore::new(1024)),
            cfg(dir),
            Arc::new(PersistMetrics::new()),
        )
        .unwrap()
    }

    fn get_val(s: &PersistentStore, key: &[u8]) -> Option<Vec<u8>> {
        s.get(key, now_secs()).map(|i| i.data)
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
        let (s, rec) = open(&d);
        assert!(!rec.clean);
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
        let (s, rec) = open(&d);
        assert!(rec.clean, "graceful drain must leave a clean marker");
        assert_eq!(rec.replayed, 0);
        assert_eq!(get_val(&s, b"k"), Some(b"v".to_vec()));
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
            s.apply_replicated(&Op::Set {
                key: b"r".to_vec(),
                flags: 3,
                expires_at: 0,
                cas: 42,
                value: b"from-primary".to_vec(),
            });
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
