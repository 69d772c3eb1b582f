//! Durability-tier benchmark: warm-restart latency and recovery
//! correctness, gated as `BENCH_recovery.json`.
//!
//! Two restart shapes are measured end to end through the real server:
//!
//! - **clean restart** — populate `cuckood` over TCP with a data dir,
//!   shut down gracefully (final snapshot, logs removed), and time a
//!   respawn: recovery is a straight snapshot load with zero replay.
//! - **dirty restart** — build a crash-shaped directory (op log only:
//!   appended, fsync'd, no snapshot — exactly what `kill -9` leaves) and
//!   time a respawn that must replay every record.
//!
//! Both cases then read back every key over TCP; `lost` counts
//! acknowledged-durable writes missing after restart. The ship gate is
//! `lost == 0` and `hit_rate == 1.0` in both rows — restart time is
//! reported, not gated (it scales with entry count and disk).
//!
//! Env knobs (for CI smoke runs):
//! - `RECOVERY_KEYS`: entries to persist and verify (default 50_000).
//! - `RECOVERY_VALUE_LEN`: value bytes per entry (default 32).

use bench::banner;
use metrics::persist::PersistMetrics;
use persist::{OpRef, PersistConfig, Persister, SetRef};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn config(dir: &Path) -> server::Config {
    server::Config {
        port: 0,
        capacity: 1 << 20,
        workers: 2,
        data_dir: Some(dir.to_path_buf()),
        fsync_interval_ms: 1,
        snapshot_interval_secs: 0,
        ..Default::default()
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        Client { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    /// Pipelined sets in batches of 128; every reply must be STORED.
    fn set_all(&mut self, n: usize, value_len: usize) {
        let value = vec![b'v'; value_len];
        let mut line = String::new();
        for batch in (0..n).collect::<Vec<_>>().chunks(128) {
            let mut buf = Vec::new();
            for i in batch {
                buf.extend_from_slice(format!("set key{i} 0 0 {value_len}\r\n").as_bytes());
                buf.extend_from_slice(&value);
                buf.extend_from_slice(b"\r\n");
            }
            self.writer.write_all(&buf).unwrap();
            for i in batch {
                line.clear();
                self.reader.read_line(&mut line).unwrap();
                assert_eq!(line, "STORED\r\n", "set key{i}");
            }
        }
    }

    /// Pipelined gets; returns the hit count.
    fn get_all(&mut self, n: usize, value_len: usize) -> usize {
        let mut hits = 0;
        let mut line = String::new();
        for batch in (0..n).collect::<Vec<_>>().chunks(128) {
            let mut buf = Vec::new();
            for i in batch {
                buf.extend_from_slice(format!("get key{i}\r\n").as_bytes());
            }
            self.writer.write_all(&buf).unwrap();
            for _ in batch {
                line.clear();
                self.reader.read_line(&mut line).unwrap();
                if line.starts_with("VALUE ") {
                    let mut body = vec![0u8; value_len + 2];
                    self.reader.read_exact(&mut body).unwrap();
                    line.clear();
                    self.reader.read_line(&mut line).unwrap(); // END
                    hits += 1;
                }
                // else: the END of a miss.
            }
        }
        hits
    }

    fn stat(&mut self, name: &str) -> u64 {
        self.writer.write_all(b"stats cuckoo\r\n").unwrap();
        let mut found = 0;
        let mut line = String::new();
        loop {
            line.clear();
            self.reader.read_line(&mut line).unwrap();
            if line.starts_with("END") {
                return found;
            }
            if let Some(rest) = line.strip_prefix(&format!("STAT {name} ")) {
                found = rest.trim().parse().unwrap_or(0);
            }
        }
    }
}

struct Row {
    case: &'static str,
    entries: usize,
    populate_ms: f64,
    restart_ms: f64,
    replayed: u64,
    hits: usize,
}

fn verify_restart(dir: &Path, n: usize, value_len: usize) -> (f64, u64, usize) {
    let t0 = Instant::now();
    let handle = server::spawn(config(dir)).expect("respawn");
    let restart_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut c = Client::connect(handle.local_addr());
    let replayed = c.stat("cuckoo_persist_replayed_records_total");
    let hits = c.get_all(n, value_len);
    handle.shutdown();
    (restart_ms, replayed, hits)
}

/// Populate through the server, wait until everything acknowledged is
/// also durable, shut down cleanly, and time the snapshot-load respawn.
fn clean_case(dir: &Path, n: usize, value_len: usize) -> Row {
    let handle = server::spawn(config(dir)).expect("spawn");
    let mut c = Client::connect(handle.local_addr());
    let t0 = Instant::now();
    c.set_all(n, value_len);
    while (c.stat("cuckoo_persist_durable_lsn") as usize) < n {
        std::thread::sleep(Duration::from_millis(1));
    }
    let populate_ms = t0.elapsed().as_secs_f64() * 1e3;
    handle.shutdown();
    let (restart_ms, replayed, hits) = verify_restart(dir, n, value_len);
    Row { case: "clean_restart", entries: n, populate_ms, restart_ms, replayed, hits }
}

/// Build the post-`kill -9` directory shape — a fully fsync'd op log,
/// no snapshot — and time the replaying respawn.
fn dirty_case(dir: &Path, n: usize, value_len: usize) -> Row {
    let t0 = Instant::now();
    {
        let mut cfg = PersistConfig::new(dir);
        cfg.fsync_interval = Duration::from_millis(1);
        cfg.snapshot_interval = Duration::ZERO;
        // An empty directory: nothing streams in, nothing is snapshotted.
        let empty = Arc::new(|_: &mut dyn FnMut(SetRef<'_>)| true);
        let (p, _) = Persister::open(cfg, Arc::new(PersistMetrics::new()), empty, &mut |_| {}).expect("open log");
        let value = vec![b'v'; value_len];
        for i in 0..n {
            let key = format!("key{i}");
            p.append(OpRef::Set(SetRef { key: key.as_bytes(), flags: 0, expires_at: 0, cas: i as u64 + 1, value: &value }));
        }
        p.sync();
        // Dropped without shutdown(): the crash shape.
    }
    let populate_ms = t0.elapsed().as_secs_f64() * 1e3;
    // Recovery normalizes to a snapshot, so replay the log copy itself.
    let (restart_ms, replayed, hits) = verify_restart(dir, n, value_len);
    Row { case: "dirty_restart", entries: n, populate_ms, restart_ms, replayed, hits }
}

fn main() {
    let n = env_usize("RECOVERY_KEYS", 50_000);
    let value_len = env_usize("RECOVERY_VALUE_LEN", 32);
    banner(
        "Durability: warm restart",
        "restart latency + zero-loss verification for clean and crash recovery",
    );

    let base = PathBuf::from("target/bench-results").join(format!("recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let rows = [
        clean_case(&base.join("clean"), n, value_len),
        dirty_case(&base.join("dirty"), n, value_len),
    ];
    let _ = std::fs::remove_dir_all(&base);

    println!(
        "{:<16} {:>9} {:>13} {:>12} {:>9} {:>9} {:>6} {:>9}",
        "case", "entries", "populate ms", "restart ms", "replayed", "hits", "lost", "hit rate"
    );
    let mut ok = true;
    let mut json = String::from("{\n  \"bench\": \"recovery\",\n");
    json.push_str(&format!("  \"value_len\": {value_len},\n  \"results\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        let lost = r.entries - r.hits;
        let hit_rate = r.hits as f64 / r.entries as f64;
        ok &= lost == 0;
        println!(
            "{:<16} {:>9} {:>13.1} {:>12.1} {:>9} {:>9} {:>6} {:>9.4}",
            r.case, r.entries, r.populate_ms, r.restart_ms, r.replayed, r.hits, lost, hit_rate
        );
        json.push_str(&format!(
            "    {{\"case\": \"{}\", \"entries\": {}, \"restart_ms\": {:.1}, \
             \"replayed\": {}, \"lost\": {}, \"hit_rate\": {:.4}}}{}\n",
            r.case,
            r.entries,
            r.restart_ms,
            r.replayed,
            lost,
            hit_rate,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    let dir = PathBuf::from("target/bench-results");
    let _ = std::fs::create_dir_all(&dir);
    match std::fs::write(dir.join("BENCH_recovery.json"), &json) {
        Ok(()) => println!("\nwrote target/bench-results/BENCH_recovery.json"),
        Err(e) => println!("\nBENCH_recovery.json not written: {e}"),
    }
    assert!(ok, "acknowledged-durable ops were lost across restart");
}
