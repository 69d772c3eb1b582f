//! End-to-end durability and replication smoke tests: real servers on
//! ephemeral loopback ports, real data directories, warm restarts, and
//! a primary→replica pair with a mid-stream bootstrap and a promote.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A small blocking client speaking the memcached text protocol.
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

    fn line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read line");
        line.trim_end().to_string()
    }

    fn set(&mut self, key: &str, value: &[u8]) {
        write!(self.writer, "set {} 0 0 {}\r\n", key, value.len()).unwrap();
        self.writer.write_all(value).unwrap();
        self.writer.write_all(b"\r\n").unwrap();
        assert_eq!(self.line(), "STORED", "set {key}");
    }

    fn get(&mut self, key: &str) -> Option<Vec<u8>> {
        write!(self.writer, "get {}\r\n", key).unwrap();
        let header = self.line();
        if header == "END" {
            return None;
        }
        let mut parts = header.split(' ');
        assert_eq!(parts.next(), Some("VALUE"), "header {header:?}");
        assert_eq!(parts.next(), Some(key));
        let _flags = parts.next().unwrap();
        let n: usize = parts.next().unwrap().parse().unwrap();
        let mut data = vec![0u8; n + 2];
        self.reader.read_exact(&mut data).unwrap();
        data.truncate(n);
        assert_eq!(self.line(), "END");
        Some(data)
    }

    fn delete(&mut self, key: &str) -> bool {
        write!(self.writer, "delete {}\r\n", key).unwrap();
        match self.line().as_str() {
            "DELETED" => true,
            "NOT_FOUND" => false,
            other => panic!("unexpected delete reply {other:?}"),
        }
    }

    fn command(&mut self, cmd: &str) -> String {
        write!(self.writer, "{cmd}\r\n").unwrap();
        self.line()
    }

    fn stat_section(&mut self, section: &str) -> std::collections::BTreeMap<String, u64> {
        write!(self.writer, "stats {section}\r\n").unwrap();
        let mut stats = std::collections::BTreeMap::new();
        loop {
            let line = self.line();
            if line == "END" {
                break;
            }
            let rest = line.strip_prefix("STAT ").unwrap_or_else(|| panic!("bad line {line:?}"));
            let (name, value) = rest.split_once(' ').unwrap();
            if let Ok(v) = value.parse::<u64>() {
                stats.insert(name.to_string(), v);
            }
        }
        stats
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cuckood-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn persistent_config(dir: &std::path::Path) -> server::Config {
    server::Config {
        port: 0,
        capacity: 1 << 16,
        workers: 2,
        data_dir: Some(dir.to_path_buf()),
        fsync_interval_ms: 1,
        snapshot_interval_secs: 0, // no background compaction in tests
        ..Default::default()
    }
}

fn wait_until(what: &str, limit: Duration, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < limit, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The two engines a restart rebuilds: `(tag, --no-evict)`.
const ENGINES: [(&str, bool); 2] = [("clock", false), ("cuckoo", true)];

#[test]
fn warm_restart_after_graceful_shutdown_serves_the_full_table() {
    for (tag, no_evict) in ENGINES {
        warm_restart_after_graceful_shutdown(tag, no_evict);
    }
}

fn warm_restart_after_graceful_shutdown(tag: &str, no_evict: bool) {
    let dir = tmpdir(&format!("clean-{tag}"));
    let config = || server::Config { no_evict, ..persistent_config(&dir) };
    {
        let handle = server::spawn(config()).expect("spawn");
        let mut c = Client::connect(handle.local_addr());
        for i in 0..300 {
            c.set(&format!("k{i}"), format!("v{i}").as_bytes());
        }
        for i in (0..300).step_by(3) {
            assert!(c.delete(&format!("k{i}")));
        }
        handle.shutdown(); // graceful: final snapshot, logs removed
    }
    let handle = server::spawn(config()).expect("respawn");
    let mut c = Client::connect(handle.local_addr());
    for i in 0..300 {
        let got = c.get(&format!("k{i}"));
        if i % 3 == 0 {
            assert_eq!(got, None, "{tag}: k{i} was deleted before shutdown");
        } else {
            assert_eq!(got, Some(format!("v{i}").into_bytes()), "{tag}: k{i} lost across restart");
        }
    }
    // A graceful restart replays nothing and rewrites no snapshot.
    let stats = c.stat_section("cuckoo");
    assert_eq!(stats["cuckoo_persist_replayed_records_total"], 0, "{tag}: {stats:?}");
    assert_eq!(stats["cuckoo_persist_snapshots_total"], 0, "{tag}: {stats:?}");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_restart_after_kill_nine_replays_the_log() {
    for (tag, no_evict) in ENGINES {
        warm_restart_after_kill_nine(tag, no_evict);
    }
}

fn warm_restart_after_kill_nine(tag: &str, no_evict: bool) {
    let dir = tmpdir(&format!("crash-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    // A real process and a real SIGKILL: no drain and no final snapshot
    // — recovery has only the fsynced log to work with. (An in-process "crash" can't model this: dropping the handle
    // leaves the old writer thread alive and contending for the log.)
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_cuckood"))
        .args([
            "--port",
            "0",
            "--threads",
            "2",
            "--data-dir",
            dir.to_str().unwrap(),
            "--fsync-interval-ms",
            "1",
            "--snapshot-interval-secs",
            "0",
        ])
        .args(no_evict.then_some("--no-evict"))
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn cuckood binary");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr: std::net::SocketAddr = loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).unwrap() == 0 {
            panic!("cuckood exited before announcing its address");
        }
        if let Some(rest) = line.strip_prefix("cuckood listening on ") {
            break rest.split_whitespace().next().unwrap().parse().unwrap();
        }
    };
    {
        let mut c = Client::connect(addr);
        for i in 0..100 {
            c.set(&format!("k{i}"), b"v");
        }
    }
    // Every set above was acknowledged; the 1ms group-commit window plus
    // this beat of slack means all of them are on disk before the kill.
    std::thread::sleep(Duration::from_millis(100));
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    let handle = server::spawn(server::Config { no_evict, ..persistent_config(&dir) }).expect("respawn");
    let mut c = Client::connect(handle.local_addr());
    for i in 0..100 {
        assert_eq!(c.get(&format!("k{i}")), Some(b"v".to_vec()), "{tag}: k{i} lost in crash recovery");
    }
    let stats = c.stat_section("cuckoo");
    assert!(
        stats["cuckoo_persist_replayed_records_total"] >= 100,
        "{tag}: dirty restart must replay the log: {stats:?}"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flush_all_drops_everything_and_survives_restart() {
    let dir = tmpdir("flush");
    {
        let handle = server::spawn(persistent_config(&dir)).expect("spawn");
        let mut c = Client::connect(handle.local_addr());
        c.set("keep", b"no");
        assert_eq!(c.command("flush_all"), "OK");
        c.set("after", b"yes");
        // Delayed flushes are refused, not silently approximated.
        assert!(c.command("flush_all 30").starts_with("SERVER_ERROR"));
        handle.shutdown();
    }
    let handle = server::spawn(persistent_config(&dir)).expect("respawn");
    let mut c = Client::connect(handle.local_addr());
    assert_eq!(c.get("keep"), None, "flush_all must hold across restart");
    assert_eq!(c.get("after"), Some(b"yes".to_vec()));
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persist_metric_families_are_exposed() {
    let dir = tmpdir("metrics");
    let handle = server::spawn(persistent_config(&dir)).expect("spawn");
    let mut c = Client::connect(handle.local_addr());
    c.set("k", b"v");
    let stats = c.stat_section("cuckoo");
    for family in [
        "cuckoo_persist_log_records_total",
        "cuckoo_persist_log_bytes_total",
        "cuckoo_persist_log_writes_total",
        "cuckoo_persist_fsyncs_total",
        "cuckoo_persist_group_commit_us_count",
        "cuckoo_persist_backpressure_waits_total",
        "cuckoo_persist_snapshots_total",
        "cuckoo_persist_snapshot_last_entries",
        "cuckoo_persist_replayed_records_total",
        "cuckoo_persist_torn_tails_total",
        "cuckoo_persist_durable_lsn",
        "cuckoo_persist_replicas_connected",
        "cuckoo_persist_replication_records_sent_total",
        "cuckoo_persist_replication_lag_records",
        "cuckoo_persist_replication_records_applied_total",
    ] {
        assert!(stats.contains_key(family), "missing family {family} in {stats:?}");
    }
    assert!(stats["cuckoo_persist_log_records_total"] >= 1);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replica_bootstraps_mid_stream_converges_and_promotes() {
    let pdir = tmpdir("primary");
    let rdir = tmpdir("replica");

    let primary = server::spawn(persistent_config(&pdir)).expect("spawn primary");
    let mut pc = Client::connect(primary.local_addr());
    // Preload before the replica exists: the bootstrap path must carry
    // these, not the log tail.
    for i in 0..200 {
        pc.set(&format!("pre{i}"), format!("old{i}").as_bytes());
    }
    pc.set("doomed", b"x");
    assert!(pc.delete("doomed"));

    // Start the replica mid-life of the primary.
    let mut rcfg = persistent_config(&rdir);
    rcfg.replica_of = Some(primary.local_addr().to_string());
    let replica = server::spawn(rcfg).expect("spawn replica");
    let mut rc = Client::connect(replica.local_addr());

    // Writes racing the bootstrap must also arrive.
    for i in 0..200 {
        pc.set(&format!("live{i}"), format!("new{i}").as_bytes());
    }

    wait_until("replica convergence", Duration::from_secs(10), || {
        rc.get("pre199").is_some() && rc.get("live199").is_some()
    });
    for i in (0..200).step_by(17) {
        assert_eq!(rc.get(&format!("pre{i}")), Some(format!("old{i}").into_bytes()));
        assert_eq!(rc.get(&format!("live{i}")), Some(format!("new{i}").into_bytes()));
    }
    assert_eq!(rc.get("doomed"), None, "pre-bootstrap delete must hold on the replica");

    // The replica refuses writes until promoted.
    assert!(rc.command("set nope 0 0 1\r\nx").starts_with("SERVER_ERROR"));
    assert!(pc.command("promote").starts_with("SERVER_ERROR"), "primary is not a replica");

    // Deletes stream too.
    assert!(pc.delete("pre0"));
    wait_until("replicated delete", Duration::from_secs(10), || rc.get("pre0").is_none());

    // Promote: the replica detaches and takes writes.
    assert_eq!(rc.command("promote"), "OK");
    rc.set("post-promote", b"mine");
    assert_eq!(rc.get("post-promote"), Some(b"mine".to_vec()));

    // A write on the old primary no longer reaches it.
    pc.set("split", b"brain");
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(rc.get("split"), None, "promoted replica must not keep following");

    primary.shutdown();
    // The promoted replica's own durability tier still works.
    replica.shutdown();
    let solo = server::spawn(persistent_config(&rdir)).expect("respawn promoted replica");
    let mut sc = Client::connect(solo.local_addr());
    assert_eq!(sc.get("post-promote"), Some(b"mine".to_vec()));
    assert_eq!(sc.get("live100"), Some(b"new100".to_vec()));
    solo.shutdown();

    std::fs::remove_dir_all(&pdir).unwrap();
    std::fs::remove_dir_all(&rdir).unwrap();
}

/// A `set` on a primary that has gone idle still reaches the replica:
/// the primary's log writer and the replica's feeder both sleep while
/// nothing is written, and the set must wake them.
#[test]
fn a_replica_receives_a_set_made_on_an_idle_primary() {
    let pdir = tmpdir("idle-primary");
    let rdir = tmpdir("idle-replica");
    let primary = server::spawn(persistent_config(&pdir)).expect("spawn primary");
    let mut pc = Client::connect(primary.local_addr());
    pc.set("before", b"1");
    let mut rcfg = persistent_config(&rdir);
    rcfg.replica_of = Some(primary.local_addr().to_string());
    let replica = server::spawn(rcfg).expect("spawn replica");
    let mut rc = Client::connect(replica.local_addr());
    wait_until("replica bootstrap", Duration::from_secs(10), || rc.get("before").is_some());

    // Long enough for every thread of the primary to go back to sleep.
    std::thread::sleep(Duration::from_millis(500));
    pc.set("after-idle", b"2");
    wait_until("the set made on an idle primary", Duration::from_secs(10), || {
        rc.get("after-idle") == Some(b"2".to_vec())
    });

    replica.shutdown();
    primary.shutdown();
    std::fs::remove_dir_all(&pdir).unwrap();
    std::fs::remove_dir_all(&rdir).unwrap();
}

/// After the bootstrap, a primary's `flush_all`, then `set`s, then a
/// `delete` reach the replica in order, and the replica relogs them: it
/// restarts on its own into the same table.
#[test]
fn live_flush_set_delete_replicate_in_order() {
    let pdir = tmpdir("live-ops-primary");
    let rdir = tmpdir("live-ops-replica");
    let primary = server::spawn(persistent_config(&pdir)).expect("spawn primary");
    let mut pc = Client::connect(primary.local_addr());
    pc.set("a", b"1");
    pc.set("b", b"2");

    let mut rcfg = persistent_config(&rdir);
    rcfg.replica_of = Some(primary.local_addr().to_string());
    let replica = server::spawn(rcfg).expect("spawn replica");
    let mut rc = Client::connect(replica.local_addr());
    wait_until("bootstrap", Duration::from_secs(10), || rc.get("b").is_some());

    // A flush applied late would drop `d`; a delete applied early would
    // leave `c`. `done` is set last, so once it arrives everything
    // before it has.
    assert_eq!(pc.command("flush_all"), "OK");
    pc.set("c", b"3");
    pc.set("d", b"4");
    assert!(pc.delete("c"));
    pc.set("done", b"5");
    wait_until("the live ops", Duration::from_secs(10), || rc.get("done").is_some());
    let expect = |c: &mut Client| {
        for (key, want) in [("a", None), ("b", None), ("c", None), ("d", Some(b"4".to_vec())), ("done", Some(b"5".to_vec()))] {
            assert_eq!(c.get(key), want, "{key}");
        }
    };
    expect(&mut rc);

    replica.shutdown();
    primary.shutdown();
    let solo = server::spawn(persistent_config(&rdir)).expect("respawn the replica alone");
    expect(&mut Client::connect(solo.local_addr()));
    solo.shutdown();
    std::fs::remove_dir_all(&pdir).unwrap();
    std::fs::remove_dir_all(&rdir).unwrap();
}

#[test]
fn replicate_without_data_dir_is_refused() {
    let handle = server::spawn(server::Config {
        port: 0,
        capacity: 1 << 12,
        workers: 1,
        ..Default::default()
    })
    .expect("spawn");
    let mut c = Client::connect(handle.local_addr());
    assert!(c.command("replicate 0").starts_with("SERVER_ERROR"));
    // The connection survives the refusal.
    c.set("still", b"alive");
    assert_eq!(c.get("still"), Some(b"alive".to_vec()));
    handle.shutdown();
}
