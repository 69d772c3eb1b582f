//! End-to-end smoke test for `cuckood`: a real server on an ephemeral
//! loopback port, real TCP clients, concurrent traffic, graceful
//! shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A small blocking client speaking the memcached text protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
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

    /// Returns the value, or `None` on a miss.
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

    /// `stats`: every `STAT name value` line, by name.
    fn stats(&mut self) -> std::collections::HashMap<String, String> {
        write!(self.writer, "stats\r\n").unwrap();
        let mut stats = std::collections::HashMap::new();
        loop {
            let line = self.line();
            if line == "END" {
                return stats;
            }
            let rest = line.strip_prefix("STAT ").unwrap_or_else(|| panic!("stats line {line:?}"));
            let (name, value) = rest.split_once(' ').unwrap();
            stats.insert(name.to_string(), value.to_string());
        }
    }

    fn delete(&mut self, key: &str) -> bool {
        write!(self.writer, "delete {}\r\n", key).unwrap();
        match self.line().as_str() {
            "DELETED" => true,
            "NOT_FOUND" => false,
            other => panic!("unexpected delete reply {other:?}"),
        }
    }
}

#[test]
fn concurrent_clients_set_get_delete_and_drain() {
    let handle = server::spawn(server::Config {
        port: 0,
        capacity: 1 << 16,
        workers: 2,
        ..Default::default()
    })
    .expect("spawn");
    let addr = handle.local_addr();

    const CLIENTS: usize = 6;
    const KEYS_PER_CLIENT: usize = 200;
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let mut client = Client::connect(addr);
                // Distinct per-client keyspace: no cross-client races on
                // individual keys, full contention on the shared table.
                for i in 0..KEYS_PER_CLIENT {
                    let key = format!("c{c}k{i}");
                    let value = format!("value-{c}-{i}").into_bytes();
                    client.set(&key, &value);
                }
                for i in 0..KEYS_PER_CLIENT {
                    let key = format!("c{c}k{i}");
                    let expect = format!("value-{c}-{i}").into_bytes();
                    assert_eq!(client.get(&key), Some(expect), "{key}");
                }
                // Delete the odd half; verify both halves behave.
                for i in (1..KEYS_PER_CLIENT).step_by(2) {
                    assert!(client.delete(&format!("c{c}k{i}")));
                }
                for i in 0..KEYS_PER_CLIENT {
                    let key = format!("c{c}k{i}");
                    let got = client.get(&key);
                    if i % 2 == 1 {
                        assert_eq!(got, None, "{key} should be deleted");
                    } else {
                        assert!(got.is_some(), "{key} should survive");
                    }
                }
                // Deleting again reports NOT_FOUND, not an error.
                assert!(!client.delete(&format!("c{c}k1")));
            });
        }
    });

    // A fresh connection still sees the surviving keys (shared store,
    // not per-connection state).
    let mut checker = Client::connect(addr);
    assert_eq!(
        checker.get("c0k0"),
        Some(b"value-0-0".to_vec()),
        "data visible across connections"
    );

    // stats reflects the traffic.
    let stats = checker.stats();
    let cmd_get: u64 = stats["cmd_get"].parse().unwrap();
    assert!(cmd_get >= (CLIENTS * KEYS_PER_CLIENT) as u64, "cmd_get {cmd_get}");
    let get_hits = stats.get("get_hits").expect("stats must include get_hits");
    assert!(get_hits.parse::<u64>().unwrap() > 0);
    assert!(stats["table_bytes"].parse::<u64>().unwrap() > 0);

    // version answers; quit closes cleanly.
    write!(checker.writer, "version\r\n").unwrap();
    assert!(checker.line().starts_with("VERSION "));
    write!(checker.writer, "quit\r\n").unwrap();
    let mut rest = Vec::new();
    checker.reader.read_to_end(&mut rest).expect("clean close after quit");
    assert!(rest.is_empty(), "no bytes after quit");

    // Graceful shutdown: joins every worker; afterwards the port refuses
    // new work (accept thread is gone).
    handle.shutdown();
}

#[test]
fn observability_sections_expose_and_reset() {
    let handle = server::spawn(server::Config {
        port: 0,
        capacity: 1 << 14,
        workers: 2,
        ..Default::default()
    })
    .expect("spawn");
    let mut client = Client::connect(handle.local_addr());
    for i in 0..500 {
        client.set(&format!("k{i}"), format!("v{i}").as_bytes());
    }
    for i in 0..500 {
        assert!(client.get(&format!("k{i}")).is_some());
    }

    // `stats cuckoo`: STAT framing, core families present, and the
    // cross-series invariants hold (contended ≤ acquisitions; the
    // histogram count equals its +Inf cumulative bucket).
    let read_stat_section = |client: &mut Client| {
        write!(client.writer, "stats cuckoo\r\n").unwrap();
        let mut stats = std::collections::BTreeMap::new();
        loop {
            let line = client.line();
            if line == "END" {
                break;
            }
            let rest = line.strip_prefix("STAT ").unwrap_or_else(|| panic!("bad line {line:?}"));
            let (name, value) = rest.split_once(' ').unwrap();
            stats.insert(name.to_string(), value.parse::<u64>().unwrap());
        }
        stats
    };
    let stats = read_stat_section(&mut client);
    for family in [
        "cuckoo_lock_acquisitions_total",
        "cuckoo_lock_contended_total",
        "cuckoo_lock_spin_waits_count",
        "cuckoo_read_retries_total",
        "cuckoo_read_lock_fallbacks_total",
        "cuckoo_multiget_fallbacks_total",
        "cuckoo_bfs_path_len_count",
        "cuckoo_bfs_examined_slots_count",
        "cuckoo_path_searches_total",
        "cuckoo_migration_chunks_total",
        "cuckoo_graveyard_depth",
    ] {
        assert!(stats.contains_key(family), "missing family {family}");
    }
    // No served path runs an elided lock: no transactional families.
    assert!(!stats.keys().any(|name| name.starts_with("htm_")), "{stats:?}");
    assert!(stats["cuckoo_lock_acquisitions_total"] >= 500, "{stats:?}");
    assert!(stats["cuckoo_lock_contended_total"] <= stats["cuckoo_lock_acquisitions_total"]);
    assert_eq!(stats["cuckoo_bfs_path_len_count"], stats["cuckoo_bfs_path_len_le_inf"]);

    // `stats prometheus`: text exposition with TYPE headers and
    // cumulative histogram buckets.
    write!(client.writer, "stats prometheus\r\n").unwrap();
    let mut body = String::new();
    loop {
        let line = client.line();
        if line == "END" {
            break;
        }
        body.push_str(&line);
        body.push('\n');
    }
    for needle in [
        "# TYPE cuckoo_lock_acquisitions_total counter",
        "# TYPE cuckoo_bfs_path_len histogram",
        "cuckoo_bfs_path_len_bucket{le=\"+Inf\"}",
        "cuckoo_bfs_path_len_sum",
        "cuckoo_bfs_path_len_count",
        "# TYPE cuckoo_graveyard_depth gauge",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    assert!(!body.contains("htm_"), "transactional family emitted:\n{body}");

    // Unknown subcommand: recoverable CLIENT_ERROR, connection usable.
    write!(client.writer, "stats bogus\r\n").unwrap();
    assert!(client.line().starts_with("CLIENT_ERROR"));

    // `stats reset` zeroes the families coherently (no traffic between
    // reset and re-read; the clock engine runs no background threads).
    write!(client.writer, "stats reset\r\n").unwrap();
    assert_eq!(client.line(), "RESET");
    let after = read_stat_section(&mut client);
    assert_eq!(after["cuckoo_lock_acquisitions_total"], 0, "{after:?}");
    assert_eq!(after["cuckoo_lock_contended_total"], 0);
    assert_eq!(after["cuckoo_bfs_path_len_count"], 0);
    assert_eq!(after["cuckoo_read_retries_total"], 0);

    handle.shutdown();
}

/// A pipelined burst of storage commands in one TCP write must coalesce
/// into a batched `store_many` on the server side while producing a
/// reply stream byte-identical to sequential execution — including
/// `noreply` gaps and conditional-verb outcomes.
#[test]
fn pipelined_set_burst_coalesces_with_exact_replies() {
    let handle = server::spawn(server::Config {
        port: 0,
        capacity: 1 << 14,
        workers: 1,
        ..Default::default()
    })
    .expect("spawn");
    let mut client = Client::connect(handle.local_addr());

    // One write carrying a whole burst: 32 sets, one of them noreply,
    // an add that must lose, an add that must win, and a replace miss.
    let mut burst = Vec::new();
    for i in 0..32 {
        let value = format!("burst-{i}");
        let noreply = if i == 7 { " noreply" } else { "" };
        burst.extend_from_slice(
            format!("set bk{i} 0 0 {}{noreply}\r\n{value}\r\n", value.len()).as_bytes(),
        );
    }
    burst.extend_from_slice(b"add bk0 0 0 1\r\nx\r\n"); // present: NOT_STORED
    burst.extend_from_slice(b"add bnew 0 0 1\r\ny\r\n"); // absent: STORED
    burst.extend_from_slice(b"replace bmiss 0 0 1\r\nz\r\n"); // absent: NOT_STORED
    client.writer.write_all(&burst).unwrap();

    // Replies in command order, skipping exactly the noreply set.
    for i in 0..32 {
        if i == 7 {
            continue;
        }
        assert_eq!(client.line(), "STORED", "set bk{i}");
    }
    assert_eq!(client.line(), "NOT_STORED", "add of a present key");
    assert_eq!(client.line(), "STORED", "add of an absent key");
    assert_eq!(client.line(), "NOT_STORED", "replace of an absent key");

    // Every value (noreply one included) landed.
    for i in 0..32 {
        assert_eq!(client.get(&format!("bk{i}")), Some(format!("burst-{i}").into_bytes()));
    }
    assert_eq!(client.get("bnew"), Some(b"y".to_vec()));
    assert_eq!(client.get("bmiss"), None);

    // The server saw at least one coalesced burst covering the sets.
    let stats = client.stats();
    let (batches, keys): (u64, u64) =
        (stats["multiset_batches"].parse().unwrap(), stats["multiset_keys"].parse().unwrap());
    assert!(batches >= 1, "burst was not coalesced (multiset_batches {batches})");
    assert!(keys >= 32, "coalesced burst lost commands (multiset_keys {keys})");

    handle.shutdown();
}

/// The read-side twin: pipelined `get`/`gets` requests in one TCP write
/// coalesce into batched store reads, a run ending wherever a `set`
/// stands between them — so every read observes every write that
/// precedes it on the connection — and the reply stream is the one
/// sequential execution produces.
#[test]
fn pipelined_get_burst_coalesces_with_exact_replies() {
    let handle = server::spawn(server::Config {
        port: 0,
        capacity: 1 << 14,
        workers: 1,
        ..Default::default()
    })
    .expect("spawn");
    let mut client = Client::connect(handle.local_addr());
    client.set("rk2", b"other");

    client
        .writer
        .write_all(
            b"set rk 0 0 2\r\nv1\r\n\
              get rk\r\n\
              set rk 5 0 2\r\nv2\r\n\
              gets rk rk2 missing\r\n\
              get rk\r\n\
              get missing rk rk\r\n",
        )
        .unwrap();

    assert_eq!(client.line(), "STORED");
    // The read between the two sets sees the first.
    assert_eq!(client.line(), "VALUE rk 0 2");
    assert_eq!(client.line(), "v1");
    assert_eq!(client.line(), "END");
    assert_eq!(client.line(), "STORED");
    // The run after the second set sees the second — per request, in
    // key order, misses silent, cas only where `gets` asked for it.
    let cas_of = |line: String, prefix: &str| -> u64 {
        line.strip_prefix(prefix).unwrap_or_else(|| panic!("{line:?}")).parse().unwrap()
    };
    let rk_cas = cas_of(client.line(), "VALUE rk 5 2 ");
    assert_eq!(client.line(), "v2");
    let rk2_cas = cas_of(client.line(), "VALUE rk2 0 5 ");
    assert_eq!(client.line(), "other");
    assert_eq!(client.line(), "END");
    assert!(rk_cas > rk2_cas, "cas {rk_cas} of the later write must exceed {rk2_cas}");
    let rest = ["VALUE rk 5 2", "v2", "END", "VALUE rk 5 2", "v2", "VALUE rk 5 2", "v2", "END"];
    for expect in rest {
        assert_eq!(client.line(), expect, "`get rk`, then `get missing rk rk`");
    }

    let stats = client.stats();
    let stat = |name: &str| -> u64 { stats[name].parse().unwrap() };
    // One write, one pump: the lone `get rk` is a run of one, the last
    // three requests one run of 3 + 1 + 3 keys.
    assert_eq!((stat("multiget_batches"), stat("multiget_keys")), (1, 7));
    assert_eq!(stat("cmd_get"), 4, "cmd_get counts requests, not runs");
    assert_eq!((stat("get_hits"), stat("get_misses")), (6, 2));
    assert_eq!(stat("cmd_set"), 3);

    handle.shutdown();
}

#[test]
fn no_evict_mode_serves_large_values() {
    let handle = server::spawn(server::Config {
        port: 0,
        capacity: 1 << 12,
        workers: 1,
        no_evict: true,
        ..Default::default()
    })
    .expect("spawn");
    let mut client = Client::connect(handle.local_addr());
    // Far beyond the clock engine's inline-entry limit.
    let big = vec![b'x'; 64 * 1024];
    client.set("big", &big);
    assert_eq!(client.get("big"), Some(big));
    // The growing table reports its footprint too.
    let stats = client.stats();
    assert_eq!(stats["table_slots"], (1 << 12).to_string());
    assert!(stats["table_bytes"].parse::<u64>().unwrap() > 0);
    handle.shutdown();
}

/// `stats` reports the table's footprint: the clock engine's table is
/// its capacity rounded up to the bucket grid, with no headroom factor,
/// and a capacity at the grid holds 95 % of the slots.
#[test]
fn stats_report_table_footprint() {
    const CAPACITY: u64 = 1 << 21;
    let handle = server::spawn(server::Config {
        port: 0,
        capacity: CAPACITY as usize,
        workers: 1,
        ..Default::default()
    })
    .expect("spawn");
    let mut client = Client::connect(handle.local_addr());
    client.set("k", b"v");
    let stats = client.stats();
    let stat = |name: &str| -> u64 {
        stats.get(name).unwrap_or_else(|| panic!("no STAT {name}")).parse().unwrap()
    };
    assert_eq!(stat("table_slots"), CAPACITY);
    assert_eq!(stat("max_items"), CAPACITY * cache::MAX_LOAD_PERCENT as u64 / 100);
    // Every slot holds at least its 8-byte key hash.
    assert!(stat("table_bytes") > CAPACITY * 8, "table_bytes {}", stat("table_bytes"));
    handle.shutdown();
}
