//! TCP client driver: load generation against a memcached-ASCII server.
//!
//! The paper evaluates its table inside a full network stack (MemC3
//! serving memcached traffic); this module is the client half for the
//! `cuckood` server in `crates/server`. It reuses the same deterministic
//! key machinery as the in-process driver — [`crate::keygen`] streams and
//! [`crate::zipf`] popularity — but issues real protocol bytes over a
//! pool of TCP connections.
//!
//! Throughput methodology: requests are **pipelined** — each client
//! thread writes a batch of `pipeline_depth` requests before reading the
//! batch's replies, amortizing per-syscall and per-RTT costs exactly the
//! way memcached benchmarks (mc-crusher, memtier) do. Batch round-trip
//! times land in a [`LatencyHistogram`]; divide by the depth for a
//! per-op approximation.
//!
//! This is deliberately client-side-only code: the server crate depends
//! on `workload` for histograms, so this module re-implements the small
//! client half of the wire protocol (request lines out, reply lines in)
//! rather than importing the server's parser.

use crate::keygen::{key_of, SplitMix64};
use crate::zipf::Zipf;
use metrics::latency::LatencyHistogram;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What one benchmark run should do.
#[derive(Debug, Clone)]
pub struct NetSpec {
    /// Server address, e.g. `127.0.0.1:11211`.
    pub addr: String,
    /// Client threads; each owns `connections / threads` sockets.
    pub threads: usize,
    /// Total TCP connections across all threads.
    pub connections: usize,
    /// Requests written per batch before replies are read.
    pub pipeline_depth: usize,
    /// Distinct keys addressed by the run.
    pub keyspace: u64,
    /// Zipf exponent for key popularity; `0.0` means uniform.
    pub zipf_s: f64,
    /// Percentage of operations that are `get`s (the rest are `set`s).
    pub read_pct: u8,
    /// Value payload length for `set`s.
    pub value_len: usize,
    /// Total operations across all threads (excluding prefill).
    pub total_ops: u64,
    /// `set` the whole keyspace once before the timed phase.
    pub prefill: bool,
}

impl Default for NetSpec {
    fn default() -> Self {
        NetSpec {
            addr: String::new(),
            threads: 4,
            connections: 8,
            pipeline_depth: 16,
            keyspace: 100_000,
            zipf_s: 0.99,
            read_pct: 90,
            value_len: 32,
            total_ops: 400_000,
            prefill: true,
        }
    }
}

/// Aggregated outcome of a run.
#[derive(Debug, Default)]
pub struct NetReport {
    /// Operations completed (replies received and classified).
    pub ops: u64,
    pub gets: u64,
    /// `get`s that returned a value.
    pub hits: u64,
    pub sets: u64,
    /// `ERROR`/`CLIENT_ERROR`/`SERVER_ERROR` replies.
    pub errors: u64,
    /// Timed-phase wall time.
    pub elapsed: Duration,
    /// Batch (pipeline) round-trip times, in nanoseconds.
    pub batch_rtt: LatencyHistogram,
}

impl NetReport {
    /// Millions of operations per second over the timed phase.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Maps a key rank to its 17-byte wire form (`k` + 16 hex digits). Ranks
/// are scrambled so rank adjacency (hot Zipf ranks) doesn't translate
/// into byte-prefix adjacency.
fn write_key(out: &mut Vec<u8>, rank: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let k = key_of(0, rank);
    out.push(b'k');
    for i in (0..16).rev() {
        out.push(HEX[((k >> (i * 4)) & 0xf) as usize]);
    }
}

/// One client connection with its reply-side read buffer.
struct ClientConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Consumed prefix of `rbuf`.
    rpos: usize,
}

/// What reply the next unanswered request expects.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// `VALUE ... END` or bare `END`.
    Get,
    /// A single status line (`STORED`, `NOT_STORED`, ...).
    Line,
}

impl ClientConn {
    fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ClientConn { stream, rbuf: Vec::with_capacity(64 * 1024), rpos: 0 })
    }

    /// Returns the next complete `\r\n`- (or `\n`-) terminated line,
    /// reading from the socket as needed.
    fn read_line(&mut self) -> io::Result<std::ops::Range<usize>> {
        loop {
            if let Some(nl) = self.rbuf[self.rpos..].iter().position(|&b| b == b'\n') {
                let start = self.rpos;
                let mut end = self.rpos + nl;
                if end > start && self.rbuf[end - 1] == b'\r' {
                    end -= 1;
                }
                self.rpos += nl + 1;
                return Ok(start..end);
            }
            self.fill()?;
        }
    }

    /// Skips `n` payload bytes plus the trailing `\r\n`.
    fn skip_data(&mut self, n: usize) -> io::Result<()> {
        while self.rbuf.len() - self.rpos < n + 2 {
            self.fill()?;
        }
        self.rpos += n + 2;
        Ok(())
    }

    fn fill(&mut self) -> io::Result<()> {
        // Compact before growing: replies are consumed in lockstep with
        // batches, so the buffer stays small.
        if self.rpos > 0 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-reply",
            ));
        }
        self.rbuf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Reads and classifies one reply. Returns `(was_hit, was_error)`.
    fn read_reply(&mut self, pending: Pending) -> io::Result<(bool, bool)> {
        match pending {
            Pending::Line => {
                let r = self.read_line()?;
                let line = &self.rbuf[r];
                let err = line.starts_with(b"ERROR")
                    || line.starts_with(b"CLIENT_ERROR")
                    || line.starts_with(b"SERVER_ERROR");
                Ok((false, err))
            }
            Pending::Get => {
                let mut hit = false;
                loop {
                    let r = self.read_line()?;
                    let line = self.rbuf[r].to_vec();
                    if line.starts_with(b"END") {
                        return Ok((hit, false));
                    }
                    if line.starts_with(b"VALUE ") {
                        hit = true;
                        // VALUE <key> <flags> <bytes> [cas]
                        let bytes: usize = line
                            .split(|&b| b == b' ')
                            .nth(3)
                            .and_then(|t| std::str::from_utf8(t).ok())
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| {
                                io::Error::new(io::ErrorKind::InvalidData, "bad VALUE header")
                            })?;
                        self.skip_data(bytes)?;
                    } else {
                        return Ok((hit, true));
                    }
                }
            }
        }
    }
}

/// Per-thread slice of the run.
struct ThreadTally {
    ops: u64,
    gets: u64,
    hits: u64,
    sets: u64,
    errors: u64,
}

/// `set`s every key in `0..keyspace` once, pipelined over one connection.
pub fn prefill(addr: &str, keyspace: u64, value_len: usize) -> io::Result<()> {
    let mut conn = ClientConn::connect(addr)?;
    let payload = vec![b'v'; value_len];
    let mut wbuf = Vec::with_capacity(64 * 1024);
    let mut outstanding = 0usize;
    for rank in 0..keyspace {
        wbuf.extend_from_slice(b"set ");
        write_key(&mut wbuf, rank);
        wbuf.extend_from_slice(format!(" 0 0 {}\r\n", value_len).as_bytes());
        wbuf.extend_from_slice(&payload);
        wbuf.extend_from_slice(b"\r\n");
        outstanding += 1;
        if outstanding == 64 || rank + 1 == keyspace {
            conn.stream.write_all(&wbuf)?;
            wbuf.clear();
            for _ in 0..outstanding {
                conn.read_reply(Pending::Line)?;
            }
            outstanding = 0;
        }
    }
    Ok(())
}

/// Runs the workload and returns the aggregated report.
///
/// # Errors
///
/// Fails when a connection cannot be established or a reply cannot be
/// read; partial work is discarded.
pub fn run(spec: &NetSpec) -> io::Result<NetReport> {
    assert!(spec.threads > 0 && spec.connections > 0 && spec.pipeline_depth > 0);
    assert!(spec.keyspace > 0, "empty keyspace");
    if spec.prefill {
        prefill(&spec.addr, spec.keyspace, spec.value_len)?;
    }
    let report = std::sync::Mutex::new(NetReport::default());
    let failure = std::sync::Mutex::new(None::<io::Error>);
    let ops_done = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..spec.threads {
            let report = &report;
            let failure = &failure;
            let ops_done = &ops_done;
            s.spawn(move || {
                if let Err(e) = client_thread(spec, t as u64, ops_done, report) {
                    failure.lock().unwrap().get_or_insert(e);
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().unwrap() {
        return Err(e);
    }
    let mut report = report.into_inner().unwrap();
    report.elapsed = started.elapsed();
    Ok(report)
}

fn client_thread(
    spec: &NetSpec,
    thread: u64,
    ops_done: &AtomicU64,
    report: &std::sync::Mutex<NetReport>,
) -> io::Result<()> {
    let conns_here = (spec.connections / spec.threads).max(1);
    let mut conns: Vec<ClientConn> = (0..conns_here)
        .map(|_| ClientConn::connect(&spec.addr))
        .collect::<io::Result<_>>()?;
    let mut rng = SplitMix64::new(0xc0ffee ^ (thread << 32));
    let zipf = (spec.zipf_s > 0.0).then(|| Zipf::new(spec.keyspace, spec.zipf_s));
    let payload = vec![b'v'; spec.value_len];
    let rtt = LatencyHistogram::new();
    let mut tally = ThreadTally { ops: 0, gets: 0, hits: 0, sets: 0, errors: 0 };
    let mut wbuf = Vec::with_capacity(64 * 1024);
    let mut pendings = Vec::with_capacity(spec.pipeline_depth);
    let mut conn_ix = 0usize;

    // Claim work in batch-sized chunks from the shared budget so threads
    // finish together even when unevenly scheduled; the claim windows
    // partition the budget, so the batch sizes sum to exactly total_ops.
    loop {
        let prev = ops_done.fetch_add(spec.pipeline_depth as u64, Ordering::Relaxed); // ORDERING: alloc.unique-id
        if prev >= spec.total_ops {
            break;
        }
        let batch = spec.pipeline_depth.min((spec.total_ops - prev) as usize);
        wbuf.clear();
        pendings.clear();
        for _ in 0..batch {
            let rank = match &zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.below(spec.keyspace),
            };
            if rng.below(100) < spec.read_pct as u64 {
                wbuf.extend_from_slice(b"get ");
                write_key(&mut wbuf, rank);
                wbuf.extend_from_slice(b"\r\n");
                pendings.push(Pending::Get);
                tally.gets += 1;
            } else {
                wbuf.extend_from_slice(b"set ");
                write_key(&mut wbuf, rank);
                wbuf.extend_from_slice(format!(" 0 0 {}\r\n", spec.value_len).as_bytes());
                wbuf.extend_from_slice(&payload);
                wbuf.extend_from_slice(b"\r\n");
                pendings.push(Pending::Line);
                tally.sets += 1;
            }
        }
        let n_conns = conns.len();
        let conn = &mut conns[conn_ix];
        conn_ix = (conn_ix + 1) % n_conns;
        let t0 = Instant::now();
        conn.stream.write_all(&wbuf)?;
        for &p in &pendings {
            let (hit, err) = conn.read_reply(p)?;
            tally.ops += 1;
            tally.hits += hit as u64;
            tally.errors += err as u64;
        }
        rtt.record(t0.elapsed().as_nanos() as u64);
    }

    let mut agg = report.lock().unwrap();
    agg.ops += tally.ops;
    agg.gets += tally.gets;
    agg.hits += tally.hits;
    agg.sets += tally.sets;
    agg.errors += tally.errors;
    agg.batch_rtt.merge(&rtt);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A minimal in-test memcached responder: answers `get` with a miss
    /// (or a hit for keys it has seen `set`), `set` with STORED.
    fn tiny_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut store = std::collections::HashMap::<String, Vec<u8>>::new();
            // One connection is enough for the unit test.
            if let Ok((stream, _)) = listener.accept() {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break;
                    }
                    let toks: Vec<&str> = line.split_whitespace().collect();
                    match toks.first().copied() {
                        Some("set") => {
                            let n: usize = toks[4].parse().unwrap();
                            let mut data = vec![0u8; n + 2];
                            reader.read_exact(&mut data).unwrap();
                            data.truncate(n);
                            store.insert(toks[1].to_string(), data);
                            stream.write_all(b"STORED\r\n").unwrap();
                        }
                        Some("get") => {
                            if let Some(v) = store.get(toks[1]) {
                                stream
                                    .write_all(
                                        format!("VALUE {} 0 {}\r\n", toks[1], v.len()).as_bytes(),
                                    )
                                    .unwrap();
                                stream.write_all(v).unwrap();
                                stream.write_all(b"\r\n").unwrap();
                            }
                            stream.write_all(b"END\r\n").unwrap();
                        }
                        _ => stream.write_all(b"ERROR\r\n").unwrap(),
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn driver_round_trips_against_a_tiny_server() {
        let (addr, handle) = tiny_server();
        let spec = NetSpec {
            addr: addr.to_string(),
            threads: 1,
            connections: 1,
            pipeline_depth: 4,
            keyspace: 64,
            zipf_s: 0.0,
            read_pct: 50,
            value_len: 8,
            total_ops: 200,
            prefill: false,
        };
        let report = run(&spec).unwrap();
        assert_eq!(report.ops, 200);
        assert_eq!(report.gets + report.sets, 200);
        assert_eq!(report.errors, 0);
        assert!(!report.batch_rtt.is_empty());
        assert!(report.mops() > 0.0);
        drop(report);
        handle.join().unwrap();
    }

    #[test]
    fn key_encoding_is_deterministic_and_distinct() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_key(&mut a, 1);
        write_key(&mut b, 2);
        assert_ne!(a, b);
        assert_eq!(a.len(), 17);
        let mut a2 = Vec::new();
        write_key(&mut a2, 1);
        assert_eq!(a, a2);
    }
}
