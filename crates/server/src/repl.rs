//! Asynchronous primary→replica streaming over the memcached port.
//!
//! The wire protocol piggybacks on the ASCII command layer: a replica
//! connects like any client and sends `replicate <lsn>` (its highest
//! applied primary LSN, `0` for a fresh directory). The primary answers
//! one text line:
//!
//! ```text
//! OK full <S>\r\n    — table bootstrap follows, then the log above S
//! OK incr <C>\r\n    — the log above C follows (replica was current
//!                      enough that the live oplog still covers it)
//! ```
//!
//! after which the connection stops being request/response and becomes a
//! one-way stream of [`persist::record`] frames — the exact on-disk
//! format, CRCs and all, so the replica's decoder and its crash recovery
//! share one codec and one record type, [`persist::OpRef`]: the feeder
//! forwards log frames as read, and the applier applies and relogs each
//! op borrowed from its receive buffer. At EOF the feeder sleeps on the
//! commit queue until the writer writes more (within the group-commit
//! window). Idle feeds carry `Heartbeat` frames (wire-only, tag never
//! written to a log file) so the replica can compute lag.
//!
//! **Bootstrap correctness.** The feeder reads `S = last_lsn`, scans the
//! live table (non-blocking; a dirty pass is cut back off the send
//! buffer and retried), and encodes each entry straight from the table
//! as a `Set` record at LSN `S`. Because the store
//! applies to the map *before* appending to the log under the key's
//! write stripe, every op with LSN ≤ S is already reflected in (or
//! superseded within) that scan, and every op the scan raced with has
//! LSN > S and follows in the log stream — last-writer-wins replay
//! converges to the primary's table. The live `oplog` is pinned via
//! [`persist::Persister::pause_compaction`] only across the
//! read-S/open-file window, so compaction is never stalled by a slow
//! replica.
//!
//! **Lag and loss.** A feeder that falls so far behind that compaction
//! deletes log records it still needs (detected as an LSN gap after a
//! rotation) drops the connection; the replica reconnects and takes a
//! fresh bootstrap. Replication is asynchronous: an acknowledged write
//! can be lost on primary failure before it was streamed — the replica
//! converges to a *prefix* of the primary's history, never to an
//! invented state.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use persist::record::{self, Decoded, Payload};
use persist::snapshot::{self, Scan};
use persist::{OpRef, SetRef};

use crate::persist_store::PersistentStore;
use crate::store::{now_secs, Store};
use crate::ServerCtx;

/// Idle-feed keep-alive cadence; with the applier's read timeout, it
/// bounds how fast shutdown and promote are noticed.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);
const APPLIER_READ_TIMEOUT: Duration = Duration::from_millis(200);
/// Reconnect backoff after a lost primary.
const RECONNECT_DELAY: Duration = Duration::from_millis(200);

// ---------------------------------------------------------------------------
// Primary side: the feeder
// ---------------------------------------------------------------------------

/// Takes over a socket whose client sent `replicate <lsn>`; spawned by
/// the worker loop. `pending` is the tail of unflushed responses to
/// requests pipelined ahead of the handshake.
pub fn spawn_feeder(stream: TcpStream, pending: Vec<u8>, lsn: u64, ctx: Arc<ServerCtx>) {
    let _ = std::thread::Builder::new()
        .name("cuckood-feeder".into())
        .spawn(move || {
            let Some(store) = ctx.persist.clone() else {
                return; // execute() refuses `replicate` without a persister
            };
            // ORDERING: handoff.acqrel-rmw
            let n = ctx.feeders.fetch_add(1, Ordering::AcqRel) + 1;
            store.persister().metrics().replicas_connected.set(n);
            let r = feed(stream, pending, lsn, &store, &ctx);
            // ORDERING: handoff.acqrel-rmw
            let n = ctx.feeders.fetch_sub(1, Ordering::AcqRel) - 1;
            store.persister().metrics().replicas_connected.set(n);
            if let Err(e) = r {
                if e.kind() != ErrorKind::BrokenPipe && e.kind() != ErrorKind::ConnectionReset {
                    eprintln!("cuckood: replication feed ended: {e}");
                }
            }
        });
}

fn feed(
    mut stream: TcpStream,
    pending: Vec<u8>,
    req_lsn: u64,
    store: &PersistentStore,
    ctx: &ServerCtx,
) -> io::Result<()> {
    let p = store.persister();
    let m = Arc::clone(p.metrics());
    stream.set_nonblocking(false)?;
    stream.write_all(&pending)?;

    // Pin the live oplog while deciding what to stream, so it cannot be
    // rotated away between reading the watermarks and opening the file.
    // A rotation already under way when the pin lands moves the count
    // read here, and the tail below reopens the file.
    let pause = p.pause_compaction();
    let (mut rotations_seen, rotate_lsn) = p.queue().rotation();
    let last = p.last_lsn();
    // Incremental iff the live log still contains everything after the
    // replica's cursor.
    let incremental = req_lsn >= rotate_lsn && req_lsn <= last;
    let mut cursor = if incremental { req_lsn } else { last };
    let file = std::fs::File::open(p.oplog_path());
    drop(pause);

    let mut out = format!("OK {} {cursor}\r\n", if incremental { "incr" } else { "full" }).into_bytes();
    if !incremental {
        let scan = |f: &mut dyn FnMut(SetRef<'_>)| store.scan_entries(now_secs(), f);
        m.replication_records_sent.add(bootstrap(&scan, cursor, &mut out));
    }
    stream.write_all(&out)?;

    // Tail the log file, forwarding frames above the cursor.
    let mut file = match file {
        Ok(f) => f,
        // No oplog yet (fresh directory): open lazily below.
        Err(e) if e.kind() == ErrorKind::NotFound => {
            std::fs::File::open(p.oplog_path()).or_else(|_| {
                std::fs::OpenOptions::new().create(true).append(true).open(p.oplog_path())
            })?
        }
        Err(e) => return Err(e),
    };
    let mut carry: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut last_write = Instant::now();
    let mut first_after_reopen = false;

    loop {
        if ctx.draining() {
            return Ok(());
        }
        let n = file.read(&mut chunk)?;
        if n > 0 {
            carry.extend_from_slice(&chunk[..n]);
            out.clear();
            let mut pos = 0;
            let mut sent = 0u64;
            while pos < carry.len() {
                match record::decode(&carry[pos..]) {
                    Decoded::Frame { frame, consumed } => {
                        if first_after_reopen {
                            first_after_reopen = false;
                            if frame.lsn > cursor + 1 {
                                // Compaction deleted records this feed
                                // still needed; force a re-bootstrap.
                                return Err(io::Error::new(
                                    ErrorKind::UnexpectedEof,
                                    format!(
                                        "lag gap: log resumes at {} but replica is at {}",
                                        frame.lsn, cursor
                                    ),
                                ));
                            }
                        }
                        if frame.lsn > cursor {
                            out.extend_from_slice(&carry[pos..pos + consumed]);
                            cursor = frame.lsn;
                            sent += 1;
                        }
                        pos += consumed;
                    }
                    // A frame the writer is mid-write on; keep the tail.
                    Decoded::Incomplete | Decoded::Corrupt => break,
                }
            }
            carry.drain(..pos);
            if !out.is_empty() {
                stream.write_all(&out)?;
                last_write = Instant::now();
                m.replication_records_sent.add(sent);
            }
            m.replication_lag.set(p.last_lsn().saturating_sub(cursor));
            continue;
        }

        // EOF. Did the file rotate out from under the read position?
        let rotations = p.queue().rotation().0;
        if rotations != rotations_seen {
            if !carry.is_empty() {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    "rotated log ended in a partial frame",
                ));
            }
            rotations_seen = rotations;
            file = std::fs::File::open(p.oplog_path())?;
            first_after_reopen = true;
            continue;
        }
        if last_write.elapsed() >= HEARTBEAT_EVERY {
            out.clear();
            record::encode_heartbeat(p.last_lsn(), &mut out);
            stream.write_all(&out)?;
            last_write = Instant::now();
            m.replication_lag.set(p.last_lsn().saturating_sub(cursor));
        }
        // Sleep until the writer writes past the cursor or rotates, or
        // the next heartbeat is due.
        p.queue().wait_for_log(cursor, rotations_seen, Some(last_write + HEARTBEAT_EVERY));
    }
}

/// Appends one clean pass of `scan` to `out` as `Set` frames at `lsn`:
/// the table bootstrap. Returns the frames appended.
fn bootstrap(scan: &Scan<'_>, lsn: u64, out: &mut Vec<u8>) -> u64 {
    snapshot::encode_clean_pass(scan, out, |out, set| _ = record::encode_op(OpRef::Set(set), lsn, out))
}

// ---------------------------------------------------------------------------
// Replica side: the applier
// ---------------------------------------------------------------------------

/// Spawns the replica's applier thread: connect to the primary, apply
/// the stream, reconnect (with a fresh bootstrap if needed) until
/// shutdown or `promote`.
pub fn spawn_applier(primary: String, ctx: Arc<ServerCtx>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("cuckood-applier".into())
        .spawn(move || applier_loop(&primary, &ctx))
        .expect("spawn replication applier")
}

fn applier_loop(primary: &str, ctx: &ServerCtx) {
    let Some(store) = ctx.persist.clone() else {
        return; // spawn() rejects --replica-of without --data-dir
    };
    // Highest primary LSN applied this process lifetime. Deliberately
    // not persisted: local LSNs differ from the primary's, so a replica
    // restart takes a full bootstrap rather than guessing.
    let mut applied = 0u64;
    while !ctx.draining() && !ctx.is_promoted() {
        match TcpStream::connect(primary) {
            Ok(stream) => {
                if let Err(e) = apply_stream(stream, &mut applied, &store, ctx) {
                    if !ctx.draining() && !ctx.is_promoted() {
                        eprintln!("cuckood: replication stream lost: {e}");
                    }
                }
            }
            Err(e) => {
                eprintln!("cuckood: cannot reach primary {primary}: {e}");
            }
        }
        // Promote and shutdown are noticed after the backoff, as they
        // are after a read timeout while connected.
        std::thread::sleep(RECONNECT_DELAY);
    }
}

fn apply_stream(
    mut stream: TcpStream,
    applied: &mut u64,
    store: &PersistentStore,
    ctx: &ServerCtx,
) -> io::Result<()> {
    let m = Arc::clone(store.persister().metrics());
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(APPLIER_READ_TIMEOUT))?;
    stream.write_all(format!("replicate {applied}\r\n").as_bytes())?;

    let line = read_line(&mut stream, ctx)?;
    match parse_handshake(&line) {
        Some((true, _start)) => {
            // The bootstrap replaces the whole table: flush locally
            // (logged, so the replica's own recovery agrees) and rebuild
            // from the stream.
            store.apply_replicated(OpRef::FlushAll);
            *applied = 0;
        }
        Some((false, _start)) => {}
        None => {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("bad replication handshake: {}", String::from_utf8_lossy(&line)),
            ))
        }
    }

    let mut carry: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        if ctx.draining() || ctx.is_promoted() {
            return Ok(());
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        carry.extend_from_slice(&chunk[..n]);
        let mut pos = 0;
        while pos < carry.len() {
            match record::decode(&carry[pos..]) {
                Decoded::Frame { frame, consumed } => {
                    pos += consumed;
                    match frame.payload {
                        Payload::Heartbeat { last_lsn } => {
                            m.replication_lag.set(last_lsn.saturating_sub(*applied));
                        }
                        Payload::Op(op) => {
                            // Re-check per frame: once promoted, even
                            // records already in flight must not land.
                            if ctx.draining() || ctx.is_promoted() {
                                return Ok(());
                            }
                            store.apply_replicated(op);
                            *applied = (*applied).max(frame.lsn);
                            m.replication_records_applied.inc();
                        }
                    }
                }
                Decoded::Incomplete => break,
                Decoded::Corrupt => {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        "corrupt frame on replication stream",
                    ))
                }
            }
        }
        carry.drain(..pos);
    }
}

/// Reads one `\n`-terminated handshake line (byte-at-a-time: it is a
/// dozen bytes, once per connection).
fn read_line(stream: &mut TcpStream, ctx: &ServerCtx) -> io::Result<Vec<u8>> {
    let mut line = Vec::new();
    let mut b = [0u8; 1];
    loop {
        if ctx.draining() || ctx.is_promoted() {
            return Err(ErrorKind::Interrupted.into());
        }
        match stream.read(&mut b) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(_) => {
                if b[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(line);
                }
                if line.len() > 128 {
                    return Err(io::Error::new(ErrorKind::InvalidData, "handshake too long"));
                }
                line.push(b[0]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Parses `OK full <lsn>` / `OK incr <lsn>` → `(is_full, lsn)`.
fn parse_handshake(line: &[u8]) -> Option<(bool, u64)> {
    let s = std::str::from_utf8(line).ok()?;
    let mut it = s.split_ascii_whitespace();
    if it.next()? != "OK" {
        return None;
    }
    let full = match it.next()? {
        "full" => true,
        "incr" => false,
        _ => return None,
    };
    let lsn: u64 = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some((full, lsn))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_parses() {
        assert_eq!(parse_handshake(b"OK full 17"), Some((true, 17)));
        assert_eq!(parse_handshake(b"OK incr 0"), Some((false, 0)));
        assert_eq!(parse_handshake(b"OK sideways 3"), None);
        assert_eq!(parse_handshake(b"ERROR"), None);
        assert_eq!(parse_handshake(b"OK full x"), None);
        assert_eq!(parse_handshake(b"OK full 1 2"), None);
    }

    /// A bootstrap scan pass that reports dirty is cut back off the
    /// stream, the handshake line before it kept: what follows is
    /// byte-identical to one clean pass's, every entry once, as `Set`
    /// frames at the handshake LSN.
    #[test]
    fn a_dirty_bootstrap_pass_is_discarded_whole() {
        let keys: Vec<Vec<u8>> = (0..30).map(|i| format!("k{i}").into_bytes()).collect();
        let set = |key| SetRef { key, flags: 1, expires_at: 0, cas: 9, value: b"v" };
        let clean = |f: &mut dyn FnMut(SetRef<'_>)| {
            keys.iter().for_each(|k| f(set(k)));
            true
        };
        let passes = std::cell::Cell::new(0);
        let flaky = |f: &mut dyn FnMut(SetRef<'_>)| {
            passes.set(passes.get() + 1);
            if passes.get() > 1 {
                return clean(f);
            }
            keys[..11].iter().for_each(|k| f(set(k)));
            false
        };
        let handshake = b"OK full 17\r\n";
        let (mut want, mut got) = (handshake.to_vec(), handshake.to_vec());
        assert_eq!(bootstrap(&clean, 17, &mut want), 30);
        assert_eq!(bootstrap(&flaky, 17, &mut got), 30);
        assert_eq!(passes.get(), 2, "the dirty pass must be retried once");
        assert_eq!(got, want);

        let mut frames = Vec::new();
        let valid = record::decode_each(&got[handshake.len()..], |f| {
            frames.push(f);
            Ok(())
        });
        assert_eq!(valid.unwrap(), got.len() - handshake.len());
        let sets: Vec<_> = keys.iter().map(|k| record::Frame { lsn: 17, payload: Payload::Op(OpRef::Set(set(k))) }).collect();
        assert_eq!(frames, sets);
    }
}
