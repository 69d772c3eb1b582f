//! Per-connection state machine: reused buffers, incremental parsing,
//! request execution, and write flushing over a nonblocking socket.
//!
//! Each connection owns a receive buffer and a response buffer that
//! persist across requests (allocation amortizes to zero on a busy
//! connection). A `pump` cycle reads whatever the socket has, parses and
//! executes every complete request in the buffer (responses accumulate
//! in the write buffer — pipelined clients get pipelined replies), then
//! flushes as much of the write buffer as the socket accepts.
//!
//! Adjacent reads, and adjacent storage commands, that share the receive
//! buffer execute as one batched store call (see [`execute`]); a hit is
//! encoded from the table's validated copy straight into `wbuf`.

// ORDERING-FILE: stats.counter — protocol-error tallies only.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::proto::{self, Parsed, Request};
use crate::stats::OpClass;
use crate::store::{StoreCmd, StoreOutcome};
use crate::ServerCtx;

/// Room a read asks the socket to fill at least; also the growth step
/// for the receive buffer.
const READ_CHUNK: usize = 16 * 1024;
/// Above this, an idle connection's buffers are shrunk back.
const BUFFER_KEEP: usize = 64 * 1024;

/// What `pump` tells the worker about the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpResult {
    /// Still open; `true` if any bytes moved or requests ran.
    Open { progress: bool },
    /// Closed (quit, EOF, fatal protocol error, or I/O error).
    Closed,
    /// The client sent `replicate <lsn>`: stop pumping and hand the
    /// socket to a replication feeder thread
    /// (see [`Conn::handoff_parts`]).
    Replicate { lsn: u64 },
}

pub struct Conn {
    stream: TcpStream,
    /// Received bytes, then zeroed room for the next read. Zeroed only
    /// as it grows, so a read pays no memset.
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` received and not yet consumed.
    filled: usize,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written to the socket.
    wpos: usize,
    /// Stop reading; flush what is queued, then close.
    closing: bool,
    /// Set when a `replicate` command asks for a feeder handoff.
    handoff: Option<u64>,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Self {
        Conn { stream, rbuf: Vec::new(), filled: 0, wbuf: Vec::new(), wpos: 0, closing: false, handoff: None }
    }

    /// Duplicates the socket and takes the unflushed response bytes so a
    /// feeder thread can own the connection from here on (responses to
    /// requests pipelined ahead of `replicate` flush first, then the
    /// stream turns into a one-way record feed). The `Conn` itself
    /// should be dropped afterwards.
    pub fn handoff_parts(&mut self) -> std::io::Result<(TcpStream, Vec<u8>)> {
        let stream = self.stream.try_clone()?;
        let pending = self.wbuf[self.wpos..].to_vec();
        self.wbuf.clear();
        self.wpos = 0;
        Ok((stream, pending))
    }

    /// One service cycle. Never blocks.
    pub fn pump(&mut self, ctx: &ServerCtx) -> PumpResult {
        let mut progress = false;

        if !self.closing {
            match self.fill() {
                Ok(n) => progress |= n > 0,
                Err(FillEnd::Eof) => self.closing = true,
                Err(FillEnd::Fatal) => return PumpResult::Closed,
            }
            progress |= self.drain_requests(ctx);
            if let Some(lsn) = self.handoff.take() {
                return PumpResult::Replicate { lsn };
            }
        }

        match self.flush() {
            Ok(n) => progress |= n > 0,
            Err(()) => return PumpResult::Closed,
        }

        if self.closing && self.wpos == self.wbuf.len() {
            return PumpResult::Closed;
        }
        if !progress {
            self.maybe_shrink();
        }
        PumpResult::Open { progress }
    }

    /// Marks the connection for graceful shutdown: already-buffered
    /// requests still execute on the next pump, queued responses flush,
    /// then the socket closes.
    pub fn begin_drain(&mut self, ctx: &ServerCtx) {
        if !self.closing {
            // Serve what the client already sent before going away.
            self.drain_requests(ctx);
            self.closing = true;
        }
    }

    /// Reads until the socket has no more for now: a read that fills
    /// less than the room it was given, `WouldBlock`, or EOF. Bytes that
    /// arrive later are read on the next pump, since the worker pumps
    /// again while there is progress. Returns bytes read.
    fn fill(&mut self) -> Result<usize, FillEnd> {
        let mut total = 0;
        loop {
            if self.rbuf.len() < self.filled + READ_CHUNK {
                self.rbuf.resize(self.filled + READ_CHUNK, 0);
            }
            let room = self.rbuf.len() - self.filled;
            match self.stream.read(&mut self.rbuf[self.filled..]) {
                Ok(0) => return if total > 0 { Ok(total) } else { Err(FillEnd::Eof) },
                Ok(n) => {
                    self.filled += n;
                    total += n;
                    // Don't let one firehose connection starve the rest of
                    // the worker's shard.
                    if n < room || total >= 4 * READ_CHUNK {
                        return Ok(total);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(total),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(FillEnd::Fatal),
            }
        }
    }

    /// Parses and executes every complete request in `rbuf`. Returns
    /// whether any request was handled.
    ///
    /// Bursts coalesce (see [`execute`]): adjacent `get`/`gets` requests
    /// already sitting in the buffer run as one batched store read,
    /// adjacent `set`/`add`/`replace` as one batched store write.
    fn drain_requests(&mut self, ctx: &ServerCtx) -> bool {
        let mut requests = Requests { buf: &self.rbuf[..self.filled], consumed: 0, ahead: None };
        let mut any = false;
        while !self.closing && self.handoff.is_none() {
            match requests.next() {
                Parsed::Ok { request, .. } => {
                    any = true;
                    match execute(request, &mut requests, ctx, &mut self.wbuf) {
                        Action::Continue => {}
                        Action::Quit => self.closing = true,
                        Action::Replicate { lsn } => self.handoff = Some(lsn),
                    }
                }
                Parsed::Incomplete => break,
                Parsed::Err(e) => {
                    ctx.stats.protocol_errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    e.encode(&mut self.wbuf);
                    match e.recover_by {
                        Some(skip) => requests.consumed += skip,
                        None => self.closing = true,
                    }
                    any = true;
                }
            }
        }
        let consumed = requests.consumed;
        if consumed > 0 {
            self.rbuf.copy_within(consumed..self.filled, 0);
            self.filled -= consumed;
        }
        any
    }

    /// Writes as much queued response data as the socket accepts.
    fn flush(&mut self) -> Result<usize, ()> {
        let mut total = 0;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.wpos += n;
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        if self.wpos == self.wbuf.len() && self.wpos > 0 {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(total)
    }

    /// Returns oversized buffers to a sane footprint once idle.
    fn maybe_shrink(&mut self) {
        if self.rbuf.capacity() > BUFFER_KEEP && self.filled < BUFFER_KEEP / 2 {
            self.rbuf.truncate(BUFFER_KEEP);
            self.rbuf.shrink_to(BUFFER_KEEP);
        }
        if self.wbuf.capacity() > BUFFER_KEEP && self.wbuf.len() - self.wpos < BUFFER_KEEP / 2 {
            let pending: Vec<u8> = self.wbuf[self.wpos..].to_vec();
            self.wbuf = pending;
            self.wpos = 0;
        }
    }
}

enum FillEnd {
    Eof,
    Fatal,
}

/// What [`execute`] asks the connection to do next.
enum Action {
    Continue,
    /// `quit`: flush and close.
    Quit,
    /// `replicate <lsn>`: hand the socket to a feeder thread.
    Replicate { lsn: u64 },
}

/// The unexecuted part of the receive buffer, and at most one parse
/// made ahead of need: a burst's look-ahead ends on the first thing
/// that does not extend the burst, and that parse is handed to the
/// next [`next`](Self::next) instead of being made a second time.
struct Requests<'a> {
    buf: &'a [u8],
    /// Bytes of `buf` whose requests have been taken.
    consumed: usize,
    ahead: Option<Parsed<'a>>,
}

impl<'a> Requests<'a> {
    /// Takes the next request (or what stands in its place).
    fn next(&mut self) -> Parsed<'a> {
        let parsed = self.ahead.take().unwrap_or_else(|| proto::parse(&self.buf[self.consumed..]));
        if let Parsed::Ok { consumed, .. } = &parsed {
            self.consumed += consumed;
        }
        parsed
    }

    /// Collects a burst: offers each complete request that follows to
    /// `extend`, which keeps it (`None`) or hands it back and ends the
    /// run, as an incomplete tail or a protocol error does.
    fn extend_run(&mut self, mut extend: impl FnMut(Request<'a>) -> Option<Request<'a>>) {
        while self.ahead.is_none() {
            match proto::parse(&self.buf[self.consumed..]) {
                Parsed::Ok { request, consumed } => match extend(request) {
                    None => self.consumed += consumed,
                    Some(request) => self.ahead = Some(Parsed::Ok { request, consumed }),
                },
                end => self.ahead = Some(end),
            }
        }
    }
}

/// Executes one request — or, for a read or a storage command, the
/// whole burst that `req` begins — appending the responses to `out`.
///
/// A burst is what a pipelining client leaves in the receive buffer: a
/// maximal run of adjacent complete `get`/`gets` requests executes as
/// one [`Store::read_many`](crate::store::Store::read_many), a run of
/// `set`/`add`/`replace` as one
/// [`Store::write_many`](crate::store::Store::write_many), with one
/// clock reading, so the backend's pipelined table paths overlap the
/// run's cache misses. A lone request is a run of one through the same
/// code. Replies are encoded per request, in order, honoring each
/// command's own `noreply`: the reply stream is byte-identical to
/// executing the requests one at a time, and as a run never reaches
/// across a request of another kind, every read still follows every
/// write that precedes it on the connection.
fn execute<'a>(
    req: Request<'a>,
    requests: &mut Requests<'a>,
    ctx: &ServerCtx,
    out: &mut Vec<u8>,
) -> Action {
    // A replica refuses client mutations until promoted; replicated ops
    // arrive through the applier, not this path. (With `noreply` the
    // refusal is silent — the reply stream must stay in sync.)
    if ctx.is_read_only() {
        let refused = match &req {
            Request::Store { noreply, .. }
            | Request::Delete { noreply, .. }
            | Request::FlushAll { noreply, .. } => Some(*noreply),
            _ => None,
        };
        if let Some(noreply) = refused {
            if !noreply {
                proto::encode_line(out, "SERVER_ERROR replica is read-only");
            }
            return Action::Continue;
        }
    }
    let t0 = Instant::now();
    // Requests this call serves: more than one only for a burst.
    let mut served = 1;
    let class = match req {
        Request::Get { mut keys, with_cas } => {
            // Per request of the run: where its keys end in `keys`, and
            // whether it is a `gets`.
            let mut gets = vec![(keys.len(), with_cas)];
            requests.extend_run(|req| match req {
                Request::Get { keys: more, with_cas } => {
                    keys.extend(more);
                    gets.push((keys.len(), with_cas));
                    None
                }
                other => Some(other),
            });
            if keys.len() > 1 {
                ctx.stats.record_multiget(keys.len());
            }
            // The store shows each key's item once, in order, and it is
            // encoded from there straight into `out`: a miss emits no
            // `VALUE` stanza, a request's last key is followed by `END`.
            let mut request = 0;
            ctx.store.read_many(&keys, crate::store::now_secs(), &mut |i, item| {
                let (end, with_cas) = gets[request];
                if let Some(item) = item {
                    let cas = with_cas.then_some(item.cas);
                    proto::encode_value(out, keys[i], item.flags, item.data, cas);
                }
                if i + 1 == end {
                    proto::encode_end(out);
                    request += 1;
                }
            });
            served = gets.len();
            OpClass::Get
        }
        Request::Store { verb, key, flags, exptime, data, noreply } => {
            let mut cmds = vec![StoreCmd { verb, key, flags, exptime, data }];
            let mut replies = vec![!noreply];
            requests.extend_run(|req| match req {
                Request::Store { verb, key, flags, exptime, data, noreply } => {
                    cmds.push(StoreCmd { verb, key, flags, exptime, data });
                    replies.push(!noreply);
                    None
                }
                other => Some(other),
            });
            if cmds.len() > 1 {
                ctx.stats.record_multiset(cmds.len());
            }
            ctx.store.write_many(&cmds, crate::store::now_secs(), &mut |i, outcome| {
                if outcome == StoreOutcome::TooLarge {
                    ctx.stats.too_large.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                if replies[i] {
                    proto::encode_line(
                        out,
                        match outcome {
                            StoreOutcome::Stored { .. } => "STORED",
                            StoreOutcome::NotStored => "NOT_STORED",
                            StoreOutcome::TooLarge => "SERVER_ERROR object too large for cache",
                        },
                    );
                }
            });
            served = cmds.len();
            OpClass::Store
        }
        Request::Delete { key, noreply } => {
            let deleted = ctx.store.delete(key);
            if !noreply {
                proto::encode_line(out, if deleted { "DELETED" } else { "NOT_FOUND" });
            }
            OpClass::Delete
        }
        Request::Stats { arg } => {
            match arg {
                proto::StatsArg::General => {
                    ctx.stats.encode(out, ctx.store.as_ref(), ctx.workers);
                    proto::encode_end(out);
                }
                proto::StatsArg::Cuckoo => {
                    let mut samples = Vec::new();
                    ctx.store.metrics(&mut samples);
                    metrics::render_stat_lines(&samples, out);
                    proto::encode_end(out);
                }
                proto::StatsArg::Prometheus => {
                    // Prometheus text exposition, still END-terminated so
                    // ASCII-protocol clients know where the body stops
                    // (scrapers strip the last line: `... | sed '$d'`).
                    let mut samples = Vec::new();
                    ctx.store.metrics(&mut samples);
                    metrics::render_prometheus(&samples, out);
                    proto::encode_end(out);
                }
                proto::StatsArg::Reset => {
                    ctx.stats.reset();
                    ctx.store.metrics_reset();
                    proto::encode_line(out, "RESET");
                }
                proto::StatsArg::Slabs => {
                    crate::stats::encode_slabs(out, &ctx.store.slab_classes());
                    proto::encode_end(out);
                }
            }
            OpClass::Other
        }
        Request::FlushAll { delay, noreply } => {
            if delay != 0 {
                // A delayed flush is a timer, not an op — it cannot be
                // replayed deterministically from the log, so it is
                // refused rather than approximated.
                if !noreply {
                    proto::encode_line(out, "SERVER_ERROR delayed flush_all is not supported");
                }
            } else {
                ctx.store.flush_all();
                if !noreply {
                    proto::encode_line(out, "OK");
                }
            }
            OpClass::Other
        }
        Request::Replicate { lsn } => {
            if ctx.persist.is_none() {
                proto::encode_line(out, "SERVER_ERROR replication requires --data-dir");
                OpClass::Other
            } else {
                // The feeder thread writes the handshake reply; nothing
                // is encoded here.
                return Action::Replicate { lsn };
            }
        }
        Request::Promote => {
            proto::encode_line(
                out,
                if ctx.promote() { "OK" } else { "SERVER_ERROR not a replica" },
            );
            OpClass::Other
        }
        Request::Version => {
            proto::encode_line(out, &format!("VERSION {}", crate::VERSION));
            OpClass::Other
        }
        Request::Quit => return Action::Quit,
    };
    ctx.stats.record_served(class, t0, served);
    Action::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    /// A `set` whose data block spans three read chunks arrives over
    /// several reads and pumps, some of them short, and reads back whole.
    #[test]
    fn a_set_of_three_read_chunks_round_trips() {
        let handle = crate::spawn(crate::Config {
            port: 0,
            capacity: 1 << 10,
            workers: 1,
            no_evict: true,
            ..Default::default()
        })
        .expect("spawn");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        client.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(served);

        let value: Vec<u8> = (0..3 * READ_CHUNK).map(|i| (i % 251) as u8).collect();
        let mut request = format!("set big 0 0 {}\r\n", value.len()).into_bytes();
        request.extend_from_slice(&value);
        request.extend_from_slice(b"\r\nget big\r\n");
        let mut expected = format!("STORED\r\nVALUE big 0 {}\r\n", value.len()).into_bytes();
        expected.extend_from_slice(&value);
        expected.extend_from_slice(b"\r\nEND\r\n");

        let (mut sent, mut replies) = (0, Vec::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        while replies.len() < expected.len() {
            assert!(Instant::now() < deadline, "{} of {} reply bytes", replies.len(), expected.len());
            match client.write(&request[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("client write: {e}"),
            }
            assert!(matches!(conn.pump(handle.ctx()), PumpResult::Open { .. }));
            let mut chunk = [0u8; 4096];
            match client.read(&mut chunk) {
                Ok(0) => panic!("server side closed the connection"),
                Ok(n) => replies.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("client read: {e}"),
            }
        }
        assert!(replies == expected, "the value came back changed");
        assert_eq!(conn.filled, 0, "every received byte was consumed");
        handle.shutdown();
    }
}
