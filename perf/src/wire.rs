//! The memcached-ASCII client: pipelined connections that send the
//! generated requests and check every reply against what the generator
//! says it must be.

use crate::child::HANG_LIMIT;
use crate::gen::{key_bytes, value_bytes, ConnGen, Expect, OpKind, Poisson};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Operations whose reply was right, and wrong (error reply,
/// `NOT_STORED`, wrong or missing value, unexpected hit).
#[derive(Default, Clone, Copy)]
pub struct Counts {
    pub ok: u64,
    pub failed: u64,
}

/// One connection. The socket never blocks: the one client thread spins
/// over its connections, so that no wake-up of its own is in a latency
/// and a slow server cannot put it to sleep.
pub struct Client {
    stream: TcpStream,
    pub gen: ConnGen,
    wbuf: Vec<u8>,
    /// Received bytes live in `rbuf[rpos..rend]`.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// Requests awaiting a reply, with the instant latency counts from.
    inflight: VecDeque<(Expect, Instant)>,
    scratch: Vec<u8>,
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

fn hung(what: &str) -> String {
    format!("{what}: server did not answer within {HANG_LIMIT:?}")
}

/// One CRLF-terminated line at the front of `buf`, and its length with
/// the terminator.
fn line(buf: &[u8]) -> Option<(&[u8], usize)> {
    let nl = buf.iter().position(|&b| b == b'\n')?;
    Some((buf[..nl].strip_suffix(b"\r").unwrap_or(&buf[..nl]), nl + 1))
}

/// Parses the reply to `e` at the front of `buf` if it has fully
/// arrived: whether it is the right reply, and its length. `want` is
/// scratch space.
pub fn parse_reply(
    buf: &[u8],
    e: Expect,
    value_len: usize,
    want: &mut Vec<u8>,
) -> Option<(bool, usize)> {
    let (head, used) = line(buf)?;
    match e.kind {
        OpKind::Set => Some((head == b"STORED", used)),
        OpKind::Get if head.starts_with(b"VALUE ") => {
            let mut fields = head[6..].split(|&b| b == b' ');
            let (key, flags, len) = (fields.next(), fields.next(), fields.next());
            // A header without a length cannot be skipped over: report
            // a failure and let the next reply fail to parse too.
            let Some(len) = len
                .and_then(|l| std::str::from_utf8(l).ok())
                .and_then(|l| l.parse::<usize>().ok())
            else {
                return Some((false, used));
            };
            let data = buf.get(used..used + len)?;
            let (end, end_len) = line(buf.get(used + len + 2..)?)?;
            want.clear();
            key_bytes(e.id, want);
            let key_ok = key == Some(&want[..]);
            want.clear();
            value_bytes(e.id, e.version, value_len, want);
            let ok = key_ok
                && e.version != 0
                && flags == Some(b"0")
                && end == b"END"
                && data == &want[..];
            Some((ok, used + len + 2 + end_len))
        }
        // `END` alone is a miss; anything else (ERROR, SERVER_ERROR, ...)
        // is wrong.
        OpKind::Get => Some((head == b"END" && e.version == 0, used)),
    }
}

impl Client {
    pub fn connect(addr: SocketAddr, gen: ConnGen) -> Result<Client, String> {
        let stream =
            TcpStream::connect_timeout(&addr, HANG_LIMIT).map_err(|e| io_err("connect", e))?;
        stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| io_err("set_nonblocking", e))?;
        Ok(Client {
            stream,
            gen,
            wbuf: Vec::with_capacity(1 << 16),
            rbuf: vec![0; 1 << 18],
            rpos: 0,
            rend: 0,
            inflight: VecDeque::new(),
            scratch: Vec::new(),
        })
    }

    /// Reads once; `Ok(0)` when nothing has arrived.
    fn fill(&mut self) -> Result<usize, String> {
        if self.rpos == self.rend {
            (self.rpos, self.rend) = (0, 0);
        } else if self.rend == self.rbuf.len() {
            self.rbuf.copy_within(self.rpos..self.rend, 0);
            (self.rpos, self.rend) = (0, self.rend - self.rpos);
            if self.rend == self.rbuf.len() {
                return Err("reply larger than the receive buffer".into());
            }
        }
        match self.stream.read(&mut self.rbuf[self.rend..]) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.rend += n;
                Ok(n)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(0),
            Err(e) => Err(io_err("read", e)),
        }
    }

    fn received(&self) -> &[u8] {
        &self.rbuf[self.rpos..self.rend]
    }

    /// Writes `wbuf`, spinning while the socket's buffer is full.
    fn write_wbuf(&mut self) -> Result<(), String> {
        let (mut off, mut stuck_since) = (0, None);
        while off < self.wbuf.len() {
            match self.stream.write(&self.wbuf[off..]) {
                Ok(n) => {
                    off += n;
                    stuck_since = None;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    if stuck_since.get_or_insert_with(Instant::now).elapsed() > HANG_LIMIT {
                        return Err(hung("write"));
                    }
                }
                Err(e) => return Err(io_err("write", e)),
            }
        }
        Ok(())
    }

    /// Spins, reading, until `step` returns a value; fails when nothing
    /// arrives for [`HANG_LIMIT`].
    fn wait_for<T>(
        &mut self,
        what: &str,
        mut step: impl FnMut(&mut Self) -> Result<Option<T>, String>,
    ) -> Result<T, String> {
        let mut last_bytes = Instant::now();
        loop {
            if let Some(v) = step(self)? {
                return Ok(v);
            }
            if self.fill()? > 0 {
                last_bytes = Instant::now();
            } else if last_bytes.elapsed() > HANG_LIMIT {
                return Err(hung(what));
            }
        }
    }

    /// Generates and writes up to `batch` requests (fewer when a
    /// sequential pass runs out). Returns how many.
    fn send_batch(&mut self, batch: usize, sequential: bool) -> Result<usize, String> {
        let n = if sequential {
            batch.min(self.gen.remaining_seq() as usize)
        } else {
            batch
        };
        if n == 0 {
            return Ok(0);
        }
        self.wbuf.clear();
        let first = self.inflight.len();
        let mut sent = Instant::now();
        for _ in 0..n {
            let e = self.gen.next(&mut self.wbuf);
            self.inflight.push_back((e, sent));
        }
        // Generating is the client's own time; latency starts at the write.
        sent = Instant::now();
        self.inflight
            .iter_mut()
            .skip(first)
            .for_each(|r| r.1 = sent);
        self.write_wbuf()?;
        Ok(n)
    }

    /// Parses and checks every reply that has fully arrived, calling
    /// `each` with the instant its request's latency counts from.
    fn take_replies(&mut self, counts: &mut Counts, mut each: impl FnMut(Instant)) {
        while let Some(&(e, since)) = self.inflight.front() {
            let Some((ok, used)) = parse_reply(
                &self.rbuf[self.rpos..self.rend],
                e,
                self.gen.value_len,
                &mut self.scratch,
            ) else {
                break;
            };
            self.rpos += used;
            self.inflight.pop_front();
            counts.ok += ok as u64;
            counts.failed += !ok as u64;
            each(since);
        }
    }

    /// Sends one command outside the generated stream and collects the
    /// lines of its reply up to and including the first for which `last`
    /// holds, calling `meanwhile` on every turn of the wait.
    fn command(
        &mut self,
        cmd: &str,
        last: impl Fn(&str) -> bool,
        mut meanwhile: impl FnMut() -> Result<(), String>,
    ) -> Result<Vec<String>, String> {
        assert!(self.inflight.is_empty());
        self.wbuf.clear();
        self.wbuf.extend_from_slice(cmd.as_bytes());
        self.wbuf.extend_from_slice(b"\r\n");
        self.write_wbuf()?;
        let mut lines = Vec::new();
        self.wait_for(cmd, |c| {
            while let Some((text, used)) = line(c.received()) {
                lines.push(String::from_utf8_lossy(text).into_owned());
                c.rpos += used;
                if last(lines.last().expect("just pushed")) {
                    return Ok(Some(()));
                }
            }
            meanwhile().map(|()| None)
        })?;
        Ok(lines)
    }

    /// `stats [arg]`: every numeric `STAT name value` line.
    pub fn stats(&mut self, arg: &str) -> Result<Vec<(String, f64)>, String> {
        let cmd = if arg.is_empty() {
            "stats".to_string()
        } else {
            format!("stats {arg}")
        };
        let lines = self.command(&cmd, |l| !l.starts_with("STAT "), || Ok(()))?;
        match lines.last().map(String::as_str) {
            Some("END") => Ok(crate::run::parse_stat_lines(&lines.join("\n"))),
            other => Err(format!("{cmd}: unexpected line {other:?}")),
        }
    }

    /// Round trip of one `version` command on this connection, which has
    /// nothing else in flight; `meanwhile` runs on every turn of the wait.
    pub fn version_rtt(
        &mut self,
        meanwhile: impl FnMut() -> Result<(), String>,
    ) -> Result<Duration, String> {
        let t0 = Instant::now();
        let lines = self.command("version", |_| true, meanwhile)?;
        let rtt = t0.elapsed();
        if lines[0].starts_with("VERSION ") {
            Ok(rtt)
        } else {
            Err(format!("version: unexpected reply {:?}", lines[0]))
        }
    }

    /// One turn of a closed loop on this connection alone, without
    /// waiting: tops it up to two batches in flight and takes the replies
    /// that have arrived. The load behind which
    /// [`version_rtt`](Self::version_rtt) is measured on another
    /// connection; collect what is left with [`drain`](Self::drain).
    pub fn keep_busy(&mut self, batch: usize, counts: &mut Counts) -> Result<(), String> {
        while self.inflight.len() <= batch {
            self.send_batch(batch, false)?;
        }
        if self.fill()? > 0 {
            self.take_replies(counts, |_| {});
        }
        Ok(())
    }

    /// Waits for every in-flight reply.
    pub fn drain(&mut self, counts: &mut Counts) -> Result<(), String> {
        self.wait_for("drain", |c| {
            c.take_replies(counts, |_| {});
            Ok(c.inflight.is_empty().then_some(()))
        })
    }
}

fn ns_since(t: Instant, now: Instant) -> u32 {
    (now - t).as_nanos().min(u32::MAX as u128) as u32
}

/// When a closed loop stops issuing new batches.
#[derive(Clone, Copy)]
pub enum Until {
    Time(Instant),
    /// This many requests have been sent.
    Sent(u64),
    /// Every connection's sequential pass has been sent.
    SequenceEnd,
}

/// Closed loop: one thread writes requests in batches of `batch` and
/// keeps two batches in flight on each connection, sending a
/// connection's next batch as soon as one of its two is fully answered —
/// so the server has a batch queued while the client turns the other
/// around, and a short stall of the client does not idle it. Request
/// latencies (ns, from the batch's write to the read that completed the
/// reply) go to `lat`.
pub fn closed_loop(
    clients: &mut [Client],
    batch: usize,
    until: Until,
    mut lat: Option<&mut Vec<u32>>,
) -> Result<Counts, String> {
    let sequential = matches!(until, Until::SequenceEnd);
    let mut counts = Counts::default();
    let mut sent = 0u64;
    let go_on = |sent: u64| match until {
        Until::Time(t) => Instant::now() < t,
        Until::Sent(n) => sent < n,
        Until::SequenceEnd => true,
    };
    let mut last_bytes = Instant::now();
    loop {
        let mut waiting = false;
        for c in clients.iter_mut() {
            while c.inflight.len() <= batch && go_on(sent) {
                match c.send_batch(batch, sequential)? {
                    0 => break,
                    n => sent += n as u64,
                }
            }
            if c.inflight.is_empty() {
                continue;
            }
            waiting = true;
            if c.fill()? == 0 {
                continue;
            }
            last_bytes = Instant::now();
            c.take_replies(&mut counts, |since| {
                if let Some(lat) = lat.as_deref_mut() {
                    lat.push(ns_since(since, last_bytes));
                }
            });
        }
        if !waiting {
            return Ok(counts);
        }
        if last_bytes.elapsed() > HANG_LIMIT {
            return Err(hung("closed loop"));
        }
    }
}

/// What an open loop saw.
pub struct Paced {
    pub counts: Counts,
    /// Requests sent more than [`LATE`] after they were due.
    pub late: u64,
    pub sent: u64,
}

/// A request sent later than this after its due time counts as late:
/// the generator, not the server, delayed it.
pub const LATE: Duration = Duration::from_micros(100);

/// Open loop: requests go out at the Poisson schedule's due times
/// (counted from `origin`) whether or not earlier replies are in, on
/// alternating connections; latency (ns, to `lat`) counts from the due
/// time, so a stall charges every request it delays. Sends what is due
/// before `end`, then waits for the replies.
pub fn open_loop(
    clients: &mut [Client],
    schedule: &mut Poisson,
    origin: Instant,
    end: Instant,
    lat: &mut Vec<u32>,
) -> Result<Paced, String> {
    let mut out = Paced {
        counts: Counts::default(),
        late: 0,
        sent: 0,
    };
    let due_at = |s: &Poisson| origin + Duration::from_secs_f64(s.due());
    let mut last_bytes = Instant::now();
    loop {
        let now = Instant::now();
        while due_at(schedule) <= now && due_at(schedule) < end {
            let due = due_at(schedule);
            schedule.advance();
            let c = &mut clients[out.sent as usize % clients.len()];
            c.wbuf.clear();
            let e = c.gen.next(&mut c.wbuf);
            c.write_wbuf()?;
            c.inflight.push_back((e, due));
            out.sent += 1;
            out.late += (Instant::now() - due > LATE) as u64;
        }
        let mut waiting = false;
        for c in clients.iter_mut() {
            if c.inflight.is_empty() {
                continue;
            }
            waiting = true;
            if c.fill()? == 0 {
                continue;
            }
            last_bytes = Instant::now();
            c.take_replies(&mut out.counts, |due| lat.push(ns_since(due, last_bytes)));
        }
        if !waiting {
            if due_at(schedule) >= end {
                return Ok(out);
            }
            last_bytes = Instant::now();
            std::hint::spin_loop();
        } else if last_bytes.elapsed() > HANG_LIMIT {
            return Err(hung("open loop"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(buf: &[u8], e: Expect) -> Option<(bool, usize)> {
        parse_reply(buf, e, 32, &mut Vec::new())
    }

    #[test]
    fn replies_are_checked_against_the_expectation() {
        let get = |version| Expect {
            kind: OpKind::Get,
            id: 9,
            version,
        };
        let set = Expect {
            kind: OpKind::Set,
            id: 9,
            version: 1,
        };
        let mut hit = b"VALUE ".to_vec();
        key_bytes(9, &mut hit);
        hit.extend_from_slice(b" 0 32\r\n");
        value_bytes(9, 3, 32, &mut hit);
        hit.extend_from_slice(b"\r\nEND\r\n");

        assert_eq!(reply(&hit, get(3)), Some((true, hit.len())));
        assert_eq!(
            reply(&hit, get(2)),
            Some((false, hit.len())),
            "stale version"
        );
        assert_eq!(
            reply(&hit, get(0)),
            Some((false, hit.len())),
            "hit where a miss is due"
        );
        assert_eq!(reply(&hit[..hit.len() - 3], get(3)), None, "incomplete");
        assert_eq!(reply(&hit[..20], get(3)), None, "incomplete header");
        assert_eq!(reply(b"END\r\n", get(0)), Some((true, 5)));
        assert_eq!(
            reply(b"END\r\n", get(1)),
            Some((false, 5)),
            "miss of a resident key"
        );
        assert_eq!(reply(b"SERVER_ERROR x\r\n", get(1)), Some((false, 16)));
        assert_eq!(reply(b"STORED\r\nSTORED\r\n", set), Some((true, 8)));
        assert_eq!(reply(b"NOT_STORED\r\n", set), Some((false, 12)));
        assert_eq!(reply(b"STOR", set), None);
    }
}
