//! The memcached ASCII protocol subset: an incremental, zero-copy frame
//! parser and the matching response/request encoders.
//!
//! `cuckood` speaks the classic text protocol (`get`/`gets`, `set`,
//! `add`, `replace`, `delete`, `stats`, `version`, `quit`). Parsing is
//! **incremental**: [`parse`] inspects a byte buffer and either returns a
//! complete request plus the number of bytes it consumed, asks for more
//! bytes, or reports a protocol error. It is **zero-copy**: keys and
//! value payloads in the returned [`Request`] borrow directly from the
//! connection's receive buffer; nothing is copied until the storage layer
//! decides it needs to own the bytes.
//!
//! Error philosophy (mirrors memcached): an unknown command word answers
//! `ERROR`; a recognized command with malformed arguments answers
//! `CLIENT_ERROR <reason>`. Both leave the connection usable — the parser
//! resynchronizes by discarding through the end of the offending line
//! (and, when the header of a storage command was readable, its data
//! block). Only framing violations that make resynchronization impossible
//! (an unterminated line longer than [`MAX_LINE`], or a data block whose
//! declared length exceeds [`MAX_VALUE_SIZE`]) close the connection.
//! The parser never panics on any input; `tests/proto_roundtrip.rs`
//! drives that claim with a generative round-trip and a malformed corpus.

use core::fmt;

/// Longest accepted key, per the memcached protocol.
pub const MAX_KEY_LEN: usize = 250;
/// Longest accepted command line (covers multi-key `get`s).
pub const MAX_LINE: usize = 8192;
/// Largest accepted value payload (memcached's classic 1 MiB default).
pub const MAX_VALUE_SIZE: usize = 1 << 20;

/// Which storage verb a [`Request::Store`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreVerb {
    /// Unconditional store.
    Set,
    /// Store only if the key is absent.
    Add,
    /// Store only if the key is present.
    Replace,
}

impl StoreVerb {
    pub fn as_str(self) -> &'static str {
        match self {
            StoreVerb::Set => "set",
            StoreVerb::Add => "add",
            StoreVerb::Replace => "replace",
        }
    }
}

/// Which statistics section a `stats` request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsArg {
    /// Bare `stats` — the classic memcached general section.
    General,
    /// `stats cuckoo` — the cuckoo observability counters as `STAT`
    /// lines (stripe contention, BFS path lengths, seqlock retries,
    /// migration progress).
    Cuckoo,
    /// `stats prometheus` — the same series in Prometheus text
    /// exposition format (for scraping through `nc`/`curl` pipes).
    Prometheus,
    /// `stats reset` — zero the resettable counters (latency
    /// histograms, cuckoo metric families).
    Reset,
}

impl StatsArg {
    pub fn as_str(self) -> &'static str {
        match self {
            StatsArg::General => "",
            StatsArg::Cuckoo => "cuckoo",
            StatsArg::Prometheus => "prometheus",
            StatsArg::Reset => "reset",
        }
    }
}

/// One complete client request, borrowing key/value bytes from the
/// receive buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Request<'a> {
    /// `get`/`gets <key>+` — `with_cas` distinguishes `gets`.
    Get { keys: Vec<&'a [u8]>, with_cas: bool },
    /// `set`/`add`/`replace <key> <flags> <exptime> <bytes> [noreply]`
    /// followed by a `<bytes>`-long data block.
    Store {
        verb: StoreVerb,
        key: &'a [u8],
        flags: u32,
        exptime: u32,
        data: &'a [u8],
        noreply: bool,
    },
    /// `delete <key> [noreply]`
    Delete { key: &'a [u8], noreply: bool },
    /// `flush_all [delay] [noreply]` — drop every item. Delayed flushes
    /// (`delay > 0`) are parsed but refused at execution; they cannot be
    /// replayed deterministically from the op log.
    FlushAll { delay: u32, noreply: bool },
    /// `replicate <lsn>` — replication handshake: this connection stops
    /// being a request/response channel and becomes a one-way feed of op
    /// log records starting after the replica's last-applied LSN.
    Replicate { lsn: u64 },
    /// `promote` — a replica detaches from its primary and starts
    /// accepting writes.
    Promote,
    /// `stats [cuckoo|prometheus|reset]`
    Stats { arg: StatsArg },
    /// `version`
    Version,
    /// `quit`
    Quit,
}

/// A protocol-level failure. `recover_by` tells the connection how many
/// bytes to discard so the stream is resynchronized at the next command
/// boundary; `None` means the connection must close.
#[derive(Debug, PartialEq, Eq)]
pub struct ProtoError {
    pub kind: ErrorKind,
    pub message: String,
    pub recover_by: Option<usize>,
}

/// How the error is reported to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// `ERROR\r\n` — the command word itself is unknown.
    UnknownCommand,
    /// `CLIENT_ERROR <msg>\r\n` — known command, malformed arguments or
    /// data block.
    Client,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ErrorKind::UnknownCommand => write!(f, "ERROR"),
            ErrorKind::Client => write!(f, "CLIENT_ERROR {}", self.message),
        }
    }
}

impl ProtoError {
    fn client(message: impl Into<String>, recover_by: Option<usize>) -> Self {
        ProtoError { kind: ErrorKind::Client, message: message.into(), recover_by }
    }

    fn unknown(recover_by: usize) -> Self {
        ProtoError {
            kind: ErrorKind::UnknownCommand,
            message: String::new(),
            recover_by: Some(recover_by),
        }
    }

    /// Renders the on-wire error line.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self.kind {
            ErrorKind::UnknownCommand => out.extend_from_slice(b"ERROR\r\n"),
            ErrorKind::Client => {
                out.extend_from_slice(b"CLIENT_ERROR ");
                out.extend_from_slice(self.message.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
        }
    }
}

/// Outcome of one [`parse`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum Parsed<'a> {
    /// A complete request occupying `consumed` bytes of the buffer.
    Ok { request: Request<'a>, consumed: usize },
    /// The buffer holds only a prefix of a request; read more bytes.
    Incomplete,
    /// Protocol violation; see [`ProtoError::recover_by`].
    Err(ProtoError),
}

/// Finds `\r\n` in `buf`, returning the line (exclusive) and the offset
/// just past the terminator. Tolerates a bare `\n` (memcached does too).
fn take_line(buf: &[u8]) -> Option<(&[u8], usize)> {
    let nl = buf.iter().position(|&b| b == b'\n')?;
    let line = if nl > 0 && buf[nl - 1] == b'\r' { &buf[..nl - 1] } else { &buf[..nl] };
    Some((line, nl + 1))
}

/// Splits an ASCII line on runs of spaces.
fn tokens(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    line.split(|&b| b == b' ').filter(|t| !t.is_empty())
}

fn parse_u32(tok: &[u8], what: &str, recover: usize) -> Result<u32, ProtoError> {
    parse_u64(tok, what, recover).and_then(|v| {
        u32::try_from(v)
            .map_err(|_| ProtoError::client(format!("bad {what}"), Some(recover)))
    })
}

fn parse_u64(tok: &[u8], what: &str, recover: usize) -> Result<u64, ProtoError> {
    if tok.is_empty() || tok.len() > 20 || !tok.iter().all(|b| b.is_ascii_digit()) {
        return Err(ProtoError::client(format!("bad {what}"), Some(recover)));
    }
    let mut v: u64 = 0;
    for &b in tok {
        v = v
            .checked_mul(10)
            .and_then(|v| v.checked_add((b - b'0') as u64))
            .ok_or_else(|| ProtoError::client(format!("bad {what}"), Some(recover)))?;
    }
    Ok(v)
}

fn check_key(key: &[u8], recover: usize) -> Result<(), ProtoError> {
    if key.len() > MAX_KEY_LEN {
        return Err(ProtoError::client("key too long", Some(recover)));
    }
    // Keys are printable ASCII without whitespace/control bytes.
    if key.iter().any(|&b| !(0x21..=0x7e).contains(&b)) {
        return Err(ProtoError::client("invalid key", Some(recover)));
    }
    Ok(())
}

/// Attempts to parse one request from the front of `buf`.
pub fn parse(buf: &[u8]) -> Parsed<'_> {
    let Some((line, line_end)) = take_line(buf) else {
        if buf.len() > MAX_LINE {
            // No terminator within the line cap: unrecoverable framing.
            return Parsed::Err(ProtoError::client("line too long", None));
        }
        return Parsed::Incomplete;
    };
    if line.len() > MAX_LINE {
        return Parsed::Err(ProtoError::client("line too long", None));
    }
    let mut toks = tokens(line);
    let Some(cmd) = toks.next() else {
        // Blank line: memcached answers ERROR and keeps going.
        return Parsed::Err(ProtoError::unknown(line_end));
    };
    match cmd {
        b"get" | b"gets" => {
            let with_cas = cmd == b"gets";
            let keys: Vec<&[u8]> = toks.collect();
            if keys.is_empty() {
                return Parsed::Err(ProtoError::client("get requires a key", Some(line_end)));
            }
            for key in &keys {
                if let Err(e) = check_key(key, line_end) {
                    return Parsed::Err(e);
                }
            }
            Parsed::Ok { request: Request::Get { keys, with_cas }, consumed: line_end }
        }
        b"set" | b"add" | b"replace" => {
            let verb = match cmd {
                b"set" => StoreVerb::Set,
                b"add" => StoreVerb::Add,
                _ => StoreVerb::Replace,
            };
            match parse_store_tail(verb, toks, buf, line_end) {
                Ok(Some((request, consumed))) => Parsed::Ok { request, consumed },
                Ok(None) => Parsed::Incomplete,
                Err(e) => Parsed::Err(e),
            }
        }
        b"delete" => {
            let Some(key) = toks.next() else {
                return Parsed::Err(ProtoError::client(
                    "delete requires a key",
                    Some(line_end),
                ));
            };
            if let Err(e) = check_key(key, line_end) {
                return Parsed::Err(e);
            }
            let noreply = match toks.next() {
                None => false,
                Some(b"noreply") => true,
                Some(b"0") => false, // legacy `delete <key> 0` time argument
                Some(_) => {
                    return Parsed::Err(ProtoError::client(
                        "bad delete arguments",
                        Some(line_end),
                    ))
                }
            };
            if toks.next().is_some() {
                return Parsed::Err(ProtoError::client("bad delete arguments", Some(line_end)));
            }
            Parsed::Ok { request: Request::Delete { key, noreply }, consumed: line_end }
        }
        b"stats" => {
            let arg = match toks.next() {
                None => StatsArg::General,
                Some(b"cuckoo") => StatsArg::Cuckoo,
                Some(b"prometheus") => StatsArg::Prometheus,
                Some(b"reset") => StatsArg::Reset,
                Some(_) => {
                    return Parsed::Err(ProtoError::client(
                        "bad stats argument",
                        Some(line_end),
                    ))
                }
            };
            if toks.next().is_some() {
                return Parsed::Err(ProtoError::client("bad stats argument", Some(line_end)));
            }
            Parsed::Ok { request: Request::Stats { arg }, consumed: line_end }
        }
        b"flush_all" => {
            let mut delay = 0u32;
            let mut noreply = false;
            match toks.next() {
                None => {}
                Some(b"noreply") => noreply = true,
                Some(tok) => {
                    delay = match parse_u32(tok, "flush_all delay", line_end) {
                        Ok(v) => v,
                        Err(e) => return Parsed::Err(e),
                    };
                    match toks.next() {
                        None => {}
                        Some(b"noreply") => noreply = true,
                        Some(_) => {
                            return Parsed::Err(ProtoError::client(
                                "bad flush_all arguments",
                                Some(line_end),
                            ))
                        }
                    }
                }
            }
            if toks.next().is_some() {
                return Parsed::Err(ProtoError::client(
                    "bad flush_all arguments",
                    Some(line_end),
                ));
            }
            Parsed::Ok { request: Request::FlushAll { delay, noreply }, consumed: line_end }
        }
        b"replicate" => {
            let Some(tok) = toks.next() else {
                return Parsed::Err(ProtoError::client(
                    "replicate requires an lsn",
                    Some(line_end),
                ));
            };
            let lsn = match parse_u64(tok, "lsn", line_end) {
                Ok(v) => v,
                Err(e) => return Parsed::Err(e),
            };
            if toks.next().is_some() {
                return Parsed::Err(ProtoError::client(
                    "bad replicate arguments",
                    Some(line_end),
                ));
            }
            Parsed::Ok { request: Request::Replicate { lsn }, consumed: line_end }
        }
        b"promote" => {
            if toks.next().is_some() {
                return Parsed::Err(ProtoError::client(
                    "promote takes no arguments",
                    Some(line_end),
                ));
            }
            Parsed::Ok { request: Request::Promote, consumed: line_end }
        }
        b"version" => Parsed::Ok { request: Request::Version, consumed: line_end },
        b"quit" => Parsed::Ok { request: Request::Quit, consumed: line_end },
        _ => Parsed::Err(ProtoError::unknown(line_end)),
    }
}

/// Parses `<key> <flags> <exptime> <bytes> [noreply]` plus the data
/// block. `Ok(None)` means the data block has not fully arrived.
#[allow(clippy::type_complexity)]
fn parse_store_tail<'a>(
    verb: StoreVerb,
    mut toks: impl Iterator<Item = &'a [u8]>,
    buf: &'a [u8],
    line_end: usize,
) -> Result<Option<(Request<'a>, usize)>, ProtoError> {
    let usage = || ProtoError::client(format!("usage: {} <key> <flags> <exptime> <bytes> [noreply]", verb.as_str()), Some(line_end));
    let key = toks.next().ok_or_else(usage)?;
    check_key(key, line_end)?;
    let flags = parse_u32(toks.next().ok_or_else(usage)?, "flags", line_end)?;
    let exptime = parse_u32(toks.next().ok_or_else(usage)?, "exptime", line_end)?;
    let bytes = parse_u64(toks.next().ok_or_else(usage)?, "bytes", line_end)? as usize;
    let noreply = match toks.next() {
        None => false,
        Some(b"noreply") => true,
        Some(_) => return Err(usage()),
    };
    if toks.next().is_some() {
        return Err(usage());
    }
    if bytes > MAX_VALUE_SIZE {
        // Discarding a multi-megabyte bogus block is how memcached DoSes
        // itself; close instead.
        return Err(ProtoError::client("object too large for cache", None));
    }
    let total = line_end + bytes + 2;
    if buf.len() < total {
        return Ok(None);
    }
    let data = &buf[line_end..line_end + bytes];
    if &buf[line_end + bytes..total] != b"\r\n" {
        // Data block not terminated where promised: client and server
        // disagree on framing; skip the bad block and resynchronize.
        return Err(ProtoError::client("bad data chunk", Some(total)));
    }
    Ok(Some((
        Request::Store { verb, key, flags, exptime, data, noreply },
        total,
    )))
}

// ---------------------------------------------------------------------------
// Response encoding (server side)
// ---------------------------------------------------------------------------

/// One `VALUE` stanza of a `get` response. `cas` prints only for `gets`.
pub fn encode_value(out: &mut Vec<u8>, key: &[u8], flags: u32, data: &[u8], cas: Option<u64>) {
    out.extend_from_slice(b"VALUE ");
    out.extend_from_slice(key);
    let mut num = [0u8; 24];
    out.push(b' ');
    out.extend_from_slice(fmt_u64(flags as u64, &mut num));
    out.push(b' ');
    out.extend_from_slice(fmt_u64(data.len() as u64, &mut num));
    if let Some(cas) = cas {
        out.push(b' ');
        out.extend_from_slice(fmt_u64(cas, &mut num));
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Formats `v` into `buf` without allocating; returns the used suffix.
fn fmt_u64(mut v: u64, buf: &mut [u8; 24]) -> &[u8] {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    &buf[i..]
}

/// `END\r\n` terminating a `get` response.
pub fn encode_end(out: &mut Vec<u8>) {
    out.extend_from_slice(b"END\r\n");
}

/// A one-word reply line (`STORED`, `NOT_STORED`, `DELETED`, ...).
pub fn encode_line(out: &mut Vec<u8>, word: &str) {
    out.extend_from_slice(word.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// One `STAT <name> <value>` line.
pub fn encode_stat(out: &mut Vec<u8>, name: &str, value: impl fmt::Display) {
    out.extend_from_slice(b"STAT ");
    out.extend_from_slice(name.as_bytes());
    out.push(b' ');
    out.extend_from_slice(value.to_string().as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// One `STAT <name> <value>` line for an integer value, formatted into a
/// stack buffer: the whole stats body can render without allocating.
pub fn encode_stat_u64(out: &mut Vec<u8>, name: &str, value: u64) {
    out.extend_from_slice(b"STAT ");
    out.extend_from_slice(name.as_bytes());
    out.push(b' ');
    let mut num = [0u8; 24];
    out.extend_from_slice(fmt_u64(value, &mut num));
    out.extend_from_slice(b"\r\n");
}

// ---------------------------------------------------------------------------
// Request encoding (client side: net driver, tests)
// ---------------------------------------------------------------------------

/// Renders `req` in wire format — the exact inverse of [`parse`], used by
/// the pipelined net driver and the round-trip property test.
pub fn encode_request(out: &mut Vec<u8>, req: &Request<'_>) {
    let mut num = [0u8; 24];
    match req {
        Request::Get { keys, with_cas } => {
            out.extend_from_slice(if *with_cas { b"gets" } else { b"get" });
            for key in keys {
                out.push(b' ');
                out.extend_from_slice(key);
            }
            out.extend_from_slice(b"\r\n");
        }
        Request::Store { verb, key, flags, exptime, data, noreply } => {
            out.extend_from_slice(verb.as_str().as_bytes());
            out.push(b' ');
            out.extend_from_slice(key);
            out.push(b' ');
            out.extend_from_slice(fmt_u64(*flags as u64, &mut num));
            out.push(b' ');
            out.extend_from_slice(fmt_u64(*exptime as u64, &mut num));
            out.push(b' ');
            out.extend_from_slice(fmt_u64(data.len() as u64, &mut num));
            if *noreply {
                out.extend_from_slice(b" noreply");
            }
            out.extend_from_slice(b"\r\n");
            out.extend_from_slice(data);
            out.extend_from_slice(b"\r\n");
        }
        Request::Delete { key, noreply } => {
            out.extend_from_slice(b"delete ");
            out.extend_from_slice(key);
            if *noreply {
                out.extend_from_slice(b" noreply");
            }
            out.extend_from_slice(b"\r\n");
        }
        Request::Stats { arg } => {
            out.extend_from_slice(b"stats");
            if *arg != StatsArg::General {
                out.push(b' ');
                out.extend_from_slice(arg.as_str().as_bytes());
            }
            out.extend_from_slice(b"\r\n");
        }
        Request::FlushAll { delay, noreply } => {
            out.extend_from_slice(b"flush_all");
            if *delay != 0 {
                out.push(b' ');
                out.extend_from_slice(fmt_u64(*delay as u64, &mut num));
            }
            if *noreply {
                out.extend_from_slice(b" noreply");
            }
            out.extend_from_slice(b"\r\n");
        }
        Request::Replicate { lsn } => {
            out.extend_from_slice(b"replicate ");
            out.extend_from_slice(fmt_u64(*lsn, &mut num));
            out.extend_from_slice(b"\r\n");
        }
        Request::Promote => out.extend_from_slice(b"promote\r\n"),
        Request::Version => out.extend_from_slice(b"version\r\n"),
        Request::Quit => out.extend_from_slice(b"quit\r\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(bytes: &[u8]) -> (Request<'_>, usize) {
        match parse(bytes) {
            Parsed::Ok { request, consumed } => (request, consumed),
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_multi() {
        let (req, used) = parse_one(b"get alpha beta\r\nget next\r\n");
        assert_eq!(used, 16);
        assert_eq!(
            req,
            Request::Get { keys: vec![b"alpha".as_slice(), b"beta".as_slice()], with_cas: false }
        );
    }

    #[test]
    fn parses_set_with_data() {
        let (req, used) = parse_one(b"set k 7 0 5\r\nhello\r\n");
        assert_eq!(used, 20);
        match req {
            Request::Store { verb, key, flags, exptime, data, noreply } => {
                assert_eq!(verb, StoreVerb::Set);
                assert_eq!(key, b"k");
                assert_eq!(flags, 7);
                assert_eq!(exptime, 0);
                assert_eq!(data, b"hello");
                assert!(!noreply);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn set_waits_for_data_block() {
        assert_eq!(parse(b"set k 0 0 5\r\nhel"), Parsed::Incomplete);
        assert_eq!(parse(b"set k 0 0 5\r\nhello\r"), Parsed::Incomplete);
        assert_eq!(parse(b"set k 0 0"), Parsed::Incomplete);
    }

    #[test]
    fn value_may_contain_newlines() {
        let (req, _) = parse_one(b"set k 0 0 4\r\na\r\nb\r\n");
        match req {
            Request::Store { data, .. } => assert_eq!(data, b"a\r\nb"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_command_is_recoverable() {
        match parse(b"incr k 1\r\nversion\r\n") {
            Parsed::Err(e) => {
                assert_eq!(e.kind, ErrorKind::UnknownCommand);
                assert_eq!(e.recover_by, Some(10));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flush_all_parses_all_forms() {
        for (line, delay, noreply) in [
            (&b"flush_all\r\n"[..], 0u32, false),
            (b"flush_all noreply\r\n", 0, true),
            (b"flush_all 30\r\n", 30, false),
            (b"flush_all 30 noreply\r\n", 30, true),
        ] {
            match parse(line) {
                Parsed::Ok { request: Request::FlushAll { delay: d, noreply: n }, consumed } => {
                    assert_eq!((d, n), (delay, noreply), "{line:?}");
                    assert_eq!(consumed, line.len());
                }
                other => panic!("{line:?}: {other:?}"),
            }
        }
        assert!(matches!(parse(b"flush_all x\r\n"), Parsed::Err(_)));
        assert!(matches!(parse(b"flush_all 1 2\r\n"), Parsed::Err(_)));
    }

    #[test]
    fn replicate_and_promote_parse() {
        match parse(b"replicate 42\r\n") {
            Parsed::Ok { request: Request::Replicate { lsn }, .. } => assert_eq!(lsn, 42),
            other => panic!("{other:?}"),
        }
        assert!(matches!(parse(b"replicate\r\n"), Parsed::Err(_)));
        assert!(matches!(parse(b"replicate x\r\n"), Parsed::Err(_)));
        assert!(matches!(
            parse(b"promote\r\n"),
            Parsed::Ok { request: Request::Promote, .. }
        ));
        assert!(matches!(parse(b"promote now\r\n"), Parsed::Err(_)));
    }

    #[test]
    fn bad_byte_count_is_client_error() {
        match parse(b"set k 0 0 abc\r\n") {
            Parsed::Err(e) => {
                assert_eq!(e.kind, ErrorKind::Client);
                assert!(e.recover_by.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_value_closes() {
        let line = format!("set k 0 0 {}\r\n", MAX_VALUE_SIZE + 1);
        match parse(line.as_bytes()) {
            Parsed::Err(e) => assert_eq!(e.recover_by, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_argument_parses_and_rejects() {
        let (req, _) = parse_one(b"stats\r\n");
        assert_eq!(req, Request::Stats { arg: StatsArg::General });
        let (req, _) = parse_one(b"stats prometheus\r\n");
        assert_eq!(req, Request::Stats { arg: StatsArg::Prometheus });
        match parse(b"stats bogus\r\nversion\r\n") {
            Parsed::Err(e) => {
                assert_eq!(e.kind, ErrorKind::Client);
                assert_eq!(e.recover_by, Some(13), "resynchronizes at the next line");
            }
            other => panic!("{other:?}"),
        }
        match parse(b"stats cuckoo extra\r\n") {
            Parsed::Err(e) => assert_eq!(e.kind, ErrorKind::Client),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn roundtrip_encode_parse() {
        let reqs = [
            Request::Get { keys: vec![b"a".as_slice(), b"bb".as_slice()], with_cas: true },
            Request::Store {
                verb: StoreVerb::Add,
                key: b"key",
                flags: 42,
                exptime: 100,
                data: b"payload",
                noreply: true,
            },
            Request::Delete { key: b"key", noreply: false },
            Request::Stats { arg: StatsArg::General },
            Request::Stats { arg: StatsArg::Cuckoo },
            Request::Stats { arg: StatsArg::Prometheus },
            Request::Stats { arg: StatsArg::Reset },
            Request::Version,
            Request::Quit,
        ];
        for req in &reqs {
            let mut wire = Vec::new();
            encode_request(&mut wire, req);
            let (parsed, used) = parse_one(&wire);
            assert_eq!(used, wire.len());
            assert_eq!(&parsed, req);
        }
    }
}
