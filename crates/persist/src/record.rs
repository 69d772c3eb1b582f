//! The op-log record codec: CRC-framed, length-prefixed binary records.
//!
//! One frame on disk (and on the replication wire — the stream reuses
//! this exact format) is:
//!
//! ```text
//! [crc32(payload) u32 LE] [len(payload) u32 LE] [payload]
//! ```
//!
//! and the payload is `[tag u8] [lsn u64 LE] [tag-specific fields]`.
//! Integers are little-endian throughout; keys and values are raw bytes
//! with `u32` length prefixes.
//!
//! The CRC is over the payload only, so a torn tail (kill -9 mid-write)
//! is detected at the first frame whose bytes are short or whose CRC
//! mismatches; recovery truncates there. The length field is bounded by
//! [`MAX_RECORD`] *before* the CRC is checked so a corrupt length can
//! never drive a huge allocation.

use std::io;

/// Frame header size: crc32 + len.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on one payload. Keys are ≤ 250 bytes and values ≤ 1 MiB
/// at the protocol layer; anything bigger in a length field is
/// corruption, not data.
pub const MAX_RECORD: usize = 2 * 1024 * 1024;

pub const TAG_SET: u8 = 1;
pub const TAG_DELETE: u8 = 2;
pub const TAG_FLUSH_ALL: u8 = 3;
/// Wire-only (replication stream): never written to the log file.
pub const TAG_HEARTBEAT: u8 = 4;

/// One logged (or replicated) operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// An acknowledged store: the key's durable metadata exactly as the
    /// engine assigned it (`expires_at` is the *absolute* deadline, so
    /// replay needs no clock; `cas` is preserved so restart does not
    /// reissue observed cas values).
    Set { key: Vec<u8>, flags: u32, expires_at: u32, cas: u64, value: Vec<u8> },
    Delete { key: Vec<u8> },
    FlushAll,
    /// Replication keep-alive carrying the primary's latest assigned
    /// LSN, so an idle replica can compute its lag. Wire-only.
    Heartbeat { last_lsn: u64 },
}

/// An [`Op::Set`] over borrowed bytes: the form the write path logs, so
/// a burst's keys and values are encoded straight from the buffer they
/// arrived in, without first being copied into an `Op`.
#[derive(Debug, Clone, Copy)]
pub struct SetRef<'a> {
    pub key: &'a [u8],
    pub flags: u32,
    pub expires_at: u32,
    pub cas: u64,
    pub value: &'a [u8],
}

/// An [`Op`] that changes the table, over borrowed bytes: what recovery
/// streams into its sink, and what the server applies, whether the op
/// came from a snapshot, a log file or the replication stream.
#[derive(Debug, Clone, Copy)]
pub enum OpRef<'a> {
    Set(SetRef<'a>),
    Delete(&'a [u8]),
    FlushAll,
}

impl Op {
    /// The op as the table change it makes; `None` for a heartbeat,
    /// which changes nothing.
    pub fn borrowed(&self) -> Option<OpRef<'_>> {
        Some(match self {
            Op::Set { key, flags, expires_at, cas, value } => {
                OpRef::Set(SetRef { key, flags: *flags, expires_at: *expires_at, cas: *cas, value })
            }
            Op::Delete { key } => OpRef::Delete(key),
            Op::FlushAll => OpRef::FlushAll,
            Op::Heartbeat { .. } => return None,
        })
    }
}

/// An [`Op`] with its log sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub lsn: u64,
    pub op: Op,
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-8, vendored so
/// the codec has no dependencies. `CRC_TABLES[0]` is the classic
/// bytewise table; `CRC_TABLES[k][b]` is `CRC_TABLES[0][b]` carried
/// through `k` more zero bytes, so eight lookups fold eight input bytes
/// at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32/IEEE of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Appends one framed record for `op` at `lsn` to `out`, returning the
/// frame's size in bytes.
pub fn encode_op(op: &Op, lsn: u64, out: &mut Vec<u8>) -> usize {
    match op {
        Op::Set { key, flags, expires_at, cas, value } => {
            let set = SetRef { key, flags: *flags, expires_at: *expires_at, cas: *cas, value };
            encode_set(&set, lsn, out)
        }
        Op::Delete { key } => frame(out, |out| {
            out.push(TAG_DELETE);
            put_u64(out, lsn);
            put_bytes(out, key);
        }),
        Op::FlushAll => frame(out, |out| {
            out.push(TAG_FLUSH_ALL);
            put_u64(out, lsn);
        }),
        Op::Heartbeat { last_lsn } => frame(out, |out| {
            out.push(TAG_HEARTBEAT);
            put_u64(out, lsn);
            put_u64(out, *last_lsn);
        }),
    }
}

/// [`encode_op`] of the `Set` that `set` borrows: the same bytes.
pub fn encode_set(set: &SetRef<'_>, lsn: u64, out: &mut Vec<u8>) -> usize {
    frame(out, |out| {
        out.push(TAG_SET);
        put_u64(out, lsn);
        put_set(out, set);
    })
}

/// A `Set`'s fields as both a `Set` payload and a snapshot entry hold
/// them (read back by `Reader::set`).
pub(crate) fn put_set(out: &mut Vec<u8>, set: &SetRef<'_>) {
    put_bytes(out, set.key);
    put_u32(out, set.flags);
    put_u32(out, set.expires_at);
    put_u64(out, set.cas);
    put_bytes(out, set.value);
}

/// Appends the frame whose payload `payload` writes, returning the
/// frame's size in bytes.
fn frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    // Header placeholder; patched once the payload is known.
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    let payload_start = out.len();
    payload(out);
    let len = out.len() - payload_start;
    debug_assert!(len <= MAX_RECORD, "record exceeds MAX_RECORD");
    let crc = crc32(&out[payload_start..]);
    out[start..start + 4].copy_from_slice(&crc.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&(len as u32).to_le_bytes());
    out.len() - start
}

/// Outcome of [`decode`] on the front of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded {
    /// One whole record occupying `consumed` bytes.
    Frame { record: Record, consumed: usize },
    /// The buffer holds only a prefix of a frame (a torn tail on disk,
    /// or "read more" on a stream).
    Incomplete,
    /// The bytes cannot be a valid frame: CRC mismatch, impossible
    /// length, or an unknown tag.
    Corrupt,
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("take(4) is 4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("take(8) is 8 bytes")))
    }

    fn slice(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// The fields [`put_set`] wrote, borrowed from the buffer.
    pub(crate) fn set(&mut self) -> Option<SetRef<'a>> {
        Some(SetRef {
            key: self.slice()?,
            flags: self.u32()?,
            expires_at: self.u32()?,
            cas: self.u64()?,
            value: self.slice()?,
        })
    }
}

/// Decodes one frame from the front of `buf`.
pub fn decode(buf: &[u8]) -> Decoded {
    if buf.len() < FRAME_HEADER {
        return Decoded::Incomplete;
    }
    let crc = u32::from_le_bytes(buf[0..4].try_into().expect("4-byte range"));
    let len = u32::from_le_bytes(buf[4..8].try_into().expect("4-byte range")) as usize;
    if len == 0 || len > MAX_RECORD {
        return Decoded::Corrupt;
    }
    if buf.len() < FRAME_HEADER + len {
        return Decoded::Incomplete;
    }
    let payload = &buf[FRAME_HEADER..FRAME_HEADER + len];
    if crc32(payload) != crc {
        return Decoded::Corrupt;
    }
    let mut r = Reader::new(payload);
    let Some(tag) = r.take(1).map(|b| b[0]) else {
        return Decoded::Corrupt;
    };
    let Some(lsn) = r.u64() else {
        return Decoded::Corrupt;
    };
    let op = match tag {
        TAG_SET => {
            let Some(s) = r.set() else {
                return Decoded::Corrupt;
            };
            Op::Set { key: s.key.to_vec(), flags: s.flags, expires_at: s.expires_at, cas: s.cas, value: s.value.to_vec() }
        }
        TAG_DELETE => {
            let Some(key) = r.slice() else {
                return Decoded::Corrupt;
            };
            Op::Delete { key: key.to_vec() }
        }
        TAG_FLUSH_ALL => Op::FlushAll,
        TAG_HEARTBEAT => {
            let Some(last_lsn) = r.u64() else {
                return Decoded::Corrupt;
            };
            Op::Heartbeat { last_lsn }
        }
        _ => return Decoded::Corrupt,
    };
    if !r.is_done() {
        // Trailing garbage inside a CRC-valid payload: still corrupt —
        // a valid encoder never produces it.
        return Decoded::Corrupt;
    }
    Decoded::Frame { record: Record { lsn, op }, consumed: FRAME_HEADER + len }
}

/// Hands every whole frame at the front of `buf` to `f`, in order, as
/// each one decodes, and returns the bytes they occupy. Stops at the
/// first incomplete or corrupt frame, so a result shorter than `buf`
/// means `buf` ends torn; an error from `f` stops it too.
pub fn decode_each(buf: &[u8], mut f: impl FnMut(Record) -> io::Result<()>) -> io::Result<usize> {
    let mut pos = 0;
    while let Decoded::Frame { record, consumed } = decode(&buf[pos..]) {
        f(record)?;
        pos += consumed;
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Set {
                key: b"alpha".to_vec(),
                flags: 7,
                expires_at: 123,
                cas: 42,
                value: b"the value".to_vec(),
            },
            Op::Set { key: vec![], flags: 0, expires_at: 0, cas: 0, value: vec![] },
            Op::Delete { key: b"beta".to_vec() },
            Op::FlushAll,
            Op::Heartbeat { last_lsn: 999 },
        ]
    }

    #[test]
    fn roundtrip_every_op() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let mut buf = Vec::new();
            let n = encode_op(&op, i as u64 + 1, &mut buf);
            assert_eq!(n, buf.len());
            match decode(&buf) {
                Decoded::Frame { record, consumed } => {
                    assert_eq!(consumed, buf.len());
                    assert_eq!(record.lsn, i as u64 + 1);
                    assert_eq!(record.op, op);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn concatenated_frames_decode_in_order() {
        let mut buf = Vec::new();
        for (i, op) in sample_ops().into_iter().enumerate() {
            encode_op(&op, i as u64, &mut buf);
        }
        let mut pos = 0;
        let mut lsns = Vec::new();
        while pos < buf.len() {
            match decode(&buf[pos..]) {
                Decoded::Frame { record, consumed } => {
                    lsns.push(record.lsn);
                    pos += consumed;
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(lsns, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_truncation_is_incomplete_never_panics() {
        let mut buf = Vec::new();
        encode_op(
            &Op::Set {
                key: b"k".to_vec(),
                flags: 1,
                expires_at: 2,
                cas: 3,
                value: b"vvvv".to_vec(),
            },
            9,
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert_eq!(decode(&buf[..cut]), Decoded::Incomplete, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let mut clean = Vec::new();
        encode_op(&Op::Delete { key: b"victim".to_vec() }, 5, &mut clean);
        for byte in 0..clean.len() {
            let mut buf = clean.clone();
            buf[byte] ^= 0x40;
            match decode(&buf) {
                // A flip in the length field may also read as a longer
                // frame that is not all there yet.
                Decoded::Corrupt | Decoded::Incomplete => {}
                Decoded::Frame { .. } => panic!("flip at byte {byte} went undetected"),
            }
        }
    }

    #[test]
    fn absurd_length_is_corrupt_not_alloc() {
        let mut buf = vec![0u8; FRAME_HEADER];
        buf[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&buf), Decoded::Corrupt);
        buf[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode(&buf), Decoded::Corrupt, "zero-length payload");
    }

    #[test]
    fn sliced_crc_matches_bytewise_reference() {
        // The textbook one-byte-per-step CRC-32/IEEE, bit by bit.
        fn reference(data: &[u8]) -> u32 {
            let mut c = 0xffff_ffffu32;
            for &b in data {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
                }
            }
            c ^ 0xffff_ffff
        }
        let data: Vec<u8> = (0..308u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..8 {
            for len in 0..=300 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), reference(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
