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

/// An acknowledged store over borrowed bytes: the key's durable metadata
/// exactly as the engine assigned it (`expires_at` is the *absolute*
/// deadline, so replay needs no clock; `cas` is preserved so restart
/// does not reissue observed cas values). The write path encodes it
/// straight from the buffer the command arrived in, and decoding
/// borrows it from the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetRef<'a> {
    pub key: &'a [u8],
    pub flags: u32,
    pub expires_at: u32,
    pub cas: u64,
    pub value: &'a [u8],
}

/// One operation that changes the table, over borrowed bytes: the one
/// record type. The server logs it, recovery streams it into its sink,
/// and the replica applies it, whether it came from a snapshot, a log
/// file or the replication stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpRef<'a> {
    Set(SetRef<'a>),
    Delete(&'a [u8]),
    FlushAll,
}

/// What one decoded frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload<'a> {
    Op(OpRef<'a>),
    /// Replication keep-alive carrying the primary's latest assigned
    /// LSN, so an idle replica can compute its lag. Wire-only.
    Heartbeat { last_lsn: u64 },
}

/// One frame, borrowed from the buffer it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    pub lsn: u64,
    pub payload: Payload<'a>,
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
pub fn encode_op(op: OpRef<'_>, lsn: u64, out: &mut Vec<u8>) -> usize {
    frame(out, |out| match op {
        OpRef::Set(set) => {
            out.push(TAG_SET);
            put_u64(out, lsn);
            put_set(out, &set);
        }
        OpRef::Delete(key) => {
            out.push(TAG_DELETE);
            put_u64(out, lsn);
            put_bytes(out, key);
        }
        OpRef::FlushAll => {
            out.push(TAG_FLUSH_ALL);
            put_u64(out, lsn);
        }
    })
}

/// Appends one heartbeat frame carrying `last_lsn` to `out`. Its own
/// LSN is 0: it is not a record of the log.
pub fn encode_heartbeat(last_lsn: u64, out: &mut Vec<u8>) -> usize {
    frame(out, |out| {
        out.push(TAG_HEARTBEAT);
        put_u64(out, 0);
        put_u64(out, last_lsn);
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
pub enum Decoded<'a> {
    /// One whole frame occupying `consumed` bytes.
    Frame { frame: Frame<'a>, consumed: usize },
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

/// Decodes one frame from the front of `buf`, borrowing its keys and
/// values from `buf`.
pub fn decode(buf: &[u8]) -> Decoded<'_> {
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
    match payload_of(&mut Reader::new(payload)) {
        Some(frame) => Decoded::Frame { frame, consumed: FRAME_HEADER + len },
        None => Decoded::Corrupt,
    }
}

/// A CRC-valid payload's frame; `None` for an unknown tag, a short
/// field, or trailing bytes — a valid encoder never produces them.
fn payload_of<'a>(r: &mut Reader<'a>) -> Option<Frame<'a>> {
    let tag = r.take(1)?[0];
    let lsn = r.u64()?;
    let payload = match tag {
        TAG_SET => Payload::Op(OpRef::Set(r.set()?)),
        TAG_DELETE => Payload::Op(OpRef::Delete(r.slice()?)),
        TAG_FLUSH_ALL => Payload::Op(OpRef::FlushAll),
        TAG_HEARTBEAT => Payload::Heartbeat { last_lsn: r.u64()? },
        _ => return None,
    };
    r.is_done().then_some(Frame { lsn, payload })
}

/// Hands every whole frame at the front of `buf` to `f`, in order, as
/// each one decodes, and returns the bytes they occupy. Stops at the
/// first incomplete or corrupt frame, so a result shorter than `buf`
/// means `buf` ends torn; an error from `f` stops it too.
pub fn decode_each<'a>(buf: &'a [u8], mut f: impl FnMut(Frame<'a>) -> io::Result<()>) -> io::Result<usize> {
    let mut pos = 0;
    while let Decoded::Frame { frame, consumed } = decode(&buf[pos..]) {
        f(frame)?;
        pos += consumed;
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SET: SetRef<'static> = SetRef { key: b"alpha", flags: 7, expires_at: 123, cas: 42, value: b"the value" };

    /// Every kind of frame, each at LSN `i + 1` but the heartbeat, whose
    /// LSN is always 0.
    fn sample_frames() -> Vec<Frame<'static>> {
        let empty = SetRef { key: b"", flags: 0, expires_at: 0, cas: 0, value: b"" };
        let ops = [OpRef::Set(SET), OpRef::Set(empty), OpRef::Delete(b"beta"), OpRef::FlushAll];
        let mut frames: Vec<Frame<'static>> =
            (1..).zip(ops).map(|(lsn, op)| Frame { lsn, payload: Payload::Op(op) }).collect();
        frames.push(Frame { lsn: 0, payload: Payload::Heartbeat { last_lsn: 999 } });
        frames
    }

    fn encode(frame: &Frame<'_>, out: &mut Vec<u8>) -> usize {
        match frame.payload {
            Payload::Op(op) => encode_op(op, frame.lsn, out),
            Payload::Heartbeat { last_lsn } => encode_heartbeat(last_lsn, out),
        }
    }

    #[test]
    fn roundtrip_every_op() {
        for want in sample_frames() {
            let mut buf = Vec::new();
            let n = encode(&want, &mut buf);
            assert_eq!(n, buf.len());
            match decode(&buf) {
                Decoded::Frame { frame, consumed } => {
                    assert_eq!(consumed, buf.len());
                    assert_eq!(frame, want);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn concatenated_frames_decode_in_order() {
        let mut buf = Vec::new();
        for frame in sample_frames() {
            encode(&frame, &mut buf);
        }
        let mut decoded = Vec::new();
        let valid = decode_each(&buf, |f| {
            decoded.push(f);
            Ok(())
        });
        assert_eq!(valid.unwrap(), buf.len());
        assert_eq!(decoded, sample_frames());
    }

    #[test]
    fn every_truncation_is_incomplete_never_panics() {
        let mut buf = Vec::new();
        encode_op(OpRef::Set(SET), 9, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(decode(&buf[..cut]), Decoded::Incomplete, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let mut clean = Vec::new();
        encode_op(OpRef::Delete(b"victim"), 5, &mut clean);
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

    /// A CRC-valid frame whose payload no encoder writes is corrupt:
    /// an unknown tag, a short field, or bytes after the last field.
    #[test]
    fn malformed_payloads_are_corrupt() {
        let framed = |payload: &[u8]| {
            let mut out = Vec::new();
            frame(&mut out, |out| out.extend_from_slice(payload));
            out
        };
        let mut delete = vec![TAG_DELETE];
        delete.extend_from_slice(&5u64.to_le_bytes());
        delete.extend_from_slice(&3u32.to_le_bytes());
        delete.extend_from_slice(b"key");
        assert!(matches!(decode(&framed(&delete)), Decoded::Frame { .. }), "the well-formed base case");
        let mut unknown_tag = delete.clone();
        unknown_tag[0] = 9;
        let short = &delete[..delete.len() - 1];
        let mut trailing = delete.clone();
        trailing.push(0);
        for (what, payload) in [("unknown tag", &unknown_tag[..]), ("short field", short), ("trailing byte", &trailing[..])] {
            assert_eq!(decode(&framed(payload)), Decoded::Corrupt, "{what}");
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
