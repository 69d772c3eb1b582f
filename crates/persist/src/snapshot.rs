//! Snapshot files: a compacted full-table image published atomically.
//!
//! Layout:
//!
//! ```text
//! [magic b"CKSNAP1\n"] [covers_lsn u64 LE] [n_entries u64 LE]
//! n_entries × [klen u32][key][flags u32][expires_at u32][cas u64][vlen u32][value]
//! [crc32 of everything above, u32 LE]
//! ```
//!
//! `covers_lsn` means: every logged op with `lsn ≤ covers_lsn` is
//! already reflected in the entries (or was superseded), so replay may
//! skip them. The file is written to `snapshot.tmp`, fsync'd, then
//! renamed over `snapshot` — a crash mid-write leaves the previous
//! snapshot untouched.

use crate::record::{crc32, put_set, Reader, SetRef};
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;

pub const MAGIC: &[u8; 8] = b"CKSNAP1\n";
pub const SNAPSHOT_FILE: &str = "snapshot";
const TMP_FILE: &str = "snapshot.tmp";
/// Magic, `covers_lsn` and `n_entries`.
const HEADER: usize = MAGIC.len() + 16;

/// A snapshot file, read whole and CRC-checked. Its entries are decoded
/// on demand by [`for_each`](Snapshot::for_each), borrowed from the
/// file buffer.
#[derive(Debug)]
pub struct Snapshot {
    pub covers_lsn: u64,
    n_entries: u64,
    /// The file without its CRC trailer.
    body: Vec<u8>,
}

impl Snapshot {
    /// Hands every entry to `f`, in file order. The CRC already covered
    /// the whole file, so a malformed entry is an encoder bug; it still
    /// fails as `InvalidData` rather than a panic.
    pub fn for_each<'a>(&'a self, mut f: impl FnMut(SetRef<'a>)) -> io::Result<()> {
        let mut r = Reader::new(&self.body[HEADER..]);
        for _ in 0..self.n_entries {
            f(r.set().ok_or_else(|| bad("truncated entry"))?);
        }
        if !r.is_done() {
            return Err(bad("trailing bytes"));
        }
        Ok(())
    }
}

/// A pass over a table: hands every live entry to the callback and
/// returns whether the pass was clean. A pass that returns `false` may
/// have missed an entry (the maps' `scan` reports displacement races);
/// its output is discarded and the scan runs again. It may skip
/// already-expired entries.
pub type Scan<'a> = dyn Fn(&mut dyn FnMut(SetRef<'_>)) -> bool + 'a;

/// Appends to `out` one clean pass of `scan`, each entry as `put`
/// encodes it, and returns how many entries that pass held. A dirty
/// pass is cut back off `out` and the scan runs again, so a retry never
/// leaves an entry twice.
pub fn encode_clean_pass(
    scan: &Scan<'_>,
    out: &mut Vec<u8>,
    mut put: impl FnMut(&mut Vec<u8>, SetRef<'_>),
) -> u64 {
    let mark = out.len();
    loop {
        let mut n = 0;
        if scan(&mut |set| {
            put(out, set);
            n += 1;
        }) {
            return n;
        }
        out.truncate(mark);
        // A concurrent displacement may have hidden an entry from that
        // pass; scan again.
        std::thread::yield_now();
    }
}

/// Serializes one clean pass of `scan` covering `covers_lsn` and
/// atomically publishes it as `<dir>/snapshot`. Returns the entries
/// written.
pub fn write(dir: &Path, covers_lsn: u64, scan: &Scan<'_>) -> io::Result<u64> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&covers_lsn.to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes()); // n_entries, once known
    let n_entries = encode_clean_pass(scan, &mut buf, |out, set| put_set(out, &set));
    buf[HEADER - 8..HEADER].copy_from_slice(&n_entries.to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());

    let tmp = dir.join(TMP_FILE);
    let mut f = File::create(&tmp)?;
    f.write_all(&buf)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    // Persist the rename itself so a crash right after publish cannot
    // resurrect the old snapshot.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(n_entries)
}

/// Loads `<dir>/snapshot` and checks its CRC and header. `Ok(None)` if
/// no snapshot exists; an error if one exists but fails validation (the
/// caller decides whether a corrupt snapshot is fatal — it is, unlike a
/// torn log tail, because a snapshot is published atomically and should
/// never be half-written).
pub fn load(dir: &Path) -> io::Result<Option<Snapshot>> {
    let path = dir.join(SNAPSHOT_FILE);
    let mut buf = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    parse(buf).map(Some)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {msg}"))
}

fn parse(mut buf: Vec<u8>) -> io::Result<Snapshot> {
    if buf.len() < HEADER + 4 {
        return Err(bad("too short"));
    }
    let body_len = buf.len() - 4;
    let stored = u32::from_le_bytes(buf[body_len..].try_into().expect("a 4-byte trailer"));
    if crc32(&buf[..body_len]) != stored {
        return Err(bad("crc mismatch"));
    }
    if &buf[..MAGIC.len()] != MAGIC {
        return Err(bad("bad magic"));
    }
    buf.truncate(body_len);
    let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte range"));
    let (covers_lsn, n_entries) = (u64_at(MAGIC.len()), u64_at(MAGIC.len() + 8));
    Ok(Snapshot { covers_lsn, n_entries, body: buf })
}

#[cfg(all(test, not(cuckoo_model)))]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "persist-snap-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// 50 keys and values, owned by the test.
    fn sample() -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..50u32).map(|i| (format!("key-{i}").into_bytes(), vec![i as u8; (i as usize % 40) + 1])).collect()
    }

    /// Item `i` of [`sample`] as the `Set` that stores it.
    fn set_of(i: usize, (key, value): &(Vec<u8>, Vec<u8>)) -> SetRef<'_> {
        let i = i as u32;
        SetRef { key, flags: i, expires_at: if i.is_multiple_of(3) { 0 } else { 1_000_000 + i }, cas: u64::from(i) * 7 + 1, value }
    }

    /// One clean pass over `items`.
    fn scan(items: &[(Vec<u8>, Vec<u8>)]) -> impl Fn(&mut dyn FnMut(SetRef<'_>)) -> bool + '_ {
        move |f| {
            items.iter().enumerate().for_each(|(i, kv)| f(set_of(i, kv)));
            true
        }
    }

    fn entries_of(snap: &Snapshot) -> Vec<SetRef<'_>> {
        let mut out = Vec::new();
        snap.for_each(|s| out.push(s)).unwrap();
        out
    }

    #[test]
    fn roundtrip() {
        let d = tmpdir("roundtrip");
        let items = sample();
        assert_eq!(write(&d, 123, &scan(&items)).unwrap(), 50);
        let snap = load(&d).unwrap().unwrap();
        assert_eq!(snap.covers_lsn, 123);
        let want: Vec<_> = items.iter().enumerate().map(|(i, kv)| set_of(i, kv)).collect();
        assert_eq!(entries_of(&snap), want);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn empty_table_roundtrips() {
        let d = tmpdir("empty");
        write(&d, 0, &scan(&[])).unwrap();
        let snap = load(&d).unwrap().unwrap();
        assert_eq!(snap.covers_lsn, 0);
        assert!(entries_of(&snap).is_empty());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn missing_is_none_corrupt_is_err() {
        let d = tmpdir("corrupt");
        assert!(load(&d).unwrap().is_none());
        write(&d, 9, &scan(&sample())).unwrap();
        let path = d.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(load(&d).is_err());
        // Truncation (a torn publish shouldn't happen thanks to
        // tmp+rename, but belt and braces) is also an error, not a panic.
        fs::write(&path, &bytes[..mid]).unwrap();
        assert!(load(&d).is_err());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let d = tmpdir("rewrite");
        write(&d, 1, &scan(&sample())).unwrap();
        write(&d, 2, &scan(&[])).unwrap();
        let snap = load(&d).unwrap().unwrap();
        assert_eq!(snap.covers_lsn, 2);
        assert!(entries_of(&snap).is_empty());
        assert!(!d.join(TMP_FILE).exists());
        fs::remove_dir_all(&d).unwrap();
    }
}
