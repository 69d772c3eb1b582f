//! Golden bytes: the on-disk and wire layout, pinned with committed hex.
//! One frame per tag and a two-entry snapshot; the encoders must write
//! exactly these bytes and the decoders must read them back. A change
//! here is a format change: old directories and old replicas could no
//! longer read what a new binary writes.

#![cfg(not(cuckoo_model))]

use persist::record::{decode, encode_heartbeat, encode_op, Decoded, Frame, Payload};
use persist::{snapshot, OpRef, SetRef};

const SET: SetRef<'static> = SetRef { key: b"k1", flags: 3, expires_at: 1_700_000_000, cas: 42, value: b"v1" };

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.split_whitespace().collect();
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// Every tag's frame and its bytes, spaced as
/// `crc32 | len | tag | lsn | fields`.
fn golden_frames() -> [(Frame<'static>, &'static str); 4] {
    let op = |lsn, op| Frame { lsn, payload: Payload::Op(op) };
    [
        (
            op(5, OpRef::Set(SET)),
            // key "k1" | flags 3 | expires_at 1_700_000_000 | cas 42 | value "v1"
            "7ed6794a 25000000 01 0500000000000000 \
             02000000 6b31 03000000 00f15365 2a00000000000000 02000000 7631",
        ),
        (op(6, OpRef::Delete(b"k1")), "9dea881d 0f000000 02 0600000000000000 02000000 6b31"),
        (op(7, OpRef::FlushAll), "722141d5 09000000 03 0700000000000000"),
        (
            // A heartbeat's own LSN is 0; it carries last_lsn 7.
            Frame { lsn: 0, payload: Payload::Heartbeat { last_lsn: 7 } },
            "6bdf22b0 11000000 04 0000000000000000 0700000000000000",
        ),
    ]
}

#[test]
fn every_frame_tag_encodes_and_decodes_the_golden_bytes() {
    for (frame, hex) in golden_frames() {
        let want = unhex(hex);
        let mut out = Vec::new();
        let n = match frame.payload {
            Payload::Op(op) => encode_op(op, frame.lsn, &mut out),
            Payload::Heartbeat { last_lsn } => encode_heartbeat(last_lsn, &mut out),
        };
        assert_eq!((n, &out), (want.len(), &want), "{frame:?}");
        assert_eq!(decode(&want), Decoded::Frame { frame, consumed: want.len() });
    }
}

#[test]
fn a_two_entry_snapshot_writes_and_loads_the_golden_bytes() {
    let entries = [
        SetRef { key: b"k1", flags: 3, expires_at: 0, cas: 42, value: b"v1" },
        SetRef { key: b"k2", flags: 0, expires_at: 1_700_000_000, cas: 43, value: b"value2" },
    ];
    // magic "CKSNAP1\n" | covers_lsn 7 | n_entries 2 | entries | crc32
    let want = unhex(
        "434b534e4150310a 0700000000000000 0200000000000000 \
         02000000 6b31 03000000 00000000 2a00000000000000 02000000 7631 \
         02000000 6b32 00000000 00f15365 2b00000000000000 06000000 76616c756532 \
         9f730295",
    );
    let dir = std::env::temp_dir().join(format!("persist-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scan = |f: &mut dyn FnMut(SetRef<'_>)| {
        entries.iter().for_each(|&e| f(e));
        true
    };
    assert_eq!(snapshot::write(&dir, 7, &scan).unwrap(), 2);
    assert_eq!(std::fs::read(dir.join(snapshot::SNAPSHOT_FILE)).unwrap(), want);

    let snap = snapshot::load(&dir).unwrap().unwrap();
    assert_eq!(snap.covers_lsn, 7);
    let mut loaded = Vec::new();
    snap.for_each(|e| loaded.push(e)).unwrap();
    assert_eq!(loaded, entries);
    std::fs::remove_dir_all(&dir).unwrap();
}
