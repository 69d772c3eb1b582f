//! Wire equivalence: how a pipelined request stream is cut into reads
//! changes nothing a client or an operator can observe.
//!
//! The connection coalesces whatever complete requests share its
//! receive buffer — runs of `get`/`gets` into one batched store read,
//! runs of `set`/`add`/`replace` into one batched store write — so how
//! much it coalesces depends on how the bytes happened to arrive. The
//! property: a random stream delivered in arbitrary byte pieces, one
//! pump per piece, produces the same reply bytes, the same final store
//! contents and the same `cmd_get` / `get_hits` / `get_misses` /
//! `cmd_set` as the same stream delivered one whole request per pump
//! (which never coalesces anything). Every read therefore observes
//! exactly the writes that precede it on the connection.
//!
//! The connection under test is a real [`Conn`] over a loopback socket
//! pair, pumped by the test itself; the spawned server only lends its
//! context (store, stats) and never sees the socket.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use server::conn::{Conn, PumpResult};
use server::store::now_secs;

/// A small key space, so hits, misses, overwrites and duplicates within
/// one request all happen.
const KEYS: [&str; 6] = ["k0", "k1", "k2", "k3", "k4", "k5"];

/// One generated request as wire bytes. `op` is raw entropy: `(kind,
/// key picks, value salt, noreply / gets)`.
fn request(op: (u8, u64, u8, bool)) -> Vec<u8> {
    let (kind, picks, salt, flag) = op;
    let key = |i: usize| KEYS[(picks >> (8 * i)) as usize % KEYS.len()];
    let noreply = if flag { " noreply" } else { "" };
    let store = |verb: &str, value: &str| {
        format!("{verb} {} {salt} 0 {}{noreply}\r\n{value}\r\n", key(0), value.len()).into_bytes()
    };
    match kind % 12 {
        // get / gets with 1..=6 keys, duplicates welcome.
        0..=4 => {
            let n = 1 + (salt as usize % 3) * (1 + kind as usize % 2);
            let mut line = String::from(if flag { "gets" } else { "get" });
            for i in 0..n.min(6) {
                line.push(' ');
                line.push_str(key(i));
            }
            line.push_str("\r\n");
            line.into_bytes()
        }
        5 | 6 => store("set", &format!("v{salt}")),
        7 => store("add", &format!("a{salt}")),
        8 => store("replace", &format!("r{salt}")),
        // Too large for the CLOCK engine's inline items, fine without.
        9 => store("set", &"x".repeat(300)),
        10 => format!("delete {}{noreply}\r\n", key(0)).into_bytes(),
        // Protocol errors the parser resynchronizes after.
        _ => match salt % 3 {
            0 => b"bogus command\r\n".to_vec(),
            1 => b"get\r\n".to_vec(),
            _ => format!("set {} oops 0 1\r\nz\r\n", key(0)).into_bytes(),
        },
    }
}

/// A [`Conn`] over a loopback pair, with the client end in hand.
struct Wire {
    handle: server::ServerHandle,
    conn: Conn,
    client: TcpStream,
    replies: Vec<u8>,
}

impl Wire {
    fn new(no_evict: bool) -> Self {
        let handle = server::spawn(server::Config {
            port: 0,
            capacity: 1 << 10,
            workers: 1,
            no_evict,
            ..Default::default()
        })
        .expect("spawn");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        client.set_nonblocking(true).unwrap();
        client.set_nodelay(true).unwrap();
        Wire { handle, conn: Conn::new(served), client, replies: Vec::new() }
    }

    /// Delivers `bytes`, then pumps until the connection has served
    /// what it holds and collects the replies so far.
    fn feed(&mut self, bytes: &[u8]) {
        self.client.write_all(bytes).unwrap();
        while self.pump() {}
        let mut chunk = [0u8; 4096];
        loop {
            match self.client.read(&mut chunk) {
                Ok(0) => panic!("server side closed the connection"),
                Ok(n) => self.replies.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("client read: {e}"),
            }
        }
    }

    /// One service cycle; whether it moved bytes or ran requests.
    fn pump(&mut self) -> bool {
        match self.conn.pump(self.handle.ctx()) {
            PumpResult::Open { progress } => progress,
            other => panic!("connection ended: {other:?}"),
        }
    }

    /// Feeds nothing more until the reply to the stream's closing
    /// `version` has arrived: everything before it has been served.
    fn settle(&mut self) {
        let done = format!("VERSION {}\r\n", server::VERSION);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !self.replies.ends_with(done.as_bytes()) {
            assert!(Instant::now() < deadline, "stream never finished: {:?}", self.observed());
            self.feed(b"");
        }
    }

    fn observed(&self) -> Observed {
        let ctx = self.handle.ctx();
        let mut items = Vec::new();
        while !{
            items.clear();
            ctx.store.scan_entries(now_secs(), &mut |e| {
                items.push((e.key.to_vec(), e.flags, e.cas, e.value.to_vec()))
            })
        } {}
        items.sort();
        let cache = ctx.store.stats().cache;
        Observed {
            replies: String::from_utf8_lossy(&self.replies).into_owned(),
            items,
            cmd_get: ctx.stats.get_latency.len(),
            get_hits: cache.hits,
            get_misses: cache.misses,
            cmd_set: ctx.stats.store_latency.len(),
        }
    }
}

/// Everything a client or an operator can observe of one served stream.
#[derive(Debug, PartialEq)]
struct Observed {
    replies: String,
    /// `(key, flags, cas, value)` of every resident item, sorted.
    items: Vec<(Vec<u8>, u32, u64, Vec<u8>)>,
    cmd_get: u64,
    get_hits: u64,
    get_misses: u64,
    cmd_set: u64,
}

proptest! {
    #[test]
    fn any_split_of_a_pipelined_stream_serves_it_like_one_request_per_pump(
        ops in collection::vec((any::<u8>(), any::<u64>(), any::<u8>(), any::<bool>()), 1..48),
        cuts in collection::vec(any::<u16>(), 0..16),
        no_evict in any::<bool>(),
    ) {
        let mut requests: Vec<Vec<u8>> = ops.into_iter().map(request).collect();
        requests.push(b"version\r\n".to_vec());
        // An incomplete tail: never answered, never executed.
        requests.push(b"set k0 0 0 10\r\nabc".to_vec());

        let mut one_per_pump = Wire::new(no_evict);
        for request in &requests {
            one_per_pump.feed(request);
        }
        one_per_pump.settle();

        let stream = requests.concat();
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % stream.len()).collect();
        cuts.extend([0, stream.len()]);
        cuts.sort_unstable();
        let mut split = Wire::new(no_evict);
        for piece in cuts.windows(2) {
            split.feed(&stream[piece[0]..piece[1]]);
        }
        split.settle();

        prop_assert_eq!(split.observed(), one_per_pump.observed());
        one_per_pump.handle.shutdown();
        split.handle.shutdown();
    }
}
