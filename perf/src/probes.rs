//! Layer probes: each layer's public functions timed alone from this
//! package, single-threaded unless the name ends in `_t2`. They explain
//! an end-to-end number; they never stand in for one. The functions
//! called here are the pinned API surface listed in README.md.

use crate::child::{Server, TempDir};
use crate::gen::{key_bytes, value_bytes, ConnGen, KeySel, Rng, Zipf, ZIPF_S};
use crate::stats::{median, percentile};
use crate::sys;
use crate::wire::{Client, Counts};
use cache::ClockCache;
use cuckoo::bucket::BucketMeta;
use cuckoo::hash::{RandomState, SipHashBuilder};
use cuckoo::sync::{LockStripes, VersionLock};
use cuckoo::{CuckooMap, OptimisticCuckooMap};
use metrics::persist::PersistMetrics;
use persist::PersistConfig;
use server::persist_store::PersistentStore;
use server::proto::{self, StoreVerb};
use server::store::{now_secs, ClockStore, CuckooStore, Store, StoreCmd};
use std::hash::{BuildHasher, Hasher};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub type Metrics = Vec<(&'static str, f64)>;

/// Mean ns per call of `f(i)` over `iters` calls: the median of five
/// repetitions.
fn ns_per(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&reps)
}

/// Mean ns per item of one pass of `f` over `items` items; for calls
/// that change what they measure and so cannot be repeated in place.
fn once_ns(items: u64, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / items as f64
}

/// Keeps `x` from being optimised away.
fn sink<T>(x: T) {
    black_box(x);
}

fn key17(id: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(17);
    key_bytes(id, &mut k);
    k
}

fn value(id: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    value_bytes(id, 1, len, &mut v);
    v
}

fn hash_and_bucket(m: &mut Metrics) {
    let fx = RandomState::with_seed(1);
    m.push((
        "hash.u64_ns",
        ns_per(2_000_000, |i| sink(fx.hash_one(black_box(i)))),
    ));
    let sip = SipHashBuilder::with_keys(1, 2);
    let key = key17(7);
    m.push((
        "hash.key17_ns",
        ns_per(1_000_000, |_| {
            let mut h = sip.build_hasher();
            h.write(black_box(&key));
            black_box(h.finish());
        }),
    ));

    let metas: Vec<BucketMeta<8>> = (0..1024u64)
        .map(|b| {
            let meta = BucketMeta::new();
            for slot in 0..8 {
                meta.set_partial(slot, (b * 8 + slot as u64) as u8 | 1);
                meta.set_occupied(slot);
            }
            meta
        })
        .collect();
    let probe = |i: u64| &metas[(i & 1023) as usize];
    m.push((
        "bucket.tag_probe_ns",
        ns_per(4_000_000, |i| sink(probe(i).match_tag_mask(i as u8 | 1))),
    ));
    m.push((
        "bucket.tag_probe_swar_ns",
        ns_per(4_000_000, |i| {
            sink(probe(i).match_tag_mask_swar(i as u8 | 1))
        }),
    ));
}

fn sync(m: &mut Metrics) {
    let lock = VersionLock::new();
    m.push((
        "sync.seqlock_read_ns",
        ns_per(4_000_000, |_| {
            let stamp = black_box(&lock).read_begin();
            black_box(lock.read_validate(stamp));
        }),
    ));
    let stripes = LockStripes::new(2048);
    m.push((
        "sync.lock_pair_ns",
        ns_per(2_000_000, |i| {
            drop(stripes.lock_pair(i as usize, (i as usize).wrapping_mul(31) + 7))
        }),
    ));
    // Two threads taking the same pair: what a contended acquisition
    // costs the thread that makes it.
    const N: u64 = 400_000;
    let barrier = Barrier::new(2);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (barrier, stripes) = (&barrier, &stripes);
                s.spawn(move || {
                    sys::pin_to(sys::cpu_of_thread(t));
                    barrier.wait();
                    once_ns(N, || (0..N).for_each(|_| drop(stripes.lock_pair(3, 11))))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("locker panicked"))
            .collect()
    });
    m.push((
        "sync.lock_pair_contended_t2_ns",
        per_thread.iter().sum::<f64>() / 2.0,
    ));
}

type Table = OptimisticCuckooMap<u64, u64>;
const TABLE_SLOTS: usize = 1 << 20;

/// Inserts keys `from..to` split over `threads`; returns wall seconds.
fn table_fill(map: &Table, from: u64, to: u64, threads: u64) -> f64 {
    let barrier = Barrier::new(threads as usize);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let barrier = &barrier;
            s.spawn(move || {
                sys::pin_to(sys::cpu_of_thread(t as usize));
                barrier.wait();
                for k in (from + t..to).step_by(threads as usize) {
                    map.insert(crate::gen::mix64(k), k)
                        .expect("probe table sized for its keys");
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

fn table(m: &mut Metrics) {
    let map = Table::with_capacity(TABLE_SLOTS);
    let cap = map.capacity() as u64;
    let at = |load: f64| (cap as f64 * load) as u64;
    let key = crate::gen::mix64;
    table_fill(&map, 0, at(0.45), 1);
    m.push((
        "table.insert_ns_load50",
        table_fill(&map, at(0.45), at(0.50), 1) * 1e9 / (at(0.50) - at(0.45)) as f64,
    ));
    table_fill(&map, at(0.50), at(0.90), 1);
    m.push((
        "table.insert_ns_load95",
        table_fill(&map, at(0.90), at(0.95), 1) * 1e9 / (at(0.95) - at(0.90)) as f64,
    ));
    let n = at(0.95);
    m.push((
        "table.bytes_per_entry",
        map.memory_bytes() as f64 / map.len() as f64,
    ));

    let mut rng = Rng::new(1, 0x7ab);
    m.push((
        "table.get_hit_ns",
        ns_per(500_000, |_| sink(map.get(&key(rng.below(n))))),
    ));
    m.push((
        "table.get_miss_ns",
        ns_per(500_000, |_| sink(map.get(&key(n + rng.below(n))))),
    ));
    let mut out = Vec::with_capacity(16);
    m.push((
        "table.get_many16_ns_per_key",
        ns_per(40_000, |_| {
            let keys: [u64; 16] = std::array::from_fn(|_| key(rng.below(n)));
            map.get_many_into(&keys, &mut out);
            black_box(&out);
        }) / 16.0,
    ));
    // Two readers for 0.2 s each.
    let barrier = Barrier::new(2);
    let rates: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let (map, barrier) = (&map, &barrier);
                s.spawn(move || {
                    sys::pin_to(sys::cpu_of_thread(t as usize));
                    let mut rng = Rng::new(2, t);
                    barrier.wait();
                    let (t0, mut ops) = (Instant::now(), 0u64);
                    while ops % 1024 != 0 || t0.elapsed() < Duration::from_millis(200) {
                        black_box(map.get(&key(rng.below(n))));
                        ops += 1;
                    }
                    ops as f64 / t0.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect()
    });
    m.push(("table.get_mops_t2", rates.iter().sum::<f64>() / 1e6));
    let removed = at(0.05);
    m.push((
        "table.remove_ns",
        once_ns(removed, || {
            (0..removed).for_each(|k| sink(map.remove(&key(k))))
        }),
    ));
    drop(map);

    let mops =
        |threads| n as f64 / table_fill(&Table::with_capacity(TABLE_SLOTS), 0, n, threads) / 1e6;
    let (t1, t2) = (mops(1), mops(2));
    m.push(("table.insert_mops_t2", t2));
    m.push(("table.insert_scaling_t2", t2 / t1));
}

fn map(m: &mut Metrics) {
    const START: u64 = 1 << 16;
    let map: CuckooMap<u64, u64> = CuckooMap::with_capacity(START as usize);
    let key = crate::gen::mix64;
    let half = map.capacity() as u64 / 2;
    m.push((
        "map.insert_ns",
        once_ns(half, || {
            (0..half).for_each(|k| map.insert(key(k), k).expect("fresh key"))
        }),
    ));
    let mut rng = Rng::new(1, 0x3a9);
    m.push((
        "map.get_ns",
        ns_per(500_000, |_| sink(map.get(&key(rng.below(half))))),
    ));
    // Insert on past the first capacity, through one doubling and its
    // incremental migration, timing every insert.
    let mut lat: Vec<u32> = (half..2 * map.capacity() as u64)
        .map(|k| {
            let t0 = Instant::now();
            map.insert(key(k), k).expect("fresh key");
            t0.elapsed().as_nanos() as u32
        })
        .collect();
    lat.sort_unstable();
    m.push(("map.grow_insert_p99_us", percentile(&lat, 0.99) / 1e3));
}

fn cache(m: &mut Metrics) {
    const CAP: u64 = 1 << 18;
    let cache: ClockCache<u64> = ClockCache::new(CAP as usize);
    let key = crate::gen::mix64;
    m.push((
        "cache.put_ns",
        once_ns(CAP, || (0..CAP).for_each(|k| cache.put(key(k), k))),
    ));
    let mut rng = Rng::new(1, 0xcac);
    m.push((
        "cache.get_ns",
        ns_per(500_000, |_| sink(cache.get(key(rng.below(CAP))))),
    ));
    // Full: every put of a new key evicts.
    m.push((
        "cache.put_evicting_ns",
        once_ns(CAP, || (CAP..2 * CAP).for_each(|k| cache.put(key(k), k))),
    ));
}

/// Request material for the store and protocol probes: `n` keys with
/// their 32-byte values.
struct Items {
    keys: Vec<Vec<u8>>,
    values: Vec<Vec<u8>>,
}

impl Items {
    fn new(n: u64) -> Items {
        Items {
            keys: (0..n).map(key17).collect(),
            values: (0..n).map(|id| value(id, 32)).collect(),
        }
    }

    fn set(&self, store: &dyn Store, i: usize, now: u32) {
        black_box(store.store(StoreVerb::Set, &self.keys[i], 0, 0, &self.values[i], now));
    }
}

fn store(m: &mut Metrics) {
    // The shape of `net_read_zipf`: 2^20 resident keys, Zipf reads.
    const KEYS: u64 = 1 << 20;
    let items = Items::new(KEYS);
    let now = now_secs();
    let zipf = Zipf::new(KEYS, ZIPF_S);
    let mut rng = Rng::new(1, 0x570);
    let clock = ClockStore::new(2 * KEYS as usize);
    (0..KEYS as usize).for_each(|i| items.set(&clock, i, now));
    // Drawn beforehand: a Zipf draw costs as much as the calls timed.
    let picks: Vec<u32> = (0..1 << 18).map(|_| zipf.sample(&mut rng) as u32).collect();
    let mut next = 0;
    let mut pick = || {
        next = (next + 1) % picks.len();
        picks[next] as usize
    };
    m.push((
        "store.clock_get_ns",
        ns_per(300_000, |_| sink(clock.get(&items.keys[pick()], now))),
    ));
    m.push((
        "store.clock_set_ns",
        ns_per(300_000, |_| items.set(&clock, pick(), now)),
    ));
    let mut got = Vec::new();
    m.push((
        "store.get_many16_ns_per_key",
        ns_per(20_000, |_| {
            let keys: [&[u8]; 16] = std::array::from_fn(|_| &items.keys[pick()][..]);
            clock.get_many(&keys, now, &mut got);
            black_box(&got);
        }) / 16.0,
    ));
    let mut outcomes = Vec::new();
    m.push((
        "store.set_many16_ns_per_key",
        ns_per(20_000, |_| {
            let cmds: [StoreCmd<'_>; 16] = std::array::from_fn(|_| {
                let i = pick();
                StoreCmd {
                    verb: StoreVerb::Set,
                    key: &items.keys[i],
                    flags: 0,
                    exptime: 0,
                    data: &items.values[i],
                }
            });
            clock.store_many(&cmds, now, &mut outcomes);
            black_box(&outcomes);
        }) / 16.0,
    ));
    drop(clock);

    // The shape of `net_write_fill`: fresh keys into a growing map.
    const FILL: u64 = 1 << 18;
    let cuckoo = CuckooStore::new(1 << 14);
    m.push((
        "store.cuckoo_set_ns",
        once_ns(FILL, || {
            (0..FILL as usize).for_each(|i| items.set(&cuckoo, i, now))
        }),
    ));
    let mut rng = Rng::new(1, 0x571);
    m.push((
        "store.cuckoo_get_ns",
        ns_per(300_000, |_| {
            sink(cuckoo.get(&items.keys[rng.below(FILL) as usize], now))
        }),
    ));
}

fn protocol(m: &mut Metrics) {
    const N: u64 = 1024;
    let items = Items::new(16 * N);
    let request = |verb: &str, ids: std::ops::Range<u64>, with_value: bool| {
        let mut r = verb.as_bytes().to_vec();
        for id in ids.clone() {
            r.push(b' ');
            r.extend_from_slice(&items.keys[id as usize]);
        }
        if with_value {
            r.extend_from_slice(b" 0 0 32\r\n");
            r.extend_from_slice(&items.values[ids.start as usize]);
        }
        r.extend_from_slice(b"\r\n");
        r
    };
    let gets: Vec<Vec<u8>> = (0..N).map(|i| request("get", i..i + 1, false)).collect();
    let sets: Vec<Vec<u8>> = (0..N).map(|i| request("set", i..i + 1, true)).collect();
    let get16s: Vec<Vec<u8>> = (0..N)
        .map(|i| request("get", 16 * i..16 * i + 16, false))
        .collect();
    let parse = |reqs: &[Vec<u8>], i: u64| sink(proto::parse(black_box(&reqs[(i % N) as usize])));
    m.push(("proto.parse_get_ns", ns_per(1_000_000, |i| parse(&gets, i))));
    m.push(("proto.parse_set_ns", ns_per(1_000_000, |i| parse(&sets, i))));
    m.push((
        "proto.parse_get16_ns_per_key",
        ns_per(100_000, |i| parse(&get16s, i)) / 16.0,
    ));
    let mut out = Vec::with_capacity(1 << 16);
    m.push((
        "proto.encode_value_ns",
        ns_per(1_000_000, |i| {
            if i % 512 == 0 {
                out.clear();
            }
            let i = (i % N) as usize;
            proto::encode_value(&mut out, &items.keys[i], 0, &items.values[i], None);
            proto::encode_end(&mut out);
            black_box(&out);
        }),
    ));
}

/// Round trips of `version` on connection A of a real server: idle, so
/// that each finds the worker parked, and while a closed loop of 64-get
/// batches on connection B keeps the worker from ever parking.
fn server_rtt(bin: &Path, m: &mut Metrics) -> Result<(), String> {
    const TRIPS: usize = 400;
    let server = Server::spawn(bin, &[])?;
    let gen = |c| ConnGen::new(1, c, 2, 1 << 10, 32);
    let mut a = Client::connect(server.addr(), gen(0))?;
    let mut b = Client::connect(server.addr(), gen(1))?;
    b.gen.mix(KeySel::Uniform, 0.0);
    let p50_us = |trips: Result<Vec<u32>, String>| {
        let mut trips = trips?;
        trips.sort_unstable();
        Ok::<f64, String>(percentile(&trips, 0.5) / 1e3)
    };
    let idle = (0..TRIPS)
        .map(|_| a.version_rtt(|| Ok(())).map(|d| d.as_nanos() as u32))
        .collect();
    m.push(("server.rtt_idle_us", p50_us(idle)?));
    let mut counts = Counts::default();
    let busy = (0..TRIPS)
        .map(|_| {
            a.version_rtt(|| b.keep_busy(64, &mut counts))
                .map(|d| d.as_nanos() as u32)
        })
        .collect();
    m.push(("server.rtt_busy_us", p50_us(busy)?));
    b.drain(&mut counts)?;
    if counts.failed != 0 {
        return Err(format!("rtt probe: {} wrong replies", counts.failed));
    }
    drop((a, b));
    server.stop().map(|_| ())
}

fn persistence(m: &mut Metrics) -> Result<(), String> {
    const N: u64 = 10_000;
    let items = Items::new(N);
    let now = now_secs();
    let dir = TempDir::new("probe-persist")?;
    let open = || {
        let mut cfg = PersistConfig::new(dir.path());
        cfg.snapshot_interval = Duration::ZERO;
        let metrics = Arc::new(PersistMetrics::new());
        PersistentStore::open(
            Arc::new(ClockStore::new(1 << 16)),
            cfg,
            Arc::clone(&metrics),
        )
        .map(|(store, recovered)| (store, recovered, metrics))
        .map_err(|e| format!("{}: {e}", dir.path().display()))
    };
    let bare = ClockStore::new(1 << 16);
    let bare_ns = once_ns(N, || (0..N as usize).for_each(|i| items.set(&bare, i, now)));
    let (store, _, metrics) = open()?;
    let logged_ns = once_ns(N, || {
        (0..N as usize).for_each(|i| items.set(store.as_ref(), i, now))
    });
    m.push(("persist.store_overhead_ns", logged_ns - bare_ns));
    m.push((
        "persist.sync_ms",
        once_ns(1, || store.persister().sync()) / 1e6,
    ));
    m.push((
        "persist.log_bytes_per_op",
        metrics.log_bytes.get() as f64 / metrics.log_records.get() as f64,
    ));
    store
        .persist_shutdown()
        .map_err(|e| format!("persist shutdown: {e}"))?;
    drop(store);
    let t0 = Instant::now();
    let (store, recovered, _) = open()?;
    m.push(("persist.restart_ms", t0.elapsed().as_secs_f64() * 1e3));
    if recovered.entries.len() as u64 != N {
        return Err(format!(
            "persist probe: {} of {N} entries recovered",
            recovered.entries.len()
        ));
    }
    store
        .persist_shutdown()
        .map_err(|e| format!("persist shutdown: {e}"))
}

/// Every probe, in the order of the catalogue.
pub fn all(bin: &Path) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    hash_and_bucket(&mut m);
    sync(&mut m);
    table(&mut m);
    map(&mut m);
    cache(&mut m);
    store(&mut m);
    protocol(&mut m);
    // As in the server workloads: the client on a CPU of its own.
    sys::on_cpu(sys::cpu_of_thread(0), || server_rtt(bin, &mut m))?;
    persistence(&mut m)?;
    Ok(m)
}
