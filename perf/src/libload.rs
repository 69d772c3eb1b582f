//! Library workloads: two threads of this process on one
//! `OptimisticCuckooMap<u64, u64>`, nothing between them and the table.

use crate::gen::{lib_key, lib_val, Rng};
use crate::run::{counters_since, parse_stat_lines, Window, WARM};
use crate::sys;
use crate::trace::{Span, SpanName};
use cuckoo::OptimisticCuckooMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

type Table = OptimisticCuckooMap<u64, u64>;

/// 2^22 slots × 16 B of keys and values is 64 MiB, far beyond L2; the
/// paper's 2^27 does not fit the time a run is allowed.
const SLOTS: usize = 1 << 22;
const LOAD: f64 = 0.95;
pub const THREADS: u64 = 2;
/// One call in this many is timed when tracing is off.
const SAMPLE_EVERY: u64 = 64;
/// Reads that must miss, per 65536.
const MISS_PER_64K: u64 = 3277;
/// Spans kept per thread in a traced window.
const SPAN_CAP: usize = 100_000;

/// Per-thread record of timed calls.
struct Timed {
    /// Call `i` is timed when `i & mask == 0`.
    mask: u64,
    sum_ns: u64,
    calls: u64,
    lat: Vec<u32>,
    spans: Vec<Span>,
    epoch: Instant,
    thread: u32,
}

impl Timed {
    fn new(traced: bool, epoch: Instant, thread: u64) -> Timed {
        Timed {
            mask: if traced { 0 } else { SAMPLE_EVERY - 1 },
            sum_ns: 0,
            calls: 0,
            lat: Vec::with_capacity(1 << 20),
            spans: Vec::with_capacity(if traced { SPAN_CAP } else { 0 }),
            epoch,
            thread: thread as u32,
        }
    }

    /// Runs `f`, timing it when call number `i` is a sampled one.
    #[inline(always)]
    fn call<R>(&mut self, i: u64, f: impl FnOnce() -> R) -> R {
        if i & self.mask != 0 {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        self.sum_ns += ns;
        self.calls += 1;
        if self.lat.len() < self.lat.capacity() {
            self.lat.push(ns.min(u32::MAX as u64) as u32);
        }
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                name: SpanName::TableOp,
                start_ns: (t0 - self.epoch).as_nanos() as u64,
                end_ns: (t1 - self.epoch).as_nanos() as u64,
                // A library call has no parent: it is its own request.
                parent: self.thread << 24 | self.spans.len() as u32,
            });
        }
        r
    }
}

struct ThreadOut {
    ops: u64,
    failed: u64,
    secs: f64,
    timed: Option<Timed>,
}

/// Runs `body(thread)` on [`THREADS`] threads, each on a CPU of its own,
/// released together.
fn on_threads<T: Send>(body: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (barrier, body) = (&barrier, &body);
                s.spawn(move || {
                    sys::pin_to(sys::cpu_of_thread(t as usize));
                    barrier.wait();
                    body(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// Thread `t` inserts its share of keys `0..n`; every error is a
/// failure (keys are distinct and the table is sized for them).
/// `timing` is `(traced, epoch)`, or `None` for an untimed set-up fill.
fn fill(map: &Table, seed: u64, n: u64, timing: Option<(bool, Instant)>) -> Vec<ThreadOut> {
    on_threads(|t| {
        let mut timed = timing.map(|(traced, epoch)| Timed::new(traced, epoch, t));
        let t0 = Instant::now();
        let mut failed = 0;
        for i in 0..n / THREADS {
            let key = lib_key(seed, i * THREADS + t);
            let insert = || map.insert(key, lib_val(key));
            let r = match &mut timed {
                Some(timed) => timed.call(i, insert),
                None => insert(),
            };
            failed += r.is_err() as u64;
        }
        ThreadOut {
            ops: n / THREADS,
            failed,
            secs: t0.elapsed().as_secs_f64(),
            timed,
        }
    })
}

/// Uniform reads over keys `0..n` with 5 % misses, every value checked,
/// until `stop`.
fn read(
    map: &Table,
    seed: u64,
    n: u64,
    traced: bool,
    epoch: Instant,
    lane: u64,
    stop: &AtomicBool,
) -> Vec<ThreadOut> {
    on_threads(|t| {
        let mut timed = Timed::new(traced, epoch, t);
        let mut rng = Rng::new(seed, lane + t);
        let t0 = Instant::now();
        let (mut ops, mut failed) = (0u64, 0u64);
        while ops % 256 != 0 || !stop.load(Ordering::Relaxed) {
            let r = rng.next_u64();
            let idx = ((r >> 32) * n) >> 32;
            let miss = (r & 0xffff) < MISS_PER_64K;
            // Keys past 2^40 were never inserted.
            let key = lib_key(seed, if miss { idx | 1 << 40 } else { idx });
            let got = timed.call(ops, || map.get(&key));
            let want = if miss { None } else { Some(lib_val(key)) };
            failed += (got != want) as u64;
            ops += 1;
        }
        ThreadOut {
            ops,
            failed,
            secs: t0.elapsed().as_secs_f64(),
            timed: Some(timed),
        }
    })
}

fn key_count(map: &Table) -> u64 {
    (map.capacity() as f64 * LOAD) as u64 / THREADS * THREADS
}

/// Folds the threads' records into the window and returns `(ops, failed)`.
fn collect(outs: Vec<ThreadOut>, w: &mut Window) -> (u64, u64) {
    let (mut ops, mut failed) = (0, 0);
    for o in outs {
        ops += o.ops;
        failed += o.failed;
        if let Some(timed) = o.timed {
            w.lat_ns.extend_from_slice(&timed.lat);
            w.span_sum_ns += timed.sum_ns as f64;
            w.span_calls += timed.calls;
            w.spans.extend(timed.spans);
        }
    }
    (ops, failed)
}

/// The table's observability counters, as `stats cuckoo` would give them.
fn scrape(map: &Table) -> Vec<(String, f64)> {
    let mut samples = Vec::new();
    map.metric_samples(&mut samples);
    let mut text = Vec::new();
    metrics::render_stat_lines(&samples, &mut text);
    parse_stat_lines(&String::from_utf8_lossy(&text))
}

/// `lib_fill`: from empty to 0.95 load, timed; then every 8th key read
/// back.
pub fn fill_window(seed: u64, traced: bool) -> Result<Window, String> {
    let mut w = Window::default();
    sys::reset_peak_rss();
    let me = std::process::id();
    let epoch = Instant::now();
    let map = Table::with_capacity(SLOTS);
    let n = key_count(&map);
    w.setup_s = epoch.elapsed().as_secs_f64();

    let cpu0 = sys::cpu_us(me)?;
    let t0 = Instant::now();
    let outs = fill(&map, seed, n, Some((traced, epoch)));
    w.secs = t0.elapsed().as_secs_f64();
    let cpu1 = sys::cpu_us(me)?;
    w.cpu_user_us = cpu1.0 - cpu0.0;
    w.cpu_sys_us = cpu1.1 - cpu0.1;
    let (ops, failed) = collect(outs, &mut w);
    w.ops = ops - failed;
    w.rss_mib = sys::peak_rss_mib(me)?;
    w.scraped = scrape(&map);

    let checked = on_threads(|t| {
        let (mut gets, mut bad) = (0u64, 0u64);
        for i in (0..n / THREADS).step_by(8) {
            let key = lib_key(seed, i * THREADS + t);
            gets += 1;
            bad += (map.get(&key) != Some(lib_val(key))) as u64;
        }
        (gets, bad)
    });
    let len_wrong = map.len() as u64 != n - failed;
    w.attempted = ops + 1 + checked.iter().map(|c| c.0).sum::<u64>();
    w.failed = failed + len_wrong as u64 + checked.iter().map(|c| c.1).sum::<u64>();
    Ok(w)
}

/// `lib_read`: the table filled to 0.95 load in set-up, then reads for
/// `dur`.
pub fn read_window(seed: u64, dur: Duration, traced: bool) -> Result<Window, String> {
    let mut w = Window::default();
    sys::reset_peak_rss();
    let me = std::process::id();
    let epoch = Instant::now();
    let map = Table::with_capacity(SLOTS);
    let n = key_count(&map);
    let fill_failed: u64 = fill(&map, seed, n, None).iter().map(|o| o.failed).sum();
    w.setup_s = epoch.elapsed().as_secs_f64();

    let timed_read = |traced: bool, lane: u64, dur: Duration| {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| read(&map, seed, n, traced, epoch, lane, &stop));
            std::thread::sleep(dur);
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("reader panicked")
        })
    };
    let warm = collect(timed_read(false, 0x20, WARM), &mut Window::default());
    let before = scrape(&map);
    let cpu0 = sys::cpu_us(me)?;
    let outs = timed_read(traced, 0x10, dur);
    let cpu1 = sys::cpu_us(me)?;
    w.cpu_user_us = cpu1.0 - cpu0.0;
    w.cpu_sys_us = cpu1.1 - cpu0.1;
    // Threads stop within 256 calls of each other: their rates add.
    let rate: f64 = outs
        .iter()
        .map(|o| (o.ops - o.failed) as f64 / o.secs)
        .sum();
    let (ops, failed) = collect(outs, &mut w);
    w.ops = ops - failed;
    w.secs = w.ops as f64 / rate;
    w.rss_mib = sys::peak_rss_mib(me)?;
    w.scraped = counters_since(&before, scrape(&map));
    w.attempted = n + warm.0 + ops;
    w.failed = fill_failed + warm.1 + failed;
    Ok(w)
}
