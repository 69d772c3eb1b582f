//! Server workloads: the real `cuckood -t 1` as a child process, driven
//! by one thread of this process over two loopback connections.

use crate::child::{Server, TempDir};
use crate::gen::{ConnGen, KeySel, Poisson};
use crate::run::{counters_since, Window, WARM};
use crate::sys;
use crate::wire::{closed_loop, open_loop, Client, Counts, Until};
use std::path::Path;
use std::time::{Duration, Instant};

pub const CONNS: u64 = 2;
/// Requests per write of the set-up pre-fill.
const PREFILL_BATCH: usize = 128;

#[derive(Clone, Copy)]
pub enum Drive {
    /// Closed loop in batches of this many requests, two batches in
    /// flight per connection, for the window's duration.
    Closed(usize),
    /// The same until every key has been set once, on a server no
    /// request has touched.
    ClosedFill(usize),
    /// Open loop at this many requests per second.
    Paced(f64),
}

/// One server workload's fixed shape.
pub struct NetSpec {
    pub name: &'static str,
    /// `--no-evict`: the growing `CuckooMap` engine, not the CLOCK cache.
    pub no_evict: bool,
    /// `-c`: resident items (CLOCK) or initial capacity (`--no-evict`).
    pub capacity: usize,
    /// Whether the server runs on a data directory (5 ms group commit,
    /// snapshots only at shutdown), is restarted on it after the window,
    /// and must still hold what it acknowledged.
    pub durable: bool,
    pub keys_per_conn: u64,
    pub value_len: usize,
    /// Whether set-up stores every key once.
    pub prefill: bool,
    pub sel: KeySel,
    pub set_frac: f64,
    pub drive: Drive,
}

pub const SPECS: [NetSpec; 4] = [
    NetSpec {
        name: "net_read_zipf",
        no_evict: false,
        capacity: 1 << 21,
        durable: false,
        keys_per_conn: 1 << 19,
        value_len: 32,
        prefill: true,
        sel: KeySel::Zipf,
        set_frac: 0.05,
        drive: Drive::Closed(16),
    },
    NetSpec {
        name: "net_write_fill",
        no_evict: true,
        capacity: 1 << 14,
        durable: false,
        keys_per_conn: 1 << 18,
        value_len: 32,
        prefill: false,
        sel: KeySel::Sequential,
        set_frac: 1.0,
        drive: Drive::ClosedFill(32),
    },
    NetSpec {
        name: "net_durable_set",
        no_evict: false,
        capacity: 1 << 20,
        durable: true,
        keys_per_conn: 1 << 17,
        value_len: 64,
        prefill: false,
        sel: KeySel::Uniform,
        set_frac: 1.0,
        drive: Drive::Closed(16),
    },
    NetSpec {
        name: "net_paced",
        no_evict: false,
        capacity: 1 << 21,
        durable: false,
        keys_per_conn: 1 << 19,
        value_len: 32,
        prefill: true,
        sel: KeySel::Zipf,
        set_frac: 0.10,
        drive: Drive::Paced(20_000.0),
    },
];

/// Keys read back after `net_write_fill` and after the restart of
/// `net_durable_set`.
const READ_BACK: u64 = 10_000;

fn connect(server: &Server, gens: Vec<ConnGen>) -> Result<Vec<Client>, String> {
    gens.into_iter()
        .map(|g| Client::connect(server.addr(), g))
        .collect()
}

/// The server's `stats` and `stats cuckoo` counters.
fn scrape(client: &mut Client) -> Result<Vec<(String, f64)>, String> {
    let mut stats = client.stats("")?;
    stats.extend(client.stats("cuckoo")?);
    Ok(stats)
}

fn read_back(clients: &mut [Client], n: u64, total: &mut Counts) -> Result<(), String> {
    for c in clients.iter_mut() {
        c.gen.mix(KeySel::Uniform, 0.0);
    }
    let got = closed_loop(clients, 16, Until::Sent(n), None)?;
    total.ok += got.ok;
    total.failed += got.failed;
    Ok(())
}

/// One window of `spec`: fresh server, set-up, warm-up, measurement,
/// checks, and the server stopped again.
pub fn window(spec: &NetSpec, bin: &Path, seed: u64, dur: Duration) -> Result<Window, String> {
    let mut w = Window::default();
    // Everything sent outside the measured phase, for the failure count.
    let mut aside = Counts::default();
    let mut note = |c: Counts| {
        aside.ok += c.ok;
        aside.failed += c.failed;
    };

    let t0 = Instant::now();
    let data = if spec.durable {
        Some(TempDir::new(spec.name)?)
    } else {
        None
    };
    let capacity = spec.capacity.to_string();
    let mut args = vec!["-c", &capacity];
    if spec.no_evict {
        args.push("--no-evict");
    }
    if let Some(dir) = &data {
        args.extend(["--fsync-interval-ms", "5", "--snapshot-interval-secs", "0"]);
        args.extend([
            "-d",
            dir.path().to_str().ok_or("non-UTF-8 target directory")?,
        ]);
    }
    let server = Server::spawn(bin, &args)?;
    let gens = (0..CONNS).map(|c| ConnGen::new(seed, c, CONNS, spec.keys_per_conn, spec.value_len));
    let mut clients = connect(&server, gens.collect())?;
    if spec.prefill {
        note(closed_loop(
            &mut clients,
            PREFILL_BATCH,
            Until::SequenceEnd,
            None,
        )?);
    }
    w.setup_s = t0.elapsed().as_secs_f64();

    for c in clients.iter_mut() {
        c.gen.mix(spec.sel, spec.set_frac);
    }
    let warm_end = Instant::now() + WARM;
    match spec.drive {
        Drive::Closed(batch) => note(closed_loop(
            &mut clients,
            batch,
            Until::Time(warm_end),
            None,
        )?),
        // The fill is the whole life of its server: nothing to warm.
        Drive::ClosedFill(_) => {}
        Drive::Paced(rate) => {
            // A schedule of its own, so that the measured one starts on time.
            let mut schedule = Poisson::new(seed ^ 0x3a93, rate);
            note(
                open_loop(
                    &mut clients,
                    &mut schedule,
                    warm_end - WARM,
                    warm_end,
                    &mut Vec::new(),
                )?
                .counts,
            )
        }
    }

    let before = scrape(&mut clients[0])?;
    // Room for every sample beforehand: a vector that grows while the
    // loop runs stalls the client for the copy, and the server runs dry.
    w.lat_ns.reserve(1 << 23);
    let cpu0 = sys::cpu_us(server.pid())?;
    let t1 = Instant::now();
    let counts = match spec.drive {
        Drive::Closed(batch) => closed_loop(
            &mut clients,
            batch,
            Until::Time(t1 + dur),
            Some(&mut w.lat_ns),
        )?,
        Drive::ClosedFill(batch) => {
            closed_loop(&mut clients, batch, Until::SequenceEnd, Some(&mut w.lat_ns))?
        }
        Drive::Paced(rate) => {
            let paced = open_loop(
                &mut clients,
                &mut Poisson::new(seed, rate),
                t1,
                t1 + dur,
                &mut w.lat_ns,
            )?;
            w.late_frac = paced.late as f64 / paced.sent as f64;
            paced.counts
        }
    };
    w.secs = t1.elapsed().as_secs_f64();
    let cpu1 = sys::cpu_us(server.pid())?;
    w.cpu_user_us = cpu1.0 - cpu0.0;
    w.cpu_sys_us = cpu1.1 - cpu0.1;
    w.ops = counts.ok;
    w.scraped = counters_since(&before, scrape(&mut clients[0])?);

    if matches!(spec.drive, Drive::ClosedFill(_)) {
        read_back(&mut clients, READ_BACK, &mut aside)?;
    }
    w.rss_mib = sys::peak_rss_mib(server.pid())?;

    // Connections close before SIGINT, so the drain has nothing to wait for.
    let gens: Vec<ConnGen> = clients.into_iter().map(|c| c.gen).collect();
    server.stop()?;
    if spec.durable {
        let server = Server::spawn(bin, &args)?;
        let mut clients = connect(&server, gens)?;
        read_back(&mut clients, READ_BACK, &mut aside)?;
        drop(clients);
        server.stop()?;
    }
    w.attempted = counts.ok + counts.failed + aside.ok + aside.failed;
    w.failed = counts.failed + aside.failed;
    Ok(w)
}
