//! The accept/worker machinery: thread-per-core workers with sharded
//! connection ownership.
//!
//! One accept thread hands each new socket to a worker over a channel,
//! round-robin; from then on exactly one worker ever touches that
//! connection (no cross-thread connection state, no locks on the hot
//! path — the only shared mutable structures are the concurrent store
//! and the stats counters, which is the point of fronting a concurrent
//! cuckoo table). Workers run a poll-free event loop over their shard:
//! nonblocking sockets, a pump per connection per sweep, and a short
//! park when a sweep makes no progress. That trades idle latency for
//! zero dependencies, and `perf` (PR 11) measured the trade: a lone
//! request that finds the worker parked takes ~300 µs
//! (`server.rtt_idle_us`) against ~54 µs while other traffic keeps the
//! loop sweeping (`server.rtt_busy_us`), and the park sets `p50_us` on
//! the 20 k req/s `net_paced` workload. Load alone does not keep the
//! loop awake either: a closed-loop client with one batch in flight
//! lets the worker run dry and park between batches. With work always
//! queued a request costs about a microsecond of CPU, of which the
//! table is a tenth — sockets, parsing and the store are the rest.
//!
//! Shutdown ([`ServerHandle::shutdown`] or SIGINT via [`crate::signal`])
//! is a drain: the accept loop stops taking sockets, every connection
//! executes the requests it has already received and flushes queued
//! responses (bounded by [`DRAIN_LIMIT`]), then sockets close and the
//! threads join.

// ORDERING-FILE: stats.counter — connection counters for the stats command.
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::conn::{Conn, PumpResult};
use crate::persist_store::PersistentStore;
use crate::signal;
use crate::stats::ServerStats;
use crate::store::{ClockStore, CuckooStore, Store};
use metrics::persist::PersistMetrics;
use persist::PersistConfig;

/// How long a draining shutdown waits for connections to finish.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(5);
/// Idle park between sweeps that made no progress.
const IDLE_PARK: Duration = Duration::from_micros(200);

/// Server configuration (see `cuckood --help`).
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address. Port 0 picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    pub port: u16,
    /// Maximum resident items (clock mode) / initial capacity (no-evict
    /// mode).
    pub capacity: usize,
    /// Worker threads; 0 = one per available core.
    pub workers: usize,
    /// Use the unbounded `CuckooMap` store instead of the CLOCK cache.
    pub no_evict: bool,
    /// Durability: op log + snapshots live here; `None` disables
    /// persistence entirely.
    pub data_dir: Option<std::path::PathBuf>,
    /// Group-commit fsync cadence in milliseconds (the maximum
    /// acknowledged-but-lost window on `kill -9`).
    pub fsync_interval_ms: u64,
    /// Background snapshot/compaction cadence in seconds (0 = only at
    /// shutdown).
    pub snapshot_interval_secs: u64,
    /// Start as a read-only replica of `host:port` (requires
    /// `data_dir`). Writes are refused until `promote`.
    pub replica_of: Option<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1".to_string(),
            port: 11211,
            capacity: 1 << 20,
            workers: 0,
            no_evict: false,
            data_dir: None,
            fsync_interval_ms: 5,
            snapshot_interval_secs: 60,
            replica_of: None,
        }
    }
}

/// Shared state every worker sees.
pub struct ServerCtx {
    pub store: Arc<dyn Store>,
    /// The same store, concretely typed, when persistence is on — the
    /// replication feeder/applier need the persister and
    /// `apply_replicated`, which `dyn Store` does not expose.
    pub persist: Option<Arc<PersistentStore>>,
    pub stats: ServerStats,
    pub workers: usize,
    shutdown: AtomicBool,
    /// True while this node follows a primary; client writes are refused.
    read_only: AtomicBool,
    /// Flipped by `promote`: the applier detaches and stays detached.
    promoted: AtomicBool,
    /// Live replication feeds (backs the `replicas_connected` gauge).
    pub feeders: std::sync::atomic::AtomicU64,
}

impl ServerCtx {
    /// Shutdown requested, by handle or by signal.
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::requested()
    }

    pub fn is_read_only(&self) -> bool {
        // ORDERING: publish.acquire-load
        self.read_only.load(Ordering::Acquire)
    }

    /// `promote`: stop following the primary, start taking writes.
    /// Returns `false` when this node was not a replica.
    pub fn promote(&self) -> bool {
        // ORDERING: handoff.acqrel-rmw
        let was_replica = self.read_only.swap(false, Ordering::AcqRel);
        if was_replica {
            // ORDERING: publish.release-store
            self.promoted.store(true, Ordering::Release);
        }
        was_replica
    }

    /// The applier polls this to know when to detach.
    pub fn is_promoted(&self) -> bool {
        // ORDERING: publish.acquire-load
        self.promoted.load(Ordering::Acquire)
    }
}

/// A running server; dropping it without calling [`shutdown`] detaches
/// the threads (they stop when the process does).
///
/// [`shutdown`]: ServerHandle::shutdown
pub struct ServerHandle {
    ctx: Arc<ServerCtx>,
    local_addr: std::net::SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    applier: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The shared context (stats, store) — used by tests and benches.
    pub fn ctx(&self) -> &Arc<ServerCtx> {
        &self.ctx
    }

    /// Requests a graceful drain and joins every thread. With
    /// persistence on, the drain ends by fsyncing the op log, writing a
    /// final snapshot, and leaving the clean-shutdown marker — the next
    /// start skips replay entirely.
    pub fn shutdown(mut self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.applier.take() {
            let _ = h.join();
        }
        // Every appender (workers, applier) is quiesced; seal the log.
        if let Err(e) = self.ctx.store.persist_shutdown() {
            eprintln!("cuckood: persistence shutdown failed: {e}");
        }
    }
}

/// The serving store plus, when `--data-dir` is set, the persistence
/// decorator for shutdown/replication wiring.
type BuiltStore = (Arc<dyn Store>, Option<Arc<PersistentStore>>);

/// Builds the store named by `config`: the engine, optionally wrapped in
/// the persistence decorator (which replays the data directory into the
/// engine before anything is served).
fn make_store(config: &Config) -> std::io::Result<BuiltStore> {
    let engine: Arc<dyn Store> = if config.no_evict {
        Arc::new(CuckooStore::new(config.capacity))
    } else {
        Arc::new(ClockStore::new(config.capacity))
    };
    let Some(dir) = &config.data_dir else {
        return Ok((engine, None));
    };
    let mut pcfg = PersistConfig::new(dir);
    pcfg.fsync_interval = Duration::from_millis(config.fsync_interval_ms);
    pcfg.snapshot_interval = Duration::from_secs(config.snapshot_interval_secs);
    let (store, recovered) =
        PersistentStore::open(engine, pcfg, Arc::new(PersistMetrics::new()))?;
    if recovered.replayed > 0 || !recovered.entries.is_empty() {
        eprintln!(
            "cuckood: warm restart from {}: {} entries, {} log records replayed ({})",
            dir.display(),
            recovered.entries.len(),
            recovered.replayed,
            if recovered.clean { "clean shutdown" } else { "crash recovery" },
        );
    }
    Ok((Arc::clone(&store) as Arc<dyn Store>, Some(store)))
}

/// Binds and spawns the accept and worker threads.
pub fn spawn(config: Config) -> std::io::Result<ServerHandle> {
    if config.replica_of.is_some() && config.data_dir.is_none() {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "--replica-of requires --data-dir (a replica is durable in its own right)",
        ));
    }
    let listener = TcpListener::bind((config.addr.as_str(), config.port))?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;

    let workers = if config.workers == 0 {
        thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        config.workers
    };

    let (store, persist) = make_store(&config)?;
    let ctx = Arc::new(ServerCtx {
        store,
        persist,
        stats: ServerStats::new(),
        workers,
        shutdown: AtomicBool::new(false),
        read_only: AtomicBool::new(config.replica_of.is_some()),
        promoted: AtomicBool::new(false),
        feeders: std::sync::atomic::AtomicU64::new(0),
    });

    let applier = config.replica_of.as_ref().map(|primary| {
        crate::repl::spawn_applier(primary.clone(), Arc::clone(&ctx))
    });

    let mut senders = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let (tx, rx) = mpssc_channel();
        senders.push(tx);
        let ctx = Arc::clone(&ctx);
        handles.push(
            thread::Builder::new()
                .name(format!("cuckood-worker-{w}"))
                .spawn(move || worker_loop(rx, ctx))
                .expect("spawn worker"),
        );
    }

    let accept_ctx = Arc::clone(&ctx);
    let accept = thread::Builder::new()
        .name("cuckood-accept".to_string())
        .spawn(move || accept_loop(listener, senders, accept_ctx))
        .expect("spawn acceptor");

    Ok(ServerHandle { ctx, local_addr, accept: Some(accept), workers: handles, applier })
}

// mpsc::channel with the type spelled once.
fn mpssc_channel() -> (mpsc::Sender<TcpStream>, mpsc::Receiver<TcpStream>) {
    mpsc::channel()
}

fn accept_loop(listener: TcpListener, senders: Vec<mpsc::Sender<TcpStream>>, ctx: Arc<ServerCtx>) {
    let mut next = 0usize;
    while !ctx.draining() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                ctx.stats.total_connections.fetch_add(1, Ordering::Relaxed);
                ctx.stats.curr_connections.fetch_add(1, Ordering::Relaxed);
                // Round-robin sharding; a worker that has exited (only
                // during shutdown) just drops the socket.
                let _ = senders[next % senders.len()].send(stream);
                next += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
    // Dropping `senders` lets idle workers notice shutdown immediately.
}

fn worker_loop(rx: mpsc::Receiver<TcpStream>, ctx: Arc<ServerCtx>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut drain_started: Option<Instant> = None;

    loop {
        // Adopt newly accepted connections.
        while let Ok(stream) = rx.try_recv() {
            conns.push(Conn::new(stream));
        }

        let draining = ctx.draining();
        if draining && drain_started.is_none() {
            drain_started = Some(Instant::now());
            for c in &mut conns {
                c.begin_drain(&ctx);
            }
        }

        let mut progress = false;
        conns.retain_mut(|c| match c.pump(&ctx) {
            PumpResult::Open { progress: p } => {
                progress |= p;
                true
            }
            PumpResult::Closed => {
                ctx.stats.curr_connections.fetch_sub(1, Ordering::Relaxed);
                progress = true;
                false
            }
            PumpResult::Replicate { lsn } => {
                // The socket leaves this worker's shard and becomes a
                // dedicated (blocking) feeder thread.
                ctx.stats.curr_connections.fetch_sub(1, Ordering::Relaxed);
                progress = true;
                match c.handoff_parts() {
                    Ok((stream, pending)) => {
                        crate::repl::spawn_feeder(stream, pending, lsn, Arc::clone(&ctx));
                    }
                    Err(e) => eprintln!("cuckood: replication handoff failed: {e}"),
                }
                false
            }
        });

        if draining {
            let expired = drain_started
                .map(|t| t.elapsed() > DRAIN_LIMIT)
                .unwrap_or(false);
            if conns.is_empty() || expired {
                // Anything still open past the limit closes hard.
                for _ in conns.drain(..) {
                    ctx.stats.curr_connections.fetch_sub(1, Ordering::Relaxed);
                }
                return;
            }
        }

        if !progress {
            thread::park_timeout(IDLE_PARK);
        }
    }
}
