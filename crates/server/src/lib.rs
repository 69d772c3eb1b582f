//! `cuckood` — a memcached-compatible network front-end for the
//! concurrent cuckoo+ tables in this workspace.
//!
//! The paper built its hash table as the storage engine of MemC3, a
//! drop-in memcached replacement; this crate closes the loop for the
//! reproduction by serving the table over TCP in the memcached ASCII
//! text protocol. Supported subset: `get`/`gets`, `set`, `add`,
//! `replace`, `delete`, `stats`, `version`, `quit`.
//!
//! Architecture (see `DESIGN.md` §"The network front-end"):
//!
//! - [`proto`] — incremental zero-copy frame parser + encoders;
//! - [`store`] — the [`cache::ClockCache`] (bounded, CLOCK-evicting)
//!   and [`cuckoo::CuckooMap`] (unbounded) backends behind one trait;
//! - [`conn`] — per-connection state machine over reused buffers;
//! - [`server`] — thread-per-core workers, each owning a shard of the
//!   connections; one shared concurrent store;
//! - [`signal`] — SIGINT/SIGTERM → graceful drain;
//! - [`stats`] — per-op latency histograms and counters for `stats`.
//!
//! ```no_run
//! let handle = server::spawn(server::Config {
//!     port: 0,                      // ephemeral
//!     ..Default::default()
//! }).unwrap();
//! println!("serving on {}", handle.local_addr());
//! handle.shutdown();                // graceful drain
//! ```

pub mod conn;
pub mod persist_store;
pub mod proto;
pub mod repl;
pub mod server;
pub mod signal;
pub mod stats;
pub mod store;

pub use server::{spawn, Config, ServerCtx, ServerHandle};

/// Reported by `version` and `stats`.
pub const VERSION: &str = concat!("cuckood-", env!("CARGO_PKG_VERSION"));

/// Entry point shared by the `cuckood` binary: parses CLI arguments,
/// installs signal handlers, serves until SIGINT/SIGTERM.
pub fn run_cli(args: impl Iterator<Item = String>) -> Result<(), String> {
    let config = parse_args(args)?;
    signal::install();
    let handle = spawn(config.clone()).map_err(|e| format!("bind failed: {e}"))?;
    eprintln!(
        "cuckood listening on {} ({} workers, {} mode, capacity {})",
        handle.local_addr(),
        handle.ctx().workers,
        if config.no_evict { "no-evict" } else { "clock" },
        config.capacity,
    );
    // Wait for a signal, then drain.
    while !signal::requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("cuckood: shutdown requested, draining connections...");
    handle.shutdown();
    eprintln!("cuckood: bye");
    Ok(())
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    fn value_for(name: &str, args: &mut dyn Iterator<Item = String>) -> Result<String, String> {
        args.next().ok_or_else(|| format!("{name} requires a value"))
    }
    let mut config = Config::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-p" | "--port" => {
                config.port = value_for(&arg, &mut args)?
                    .parse()
                    .map_err(|_| "bad port".to_string())?;
            }
            "-l" | "--listen" => config.addr = value_for(&arg, &mut args)?,
            "-c" | "--capacity" => {
                config.capacity = value_for(&arg, &mut args)?
                    .parse()
                    .map_err(|_| "bad capacity".to_string())?;
            }
            "-t" | "--threads" => {
                config.workers = value_for(&arg, &mut args)?
                    .parse()
                    .map_err(|_| "bad thread count".to_string())?;
            }
            "--no-evict" => config.no_evict = true,
            "-d" | "--data-dir" => {
                config.data_dir = Some(value_for(&arg, &mut args)?.into());
            }
            "--fsync-interval-ms" => {
                config.fsync_interval_ms = value_for(&arg, &mut args)?
                    .parse()
                    .map_err(|_| "bad fsync interval".to_string())?;
            }
            "--snapshot-interval-secs" => {
                config.snapshot_interval_secs = value_for(&arg, &mut args)?
                    .parse()
                    .map_err(|_| "bad snapshot interval".to_string())?;
            }
            "--replica-of" => {
                config.replica_of = Some(value_for(&arg, &mut args)?);
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(config)
}

const USAGE: &str = "\
cuckood — memcached-ASCII server over the concurrent cuckoo+ table

USAGE: cuckood [OPTIONS]

OPTIONS:
  -p, --port <PORT>       TCP port (default 11211; 0 = ephemeral)
  -l, --listen <ADDR>     bind address (default 127.0.0.1)
  -c, --capacity <N>      max resident items (default 1048576); the
                          table has N slots rounded up to a power of
                          two and holds at most 95% of them, so the
                          default holds 996147 (--no-evict: initial size)
  -t, --threads <N>       worker threads (default: one per core)
      --no-evict          unbounded CuckooMap store instead of the
                          CLOCK cache (arbitrary value sizes)
  -d, --data-dir <DIR>    enable durability: append-only op log +
                          snapshots in DIR; warm restart replays them
      --fsync-interval-ms <MS>
                          group-commit window (default 5): max
                          acknowledged-but-lost ops on kill -9
      --snapshot-interval-secs <SECS>
                          log compaction cadence (default 60; 0 = only
                          at shutdown)
      --replica-of <HOST:PORT>
                          follow a primary read-only until `promote`
                          (requires --data-dir)
  -h, --help              this text";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let cfg = parse_args(
            ["--port", "0", "-c", "4096", "-t", "2", "--no-evict"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(cfg.port, 0);
        assert_eq!(cfg.capacity, 4096);
        assert_eq!(cfg.workers, 2);
        assert!(cfg.no_evict);
        assert!(parse_args(["--bogus"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(["--port"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn persistence_args_parse() {
        let cfg = parse_args(
            [
                "--data-dir",
                "/tmp/cuckood-data",
                "--fsync-interval-ms",
                "2",
                "--snapshot-interval-secs",
                "0",
                "--replica-of",
                "127.0.0.1:11222",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(cfg.data_dir.as_deref(), Some(std::path::Path::new("/tmp/cuckood-data")));
        assert_eq!(cfg.fsync_interval_ms, 2);
        assert_eq!(cfg.snapshot_interval_secs, 0);
        assert_eq!(cfg.replica_of.as_deref(), Some("127.0.0.1:11222"));
        let cfg = parse_args(std::iter::empty()).unwrap();
        assert!(cfg.data_dir.is_none());
        assert!(cfg.replica_of.is_none());
    }
}
