//! Workload generation and measurement for the paper's evaluation (§6).
//!
//! "Each experiment first creates an empty cuckoo hash table and then
//! fills it to 95% capacity, with random mixed concurrent reads and
//! writes as per the specified insert/lookup ratio. Because Cuckoo
//! hashing slows down as the table fills, we measure both overall
//! throughput and throughput for certain load factor intervals."
//!
//! - [`adapter::ConcurrentMap`] — the uniform table interface every
//!   implementation under test (cuckoo+, MemC3, elided, baselines) plugs
//!   into.
//! - [`driver`] — the multi-threaded fill/mixed-ratio driver with
//!   load-factor-window timing (per-thread key streams, lazily aggregated
//!   progress counters — principle P1).
//! - [`keygen`] — deterministic per-thread SplitMix64 key streams.
//! - [`net`] — TCP client driver (connection pool + pipelined memcached
//!   ASCII requests) for benchmarking the `cuckood` server end to end.
//! - [`report`] — plain-text table and CSV rendering for the figure
//!   benches.

pub mod adapter;
pub mod driver;
pub mod keygen;
pub mod net;
pub mod report;
pub mod snapshot;
pub mod zipf;

pub use adapter::{BenchValue, ConcurrentMap, PutResult};
pub use driver::{FillReport, FillSpec, LookupSpec};
pub use report::Table;
pub use snapshot::MetricSnapshot;
pub use zipf::Zipf;
