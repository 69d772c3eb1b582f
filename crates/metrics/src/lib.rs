//! Workspace-wide observability primitives: lock-free counters, gauges
//! and fixed-bucket histograms, plus two text renderers (Prometheus
//! exposition format and memcached `STAT` lines).
//!
//! # Hot-path cost model
//!
//! Every update is a single relaxed `AtomicU64` RMW — no locks, no
//! allocation, no branches beyond the bucket index computation. The
//! paper's principle P1 ("avoid unnecessary contention on shared cache
//! lines") is honored by *callers*, not by this crate: hot subsystems
//! either co-locate their counters on cache lines they already own
//! exclusively (per-stripe lock counters live in the stripe's own
//! padding), or only touch a counter on a path that is already slow
//! (seqlock retry, BFS search, migration chunk). This keeps the
//! instrumented fast path free of *added* cache-line traffic.
//!
//! # Consistency contract
//!
//! All updates and reads use `Ordering::Relaxed`. Snapshots taken while
//! writers are running are *per-cell atomic but not mutually
//! consistent*: a histogram's `count` can momentarily disagree with the
//! sum of its buckets, and derived ratios (e.g. contended/acquired) can
//! be off by in-flight updates. Consumers must treat snapshots as
//! monotone approximations, and all derived math in renderers and
//! snapshot types is saturating so a torn pair of reads can never
//! underflow or panic. `reset` is likewise not atomic with respect to
//! concurrent writers; it is intended for quiescent or
//! operator-initiated use (`stats reset`), where losing a handful of
//! in-flight increments is acceptable.
//!
//! [`latency::LatencyHistogram`] is the fine-grained (≤ ~3 % error)
//! nanosecond histogram behind `cuckood`'s per-class latency tails and
//! the benchmark drivers.

pub mod latency;

// ORDERING-FILE: stats.counter — the metrics registry is reporting counters by design (PR 5).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Last-writer-wins instantaneous value (e.g. current graveyard depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below it (high-watermark use).
    #[inline]
    pub fn fetch_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of finite power-of-two buckets: upper bounds 2^0 .. 2^16.
pub const HIST_BUCKETS: usize = 17;

/// Prometheus `le` label values, one per bucket plus the overflow.
pub const LE_LABELS: [&str; HIST_BUCKETS + 1] = [
    "1", "2", "4", "8", "16", "32", "64", "128", "256", "512", "1024", "2048", "4096", "8192",
    "16384", "32768", "65536", "+Inf",
];

/// Identifier-safe bucket keys for flat (memcached `STAT`) rendering.
const LE_KEYS: [&str; HIST_BUCKETS + 1] = [
    "1", "2", "4", "8", "16", "32", "64", "128", "256", "512", "1024", "2048", "4096", "8192",
    "16384", "32768", "65536", "inf",
];

/// Fixed power-of-two-bucket histogram, cheap enough for slow-but-warm
/// paths (one relaxed RMW per record plus a `leading_zeros`).
///
/// Bucket `i < HIST_BUCKETS` counts observations `v <= 2^i`; the final
/// bucket is the overflow (`+Inf`). Buckets store *per-bucket* counts;
/// renderers cumulate them for the Prometheus `_bucket` series.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS + 1],
    sum: AtomicU64,
}

#[inline]
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        // ceil(log2(v)): smallest i with v <= 2^i.
        let i = (64 - (v - 1).leading_zeros()) as usize;
        i.min(HIST_BUCKETS)
    }
}

impl Histogram {
    pub const fn new() -> Self {
        Histogram { buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS + 1], sum: AtomicU64::new(0) }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS + 1];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets, sum: self.sum.load(Ordering::Relaxed) }
    }

    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of a [`Histogram`]; all derived math saturates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS + 1],
    pub sum: u64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }
}

/// A metric's rendered value.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    Counter(u64),
    Gauge(u64),
    Histogram(HistogramSnapshot),
}

/// One named metric ready for exposition.
///
/// Names and labels are `&'static str` by design: collecting a snapshot
/// allocates nothing beyond the sample vector itself, and the exported
/// name set is a stable, greppable API (golden-tested downstream).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub name: &'static str,
    /// Optional single `key="value"` label (e.g. HTM abort code).
    pub label: Option<(&'static str, &'static str)>,
    pub value: Value,
}

impl Sample {
    pub fn counter(name: &'static str, v: u64) -> Self {
        Sample { name, label: None, value: Value::Counter(v) }
    }

    pub fn counter_with(name: &'static str, key: &'static str, val: &'static str, v: u64) -> Self {
        Sample { name, label: Some((key, val)), value: Value::Counter(v) }
    }

    pub fn gauge(name: &'static str, v: u64) -> Self {
        Sample { name, label: None, value: Value::Gauge(v) }
    }

    pub fn histogram(name: &'static str, s: HistogramSnapshot) -> Self {
        Sample { name, label: None, value: Value::Histogram(s) }
    }
}

fn push_num(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Renders samples in the Prometheus text exposition format (v0.0.4).
///
/// Samples sharing a name must be adjacent in `samples` so the single
/// `# TYPE` header covers the whole family.
pub fn render_prometheus(samples: &[Sample], out: &mut Vec<u8>) {
    let mut last_name = "";
    for s in samples {
        if s.name != last_name {
            out.extend_from_slice(b"# TYPE ");
            out.extend_from_slice(s.name.as_bytes());
            out.extend_from_slice(match s.value {
                Value::Counter(_) => b" counter\n".as_slice(),
                Value::Gauge(_) => b" gauge\n".as_slice(),
                Value::Histogram(_) => b" histogram\n".as_slice(),
            });
            last_name = s.name;
        }
        match s.value {
            Value::Counter(v) | Value::Gauge(v) => {
                out.extend_from_slice(s.name.as_bytes());
                if let Some((k, val)) = s.label {
                    out.push(b'{');
                    out.extend_from_slice(k.as_bytes());
                    out.extend_from_slice(b"=\"");
                    out.extend_from_slice(val.as_bytes());
                    out.extend_from_slice(b"\"}");
                }
                out.push(b' ');
                push_num(out, v);
                out.push(b'\n');
            }
            Value::Histogram(h) => {
                let mut cum = 0u64;
                for (i, &b) in h.buckets.iter().enumerate() {
                    cum = cum.saturating_add(b);
                    out.extend_from_slice(s.name.as_bytes());
                    out.extend_from_slice(b"_bucket{le=\"");
                    out.extend_from_slice(LE_LABELS[i].as_bytes());
                    out.extend_from_slice(b"\"} ");
                    push_num(out, cum);
                    out.push(b'\n');
                }
                out.extend_from_slice(s.name.as_bytes());
                out.extend_from_slice(b"_sum ");
                push_num(out, h.sum);
                out.push(b'\n');
                out.extend_from_slice(s.name.as_bytes());
                out.extend_from_slice(b"_count ");
                push_num(out, cum);
                out.push(b'\n');
            }
        }
    }
}

/// Renders samples as memcached `STAT <name> <value>\r\n` lines.
///
/// Labels flatten into the name (`htm_aborts{code="conflict"}` becomes
/// `htm_aborts_conflict`); histograms expand to cumulative
/// `<name>_le_<bound>` lines plus `<name>_sum` / `<name>_count`.
pub fn render_stat_lines(samples: &[Sample], out: &mut Vec<u8>) {
    fn stat(out: &mut Vec<u8>, name: &str, suffix: &str, v: u64) {
        out.extend_from_slice(b"STAT ");
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(suffix.as_bytes());
        out.push(b' ');
        push_num(out, v);
        out.extend_from_slice(b"\r\n");
    }
    let mut scratch = String::new();
    for s in samples {
        match s.value {
            Value::Counter(v) | Value::Gauge(v) => {
                if let Some((_, val)) = s.label {
                    scratch.clear();
                    scratch.push_str(s.name);
                    scratch.push('_');
                    scratch.push_str(val);
                    stat(out, &scratch, "", v);
                } else {
                    stat(out, s.name, "", v);
                }
            }
            Value::Histogram(h) => {
                let mut cum = 0u64;
                for (i, &b) in h.buckets.iter().enumerate() {
                    cum = cum.saturating_add(b);
                    scratch.clear();
                    scratch.push_str("_le_");
                    scratch.push_str(LE_KEYS[i]);
                    stat(out, s.name, &scratch, cum);
                }
                stat(out, s.name, "_sum", h.sum);
                stat(out, s.name, "_count", cum);
            }
        }
    }
}

/// The durability tier's metric families (`cuckoo_persist_*`).
///
/// Lives here (rather than in `crates/persist`) so the family set is
/// declared next to the primitives it is built from and the exported
/// name set stays greppable in one crate alongside the renderers. The
/// same placement rules apply as everywhere else: the op-log hot path
/// bumps counters it already owns (the group-commit writer thread), and
/// gauges are last-writer-wins snapshots of background state.
pub mod persist {
    use super::{Counter, Gauge, Histogram, Sample};

    /// All `cuckoo_persist_*` series for one data directory.
    #[derive(Debug, Default)]
    pub struct PersistMetrics {
        /// Operations appended to the op log.
        pub log_records: Counter,
        /// Framed bytes appended to the op log.
        pub log_bytes: Counter,
        /// `fsync` calls issued by the group-commit writer.
        pub fsyncs: Counter,
        /// Group-commit latency in microseconds: age of the oldest
        /// buffered record when its batch became durable.
        pub group_commit_us: Histogram,
        /// Appends that had to wait because the in-flight buffer was at
        /// its bound (write hot path backpressure events).
        pub backpressure_waits: Counter,
        /// Snapshots successfully written and published.
        pub snapshots: Counter,
        /// Entries in the most recent published snapshot.
        pub snapshot_entries: Gauge,
        /// Log records replayed during warm restart.
        pub replayed_records: Counter,
        /// Torn/corrupt log tails truncated during recovery.
        pub torn_tails: Counter,
        /// Highest LSN known durable (fsync'd) on this node.
        pub durable_lsn: Gauge,
        /// Replica feeds currently attached (primary side).
        pub replicas_connected: Gauge,
        /// Records streamed to replicas (primary side).
        pub replication_records_sent: Counter,
        /// Primary LSN minus the slowest attached feed's sent LSN
        /// (primary side), or primary LSN minus applied LSN (replica
        /// side).
        pub replication_lag: Gauge,
        /// Records applied from the replication stream (replica side).
        pub replication_records_applied: Counter,
    }

    impl PersistMetrics {
        pub fn new() -> Self {
            Self::default()
        }

        /// Appends one sample per family, grouped so renderers emit a
        /// single TYPE header each. Names are part of the golden set.
        pub fn samples(&self, out: &mut Vec<Sample>) {
            out.push(Sample::counter("cuckoo_persist_log_records_total", self.log_records.get()));
            out.push(Sample::counter("cuckoo_persist_log_bytes_total", self.log_bytes.get()));
            out.push(Sample::counter("cuckoo_persist_fsyncs_total", self.fsyncs.get()));
            out.push(Sample::histogram(
                "cuckoo_persist_group_commit_us",
                self.group_commit_us.snapshot(),
            ));
            out.push(Sample::counter(
                "cuckoo_persist_backpressure_waits_total",
                self.backpressure_waits.get(),
            ));
            out.push(Sample::counter("cuckoo_persist_snapshots_total", self.snapshots.get()));
            out.push(Sample::gauge(
                "cuckoo_persist_snapshot_last_entries",
                self.snapshot_entries.get(),
            ));
            out.push(Sample::counter(
                "cuckoo_persist_replayed_records_total",
                self.replayed_records.get(),
            ));
            out.push(Sample::counter("cuckoo_persist_torn_tails_total", self.torn_tails.get()));
            out.push(Sample::gauge("cuckoo_persist_durable_lsn", self.durable_lsn.get()));
            out.push(Sample::gauge(
                "cuckoo_persist_replicas_connected",
                self.replicas_connected.get(),
            ));
            out.push(Sample::counter(
                "cuckoo_persist_replication_records_sent_total",
                self.replication_records_sent.get(),
            ));
            out.push(Sample::gauge(
                "cuckoo_persist_replication_lag_records",
                self.replication_lag.get(),
            ));
            out.push(Sample::counter(
                "cuckoo_persist_replication_records_applied_total",
                self.replication_records_applied.get(),
            ));
        }

        /// `stats reset` hook: zeroes event counters and the latency
        /// histogram. LSN/connection gauges are live state, not event
        /// tallies, and are deliberately left alone (as memcached leaves
        /// `curr_connections`).
        pub fn reset(&self) {
            self.log_records.reset();
            self.log_bytes.reset();
            self.fsyncs.reset();
            self.group_commit_us.reset();
            self.backpressure_waits.reset();
            self.snapshots.reset();
            self.replayed_records.reset();
            self.torn_tails.reset();
            self.replication_records_sent.reset();
            self.replication_records_applied.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_family_names_are_stable() {
        // The `cuckoo_persist_*` name set is a golden API: CI greps the
        // live server for these and dashboards key on them.
        let m = persist::PersistMetrics::new();
        m.log_records.add(3);
        m.group_commit_us.record(250);
        let mut out = Vec::new();
        m.samples(&mut out);
        let names: Vec<&str> = out.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "cuckoo_persist_log_records_total",
                "cuckoo_persist_log_bytes_total",
                "cuckoo_persist_fsyncs_total",
                "cuckoo_persist_group_commit_us",
                "cuckoo_persist_backpressure_waits_total",
                "cuckoo_persist_snapshots_total",
                "cuckoo_persist_snapshot_last_entries",
                "cuckoo_persist_replayed_records_total",
                "cuckoo_persist_torn_tails_total",
                "cuckoo_persist_durable_lsn",
                "cuckoo_persist_replicas_connected",
                "cuckoo_persist_replication_records_sent_total",
                "cuckoo_persist_replication_lag_records",
                "cuckoo_persist_replication_records_applied_total",
            ]
        );
        // Counters reset; state gauges survive.
        m.durable_lsn.set(9);
        m.reset();
        assert_eq!(m.log_records.get(), 0);
        assert_eq!(m.group_commit_us.snapshot().count(), 0);
        assert_eq!(m.durable_lsn.get(), 9);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        c.add(0);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(7);
        g.fetch_max(3);
        assert_eq!(g.get(), 7);
        g.fetch_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn bucket_index_is_ceil_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(65536), 16);
        assert_eq!(bucket_index(65537), HIST_BUCKETS);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS);
    }

    #[test]
    fn histogram_snapshot_counts_and_mean() {
        let h = Histogram::new();
        for v in [1, 2, 3, 1000, 1 << 40] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 1 + 2 + 3 + 1000 + (1u64 << 40));
        assert_eq!(s.buckets[0], 1); // v=1
        assert_eq!(s.buckets[1], 1); // v=2
        assert_eq!(s.buckets[2], 1); // v=3
        assert_eq!(s.buckets[10], 1); // 1000 <= 1024
        assert_eq!(s.buckets[HIST_BUCKETS], 1); // overflow
        assert!((s.mean() - s.sum as f64 / 5.0).abs() < 1e-9);
        h.reset();
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn prometheus_rendering_shapes() {
        let h = Histogram::new();
        h.record(3);
        h.record(100_000);
        let samples = [
            Sample::counter("x_total", 42),
            Sample::counter_with("aborts", "code", "conflict", 7),
            Sample::counter_with("aborts", "code", "capacity", 1),
            Sample::gauge("depth", 2),
            Sample::histogram("path_len", h.snapshot()),
        ];
        let mut out = Vec::new();
        render_prometheus(&samples, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("# TYPE x_total counter\nx_total 42\n"));
        // One TYPE header for the two labeled series.
        assert_eq!(text.matches("# TYPE aborts counter").count(), 1);
        assert!(text.contains("aborts{code=\"conflict\"} 7"));
        assert!(text.contains("aborts{code=\"capacity\"} 1"));
        assert!(text.contains("# TYPE depth gauge\ndepth 2\n"));
        assert!(text.contains("# TYPE path_len histogram"));
        assert!(text.contains("path_len_bucket{le=\"4\"} 1"));
        assert!(text.contains("path_len_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("path_len_sum 100003"));
        assert!(text.contains("path_len_count 2"));
        // Buckets are cumulative: every bucket line value <= count.
        for line in text.lines().filter(|l| l.starts_with("path_len_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v <= 2);
        }
    }

    #[test]
    fn stat_line_rendering_shapes() {
        let h = Histogram::new();
        h.record(2);
        let samples = [
            Sample::counter("x_total", 1),
            Sample::counter_with("aborts", "code", "conflict", 7),
            Sample::histogram("spin", h.snapshot()),
        ];
        let mut out = Vec::new();
        render_stat_lines(&samples, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("STAT x_total 1\r\n"));
        assert!(text.contains("STAT aborts_conflict 7\r\n"));
        assert!(text.contains("STAT spin_le_1 0\r\n"));
        assert!(text.contains("STAT spin_le_2 1\r\n"));
        assert!(text.contains("STAT spin_le_inf 1\r\n"));
        assert!(text.contains("STAT spin_sum 2\r\n"));
        assert!(text.contains("STAT spin_count 1\r\n"));
        assert!(text.ends_with("\r\n"));
    }

    #[test]
    fn concurrent_updates_are_not_lost_after_join() {
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i % 100);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.snapshot().count(), 40_000);
    }
}
