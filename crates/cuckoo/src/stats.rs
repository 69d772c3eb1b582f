//! Insert slow-path statistics (for the Appendix B validation bench) and
//! the per-table metrics block feeding the unified observability layer.
//!
//! Appendix B bounds the probability that a discovered cuckoo path is
//! invalidated by concurrent writers before it executes (Eq. 1). These
//! counters measure the real rate: path executions attempted versus paths
//! found stale at validation time. They are bumped only on the insert
//! *slow path* (a path search already costs hundreds of slot reads), so
//! they do not violate principle P1 on the hot path.
//!
//! # Relaxed-consistency contract
//!
//! All counters use relaxed atomics and snapshots are taken with
//! independent loads while writers may be running, so a snapshot is
//! *per-field atomic but not mutually consistent*. [`TableMetrics::path_stats`]
//! loads `stale` before `executions` and clamps, so the documented
//! invariant `stale <= executions` always holds in a snapshot; all
//! derived rates saturate instead of trusting cross-field invariants.
//! `reset` is likewise not atomic with respect to concurrent writers —
//! it is for quiescent or operator-initiated use (`stats reset`), where
//! losing a handful of in-flight increments is acceptable.

use metrics::{Counter, Gauge, Histogram};

/// Snapshot of a table's cuckoo-path counters
/// ([`TableMetrics::path_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStatsSnapshot {
    /// Path searches performed.
    pub searches: u64,
    /// Path executions attempted.
    pub executions: u64,
    /// Stale-path aborts.
    pub stale: u64,
    /// Full-table-lock escalations.
    pub full_table_fallbacks: u64,
}

impl PathStatsSnapshot {
    /// Observed path-invalidation probability (stale / executions),
    /// saturating at 1.0 so a hand-built (or torn, pre-clamp) snapshot
    /// can never report a probability above certainty.
    pub fn invalidation_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.stale.min(self.executions) as f64 / self.executions as f64
        }
    }
}

/// Per-table hot-path metrics for the unified observability layer.
///
/// One instance is owned by each concurrent table. Every counter here is
/// bumped only on an *event* path (a failed optimistic validation, a BFS
/// search, a migration chunk) — the success fast path never touches this
/// struct, keeping instrumentation overhead within the ≤1% budget
/// (see DESIGN.md §5f).
#[derive(Debug, Default)]
pub struct TableMetrics {
    /// Optimistic (seqlock) read attempts that failed validation and
    /// retried — the read-side analogue of Eq. 1's invalidation events.
    pub read_retries: Counter,
    /// Reads that exhausted the optimistic retry budget and fell back to
    /// taking the bucket pair's stripe locks.
    pub read_lock_fallbacks: Counter,
    /// BFS cuckoo path length in slots (path entries, i.e. displacements
    /// + 1 for the vacancy) — the Eq. 2 distribution.
    pub bfs_path_len: Histogram,
    /// Slots examined per BFS search (search-tree breadth actually
    /// visited before a vacancy was found).
    pub bfs_examined_slots: Histogram,
    /// Incremental migrations begun (table expansions).
    pub migrations_started: Counter,
    /// Incremental migrations finalized.
    pub migrations_completed: Counter,
    /// Migration chunks fully moved to the new table.
    pub migration_chunks: Counter,
    /// Writer help-sweep volunteer passes during migrations.
    pub help_sweeps: Counter,
    /// Retired allocations currently parked in the graveyard.
    pub graveyard_depth: Gauge,
    /// Stop-the-world emergency rebuilds (insert failed mid-migration).
    pub emergency_rebuilds: Counter,
    /// Cuckoo-path searches performed by the insert slow path.
    pub path_searches: Counter,
    /// Path executions attempted.
    pub path_executions: Counter,
    /// Executions aborted because validation found the path stale.
    pub path_stale: Counter,
    /// Inserts that escalated to the pessimistic full-table lock.
    pub full_table_fallbacks: Counter,
}

impl TableMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn record_search(&self) {
        self.path_searches.inc();
    }

    #[inline]
    pub(crate) fn record_execution(&self, stale: bool) {
        self.path_executions.inc();
        if stale {
            self.path_stale.inc();
        }
    }

    /// The cuckoo-path counters (Appendix B's validation: path executions
    /// versus paths found stale).
    ///
    /// Writers bump `executions` before `stale`, so loading `stale`
    /// *first* biases any tear toward `stale <= executions`; the clamp
    /// makes the invariant unconditional even if the relaxed stores are
    /// observed out of order (see the module-level contract).
    pub fn path_stats(&self) -> PathStatsSnapshot {
        let stale = self.path_stale.get();
        let executions = self.path_executions.get();
        PathStatsSnapshot {
            searches: self.path_searches.get(),
            executions,
            stale: stale.min(executions),
            full_table_fallbacks: self.full_table_fallbacks.get(),
        }
    }

    /// Flattens this table's full metric set — these counters plus the
    /// caller-supplied lock snapshot — into exposition samples. The
    /// emitted names are a stable API (golden-tested): extend them, and
    /// rename or delete one only as a change recorded in CHANGES.md.
    pub fn collect(&self, locks: &crate::sync::LockStats, out: &mut Vec<metrics::Sample>) {
        use metrics::Sample;
        let path = self.path_stats();
        out.push(Sample::counter("cuckoo_lock_acquisitions_total", locks.acquisitions));
        out.push(Sample::counter("cuckoo_lock_contended_total", locks.contended));
        out.push(Sample::histogram("cuckoo_lock_spin_waits", locks.spin_waits));
        out.push(Sample::counter("cuckoo_read_retries_total", self.read_retries.get()));
        out.push(Sample::counter(
            "cuckoo_read_lock_fallbacks_total",
            self.read_lock_fallbacks.get(),
        ));
        out.push(Sample::histogram("cuckoo_bfs_path_len", self.bfs_path_len.snapshot()));
        out.push(Sample::histogram(
            "cuckoo_bfs_examined_slots",
            self.bfs_examined_slots.snapshot(),
        ));
        out.push(Sample::counter("cuckoo_path_searches_total", path.searches));
        out.push(Sample::counter("cuckoo_path_executions_total", path.executions));
        out.push(Sample::counter("cuckoo_path_stale_total", path.stale));
        out.push(Sample::counter(
            "cuckoo_full_table_fallbacks_total",
            path.full_table_fallbacks,
        ));
        out.push(Sample::counter("cuckoo_migrations_started_total", self.migrations_started.get()));
        out.push(Sample::counter(
            "cuckoo_migrations_completed_total",
            self.migrations_completed.get(),
        ));
        out.push(Sample::counter("cuckoo_migration_chunks_total", self.migration_chunks.get()));
        out.push(Sample::counter("cuckoo_help_sweeps_total", self.help_sweeps.get()));
        out.push(Sample::gauge("cuckoo_graveyard_depth", self.graveyard_depth.get()));
        out.push(Sample::counter(
            "cuckoo_emergency_rebuilds_total",
            self.emergency_rebuilds.get(),
        ));
    }

    /// Zeroes every series (not atomic with respect to concurrent
    /// writers; see the module-level contract).
    pub fn reset(&self) {
        self.read_retries.reset();
        self.read_lock_fallbacks.reset();
        self.bfs_path_len.reset();
        self.bfs_examined_slots.reset();
        self.migrations_started.reset();
        self.migrations_completed.reset();
        self.migration_chunks.reset();
        self.help_sweeps.reset();
        self.graveyard_depth.reset();
        self.emergency_rebuilds.reset();
        self.path_searches.reset();
        self.path_executions.reset();
        self.path_stale.reset();
        self.full_table_fallbacks.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_reset() {
        let m = TableMetrics::new();
        m.record_search();
        m.record_execution(false);
        m.record_execution(true);
        m.record_execution(true);
        m.full_table_fallbacks.inc();
        let snap = m.path_stats();
        assert_eq!(snap.searches, 1);
        assert_eq!(snap.executions, 3);
        assert_eq!(snap.stale, 2);
        assert_eq!(snap.full_table_fallbacks, 1);
        assert!((snap.invalidation_rate() - 2.0 / 3.0).abs() < 1e-12);
        m.reset();
        assert_eq!(m.path_stats(), PathStatsSnapshot::default());
        assert_eq!(m.path_stats().invalidation_rate(), 0.0);
    }

    #[test]
    fn snapshot_clamps_torn_stale_reading() {
        // Simulate the torn interleaving the clamp defends against:
        // `stale` observed ahead of `executions`.
        let m = TableMetrics::new();
        m.path_stale.add(5);
        m.path_executions.add(2);
        let snap = m.path_stats();
        assert_eq!(snap.stale, 2, "clamped to executions");
        assert!(snap.invalidation_rate() <= 1.0);
        // And a hand-built inconsistent snapshot still saturates.
        let bad = PathStatsSnapshot { searches: 0, executions: 2, stale: 7, full_table_fallbacks: 0 };
        assert_eq!(bad.invalidation_rate(), 1.0);
    }

    #[test]
    fn collect_emits_the_golden_name_set() {
        // The exposition names are a stable external API: monitoring
        // dashboards and the CI scrape test grep for them. This golden
        // list may be extended; an existing entry changing (name, kind,
        // or order) or disappearing is a breaking change, made only as a
        // deletion recorded in CHANGES.md — fail loudly here otherwise.
        let m = TableMetrics::new();
        let mut out = Vec::new();
        m.collect(&crate::sync::LockStats::default(), &mut out);
        let got: Vec<(&str, &str)> = out
            .iter()
            .map(|s| {
                let kind = match s.value {
                    metrics::Value::Counter(_) => "counter",
                    metrics::Value::Gauge(_) => "gauge",
                    metrics::Value::Histogram(_) => "histogram",
                };
                (s.name, kind)
            })
            .collect();
        let golden = [
            ("cuckoo_lock_acquisitions_total", "counter"),
            ("cuckoo_lock_contended_total", "counter"),
            ("cuckoo_lock_spin_waits", "histogram"),
            ("cuckoo_read_retries_total", "counter"),
            ("cuckoo_read_lock_fallbacks_total", "counter"),
            ("cuckoo_bfs_path_len", "histogram"),
            ("cuckoo_bfs_examined_slots", "histogram"),
            ("cuckoo_path_searches_total", "counter"),
            ("cuckoo_path_executions_total", "counter"),
            ("cuckoo_path_stale_total", "counter"),
            ("cuckoo_full_table_fallbacks_total", "counter"),
            ("cuckoo_migrations_started_total", "counter"),
            ("cuckoo_migrations_completed_total", "counter"),
            ("cuckoo_migration_chunks_total", "counter"),
            ("cuckoo_help_sweeps_total", "counter"),
            ("cuckoo_graveyard_depth", "gauge"),
            ("cuckoo_emergency_rebuilds_total", "counter"),
        ];
        assert_eq!(got, golden);
    }

    #[test]
    fn table_metrics_reset_zeroes_every_series() {
        let m = TableMetrics::new();
        m.read_retries.inc();
        m.read_lock_fallbacks.inc();
        m.bfs_path_len.record(3);
        m.bfs_examined_slots.record(40);
        m.migrations_started.inc();
        m.migrations_completed.inc();
        m.migration_chunks.add(7);
        m.help_sweeps.inc();
        m.graveyard_depth.set(2);
        m.emergency_rebuilds.inc();
        m.record_search();
        m.record_execution(true);
        m.full_table_fallbacks.inc();
        m.reset();
        assert_eq!(m.read_retries.get(), 0);
        assert_eq!(m.bfs_path_len.snapshot().count(), 0);
        assert_eq!(m.bfs_examined_slots.snapshot().count(), 0);
        assert_eq!(m.migration_chunks.get(), 0);
        assert_eq!(m.graveyard_depth.get(), 0);
        assert_eq!(m.emergency_rebuilds.get(), 0);
        assert_eq!(m.path_stats(), PathStatsSnapshot::default());
    }
}
