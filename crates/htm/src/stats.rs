//! Transactional-execution statistics.
//!
//! The paper measures transactional abort rates with the Intel Performance
//! Counter Monitor (§2.3: "the transactional abort rates are above 80% for
//! all three hash tables with 8 concurrent writers"). The simulator keeps
//! the equivalent counters itself, so benchmarks can report abort rates
//! alongside throughput.

// ORDERING-FILE: stats.counter — every atomic here is a monotonic reporting counter.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters for one elided lock (or any transaction user).
///
/// All counters are updated with relaxed ordering: they are monitoring
/// data, not synchronization (paper principle P1 — keep statistics out of
/// the contended path; these are per-lock, off the data cache lines).
#[derive(Debug, Default)]
pub struct HtmStats {
    /// Transactional attempts started.
    pub starts: AtomicU64,
    /// Attempts that committed.
    pub commits: AtomicU64,
    /// Aborts caused by data conflicts.
    pub conflict_aborts: AtomicU64,
    /// Aborts caused by footprint capacity overflow.
    pub capacity_aborts: AtomicU64,
    /// Explicit aborts (`XABORT`), including lock-busy aborts.
    pub explicit_aborts: AtomicU64,
    /// Times execution gave up on speculation and took the fallback lock.
    pub fallbacks: AtomicU64,
}

impl HtmStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn record_start(&self) {
        self.starts.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_abort(&self, code: crate::AbortCode) {
        let counter = match code {
            crate::AbortCode::Conflict => &self.conflict_aborts,
            crate::AbortCode::Capacity => &self.capacity_aborts,
            crate::AbortCode::Explicit(_) => &self.explicit_aborts,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            starts: self.starts.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            conflict_aborts: self.conflict_aborts.load(Ordering::Relaxed),
            capacity_aborts: self.capacity_aborts.load(Ordering::Relaxed),
            explicit_aborts: self.explicit_aborts.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.starts.store(0, Ordering::Relaxed);
        self.commits.store(0, Ordering::Relaxed);
        self.conflict_aborts.store(0, Ordering::Relaxed);
        self.capacity_aborts.store(0, Ordering::Relaxed);
        self.explicit_aborts.store(0, Ordering::Relaxed);
        self.fallbacks.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`HtmStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Transactional attempts started.
    pub starts: u64,
    /// Attempts that committed.
    pub commits: u64,
    /// Aborts caused by data conflicts.
    pub conflict_aborts: u64,
    /// Aborts caused by footprint capacity overflow.
    pub capacity_aborts: u64,
    /// Explicit aborts (`XABORT`), including lock-busy aborts.
    pub explicit_aborts: u64,
    /// Times execution took the fallback lock.
    pub fallbacks: u64,
}

impl StatsSnapshot {
    /// Total aborts of all causes.
    pub fn aborts(&self) -> u64 {
        self.conflict_aborts + self.capacity_aborts + self.explicit_aborts
    }

    /// Fraction of started transactions that aborted (0.0 when none ran).
    ///
    /// This is the "transactional abort rate" the paper reports from PCM.
    pub fn abort_rate(&self) -> f64 {
        if self.starts == 0 {
            0.0
        } else {
            self.aborts() as f64 / self.starts as f64
        }
    }

    /// Fraction of critical sections that ended up on the fallback lock.
    pub fn fallback_rate(&self) -> f64 {
        let sections = self.commits + self.fallbacks;
        if sections == 0 {
            0.0
        } else {
            self.fallbacks as f64 / sections as f64
        }
    }
}

impl core::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;

    /// Windowed delta. Saturating: relaxed snapshots taken while
    /// transactions run can tear (a field observed ahead of another), so
    /// a "later" snapshot may have an individually smaller field; clamp
    /// to zero rather than panicking in debug builds.
    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            starts: self.starts.saturating_sub(rhs.starts),
            commits: self.commits.saturating_sub(rhs.commits),
            conflict_aborts: self.conflict_aborts.saturating_sub(rhs.conflict_aborts),
            capacity_aborts: self.capacity_aborts.saturating_sub(rhs.capacity_aborts),
            explicit_aborts: self.explicit_aborts.saturating_sub(rhs.explicit_aborts),
            fallbacks: self.fallbacks.saturating_sub(rhs.fallbacks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AbortCode;

    #[test]
    fn abort_rate_math() {
        let s = HtmStats::new();
        for _ in 0..10 {
            s.record_start();
        }
        for _ in 0..8 {
            s.record_abort(AbortCode::Conflict);
        }
        s.record_abort(AbortCode::Capacity);
        s.record_commit();
        let snap = s.snapshot();
        assert_eq!(snap.aborts(), 9);
        assert!((snap.abort_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_rates_are_zero() {
        let snap = HtmStats::new().snapshot();
        assert_eq!(snap.abort_rate(), 0.0);
        assert_eq!(snap.fallback_rate(), 0.0);
    }

    #[test]
    fn snapshot_subtraction_windows() {
        let s = HtmStats::new();
        s.record_start();
        s.record_commit();
        let a = s.snapshot();
        s.record_start();
        s.record_abort(AbortCode::Conflict);
        s.record_fallback();
        let b = s.snapshot();
        let window = b - a;
        assert_eq!(window.starts, 1);
        assert_eq!(window.conflict_aborts, 1);
        assert_eq!(window.fallbacks, 1);
        assert_eq!(window.commits, 0);
    }

    #[test]
    fn reset_zeroes_counters() {
        let s = HtmStats::new();
        s.record_start();
        s.record_fallback();
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn snapshot_subtraction_saturates_on_torn_windows() {
        let newer = StatsSnapshot { starts: 3, ..Default::default() };
        let older = StatsSnapshot { starts: 5, commits: 1, ..Default::default() };
        let w = newer - older;
        assert_eq!(w.starts, 0, "torn field clamps instead of underflowing");
        assert_eq!(w.commits, 0);
    }
}
