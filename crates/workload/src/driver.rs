//! The multi-threaded measurement driver (paper §6, "Method and
//! Workloads").
//!
//! Two experiment shapes cover every figure:
//!
//! - [`run_fill`] — fill an empty table to a target occupancy with a
//!   random mix of inserts and lookups at a given ratio (100%/50%/10%
//!   insert in the paper), timing both the overall run and each
//!   load-factor window (e.g. 0.75–0.9, 0.9–0.95). Progress is tracked
//!   with a shared counter that threads update in batches — instant
//!   global counters are exactly what principle P1 bans from the hot
//!   path.
//! - [`run_lookup_only`] — fixed-occupancy lookup throughput (Figure 8).
//!
//! Each thread inserts a disjoint deterministic key stream
//! ([`crate::keygen`]); lookups target the thread's own already-inserted
//! prefix (90% hits) or a random absent key (10% misses).

// ORDERING-FILE: stats.counter — measurement counters read after the workers join.
use crate::adapter::{BenchValue, ConcurrentMap, PutResult};
use crate::keygen::{key_of, SplitMix64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Ceiling on how many inserts a thread accumulates before folding its
/// local progress into the shared counter (the actual batch adapts to the
/// run size so small tables still get fine-grained window timing).
const PROGRESS_BATCH_MAX: u64 = 1024;

/// A fill experiment description.
#[derive(Debug, Clone)]
pub struct FillSpec {
    /// Worker threads.
    pub threads: usize,
    /// Fraction of operations that are inserts (1.0, 0.5, 0.1 in the
    /// paper); the rest are lookups.
    pub insert_ratio: f64,
    /// Target occupancy as a fraction of the table's fill capacity.
    pub fill_to: f64,
    /// Load-factor windows to time, e.g. `[(0.0, 0.95), (0.75, 0.9),
    /// (0.9, 0.95)]`.
    pub windows: Vec<(f64, f64)>,
}

impl FillSpec {
    /// The paper's standard configuration: fill to 95% with the given
    /// ratio, reporting overall plus the two high-occupancy windows.
    pub fn standard(threads: usize, insert_ratio: f64) -> Self {
        FillSpec {
            threads,
            insert_ratio,
            fill_to: 0.95,
            windows: vec![(0.0, 0.95), (0.75, 0.90), (0.90, 0.95)],
        }
    }
}

/// Results of a fill experiment.
#[derive(Debug, Clone)]
pub struct FillReport {
    /// Total operations performed (inserts + lookups).
    pub total_ops: u64,
    /// Total successful inserts.
    pub inserts: u64,
    /// Wall-clock for the whole fill.
    pub elapsed: Duration,
    /// Million operations per second overall.
    pub overall_mops: f64,
    /// Per-window million ops/sec, parallel to `spec.windows`.
    pub window_mops: Vec<f64>,
    /// Load factor actually reached.
    pub achieved_load: f64,
    /// `true` when some thread hit `TableFull` before its quota.
    pub hit_full: bool,
}

/// Fills `map` per `spec`, returning throughput measurements.
pub fn run_fill<V: BenchValue, M: ConcurrentMap<V> + ?Sized>(map: &M, spec: &FillSpec) -> FillReport {
    let capacity = map.fill_capacity();
    let target_inserts = ((capacity as f64) * spec.fill_to) as u64;
    let per_thread = target_inserts / spec.threads as u64;
    let total_inserts = per_thread * spec.threads as u64;

    // Window boundaries in insert counts; each records its entry/exit
    // timestamp (nanos from start) once via CAS.
    let boundaries: Vec<(u64, u64)> = spec
        .windows
        .iter()
        .map(|&(lo, hi)| {
            (
                (capacity as f64 * lo) as u64,
                ((capacity as f64 * hi) as u64).min(total_inserts),
            )
        })
        .collect();
    let lo_times: Vec<AtomicU64> = boundaries.iter().map(|_| AtomicU64::new(u64::MAX)).collect();
    let hi_times: Vec<AtomicU64> = boundaries.iter().map(|_| AtomicU64::new(u64::MAX)).collect();

    let batch_size = (per_thread / 128).clamp(16, PROGRESS_BATCH_MAX);
    let progress = AtomicU64::new(0);
    let total_ops = AtomicU64::new(0);
    let hit_full = std::sync::atomic::AtomicBool::new(false);
    let start = Instant::now();

    std::thread::scope(|s| {
        for t in 0..spec.threads as u64 {
            let progress = &progress;
            let total_ops = &total_ops;
            let hit_full = &hit_full;
            let lo_times = &lo_times;
            let hi_times = &hi_times;
            let boundaries = &boundaries;
            let map = &*map;
            let spec_ratio = spec.insert_ratio;
            s.spawn(move || {
                let batch_size = batch_size;
                let mut rng = SplitMix64::new(0xabcd ^ t);
                let mut inserted = 0u64;
                let mut ops = 0u64;
                let mut local_batch = 0u64;
                while inserted < per_thread {
                    let do_insert = spec_ratio >= 1.0
                        || (rng.next_u64() as f64 / u64::MAX as f64) < spec_ratio;
                    if do_insert {
                        let key = key_of(t, inserted);
                        match map.put(key, V::from_key(key)) {
                            PutResult::Inserted => {
                                inserted += 1;
                                local_batch += 1;
                            }
                            PutResult::Exists => {
                                // Disjoint streams: cannot happen.
                                debug_assert!(false, "duplicate in disjoint stream");
                                inserted += 1;
                            }
                            PutResult::Full => {
                                hit_full.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    } else {
                        // 90% reads of own inserted prefix, 10% misses.
                        let key = if inserted > 0 && rng.below(10) != 0 {
                            key_of(t, rng.below(inserted))
                        } else {
                            key_of(t + 4096, rng.next_u64() & ((1 << 40) - 1))
                        };
                        std::hint::black_box(map.read(&key));
                    }
                    ops += 1;

                    if local_batch >= batch_size || inserted == per_thread {
                        let now =
                            // ORDERING: handoff.acqrel-rmw
                            progress.fetch_add(local_batch, Ordering::AcqRel) + local_batch;
                        local_batch = 0;
                        let stamp = start.elapsed().as_nanos() as u64;
                        for (w, &(lo, hi)) in boundaries.iter().enumerate() {
                            if now >= lo && lo_times[w].load(Ordering::Relaxed) == u64::MAX {
                                let _ = lo_times[w].compare_exchange(
                                    u64::MAX,
                                    stamp,
                                    // ORDERING: handoff.acqrel-rmw
                                    Ordering::AcqRel,
                                    Ordering::Relaxed,
                                );
                            }
                            if now >= hi && hi_times[w].load(Ordering::Relaxed) == u64::MAX {
                                let _ = hi_times[w].compare_exchange(
                                    u64::MAX,
                                    stamp,
                                    // ORDERING: handoff.acqrel-rmw
                                    Ordering::AcqRel,
                                    Ordering::Relaxed,
                                );
                            }
                        }
                    }
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
    });

    let elapsed = start.elapsed();
    let inserts = progress.load(Ordering::Relaxed);
    let ops = total_ops.load(Ordering::Relaxed);
    let overall_mops = ops as f64 / elapsed.as_secs_f64() / 1e6;

    let window_mops = boundaries
        .iter()
        .enumerate()
        .map(|(w, &(lo, hi))| {
            let t_lo = if lo == 0 {
                0
            } else {
                lo_times[w].load(Ordering::Relaxed)
            };
            let t_hi = hi_times[w].load(Ordering::Relaxed);
            if t_lo == u64::MAX || t_hi == u64::MAX || t_hi <= t_lo || hi <= lo {
                return f64::NAN;
            }
            // Ops in the window scale with inserts by the mix ratio.
            let window_inserts = (hi - lo) as f64;
            let window_ops = window_inserts / spec.insert_ratio.max(1e-9);
            window_ops / ((t_hi - t_lo) as f64 / 1e9) / 1e6
        })
        .collect();

    FillReport {
        total_ops: ops,
        inserts,
        elapsed,
        overall_mops,
        window_mops,
        achieved_load: inserts as f64 / capacity as f64,
        hit_full: hit_full.load(Ordering::Relaxed),
    }
}

/// A fixed-occupancy lookup experiment (Figure 8).
#[derive(Debug, Clone)]
pub struct LookupSpec {
    /// Worker threads.
    pub threads: usize,
    /// Lookups per thread.
    pub ops_per_thread: u64,
    /// Fraction of lookups that should miss.
    pub miss_ratio: f64,
    /// Keys per [`ConcurrentMap::read_many`] call. `0` or `1` measures
    /// the single-key `read` path; larger values exercise the batched
    /// (read-ahead) engine with this batch size.
    pub batch: usize,
}

impl LookupSpec {
    /// A single-key-path spec (`batch = 1`).
    pub fn single(threads: usize, ops_per_thread: u64, miss_ratio: f64) -> Self {
        LookupSpec { threads, ops_per_thread, miss_ratio, batch: 1 }
    }
}

/// Runs lookup-only throughput against a pre-filled table.
///
/// `filled` describes how the table was filled: `(threads_used,
/// inserts_per_thread)` from the fill phase, so lookups can target
/// existing keys.
pub fn run_lookup_only<V: BenchValue, M: ConcurrentMap<V> + ?Sized>(
    map: &M,
    spec: &LookupSpec,
    filled: (u64, u64),
) -> f64 {
    let (fill_threads, per_thread_keys) = filled;
    assert!(fill_threads > 0 && per_thread_keys > 0, "empty fill");
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..spec.threads as u64 {
            let map = &*map;
            let spec = spec.clone();
            s.spawn(move || {
                let mut rng = SplitMix64::new(0xfeed ^ t);
                let mut hits = 0u64;
                let next_key = |rng: &mut SplitMix64| {
                    let miss = (rng.next_u64() as f64 / u64::MAX as f64) < spec.miss_ratio;
                    if miss {
                        key_of(rng.below(fill_threads) + 4096, rng.next_u64() & ((1 << 40) - 1))
                    } else {
                        key_of(rng.below(fill_threads), rng.below(per_thread_keys))
                    }
                };
                if spec.batch > 1 {
                    let batch = spec.batch as u64;
                    let mut keys = vec![0u64; spec.batch];
                    let mut results = Vec::with_capacity(spec.batch);
                    let mut remaining = spec.ops_per_thread;
                    while remaining > 0 {
                        let n = remaining.min(batch) as usize;
                        for k in keys[..n].iter_mut() {
                            *k = next_key(&mut rng);
                        }
                        map.read_many(&keys[..n], &mut results);
                        hits += std::hint::black_box(&results)
                            .iter()
                            .filter(|r| r.is_some())
                            .count() as u64;
                        remaining -= n as u64;
                    }
                } else {
                    for _ in 0..spec.ops_per_thread {
                        let key = next_key(&mut rng);
                        if std::hint::black_box(map.read(&key)).is_some() {
                            hits += 1;
                        }
                    }
                }
                std::hint::black_box(hits);
            });
        }
    });
    let elapsed = start.elapsed();
    (spec.threads as u64 * spec.ops_per_thread) as f64 / elapsed.as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuckoo::OptimisticCuckooMap;

    #[test]
    fn fill_reaches_target_occupancy() {
        let map: OptimisticCuckooMap<u64, u64, 8> = OptimisticCuckooMap::with_capacity(1 << 12);
        let spec = FillSpec::standard(2, 1.0);
        let report = run_fill(&map, &spec);
        assert!(!report.hit_full);
        assert!(report.achieved_load > 0.94, "{}", report.achieved_load);
        assert!(report.overall_mops > 0.0);
        assert_eq!(report.inserts as usize, ConcurrentMap::<u64>::items(&map));
        // Windows are ordered sub-spans: all should have resolved.
        for (w, m) in report.window_mops.iter().enumerate() {
            assert!(m.is_finite(), "window {w} unresolved: {m}");
        }
    }

    #[test]
    fn mixed_ratio_performs_lookups_too() {
        let map: OptimisticCuckooMap<u64, u64, 8> = OptimisticCuckooMap::with_capacity(1 << 12);
        let spec = FillSpec {
            threads: 2,
            insert_ratio: 0.5,
            fill_to: 0.5,
            windows: vec![(0.0, 0.5)],
        };
        let report = run_fill(&map, &spec);
        // ~2x as many ops as inserts at a 50% ratio.
        let ratio = report.total_ops as f64 / report.inserts as f64;
        assert!(ratio > 1.5 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn lookup_only_throughput_is_positive() {
        let map: OptimisticCuckooMap<u64, u64, 8> = OptimisticCuckooMap::with_capacity(1 << 12);
        let fill = FillSpec {
            threads: 2,
            insert_ratio: 1.0,
            fill_to: 0.9,
            windows: vec![],
        };
        let report = run_fill(&map, &fill);
        let per_thread = report.inserts / 2;
        let mops = run_lookup_only(
            &map,
            &LookupSpec::single(2, 20_000, 0.1),
            (2, per_thread),
        );
        assert!(mops > 0.0);
    }

    #[test]
    fn batched_lookup_throughput_is_positive() {
        let map: OptimisticCuckooMap<u64, u64, 8> = OptimisticCuckooMap::with_capacity(1 << 12);
        let fill = FillSpec {
            threads: 2,
            insert_ratio: 1.0,
            fill_to: 0.9,
            windows: vec![],
        };
        let report = run_fill(&map, &fill);
        let per_thread = report.inserts / 2;
        for batch in [4, 8, 32] {
            let mops = run_lookup_only(
                &map,
                &LookupSpec {
                    threads: 2,
                    ops_per_thread: 20_000,
                    miss_ratio: 0.1,
                    batch,
                },
                (2, per_thread),
            );
            assert!(mops > 0.0, "batch {batch}");
        }
    }
}
