//! Behavioral tests for the simulated-HTM claims the paper relies on:
//! footprint size drives abort rates, glibc vs TSX* fallback behavior,
//! and the interplay of elided tables with optimistic readers.

use cuckoo_repro::baselines::{ElidedCuckooMap, MemC3Config, MemC3Cuckoo, WriterLockKind};
use cuckoo_repro::htm::{AbortCode, ElidedLock, ElisionConfig, HtmConfig, HtmDomain, MemCtx};
use cuckoo_repro::workload::keygen::key_of;
use std::sync::Arc;

/// §5: transactions that touch more memory are more likely to abort on
/// capacity. Verify the monotone relationship directly.
#[test]
fn footprint_drives_capacity_aborts() {
    let run = |writes: usize| -> u64 {
        let domain = Arc::new(HtmDomain::with_config(HtmConfig {
            write_capacity_lines: 32,
            ..HtmConfig::default()
        }));
        let lock = ElidedLock::new(domain, ElisionConfig::optimized());
        let mut arr = vec![0u64; 64 * 1024 / 8];
        let base = arr.as_mut_ptr();
        for i in 0..50u64 {
            lock.execute(|ctx| {
                for w in 0..writes {
                    // SAFETY: strided within `arr`; lock coordinates.
                    unsafe { ctx.store(base.add((w * 8) % arr.len()), i)? };
                }
                Ok(())
            });
        }
        lock.stats().snapshot().capacity_aborts
    };
    let small = run(8); // 8 lines << 32-line budget
    let large = run(64); // 64 lines >> budget
    assert_eq!(small, 0, "small sections must fit");
    assert!(large > 0, "oversized sections must abort on capacity");
}

/// The Algorithm-1 baseline (whole insert — including the DFS search —
/// in one transaction) has a far larger transactional footprint than the
/// lock-later + BFS ladder; under a hardware-realistic capacity budget it
/// must abort and fall back far more often — the mechanism behind
/// Figure 5b. (Pure *conflict* abort rates depend on true temporal
/// overlap, which a single-core host cannot reproduce; footprint-driven
/// capacity aborts are deterministic.)
#[test]
fn algorithmic_opts_cut_abort_rate() {
    let run = |cfg: MemC3Config| -> cuckoo_repro::htm::StatsSnapshot {
        // Tight read budget: a long in-transaction path search overflows
        // it; the optimized insert's few-bucket critical section never
        // comes close.
        let domain = Arc::new(HtmDomain::with_config(HtmConfig {
            read_capacity_lines: 48,
            write_capacity_lines: 48,
            ..HtmConfig::default()
        }));
        let m: MemC3Cuckoo<u64, u64, 4> = MemC3Cuckoo::with_capacity_hasher_and_domain(
            1 << 12,
            cfg,
            cuckoo_repro::cuckoo::DefaultHashBuilder::new(),
            domain,
        );
        let per_thread = (m.capacity() * 95 / 100) as u64 / 4;
        // Fill to 95%...
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..per_thread {
                        m.insert(key_of(t, i), i).unwrap();
                    }
                });
            }
        });
        // ...then churn at sustained 95% occupancy, where inserts
        // regularly need cuckoo paths.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..per_thread / 4 {
                        assert_eq!(m.remove(&key_of(t, i)), Some(i));
                        m.insert(key_of(t + 50, i), i).unwrap();
                    }
                });
            }
        });
        m.htm_stats().unwrap()
    };
    let naive = run(MemC3Config::baseline().with_lock(WriterLockKind::ElidedOptimized));
    let optimized = run(
        MemC3Config::baseline()
            .plus_lock_later()
            .plus_bfs()
            .plus_prefetch()
            .with_lock(WriterLockKind::ElidedOptimized),
    );
    assert!(
        naive.capacity_aborts > 0,
        "in-transaction DFS searches must blow the capacity budget: {naive:?}"
    );
    assert_eq!(
        optimized.capacity_aborts, 0,
        "the optimized critical section (a few bucket writes) must always \
         fit: {optimized:?}"
    );
    // Deliberately no comparison of total `abort_rate()`: it includes
    // conflict aborts, which track how often the scheduler happens to
    // overlap two writers (on a 2-vCPU host the optimized run's rate
    // exceeded the naive run's about one time in three).
}

/// Appendix A: the optimized policy retries aborts without the RTM retry
/// hint; glibc's takes the fallback lock immediately. Under capacity
/// pressure both must remain correct, and glibc must fall back at least
/// as often.
#[test]
fn glibc_falls_back_no_less_than_optimized() {
    let run = |cfg: ElisionConfig| -> (u64, u64) {
        let domain = Arc::new(HtmDomain::with_config(HtmConfig {
            write_capacity_lines: 4,
            ..HtmConfig::default()
        }));
        let lock = ElidedLock::new(domain, cfg);
        let mut arr = vec![0u64; 4096];
        let base = arr.as_mut_ptr();
        for i in 0..200u64 {
            lock.execute(|ctx| {
                // Alternate: small sections commit, big ones overflow.
                let n = if i % 2 == 0 { 2 } else { 16 };
                for w in 0..n {
                    // SAFETY: strided in bounds; lock coordinates.
                    unsafe { ctx.store(base.add(w * 8), i)? };
                }
                Ok(())
            });
        }
        let s = lock.stats().snapshot();
        (s.fallbacks, s.commits)
    };
    let (glibc_fb, glibc_commits) = run(ElisionConfig::glibc());
    let (opt_fb, opt_commits) = run(ElisionConfig::optimized());
    assert_eq!(glibc_fb + glibc_commits, 200);
    assert_eq!(opt_fb + opt_commits, 200);
    assert!(glibc_fb >= opt_fb);
    // Every odd iteration overflows capacity deterministically.
    assert_eq!(glibc_fb, 100);
    assert_eq!(opt_fb, 100);
}

/// Optimistic (non-transactional) readers must observe consistent values
/// while elided writers churn — the seqlock-publication bridge.
#[test]
fn optimistic_readers_vs_elided_writers() {
    let m: ElidedCuckooMap<u64, [u64; 4], 8> = ElidedCuckooMap::with_capacity(1 << 12);
    const KEYS: u64 = 64;
    for k in 0..KEYS {
        m.insert(k, [0; 4]).unwrap();
    }
    let stop = std::sync::atomic::AtomicBool::new(false);
    let stop = &stop;
    let m = &m;
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let k = i % KEYS;
                    let v = m.get(&k).unwrap_or_else(|| panic!("key {k} missing"));
                    assert!(
                        v.iter().all(|&x| x == v[0]),
                        "torn read through elided writer: {v:?}"
                    );
                    i += 1;
                }
            });
        }
        s.spawn(move || {
            for gen in 1..=500u64 {
                for k in 0..KEYS {
                    assert!(m.update(&k, [gen; 4]), "update {k}");
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
    });
    for k in 0..KEYS {
        assert_eq!(m.get(&k), Some([500; 4]));
    }
}

/// RTM abort-code taxonomy is preserved end to end.
#[test]
fn abort_codes_surface_correctly() {
    let domain = HtmDomain::with_config(HtmConfig {
        read_capacity_lines: 2,
        ..HtmConfig::default()
    });
    let arr = vec![0u64; 4096];
    let base = arr.as_ptr();
    let r = domain.execute(|tx| {
        for i in 0..32 {
            // SAFETY: strided in bounds.
            unsafe { tx.read(base.add(i * 8))? };
        }
        Ok(())
    });
    assert_eq!(r.unwrap_err().code, AbortCode::Capacity);

    let r: Result<(), _> = domain.execute(|_tx| Err(cuckoo_repro::htm::Abort::explicit(0x42)));
    assert_eq!(r.unwrap_err().code, AbortCode::Explicit(0x42));
}
