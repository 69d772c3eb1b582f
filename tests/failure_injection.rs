//! Failure injection: force the rare paths — stale cuckoo paths, abort
//! storms, full tables — and check the system degrades the way the paper
//! says it should.

use cuckoo_repro::baselines::ElidedCuckooMap;
use cuckoo_repro::cuckoo::{InsertError, OptimisticCuckooMap};
use cuckoo_repro::htm::{Abort, ElidedLock, ElisionConfig, HtmDomain};
use cuckoo_repro::workload::keygen::{key_of, SplitMix64};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// An adversary thread churns the exact buckets a victim's cuckoo paths
/// run through; the victim must complete every insert correctly no
/// matter how many paths go stale. (How *often* paths go stale depends
/// on real temporal overlap — near zero on a single core, per Eq. 1 —
/// so this test asserts correctness under fire, not a stale count; the
/// deterministic stale-path detection test lives next to the
/// implementation in `cuckoo::optimistic::tests`.)
#[test]
fn adversary_churn_never_breaks_inserts() {
    // Tiny table + tiny stripe count = maximal overlap between victim
    // paths and adversary writes.
    let m: OptimisticCuckooMap<u64, u64, 4> = OptimisticCuckooMap::<u64, u64, 4>::builder(1 << 11)
        .stripes(16)
        .path_retries(4)
        .build();
    // Fill to 90% so inserts regularly need a path.
    let base = (m.capacity() * 90 / 100) as u64;
    for i in 0..base {
        m.insert(key_of(0, i), i).unwrap();
    }
    let stop = AtomicBool::new(false);
    let stop = &stop;
    let m = &m;
    std::thread::scope(|s| {
        // Adversary: remove/re-insert random residents as fast as
        // possible, invalidating in-flight paths.
        s.spawn(move || {
            let mut rng = SplitMix64::new(0xbad);
            while !stop.load(Ordering::Acquire) {
                let i = rng.below(base);
                let k = key_of(0, i);
                if let Some(v) = m.remove(&k) {
                    // The victim may transiently grab the freed slot;
                    // occupancy stays below capacity, so retry until the
                    // reinsert lands (the key must not be lost).
                    loop {
                        match m.insert(k, v) {
                            Ok(()) => break,
                            Err(InsertError::TableFull) => std::thread::yield_now(),
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
            }
        });
        // Victim: repeatedly push occupancy to ~94% and back, under fire.
        s.spawn(move || {
            let extra = (m.capacity() * 4 / 100) as u64;
            for round in 0..20 {
                for i in 0..extra {
                    m.insert(key_of(7, i), i).unwrap();
                }
                if round < 19 {
                    for i in 0..extra {
                        assert_eq!(m.remove(&key_of(7, i)), Some(i));
                    }
                }
            }
            stop.store(true, Ordering::Release);
        });
    });
    let extra = (m.capacity() * 4 / 100) as u64;
    for i in 0..extra {
        assert_eq!(m.get(&key_of(7, i)), Some(i), "victim key {i}");
    }
    for i in 0..base {
        assert_eq!(m.get(&key_of(0, i)), Some(i), "resident key {i}");
    }
    let stats = m.path_stats();
    assert!(stats.searches > 0, "workload must exercise the slow path");
    println!("path stats under adversarial churn: {stats:?}");
}

/// A table driven to genuine fullness must fail cleanly with `TableFull`,
/// lose nothing, and recover once space is freed.
#[test]
fn full_table_fails_cleanly_and_recovers() {
    let m: OptimisticCuckooMap<u64, u64, 4> =
        OptimisticCuckooMap::<u64, u64, 4>::builder(512).build();
    let mut inserted = Vec::new();
    let mut k = 0u64;
    loop {
        match m.insert(k, k) {
            Ok(()) => inserted.push(k),
            Err(InsertError::TableFull) => break,
            Err(e) => panic!("{e}"),
        }
        k += 1;
    }
    // Everything inserted before the failure is intact.
    for &k in &inserted {
        assert_eq!(m.get(&k), Some(k));
    }
    // Freeing any entry makes the failed insert succeed.
    let victim = inserted[inserted.len() / 2];
    assert_eq!(m.remove(&victim), Some(victim));
    m.insert(k, k).unwrap();
    assert_eq!(m.get(&k), Some(k));
    assert_eq!(m.len(), inserted.len());
}

/// Continuous external invalidation of a transaction's read set must
/// starve speculation into the fallback path, never corrupt data.
#[test]
fn conflict_storm_drives_fallback_not_corruption() {
    let domain = Arc::new(HtmDomain::new());
    let lock = ElidedLock::new(Arc::clone(&domain), ElisionConfig::optimized());
    let mut counter = 0u64;
    let p: *mut u64 = &mut counter;
    let addr = p as usize;
    let stop = AtomicBool::new(false);
    let storming = AtomicBool::new(false);
    let stop = &stop;
    let storming = &storming;
    let lock = &lock;
    let domain = &domain;
    let p = SendPtr(p);
    let mut increments = 0u64;
    std::thread::scope(|s| {
        // Storm: bump the counter's cache line version continuously.
        s.spawn(move || {
            while !stop.load(Ordering::Acquire) {
                domain.invalidate_line(addr);
                storming.store(true, Ordering::Release);
            }
        });
        // Worker: don't start until the storm is live, and keep
        // transacting until the storm has demonstrably forced both a
        // conflict abort and a fallback (a fixed iteration count races
        // the scheduler: the worker can finish before the storm thread
        // ever runs). The deadline keeps a broken implementation from
        // hanging the test instead of failing it.
        while !storming.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            lock.execute(|ctx| {
                use cuckoo_repro::htm::MemCtx;
                // SAFETY: `counter` outlives the scope; coordinated
                // by the elided lock.
                let v = unsafe { ctx.load(p.0)? };
                unsafe { ctx.store(p.0, v + 1) }
            });
            increments += 1;
            if increments >= 2_000 {
                let s = lock.stats().snapshot();
                if (s.conflict_aborts > 0 && s.fallbacks > 0)
                    || std::time::Instant::now() > deadline
                {
                    break;
                }
            }
        }
        stop.store(true, Ordering::Release);
    });
    assert_eq!(counter, increments, "increments survived the conflict storm");
    let stats = lock.stats().snapshot();
    assert!(
        stats.conflict_aborts > 0,
        "storm must cause conflicts: {stats:?}"
    );
    assert!(
        stats.fallbacks > 0,
        "sustained conflicts must reach the fallback lock: {stats:?}"
    );
}

/// HLE-style single-shot elision (Appendix A) still completes correctly
/// under footprint pressure — it just falls back more.
#[test]
fn hle_semantics_fall_back_once_per_abort() {
    let domain = Arc::new(HtmDomain::with_config(cuckoo_repro::htm::HtmConfig {
        write_capacity_lines: 2,
        ..cuckoo_repro::htm::HtmConfig::default()
    }));
    let lock = ElidedLock::new(domain, ElisionConfig::hle());
    let mut arr = vec![0u64; 512];
    let base = arr.as_mut_ptr();
    for i in 0..100u64 {
        lock.execute(|ctx| {
            use cuckoo_repro::htm::MemCtx;
            for w in 0..8 {
                // SAFETY: strided in bounds; coordinated by the lock.
                unsafe { ctx.store(base.add(w * 8), i)? };
            }
            Ok(())
        });
    }
    let stats = lock.stats().snapshot();
    assert_eq!(stats.fallbacks, 100, "every oversized section falls back");
    assert_eq!(
        stats.starts, 100,
        "HLE speculates exactly once per section"
    );
    for w in 0..8 {
        assert_eq!(arr[w * 8], 99);
    }
}

/// Aborting inside an elided cuckoo insert (by external invalidation of
/// the table's lines) must never lose or duplicate keys.
#[test]
fn elided_table_survives_random_invalidation() {
    // 2 writers x 2000 keys + 200 churn keys in 16384 slots (~26% load).
    let m: ElidedCuckooMap<u64, u64, 4> = ElidedCuckooMap::with_capacity(1 << 14);
    let stop = AtomicBool::new(false);
    let stop = &stop;
    let m = &m;
    std::thread::scope(|s| {
        for t in 0..2u64 {
            s.spawn(move || {
                for i in 0..2_000u64 {
                    m.insert(key_of(t, i), i).unwrap();
                }
            });
        }
        s.spawn(move || {
            // Churn a third key space to keep transactions aborting.
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                let k = key_of(9, i % 200);
                if m.insert(k, i).is_err() {
                    m.remove(&k);
                }
                i += 1;
            }
        });
        // Let the writers finish, then stop the churner (bounded wait so
        // a writer panic cannot wedge the scope).
        s.spawn(move || {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
            loop {
                let done = (0..2u64).all(|t| m.get(&key_of(t, 1999)).is_some());
                if done || std::time::Instant::now() > deadline {
                    stop.store(true, Ordering::Release);
                    return;
                }
                std::thread::yield_now();
            }
        });
    });
    for t in 0..2u64 {
        for i in 0..2_000u64 {
            assert_eq!(m.get(&key_of(t, i)), Some(i), "t{t} i{i}");
        }
    }
}

#[derive(Clone, Copy)]
struct SendPtr(*mut u64);
// SAFETY: test-only; the pointee outlives the scope and access is
// coordinated by the lock under test.
unsafe impl Send for SendPtr {}

// Quiet the unused-abort-import lint when compiled without all tests.
#[allow(dead_code)]
fn _uses(_: Abort) {}
