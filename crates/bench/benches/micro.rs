//! Criterion micro-benchmarks for the building blocks: hash functions,
//! single-operation lookup/insert latency, BFS vs DFS path search at
//! high occupancy, and spinlock vs general-purpose mutex acquisition
//! (the paper's P3 rationale: "because the operations that our hash
//! tables support are all very short and have low contention, very
//! simple spinlocks are often the best choice").

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cuckoo::hash::{FxHasher64, SipHasher13};
use cuckoo::raw::RawTable;
use baselines::search::dfs;
use baselines::SpinLock;
use cuckoo::search::{bfs, SearchScratch};
use cuckoo::{CuckooMap, OptimisticCuckooMap};
use std::hash::Hasher;
use std::hint::black_box;

fn bench_hashers(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    g.bench_function("fx_u64", |b| {
        b.iter(|| {
            let mut h = FxHasher64::default();
            h.write_u64(black_box(0xdead_beef));
            black_box(h.finish())
        })
    });
    g.bench_function("sip13_u64", |b| {
        b.iter(|| {
            let mut h = SipHasher13::new_with_keys(1, 2);
            h.write_u64(black_box(0xdead_beef));
            black_box(h.finish())
        })
    });
    g.bench_function("sip13_64bytes", |b| {
        let data = [7u8; 64];
        b.iter(|| {
            let mut h = SipHasher13::new_with_keys(1, 2);
            h.write(black_box(&data));
            black_box(h.finish())
        })
    });
    g.finish();
}

fn bench_table_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("table_ops");
    let n = 1 << 16;
    let optimistic: OptimisticCuckooMap<u64, u64, 8> = OptimisticCuckooMap::with_capacity(n);
    let locked: CuckooMap<u64, u64, 8> = CuckooMap::with_capacity(n);
    for k in 0..(n as u64 * 9 / 10) {
        optimistic.insert(k, k).unwrap();
        locked.insert(k, k).unwrap();
    }
    g.bench_function("optimistic_get_hit", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7) % 50_000;
            black_box(optimistic.get(&black_box(k)))
        })
    });
    g.bench_function("optimistic_get_miss", |b| {
        b.iter(|| black_box(optimistic.get(&black_box(u64::MAX))))
    });
    g.bench_function("locked_get_hit", |b| {
        // The paper (§7) prices libcuckoo's locked reads at a 5-20%
        // penalty over optimistic reads.
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7) % 50_000;
            black_box(locked.get(&black_box(k)))
        })
    });
    g.bench_function("insert_low_occupancy", |b| {
        b.iter_batched(
            || OptimisticCuckooMap::<u64, u64, 8>::with_capacity(1 << 12),
            |m| {
                for k in 0..512u64 {
                    m.insert(k, k).unwrap();
                }
                m
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("path_search");
    // Build a 95%-full raw table for search benchmarking.
    let raw: RawTable<u64, u64, 4> = RawTable::with_capacity(1 << 14);
    let total = raw.total_slots() * 95 / 100;
    let mut placed = 0;
    let mut x = 12345u64;
    while placed < total {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let bi = (x >> 32) as usize & raw.mask();
        let tag = ((x >> 24) as u8).max(1);
        if let Some(s) = raw.meta(bi).empty_slot() {
            // SAFETY: single-threaded setup.
            unsafe { raw.write_entry(bi, s, tag, 0, 0) };
            placed += 1;
        }
    }
    let mut scratch = SearchScratch::default();
    let mut i = 0usize;
    g.bench_function("bfs_95pct", |b| {
        b.iter(|| {
            i = (i + 61) & raw.mask();
            let tag = ((i as u8) | 1).max(1);
            black_box(bfs::search(&raw, i, raw.alt_index(i, tag), 2000, true, &mut scratch).is_ok())
        })
    });
    g.bench_function("dfs_95pct", |b| {
        b.iter(|| {
            i = (i + 61) & raw.mask();
            let tag = ((i as u8) | 1).max(1);
            black_box(dfs::search(&raw, i, raw.alt_index(i, tag), 2000, &mut scratch).is_ok())
        })
    });
    g.finish();
}

fn bench_locks(c: &mut Criterion) {
    let mut g = c.benchmark_group("locks");
    let spin = SpinLock::new();
    let mutex = parking_lot::Mutex::new(());
    let std_mutex = std::sync::Mutex::new(());
    g.bench_function("spinlock_uncontended", |b| {
        b.iter(|| {
            let g = spin.lock();
            black_box(&g);
        })
    });
    g.bench_function("parking_lot_uncontended", |b| {
        b.iter(|| {
            let g = mutex.lock();
            black_box(&g);
        })
    });
    g.bench_function("std_mutex_uncontended", |b| {
        b.iter(|| {
            let g = std_mutex.lock().unwrap();
            black_box(&g);
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_hashers,
    bench_table_ops,
    bench_search,
    bench_locks
);
criterion_main!(benches);
