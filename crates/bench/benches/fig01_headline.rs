//! Figure 1: "Highest throughput achieved by different hash tables" —
//! 64-bit key/value pairs, read-to-write ratio 1:1, each table at its
//! best thread count.

use baselines::locked::{LockKind, Locked};
use baselines::{dense::DenseTable, node_chain::NodeChainTable, ChainingMap};
use bench::{banner, fill_avg, slots, thread_counts};
use baselines::{ElidedCuckooMap, MemC3Config, MemC3Cuckoo};
use cuckoo::OptimisticCuckooMap;
use std::collections::hash_map::RandomState;
use workload::driver::FillSpec;
use workload::report::{mib, mops, Table};
use workload::{BenchValue, ConcurrentMap};

fn best_over_threads<V, M, F>(make: F) -> (f64, usize, usize)
where
    V: BenchValue,
    M: ConcurrentMap<V>,
    F: Fn() -> M,
{
    let mut best = (0.0f64, 0usize);
    // Memory must be measured on a *filled* table (node-based designs
    // allocate per entry).
    let filled = make();
    let _ = workload::driver::run_fill(
        &filled,
        &FillSpec {
            write_batch: 1,
            threads: 2,
            insert_ratio: 1.0,
            fill_to: 0.9,
            windows: vec![],
        },
    );
    let mem = filled.mem_bytes();
    drop(filled);
    for &t in &thread_counts() {
        let spec = FillSpec {
            write_batch: 1,
            threads: t,
            insert_ratio: 0.5,
            fill_to: 0.9,
            windows: vec![],
        };
        let report = fill_avg(&make, &spec);
        if report.overall_mops > best.0 {
            best = (report.overall_mops, t);
        }
    }
    (best.0, best.1, mem)
}

fn main() {
    banner(
        "Figure 1",
        "best 50/50 read-write throughput per hash table design",
    );
    let n = slots();
    let mut table = Table::new(
        "Figure 1: highest throughput, 1:1 read-to-write (paper order)",
        &["table", "Mops", "best threads", "memory"],
    );

    let (m, t, b) =
        best_over_threads::<u64, _, _>(|| ElidedCuckooMap::<u64, u64, 8>::with_capacity(n));
    table.row(vec![
        "cuckoo+ with HTM (*)".into(),
        mops(m),
        t.to_string(),
        mib(b),
    ]);

    let (m, t, b) =
        best_over_threads::<u64, _, _>(|| OptimisticCuckooMap::<u64, u64, 8>::with_capacity(n));
    table.row(vec![
        "cuckoo+ with fine-grained locking (*)".into(),
        mops(m),
        t.to_string(),
        mib(b),
    ]);

    let (m, t, b) = best_over_threads::<u64, _, _>(|| ChainingMap::<u64, u64>::with_capacity(n));
    table.row(vec![
        "Intel TBB concurrent_hash_map (analog)".into(),
        mops(m),
        t.to_string(),
        mib(b),
    ]);

    let (m, t, b) = best_over_threads::<u64, _, _>(|| {
        MemC3Cuckoo::<u64, u64, 4>::with_capacity(n, MemC3Config::baseline())
    });
    table.row(vec![
        "optimistic concurrent cuckoo (MemC3)".into(),
        mops(m),
        t.to_string(),
        mib(b),
    ]);

    let (m, t, b) = best_over_threads::<u64, _, _>(|| {
        Locked::new(
            NodeChainTable::<u64, u64>::with_capacity_and_hasher(n, RandomState::new()),
            LockKind::Global,
        )
    });
    table.row(vec![
        "C++11 std::unordered_map (analog, global lock)".into(),
        mops(m),
        t.to_string(),
        mib(b),
    ]);

    let (m, t, b) = best_over_threads::<u64, _, _>(|| {
        Locked::new(
            DenseTable::<u64, u64>::with_capacity_and_hasher(n / 2, RandomState::new()),
            LockKind::Global,
        )
    });
    table.row(vec![
        "Google dense_hash_map (analog, global lock)".into(),
        mops(m),
        t.to_string(),
        mib(b),
    ]);

    table.print();
    let _ = table.write_csv("fig01_headline");
    println!(
        "\npaper shape: cuckoo+ (both variants) on top, ~2x over TBB; \
         single-writer global-lock tables at the bottom."
    );
}
