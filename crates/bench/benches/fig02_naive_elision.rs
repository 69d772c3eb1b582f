//! Figure 2: "Insert throughput vs. number of threads for single-writer
//! hash tables with and without TSX lock elision" (§2.3).
//!
//! Also prints the transactional abort rates the paper measured with
//! Intel PCM ("the transactional abort rates are above 80% for all three
//! hash tables with 8 concurrent writers").

use baselines::locked::{LockKind, Locked};
use baselines::{dense::DenseTable, node_chain::NodeChainTable};
use bench::{banner, fill_avg, slots, thread_counts};
use baselines::{MemC3Config, MemC3Cuckoo, WriterLockKind};
use std::collections::hash_map::RandomState;
use workload::driver::FillSpec;
use workload::report::{mops, pct, Table};
use workload::{BenchValue, ConcurrentMap};

fn sweep<V, M, F>(name: &str, make: F, table: &mut Table)
where
    V: BenchValue,
    M: ConcurrentMap<V>,
    F: Fn() -> M,
{
    for &t in &thread_counts() {
        let spec = FillSpec {
            write_batch: 1,
            threads: t,
            insert_ratio: 1.0,
            fill_to: 0.45, // all tables support this occupancy (dense caps at 0.5)
            windows: vec![],
        };
        // One instrumented run (for this instance's abort stats), plus
        // the averaged repetitions for the throughput column.
        let map = make();
        let _ = workload::driver::run_fill(&map, &spec);
        let avg = fill_avg(&make, &spec);
        let abort_rate = map
            .htm_stats()
            .map(|s| pct(s.abort_rate()))
            .unwrap_or_else(|| "-".into());
        let fallback_rate = map
            .htm_stats()
            .map(|s| pct(s.fallback_rate()))
            .unwrap_or_else(|| "-".into());
        table.row(vec![
            name.into(),
            t.to_string(),
            mops(avg.overall_mops),
            abort_rate,
            fallback_rate,
        ]);
    }
}

fn main() {
    banner(
        "Figure 2",
        "single-writer tables, 100% insert, global lock vs elided",
    );
    let n = slots();
    let mut table = Table::new(
        "Figure 2: insert throughput vs threads (single-writer tables)",
        &["table", "threads", "Mops", "abort rate", "fallback rate"],
    );

    sweep::<u64, _, _>(
        "cuckoo (MemC3)",
        || MemC3Cuckoo::<u64, u64, 4>::with_capacity(n, MemC3Config::baseline()),
        &mut table,
    );
    sweep::<u64, _, _>(
        "cuckoo w/ TSX",
        || {
            MemC3Cuckoo::<u64, u64, 4>::with_capacity(
                n,
                MemC3Config::baseline().with_lock(WriterLockKind::ElidedGlibc),
            )
        },
        &mut table,
    );
    sweep::<u64, _, _>(
        "dense_hash_map",
        || {
            Locked::new(
                DenseTable::<u64, u64>::with_capacity_and_hasher(n / 2, RandomState::new()),
                LockKind::Global,
            )
        },
        &mut table,
    );
    sweep::<u64, _, _>(
        "dense_hash_map w/ TSX",
        || {
            Locked::new(
                DenseTable::<u64, u64>::with_capacity_and_hasher(n / 2, RandomState::new()),
                LockKind::ElidedGlibc,
            )
        },
        &mut table,
    );
    sweep::<u64, _, _>(
        "std::unordered_map",
        || {
            Locked::new(
                NodeChainTable::<u64, u64>::with_capacity_and_hasher(n, RandomState::new()),
                LockKind::Global,
            )
        },
        &mut table,
    );
    sweep::<u64, _, _>(
        "std::unordered_map w/ TSX",
        || {
            Locked::new(
                NodeChainTable::<u64, u64>::with_capacity_and_hasher(n, RandomState::new()),
                LockKind::ElidedGlibc,
            )
        },
        &mut table,
    );

    table.print();
    let _ = table.write_csv("fig02_naive_elision");
    println!(
        "\npaper shape: multi-thread aggregate throughput below single-thread \
         for the global lock; elision helps but does not restore scaling; \
         abort rates climb with writer count."
    );
}
