//! Figure 6: throughput vs. number of threads for the six table
//! configurations, three workloads (100%/50%/10% insert), reported (a)
//! over the whole 0→95% fill and (b) for the high-occupancy 0.9–0.95
//! window.

use baselines::ChainingMap;
use bench::{banner, fill_avg, slots, thread_counts};
use baselines::{MemC3Config, MemC3Cuckoo, WriterLockKind};
use cuckoo::OptimisticCuckooMap;
use workload::driver::FillSpec;
use workload::report::{mops, Table};
use workload::{BenchValue, ConcurrentMap};

fn sweep<V, M, F>(name: &str, make: F, table: &mut Table)
where
    V: BenchValue,
    M: ConcurrentMap<V>,
    F: Fn() -> M,
{
    for ratio in [1.0, 0.5, 0.1] {
        for &t in &thread_counts() {
            let spec = FillSpec {
                threads: t,
                insert_ratio: ratio,
                fill_to: 0.95,
                windows: vec![(0.0, 0.95), (0.90, 0.95)],
            };
            let report = fill_avg(&make, &spec);
            table.row(vec![
                name.into(),
                format!("{:.0}%", ratio * 100.0),
                t.to_string(),
                mops(report.overall_mops),
                mops(report.window_mops[1]),
            ]);
        }
    }
}

fn main() {
    banner(
        "Figure 6",
        "throughput vs threads, six configurations x three workloads",
    );
    let n = slots();
    let mut table = Table::new(
        "Figure 6: Mops vs threads (overall fill | 0.9-0.95 window)",
        &["table", "insert%", "threads", "overall Mops", "0.9-0.95 Mops"],
    );

    sweep::<u64, _, _>(
        "cuckoo",
        || MemC3Cuckoo::<u64, u64, 4>::with_capacity(n, MemC3Config::baseline()),
        &mut table,
    );
    sweep::<u64, _, _>(
        "cuckoo w/ TSX",
        || {
            MemC3Cuckoo::<u64, u64, 4>::with_capacity(
                n,
                MemC3Config::baseline().with_lock(WriterLockKind::ElidedOptimized),
            )
        },
        &mut table,
    );
    sweep::<u64, _, _>(
        "cuckoo+",
        || {
            MemC3Cuckoo::<u64, u64, 8>::with_capacity(
                n,
                MemC3Config::baseline()
                    .plus_lock_later()
                    .plus_bfs()
                    .plus_prefetch(),
            )
        },
        &mut table,
    );
    sweep::<u64, _, _>(
        "cuckoo+ w/ TSX",
        || {
            MemC3Cuckoo::<u64, u64, 8>::with_capacity(
                n,
                MemC3Config::baseline()
                    .plus_lock_later()
                    .plus_bfs()
                    .plus_prefetch()
                    .with_lock(WriterLockKind::ElidedOptimized),
            )
        },
        &mut table,
    );
    sweep::<u64, _, _>(
        "cuckoo+ w/ FG locking",
        || OptimisticCuckooMap::<u64, u64, 8>::with_capacity(n),
        &mut table,
    );
    sweep::<u64, _, _>(
        "TBB-style chaining",
        || ChainingMap::<u64, u64>::with_capacity(n),
        &mut table,
    );

    table.print();
    let _ = table.write_csv("fig06_scaling");
    println!(
        "\npaper shape: cuckoo+ variants scale with threads for all \
         workloads; the single-writer baseline's write throughput drops \
         with more threads except under read-heavy mixes; TBB sits well \
         below cuckoo+."
    );
}
