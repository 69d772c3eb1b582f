//! Figure 7: overall throughput vs. number of cores on the (TSX-less)
//! 16-core Xeon — cuckoo+ with fine-grained locking vs. the TBB-style
//! chaining map, three workloads.
//!
//! Thread counts extend to 16 regardless of `CUCKOO_BENCH_THREADS`
//! because the figure's point is the wider sweep.

use baselines::ChainingMap;
use bench::{banner, fill_avg, slots};
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
        for t in [1usize, 2, 4, 8, 16] {
            let spec = FillSpec {
                threads: t,
                insert_ratio: ratio,
                fill_to: 0.95,
                windows: vec![],
            };
            let report = fill_avg(&make, &spec);
            table.row(vec![
                name.into(),
                format!("{:.0}%", ratio * 100.0),
                t.to_string(),
                mops(report.overall_mops),
            ]);
        }
    }
}

fn main() {
    banner(
        "Figure 7",
        "16-core scaling: cuckoo+ (fine-grained locking) vs TBB analog",
    );
    let n = slots();
    let mut table = Table::new(
        "Figure 7: overall Mops vs cores (no HTM)",
        &["table", "insert%", "threads", "overall Mops"],
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
    let _ = table.write_csv("fig07_xeon_scaling");
    println!(
        "\npaper shape: cuckoo+ continues to scale for write-heavy \
         workloads where TBB scales only for read-heavy ones. (On this \
         host, thread counts beyond the physical core count measure \
         contention behavior, not parallel speedup.)"
    );
}
