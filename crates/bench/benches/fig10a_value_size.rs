//! Figure 10a: throughput with 8-byte keys and growing value sizes, in a
//! table with a fixed number of entries (the paper used ~33.4M; scaled
//! here), using optimized cuckoo with TSX lock elision.
//!
//! Series: 8-thread 100% insert, 4-thread 100% insert, 1-thread 100%
//! insert, 8-thread 10% insert, 1-thread 10% insert.

use bench::{banner, fill_avg, slots};
use baselines::ElidedCuckooMap;
use workload::driver::FillSpec;
use workload::report::{mops, Table};

fn run_size<const N: usize>(table: &mut Table) {
    // Fixed entry count: a quarter of the default slots so the largest
    // value size stays within memory.
    let entries = slots() / 4;
    for (threads, ratio, label) in [
        (8usize, 1.0, "8-thr 100% ins"),
        (4, 1.0, "4-thr 100% ins"),
        (1, 1.0, "1-thr 100% ins"),
        (8, 0.1, "8-thr 10% ins"),
        (1, 0.1, "1-thr 10% ins"),
    ] {
        let spec = FillSpec {
            threads,
            insert_ratio: ratio,
            fill_to: 0.95,
            windows: vec![],
        };
        let report = fill_avg(
            || ElidedCuckooMap::<u64, [u8; N], 8>::with_capacity(entries),
            &spec,
        );
        table.row(vec![
            N.to_string(),
            label.into(),
            mops(report.overall_mops),
        ]);
    }
}

fn main() {
    banner(
        "Figure 10a",
        "throughput vs value size, fixed entry count (TSX elision)",
    );
    let mut table = Table::new(
        "Figure 10a: Mops vs value size (bytes)",
        &["value bytes", "series", "Mops"],
    );
    run_size::<8>(&mut table);
    run_size::<16>(&mut table);
    run_size::<32>(&mut table);
    run_size::<64>(&mut table);
    run_size::<128>(&mut table);
    run_size::<256>(&mut table);
    table.print();
    let _ = table.write_csv("fig10a_value_size");
    println!(
        "\npaper shape: throughput decreases as value size grows (memory \
         bandwidth); with 256-byte values extra threads stop helping."
    );
}
