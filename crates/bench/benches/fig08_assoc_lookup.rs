//! Figure 8: 8-thread aggregate Lookup-only throughput for 4-, 8-, and
//! 16-way set-associative tables at 95% occupancy (optimized cuckoo with
//! TSX lock elision).

use bench::{banner, slots};
use baselines::ElidedCuckooMap;
use workload::driver::{run_fill, run_lookup_only, FillSpec, LookupSpec};
use workload::report::{mops, Table};
use workload::ConcurrentMap;

const THREADS: usize = 8;

fn run<const B: usize>() -> f64 {
    let map: ElidedCuckooMap<u64, u64, B> = ElidedCuckooMap::with_capacity(slots());
    let fill = FillSpec {
            write_batch: 1,
        threads: 2,
        insert_ratio: 1.0,
        fill_to: 0.95,
        windows: vec![],
    };
    let report = run_fill(&map, &fill);
    assert!(!report.hit_full, "{B}-way failed to reach 95%");
    let per_thread = report.inserts / 2;
    let ops = (ConcurrentMap::<u64>::fill_capacity(&map) as u64).max(100_000);
    run_lookup_only(
        &map,
        &LookupSpec {
            threads: THREADS,
            ops_per_thread: ops / THREADS as u64,
            miss_ratio: 0.0,
            batch: 1,
        },
        (2, per_thread),
    )
}

fn main() {
    banner(
        "Figure 8",
        "lookup-only throughput vs set-associativity at 95% load",
    );
    let mut table = Table::new(
        "Figure 8: 8-thread Lookup Mops at 95% occupancy",
        &["associativity", "Mops"],
    );
    let m4 = run::<4>();
    let m8 = run::<8>();
    let m16 = run::<16>();
    table.row(vec!["4-way".into(), mops(m4)]);
    table.row(vec!["8-way".into(), mops(m8)]);
    table.row(vec!["16-way".into(), mops(m16)]);
    table.print();
    let _ = table.write_csv("fig08_assoc_lookup");
    println!(
        "\npaper shape: 4-way > 8-way > 16-way (68.95 / 63.64 / 54.17 in \
         the paper): lower associativity means fewer slots scanned per \
         lookup.\nmeasured: 4-way {:+.1}% over 8-way; 16-way {:+.1}% vs 8-way",
        (m4 / m8 - 1.0) * 100.0,
        (m16 / m8 - 1.0) * 100.0
    );
}
