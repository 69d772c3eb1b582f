//! Figure 9: 8-thread aggregate throughput versus table occupancy
//! (0.3 → 0.95) for 4-, 8-, and 16-way tables under the three workloads
//! (optimized cuckoo with TSX lock elision).

use bench::{banner, fill_avg, slots};
use baselines::ElidedCuckooMap;
use workload::driver::FillSpec;
use workload::report::{mops, Table};

const THREADS: usize = 8;

/// Load-factor windows matching the paper's x-axis.
fn windows() -> Vec<(f64, f64)> {
    (0..13)
        .map(|i| (0.25 + i as f64 * 0.05, 0.30 + i as f64 * 0.05))
        .collect()
}

fn sweep<const B: usize>(table: &mut Table) {
    for ratio in [1.0, 0.5, 0.1] {
        let spec = FillSpec {
            threads: THREADS,
            insert_ratio: ratio,
            fill_to: 0.95,
            windows: windows(),
        };
        let report = fill_avg(
            || ElidedCuckooMap::<u64, u64, B>::with_capacity(slots()),
            &spec,
        );
        for (w, &(lo, hi)) in windows().iter().enumerate() {
            table.row(vec![
                format!("{B}-way"),
                format!("{:.0}%", ratio * 100.0),
                format!("{:.2}-{:.2}", lo, hi),
                mops(report.window_mops[w]),
            ]);
        }
    }
}

fn main() {
    banner(
        "Figure 9",
        "throughput vs load factor x set-associativity x workload",
    );
    let mut table = Table::new(
        "Figure 9: 8-thread Mops by load-factor window",
        &["associativity", "insert%", "load window", "Mops"],
    );
    sweep::<4>(&mut table);
    sweep::<8>(&mut table);
    sweep::<16>(&mut table);
    table.print();
    let _ = table.write_csv("fig09_assoc_load");
    println!(
        "\npaper shape: write throughput degrades as occupancy grows; \
         8-way beats 4-way for write-heavy mixes, 16-way is worst at low \
         occupancy but catches up above ~0.75 load and wins write-heavy \
         mixes above ~0.92."
    );
}
