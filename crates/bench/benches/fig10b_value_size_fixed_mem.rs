//! Figure 10b: throughput with 8-byte keys and value sizes up to 1024
//! bytes in a table of *fixed total bytes* (the paper used 4 GB; scaled
//! here), comparing fine-grained locking against TSX lock elision.
//!
//! The paper's finding: "TSX lock elision outperforms fine-grained
//! locking with small key-value sizes, but is worse at 1024 bytes" —
//! large values inflate the transactional write footprint and the abort
//! rate.

use bench::{banner, fill_avg, slots};
use baselines::{ElidedCuckooMap, WriterLockKind};
use cuckoo::OptimisticCuckooMap;
use htm::{HtmConfig, HtmDomain};
use std::sync::Arc;
use workload::driver::FillSpec;
use workload::report::{mops, pct, Table};
use workload::ConcurrentMap;

/// Total table budget in bytes (scaled stand-in for the paper's 4 GB).
fn budget_bytes() -> usize {
    slots() * 16
}

fn run_size<const N: usize>(table: &mut Table) {
    let entry = 8 + N;
    let entries = (budget_bytes() / entry).max(1 << 12);
    for (threads, ratio, series) in [
        (8usize, 1.0, "8-thr 100% ins"),
        (1, 1.0, "1-thr 100% ins"),
        (8, 0.1, "8-thr 10% ins"),
    ] {
        let spec = FillSpec {
            write_batch: 1,
            threads,
            insert_ratio: ratio,
            fill_to: 0.9,
            windows: vec![],
        };
        // TSX elision variant (with abort stats from one instrumented run).
        let tsx_map = ElidedCuckooMap::<u64, [u8; N], 8>::with_capacity(entries);
        let _ = workload::driver::run_fill(&tsx_map, &spec);
        let tsx_aborts = ConcurrentMap::<[u8; N]>::htm_stats(&tsx_map)
            .map(|s| pct(s.abort_rate()))
            .unwrap_or_default();
        let tsx = fill_avg(
            || ElidedCuckooMap::<u64, [u8; N], 8>::with_capacity(entries),
            &spec,
        );
        table.row(vec![
            N.to_string(),
            series.into(),
            "TSX".into(),
            mops(tsx.overall_mops),
            tsx_aborts,
        ]);
        // Fine-grained locking variant.
        if threads == 8 && ratio == 1.0 {
            let fg = fill_avg(
                || OptimisticCuckooMap::<u64, [u8; N], 8>::with_capacity(entries),
                &spec,
            );
            table.row(vec![
                N.to_string(),
                series.into(),
                "fine-grained".into(),
                mops(fg.overall_mops),
                "-".into(),
            ]);
        }
    }
}

/// The footprint mechanism, isolated: run the elided table in a domain
/// whose write budget models the paper's 16KB store buffer scaled to the
/// workload, so large values genuinely overflow it.
fn constrained_domain_sweep(table: &mut Table) {
    fn one<const N: usize>(table: &mut Table) {
        let entry = 8 + N;
        let entries = (budget_bytes() / entry).max(1 << 12);
        let spec = FillSpec {
            write_batch: 1,
            threads: 8,
            insert_ratio: 1.0,
            fill_to: 0.9,
            windows: vec![],
        };
        // 32-line write budget: a cuckoo path of 8B entries fits easily;
        // a path of 1KB entries does not.
        let domain = Arc::new(HtmDomain::with_config(HtmConfig {
            write_capacity_lines: 32,
            ..HtmConfig::default()
        }));
        let map = ElidedCuckooMap::<u64, [u8; N], 8>::with_capacity_policy_and_domain(
            entries,
            WriterLockKind::ElidedOptimized,
            domain,
        );
        let report = workload::driver::run_fill(&map, &spec);
        let stats = ConcurrentMap::<[u8; N]>::htm_stats(&map).unwrap();
        table.row(vec![
            N.to_string(),
            "8-thr 100% ins".into(),
            "TSX (32-line budget)".into(),
            mops(report.overall_mops),
            format!(
                "{} capacity aborts, {} fallback",
                stats.capacity_aborts,
                pct(stats.fallback_rate())
            ),
        ]);
    }
    one::<8>(table);
    one::<256>(table);
    one::<1024>(table);
}

fn main() {
    banner(
        "Figure 10b",
        "throughput vs value size, fixed table bytes: FG locking vs TSX",
    );
    let mut table = Table::new(
        "Figure 10b: Mops vs value size (fixed memory budget)",
        &["value bytes", "series", "locking", "Mops", "abort rate"],
    );
    run_size::<8>(&mut table);
    run_size::<64>(&mut table);
    run_size::<256>(&mut table);
    run_size::<512>(&mut table);
    run_size::<1024>(&mut table);
    constrained_domain_sweep(&mut table);
    table.print();
    let _ = table.write_csv("fig10b_value_size_fixed_mem");
    println!(
        "\npaper shape: elision ahead of fine-grained locking for small \
         values, behind at 1024 bytes as large values blow up the \
         transactional footprint. On a single-core host the conflict-abort \
         channel is muted; the constrained-budget rows isolate the \
         footprint/capacity channel (abort + fallback growth with value \
         size)."
    );
}
