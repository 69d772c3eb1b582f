//! Figure 5b: 8-thread Insert factor analysis, optimizations applied
//! cumulatively in the paper's two orderings:
//!
//! - top plot: elision first (`cuckoo → +TSX-glibc → +TSX* → +lock later
//!   → +BFS w/ prefetch`);
//! - bottom plot: algorithms first (`cuckoo → +lock later → +BFS w/
//!   prefetch → +TSX-glibc → +TSX*`).
//!
//! The paper's conclusion: "neither of these optimizations alone was able
//! to achieve more than 8 million operations per second, but they combine
//! to achieve almost 30 million."

use bench::{banner, fill_avg, slots};
use baselines::{MemC3Config, MemC3Cuckoo, WriterLockKind};
use workload::driver::FillSpec;
use workload::report::{mops, Table};

const THREADS: usize = 8;

fn measure(config: MemC3Config) -> (f64, f64, f64) {
    let spec = FillSpec {
            write_batch: 1,
        threads: THREADS,
        insert_ratio: 1.0,
        fill_to: 0.95,
        windows: vec![(0.0, 0.95), (0.75, 0.90), (0.90, 0.95)],
    };
    let report = fill_avg(
        || MemC3Cuckoo::<u64, u64, 4>::with_capacity(slots(), config),
        &spec,
    );
    (
        report.overall_mops,
        report.window_mops[1],
        report.window_mops[2],
    )
}

fn emit(table: &mut Table, ordering: &str, name: &str, cfg: MemC3Config) {
    let (overall, w1, w2) = measure(cfg);
    table.row(vec![
        ordering.into(),
        name.into(),
        mops(overall),
        mops(w1),
        mops(w2),
    ]);
}

fn main() {
    banner(
        "Figure 5b",
        "8-thread insert factor analysis, two cumulative orderings",
    );
    let mut table = Table::new(
        "Figure 5b: 8-thread aggregate Insert Mops by load window",
        &[
            "ordering",
            "config",
            "load 0-0.95",
            "load 0.75-0.9",
            "load 0.9-0.95",
        ],
    );

    let base = MemC3Config::baseline();

    // Upper plot: elision first.
    emit(&mut table, "elision-first", "cuckoo", base);
    emit(
        &mut table,
        "elision-first",
        "+TSX-glibc",
        base.with_lock(WriterLockKind::ElidedGlibc),
    );
    emit(
        &mut table,
        "elision-first",
        "+TSX*",
        base.with_lock(WriterLockKind::ElidedOptimized),
    );
    emit(
        &mut table,
        "elision-first",
        "+lock later",
        base.with_lock(WriterLockKind::ElidedOptimized).plus_lock_later(),
    );
    emit(
        &mut table,
        "elision-first",
        "+BFS w/ prefetch",
        base.with_lock(WriterLockKind::ElidedOptimized)
            .plus_lock_later()
            .plus_bfs()
            .plus_prefetch(),
    );

    // Lower plot: algorithms first.
    emit(&mut table, "algo-first", "cuckoo", base);
    emit(&mut table, "algo-first", "+lock later", base.plus_lock_later());
    emit(
        &mut table,
        "algo-first",
        "+BFS w/ prefetch",
        base.plus_lock_later().plus_bfs().plus_prefetch(),
    );
    emit(
        &mut table,
        "algo-first",
        "+TSX-glibc",
        base.plus_lock_later()
            .plus_bfs()
            .plus_prefetch()
            .with_lock(WriterLockKind::ElidedGlibc),
    );
    emit(
        &mut table,
        "algo-first",
        "+TSX*",
        base.plus_lock_later()
            .plus_bfs()
            .plus_prefetch()
            .with_lock(WriterLockKind::ElidedOptimized),
    );

    table.print();
    let _ = table.write_csv("fig05b_factor_multi");
    println!(
        "\npaper shape: neither elision alone nor algorithms alone wins; \
         the combination dominates, and at high load (0.9-0.95) the \
         algorithmic optimizations matter most."
    );
}
