//! Figure 5a: single-thread Insert factor analysis with all locks
//! disabled — `cuckoo` (DFS), `+BFS`, `+prefetch` — measured over the
//! load windows 0–0.95 (overall), 0.75–0.9, and 0.9–0.95.

use bench::{banner, reps, slots};
use baselines::{MemC3Config, MemC3Cuckoo};
use std::time::Instant;
use workload::keygen::key_of;
use workload::report::{mops, Table};

/// Fills a fresh unlocked table to 95%, returning (overall, 0.75–0.9,
/// 0.9–0.95) Mops.
fn run(config: MemC3Config) -> (f64, f64, f64) {
    let mut m: MemC3Cuckoo<u64, u64, 4> = MemC3Cuckoo::with_capacity(slots(), config);
    let capacity = m.capacity() as u64;
    let target = capacity * 95 / 100;
    let (w1_lo, w1_hi) = (capacity * 75 / 100, capacity * 90 / 100);
    let w2_hi = target;

    let start = Instant::now();
    let mut t_w1_lo = None;
    let mut t_w1_hi = None;
    for i in 0..target {
        if i == w1_lo {
            t_w1_lo = Some(start.elapsed());
        }
        if i == w1_hi {
            t_w1_hi = Some(start.elapsed());
        }
        let key = key_of(0, i);
        m.insert_unlocked(key, key).expect("fill to 95% failed");
    }
    let total = start.elapsed();
    let (t_w1_lo, t_w1_hi) = (t_w1_lo.unwrap(), t_w1_hi.unwrap());

    let overall = target as f64 / total.as_secs_f64() / 1e6;
    let w1 = (w1_hi - w1_lo) as f64 / (t_w1_hi - t_w1_lo).as_secs_f64() / 1e6;
    let w2 = (w2_hi - w1_hi) as f64 / (total - t_w1_hi).as_secs_f64() / 1e6;
    (overall, w1, w2)
}

fn avg(config: MemC3Config) -> (f64, f64, f64) {
    let n = reps();
    let mut acc = (0.0, 0.0, 0.0);
    for _ in 0..n {
        let r = run(config);
        acc = (acc.0 + r.0, acc.1 + r.1, acc.2 + r.2);
    }
    (acc.0 / n as f64, acc.1 / n as f64, acc.2 / n as f64)
}

fn main() {
    banner(
        "Figure 5a",
        "single-thread insert factor analysis, all locks disabled",
    );
    let mut table = Table::new(
        "Figure 5a: single-thread Insert Mops by load window",
        &["config", "load 0-0.95 (overall)", "load 0.75-0.9", "load 0.9-0.95"],
    );

    let configs = [
        ("cuckoo", MemC3Config::baseline()),
        ("+BFS", MemC3Config::baseline().plus_bfs()),
        ("+prefetch", MemC3Config::baseline().plus_bfs().plus_prefetch()),
    ];
    let mut results = Vec::new();
    for (name, cfg) in configs {
        let (overall, w1, w2) = avg(cfg);
        results.push((name, overall, w1, w2));
        table.row(vec![name.into(), mops(overall), mops(w1), mops(w2)]);
    }
    table.print();
    let _ = table.write_csv("fig05a_factor_single");

    let dfs_hi = results[0].3;
    let bfs_hi = results[1].3;
    println!(
        "\npaper shape: at 0.9-0.95 load BFS improves single-thread inserts \
         ~26% and prefetch adds ~9% more.\nmeasured BFS gain at 0.9-0.95: {:+.1}%",
        (bfs_hi / dfs_hi - 1.0) * 100.0
    );
}
