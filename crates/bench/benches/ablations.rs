//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. **Lock-stripe count** — the paper picks 2048 ("reasonable size lock
//!    tables, such as 1K-8K entries"); sweep 64 → 8192 and watch insert
//!    throughput under concurrent writers.
//! 2. **Search budget `M`** — controls both the achievable load factor
//!    and the worst-case path length (Eq. 2); sweep it and report the
//!    achieved load when the budget runs out.
//! 3. **BFS vs DFS path-length distribution** at several occupancies —
//!    the empirical histogram behind Figure 4 / §4.3.2's expected-length
//!    argument.
//! 4. **Delete throughput** — the paper treats `Delete` as "very similar
//!    to Lookup"; verify remove ≈ lookup cost on this implementation.

use bench::{banner, slots};
use cuckoo::raw::RawTable;
use baselines::search::dfs;
use cuckoo::search::{bfs, SearchScratch};
use cuckoo::OptimisticCuckooMap;
use workload::driver::{run_fill, run_lookup_only, FillSpec, LookupSpec};
use workload::keygen::key_of;
use workload::report::{mops, Table};
use workload::ConcurrentMap;
use std::time::Instant;

fn stripes_ablation() {
    let mut table = Table::new(
        "Ablation 1: lock-stripe count (4 threads, 100% insert to 95%)",
        &["stripes", "overall Mops"],
    );
    for stripes in [64usize, 256, 1024, 2048, 8192] {
        let map: OptimisticCuckooMap<u64, u64, 8> =
            OptimisticCuckooMap::<u64, u64, 8>::builder(slots())
                .stripes(stripes)
                .build();
        let spec = FillSpec {
            write_batch: 1,
            threads: 4,
            insert_ratio: 1.0,
            fill_to: 0.95,
            windows: vec![],
        };
        let report = run_fill(&map, &spec);
        table.row(vec![stripes.to_string(), mops(report.overall_mops)]);
    }
    table.print();
    let _ = table.write_csv("ablation_stripes");
}

fn search_budget_ablation() {
    let mut table = Table::new(
        "Ablation 2: search budget M vs achievable load (4-way, 1 thread)",
        &["M (slots)", "L_BFS bound", "achieved load", "overall Mops"],
    );
    for m in [50usize, 200, 500, 2000, 8000] {
        let map: OptimisticCuckooMap<u64, u64, 4> =
            OptimisticCuckooMap::<u64, u64, 4>::builder(slots() / 4)
                .search_budget(m)
                .build();
        let spec = FillSpec {
            write_batch: 1,
            threads: 1,
            insert_ratio: 1.0,
            fill_to: 0.99,
            windows: vec![],
        };
        let report = run_fill(&map, &spec);
        table.row(vec![
            m.to_string(),
            bfs::bfs_max_path_len(4, m).to_string(),
            format!("{:.3}", report.achieved_load),
            mops(report.overall_mops),
        ]);
    }
    table.print();
    let _ = table.write_csv("ablation_search_budget");
}

fn path_length_distribution() {
    let mut table = Table::new(
        "Ablation 3: path-length distribution, BFS vs DFS (4-way)",
        &["load", "search", "mean len", "p99 len", "max len", "found%"],
    );
    for load_pct in [80usize, 90, 95] {
        let raw: RawTable<u64, u64, 4> = RawTable::with_capacity(1 << 14);
        let total = raw.total_slots() * load_pct / 100;
        let mut x = 7u64;
        let mut placed = 0;
        while placed < total {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
            let bi = (x >> 32) as usize & raw.mask();
            let tag = ((x >> 24) as u8).max(1);
            if let Some(s) = raw.meta(bi).empty_slot() {
                // SAFETY: single-threaded setup.
                unsafe { raw.write_entry(bi, s, tag, 0, 0) };
                placed += 1;
            }
        }
        let mut scratch = SearchScratch::default();
        for (name, is_bfs) in [("BFS", true), ("DFS", false)] {
            let mut lens: Vec<usize> = Vec::new();
            let mut attempts = 0;
            for i in (0..raw.n_buckets()).step_by(7) {
                attempts += 1;
                let tag = ((i as u8) | 1).max(1);
                let i2 = raw.alt_index(i, tag);
                let found = if is_bfs {
                    bfs::search(&raw, i, i2, 2000, true, &mut scratch).is_ok()
                } else {
                    dfs::search(&raw, i, i2, 2000, &mut scratch).is_ok()
                };
                if found {
                    // Displacements = path entries minus the vacancy.
                    lens.push(scratch.path.len().saturating_sub(1));
                }
            }
            lens.sort_unstable();
            let mean = lens.iter().sum::<usize>() as f64 / lens.len().max(1) as f64;
            let p99 = lens.get(lens.len() * 99 / 100).copied().unwrap_or(0);
            let max = lens.last().copied().unwrap_or(0);
            table.row(vec![
                format!("{}%", load_pct),
                name.into(),
                format!("{mean:.2}"),
                p99.to_string(),
                max.to_string(),
                format!("{:.1}%", lens.len() as f64 / attempts as f64 * 100.0),
            ]);
        }
    }
    table.print();
    let _ = table.write_csv("ablation_path_lengths");
}

fn delete_vs_lookup() {
    let map: OptimisticCuckooMap<u64, u64, 8> = OptimisticCuckooMap::with_capacity(slots());
    let spec = FillSpec {
            write_batch: 1,
        threads: 2,
        insert_ratio: 1.0,
        fill_to: 0.9,
        windows: vec![],
    };
    let report = run_fill(&map, &spec);
    let per_thread = report.inserts / 2;
    let lookup_mops = run_lookup_only(
        &map,
        &LookupSpec {
            threads: 4,
            ops_per_thread: per_thread / 4,
            miss_ratio: 0.0,
            batch: 1,
        },
        (2, per_thread),
    );
    // Delete everything, timed, 4 threads on disjoint ranges.
    let start = Instant::now();
    std::thread::scope(|s| {
        for part in 0..4u64 {
            let map = &map;
            s.spawn(move || {
                for t in 0..2u64 {
                    let lo = per_thread * part / 4;
                    let hi = per_thread * (part + 1) / 4;
                    for i in lo..hi {
                        map.del(&key_of(t, i));
                    }
                }
            });
        }
    });
    let deleted = report.inserts;
    let delete_mops = deleted as f64 / start.elapsed().as_secs_f64() / 1e6;
    let mut table = Table::new(
        "Ablation 4: Delete vs Lookup (paper §2.1: 'Delete is very similar to Lookup')",
        &["op", "Mops (4 threads)"],
    );
    table.row(vec!["Lookup (hit)".into(), mops(lookup_mops)]);
    table.row(vec!["Delete (hit)".into(), mops(delete_mops)]);
    table.print();
    let _ = table.write_csv("ablation_delete_lookup");
    assert_eq!(ConcurrentMap::<u64>::items(&map), 0, "all entries deleted");
}

fn main() {
    banner("Ablations", "stripes, search budget, path lengths, delete cost");
    stripes_ablation();
    search_budget_ablation();
    path_length_distribution();
    delete_vs_lookup();
}
