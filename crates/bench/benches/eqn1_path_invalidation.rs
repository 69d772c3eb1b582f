//! Appendix B / Eq. 1 validation: the probability that a cuckoo path
//! discovered outside the critical section is invalidated by concurrent
//! writers, measured on the real table and compared with the closed-form
//! upper bound — plus the Eq. 2 (Appendix C) BFS path-length table.

use bench::{banner, slots};
use baselines::analysis::{p_invalid_max, p_invalid_exact};
use cuckoo::search::bfs::bfs_max_path_len;
use baselines::{MemC3Config, MemC3Cuckoo, SearchKind};
use cuckoo::OptimisticCuckooMap;
use workload::driver::{run_fill, FillSpec};
use workload::report::Table;
use workload::ConcurrentMap;

const THREADS: usize = 8;

fn main() {
    banner(
        "Eq. 1 / Eq. 2",
        "path invalidation probability + BFS path length bound",
    );

    // --- Eq. 2 table -----------------------------------------------------
    let mut eq2 = Table::new(
        "Eq. 2 (Appendix C): max BFS cuckoo path length L_BFS",
        &["B (ways)", "M (budget)", "L_BFS"],
    );
    for (b, m) in [(2usize, 2000usize), (4, 2000), (8, 2000), (16, 2000), (4, 500)] {
        eq2.row(vec![
            b.to_string(),
            m.to_string(),
            bfs_max_path_len(b, m).to_string(),
        ]);
    }
    eq2.print();
    println!("paper reference: B=4, M=2000 -> L_BFS = 5 (DFS would be 250).");

    // --- Eq. 1: measured vs bound ---------------------------------------
    let mut eq1 = Table::new(
        "Eq. 1 (Appendix B): measured path-invalidation rate vs bound",
        &[
            "search",
            "N (slots)",
            "T",
            "L (bound)",
            "executions",
            "stale",
            "measured P",
            "Eq.1 bound",
            "exact bound",
        ],
    );

    // BFS paths (cuckoo+ fine-grained): L = L_BFS.
    let map: OptimisticCuckooMap<u64, u64, 4> = OptimisticCuckooMap::with_capacity(slots());
    let spec = FillSpec {
            write_batch: 1,
        threads: THREADS,
        insert_ratio: 1.0,
        fill_to: 0.95,
        windows: vec![],
    };
    let _ = run_fill(&map, &spec);
    let stats = map.path_stats();
    let n = ConcurrentMap::<u64>::fill_capacity(&map) as u64;
    let l = bfs_max_path_len(4, 2000) as u64;
    eq1.row(vec![
        "BFS (cuckoo+)".into(),
        n.to_string(),
        THREADS.to_string(),
        l.to_string(),
        stats.executions.to_string(),
        stats.stale.to_string(),
        format!("{:.2e}", stats.invalidation_rate()),
        format!("{:.2e}", p_invalid_max(n, l, THREADS as u64)),
        format!("{:.2e}", p_invalid_exact(n, l, THREADS as u64)),
    ]);

    // DFS paths (MemC3 lock-later): L up to M/2/B per walk; the paper
    // uses L = 250 for M = 2000.
    let cfg = MemC3Config {
        search: SearchKind::Dfs,
        ..MemC3Config::baseline().plus_lock_later()
    };
    let map: MemC3Cuckoo<u64, u64, 4> = MemC3Cuckoo::with_capacity(slots(), cfg);
    let _ = run_fill(&map, &spec);
    let stats = map.path_stats();
    let l_dfs = 250u64;
    eq1.row(vec![
        "DFS (MemC3 lock-later)".into(),
        n.to_string(),
        THREADS.to_string(),
        l_dfs.to_string(),
        stats.executions.to_string(),
        stats.stale.to_string(),
        format!("{:.2e}", stats.invalidation_rate()),
        format!("{:.2e}", p_invalid_max(n, l_dfs, THREADS as u64)),
        format!("{:.2e}", p_invalid_exact(n, l_dfs, THREADS as u64)),
    ]);

    eq1.print();
    let _ = eq1.write_csv("eqn1_path_invalidation");
    println!(
        "\npaper shape: the measured invalidation rate sits below the \
         worst-case bound (the bound assumes every path is at maximum \
         length); BFS rates are orders of magnitude below DFS rates."
    );
}
