//! Closed-form analyses from the paper's appendices.
//!
//! - Appendix B (Eq. 1): an upper bound on the probability that a cuckoo
//!   path discovered outside the critical section is invalidated by a
//!   concurrent writer before it executes.
//! - Appendix C (Eq. 2): the maximum cuckoo-path length under BFS (also
//!   exposed as [`cuckoo::search::bfs::bfs_max_path_len`]).
//!
//! The `eqn1_path_invalidation` benchmark compares Eq. 1 against a
//! Monte-Carlo measurement on the real table.

/// Exact overlap probability for one pair of maximum-length paths
/// (Eq. 3): `P = prod_{i=0}^{L-1} (N - L - i) / (N - i)` is the chance of
/// *no* overlap; this returns it.
pub fn p_no_overlap_exact(n_slots: u64, path_len: u64) -> f64 {
    assert!(path_len * 2 <= n_slots, "paths longer than the table");
    let mut p = 1.0f64;
    for i in 0..path_len {
        p *= (n_slots - path_len - i) as f64 / (n_slots - i) as f64;
    }
    p
}

/// Eq. 1 / Eq. 5: upper bound on the probability that a writer's cuckoo
/// path of maximum length `path_len` overlaps at least one of the other
/// `threads - 1` writers' paths, in a table of `n_slots` entries:
/// `P_invalid_max ≈ 1 - ((N - L) / N)^(L (T - 1))`.
pub fn p_invalid_max(n_slots: u64, path_len: u64, threads: u64) -> f64 {
    assert!(n_slots > path_len);
    let base = (n_slots - path_len) as f64 / n_slots as f64;
    1.0 - base.powf((path_len * threads.saturating_sub(1)) as f64)
}

/// Eq. 4: the same bound computed from the exact per-pair probability
/// (`1 - P^(T-1)`), without the `(N-L-i)/(N-i) ≈ (N-L)/N` approximation.
pub fn p_invalid_exact(n_slots: u64, path_len: u64, threads: u64) -> f64 {
    let p = p_no_overlap_exact(n_slots, path_len);
    1.0 - p.powf(threads.saturating_sub(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuckoo::search::bfs::bfs_max_path_len;

    #[test]
    fn paper_example_memc3_dfs() {
        // §4.3.1: "the maximum length of a cuckoo path in MemC3 is
        // L = 250. Suppose N = 10 million, T = 8, then P_invalid < 4.28%."
        let p = p_invalid_max(10_000_000, 250, 8);
        assert!(p < 0.0429, "got {p}"); // the paper rounds to "< 4.28%"
        assert!(p > 0.04, "should be close to the bound, got {p}");
    }

    #[test]
    fn paper_example_bfs() {
        // §4.3.2: "with L_BFS = 5, and the same settings ... the new
        // worst-case P_invalid < 1.75e-5".
        let l = bfs_max_path_len(4, 2000) as u64;
        assert_eq!(l, 5);
        let p = p_invalid_max(10_000_000, l, 8);
        assert!(p < 1.75e-5, "got {p}");
        assert!(p > 1.0e-6, "should be near the bound, got {p}");
    }

    #[test]
    fn approximation_tracks_exact_form() {
        for &(n, l, t) in &[(1_000_000u64, 250u64, 8u64), (100_000, 50, 4), (10_000, 10, 16)] {
            let approx = p_invalid_max(n, l, t);
            let exact = p_invalid_exact(n, l, t);
            let rel = (approx - exact).abs() / exact.max(1e-12);
            assert!(rel < 0.05, "n={n} l={l} t={t}: approx {approx} exact {exact}");
        }
    }

    #[test]
    fn monotonic_in_threads_and_length() {
        let n = 1_000_000;
        assert!(p_invalid_max(n, 250, 8) > p_invalid_max(n, 250, 2));
        assert!(p_invalid_max(n, 250, 8) > p_invalid_max(n, 5, 8));
        assert_eq!(p_invalid_max(n, 250, 1), 0.0, "single writer never races");
    }

    #[test]
    fn no_overlap_probability_bounds() {
        let p = p_no_overlap_exact(1000, 10);
        assert!(p > 0.0 && p < 1.0);
        assert_eq!(p_no_overlap_exact(1000, 0), 1.0);
    }
}
