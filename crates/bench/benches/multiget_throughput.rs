//! Extension experiment: batched (multi-key) lookup throughput.
//!
//! The paper's §4.3.2 prefetch argument — a key's buckets are known
//! once it is hashed, so their lines can be requested before they are
//! needed — is applied here *across keys*: `get_many` reads each key
//! with the single-key read while the lines of the keys a few places
//! ahead are already being fetched, so several keys' DRAM misses are in
//! flight instead of one. This bench sweeps the batch size G at two load
//! factors and reports speedup over the single-key `get` loop.
//!
//! Outputs `multiget_throughput.csv`, `BENCH_multiget.json` (the
//! sweep), and `BENCH_read.json` (the single-get baseline) under
//! `target/bench-results/`.
//!
//! Env knobs (for CI smoke runs):
//! - `MULTIGET_TABLE_BITS`: log2 of table slots (default 20).
//! - `MULTIGET_OPS`: lookups per thread (default 2_000_000).
//! - `MULTIGET_MIN_SPEEDUP`: if set, exit non-zero when the G=8 batch
//!   at the higher load factor is slower than this multiple of the
//!   single-get baseline (CI regression gate).
//! - `BENCH_COUNTERS`: set to `0` to omit the per-load observability
//!   counter deltas (seqlock retries, lock contention...) from the JSON
//!   artifacts; on by default.

use bench::banner;
use cuckoo::OptimisticCuckooMap;
use workload::driver::{run_fill, run_lookup_only, FillSpec, LookupSpec};
use workload::report::{mops, Table};
use workload::snapshot::{json_object, MetricSnapshot};
use std::collections::BTreeMap;

const BATCHES: [usize; 5] = [1, 4, 8, 16, 32];
const LOADS: [f64; 2] = [0.50, 0.95];
const FILL_THREADS: usize = 2;
/// Lookups miss 5% of the time — multi-GETs in cache workloads are
/// mostly hits, and misses exercise the both-buckets worst case anyway.
const MISS_RATIO: f64 = 0.05;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4)
}

fn main() {
    let table_bits = env_usize("MULTIGET_TABLE_BITS", 20);
    let ops_per_thread = env_usize("MULTIGET_OPS", 2_000_000) as u64;
    let threads = threads();

    banner(
        "Extension: multiget throughput",
        "read-ahead get_many vs single-key get, by batch size and load",
    );
    let mut out = Table::new(
        "Lookup throughput (Mops/s) by batch size",
        &["load", "batch", "mops", "speedup"],
    );

    let dump_counters = std::env::var("BENCH_COUNTERS").map(|v| v != "0").unwrap_or(true);
    // (load, batch) -> mops
    let mut results: BTreeMap<(u64, usize), f64> = BTreeMap::new();
    // load -> JSON object of counter deltas across that load's sweep.
    let mut counters: BTreeMap<u64, String> = BTreeMap::new();
    for &load in &LOADS {
        let map: OptimisticCuckooMap<u64, u64, 8> =
            OptimisticCuckooMap::with_capacity(1 << table_bits);
        let fill = FillSpec {
            threads: FILL_THREADS,
            insert_ratio: 1.0,
            fill_to: load,
            windows: vec![],
        };
        let report = run_fill(&map, &fill);
        assert!(!report.hit_full, "fill to {load} failed");
        let per_thread_keys = report.inserts / FILL_THREADS as u64;
        let load_key = (load * 100.0) as u64;
        // Window the counter delta over the lookup sweep only, so the
        // artifact explains *read* throughput (fill noise excluded).
        let before = dump_counters.then(|| MetricSnapshot::take(&map));
        for &batch in &BATCHES {
            let spec = LookupSpec { threads, ops_per_thread, miss_ratio: MISS_RATIO, batch };
            let m = run_lookup_only(&map, &spec, (FILL_THREADS as u64, per_thread_keys));
            results.insert((load_key, batch), m);
            let base = results[&(load_key, 1)];
            out.row(vec![
                format!("{load:.2}"),
                batch.to_string(),
                mops(m),
                format!("{:.2}x", m / base),
            ]);
        }
        if let Some(before) = before {
            let delta = MetricSnapshot::take(&map).delta(&before);
            counters.insert(load_key, json_object(&delta));
        }
    }
    out.print();
    let _ = out.write_csv("multiget_throughput");

    let dir = std::path::PathBuf::from("target/bench-results");
    let _ = std::fs::create_dir_all(&dir);

    // Machine-readable artifacts: the sweep, and the single-get
    // baseline on its own for read-path trend tracking.
    let json_rows: Vec<String> = results
        .iter()
        .map(|(&(load, batch), &m)| {
            format!(
                "    {{\"load\": 0.{load:02}, \"batch\": {batch}, \"mops\": {m:.3}, \
                 \"speedup\": {:.3}}}",
                m / results[&(load, 1)]
            )
        })
        .collect();
    let counters_json = if counters.is_empty() {
        String::from("{}")
    } else {
        let rows: Vec<String> =
            counters.iter().map(|(load, obj)| format!("\"load_{load}\": {obj}")).collect();
        format!("{{{}}}", rows.join(", "))
    };
    let json = format!(
        "{{\n  \"bench\": \"multiget_throughput\",\n  \"table_slots\": {},\n  \
         \"threads\": {},\n  \"ops_per_thread\": {},\n  \"miss_ratio\": {},\n  \
         \"counters\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        1u64 << table_bits,
        threads,
        ops_per_thread,
        MISS_RATIO,
        counters_json,
        json_rows.join(",\n")
    );
    match std::fs::write(dir.join("BENCH_multiget.json"), &json) {
        Ok(()) => println!("\nwrote target/bench-results/BENCH_multiget.json"),
        Err(e) => eprintln!("\nfailed to write BENCH_multiget.json: {e}"),
    }

    let read_rows: Vec<String> = LOADS
        .iter()
        .map(|&load| {
            let load_key = (load * 100.0) as u64;
            format!(
                "    {{\"load\": {load:.2}, \"mops\": {:.3}}}",
                results[&(load_key, 1)]
            )
        })
        .collect();
    let read_json = format!(
        "{{\n  \"bench\": \"single_get_baseline\",\n  \"table_slots\": {},\n  \
         \"threads\": {},\n  \"ops_per_thread\": {},\n  \"miss_ratio\": {},\n  \
         \"counters\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        1u64 << table_bits,
        threads,
        ops_per_thread,
        MISS_RATIO,
        counters_json,
        read_rows.join(",\n")
    );
    match std::fs::write(dir.join("BENCH_read.json"), &read_json) {
        Ok(()) => println!("wrote target/bench-results/BENCH_read.json"),
        Err(e) => eprintln!("failed to write BENCH_read.json: {e}"),
    }

    // Optional CI gate: G=8 at the highest load must beat the
    // single-get baseline by the given factor.
    if let Ok(min) = std::env::var("MULTIGET_MIN_SPEEDUP") {
        let min: f64 = min.parse().expect("MULTIGET_MIN_SPEEDUP must be a float");
        let load_key = (LOADS[LOADS.len() - 1] * 100.0) as u64;
        let speedup = results[&(load_key, 8)] / results[&(load_key, 1)];
        println!("gate: G=8 speedup at {load_key}% load = {speedup:.3}x (min {min})");
        if speedup < min {
            eprintln!("FAIL: batched speedup {speedup:.3}x below threshold {min}x");
            std::process::exit(1);
        }
    }
}
