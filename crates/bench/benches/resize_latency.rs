//! Extension experiment: insert latency across table doublings.
//!
//! The paper sizes tables up front; a general-purpose map must grow.
//! Stop-the-world expansion rehashes every entry under a global lock,
//! so every insert that arrives during a doubling waits the whole
//! rehash out — a latency cliff that scales with the table. Incremental
//! expansion bounds each insert to a constant amount of migration help.
//!
//! Methodology: **open-loop** fixed arrival rate. Each insert `i` has a
//! scheduled arrival time `t_i = i / rate`; its recorded latency is
//! completion − scheduled arrival, not completion − issue. A closed
//! loop would commit coordinated omission — during a stop-the-world
//! rehash the loop simply stops issuing and the stall shows up as *one*
//! slow op instead of the thousands of queued arrivals it really
//! delays. Open loop charges the stall to every op scheduled under it,
//! which is what a server's clients experience.
//!
//! Outputs `resize_latency.csv` and `BENCH_resize.json` under
//! `target/bench-results/`.

use bench::banner;
use cuckoo::{CuckooMap, ResizeMode};
use workload::keygen::key_of;
use workload::report::Table;
use metrics::latency::LatencyHistogram;
use std::time::{Duration, Instant};

/// Starting capacity (slots). Small enough that the fill crosses
/// several doublings, large enough that a stop-the-world rehash of the
/// *last* doubling is a visible (hundreds of µs to ms) stall.
const START_SLOTS: usize = 1 << 18;

/// Total inserts: drives the table through ~3 doublings at 95% load.
const TOTAL_OPS: u64 = (START_SLOTS as u64) * 7;

/// Per-thread arrival rate (ops/sec). Well under the table's sustained
/// insert throughput on purpose: an open-loop stream near saturation
/// measures backlog, not expansion stalls. With headroom, steady-state
/// lateness is ~0 and the tail isolates resize behavior.
const RATE_PER_THREAD: f64 = 50_000.0;

/// Writer threads, each an independent open-loop arrival stream. The
/// open loop spin-waits for its next arrival, so never run more
/// streams than cores — on an oversubscribed host the OS scheduler's
/// timeslices (milliseconds) would drown the resize stalls being
/// measured.
fn writers() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4) as u64
}

struct RunResult {
    hist: LatencyHistogram,
    wall: Duration,
    doublings: usize,
}

fn run(mode: ResizeMode) -> RunResult {
    let m: CuckooMap<u64, u64, 8> = CuckooMap::with_capacity_and_mode(START_SLOTS, mode);
    let initial_capacity = m.capacity();
    let n_writers = writers();
    let per_thread = TOTAL_OPS / n_writers;
    let period = Duration::from_secs_f64(1.0 / RATE_PER_THREAD);
    let hist = LatencyHistogram::new();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..n_writers {
            let m = &m;
            let hist = &hist;
            s.spawn(move || {
                let local = LatencyHistogram::new();
                let start = Instant::now();
                for i in 0..per_thread {
                    let scheduled = period * (i as u32);
                    // Open loop: wait for the scheduled arrival, never
                    // ahead of it. If the table stalled us past it, issue
                    // immediately — the deficit is charged below.
                    while start.elapsed() < scheduled {
                        std::hint::spin_loop();
                    }
                    m.insert(key_of(w, i), i).unwrap();
                    let late = start.elapsed().saturating_sub(scheduled);
                    local.record(late.as_nanos() as u64);
                }
                hist.merge(&local);
            });
        }
    });
    let wall = t0.elapsed();
    let doublings =
        (m.capacity() as f64 / initial_capacity as f64).log2().round() as usize;
    assert_eq!(
        m.len(),
        (per_thread * n_writers) as usize,
        "lost inserts during expansion"
    );
    RunResult { hist, wall, doublings }
}

fn mode_name(mode: ResizeMode) -> &'static str {
    match mode {
        ResizeMode::StopTheWorld => "stop-the-world",
        ResizeMode::Incremental => "incremental",
    }
}

fn main() {
    banner(
        "Extension: resize latency",
        "open-loop insert latency across doublings, STW vs incremental",
    );
    let mut out = Table::new(
        "Insert latency (ns, completion - scheduled arrival) across doublings",
        &["mode", "doublings", "p50", "p99", "p99.9", "max", "wall_ms"],
    );
    let mut json_rows = Vec::new();
    for mode in [ResizeMode::StopTheWorld, ResizeMode::Incremental] {
        let r = run(mode);
        let (p50, p99, p999, max) = (
            r.hist.percentile(50.0),
            r.hist.percentile(99.0),
            r.hist.percentile(99.9),
            r.hist.max(),
        );
        out.row(vec![
            mode_name(mode).into(),
            r.doublings.to_string(),
            p50.to_string(),
            p99.to_string(),
            p999.to_string(),
            max.to_string(),
            format!("{:.0}", r.wall.as_secs_f64() * 1e3),
        ]);
        json_rows.push(format!(
            "    {{\"mode\": \"{}\", \"doublings\": {}, \"ops\": {}, \
             \"rate_per_thread\": {}, \"writers\": {}, \"p50_ns\": {}, \
             \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}, \"wall_ms\": {:.1}}}",
            mode_name(mode),
            r.doublings,
            TOTAL_OPS,
            RATE_PER_THREAD,
            writers(),
            p50,
            p99,
            p999,
            max,
            r.wall.as_secs_f64() * 1e3,
        ));
    }
    out.print();
    let _ = out.write_csv("resize_latency");

    // Machine-readable artifact for CI trend tracking.
    let json = format!(
        "{{\n  \"bench\": \"resize_latency\",\n  \"start_slots\": {},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        START_SLOTS,
        json_rows.join(",\n")
    );
    let dir = std::path::PathBuf::from("target/bench-results");
    let _ = std::fs::create_dir_all(&dir);
    match std::fs::write(dir.join("BENCH_resize.json"), &json) {
        Ok(()) => println!("\nwrote target/bench-results/BENCH_resize.json"),
        Err(e) => eprintln!("\nfailed to write BENCH_resize.json: {e}"),
    }
    println!(
        "expected shape: p50 similar for both modes; stop-the-world p99.9 \
         and max grow with the largest doubling (every arrival queued \
         behind the rehash pays for it), incremental stays flat."
    );
}
