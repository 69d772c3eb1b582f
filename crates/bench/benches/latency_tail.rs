//! Extension experiment: read tail latency under writer pressure.
//!
//! The paper evaluates throughput; a downstream user of a concurrent
//! table also cares about read *tail* latency while writers displace
//! items. Optimistic readers retry whenever a writer touches their
//! stripes, so the interesting comparison is:
//!
//! - cuckoo+ optimistic reads vs the general map's locked reads, and
//! - quiescent vs write-pressured tails for each.
//!
//! (The §7 "5-20% slowdown" for locked reads is a *mean* claim; tails
//! separate further under load.)

use bench::{banner, slots};
use cuckoo::{CuckooMap, OptimisticCuckooMap};
use workload::keygen::{key_of, SplitMix64};
use workload::report::Table;
use metrics::latency::LatencyHistogram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const READ_THREADS: usize = 2;
const READS_PER_THREAD: u64 = 200_000;

trait ReadTable: Sync {
    fn fill(&self, n: u64);
    fn read_one(&self, key: &u64) -> Option<u64>;
    fn churn_step(&self, rng: &mut SplitMix64, n: u64);
}

impl ReadTable for OptimisticCuckooMap<u64, u64, 8> {
    fn fill(&self, n: u64) {
        for i in 0..n {
            self.insert(key_of(0, i), i).unwrap();
        }
    }

    fn read_one(&self, key: &u64) -> Option<u64> {
        self.get(key)
    }

    fn churn_step(&self, rng: &mut SplitMix64, n: u64) {
        let i = rng.below(n);
        let k = key_of(0, i);
        if let Some(v) = self.remove(&k) {
            let _ = self.insert(k, v);
        }
    }
}

impl ReadTable for CuckooMap<u64, u64, 8> {
    fn fill(&self, n: u64) {
        for i in 0..n {
            self.insert(key_of(0, i), i).unwrap();
        }
    }

    fn read_one(&self, key: &u64) -> Option<u64> {
        self.get(key)
    }

    fn churn_step(&self, rng: &mut SplitMix64, n: u64) {
        let i = rng.below(n);
        let k = key_of(0, i);
        if let Some(v) = self.remove(&k) {
            let _ = self.insert(k, v);
        }
    }
}

fn measure<T: ReadTable>(table: &T, with_writer: bool) -> LatencyHistogram {
    let n = (slots() / 2) as u64;
    table.fill(n);
    let hist = LatencyHistogram::new();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        if with_writer {
            let stop = &stop;
            let table = &*table;
            s.spawn(move || {
                let mut rng = SplitMix64::new(0xdead);
                while !stop.load(Ordering::Acquire) {
                    table.churn_step(&mut rng, n);
                }
            });
        }
        for t in 0..READ_THREADS as u64 {
            let hist = &hist;
            let table = &*table;
            s.spawn(move || {
                let mut rng = SplitMix64::new(0xabc + t);
                let local = LatencyHistogram::new();
                for _ in 0..READS_PER_THREAD {
                    let k = key_of(0, rng.below(n));
                    let start = Instant::now();
                    std::hint::black_box(table.read_one(&k));
                    local.record(start.elapsed().as_nanos() as u64);
                }
                hist.merge(&local);
            });
        }
        // Stop the churner once readers are done: scope join order means
        // we set the flag from a watchdog thread.
        let stop = &stop;
        let hist = &hist;
        s.spawn(move || {
            let expect = (READ_THREADS as u64) * READS_PER_THREAD;
            while hist.len() < expect {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
        });
    });
    hist
}

fn main() {
    banner(
        "Extension: tail latency",
        "read latency percentiles, optimistic vs locked reads",
    );
    let mut out = Table::new(
        "Read latency (ns) under quiescence and writer churn",
        &["table", "writer?", "mean", "p50", "p99", "p99.9", "max"],
    );
    for with_writer in [false, true] {
        let opt: OptimisticCuckooMap<u64, u64, 8> = OptimisticCuckooMap::with_capacity(slots());
        let h = measure(&opt, with_writer);
        out.row(vec![
            "cuckoo+ optimistic".into(),
            if with_writer { "yes" } else { "no" }.into(),
            format!("{:.0}", h.mean()),
            h.percentile(50.0).to_string(),
            h.percentile(99.0).to_string(),
            h.percentile(99.9).to_string(),
            h.max().to_string(),
        ]);
        let locked: CuckooMap<u64, u64, 8> = CuckooMap::with_capacity(slots());
        let h = measure(&locked, with_writer);
        out.row(vec![
            "libcuckoo-style locked".into(),
            if with_writer { "yes" } else { "no" }.into(),
            format!("{:.0}", h.mean()),
            h.percentile(50.0).to_string(),
            h.percentile(99.0).to_string(),
            h.percentile(99.9).to_string(),
            h.max().to_string(),
        ]);
    }
    out.print();
    let _ = out.write_csv("latency_tail");
    println!(
        "\nexpected shape: optimistic reads cheaper at the median; under \
         writer churn both tables grow p99.9 tails (retry loops vs lock \
         waits)."
    );
}
