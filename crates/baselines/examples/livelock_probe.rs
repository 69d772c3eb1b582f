//! Diagnostic probe for the intermittent hang in concurrent MemC3
//! inserts: runs the failing workload in a loop with a monitor thread
//! that dumps table state and aborts the process when progress stalls.

use baselines::{MemC3Config, MemC3Cuckoo, WriterLockKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn run_once(round: u64, kind: WriterLockKind) {
    let cfg = MemC3Config::baseline()
        .plus_lock_later()
        .plus_bfs()
        .with_lock(kind);
    let m: Arc<MemC3Cuckoo<u64, u64, 4>> = Arc::new(MemC3Cuckoo::with_capacity(1 << 14, cfg));
    let progress = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let monitor = {
        let m = Arc::clone(&m);
        let progress = Arc::clone(&progress);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut last = 0;
            let mut stalls = 0;
            loop {
                std::thread::sleep(Duration::from_secs(2));
                if done.load(Ordering::Acquire) {
                    return;
                }
                let cur = progress.load(Ordering::Relaxed);
                if cur == last && cur < 8000 {
                    stalls += 1;
                    if stalls >= 4 {
                        eprintln!(
                            "=== STALL round {round} kind {kind:?}: progress {cur}/8000 ==="
                        );
                        if let Some(stats) = m.htm_stats() {
                            eprintln!("htm: {stats:?}");
                        }
                        eprintln!("path stats: {:?}", m.path_stats());
                        eprintln!("len: {}", m.len());
                        std::process::exit(2);
                    }
                } else {
                    stalls = 0;
                    last = cur;
                }
            }
        })
    };

    let mut workers = Vec::new();
    for t in 0..4u64 {
        let m = Arc::clone(&m);
        let progress = Arc::clone(&progress);
        workers.push(std::thread::spawn(move || {
            for i in 0..2000u64 {
                let key = t * 1_000_000 + i;
                m.insert(key, key + 1).unwrap();
                progress.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    monitor.join().unwrap();
    assert_eq!(m.len(), 8000);
}

fn main() {
    for round in 0..150 {
        for kind in [WriterLockKind::Global, WriterLockKind::ElidedOptimized] {
            run_once(round, kind);
        }
        if round % 10 == 0 {
            eprintln!("round {round} ok");
        }
    }
    eprintln!("no stall in 150 rounds");
}
