//! An idle `cuckood` sleeps: with no client, every thread blocks until
//! it has work, so the whole process takes next to no CPU. Read per
//! thread from `/proc/<pid>/task/*/schedstat` (time on a CPU, in ns),
//! so Linux only.
#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Duration;

/// CPU allowed for the whole idle process over [`WINDOW`].
const BUDGET_NS: u64 = 10_000_000;
const WINDOW: Duration = Duration::from_secs(2);

/// CPU time of each live thread of `pid`, by `tid`: `(name, ns)`.
fn thread_cpu(pid: u32) -> BTreeMap<u32, (String, u64)> {
    let mut threads = BTreeMap::new();
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).unwrap().flatten() {
        let (Ok(stat), Ok(name)) =
            (std::fs::read_to_string(task.path().join("schedstat")), std::fs::read_to_string(task.path().join("comm")))
        else {
            continue; // the thread exited between the listing and the read
        };
        let ns = stat.split_whitespace().next().unwrap().parse().unwrap();
        let tid = task.file_name().to_str().unwrap().parse().unwrap();
        threads.insert(tid, (name.trim().to_string(), ns));
    }
    threads
}

/// Lets `args`' server settle, then asserts its threads took at most
/// [`BUDGET_NS`] of CPU over [`WINDOW`], naming each one's share.
fn assert_idle(what: &str, args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cuckood"))
        .args(["-p", "0"])
        .args(args)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cuckood binary");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    while !line.starts_with("cuckood listening on ") {
        line.clear();
        assert_ne!(stderr.read_line(&mut line).unwrap(), 0, "cuckood exited before announcing its address");
    }
    std::thread::sleep(Duration::from_millis(500));
    let before = thread_cpu(child.id());
    std::thread::sleep(WINDOW);
    let after = thread_cpu(child.id());
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    let shares: Vec<(String, u64)> = after
        .iter()
        .map(|(tid, (name, ns))| (format!("{name} ({tid})"), ns - before.get(tid).map_or(0, |b| b.1)))
        .collect();
    let total: u64 = shares.iter().map(|s| s.1).sum();
    assert!(
        total <= BUDGET_NS,
        "idle {what} took {:.1} ms of CPU in {WINDOW:?} (budget {} ms), by thread: {:?}",
        total as f64 / 1e6,
        BUDGET_NS / 1_000_000,
        shares.iter().map(|(t, ns)| format!("{t}: {:.2} ms", *ns as f64 / 1e6)).collect::<Vec<_>>()
    );
}

#[test]
fn an_idle_durable_cuckoo_server_sleeps() {
    let dir = std::env::temp_dir().join(format!("cuckood-idle-cpu-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    assert_idle("cuckood -t 1 -d DIR --no-evict", &["-t", "1", "-d", dir.to_str().unwrap(), "--no-evict"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_idle_default_server_sleeps() {
    assert_idle("cuckood (defaults)", &[]);
}
