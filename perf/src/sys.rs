//! What the operating system says about a process and the machine:
//! CPU time and peak memory from `/proc`, and the fingerprint printed
//! with every result so that a row is reproducible.

use crate::json::Json;
use std::fs;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

/// `/proc/<pid>/stat` counts CPU time in `USER_HZ` ticks, which Linux
/// fixes at 100 on every architecture it exposes `/proc` on.
const TICK_US: f64 = 10_000.0;

/// `(user, system)` CPU time of every thread of `pid` so far, in µs.
pub fn cpu_us(pid: u32) -> Result<(f64, f64), String> {
    let path = format!("/proc/{pid}/stat");
    let stat = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, so utime and stime are the 12th and 13th
    // from there.
    let rest = stat
        .rsplit_once(')')
        .ok_or_else(|| format!("{path}: no command field"))?
        .1;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(u), Some(s)) => Ok((u * TICK_US, s * TICK_US)),
        _ => Err(format!("{path}: no utime/stime")),
    }
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

/// Resets this process's `VmHWM` to its current resident set, so that a
/// window's peak is its own and not an earlier window's. Best effort:
/// every window of a workload allocates the same, so where the kernel
/// refuses the peak is still the workload's.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

extern "C" {
    /// `int sched_{get,set}affinity(pid_t, size_t, cpu_set_t *)` — std
    /// links the C library, and no `libc` crate resolves offline. Pid 0
    /// is the calling thread.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

/// The CPUs this process may run on, lowest first: those of the first
/// thread to ask, which is the main thread before anything is pinned.
pub fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes
        // into `set`, which is that large.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Confines the calling thread — and every thread or process it starts
/// from then on — to `cpu`, so that the two sides of a measurement never
/// take turns on one CPU. Best effort: where the system call is refused
/// the run is noisier, not wrong. One system call and no allocation, so
/// it may run between `fork` and `exec`.
pub fn pin_to(cpu: usize) {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes from `set`.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
}

/// The CPU thread `t` of this process's load runs on: the allowed CPUs
/// in turn, lowest first.
pub fn cpu_of_thread(t: usize) -> usize {
    let cpus = allowed_cpus();
    cpus[t % cpus.len()]
}

/// The CPU `cuckood` is confined to: the highest allowed one, which the
/// one client thread (thread 0) never runs on.
pub fn server_cpu() -> usize {
    *allowed_cpus()
        .last()
        .expect("main checked that two CPUs are allowed")
}

/// Runs `body` on a thread of its own that is confined to `cpu`.
pub fn on_cpu<T: Send>(cpu: usize, body: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        let pinned = s.spawn(|| {
            pin_to(cpu);
            body()
        });
        pinned.join().expect("pinned thread panicked")
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn git_commit() -> String {
    let head = read_trimmed(".git/HEAD");
    let commit = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(r) => read_trimmed(Path::new(".git").join(r)),
        None => head,
    };
    commit.unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Commit, toolchain and machine, as the result header.
pub fn fingerprint() -> Json {
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(format!("{dir}/level")),
            read_trimmed(format!("{dir}/type")),
            read_trimmed(format!("{dir}/size")),
        ) else {
            continue;
        };
        if kind != "Instruction" {
            caches.push((format!("L{level}"), Json::Str(size)));
        }
    }
    Json::obj(vec![
        ("git_commit", Json::Str(git_commit())),
        ("rustc", Json::Str(rustc)),
        ("cpu_model", Json::Str(cpu)),
        ("nproc", Json::Num(nproc() as f64)),
        ("caches", Json::Obj(caches)),
        (
            "kernel",
            Json::Str(
                read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let (u, s) = cpu_us(std::process::id()).unwrap();
        assert!(u >= 0.0 && s >= 0.0);
        assert!(peak_rss_mib(std::process::id()).unwrap() > 0.1);
        assert!(cpu_us(u32::MAX).is_err());
    }
}
