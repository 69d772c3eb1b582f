//! The `cuckood` child process: built from the checkout, started on an
//! ephemeral port, and never left behind.

use crate::sys;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to report its address, answer, or exit
/// before the run fails instead of hanging.
pub const HANG_LIMIT: Duration = Duration::from_secs(10);

/// The directory this executable was built into; `cuckood` is built
/// there too, and results and scratch data live under it.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // <target>/release/perf
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{}: not inside a cargo target directory", exe.display()))
}

/// Builds `cuckood` from the checkout in the working directory into this
/// executable's own target directory and returns its path. Cargo makes
/// this a no-op when the binary is current, and a rebuild when a source
/// file changed, so a stale server is never measured.
pub fn build_cuckood() -> Result<PathBuf, String> {
    let target = target_dir()?;
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "cuckood",
            "--target-dir",
        ])
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build --bin cuckood failed ({status}); run from the repository root"
        ));
    }
    let bin = target.join("release").join("cuckood");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

static NEXT_TEMP: AtomicU32 = AtomicU32::new(0);

/// A scratch directory under the target directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> Result<TempDir, String> {
        let dir = target_dir()?.join("perf-tmp").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT_TEMP.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

extern "C" {
    /// `int kill(pid_t pid, int sig);` — std links the C library, and no
    /// `libc` crate resolves offline.
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGINT: i32 = 2;

/// A running `cuckood`. Dropping it stops the process: SIGINT and a
/// bounded wait for the drain, then SIGKILL.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    /// Drains the child's stderr so it never blocks on a full pipe.
    log: Option<JoinHandle<String>>,
}

impl Server {
    /// Starts `bin -t 1 -p 0 <args>`, every thread of it confined to
    /// [`sys::server_cpu`], and waits for its "listening on" line.
    pub fn spawn(bin: &Path, args: &[&str]) -> Result<Server, String> {
        let cpu = sys::server_cpu();
        let mut cmd = Command::new(bin);
        // SAFETY: between `fork` and `exec` the closure makes one system
        // call and touches no memory but its own stack.
        unsafe {
            cmd.pre_exec(move || {
                sys::pin_to(cpu);
                Ok(())
            })
        };
        let mut child = cmd
            .args(["-t", "1", "-p", "0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        let log = std::thread::spawn(move || {
            let mut log = String::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("cuckood listening on ") {
                    let addr = rest
                        .split(' ')
                        .next()
                        .and_then(|a| a.parse::<SocketAddr>().ok());
                    let _ = tx.send(addr);
                }
                log.push_str(&line);
                log.push('\n');
            }
            log
        });
        let mut server = Server {
            child,
            addr: ([127, 0, 0, 1], 0).into(),
            log: Some(log),
        };
        match rx.recv_timeout(HANG_LIMIT) {
            Ok(Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => {
                // Disconnected = the child exited (stderr closed) without
                // ever listening; timeout = it hangs. Either way its log
                // says why.
                let _ = server.child.kill();
                Err(format!(
                    "cuckood did not start listening:\n{}",
                    server.reap()
                ))
            }
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for exit and returns the stderr log.
    fn reap(&mut self) -> String {
        let _ = self.child.wait();
        self.log
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }

    /// Graceful stop: SIGINT, then wait for the drain. Returns the log.
    /// Close client connections first, or the drain waits for them.
    pub fn stop(mut self) -> Result<String, String> {
        self.interrupt_and_wait(HANG_LIMIT)
    }

    fn interrupt_and_wait(&mut self, grace: Duration) -> Result<String, String> {
        if self.log.is_none() {
            return Ok(String::new()); // already reaped
        }
        // SAFETY: plain syscall wrapper; the pid is our own un-reaped
        // child, so it cannot have been recycled.
        unsafe { kill(self.child.id() as i32, SIGINT) };
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let log = self.reap();
                    return if status.success() {
                        Ok(log)
                    } else {
                        Err(format!("cuckood exited with {status}:\n{log}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    return Err(format!("cuckood ignored SIGINT; killed:\n{}", self.reap()));
                }
            }
        }
    }
}

impl Drop for Server {
    /// Only a failing run drops a server it has not stopped: the drain
    /// gets a second, so that the failure is out within [`HANG_LIMIT`]
    /// and a bit.
    fn drop(&mut self) {
        let _ = self.interrupt_and_wait(Duration::from_secs(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_program_that_never_listens_fails_the_spawn() {
        // `true -t 1 -p 0` exits at once without a word.
        let err = Server::spawn(Path::new("true"), &[])
            .err()
            .expect("true is no server");
        assert!(err.contains("did not start listening"), "{err}");
    }
}
