//! Processes the benchmark starts, and their memory.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hetrta_serve::ServeClient;

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process, in MB.
pub fn own_peak_rss_mb() -> f64 {
    peak_rss_mb(std::process::id()).unwrap_or(f64::NAN)
}

/// Peak resident set of the largest child this process has waited for
/// (`getrusage(RUSAGE_CHILDREN)`), in MB.
pub fn reaped_children_peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a properly sized, writable `struct rusage`
    // (x86_64/aarch64 Linux layout: two timevals then fourteen longs).
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss_kb as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Flushes every filesystem's dirty data (`sync(2)`), so that one run's
/// file writes and deletions are not paid for inside the next run's
/// timings.
pub fn sync_filesystems() {
    extern "C" {
        fn sync();
    }
    // SAFETY: `sync` takes no arguments, touches no memory of this
    // process, and cannot fail.
    unsafe { sync() }
}

/// A `hetrta serve` daemon child process with its own disk-cache
/// directory. Dropping it kills the process if it is still running.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// The address the daemon announced.
    pub addr: String,
    stderr: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Starts `hetrta serve` on an ephemeral port with `threads` engine
    /// threads and a fresh `--cache-dir` under `dir`, and waits until it
    /// announces its listening address.
    ///
    /// No `--journal-dir`: its one fsync per sweep made cold sweep times
    /// swing with the host disk by up to 40% between runs. The journal's
    /// cost is measured by the traced run instead.
    pub fn spawn(hetrta: &Path, dir: &Path, threads: usize) -> Result<Daemon, String> {
        let cache: PathBuf = dir.join("cache");
        std::fs::create_dir_all(&cache).map_err(|e| format!("create {}: {e}", cache.display()))?;
        let mut child = Command::new(hetrta)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(threads.to_string())
            .arg("--cache-dir")
            .arg(&cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", hetrta.display()))?;
        // Drain stderr for the daemon's whole life (a full pipe would
        // stall it), handing the announced address over once.
        let pipe = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let stderr = std::thread::spawn(move || {
            let mut log = String::new();
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    let _ = tx.send(addr.to_string());
                }
                log.push_str(&line);
                log.push('\n');
            }
            log
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr: Some(stderr),
        };
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            Err(_) => Err(format!(
                "daemon never announced its address: {}",
                daemon.kill_and_log()
            )),
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and exit, and waits for it.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = ServeClient::connect(&self.addr).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => {
                    self.join_stderr();
                    return Ok(());
                }
                Ok(Some(status)) => {
                    let log = self.join_stderr();
                    return Err(format!("daemon exited with {status} ({asked:?}): {log}"));
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err(format!("daemon did not drain: {}", self.kill_and_log())),
            }
        }
    }

    fn kill_and_log(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_stderr()
    }

    fn join_stderr(&mut self) -> String {
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill_and_log();
        }
    }
}
