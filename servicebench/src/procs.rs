//! The system under test as child processes: `idldp serve` collectors and
//! an `idldp coordinate` front, spawned from the release binary, plus the
//! OS accounting the benchmark reads from them (CPU time, peak RSS).
//!
//! Every child is registered in one process-wide list so that a normal
//! exit, an error return, a panic, and the watchdog all stop and reap the
//! same set of processes.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static CHILDREN: Mutex<Vec<(u32, Child)>> = Mutex::new(Vec::new());

fn children() -> std::sync::MutexGuard<'static, Vec<(u32, Child)>> {
    CHILDREN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Kills and reaps every child still registered.
pub fn kill_all() {
    for (_, mut child) in children().drain(..) {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Kills and reaps one registered child.
pub fn kill(pid: u32) {
    let found = {
        let mut list = children();
        let index = list.iter().position(|(p, _)| *p == pid);
        index.map(|i| list.swap_remove(i).1)
    };
    if let Some(mut child) = found {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Stops every child when dropped — held by `main`, so an error return or
/// a panic unwinding through `main` still leaves no process behind.
pub struct ChildGuard;

impl Drop for ChildGuard {
    fn drop(&mut self) {
        kill_all();
    }
}

/// Starts a thread that stops every child and exits with code 3 once
/// `limit` has passed: a wedged server or a stuck generator then fails the
/// run in bounded time instead of hanging it.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "servicebench: watchdog: run exceeded {:.0} s; stopping",
            limit.as_secs_f64()
        );
        kill_all();
        std::process::exit(3);
    });
}

/// One running `idldp` server process and the address it listens on.
pub struct Server {
    pub pid: u32,
    pub addr: String,
}

/// Spawns `idldp <args…>` and waits for its `listening on ADDR` line.
pub fn spawn_server(idldp: &Path, args: &[String]) -> Result<Server, String> {
    let mut child = Command::new(idldp)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", idldp.display()))?;
    let pid = child.id();
    let stdout = child.stdout.take().expect("stdout is piped");
    children().push((pid, child));
    let mut lines = BufReader::new(stdout).lines();
    loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.split("listening on ").nth(1) {
                    let addr = addr.trim().to_string();
                    // Keep draining in the background so a chatty child
                    // can never block on a full pipe.
                    std::thread::spawn(move || for _ in lines.by_ref() {});
                    return Ok(Server { pid, addr });
                }
            }
            Some(Err(e)) => return Err(format!("idldp {}: read stdout: {e}", args[0])),
            None => {
                kill(pid);
                return Err(format!(
                    "idldp {} exited before listening (args: {})",
                    args[0],
                    args.join(" ")
                ));
            }
        }
    }
}

/// CPU seconds (user + system) a process has used so far, from
/// `/proc/<pid>/stat` — OS accounting, covering every thread the process
/// ever ran.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line (11 and 12 after the name).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("/proc/{pid}/stat: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/{pid}/stat: field {i} unreadable"))
    };
    Ok((ticks(11)? + ticks(12)?) / clock_ticks_per_second())
}

fn clock_ticks_per_second() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|&t| t > 0.0)
            .unwrap_or(100.0)
    })
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))?;
    Ok(kib / 1024.0)
}

/// Bytes this process has passed to `write` so far (`wchar` of
/// `/proc/self/io`) — how the store replay measures bytes per save
/// without knowing the store's file layout.
pub fn bytes_written_by_self() -> Result<u64, String> {
    let io = std::fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "/proc/self/io: no wchar".to_string())
}

/// A fresh, empty scratch directory under `base`.
pub fn fresh_dir(base: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = base.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Seconds since `start`, as `f64`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
