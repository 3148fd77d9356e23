//! Host capture: the fingerprint every result carries, peak resident set
//! size from `VmHWM`, and CPU run-queue wait from `schedstat`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Parse one `schedstat` line: nanoseconds on CPU, nanoseconds waiting on
/// a run queue, and time slices run.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let on_cpu = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((on_cpu, wait))
}

/// Parse `VmHWM` (peak resident set) out of a `/proc/<pid>/status` text,
/// in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of process `pid` (`None` = this process), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    parse_vm_hwm_mb(&std::fs::read_to_string(path).ok()?)
}

/// On-CPU and run-queue-wait nanoseconds of every live thread of process
/// `pid`, keyed by thread id.
fn thread_schedstats(pid: u32) -> Vec<(u32, (u64, u64))> {
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let tid: u32 = entry.file_name().to_str()?.parse().ok()?;
            let text = std::fs::read_to_string(entry.path().join("schedstat")).ok()?;
            Some((tid, parse_schedstat(&text)?))
        })
        .collect()
}

/// Latest (on-CPU ns, run-queue wait ns) per (process id, thread id).
type ThreadTimes = HashMap<(u32, u32), (u64, u64)>;

/// A background thread that polls the per-thread `schedstat` of a set of
/// processes and keeps the last value seen for every thread, so threads
/// that exit between polls still count (up to one poll interval).
pub struct SchedSampler {
    latest: Arc<Mutex<ThreadTimes>>,
    pids: Arc<Mutex<Vec<u32>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl SchedSampler {
    /// Start polling this process every `period`.
    pub fn start(period: Duration) -> SchedSampler {
        let latest = Arc::new(Mutex::new(HashMap::new()));
        let pids = Arc::new(Mutex::new(vec![std::process::id()]));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (latest, pids, stop) = (latest.clone(), pids.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let watched = pids.lock().expect("sampler pid list").clone();
                    for pid in watched {
                        let stats = thread_schedstats(pid);
                        let mut map = latest.lock().expect("sampler map");
                        for (tid, value) in stats {
                            map.insert((pid, tid), value);
                        }
                    }
                    std::thread::sleep(period);
                }
            })
        };
        SchedSampler {
            latest,
            pids,
            stop,
            thread: Some(thread),
        }
    }

    /// Also watch process `pid` (a server under test).
    pub fn watch(&self, pid: u32) {
        self.pids.lock().expect("sampler pid list").push(pid);
    }

    /// Cumulative (on-CPU ns, run-queue wait ns) over every thread seen.
    pub fn totals(&self) -> (u64, u64) {
        self.latest
            .lock()
            .expect("sampler map")
            .values()
            .fold((0, 0), |(c, w), &(dc, dw)| (c + dc, w + dw))
    }

    /// Stop the polling thread, wait for it, and return the final totals.
    pub fn stop(mut self) -> (u64, u64) {
        self.halt();
        self.totals()
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SchedSampler {
    /// An early return still stops and joins the polling thread.
    fn drop(&mut self) {
        self.halt();
    }
}

/// Share of runnable time spent waiting for a CPU between two sampler
/// readings: wait ÷ (on-CPU + wait).
pub fn runqueue_wait_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let cpu = after.0.saturating_sub(before.0) as f64;
    let wait = after.1.saturating_sub(before.1) as f64;
    if cpu + wait == 0.0 {
        0.0
    } else {
        wait / (cpu + wait)
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host fingerprint: CPU count and model, compiler, and a digest of
/// the sources under test (the checkout need not be a git repository, so
/// the digest stands in for a commit id when `git` cannot name one).
pub fn fingerprint(root: &Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line(
        "git",
        &["-C", &root.display().to_string(), "rev-parse", "HEAD"],
    )
    .unwrap_or_else(|| "none".into());
    format!(
        "{{\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"source_digest\":\"{:016x}\"}}",
        nproc(),
        cpu.replace('"', "'"),
        rustc.replace('"', "'"),
        commit,
        source_digest(root)
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the paths and bytes of every file under `crates/` plus the
/// root manifest and lock file, visited in sorted order.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in rd.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    disp_rng::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_the_first_two_fields() {
        assert_eq!(parse_schedstat("123456 7890 42\n"), Some((123_456, 7_890)));
        assert_eq!(parse_schedstat("garbage"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mebibytes() {
        let status = "Name:\tx\nVmPeak:\t  9999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn wait_share_is_a_fraction_of_runnable_time() {
        assert_eq!(runqueue_wait_share((100, 10), (400, 110)), 0.25);
        assert_eq!(runqueue_wait_share((5, 5), (5, 5)), 0.0);
    }

    #[test]
    fn this_process_has_a_schedstat_and_a_peak_rss() {
        let sampler = SchedSampler::start(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(20));
        let (cpu, _) = sampler.stop();
        assert!(cpu > 0);
        assert!(peak_rss_mb(None).unwrap() > 0.0);
    }
}
