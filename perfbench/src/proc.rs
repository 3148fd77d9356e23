//! Starting and stopping the `disp-serve` processes under test.

use crate::Args;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The `disp-serve` binary built from this checkout: `$PERFBENCH_SERVE_BIN`
/// if set, else `<target dir>/release/disp-serve`.
pub fn serve_bin(args: &Args) -> Result<PathBuf, String> {
    let bin = match std::env::var_os("PERFBENCH_SERVE_BIN") {
        Some(p) => PathBuf::from(p),
        None => {
            let target = std::env::var_os("CARGO_TARGET_DIR")
                .map_or_else(|| args.root.join(".bench_build"), PathBuf::from);
            args.root.join(target).join("release").join("disp-serve")
        }
    };
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing; build it with perfbench/run.sh",
            bin.display()
        ))
    }
}

/// A running `disp-serve` process; stopped (SIGTERM, then SIGKILL) on
/// [`ServerProc::stop`] or drop.
pub struct ServerProc {
    child: Option<Child>,
    /// `host:port` it listens on (empty for workers, which do not listen).
    pub addr: String,
    pub pid: u32,
    drain: Option<JoinHandle<()>>,
}

/// Start `bin` with `flags`. When `listens`, wait for its "listening on"
/// line and take the address from it.
pub fn spawn(bin: &PathBuf, flags: &[String], listens: bool) -> Result<ServerProc, String> {
    let mut child = Command::new(bin)
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting {}: {e}", bin.display()))?;
    let pid = child.id();
    let stderr = child.stderr.take().expect("stderr is piped");
    let (tx, rx) = mpsc::channel();
    // Keep draining stderr for the process's lifetime so it never blocks
    // on a full pipe; forward the first line naming the listen address.
    let drain = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if let Some(rest) = line.split(" listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                let _ = tx.send(addr);
            }
        }
    });
    let mut proc = ServerProc {
        child: Some(child),
        addr: String::new(),
        pid,
        drain: Some(drain),
    };
    if listens {
        proc.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| format!("{} did not report a listen address", bin.display()))?;
    }
    Ok(proc)
}

impl ServerProc {
    /// Peak resident set of the process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::host::peak_rss_mb(Some(self.pid)).unwrap_or(0.0)
    }

    /// SIGTERM, wait up to ten seconds for a clean drain, then SIGKILL.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = Command::new("kill")
                .args(["-TERM", &self.pid.to_string()])
                .stderr(Stdio::null())
                .status();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.shutdown();
    }
}
