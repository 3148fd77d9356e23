//! `disp-campaign` as the head of a pipeline: a reader that stops early
//! (`| head -c 100`, `| grep -q`) must not turn into a failed run.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn a_reader_that_closes_stdout_early_is_a_clean_exit() {
    // A trace of about a megabyte: far more than a pipe buffers, so the
    // CLI is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_disp-campaign"))
        .args(["trace", "--scenario", "star/k64/rooted/sync/probe-dfs"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = [0u8; 100];
    child.stdout.take().unwrap().read_exact(&mut first).unwrap();
    // The read end is dropped here, closing the pipe.
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    assert!(
        first.starts_with(b"{"),
        "{:?}",
        String::from_utf8_lossy(&first)
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(status.success(), "{status:?}: {stderr}");
}
