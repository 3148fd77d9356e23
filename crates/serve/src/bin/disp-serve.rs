//! The campaign-service daemon — standalone, coordinator or worker.
//!
//! ```text
//! disp-serve [--addr HOST:PORT] [--http-threads N] [--job-threads N]
//!            [--cache-dir DIR] [--cache-max-entries N] [--cache-max-bytes N]
//!            [--role coordinator [--batch-size N] [--lease-ttl-secs S]]
//! disp-serve --role worker --coordinator HOST:PORT [--worker-id ID]
//!            [--job-threads N] [--cache-dir DIR]
//! disp-serve compact --cache-dir DIR
//! ```
//!
//! The default role serves and executes campaigns in-process. A
//! *coordinator* accepts the same `POST /runs` API but shards each grid
//! into trial batches that *workers* pull over `/internal/*`; a worker
//! needs no listen address at all — it dials the coordinator, executes
//! leased batches and uploads the records. `compact` rewrites a cache log
//! offline, dropping superseded lines.
//!
//! All roles run until SIGINT/SIGTERM, then drain gracefully and exit 0.
//! With `--cache-dir` the trial cache persists across restarts, so a
//! restarted server (or worker) serves the same grids from disk without
//! recomputation.

use disp_campaign::signal;
use disp_cluster::{WorkerConfig, WorkerShared};
use disp_serve::cache::compact_file;
use disp_serve::{run_worker, CoordinatorConfig, ServeConfig, Server};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

const USAGE: &str = "\
disp-serve — the deterministic campaign service

USAGE:
  disp-serve [--addr HOST:PORT] [--http-threads N] [--job-threads N]
             [--cache-dir DIR] [--cache-max-entries N] [--cache-max-bytes N]
             [--role coordinator [--batch-size N] [--lease-ttl-secs S]]
  disp-serve --role worker --coordinator HOST:PORT [--worker-id ID]
             [--job-threads N] [--cache-dir DIR]
  disp-serve compact --cache-dir DIR

Defaults: --addr 127.0.0.1:8080, 4 HTTP workers, one engine worker per
core, in-memory cache. --role coordinator serves the same API but farms
trial batches out to workers (defaults: --batch-size 4,
--lease-ttl-secs 10). --role worker dials a coordinator and executes
leased batches until SIGTERM or the coordinator drains. compact rewrites
DIR/cache.jsonl in place, dropping superseded lines. See README 'serve
quick-start' and 'running a cluster' for the endpoints.
";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("disp-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compact") {
        args.remove(0);
        return cmd_compact(&args);
    }

    let mut addr = "127.0.0.1:8080".to_string();
    let mut config = ServeConfig::default();
    let mut role = "serve".to_string();
    let mut coordinator_addr = String::new();
    let mut worker_id = format!("w-{}", std::process::id());
    let mut cluster = CoordinatorConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--http-threads" => {
                config.http_threads = value("--http-threads")?
                    .parse()
                    .map_err(|_| "--http-threads expects a positive integer".to_string())?
            }
            "--job-threads" => {
                config.job_threads = value("--job-threads")?
                    .parse()
                    .map_err(|_| "--job-threads expects a positive integer".to_string())?
            }
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--cache-max-entries" => {
                config.cache_budget.max_entries = value("--cache-max-entries")?
                    .parse()
                    .map_err(|_| "--cache-max-entries expects a positive integer".to_string())?
            }
            "--cache-max-bytes" => {
                config.cache_budget.max_bytes = value("--cache-max-bytes")?
                    .parse()
                    .map_err(|_| "--cache-max-bytes expects a positive integer".to_string())?
            }
            "--role" => {
                role = value("--role")?;
                if !matches!(role.as_str(), "serve" | "coordinator" | "worker") {
                    return Err(format!(
                        "--role expects serve|coordinator|worker, got '{role}'"
                    ));
                }
            }
            "--coordinator" => coordinator_addr = value("--coordinator")?,
            "--worker-id" => worker_id = value("--worker-id")?,
            "--batch-size" => {
                cluster.batch_size = value("--batch-size")?
                    .parse()
                    .map_err(|_| "--batch-size expects a positive integer".to_string())?
            }
            "--lease-ttl-secs" => {
                cluster.lease_ttl = Duration::from_secs(
                    value("--lease-ttl-secs")?
                        .parse()
                        .map_err(|_| "--lease-ttl-secs expects a positive integer".to_string())?,
                )
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
        }
    }

    if role == "worker" {
        return run_worker_role(&coordinator_addr, &worker_id, &config);
    }
    if role == "coordinator" {
        config.coordinator = Some(cluster);
    }

    let latch = signal::install();
    let server = Server::start(&addr, config.clone())?;
    eprintln!(
        "disp-serve: {} listening on {} ({} HTTP workers, {}, cache: {})",
        role,
        server.addr(),
        config.http_threads,
        match config.coordinator {
            Some(c) => format!("batches of {} with {:?} leases", c.batch_size, c.lease_ttl),
            None => format!("{} engine workers", config.job_threads),
        },
        match &config.cache_dir {
            Some(dir) => dir.display().to_string(),
            None => "in-memory".to_string(),
        },
    );
    while !latch.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("disp-serve: signal received, draining…");
    server.shutdown();
    eprintln!("disp-serve: drained cleanly");
    Ok(())
}

/// `--role worker`: dial the coordinator and pull batches until SIGTERM
/// or a coordinator drain, then print the lifetime summary.
fn run_worker_role(coordinator: &str, id: &str, config: &ServeConfig) -> Result<(), String> {
    if coordinator.is_empty() {
        return Err("--role worker requires --coordinator HOST:PORT".into());
    }
    let latch = signal::install();
    let shared = WorkerShared::new();
    // Relay the process signal latch into the worker's stop flag so the
    // lease loop exits between batches (and a running batch is cancelled).
    let relay = {
        let shared = std::sync::Arc::clone(&shared);
        std::thread::spawn(move || {
            while !latch.load(Ordering::SeqCst) && !shared.stopping() {
                std::thread::sleep(Duration::from_millis(50));
            }
            shared.request_stop();
        })
    };
    let cfg = WorkerConfig {
        id: id.to_string(),
        threads: config.job_threads,
    };
    eprintln!(
        "disp-serve: worker {id} dialing {coordinator} ({} engine workers, cache: {})",
        cfg.threads,
        match &config.cache_dir {
            Some(dir) => dir.display().to_string(),
            None => "in-memory".to_string(),
        },
    );
    let result = run_worker(coordinator, &cfg, config.cache_dir.as_deref(), &shared);
    shared.request_stop();
    let _ = relay.join();
    let summary = result?;
    eprintln!(
        "disp-serve: worker {id} done: {} batches, {} executed, {} local hits, \
         {} uploaded, {} abandoned",
        summary.batches, summary.executed, summary.local_hits, summary.uploaded, summary.abandoned,
    );
    Ok(())
}

/// `compact --cache-dir DIR`: offline compaction of `DIR/cache.jsonl`.
fn cmd_compact(args: &[String]) -> Result<(), String> {
    let mut dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => {
                dir = Some(PathBuf::from(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "--cache-dir requires a value".to_string())?,
                ))
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
        }
    }
    let dir = dir.ok_or("compact requires --cache-dir DIR")?;
    let stats = compact_file(&dir.join("cache.jsonl"))?;
    println!(
        "disp-serve: compacted {}: {} lines / {} bytes → {} lines / {} bytes",
        dir.join("cache.jsonl").display(),
        stats.lines_in,
        stats.bytes_in,
        stats.lines_kept,
        stats.bytes_out,
    );
    Ok(())
}
