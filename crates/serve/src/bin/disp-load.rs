//! The load-generation harness for `disp-serve`.
//!
//! ```text
//! disp-load bench  --addr HOST:PORT [--connections N] [--requests N]
//!                  [--scenario LABEL]... [--grid default|micro] [--min-rps N]
//!                  [--reps N] [--seed S] [--format text|json]
//! disp-load once   --addr HOST:PORT --scenario LABEL... [--reps N] [--seed S]
//! disp-load events --addr HOST:PORT [--scenario LABEL]... [--reps N] [--seed S]
//! disp-load watch  --addr HOST:PORT [--scenario LABEL]... [--run ID]
//! disp-load get    --addr HOST:PORT --path PATH
//! ```
//!
//! * `bench` warms the cache with one submission, then hammers the server
//!   from N keep-alive connections with a mixed submit/poll/fetch/metrics
//!   workload and reports throughput and p50/p99 latency — the numbers
//!   behind the ROADMAP's "heavy traffic" claim. `--format json` prints
//!   the same numbers as one machine-readable JSON object. `--grid micro`
//!   swaps the builtin grid for a wide grid of many small trials (the
//!   server-side analogue of the bench gate's micro workload, pushing the
//!   world pool each engine worker keeps for the length of a job), and `--min-rps` turns the
//!   measured warm-cache throughput into a pass/fail floor.
//! * `once` submits one grid, waits for completion and streams the JSONL
//!   results to stdout (the CI smoke diffs this against an offline
//!   `disp-campaign run` of the same grid).
//! * `events` submits one grid and subscribes to `GET /runs/:id/events`,
//!   verifying the live stream: every grid trial produces a completed or
//!   cached event, lifecycle events bracket them, and the stream closes
//!   cleanly when the job settles (the CI events smoke). A subscriber
//!   that fell behind (an `overflow` frame) is a *failure*: the windows
//!   are sized so a healthy consumer never drops, so a drop is a signal,
//!   not noise.
//! * `watch` is the live dashboard: submit a grid (or point it at a
//!   running job with `--run ID`) and poll `GET /runs/:id/timeline`,
//!   re-rendering an ASCII sparkline of completed trials until the job
//!   settles.
//! * `get` fetches one path and prints the body (so CI needs no curl).

use disp_analysis::json::Json;
use disp_serve::Client;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const USAGE: &str = "\
disp-load — load generation for disp-serve

USAGE:
  disp-load bench  --addr HOST:PORT [--connections N] [--requests N]
                   [--scenario LABEL]... [--grid default|micro] [--min-rps N]
                   [--reps N] [--seed S] [--format text|json]
                   [--target serve|coordinator]
  disp-load once   --addr HOST:PORT --scenario LABEL... [--reps N] [--seed S]
  disp-load events --addr HOST:PORT [--scenario LABEL]... [--reps N] [--seed S]
  disp-load watch  --addr HOST:PORT [--scenario LABEL]... [--reps N] [--seed S]
                   [--run ID]
  disp-load get    --addr HOST:PORT --path PATH

bench defaults: 4 connections, 1000 requests, a small builtin grid.
The mixed workload is, per 8 requests: 1 submit, 3 status polls,
3 results fetches, 1 metrics scrape. --grid micro replaces the builtin
grid with many small trials across families and schedules; --min-rps N
fails the bench when the measured warm-cache throughput falls below N
requests per second. --target coordinator additionally reports how the
warm-up grid's trials were spread across cluster workers (from the
/metrics per-worker gauges).

events submits a grid, subscribes to the run's live event stream and
verifies it: one completed/cached event per grid trial, a clean close,
and no overflow frame (a subscriber that fell behind exits non-zero).

watch submits a grid (or attaches to a running job with --run ID) and
polls GET /runs/:id/timeline, re-rendering a sparkline of completed
trials until the job settles.
";

struct Flags {
    addr: String,
    connections: usize,
    requests: usize,
    scenarios: Vec<String>,
    reps: usize,
    seed: u64,
    path: String,
    json: bool,
    coordinator: bool,
    micro: bool,
    min_rps: f64,
    run: String,
}

/// The `--grid micro` grid: many small trials across graph families,
/// schedules and both algorithms — the serve-path analogue of the bench
/// gate's micro workload. Every trial is tiny, so the executor's cost is
/// dominated by per-trial setup, which is exactly what each engine
/// worker's per-job world pool is for.
fn micro_grid() -> Vec<String> {
    [
        "line/k256/rooted/sync/probe-dfs",
        "line/k192/rooted/sync/probe-dfs",
        "line/k128/rooted/sync/ks-dfs",
        "ring/k256/rooted/sync/probe-dfs",
        "ring/k128/rooted/sync/ks-dfs",
        "star/k64/rooted/sync/probe-dfs",
        "star/k64/rooted/sync/ks-dfs",
        "rtree/k128/rooted/sync/probe-dfs",
        "rtree/k64/rooted/async-rand0.7/ks-dfs",
        "line/k128/rooted/async-lag4/probe-dfs",
        "star/k32/rooted/async-rand0.7/probe-dfs",
        "ring/k64/rooted/async-lag4/ks-dfs",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        addr: String::new(),
        connections: 4,
        requests: 1000,
        scenarios: Vec::new(),
        reps: 2,
        seed: 7,
        path: "/healthz".into(),
        json: false,
        coordinator: false,
        micro: false,
        min_rps: 0.0,
        run: String::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => flags.addr = value("--addr")?,
            "--connections" => {
                flags.connections = value("--connections")?
                    .parse()
                    .map_err(|_| "--connections expects a positive integer".to_string())?
            }
            "--requests" => {
                flags.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests expects a positive integer".to_string())?
            }
            "--scenario" => flags.scenarios.push(value("--scenario")?),
            "--reps" => {
                flags.reps = value("--reps")?
                    .parse()
                    .map_err(|_| "--reps expects a positive integer".to_string())?
            }
            "--seed" => {
                flags.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer".to_string())?
            }
            "--path" => flags.path = value("--path")?,
            "--run" => flags.run = value("--run")?,
            "--grid" => {
                flags.micro = match value("--grid")?.as_str() {
                    "micro" => true,
                    "default" => false,
                    other => return Err(format!("--grid expects default|micro, got '{other}'")),
                }
            }
            "--min-rps" => {
                flags.min_rps = value("--min-rps")?
                    .parse()
                    .map_err(|_| "--min-rps expects a number".to_string())?
            }
            "--target" => {
                flags.coordinator = match value("--target")?.as_str() {
                    "coordinator" => true,
                    "serve" => false,
                    other => {
                        return Err(format!("--target expects serve|coordinator, got '{other}'"))
                    }
                }
            }
            "--format" => {
                flags.json = match value("--format")?.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("--format expects text|json, got '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
        }
    }
    if flags.addr.is_empty() {
        return Err("--addr HOST:PORT is required".into());
    }
    if flags.scenarios.is_empty() {
        flags.scenarios = if flags.micro {
            micro_grid()
        } else {
            // A small mixed grid: SYNC + ASYNC, two algorithms.
            vec![
                "star/k12/rooted/sync/probe-dfs".into(),
                "rtree/k12/rooted/async-rand0.7/ks-dfs".into(),
            ]
        };
    } else if flags.micro {
        return Err("--grid micro and explicit --scenario are mutually exclusive".into());
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("bench") => cmd_bench(&args[1..]),
        Some("once") => cmd_once(&args[1..]),
        Some("events") => cmd_events(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("get") => cmd_get(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("disp-load: {message}");
            ExitCode::FAILURE
        }
    }
}

fn submission_body(flags: &Flags) -> Json {
    Json::Obj(vec![
        (
            "scenarios".into(),
            Json::Arr(
                flags
                    .scenarios
                    .iter()
                    .map(|l| Json::Str(l.clone()))
                    .collect(),
            ),
        ),
        ("reps".into(), Json::Num(flags.reps as f64)),
        ("seed".into(), Json::from_u64_lossless(flags.seed)),
    ])
}

/// Submit one grid and wait until it is done; returns the job id.
fn submit_and_wait(client: &mut Client, flags: &Flags) -> Result<String, String> {
    let resp = client.post_json("/runs", &submission_body(flags))?;
    if resp.status != 201 {
        return Err(format!("submit failed ({}): {}", resp.status, resp.text()));
    }
    let id = resp
        .json()?
        .get("id")
        .and_then(Json::as_str)
        .ok_or("submit response carries no id")?
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let status = client.get(&format!("/runs/{id}"))?;
        let state = status
            .json()?
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        match state.as_str() {
            "done" => return Ok(id),
            "queued" | "running" => {
                if Instant::now() > deadline {
                    return Err(format!("run {id} still {state} after 300s"));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            other => return Err(format!("run {id} ended {other}")),
        }
    }
}

fn cmd_once(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let mut client = Client::new(&flags.addr);
    let id = submit_and_wait(&mut client, &flags)?;
    let results = client.get(&format!("/runs/{id}/results"))?;
    if results.status != 200 {
        return Err(format!("results failed ({})", results.status));
    }
    print!("{}", results.text());
    Ok(())
}

/// Submit a grid and verify its live event stream end to end: subscribe to
/// `GET /runs/:id/events`, block until the job settles and the server
/// closes the stream, then check that every grid trial produced exactly
/// one completed/cached event. A truncated chunked body (unclean close)
/// surfaces as a transport error from the client, so reaching the checks
/// at all proves the stream ended cleanly.
fn cmd_events(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let mut client = Client::new(&flags.addr);
    let resp = client.post_json("/runs", &submission_body(&flags))?;
    if resp.status != 201 {
        return Err(format!("submit failed ({}): {}", resp.status, resp.text()));
    }
    let submitted = resp.json()?;
    let id = submitted
        .get("id")
        .and_then(Json::as_str)
        .ok_or("submit response carries no id")?
        .to_string();
    let total = submitted
        .get("total")
        .and_then(Json::as_u64)
        .ok_or("submit response carries no total")? as usize;

    let stream = client.get(&format!("/runs/{id}/events"))?;
    if stream.status != 200 {
        return Err(format!("events stream → {}", stream.status));
    }
    let body = stream.text();
    let mut completed = 0usize;
    let mut cached = 0usize;
    let mut settled = false;
    let mut overflow = 0u64;
    for line in body.lines() {
        let Some(payload) = line.strip_prefix("data: ") else {
            continue;
        };
        let event = Json::parse(payload).map_err(|e| format!("bad event {payload:?}: {e}"))?;
        match event.get("event").and_then(Json::as_str) {
            Some("completed") => completed += 1,
            Some("cached") => cached += 1,
            Some("job_state") => {
                if let Some("done" | "cancelled" | "failed") =
                    event.get("state").and_then(Json::as_str)
                {
                    settled = true;
                }
            }
            Some("overflow") => {
                overflow += event.get("dropped").and_then(Json::as_u64).unwrap_or(0);
            }
            _ => {}
        }
    }
    if !settled {
        return Err("stream closed without a terminal job_state event".into());
    }
    // An overflow frame means this subscriber fell behind the retained
    // window and events were dropped — the stream is no longer a faithful
    // record, so the check fails loudly instead of shrugging.
    if overflow > 0 {
        return Err(format!(
            "event stream overflowed: {overflow} events dropped \
             (saw {completed} completed + {cached} cached of {total})",
        ));
    }
    if completed + cached != total {
        return Err(format!(
            "expected {total} trial events, saw {completed} completed + {cached} cached",
        ));
    }
    println!(
        "events ok: {total} trials → {completed} completed, {cached} cached, \
         clean close"
    );
    Ok(())
}

/// The live dashboard: poll `GET /runs/:id/timeline` and re-render an
/// ASCII sparkline of completed trials until the job settles. Without
/// `--run ID` it submits the flag grid first and watches that.
fn cmd_watch(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let mut client = Client::new(&flags.addr);
    let id = if flags.run.is_empty() {
        let resp = client.post_json("/runs", &submission_body(&flags))?;
        if resp.status != 201 {
            return Err(format!("submit failed ({}): {}", resp.status, resp.text()));
        }
        resp.json()?
            .get("id")
            .and_then(Json::as_str)
            .ok_or("submit response carries no id")?
            .to_string()
    } else {
        flags.run.clone()
    };
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut last = String::new();
    loop {
        let status = client.get(&format!("/runs/{id}"))?;
        if status.status != 200 {
            return Err(format!("/runs/{id} → {}", status.status));
        }
        let doc = status.json()?;
        let state = doc
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let total = doc.get("total").and_then(Json::as_u64).unwrap_or(0);
        let done = doc.get("done").and_then(Json::as_u64).unwrap_or(0);
        let tl = client.get(&format!("/runs/{id}/timeline"))?;
        if tl.status != 200 {
            return Err(format!("/runs/{id}/timeline → {}", tl.status));
        }
        let body = tl.text();
        let series: Vec<f64> = body
            .lines()
            .filter_map(|line| {
                let event = Json::parse(line).ok()?;
                if event.get("event").and_then(Json::as_str) == Some("progress") {
                    Some(event.get("done").and_then(Json::as_u64)? as f64)
                } else {
                    None
                }
            })
            .collect();
        let bar = disp_analysis::sparkline_scaled(&series, total as f64, 60);
        let line = format!("[{bar}] {done}/{total} {state}");
        if line != last {
            println!("{line}");
            last = line;
        }
        match state.as_str() {
            "done" => return Ok(()),
            "queued" | "running" => {
                if Instant::now() > deadline {
                    return Err(format!("run {id} still {state} after 300s"));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            other => return Err(format!("run {id} ended {other}")),
        }
    }
}

fn cmd_get(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let mut client = Client::new(&flags.addr);
    let resp = client.get(&flags.path)?;
    print!("{}", resp.text());
    if resp.status >= 400 {
        return Err(format!("GET {} → {}", flags.path, resp.status));
    }
    Ok(())
}

/// Parse the `disp_cluster_worker_trials_total{worker="..."} N` lines of
/// a `/metrics` body into `(worker, trials)` pairs.
fn parse_worker_trials(body: &str) -> Vec<(String, u64)> {
    body.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("disp_cluster_worker_trials_total{worker=\"")?;
            let (name, value) = rest.split_once("\"}")?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Fetch `/healthz` and render its identity fields for the bench header:
/// `role=… version=… uptime=…s`.
fn healthz_summary(client: &mut Client) -> Result<String, String> {
    let resp = client.get("/healthz")?;
    if resp.status != 200 {
        return Err(format!("/healthz → {}", resp.status));
    }
    let doc = resp.json()?;
    let field = |name: &str| {
        doc.get(name)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    Ok(format!(
        "role={} version={} uptime={}s",
        field("role"),
        field("version"),
        doc.get("uptime_seconds")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    ))
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;

    // Warm-up: one full submission so the cache is hot and there is a
    // completed job id to poll/fetch during the measured phase.
    let mut warm = Client::new(&flags.addr);
    let health = healthz_summary(&mut warm)?;
    if !flags.json {
        println!("disp-load: server {health}");
    }
    let warm_start = Instant::now();
    let warm_id = submit_and_wait(&mut warm, &flags)?;
    let warm_wall = warm_start.elapsed();
    drop(warm);

    let issued = AtomicUsize::new(0);
    let errors = AtomicU64::new(0);
    let kind_counts: [AtomicU64; 4] = Default::default(); // submit, status, results, metrics
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(flags.requests));

    let bench_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..flags.connections.max(1) {
            scope.spawn(|| {
                let mut client = Client::new(&flags.addr);
                let mut local: Vec<u64> = Vec::new();
                loop {
                    let i = issued.fetch_add(1, Ordering::Relaxed);
                    if i >= flags.requests {
                        break;
                    }
                    // Mixed workload, 8-request cycle: 1 submit (a pure
                    // cache hit past the warm-up), 3 status polls, 3
                    // results fetches, 1 metrics scrape.
                    let kind = match i % 8 {
                        0 => 0,
                        1..=3 => 1,
                        4..=6 => 2,
                        _ => 3,
                    };
                    let start = Instant::now();
                    let result = match kind {
                        0 => client.post_json("/runs", &submission_body(&flags)),
                        1 => client.get(&format!("/runs/{warm_id}")),
                        2 => client.get(&format!("/runs/{warm_id}/results")),
                        _ => client.get("/metrics"),
                    };
                    let elapsed = start.elapsed().as_micros() as u64;
                    kind_counts[kind].fetch_add(1, Ordering::Relaxed);
                    match result {
                        Ok(resp) if resp.status < 400 => local.push(elapsed),
                        Ok(resp) => {
                            eprintln!("disp-load: request kind {kind} → {}", resp.status);
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("disp-load: {e}");
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let wall = bench_start.elapsed();

    let mut all = latencies.into_inner().unwrap();
    all.sort_unstable();
    let errors = errors.load(Ordering::Relaxed);
    if all.is_empty() {
        return Err("no request succeeded".into());
    }
    let pct = |p: f64| -> f64 {
        let idx = ((all.len() as f64 - 1.0) * p).round() as usize;
        all[idx] as f64 / 1000.0
    };
    let total = all.len();
    let throughput = total as f64 / wall.as_secs_f64();
    // --target coordinator: scrape the per-worker trial gauges so the
    // report shows how the cluster spread the warm-up grid.
    let workers: Vec<(String, u64)> = if flags.coordinator {
        let mut client = Client::new(&flags.addr);
        let resp = client.get("/metrics")?;
        if resp.status != 200 {
            return Err(format!("/metrics → {}", resp.status));
        }
        parse_worker_trials(&resp.text())
    } else {
        Vec::new()
    };
    if flags.json {
        let doc = Json::Obj(vec![
            ("server".into(), Json::Str(health.clone())),
            ("requests".into(), Json::Num(total as f64)),
            ("connections".into(), Json::Num(flags.connections as f64)),
            ("errors".into(), Json::Num(errors as f64)),
            ("elapsed_s".into(), Json::Num(wall.as_secs_f64())),
            ("req_per_s".into(), Json::Num(throughput)),
            ("p50_ms".into(), Json::Num(pct(0.50))),
            ("p99_ms".into(), Json::Num(pct(0.99))),
            ("warm_up_s".into(), Json::Num(warm_wall.as_secs_f64())),
            (
                "kinds".into(),
                Json::Obj(
                    ["submit", "status", "results", "metrics"]
                        .iter()
                        .zip(&kind_counts)
                        .map(|(name, count)| {
                            (
                                (*name).into(),
                                Json::Num(count.load(Ordering::Relaxed) as f64),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        let doc = if flags.coordinator {
            let Json::Obj(mut fields) = doc else {
                unreachable!()
            };
            fields.push((
                "workers".into(),
                Json::Obj(
                    workers
                        .iter()
                        .map(|(name, trials)| (name.clone(), Json::Num(*trials as f64)))
                        .collect(),
                ),
            ));
            Json::Obj(fields)
        } else {
            doc
        };
        println!("{}", doc.to_string_compact());
    } else {
        println!(
            "disp-load: warm-up run {warm_id} completed in {warm_wall:.2?}; measured {total} \
             requests over {} connections in {wall:.2?}",
            flags.connections,
        );
        println!(
            "disp-load: {throughput:.1} req/s  p50 {:.2}ms  p99 {:.2}ms  (submit {}, status {}, \
             results {}, metrics {}; {errors} errors)",
            pct(0.50),
            pct(0.99),
            kind_counts[0].load(Ordering::Relaxed),
            kind_counts[1].load(Ordering::Relaxed),
            kind_counts[2].load(Ordering::Relaxed),
            kind_counts[3].load(Ordering::Relaxed),
        );
        if flags.coordinator {
            if workers.is_empty() {
                println!("disp-load: no worker has completed a trial on this coordinator yet");
            }
            for (name, trials) in &workers {
                println!("disp-load: worker {name}: {trials} trials");
            }
        }
    }
    if errors > 0 {
        return Err(format!(
            "{errors} of {} requests failed",
            total as u64 + errors
        ));
    }
    // The measured phase runs against a warm cache (the warm-up executed
    // the whole grid), so a floor here is a warm-cache throughput
    // non-regression gate, not a hardware benchmark.
    if flags.min_rps > 0.0 && throughput < flags.min_rps {
        return Err(format!(
            "warm-cache throughput regressed: {throughput:.1} req/s is below the \
             --min-rps {} floor",
            flags.min_rps
        ));
    }
    Ok(())
}
