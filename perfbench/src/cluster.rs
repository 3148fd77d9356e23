//! `cluster-grid`: a `disp-serve` coordinator and two workers
//! (`--job-threads 1` each). One closed-loop client submits a cold grid
//! (the quick `figures` scenarios under a fresh seed), polls until it is
//! done and fetches the results, then submits the next. The only workload
//! that exercises the lease board, the wire protocol and the worker loop.

use crate::campaign::check_record;
use crate::host::{runqueue_wait_share, SchedSampler};
use crate::http::{histogram_mean, metric, parse_metrics, scrape_one, Conn};
use crate::proc::{serve_bin, spawn, ServerProc};
use crate::report::Report;
use crate::serve::{jsonl_body, route_metrics, Kind};
use crate::stats::{median, nearest_rank, sorted, tail};
use crate::trace::{write_trace, Span, Tracer};
use crate::trial::{layer_metrics, replay_trials, TrialRun};
use crate::wrap::{traced_registry, LayerCounters};
use crate::Args;
use disp_campaign::{run_campaign, CampaignSpec, Mode};
use disp_core::scenario::{Registry, ScenarioSpec};
use disp_rng::{fnv1a, mix};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workers in the fleet.
const WORKERS: usize = 2;
/// Repetitions of each scenario in a submitted grid.
const GRID_REPS: usize = 2;
/// The fleet's peak RSS is read after this many grids: results and cache
/// entries grow with every grid, so a reading at the end of the run would
/// measure how many grids the run fitted in.
const RSS_AFTER_GRIDS: usize = 8;

/// The quick `figures` scenarios.
fn grid_scenarios() -> Vec<ScenarioSpec> {
    CampaignSpec::figures(Mode::Quick, 0)
        .sections
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.scenario.clone()))
        .collect()
}

fn submission(scenarios: &[ScenarioSpec], seed: u64) -> String {
    let labels: Vec<String> = scenarios
        .iter()
        .map(|s| format!("\"{}\"", s.label()))
        .collect();
    format!(
        "{{\"scenarios\":[{}],\"reps\":{GRID_REPS},\"seed\":\"{seed:016x}\"}}",
        labels.join(",")
    )
}

/// A coordinator and its workers.
struct Fleet {
    coordinator: ServerProc,
    workers: Vec<ServerProc>,
}

impl Fleet {
    /// Start the fleet and wait until every worker has polled for a lease.
    fn start(args: &Args, index: usize) -> Result<Fleet, String> {
        let bin = serve_bin(args)?;
        let flag = |s: &str| s.to_string();
        let coordinator = spawn(
            &bin,
            &[
                flag("--role"),
                flag("coordinator"),
                flag("--addr"),
                flag("127.0.0.1:0"),
            ],
            true,
        )?;
        let workers = (0..WORKERS)
            .map(|w| {
                let cache = args.out.join(format!("worker-cache-{index}-{w}"));
                spawn(
                    &bin,
                    &[
                        flag("--role"),
                        flag("worker"),
                        flag("--coordinator"),
                        coordinator.addr.clone(),
                        flag("--worker-id"),
                        format!("w{w}"),
                        flag("--job-threads"),
                        flag("1"),
                        flag("--cache-dir"),
                        cache.display().to_string(),
                    ],
                    false,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut conn = Conn::new(&coordinator.addr);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = conn.get("/metrics")?.text().to_string();
            if scrape_one(&text, "disp_cluster_workers") == Some(WORKERS as f64) {
                break;
            }
            if Instant::now() > deadline {
                return Err("workers never reached the coordinator".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Fleet {
            coordinator,
            workers,
        })
    }

    fn pids(&self) -> Vec<u32> {
        std::iter::once(self.coordinator.pid)
            .chain(self.workers.iter().map(|w| w.pid))
            .collect()
    }

    /// Summed peak resident set of every process of the fleet, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        self.coordinator.peak_rss_mb()
            + self
                .workers
                .iter()
                .map(ServerProc::peak_rss_mb)
                .sum::<f64>()
    }

    /// Workers first (they drain their leases), then the coordinator.
    fn stop(self) {
        for w in self.workers {
            w.stop();
        }
        self.coordinator.stop();
    }
}

/// One grid, submitted and collected.
struct Grid {
    seed: u64,
    latency_s: f64,
    trials: usize,
    digest: u64,
    busy_samples: Vec<f64>,
    queue_depth_max: f64,
    /// Client-side latency of every request the grid took.
    routes: Vec<(Kind, f64)>,
}

/// Send one request and record its latency under `kind`.
fn timed<T>(routes: &mut Vec<(Kind, f64)>, kind: Kind, f: impl FnOnce() -> T) -> T {
    let began = Instant::now();
    let out = f();
    routes.push((kind, began.elapsed().as_secs_f64() * 1e3));
    out
}

/// Submit one grid, poll until done, fetch the results.
fn run_grid(
    conn: &mut Conn,
    scenarios: &[ScenarioSpec],
    seed: u64,
    tracer: Option<&Tracer>,
) -> Result<Grid, String> {
    let group = tracer.map_or(0, Tracer::new_id);
    let mark = || tracer.map_or(0, Tracer::now_ns);
    let t0 = mark();
    let began = Instant::now();
    let mut routes = Vec::new();
    let resp = timed(&mut routes, Kind::SubmitCold, || {
        conn.post("/runs", &submission(scenarios, seed))
    })?;
    if resp.status != 201 {
        return Err(format!("submit answered {}: {}", resp.status, resp.text()));
    }
    let id = resp
        .text()
        .split("\"id\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .ok_or("submit answer carries no id")?
        .to_string();
    let t1 = mark();
    let mut busy_samples = Vec::new();
    let mut queue_depth_max: f64 = 0.0;
    let deadline = Instant::now() + Duration::from_secs(120);
    for poll in 0u64.. {
        let status = timed(&mut routes, Kind::Status, || {
            conn.get(&format!("/runs/{id}"))
        })?;
        let text = status.text();
        if text.contains("\"state\":\"done\"") {
            break;
        }
        if !(text.contains("\"state\":\"queued\"") || text.contains("\"state\":\"running\"")) {
            return Err(format!("grid {id} ended: {text}"));
        }
        if Instant::now() > deadline {
            return Err(format!("grid {id} still running after 120 s"));
        }
        if tracer.is_some() && poll % 8 == 0 {
            let m = timed(&mut routes, Kind::Metrics, || conn.get("/metrics"))?;
            let busy = scrape_one(m.text(), "disp_cluster_workers_busy").unwrap_or(0.0);
            busy_samples.push(busy / WORKERS as f64);
            let depth = scrape_one(m.text(), "disp_queue_depth").unwrap_or(0.0);
            queue_depth_max = queue_depth_max.max(depth);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let t2 = mark();
    let results = timed(&mut routes, Kind::Results, || {
        conn.get(&format!("/runs/{id}/results"))
    })?;
    if results.status != 200 {
        return Err(format!("results answered {}", results.status));
    }
    let latency_s = began.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        let t3 = t.now_ns();
        let root = t.new_id();
        for (name, start, end) in [
            ("cluster.submit", t0, t1),
            ("cluster.wait", t1, t2),
            ("cluster.results", t2, t3),
        ] {
            t.record(Span {
                id: t.new_id(),
                parent: root,
                group,
                name,
                start_ns: start,
                end_ns: end,
            });
        }
        t.record(Span {
            id: root,
            parent: 0,
            group,
            name: "cluster.grid",
            start_ns: t0,
            end_ns: t3,
        });
    }
    Ok(Grid {
        seed,
        latency_s,
        trials: results.text().lines().count(),
        digest: fnv1a(&results.body),
        busy_samples,
        queue_depth_max,
        routes,
    })
}

pub fn cluster_grid(args: &Args, report: &mut Report) -> Result<(), String> {
    let scenarios = grid_scenarios();
    let expected_trials = scenarios.len() * GRID_REPS;
    let sampler = SchedSampler::start(Duration::from_millis(25));
    let mut setup_s = Vec::new();
    let mut kept: Option<Fleet> = None;
    for i in 0..3 {
        let began = Instant::now();
        let fleet = Fleet::start(args, i)?;
        setup_s.push(began.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(fleet) {
            old.stop();
        }
    }
    let fleet = kept.expect("three set-ups ran");
    for pid in fleet.pids() {
        sampler.watch(pid);
    }
    let sched_before = sampler.totals();
    let tracer = Tracer::new();
    let traced = args.trace.then_some(&tracer);
    let mut conn = Conn::new(&fleet.coordinator.addr);
    let began = Instant::now();
    let deadline = began + Duration::from_secs_f64(args.seconds);
    let mut grids = Vec::new();
    let mut peak = None;
    while grids.is_empty() || Instant::now() < deadline {
        let seed = mix(&[args.seed, 0xC1A5, grids.len() as u64]);
        let grid = run_grid(&mut conn, &scenarios, seed, traced);
        report.attempt(grid.is_ok(), || format!("grid {seed:016x} failed"));
        grids.push(grid?);
        if grids.len() == RSS_AFTER_GRIDS {
            peak = Some(fleet.peak_rss_mb());
        }
    }
    let work_s = began.elapsed().as_secs_f64();
    let control = if args.trace {
        // A seed no measured grid used, so the control grid runs cold too.
        let seed = mix(&[args.seed, 0xC1A5, grids.len() as u64]);
        Some(run_grid(&mut conn, &scenarios, seed, None)?)
    } else {
        None
    };
    let wait_share = runqueue_wait_share(sched_before, sampler.totals());
    let metrics_text = conn.get("/metrics")?.text().to_string();
    let peak = peak.unwrap_or_else(|| fleet.peak_rss_mb());
    fleet.stop();
    sampler.stop();

    // Every grid must equal the offline run of the same grid and seed.
    let mut first_records = Vec::new();
    for grid in &grids {
        let spec = CampaignSpec::custom(scenarios.clone(), GRID_REPS, grid.seed);
        let (records, _) = run_campaign(&spec, None, crate::host::nproc(), &Registry::builtin())?;
        report.check(grid.trials == expected_trials, || {
            format!(
                "grid {:016x}: {} of {expected_trials} trials",
                grid.seed, grid.trials
            )
        });
        report.check(fnv1a(&jsonl_body(&records)) == grid.digest, || {
            format!("grid {:016x} differs from the offline run", grid.seed)
        });
        for r in &records {
            check_record(report, r);
        }
        if first_records.is_empty() {
            first_records = records;
        }
    }

    let latency_ms: Vec<f64> = grids.iter().map(|g| g.latency_s * 1e3).collect();
    let rates: Vec<f64> = grids
        .iter()
        .map(|g| g.trials as f64 / g.latency_s)
        .collect();
    let (tail_p, tail_ms) = tail(&latency_ms);
    report.info(
        "figures",
        format!(
            "{{\"grids\":{},\"trials_per_grid\":{expected_trials},\"tail_percentile\":{tail_p},\"runqueue_wait_share\":{wait_share}}}",
            grids.len()
        ),
    );
    if !args.trace {
        report.set("setup_s", median(&setup_s));
        report.set("peak_rss_mb", peak);
        report.set("throughput_per_s", median(&rates));
        report.set("latency_p50_ms", median(&latency_ms));
        report.set("latency_tail_ms", tail_ms);
        return Ok(());
    }

    let m = parse_metrics(&metrics_text);
    let hits = metric(&m, "disp_cache_hits_total");
    let misses = metric(&m, "disp_cache_misses_total");
    report.set("cluster.cache_hit_ratio", hits / (hits + misses).max(1.0));
    report.set("cluster.cache_bytes", metric(&m, "disp_cache_bytes"));
    report.set(
        "cluster.cache_evictions",
        metric(&m, "disp_cache_evictions_total"),
    );
    let completed = metric(&m, "disp_fleet_batches_completed_total");
    let abandoned = metric(&m, "disp_fleet_batches_abandoned_total");
    let expired = metric(&m, "disp_leases_expired_total");
    report.set("cluster.leases", completed + abandoned + expired);
    report.set("cluster.leases_expired", expired);
    report.set("cluster.batches_completed", completed);
    report.set("cluster.batches_abandoned", abandoned);
    let busy: Vec<f64> = grids
        .iter()
        .flat_map(|g| g.busy_samples.iter().copied())
        .collect();
    if !busy.is_empty() {
        report.set(
            "cluster.worker_busy_share",
            busy.iter().sum::<f64>() / busy.len() as f64,
        );
    }
    report.set(
        "serve.trials_executed",
        metric(&m, "disp_trials_executed_total"),
    );
    let routes: Vec<(Kind, f64)> = grids
        .iter()
        .flat_map(|g| g.routes.iter().copied())
        .collect();
    route_metrics(report, &routes);
    report.set(
        "serve.http_request_us",
        histogram_mean(&m, "disp_http_request_duration_us"),
    );
    report.set(
        "serve.job_queue_wait_ms",
        histogram_mean(&m, "disp_job_queue_wait_us") / 1e3,
    );
    report.set(
        "serve.queue_depth_max",
        grids.iter().map(|g| g.queue_depth_max).fold(0.0, f64::max),
    );
    // A refused submit ends the run with an error, so a finished run
    // had none.
    report.set("serve.refused", 0.0);
    let sorted_ms = sorted(&latency_ms);
    report.set("serve.job_p50_ms", median(&latency_ms));
    report.set("serve.job_p99_ms", nearest_rank(&sorted_ms, 99.0));
    report.set("host.runqueue_wait_share", wait_share);
    if let Some(control) = control {
        report.set(
            "trace.overhead",
            median(&latency_ms) / (control.latency_s * 1e3),
        );
    }
    report.set("work.units", grids.len() as f64);
    report.set("work.seconds", work_s);
    // Layers: replay the first grid's trials, split into layers.
    let counters = Arc::new(LayerCounters::default());
    let registry = traced_registry(&counters);
    let replay = replay_trials(&first_records, &registry, &tracer, &counters, report)?;
    let trials: Vec<(&TrialRun, bool)> = replay.iter().map(|(t, a)| (t, *a)).collect();
    layer_metrics(report, &tracer, &counters.snapshot(), &trials);
    write_trace(args, &tracer)
}
