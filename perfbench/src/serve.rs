//! `serve-mixed`: `disp-serve --cache-dir` under an open loop at a ladder
//! of fixed rates, from one process over two connections. Per 16
//! requests: 2 warm submits of the 24-trial micro grid (cached at set-up),
//! 6 status polls, 6 results fetches and 2 metrics scrapes. Beside that,
//! cold submits of the same grid under a fresh seed each arrive at a small
//! fixed rate; they execute trials and write the cache on the same job
//! executor the warm reads go through.

use crate::host::{runqueue_wait_share, SchedSampler};
use crate::http::{histogram_mean, metric, parse_metrics, scrape_one, Conn, REQUEST_TIMEOUT};
use crate::proc::{serve_bin, spawn, ServerProc};
use crate::report::Report;
use crate::stats::{median, nearest_rank, sorted, tail};
use crate::trace::{write_trace, Span, Tracer};
use crate::trial::{layer_metrics, replay_trials, TrialRun};
use crate::wrap::{traced_registry, LayerCounters};
use crate::Args;
use disp_analysis::TrialRecord;
use disp_campaign::{run_campaign, CampaignSpec};
use disp_core::scenario::{Registry, ScenarioSpec};
use disp_rng::{fnv1a, mix};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The `disp-load --grid micro` scenarios (12 labels × 2 reps = 24 trials).
pub const MICRO_GRID: [&str; 12] = [
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
];
const MICRO_REPS: usize = 2;

/// Offered request rates (req/s); latency is reported at [`REPORT_RATE`].
pub const LADDER: [f64; 4] = [1000.0, 2000.0, 4000.0, 8000.0];
pub const REPORT_RATE: f64 = 2000.0;
/// Cold grid submits per second, beside the ladder's requests.
pub const COLD_PER_S: f64 = 2.0;
/// A rung is sustained when its tail stays within this limit.
pub const TAIL_LIMIT_MS: f64 = 5.0;
/// Connections the generator uses (one sender thread each).
const CONNECTIONS: u64 = 2;

/// What one scheduled request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SubmitWarm,
    SubmitCold,
    Status,
    Results,
    Metrics,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::SubmitWarm,
        Kind::SubmitCold,
        Kind::Status,
        Kind::Results,
        Kind::Metrics,
    ];
    fn span(self) -> &'static str {
        match self {
            Kind::SubmitWarm => "serve.submit_warm",
            Kind::SubmitCold => "serve.submit_cold",
            Kind::Status => "serve.status",
            Kind::Results => "serve.results",
            Kind::Metrics => "serve.metrics",
        }
    }
}

/// The request mix: position `j % 16` of the ladder's schedule.
const MIX: [Kind; 16] = {
    use Kind::*;
    [
        SubmitWarm, Status, Results, Status, Results, Metrics, Status, Results, //
        SubmitWarm, Status, Results, Status, Results, Metrics, Status, Results,
    ]
};

pub fn kind_of(j: u64) -> Kind {
    MIX[(j % 16) as usize]
}

/// A fixed-rate open-loop schedule: request `j` is due `j / rate` seconds
/// after the start, whatever happened to earlier requests. Sender `s` of
/// `senders` takes the requests with `j % senders == s`.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub rate: f64,
    pub senders: u64,
}

impl OpenLoop {
    /// Due offset of request `j`.
    pub fn due(&self, j: u64) -> Duration {
        Duration::from_secs_f64(j as f64 / self.rate)
    }

    /// Requests of sender `s` due before `horizon`, in order.
    pub fn requests_of(&self, s: u64, horizon: Duration) -> impl Iterator<Item = u64> + '_ {
        (s..)
            .step_by(self.senders as usize)
            .take_while(move |&j| self.due(j) < horizon)
    }
}

/// How late a request went out: send time minus due time, never negative.
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

/// A request as the generator saw it.
#[derive(Debug, Clone)]
struct Sample {
    kind: Kind,
    /// Completion minus due time (the failure timeout when it failed).
    latency_ms: f64,
    lag_ms: f64,
    ok: bool,
    refused: bool,
    /// Offsets of the due time and the completion from the rung start.
    due_s: f64,
    done_s: f64,
}

#[derive(Debug, Clone)]
struct ColdJob {
    id: String,
    seed: u64,
    due: Instant,
    done_ms: Option<f64>,
    digest: Option<u64>,
}

/// State the two senders share: the job ids they poll and fetch.
struct Shared {
    latest_warm: String,
    latest_warm_done: String,
    cold_outstanding: VecDeque<ColdJob>,
    cold_ready: VecDeque<ColdJob>,
    cold_fetched: Vec<ColdJob>,
    cold_issued: u64,
    poll_turn: u64,
    queue_depth_max: f64,
    bad_results: u64,
}

fn submission(seed: u64) -> String {
    let labels: Vec<String> = MICRO_GRID.iter().map(|l| format!("\"{l}\"")).collect();
    format!(
        "{{\"scenarios\":[{}],\"reps\":{MICRO_REPS},\"seed\":\"{seed:016x}\"}}",
        labels.join(",")
    )
}

/// The micro grid under `seed`, run offline: the results body a server
/// must return for it, and the records.
pub fn offline_micro(seed: u64) -> Result<(Vec<u8>, Vec<TrialRecord>), String> {
    let scenarios = MICRO_GRID
        .iter()
        .map(|l| ScenarioSpec::from_label(l).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let spec = CampaignSpec::custom(scenarios, MICRO_REPS, seed);
    let (records, _) = run_campaign(&spec, None, 1, &Registry::builtin())?;
    Ok((jsonl_body(&records), records))
}

/// Records as the `/runs/:id/results` body: one JSON line each.
pub fn jsonl_body(records: &[TrialRecord]) -> Vec<u8> {
    let mut body = String::new();
    for r in records {
        body.push_str(&r.to_json_line());
        body.push('\n');
    }
    body.into_bytes()
}

fn job_id(body: &str) -> Option<String> {
    let rest = body.split("\"id\":\"").nth(1)?;
    Some(rest.split('"').next()?.to_string())
}

fn job_state(body: &str) -> &str {
    body.split("\"state\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .unwrap_or("?")
}

/// Submit `seed`'s micro grid and wait until it is done; returns its id.
pub fn submit_and_wait(conn: &mut Conn, body: &str, timeout: Duration) -> Result<String, String> {
    let resp = conn.post("/runs", body)?;
    if resp.status != 201 {
        return Err(format!("submit answered {}: {}", resp.status, resp.text()));
    }
    let id = job_id(resp.text()).ok_or("submit answer carries no id")?;
    let deadline = Instant::now() + timeout;
    loop {
        let status = conn.get(&format!("/runs/{id}"))?;
        match job_state(status.text()) {
            "done" => return Ok(id),
            "queued" | "running" if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2))
            }
            other => return Err(format!("job {id} is {other}")),
        }
    }
}

/// Start a server on a fresh cache directory and warm its cache with the
/// micro grid under `warm_seed`; checks the warm-up results.
fn start_and_warm(
    args: &Args,
    index: usize,
    warm_seed: u64,
    expected: &[u8],
) -> Result<(ServerProc, String), String> {
    let cache = args.out.join(format!("serve-cache-{index}"));
    let flags = vec![
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--cache-dir".to_string(),
        cache.display().to_string(),
        "--job-threads".to_string(),
        "1".to_string(),
    ];
    let server = spawn(&serve_bin(args)?, &flags, true)?;
    let mut conn = Conn::new(&server.addr);
    let id = submit_and_wait(&mut conn, &submission(warm_seed), Duration::from_secs(60))?;
    let results = conn.get(&format!("/runs/{id}/results"))?;
    if results.status != 200 || results.body != expected {
        return Err("warm-up results differ from the offline run".into());
    }
    Ok((server, id))
}

pub fn serve_mixed(args: &Args, report: &mut Report) -> Result<(), String> {
    let warm_seed = mix(&[args.seed, 0x3A53]);
    let (expected_warm, warm_records) = offline_micro(warm_seed)?;
    let sampler = SchedSampler::start(Duration::from_millis(25));

    // Set up three times (start + warm-up), keep the last server.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..3 {
        let began = Instant::now();
        let (server, id) = start_and_warm(args, i, warm_seed, &expected_warm)?;
        setup_s.push(began.elapsed().as_secs_f64());
        if let Some((old, _)) = kept.replace((server, id)) {
            ServerProc::stop(old);
        }
    }
    let (server, warm_id) = kept.expect("three set-ups ran");
    sampler.watch(server.pid);
    let sched_before = sampler.totals();

    let shared = Mutex::new(Shared {
        latest_warm: warm_id.clone(),
        latest_warm_done: warm_id,
        cold_outstanding: VecDeque::new(),
        cold_ready: VecDeque::new(),
        cold_fetched: Vec::new(),
        cold_issued: 0,
        poll_turn: 0,
        queue_depth_max: 0.0,
        bad_results: 0,
    });
    let tracer = Tracer::new();
    let traced = args.trace.then_some(&tracer);
    let plan = rung_seconds(args.seconds);
    let ctx = RungCtx {
        addr: &server.addr,
        seed: args.seed,
        expected_warm: &expected_warm,
        shared: &shared,
        tracer: traced,
    };
    let began = Instant::now();
    let mut rungs = Vec::new();
    for (rate, seconds) in LADDER.into_iter().zip(plan) {
        rungs.push(run_rung(&ctx, rate, seconds));
    }
    let work_s = began.elapsed().as_secs_f64();
    // Untraced control rung for the tracing overhead.
    let control = args.trace.then(|| {
        let seconds = plan[LADDER
            .iter()
            .position(|&r| r == REPORT_RATE)
            .expect("report rung")];
        run_rung(
            &RungCtx {
                tracer: None,
                ..ctx
            },
            REPORT_RATE,
            seconds,
        )
    });
    let wait_share = runqueue_wait_share(sched_before, sampler.totals());

    // Let the cold jobs still in flight finish, then fetch every result.
    let mut conn = Conn::new(&server.addr);
    finish_cold_jobs(&mut conn, &shared)?;
    let metrics_text = conn.get("/metrics")?.text().to_string();
    let server_peak = server.peak_rss_mb();
    server.stop();
    sampler.stop();

    let shared = shared.into_inner().expect("senders joined");
    report.check(shared.bad_results == 0, || {
        format!(
            "{} warm results fetches differed from the offline run",
            shared.bad_results
        )
    });
    for job in &shared.cold_fetched {
        let (expected, _) = offline_micro(job.seed)?;
        report.check(job.digest == Some(fnv1a(&expected)), || {
            format!(
                "cold job {} (seed {}) differs from the offline run",
                job.id, job.seed
            )
        });
    }
    report.check(!shared.cold_fetched.is_empty(), || {
        "no cold job completed".into()
    });

    // Failure accounting over every rung and every cold job.
    for rung in &rungs {
        for s in &rung.samples {
            report.attempt(s.ok, || {
                format!("{} at {} req/s failed", s.kind.span(), rung.rate)
            });
        }
    }
    for job in &shared.cold_fetched {
        report.attempt(job.digest.is_some(), || {
            format!("cold job {} gave no results", job.id)
        });
    }

    let summaries: Vec<String> = rungs
        .iter()
        .map(|rung| {
            let r = rung.summary();
            format!(
                "{{\"rate\":{},\"seconds\":{},\"achieved\":{},\"p50_ms\":{},\"p99_ms\":{},\"tail_ms\":{},\"tail_percentile\":{},\"gen_lag_p99_ms\":{},\"failed\":{},\"sustained\":{}}}",
                rung.rate, rung.seconds, r.achieved, r.p50_ms, r.p99_ms, r.tail_ms, r.tail_p, r.lag_p99_ms, r.failed, r.sustained
            )
        })
        .collect();
    report.info("ladder", format!("[{}]", summaries.join(",")));
    let job_ms: Vec<f64> = shared
        .cold_fetched
        .iter()
        .filter_map(|j| j.done_ms)
        .collect();
    let job_sorted = sorted(&job_ms);
    report.info(
        "figures",
        format!(
            "{{\"cold_jobs\":{},\"job_p50_ms\":{},\"job_p99_ms\":{},\"server_setups\":{},\"runqueue_wait_share\":{wait_share}}}",
            job_ms.len(),
            median(&job_ms),
            nearest_rank(&job_sorted, 99.0),
            setup_s.len()
        ),
    );

    let reported = rungs
        .iter()
        .find(|r| r.rate == REPORT_RATE)
        .expect("the report rate is a rung");
    let at_report = reported.summary();
    let max_rate = rungs
        .iter()
        .map(Rung::summary)
        .filter(|r| r.sustained)
        .map(|r| r.achieved)
        .fold(0.0, f64::max);
    let reported = &reported.samples;
    if !args.trace {
        report.set("setup_s", median(&setup_s));
        report.set("peak_rss_mb", server_peak);
        report.set("throughput_per_s", max_rate);
        report.set("latency_p50_ms", at_report.p50_ms);
        report.set("latency_tail_ms", at_report.tail_ms);
        return Ok(());
    }

    let all: Vec<&Sample> = rungs.iter().flat_map(|r| r.samples.iter()).collect();
    // Cold submits are rare: pool them over every rung; the other routes
    // at the reporting rung.
    let routes: Vec<(Kind, f64)> = all
        .iter()
        .copied()
        .filter(|s| s.kind == Kind::SubmitCold)
        .chain(reported.iter().filter(|s| s.kind != Kind::SubmitCold))
        .map(|s| (s.kind, s.latency_ms))
        .collect();
    route_metrics(report, &routes);
    let m = parse_metrics(&metrics_text);
    report.set(
        "serve.http_request_us",
        histogram_mean(&m, "disp_http_request_duration_us"),
    );
    report.set(
        "serve.job_queue_wait_ms",
        histogram_mean(&m, "disp_job_queue_wait_us") / 1e3,
    );
    report.set("serve.queue_depth_max", shared.queue_depth_max);
    let refused = all.iter().filter(|s| s.refused).count();
    report.set("serve.refused", refused as f64);
    report.set(
        "serve.trials_executed",
        metric(&m, "disp_trials_executed_total"),
    );
    report.set("serve.gen_lag_ms", at_report.lag_p99_ms);
    report.set("serve.job_p50_ms", median(&job_ms));
    report.set("serve.job_p99_ms", nearest_rank(&job_sorted, 99.0));
    let hits = metric(&m, "disp_cache_hits_total");
    let misses = metric(&m, "disp_cache_misses_total");
    report.set("cluster.cache_hit_ratio", hits / (hits + misses).max(1.0));
    report.set("cluster.cache_bytes", metric(&m, "disp_cache_bytes"));
    report.set(
        "cluster.cache_evictions",
        metric(&m, "disp_cache_evictions_total"),
    );
    report.set("host.runqueue_wait_share", wait_share);
    if let Some(control) = control {
        report.set(
            "trace.overhead",
            at_report.p50_ms / control.summary().p50_ms,
        );
    }
    report.set("work.units", reported.len() as f64);
    report.set("work.seconds", work_s);
    // Layers: replay the warm grid's trials (what a cold job executes on
    // the server), split into layers.
    let counters = Arc::new(LayerCounters::default());
    let registry = traced_registry(&counters);
    let replay = replay_trials(&warm_records, &registry, &tracer, &counters, report)?;
    let trials: Vec<(&TrialRun, bool)> = replay.iter().map(|(t, a)| (t, *a)).collect();
    layer_metrics(report, &tracer, &counters.snapshot(), &trials);
    write_trace(args, &tracer)
}

/// Share of the run the reporting rung gets; the other rungs split the
/// rest evenly.
const REPORT_SHARE: f64 = 0.4;

/// Seconds per ladder rung for a run of `total` seconds.
fn rung_seconds(total: f64) -> [f64; LADDER.len()] {
    let others = (total * (1.0 - REPORT_SHARE)) / (LADDER.len() - 1) as f64;
    LADDER.map(|r| {
        if r == REPORT_RATE {
            total * REPORT_SHARE
        } else {
            others
        }
    })
}

/// Latency statistics are taken per window of this many seconds and
/// reported as their median over the rung's windows, so one host hiccup
/// moves one window, not the rung.
const WINDOW_S: f64 = 1.0;

/// One rung's requests.
struct Rung {
    rate: f64,
    seconds: f64,
    samples: Vec<Sample>,
}

/// Per-route client latency p50/p99 from `(route, ms)` samples; routes
/// without samples are left unset.
pub fn route_metrics(report: &mut Report, samples: &[(Kind, f64)]) {
    for kind in Kind::ALL {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, ms)| ms)
            .collect();
        if ms.is_empty() {
            continue;
        }
        let (n50, n99) = match kind {
            Kind::SubmitWarm => ("serve.submit_warm_p50_ms", "serve.submit_warm_p99_ms"),
            Kind::SubmitCold => ("serve.submit_cold_p50_ms", "serve.submit_cold_p99_ms"),
            Kind::Status => ("serve.status_p50_ms", "serve.status_p99_ms"),
            Kind::Results => ("serve.results_p50_ms", "serve.results_p99_ms"),
            Kind::Metrics => ("serve.metrics_p50_ms", "serve.metrics_p99_ms"),
        };
        report.set(n50, median(&ms));
        report.set(n99, nearest_rank(&sorted(&ms), 99.0));
    }
}

struct RungSummary {
    achieved: f64,
    p50_ms: f64,
    p99_ms: f64,
    tail_ms: f64,
    tail_p: f64,
    lag_p99_ms: f64,
    failed: usize,
    sustained: bool,
}

impl Rung {
    /// Per-window statistics, medianed over the windows. A rung is
    /// sustained when nothing failed, its p99 is within the limit, and the
    /// backlog did not grow: the last window's median is within the limit.
    fn summary(&self) -> RungSummary {
        let windows = ((self.seconds / WINDOW_S).floor() as usize).max(1);
        let mut per: Vec<Vec<&Sample>> = vec![Vec::new(); windows];
        for s in &self.samples {
            let w = ((s.due_s / self.seconds * windows as f64) as usize).min(windows - 1);
            per[w].push(s);
        }
        let per: Vec<Vec<&Sample>> = per.into_iter().filter(|w| !w.is_empty()).collect();
        let stat = |f: &dyn Fn(&[f64]) -> f64, field: &dyn Fn(&Sample) -> f64| {
            let values: Vec<f64> = per
                .iter()
                .map(|w| f(&w.iter().map(|s| field(s)).collect::<Vec<f64>>()))
                .collect();
            median(&values)
        };
        let latency = |s: &Sample| s.latency_ms;
        let p99 = |xs: &[f64]| nearest_rank(&sorted(xs), 99.0);
        let failed = self.samples.iter().filter(|s| !s.ok).count();
        let tail_p = tail(&per[0].iter().map(|s| s.latency_ms).collect::<Vec<_>>()).0;
        let last_p50 = per.last().map_or(0.0, |w| {
            median(&w.iter().map(|s| s.latency_ms).collect::<Vec<_>>())
        });
        let p99_ms = stat(&p99, &latency);
        let span_s = self.samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
        RungSummary {
            achieved: (self.samples.len() - failed) as f64 / span_s.max(f64::MIN_POSITIVE),
            p50_ms: stat(&median, &latency),
            p99_ms,
            tail_ms: stat(&|xs| tail(xs).1, &latency),
            tail_p,
            lag_p99_ms: stat(&p99, &|s| s.lag_ms),
            failed,
            sustained: failed == 0 && p99_ms <= TAIL_LIMIT_MS && last_p50 <= TAIL_LIMIT_MS,
        }
    }
}

#[derive(Clone, Copy)]
struct RungCtx<'a> {
    addr: &'a str,
    seed: u64,
    expected_warm: &'a [u8],
    shared: &'a Mutex<Shared>,
    tracer: Option<&'a Tracer>,
}

/// Run one rung: `CONNECTIONS` senders share the open-loop schedule at
/// `rate`; sender 0 also sends the cold submits at [`COLD_PER_S`].
fn run_rung(ctx: &RungCtx<'_>, rate: f64, seconds: f64) -> Rung {
    let plan = OpenLoop {
        rate,
        senders: CONNECTIONS,
    };
    let cold = OpenLoop {
        rate: COLD_PER_S,
        senders: 1,
    };
    let horizon = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let senders: Vec<_> = (0..CONNECTIONS)
            .map(|s| {
                scope.spawn(move || {
                    let mut conn = Conn::new(ctx.addr);
                    let mut out = Vec::new();
                    let mut colds = cold.requests_of(0, horizon).peekable();
                    for j in plan.requests_of(s, horizon) {
                        let due = plan.due(j);
                        while s == 0 && colds.peek().is_some_and(|&c| cold.due(c) <= due) {
                            let c = colds.next().expect("peeked");
                            out.push(send(ctx, &mut conn, start, cold.due(c), Kind::SubmitCold));
                        }
                        out.push(send(ctx, &mut conn, start, due, kind_of(j)));
                    }
                    out
                })
            })
            .collect();
        let samples = senders
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect();
        Rung {
            rate,
            seconds,
            samples,
        }
    })
}

/// Wait for `due`, send one request of `kind`, and record how it went.
fn send(ctx: &RungCtx<'_>, conn: &mut Conn, start: Instant, due: Duration, kind: Kind) -> Sample {
    let due_at = start + due;
    let now = Instant::now();
    if due_at > now {
        std::thread::sleep(due_at - now);
    }
    let sent = start.elapsed();
    let span_start = ctx.tracer.map_or(0, Tracer::now_ns);
    let (ok, refused) = match issue(ctx, conn, kind, due_at) {
        Ok(()) => (true, false),
        Err(status) => (false, status == Some(409)),
    };
    let done = start.elapsed();
    if let Some(t) = ctx.tracer {
        let id = t.new_id();
        t.record(Span {
            id,
            parent: 0,
            group: id,
            name: kind.span(),
            start_ns: span_start,
            end_ns: t.now_ns(),
        });
    }
    Sample {
        kind,
        latency_ms: if ok {
            done.saturating_sub(due).as_secs_f64() * 1e3
        } else {
            REQUEST_TIMEOUT.as_secs_f64() * 1e3
        },
        lag_ms: lateness(due, sent).as_secs_f64() * 1e3,
        ok,
        refused,
        due_s: due.as_secs_f64(),
        done_s: done.as_secs_f64(),
    }
}

/// One request; `Err` carries the HTTP status of a failure (None when the
/// transport failed).
fn issue(
    ctx: &RungCtx<'_>,
    conn: &mut Conn,
    kind: Kind,
    due_at: Instant,
) -> Result<(), Option<u16>> {
    let lock = || ctx.shared.lock().expect("shared state");
    let expect = |status: u16, want: u16| {
        if status == want {
            Ok(())
        } else {
            Err(Some(status))
        }
    };
    match kind {
        Kind::SubmitWarm => {
            let resp = conn
                .post("/runs", &submission(mix(&[ctx.seed, 0x3A53])))
                .map_err(|_| None)?;
            expect(resp.status, 201)?;
            let id = job_id(resp.text()).ok_or(Some(resp.status))?;
            lock().latest_warm = id;
            Ok(())
        }
        Kind::SubmitCold => {
            let seed = {
                let mut s = lock();
                s.cold_issued += 1;
                mix(&[ctx.seed, 0xC01D, s.cold_issued])
            };
            let resp = conn.post("/runs", &submission(seed)).map_err(|_| None)?;
            expect(resp.status, 201)?;
            let id = job_id(resp.text()).ok_or(Some(resp.status))?;
            lock().cold_outstanding.push_back(ColdJob {
                id,
                seed,
                due: due_at,
                done_ms: None,
                digest: None,
            });
            Ok(())
        }
        Kind::Status => {
            let (id, cold) = {
                let mut s = lock();
                s.poll_turn += 1;
                match s.cold_outstanding.front() {
                    Some(job) if s.poll_turn % 2 == 0 => (job.id.clone(), true),
                    _ => (s.latest_warm.clone(), false),
                }
            };
            let resp = conn.get(&format!("/runs/{id}")).map_err(|_| None)?;
            expect(resp.status, 200)?;
            match job_state(resp.text()) {
                "done" => {
                    let mut s = lock();
                    if cold {
                        if let Some(pos) = s.cold_outstanding.iter().position(|j| j.id == id) {
                            let mut job = s.cold_outstanding.remove(pos).expect("found");
                            job.done_ms = Some(job.due.elapsed().as_secs_f64() * 1e3);
                            s.cold_ready.push_back(job);
                        }
                    } else {
                        s.latest_warm_done = id;
                    }
                    Ok(())
                }
                "queued" | "running" => Ok(()),
                _ => Err(Some(resp.status)),
            }
        }
        Kind::Results => {
            let (cold, id) = {
                let mut s = lock();
                match s.cold_ready.pop_front() {
                    Some(job) => {
                        let id = job.id.clone();
                        (Some(job), id)
                    }
                    None => (None, s.latest_warm_done.clone()),
                }
            };
            let resp = conn.get(&format!("/runs/{id}/results")).map_err(|_| None);
            let mut s = lock();
            match (resp, cold) {
                (Ok(resp), Some(mut job)) => {
                    job.digest = (resp.status == 200).then(|| fnv1a(&resp.body));
                    s.cold_fetched.push(job);
                    expect(resp.status, 200)
                }
                (Ok(resp), None) => {
                    if resp.status == 200 && resp.body != ctx.expected_warm {
                        s.bad_results += 1;
                    }
                    expect(resp.status, 200)
                }
                (Err(e), Some(job)) => {
                    s.cold_ready.push_front(job);
                    Err(e)
                }
                (Err(e), None) => Err(e),
            }
        }
        Kind::Metrics => {
            let resp = conn.get("/metrics").map_err(|_| None)?;
            expect(resp.status, 200)?;
            if ctx.tracer.is_some() {
                let depth = scrape_one(resp.text(), "disp_queue_depth").unwrap_or(0.0);
                let mut s = lock();
                s.queue_depth_max = s.queue_depth_max.max(depth);
            }
            Ok(())
        }
    }
}

/// After the ladder: poll every cold job still outstanding until done and
/// fetch every result not yet fetched.
fn finish_cold_jobs(conn: &mut Conn, shared: &Mutex<Shared>) -> Result<(), String> {
    let mut s = shared.lock().expect("shared state");
    let deadline = Instant::now() + Duration::from_secs(60);
    while let Some(mut job) = s.cold_outstanding.pop_front() {
        loop {
            let resp = conn.get(&format!("/runs/{}", job.id))?;
            match job_state(resp.text()) {
                "done" => break,
                "queued" | "running" if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                other => return Err(format!("cold job {} is {other}", job.id)),
            }
        }
        job.done_ms = Some(job.due.elapsed().as_secs_f64() * 1e3);
        s.cold_ready.push_back(job);
    }
    while let Some(mut job) = s.cold_ready.pop_front() {
        let resp = conn.get(&format!("/runs/{}/results", job.id))?;
        job.digest = (resp.status == 200).then(|| fnv1a(&resp.body));
        s.cold_fetched.push(job);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_two_six_six_two() {
        let count = |k| (0..16).filter(|&j| kind_of(j) == k).count();
        assert_eq!(count(Kind::SubmitWarm), 2);
        assert_eq!(count(Kind::Status), 6);
        assert_eq!(count(Kind::Results), 6);
        assert_eq!(count(Kind::Metrics), 2);
        assert_eq!(count(Kind::SubmitCold), 0);
    }

    #[test]
    fn open_loop_spaces_requests_at_the_rate_and_splits_them_across_senders() {
        let plan = OpenLoop {
            rate: 1000.0,
            senders: 2,
        };
        assert_eq!(plan.due(0), Duration::ZERO);
        assert_eq!(plan.due(1500), Duration::from_millis(1500));
        let horizon = Duration::from_millis(10);
        let a: Vec<u64> = plan.requests_of(0, horizon).collect();
        let b: Vec<u64> = plan.requests_of(1, horizon).collect();
        assert_eq!(a, vec![0, 2, 4, 6, 8]);
        assert_eq!(b, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn lateness_counts_only_late_sends() {
        let due = Duration::from_millis(10);
        assert_eq!(lateness(due, Duration::from_millis(9)), Duration::ZERO);
        assert_eq!(
            lateness(due, Duration::from_millis(13)),
            Duration::from_millis(3)
        );
    }

    #[test]
    fn a_rung_with_a_failure_or_a_slow_tail_is_not_sustained() {
        let sample = |latency_ms: f64, ok: bool, due_s: f64| Sample {
            kind: Kind::Status,
            latency_ms,
            lag_ms: 0.0,
            ok,
            refused: false,
            due_s,
            done_s: due_s + latency_ms / 1e3,
        };
        let rung = |samples: Vec<Sample>| Rung {
            rate: 100.0,
            seconds: 2.0,
            samples,
        };
        let fast: Vec<Sample> = (0..200)
            .map(|i| sample(0.5, true, i as f64 / 100.0))
            .collect();
        let r = rung(fast.clone()).summary();
        assert!(r.sustained);
        assert!((r.achieved - 200.0 / 1.9905).abs() < 1e-9);
        assert_eq!((r.p50_ms, r.p99_ms), (0.5, 0.5));
        let mut failing = fast.clone();
        failing[3] = sample(10_000.0, false, 0.03);
        assert!(!rung(failing).summary().sustained);
        let slow: Vec<Sample> = (0..200)
            .map(|i| sample(6.0, true, i as f64 / 100.0))
            .collect();
        assert!(!rung(slow).summary().sustained);
        // One slow window out of three moves the medianed p99 not at all.
        let mut hiccup = fast.clone();
        hiccup.extend((0..100).map(|i| sample(50.0, true, 2.0 + i as f64 / 100.0)));
        let r = Rung {
            rate: 100.0,
            seconds: 3.0,
            samples: hiccup,
        }
        .summary();
        assert_eq!(r.p99_ms, 0.5);
    }

    #[test]
    fn the_reporting_rung_gets_its_share() {
        let plan = rung_seconds(20.0);
        let at = LADDER.iter().position(|&r| r == REPORT_RATE).unwrap();
        assert!((plan[at] - 8.0).abs() < 1e-9);
        assert!((plan.iter().sum::<f64>() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn job_fields_are_read_from_the_json_bodies() {
        let body = r#"{"id":"r-17","state":"queued","total":24}"#;
        assert_eq!(job_id(body).as_deref(), Some("r-17"));
        assert_eq!(job_state(body), "queued");
        assert_eq!(job_state("{}"), "?");
    }
}
