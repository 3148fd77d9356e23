//! End-to-end cluster tests: boot a coordinator on an ephemeral port, run
//! real worker loops against it over real sockets, and check the claims
//! the subsystem makes:
//!
//! 1. **Sharded determinism** — a grid executed by four workers (batches
//!    of one, interleaved arbitrarily) streams JSONL byte-identical to an
//!    offline `disp-campaign` run of the same grid.
//! 2. **Crash recovery** — a worker that leases a batch and dies without
//!    completing it (simulated SIGKILL: no heartbeat, no upload) delays
//!    nothing but its own lease TTL; the batch is requeued, re-executed,
//!    and the bytes still match.
//! 3. **Cache-tier reconciliation** — with the coordinator's shared cache
//!    squeezed to one entry, a resubmitted grid is served from the
//!    worker's *local* cache via the digest handshake, byte-identical,
//!    without re-executing a single trial.
//! 4. **Long-poll leases** — idle workers block on the coordinator, yet
//!    neither starve other clients of HTTP workers nor hold up a drain.

use disp_analysis::json::Json;
use disp_analysis::TrialRecord;
use disp_campaign::grid::{CampaignSpec, Mode};
use disp_campaign::run::run_campaign;
use disp_cluster::{
    Coordinator, LeaseReply, WorkerConfig, WorkerShared, WorkerStats, WorkerSummary,
};
use disp_core::scenario::{Registry, ScenarioSpec};
use disp_serve::cache::CacheBudget;
use disp_serve::cluster::HttpCoordinator;
use disp_serve::{parse_metric, Client, CoordinatorConfig, ServeConfig, Server};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn mini_labels() -> Vec<String> {
    let spec = CampaignSpec::mini(Mode::Quick, 0);
    spec.sections
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.point_id()))
        .collect()
}

fn mini_submission(seed: u64) -> Json {
    Json::Obj(vec![
        (
            "scenarios".into(),
            Json::Arr(mini_labels().into_iter().map(Json::Str).collect()),
        ),
        ("reps".into(), Json::Num(2.0)),
        ("seed".into(), Json::from_u64_lossless(seed)),
    ])
}

/// What `disp-campaign run` would produce offline for the same grid.
fn offline_jsonl(seed: u64) -> String {
    let scenarios: Vec<ScenarioSpec> = mini_labels()
        .iter()
        .map(|l| ScenarioSpec::from_label(l).unwrap())
        .collect();
    let spec = CampaignSpec::custom(scenarios, 2, seed);
    let (records, _) = run_campaign(&spec, None, 1, &Registry::builtin()).unwrap();
    let mut out = String::new();
    for rec in &records {
        out.push_str(&TrialRecord::to_json_line(rec));
        out.push('\n');
    }
    out
}

fn submit(client: &mut Client, seed: u64) -> String {
    let resp = client.post_json("/runs", &mini_submission(seed)).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    resp.json()
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

fn wait_done(client: &mut Client, id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let doc = client.get(&format!("/runs/{id}")).unwrap().json().unwrap();
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => return doc,
            Some("queued") | Some("running") => {
                assert!(
                    Instant::now() < deadline,
                    "run {id} never finished: {doc:?}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("run {id} ended in {other:?}"),
        }
    }
}

fn metric(client: &mut Client, name: &str) -> u64 {
    let body = client.get("/metrics").unwrap().text();
    parse_metric(&body, name).unwrap_or_else(|| panic!("metric {name} missing"))
}

/// A worker loop's stop handle and thread.
type WorkerHandle = (Arc<WorkerShared>, JoinHandle<Result<WorkerSummary, String>>);

/// A real worker loop on a thread; stopped via its `WorkerShared`.
fn spawn_worker(addr: &str, id: &str) -> WorkerHandle {
    let shared = WorkerShared::new();
    let handle = {
        let addr = addr.to_string();
        let cfg = WorkerConfig {
            id: id.to_string(),
            threads: 1,
        };
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || disp_serve::run_worker(&addr, &cfg, None, &shared))
    };
    (shared, handle)
}

#[test]
fn four_workers_shard_a_grid_byte_identically_even_through_a_worker_crash() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            http_threads: 4,
            coordinator: Some(CoordinatorConfig {
                batch_size: 1,
                lease_ttl: Duration::from_millis(1500),
            }),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let expected = offline_jsonl(7);
    let total = 2 * mini_labels().len() as u64;

    let mut client = Client::new(&addr);
    let id = submit(&mut client, 7);

    // A "worker" that leases one batch and dies without heartbeating or
    // completing — the observable behaviour of SIGKILL mid-batch. Leasing
    // happens *before* the healthy workers start, so the crash is
    // guaranteed to be in the execution path, not a lucky miss.
    let crashed_batch = {
        let mut transport = HttpCoordinator::new(&addr);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match transport.lease("crasher", WorkerStats::default()).unwrap() {
                LeaseReply::Batch(a) => break a,
                _ => {
                    assert!(Instant::now() < deadline, "job never published a batch");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    };

    let workers: Vec<_> = (1..=4)
        .map(|i| spawn_worker(&addr, &format!("w{i}")))
        .collect();

    wait_done(&mut client, &id);
    let results = client.get(&format!("/runs/{id}/results")).unwrap();
    assert_eq!(results.status, 200);
    assert_eq!(
        results.text(),
        expected,
        "cluster results differ from the offline run"
    );

    // The crasher's lease expired and its batch was re-executed: recovery
    // is visible in the metrics, and no trial ran twice *observably* (a
    // stale late completion would be dropped, not double-counted).
    assert!(metric(&mut client, "disp_leases_expired_total") >= 1);
    assert_eq!(metric(&mut client, "disp_trials_executed_total"), total);
    let body = client.get("/metrics").unwrap().text();
    assert!(
        body.contains("disp_cluster_worker_trials_total{worker=\"w"),
        "per-worker trial gauges missing:\n{body}"
    );

    // The event stream tagged completions with the executing worker.
    let events = client.get(&format!("/runs/{id}/events")).unwrap().text();
    assert!(
        events.contains("\"worker\":\"w"),
        "no worker-tagged completion events:\n{events}"
    );

    // Workers drain cleanly; between them they uploaded the whole grid
    // (the crasher uploaded nothing).
    let mut uploaded = 0;
    for (shared, handle) in workers {
        shared.request_stop();
        let summary = handle.join().unwrap().unwrap();
        uploaded += summary.uploaded;
    }
    assert_eq!(uploaded, total, "workers uploaded a different trial count");
    assert_eq!(metric(&mut client, "disp_cluster_workers_busy"), 0);
    assert_eq!(metric(&mut client, "disp_leases_active"), 0);
    server.shutdown();

    // The crashed batch really was a grid batch (sanity on the setup).
    assert_eq!(crashed_batch.slots.len(), 1);
}

#[test]
fn a_squeezed_shared_cache_is_refilled_from_worker_caches_not_re_execution() {
    // One entry of shared cache: after the first run, the coordinator has
    // forgotten nearly everything and only the worker's local cache still
    // holds the records.
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            http_threads: 2,
            cache_budget: CacheBudget {
                max_entries: 1,
                ..CacheBudget::default()
            },
            coordinator: Some(CoordinatorConfig {
                batch_size: 4,
                lease_ttl: Duration::from_secs(10),
            }),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let expected = offline_jsonl(7);
    let total = 2 * mini_labels().len() as u64;

    // A single worker, so its local cache provably covers the whole grid.
    let (shared, handle) = spawn_worker(&addr, "w1");
    let mut client = Client::new(&addr);

    let first = submit(&mut client, 7);
    wait_done(&mut client, &first);
    assert_eq!(
        client
            .get(&format!("/runs/{first}/results"))
            .unwrap()
            .text(),
        expected
    );
    assert_eq!(metric(&mut client, "disp_trials_executed_total"), total);
    assert!(metric(&mut client, "disp_cache_evictions_total") > 0);
    assert_eq!(metric(&mut client, "disp_cache_entries"), 1);

    // Resubmission: the digest handshake finds the coordinator's job store
    // empty, the worker answers from its local cache (zero wall time), and
    // the executed-trials counter does not move at all.
    let second = submit(&mut client, 7);
    let status = wait_done(&mut client, &second);
    assert_eq!(
        client
            .get(&format!("/runs/{second}/results"))
            .unwrap()
            .text(),
        expected
    );
    assert_eq!(metric(&mut client, "disp_trials_executed_total"), total);
    assert_eq!(status.get("executed").and_then(Json::as_u64), Some(0));

    shared.request_stop();
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.executed, total, "first run executed every trial");
    assert!(
        summary.local_hits >= total - 1,
        "second run should have been local cache hits, got {}",
        summary.local_hits
    );
    server.shutdown();
}

/// Wait up to `limit` for `handle` to finish, then join it.
fn join_within<T>(handle: JoinHandle<T>, limit: Duration, what: &str) -> T {
    let deadline = Instant::now() + limit;
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "{what} still running after {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().unwrap()
}

/// Start a coordinator and wait until `workers` idle workers are polling it.
fn coordinator_with_idle_workers(
    http_threads: usize,
    workers: usize,
) -> (Server, Vec<WorkerHandle>) {
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            http_threads,
            coordinator: Some(CoordinatorConfig::default()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let spawned: Vec<_> = (1..=workers)
        .map(|i| spawn_worker(&addr, &format!("w{i}")))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.state().cluster.as_ref().unwrap().stats().workers < workers {
        assert!(Instant::now() < deadline, "workers never reached the board");
        std::thread::sleep(Duration::from_millis(10));
    }
    (server, spawned)
}

#[test]
fn a_coordinator_with_long_polling_workers_drains_promptly() {
    let (server, workers) = coordinator_with_idle_workers(4, 2);
    let began = Instant::now();
    server.shutdown();
    assert!(
        began.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        began.elapsed()
    );
    // The blocked leases answered `Draining`: both loops end on their
    // own, without a stop request.
    for (_, handle) in workers {
        let summary = join_within(handle, Duration::from_secs(5), "worker")
            .expect("worker loop exits cleanly");
        assert_eq!(summary, WorkerSummary::default());
    }
}

#[test]
fn long_polling_workers_do_not_starve_other_clients() {
    // One HTTP worker, held by an idle worker's long-poll: a client that
    // connects meanwhile is served once the poll returns.
    let (server, workers) = coordinator_with_idle_workers(1, 1);
    let addr = server.addr().to_string();
    let probe = std::thread::spawn(move || Client::new(&addr).get("/healthz").map(|r| r.status));
    assert_eq!(
        join_within(probe, Duration::from_secs(5), "health probe"),
        Ok(200)
    );
    for (shared, handle) in workers {
        shared.request_stop();
        join_within(handle, Duration::from_secs(5), "worker").unwrap();
    }
    server.shutdown();
}
