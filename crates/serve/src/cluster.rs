//! The HTTP side of coordinator/worker mode.
//!
//! `disp-cluster` keeps the protocol (`proto`), the scheduling state
//! (`board`) and the worker loop transport-agnostic; this module supplies
//! the two HTTP halves:
//!
//! * `handle_internal` — the coordinator's `/internal/*` endpoint
//!   handlers, routed from [`crate::server`]. `complete` is where worker
//!   results enter the shared cache tier and the submitting job's
//!   telemetry stream (worker-tagged `trial_completed` events).
//! * [`HttpCoordinator`] + [`run_worker`] — the worker process: the
//!   [`Coordinator`] transport over [`crate::client::Client`] (batch
//!   uploads use chunked request bodies) and the process runner that wires
//!   a local cache, the heartbeat thread and the worker loop together.

use crate::cache::TrialCache;
use crate::client::Client;
use crate::metrics::Metrics;
use crate::server::AppState;
use disp_analysis::json::Json;
use disp_campaign::telemetry::TrialEvent;
use disp_cluster::board::LEASE_WAIT;
use disp_cluster::proto::{
    decode_complete_body, decode_reconcile, decode_worker_ref, encode_complete_body,
    encode_reconcile, encode_worker_ref, CompleteHeader, CompleteReply, LeaseReply, ReconcileReply,
    Upload,
};
use disp_cluster::{Coordinator, WorkerConfig, WorkerShared, WorkerStats, WorkerSummary};
use disp_core::scenario::Registry;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn error_body(message: &str) -> Vec<u8> {
    Json::Obj(vec![("error".into(), Json::Str(message.into()))])
        .to_string_compact()
        .into_bytes()
}

/// Handle one `POST /internal/<cmd>` request; returns `(status, body)`.
///
/// Answers 404 unless this server was started as a coordinator. A lease
/// with no work pending blocks on the board for up to [`LEASE_WAIT`].
/// During shutdown, leases answer `Draining` (workers exit cleanly) and
/// heartbeats answer `ok: false` (in-flight batches are abandoned; their
/// trials stay in the workers' local caches for the next run).
pub(crate) fn handle_internal(
    state: &AppState,
    shutdown: &AtomicBool,
    cmd: &str,
    body: &[u8],
) -> (u16, Vec<u8>) {
    let Some(board) = &state.cluster else {
        return (404, error_body("this server is not a coordinator"));
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return (400, error_body("body is not UTF-8"));
    };
    match cmd {
        "lease" => match decode_worker_ref(text) {
            Ok((worker, _, stats)) => {
                if let Some(stats) = stats {
                    board.note_worker_stats(&worker, stats);
                }
                let reply = board.lease(&worker, LEASE_WAIT);
                (200, reply.encode().into_bytes())
            }
            Err(e) => (400, error_body(&e)),
        },
        "heartbeat" => match decode_worker_ref(text) {
            Ok((worker, Some((job, batch)), stats)) => {
                if let Some(stats) = stats {
                    board.note_worker_stats(&worker, stats);
                }
                let ok = !shutdown.load(Ordering::SeqCst) && board.heartbeat(&worker, &job, batch);
                let body = Json::Obj(vec![("ok".into(), Json::Bool(ok))])
                    .to_string_compact()
                    .into_bytes();
                (200, body)
            }
            Ok((_, None, _)) => (400, error_body("heartbeat needs job and batch")),
            Err(e) => (400, error_body(&e)),
        },
        "reconcile" => match decode_reconcile(text) {
            Ok((worker, job, batch, digests)) => {
                let reply = board.reconcile(&worker, &job, batch, &digests);
                (200, reply.encode().into_bytes())
            }
            Err(e) => (400, error_body(&e)),
        },
        "complete" => match decode_complete_body(text) {
            Ok((header, uploads)) => {
                match board.complete(&header.worker, &header.job, header.batch, &uploads) {
                    Ok(reply) => {
                        if !reply.stale {
                            absorb_uploads(state, &header, &uploads);
                        }
                        (200, reply.encode().into_bytes())
                    }
                    // A broken upload (wrong identity, uncovered slot) is
                    // the worker's bug; the lease stays live for a retry.
                    Err(e) => (400, error_body(&e)),
                }
            }
            Err(e) => (400, error_body(&e)),
        },
        _ => (404, error_body("no such endpoint")),
    }
}

/// Fold an accepted batch completion into the shared cache tier, the
/// submitting job's progress counters and its live event stream.
fn absorb_uploads(state: &AppState, header: &CompleteHeader, uploads: &[Upload]) {
    let job = state.manager.get(&header.job);
    for u in uploads {
        state.cache.insert(&u.record);
        let Some(job) = &job else { continue };
        if u.cached {
            // Served from the worker's local cache: a hit, tagged as such.
            job.record_trial_event(&TrialEvent::cached(&u.record));
            job.note_cluster_trial(false);
        } else {
            job.record_trial_event(&TrialEvent::completed_by(
                &u.record,
                u.wall_micros,
                &header.worker,
            ));
            job.note_cluster_trial(true);
            Metrics::inc(&state.metrics.trials_executed);
            state.metrics.trial_duration_us.observe(u.wall_micros);
        }
    }
}

/// The worker's [`Coordinator`] transport: the protocol over the same
/// keep-alive HTTP client `disp-load` uses. Batch uploads go out as
/// chunked request bodies ([`Client::post_chunked`]).
#[derive(Debug)]
pub struct HttpCoordinator {
    client: Client,
}

impl HttpCoordinator {
    /// A transport to the coordinator at `addr` (`host:port`).
    pub fn new(addr: &str) -> HttpCoordinator {
        HttpCoordinator {
            client: Client::new(addr),
        }
    }

    fn post(&mut self, path: &str, body: String) -> Result<String, String> {
        let resp = self.client.request("POST", path, Some(body.into_bytes()))?;
        if resp.status != 200 {
            return Err(format!("{path}: HTTP {}: {}", resp.status, resp.text()));
        }
        Ok(resp.text())
    }
}

impl Coordinator for HttpCoordinator {
    fn lease(&mut self, worker: &str, stats: WorkerStats) -> Result<LeaseReply, String> {
        let body = self.post(
            "/internal/lease",
            encode_worker_ref(worker, None, Some(stats)),
        )?;
        LeaseReply::decode(&body)
    }

    fn heartbeat(
        &mut self,
        worker: &str,
        job: &str,
        batch: u64,
        stats: WorkerStats,
    ) -> Result<bool, String> {
        let body = self.post(
            "/internal/heartbeat",
            encode_worker_ref(worker, Some((job, batch)), Some(stats)),
        )?;
        Json::parse(body.trim())?
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| "heartbeat reply: missing ok".to_string())
    }

    fn reconcile(
        &mut self,
        worker: &str,
        job: &str,
        batch: u64,
        digests: &[Option<u64>],
    ) -> Result<ReconcileReply, String> {
        let body = self.post(
            "/internal/reconcile",
            encode_reconcile(worker, job, batch, digests),
        )?;
        ReconcileReply::decode(&body)
    }

    fn complete(
        &mut self,
        header: &CompleteHeader,
        uploads: &[Upload],
    ) -> Result<CompleteReply, String> {
        let body = encode_complete_body(header, uploads);
        let resp = self
            .client
            .post_chunked("/internal/complete", body.as_bytes())?;
        if resp.status != 200 {
            return Err(format!(
                "/internal/complete: HTTP {}: {}",
                resp.status,
                resp.text()
            ));
        }
        CompleteReply::decode(&resp.text())
    }
}

/// Run a worker against the coordinator at `addr` until `shared` is asked
/// to stop (SIGTERM) or the coordinator drains, keeping its local cache in
/// `cache_dir` (`None` = in-memory). The heartbeat thread gets its own
/// connection so a long-running batch cannot starve its lease.
pub fn run_worker(
    addr: &str,
    cfg: &WorkerConfig,
    cache_dir: Option<&Path>,
    shared: &Arc<WorkerShared>,
) -> Result<WorkerSummary, String> {
    let cache = match cache_dir {
        Some(dir) => TrialCache::open(dir)?,
        None => TrialCache::in_memory(),
    };
    let registry = Registry::builtin();
    let mut transport = HttpCoordinator::new(addr);
    let heartbeat = {
        let mut transport = HttpCoordinator::new(addr);
        let shared = Arc::clone(shared);
        let worker = cfg.id.clone();
        std::thread::spawn(move || {
            disp_cluster::worker::heartbeat_loop(&mut transport, &shared, &worker)
        })
    };
    let result =
        disp_cluster::worker::run_worker_loop(&mut transport, &cache, &registry, cfg, shared);
    // End the heartbeat thread whether the loop drained or errored.
    shared.request_stop();
    let _ = heartbeat.join();
    result
}
