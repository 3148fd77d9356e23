//! The coordinator's lease board.
//!
//! The board owns the cluster's scheduling state: which batches are
//! pending, which are leased (and until when), which are done, and the
//! records uploaded for each job. Workers *pull* — the board never pushes
//! work — so load balance falls out of scheduling, and a worker that dies
//! simply stops heartbeating: its lease expires and the batch returns to
//! the pending queue to be re-executed by someone else. Nothing is lost,
//! because batches are content-addressed and re-execution is
//! deterministic.
//!
//! Uploaded records are held per job (not only in the shared cache) so
//! result assembly cannot be broken by cache eviction: the job store is
//! bounded by the job's own grid — exactly the memory the local executor
//! would have used — and is dropped when the job settles.
//!
//! The digest handshake doubles as a *production determinism check*: when
//! a batch is executed twice (lease expiry + requeue), the second worker's
//! reconcile digests are compared against the first worker's stored
//! records. A mismatch means two workers disagreed on the bytes of the
//! same seeded trial — the one invariant the whole system rests on — and
//! fails the job loudly rather than silently shipping either version.

use crate::proto::{
    line_digest, BatchAssignment, CompleteReply, LeaseReply, ReconcileReply, SlotSpec, Upload,
    WorkerStats,
};
use disp_analysis::TrialRecord;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Workers not heard from within this window drop out of the
/// `cluster_workers` gauge (they are never forgotten for accounting).
const WORKER_VISIBLE: Duration = Duration::from_secs(10);

/// How long an idle lease blocks on the board for work before answering
/// `Idle`; also the `retry_ms` that answer carries.
pub const LEASE_WAIT: Duration = Duration::from_millis(200);

/// Content identity of a slot — the key of a job's record store.
type SlotKey = (String, usize, u64);

fn slot_key(s: &SlotSpec) -> SlotKey {
    (s.label.clone(), s.rep, s.seed)
}

fn record_key(r: &TrialRecord) -> SlotKey {
    (r.point.point_id(), r.rep, r.seed)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Pending,
    Leased { worker: String, deadline: Instant },
    Done,
}

#[derive(Debug)]
struct BatchEntry {
    slots: Vec<SlotSpec>,
    phase: Phase,
}

#[derive(Debug)]
struct JobShards {
    batches: Vec<BatchEntry>,
    /// Batches not yet `Done`.
    remaining: usize,
    /// Set on a digest conflict; terminal.
    failed: Option<String>,
    /// Uploaded records, keyed by slot content identity. The raw line is
    /// kept alongside for digest verification.
    records: HashMap<SlotKey, (TrialRecord, String)>,
}

#[derive(Debug)]
struct WorkerInfo {
    last_seen: Instant,
    trials_done: u64,
    /// Latest cumulative counter snapshot the worker piggybacked on a
    /// lease or heartbeat (zero until one arrives).
    stats: WorkerStats,
}

#[derive(Debug, Default)]
struct Inner {
    jobs: HashMap<String, JobShards>,
    /// `(job, batch)` hand-out queue, grid order; entries are lazily
    /// skipped when their batch is no longer pending.
    pending: VecDeque<(String, u64)>,
    workers: HashMap<String, WorkerInfo>,
    leases_expired: u64,
    /// Set by [`ClusterBoard::drain`]; every lease answers `Draining`.
    draining: bool,
}

/// What `wait` observed about a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitStatus {
    /// Every batch is done.
    Done,
    /// The job failed (digest conflict — a determinism violation).
    Failed(String),
    /// Still in flight.
    Waiting,
}

/// Point-in-time board statistics for `/metrics`.
#[derive(Debug, Clone, Default)]
pub struct BoardStats {
    /// Workers heard from in the last visibility window.
    pub workers: usize,
    /// Of those, workers currently holding at least one lease.
    pub workers_busy: usize,
    /// Batches currently leased.
    pub leases_active: usize,
    /// Leases that expired and were requeued, ever.
    pub leases_expired: u64,
    /// Trials uploaded per worker (name-sorted), ever.
    pub per_worker_trials: Vec<(String, u64)>,
    /// Fleet-wide totals: the sum of every worker's latest piggybacked
    /// counter snapshot (workers that never sent one contribute zeros).
    pub fleet: WorkerStats,
}

/// The coordinator's scheduling state. All methods are `&self`; the board
/// is shared between the HTTP handlers and the job executor.
#[derive(Debug)]
pub struct ClusterBoard {
    inner: Mutex<Inner>,
    cv: Condvar,
    lease_ttl: Duration,
}

impl ClusterBoard {
    /// A board whose leases expire after `lease_ttl` without a heartbeat.
    pub fn new(lease_ttl: Duration) -> ClusterBoard {
        ClusterBoard {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            lease_ttl,
        }
    }

    /// Publish a job's shard plan; its batches become leasable immediately.
    pub fn publish(&self, job: &str, batches: Vec<Vec<SlotSpec>>) {
        let mut inner = self.inner.lock().unwrap();
        let entries: Vec<BatchEntry> = batches
            .into_iter()
            .map(|slots| BatchEntry {
                slots,
                phase: Phase::Pending,
            })
            .collect();
        for i in 0..entries.len() {
            inner.pending.push_back((job.to_string(), i as u64));
        }
        inner.jobs.insert(
            job.to_string(),
            JobShards {
                remaining: entries.len(),
                batches: entries,
                failed: None,
                records: HashMap::new(),
            },
        );
        self.cv.notify_all();
    }

    /// Hand the next pending batch to `worker`. With none pending, block
    /// for up to `wait` until one becomes leasable — published, or
    /// requeued when a lease expires — and answer `Idle` if none does.
    /// Once the board is [drained](ClusterBoard::drain), answer `Draining`.
    pub fn lease(&self, worker: &str, wait: Duration) -> LeaseReply {
        let give_up = Instant::now() + wait;
        let mut inner = self.inner.lock().unwrap();
        touch_worker(&mut inner, worker, Instant::now());
        loop {
            let now = Instant::now();
            let next_expiry = reap_expired(&mut inner, now);
            if inner.draining {
                return LeaseReply::Draining;
            }
            while let Some((job_id, batch_id)) = inner.pending.pop_front() {
                let Some(job) = inner.jobs.get_mut(&job_id) else {
                    continue; // withdrawn job
                };
                if job.failed.is_some() {
                    continue;
                }
                let entry = &mut job.batches[batch_id as usize];
                if entry.phase != Phase::Pending {
                    continue; // completed (or re-leased) while queued
                }
                entry.phase = Phase::Leased {
                    worker: worker.to_string(),
                    deadline: now + self.lease_ttl,
                };
                return LeaseReply::Batch(BatchAssignment {
                    job: job_id,
                    batch: batch_id,
                    lease_ms: self.lease_ttl.as_millis() as u64,
                    slots: entry.slots.clone(),
                });
            }
            if now >= give_up {
                return LeaseReply::Idle {
                    retry_ms: LEASE_WAIT.as_millis() as u64,
                };
            }
            // Wake no later than the earliest lease deadline, so an
            // expired batch is re-offered as soon as the reaper can see it.
            let until = next_expiry.map_or(give_up, |d| d.min(give_up));
            inner = self.cv.wait_timeout(inner, until - now).unwrap().0;
        }
    }

    /// Start shutting down: every lease, blocked or future, answers
    /// `Draining` so workers leave their loops.
    pub fn drain(&self) {
        self.inner.lock().unwrap().draining = true;
        self.cv.notify_all();
    }

    /// Extend `worker`'s lease on `(job, batch)`. `false` means the lease
    /// is no longer theirs (expired and requeued, job withdrawn, …) — the
    /// worker must abandon the batch.
    pub fn heartbeat(&self, worker: &str, job: &str, batch: u64) -> bool {
        let now = Instant::now();
        let mut inner = self.inner.lock().unwrap();
        reap_expired(&mut inner, now);
        touch_worker(&mut inner, worker, now);
        let Some(entry) = batch_entry(&mut inner, job, batch) else {
            return false;
        };
        match &mut entry.phase {
            Phase::Leased {
                worker: holder,
                deadline,
            } if holder == worker => {
                *deadline = now + self.lease_ttl;
                true
            }
            _ => false,
        }
    }

    /// The reconciliation handshake: `digests[i]` is the FNV digest of the
    /// record `worker` already holds for slot `i` (or `None`). The reply
    /// lists the slots the coordinator is missing. Digests of slots the
    /// coordinator *does* hold are cross-checked — a mismatch means two
    /// workers produced different bytes for the same seeded trial, which
    /// fails the job (see the module docs).
    pub fn reconcile(
        &self,
        worker: &str,
        job: &str,
        batch: u64,
        digests: &[Option<u64>],
    ) -> ReconcileReply {
        let now = Instant::now();
        let mut inner = self.inner.lock().unwrap();
        reap_expired(&mut inner, now);
        touch_worker(&mut inner, worker, now);
        let Some(shards) = inner.jobs.get_mut(job) else {
            return ReconcileReply {
                stale: true,
                missing: vec![],
            };
        };
        if shards.failed.is_some() {
            return ReconcileReply {
                stale: true,
                missing: vec![],
            };
        }
        let Some(entry) = shards.batches.get(batch as usize) else {
            return ReconcileReply {
                stale: true,
                missing: vec![],
            };
        };
        let mut missing = Vec::new();
        for (i, slot) in entry.slots.iter().enumerate() {
            match shards.records.get(&slot_key(slot)) {
                Some((_, line)) => {
                    if let Some(Some(theirs)) = digests.get(i) {
                        let ours = line_digest(line);
                        if *theirs != ours {
                            let msg = format!(
                                "determinism violation: worker {worker} holds digest \
                                 {theirs:016x} for trial {}#r{} but the cluster recorded \
                                 {ours:016x}",
                                slot.label, slot.rep
                            );
                            shards.failed = Some(msg);
                            self.cv.notify_all();
                            return ReconcileReply {
                                stale: true,
                                missing: vec![],
                            };
                        }
                    }
                }
                None => missing.push(i),
            }
        }
        if entry.phase == Phase::Done {
            // Verified (above) but already completed by someone else.
            return ReconcileReply {
                stale: true,
                missing: vec![],
            };
        }
        ReconcileReply {
            stale: false,
            missing,
        }
    }

    /// Accept a batch completion. Every batch slot must be covered by the
    /// job's record store or by `uploads`, and every upload must match its
    /// slot's content identity — otherwise the completion is rejected with
    /// an error (a broken worker must not corrupt the board). Completions
    /// of already-done batches are reported `stale` and dropped: records
    /// are content-addressed, so the race after a lease expiry is
    /// harmless.
    pub fn complete(
        &self,
        worker: &str,
        job: &str,
        batch: u64,
        uploads: &[Upload],
    ) -> Result<CompleteReply, String> {
        let now = Instant::now();
        let mut inner = self.inner.lock().unwrap();
        reap_expired(&mut inner, now);
        touch_worker(&mut inner, worker, now);
        let Some(shards) = inner.jobs.get_mut(job) else {
            return Ok(CompleteReply {
                stale: true,
                accepted: 0,
            });
        };
        let stale = shards.failed.is_some()
            || shards
                .batches
                .get(batch as usize)
                .is_none_or(|e| e.phase == Phase::Done);
        if stale {
            return Ok(CompleteReply {
                stale: true,
                accepted: 0,
            });
        }
        let entry = &shards.batches[batch as usize];
        for u in uploads {
            let slot = entry
                .slots
                .get(u.slot)
                .ok_or_else(|| format!("upload for out-of-range slot {}", u.slot))?;
            if record_key(&u.record) != slot_key(slot) {
                return Err(format!(
                    "upload for slot {} does not match its content identity \
                     (got {}#r{}, expected {}#r{})",
                    u.slot,
                    u.record.point.point_id(),
                    u.record.rep,
                    slot.label,
                    slot.rep
                ));
            }
        }
        let covered = |slot: &SlotSpec| {
            shards.records.contains_key(&slot_key(slot))
                || uploads
                    .iter()
                    .any(|u| entry.slots.get(u.slot).map(slot_key) == Some(slot_key(slot)))
        };
        if let Some(hole) = entry.slots.iter().find(|s| !covered(s)) {
            return Err(format!(
                "incomplete batch: no record for trial {}#r{}",
                hole.label, hole.rep
            ));
        }
        for u in uploads {
            shards
                .records
                .insert(record_key(&u.record), (u.record.clone(), u.line.clone()));
        }
        shards.batches[batch as usize].phase = Phase::Done;
        shards.remaining -= 1;
        if let Some(info) = inner.workers.get_mut(worker) {
            info.trials_done += uploads.len() as u64;
        }
        self.cv.notify_all();
        Ok(CompleteReply {
            stale: false,
            accepted: uploads.len(),
        })
    }

    /// Block until `timeout` for progress on `job`, reaping expired leases
    /// first, and report its state. The executor drives this in a loop so
    /// reaping happens even when no worker traffic arrives.
    pub fn wait(&self, job: &str, timeout: Duration) -> WaitStatus {
        let mut inner = self.inner.lock().unwrap();
        reap_expired(&mut inner, Instant::now());
        match job_status(&inner, job) {
            WaitStatus::Waiting => {}
            done => return done,
        }
        let (guard, _) = self.cv.wait_timeout(inner, timeout).unwrap();
        job_status(&guard, job)
    }

    /// Drain the job's uploaded records (result assembly) without removing
    /// the job.
    pub fn take_records(&self, job: &str) -> Vec<TrialRecord> {
        let mut inner = self.inner.lock().unwrap();
        inner
            .jobs
            .get_mut(job)
            .map(|s| std::mem::take(&mut s.records))
            .map(|m| m.into_values().map(|(rec, _)| rec).collect())
            .unwrap_or_default()
    }

    /// Remove a job from the board (cancelled, failed, or settled). Leased
    /// batches become stale: heartbeats answer `false` and completions are
    /// dropped.
    pub fn withdraw(&self, job: &str) {
        let mut inner = self.inner.lock().unwrap();
        inner.jobs.remove(job);
        inner.pending.retain(|(j, _)| j != job);
        self.cv.notify_all();
    }

    /// Record the counter snapshot a worker piggybacked on a lease or
    /// heartbeat body. Snapshots are cumulative, so the latest one simply
    /// replaces its predecessor.
    pub fn note_worker_stats(&self, worker: &str, stats: WorkerStats) {
        let now = Instant::now();
        let mut inner = self.inner.lock().unwrap();
        touch_worker(&mut inner, worker, now);
        if let Some(info) = inner.workers.get_mut(worker) {
            info.stats = stats;
        }
    }

    /// Point-in-time statistics for `/metrics`.
    pub fn stats(&self) -> BoardStats {
        let now = Instant::now();
        let mut inner = self.inner.lock().unwrap();
        reap_expired(&mut inner, now);
        let mut busy: Vec<&str> = Vec::new();
        let mut leases_active = 0;
        for shards in inner.jobs.values() {
            for entry in &shards.batches {
                if let Phase::Leased { worker, .. } = &entry.phase {
                    leases_active += 1;
                    busy.push(worker);
                }
            }
        }
        let visible = |info: &WorkerInfo| now.duration_since(info.last_seen) <= WORKER_VISIBLE;
        let workers = inner.workers.values().filter(|i| visible(i)).count();
        let workers_busy = inner
            .workers
            .iter()
            .filter(|(name, info)| visible(info) && busy.contains(&name.as_str()))
            .count();
        let mut per_worker_trials: Vec<(String, u64)> = inner
            .workers
            .iter()
            .map(|(name, info)| (name.clone(), info.trials_done))
            .collect();
        per_worker_trials.sort();
        let fleet = inner
            .workers
            .values()
            .fold(WorkerStats::default(), |acc, info| WorkerStats {
                executed: acc.executed + info.stats.executed,
                local_hits: acc.local_hits + info.stats.local_hits,
                uploaded: acc.uploaded + info.stats.uploaded,
                batches: acc.batches + info.stats.batches,
                abandoned: acc.abandoned + info.stats.abandoned,
            });
        BoardStats {
            workers,
            workers_busy,
            leases_active,
            leases_expired: inner.leases_expired,
            per_worker_trials,
            fleet,
        }
    }
}

fn job_status(inner: &Inner, job: &str) -> WaitStatus {
    match inner.jobs.get(job) {
        None => WaitStatus::Done, // withdrawn elsewhere; nothing to wait for
        Some(s) => match &s.failed {
            Some(msg) => WaitStatus::Failed(msg.clone()),
            None if s.remaining == 0 => WaitStatus::Done,
            None => WaitStatus::Waiting,
        },
    }
}

fn batch_entry<'a>(inner: &'a mut Inner, job: &str, batch: u64) -> Option<&'a mut BatchEntry> {
    inner.jobs.get_mut(job)?.batches.get_mut(batch as usize)
}

fn touch_worker(inner: &mut Inner, worker: &str, now: Instant) {
    inner
        .workers
        .entry(worker.to_string())
        .and_modify(|i| i.last_seen = now)
        .or_insert(WorkerInfo {
            last_seen: now,
            trials_done: 0,
            stats: WorkerStats::default(),
        });
}

/// Requeue every lease whose deadline has passed; return the earliest
/// deadline still outstanding.
fn reap_expired(inner: &mut Inner, now: Instant) -> Option<Instant> {
    let mut requeue = Vec::new();
    let mut next = None::<Instant>;
    for (job_id, shards) in &mut inner.jobs {
        for (i, entry) in shards.batches.iter_mut().enumerate() {
            if let Phase::Leased { deadline, .. } = &entry.phase {
                if *deadline < now {
                    entry.phase = Phase::Pending;
                    requeue.push((job_id.clone(), i as u64));
                } else {
                    next = Some(next.map_or(*deadline, |n| n.min(*deadline)));
                }
            }
        }
    }
    inner.leases_expired += requeue.len() as u64;
    for item in requeue {
        inner.pending.push_back(item);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::line_digest;
    use disp_analysis::ExperimentPoint;
    use disp_core::scenario::{Registry, ScenarioSpec};
    use disp_graph::generators::GraphFamily;
    use std::sync::Arc;

    fn run_slot(k: usize) -> (SlotSpec, TrialRecord) {
        let point = ExperimentPoint::new(ScenarioSpec::new(GraphFamily::Star, k, "probe-dfs"), 1);
        let seed = 42 + k as u64;
        let rec = point.run_trial(&Registry::builtin(), 0, seed);
        let slot = SlotSpec {
            label: point.point_id(),
            rep: 0,
            seed,
            repetitions: 1,
        };
        (slot, rec)
    }

    fn upload_for(slot_idx: usize, rec: &TrialRecord) -> Upload {
        Upload {
            slot: slot_idx,
            wall_micros: 10,
            cached: false,
            line: rec.to_json_line(),
            record: rec.clone(),
        }
    }

    #[test]
    fn leases_hand_out_batches_in_order_then_idle() {
        let board = ClusterBoard::new(Duration::from_secs(60));
        let (s1, _) = run_slot(8);
        let (s2, _) = run_slot(12);
        board.publish("r0", vec![vec![s1.clone()], vec![s2.clone()]]);
        let LeaseReply::Batch(a) = board.lease("w1", Duration::ZERO) else {
            panic!("expected batch");
        };
        assert_eq!((a.batch, a.slots[0].label.as_str()), (0, s1.label.as_str()));
        let LeaseReply::Batch(b) = board.lease("w2", Duration::ZERO) else {
            panic!("expected batch");
        };
        assert_eq!(b.batch, 1);
        assert!(matches!(
            board.lease("w1", Duration::ZERO),
            LeaseReply::Idle { .. }
        ));
        let stats = board.stats();
        assert_eq!((stats.workers, stats.leases_active), (2, 2));
        assert_eq!(stats.workers_busy, 2);
    }

    #[test]
    fn expired_leases_requeue_and_heartbeats_report_loss() {
        let board = ClusterBoard::new(Duration::from_millis(5));
        let (s1, _) = run_slot(8);
        board.publish("r0", vec![vec![s1]]);
        let LeaseReply::Batch(a) = board.lease("w1", Duration::ZERO) else {
            panic!("expected batch");
        };
        std::thread::sleep(Duration::from_millis(20));
        // The reaper runs on any board entry point; w2's lease picks the
        // requeued batch up.
        let LeaseReply::Batch(b) = board.lease("w2", Duration::ZERO) else {
            panic!("expected requeued batch");
        };
        assert_eq!(b.batch, a.batch);
        assert!(!board.heartbeat("w1", "r0", a.batch));
        assert!(board.heartbeat("w2", "r0", b.batch));
        assert_eq!(board.stats().leases_expired, 1);
    }

    #[test]
    fn complete_settles_the_job_and_late_duplicates_are_stale() {
        let board = ClusterBoard::new(Duration::from_millis(5));
        let (s1, r1) = run_slot(8);
        board.publish("r0", vec![vec![s1]]);
        let LeaseReply::Batch(a) = board.lease("w1", Duration::ZERO) else {
            panic!("expected batch");
        };
        std::thread::sleep(Duration::from_millis(20));
        let LeaseReply::Batch(_) = board.lease("w2", Duration::ZERO) else {
            panic!("expected requeued batch");
        };
        // w1's completion lands after the requeue: still accepted (the
        // records are content-addressed and identical).
        let reply = board
            .complete("w1", "r0", a.batch, &[upload_for(0, &r1)])
            .unwrap();
        assert!(!reply.stale);
        assert_eq!(board.wait("r0", Duration::from_millis(1)), WaitStatus::Done);
        // w2's completion of the same batch is now stale, not an error.
        let reply = board
            .complete("w2", "r0", a.batch, &[upload_for(0, &r1)])
            .unwrap();
        assert!(reply.stale);
        assert_eq!(board.take_records("r0").len(), 1);
    }

    #[test]
    fn reconcile_reports_missing_then_verifies_digests_of_held_slots() {
        let board = ClusterBoard::new(Duration::from_secs(60));
        let (s1, r1) = run_slot(8);
        let (s2, r2) = run_slot(12);
        board.publish("r0", vec![vec![s1.clone(), s2.clone()]]);
        let LeaseReply::Batch(a) = board.lease("w1", Duration::ZERO) else {
            panic!("expected batch");
        };
        let reply = board.reconcile("w1", "r0", a.batch, &[None, None]);
        assert!(!reply.stale);
        assert_eq!(reply.missing, vec![0, 1]);
        board
            .complete(
                "w1",
                "r0",
                a.batch,
                &[upload_for(0, &r1), upload_for(1, &r2)],
            )
            .unwrap();
        // A second worker re-executed the batch (expired-lease race) and
        // reconciles with matching digests: stale, nothing missing, job
        // healthy.
        let digests = [
            Some(line_digest(&r1.to_json_line())),
            Some(line_digest(&r2.to_json_line())),
        ];
        let reply = board.reconcile("w2", "r0", a.batch, &digests);
        assert!(reply.stale && reply.missing.is_empty());
        assert_eq!(board.wait("r0", Duration::from_millis(1)), WaitStatus::Done);
    }

    #[test]
    fn digest_conflicts_fail_the_job_loudly() {
        let board = ClusterBoard::new(Duration::from_secs(60));
        let (s1, r1) = run_slot(8);
        board.publish("r0", vec![vec![s1]]);
        let LeaseReply::Batch(a) = board.lease("w1", Duration::ZERO) else {
            panic!("expected batch");
        };
        board
            .complete("w1", "r0", a.batch, &[upload_for(0, &r1)])
            .unwrap();
        let reply = board.reconcile("w2", "r0", a.batch, &[Some(0xBAD)]);
        assert!(reply.stale);
        match board.wait("r0", Duration::from_millis(1)) {
            WaitStatus::Failed(msg) => assert!(msg.contains("determinism violation")),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn broken_uploads_are_rejected_not_recorded() {
        let board = ClusterBoard::new(Duration::from_secs(60));
        let (s1, _) = run_slot(8);
        let (_, wrong) = run_slot(12);
        board.publish("r0", vec![vec![s1]]);
        let LeaseReply::Batch(a) = board.lease("w1", Duration::ZERO) else {
            panic!("expected batch");
        };
        // Wrong content identity for the slot.
        assert!(board
            .complete("w1", "r0", a.batch, &[upload_for(0, &wrong)])
            .is_err());
        // Uncovered slot.
        assert!(board.complete("w1", "r0", a.batch, &[]).is_err());
        assert_eq!(
            board.wait("r0", Duration::from_millis(1)),
            WaitStatus::Waiting
        );
    }

    #[test]
    fn fleet_stats_aggregate_latest_worker_snapshots() {
        let board = ClusterBoard::new(Duration::from_secs(60));
        board.note_worker_stats(
            "w1",
            WorkerStats {
                executed: 10,
                local_hits: 2,
                uploaded: 12,
                batches: 3,
                abandoned: 0,
            },
        );
        board.note_worker_stats(
            "w2",
            WorkerStats {
                executed: 5,
                local_hits: 0,
                uploaded: 5,
                batches: 1,
                abandoned: 1,
            },
        );
        // Snapshots are cumulative: a newer one replaces, never adds.
        board.note_worker_stats(
            "w1",
            WorkerStats {
                executed: 11,
                local_hits: 2,
                uploaded: 13,
                batches: 4,
                abandoned: 0,
            },
        );
        let stats = board.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.fleet.executed, 16);
        assert_eq!(stats.fleet.uploaded, 18);
        assert_eq!(stats.fleet.batches, 5);
        assert_eq!(stats.fleet.abandoned, 1);
        assert_eq!(stats.fleet.local_hits, 2);
    }

    #[test]
    fn withdraw_makes_everything_stale() {
        let board = ClusterBoard::new(Duration::from_secs(60));
        let (s1, r1) = run_slot(8);
        board.publish("r0", vec![vec![s1]]);
        let LeaseReply::Batch(a) = board.lease("w1", Duration::ZERO) else {
            panic!("expected batch");
        };
        board.withdraw("r0");
        assert!(!board.heartbeat("w1", "r0", a.batch));
        assert!(board.reconcile("w1", "r0", a.batch, &[None]).stale);
        assert!(
            board
                .complete("w1", "r0", a.batch, &[upload_for(0, &r1)])
                .unwrap()
                .stale
        );
        assert!(matches!(
            board.lease("w1", Duration::ZERO),
            LeaseReply::Idle { .. }
        ));
    }

    /// Run `f` on another thread once a lease is blocked on `board`: a
    /// lease holds the lock from `touch_worker` until it waits, so a
    /// worker visible from outside the lock is a worker already waiting.
    fn once_waiting(
        board: &Arc<ClusterBoard>,
        f: impl FnOnce(&ClusterBoard) + Send + 'static,
    ) -> std::thread::JoinHandle<()> {
        let board = Arc::clone(board);
        std::thread::spawn(move || {
            while board.stats().workers == 0 {
                std::thread::yield_now();
            }
            f(&board);
        })
    }

    #[test]
    fn a_blocked_lease_takes_a_batch_published_meanwhile() {
        let board = Arc::new(ClusterBoard::new(Duration::from_secs(60)));
        let (s1, _) = run_slot(8);
        let publisher = once_waiting(&board, move |b| b.publish("r0", vec![vec![s1]]));
        let began = Instant::now();
        let reply = board.lease("w1", Duration::from_secs(5));
        publisher.join().unwrap();
        assert!(matches!(reply, LeaseReply::Batch(_)), "got {reply:?}");
        assert!(began.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn an_empty_board_answers_idle_at_the_end_of_the_window() {
        let board = ClusterBoard::new(Duration::from_secs(60));
        let began = Instant::now();
        let reply = board.lease("w1", Duration::from_millis(50));
        assert_eq!(
            reply,
            LeaseReply::Idle {
                retry_ms: LEASE_WAIT.as_millis() as u64
            }
        );
        assert!(began.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn drain_releases_a_blocked_lease_with_draining() {
        let board = Arc::new(ClusterBoard::new(Duration::from_secs(60)));
        let drainer = once_waiting(&board, ClusterBoard::drain);
        let began = Instant::now();
        let reply = board.lease("w1", Duration::from_secs(5));
        drainer.join().unwrap();
        assert_eq!(reply, LeaseReply::Draining);
        assert!(began.elapsed() < Duration::from_secs(2));
        // Pending work does not matter once draining.
        let (s1, _) = run_slot(8);
        board.publish("r0", vec![vec![s1]]);
        assert_eq!(board.lease("w2", Duration::ZERO), LeaseReply::Draining);
    }

    #[test]
    fn a_lease_expiring_while_another_worker_waits_goes_to_that_worker() {
        let board = ClusterBoard::new(Duration::from_millis(100));
        let (s1, _) = run_slot(8);
        board.publish("r0", vec![vec![s1]]);
        let LeaseReply::Batch(a) = board.lease("w1", Duration::ZERO) else {
            panic!("expected batch");
        };
        // w1 never heartbeats; w2's wait wakes at w1's deadline, not at
        // the end of its 5 s window.
        let began = Instant::now();
        let LeaseReply::Batch(b) = board.lease("w2", Duration::from_secs(5)) else {
            panic!("expected the expired batch");
        };
        assert!(began.elapsed() < Duration::from_secs(2));
        assert_eq!(b.batch, a.batch);
        assert_eq!(board.stats().leases_expired, 1);
    }
}
