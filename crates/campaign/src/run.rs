//! Campaign orchestration: expand a grid, skip completed trials, execute
//! the rest on the work-stealing engine, stream checkpoints.

use crate::engine::{parallel_map, EngineStats};
use crate::grid::{CampaignSpec, TrialSpec};
use crate::store::CampaignStore;
use crate::telemetry::{timeline_to_jsonl, TelemetryHandle, TimelineSidecar, TrialEvent};
use disp_analysis::TrialRecord;
use disp_core::scenario::Registry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a campaign execution did.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Trials in the (possibly section-filtered) grid.
    pub total: usize,
    /// Trials skipped because the store already had them.
    pub skipped: usize,
    /// Trials executed in this call.
    pub executed: usize,
    /// Wall-clock time of the execution phase.
    pub wall: Duration,
    /// Engine execution counters.
    pub stats: EngineStats,
    /// Whether the run was cut short by the cancellation latch — `true`
    /// means some grid trials were neither on disk nor executed (the
    /// checkpoint, if any, is a valid prefix to `resume` from).
    pub cancelled: bool,
}

/// Execute `spec` on `threads` workers, resolving algorithms through
/// `registry` — pass [`Registry::builtin`] for the paper's algorithms, or
/// a registry extended with your own factories.
///
/// Every scenario in the grid is validated against the registry before
/// anything runs, so an illegal combination is a typed error up front, not
/// a mid-campaign panic.
///
/// With a store, completed trials (already on disk) are skipped and every
/// finished trial is appended + flushed before the engine moves on; without
/// one the campaign runs purely in memory. Returns the **complete** record
/// set for the grid — executed this call or recovered from the store — in
/// deterministic grid order, plus a summary.
pub fn run_campaign(
    spec: &CampaignSpec,
    store: Option<&CampaignStore>,
    threads: usize,
    registry: &Registry,
) -> Result<(Vec<TrialRecord>, RunSummary), String> {
    let cancel = AtomicBool::new(false);
    run_campaign_observed(spec, store, threads, 1, registry, &cancel, None, None)
}

/// [`run_campaign`] with every knob and observer the campaign layer has.
///
/// - **Batches.** The grid's not-yet-checkpointed trials run on
///   [`execute_trials`]: work is stolen at the granularity of `batch`
///   contiguous grid trials (`0` counts as `1`), and a batch's records are
///   checkpointed in grid order as it completes, so a kill loses at most
///   the in-flight batches. Records are byte-identical for any batch size
///   and thread count. The summary's [`EngineStats::per_worker`] counts
///   batches, the stealing unit.
/// - **Cancellation.** Once `cancel` reads `true`, workers stop *starting*
///   trials (the latch is checked per trial, so even a large batch drains
///   in microseconds); everything in flight finishes and is checkpointed
///   normally, so the store stays a valid prefix of the grid and `resume`
///   continues where the interrupt landed. The summary has `cancelled` set
///   if any grid trial was left unexecuted. This is the path behind Ctrl-C
///   handling in the CLI (`disp_campaign::signal`) and job cancellation in
///   `disp-serve`.
/// - **Telemetry.** With a handle, workers emit [`TrialEvent`]s as trials
///   start and finish (wall-clock micros, moves, rounds), and trials
///   satisfied from the store's checkpoint emit [`TrialEvent::Cached`] up
///   front, in grid order.
/// - **Timelines.** With a sidecar, every *executed* trial also records a
///   decimated [`disp_sim::Timeline`] and appends it (as one JSONL chunk)
///   to the sidecar as the trial finishes. Checkpointed trials never
///   re-execute, so the sidecar covers exactly what this call ran.
///
/// Telemetry and timelines are pure observation: the returned records and
/// any store checkpoint are byte-identical with and without them, across
/// thread counts and batch sizes (timing is non-content and never enters
/// the results stream; see [`crate::telemetry`]).
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_observed(
    spec: &CampaignSpec,
    store: Option<&CampaignStore>,
    threads: usize,
    batch: usize,
    registry: &Registry,
    cancel: &AtomicBool,
    telemetry: Option<&TelemetryHandle>,
    timelines: Option<&TimelineSidecar>,
) -> Result<(Vec<TrialRecord>, RunSummary), String> {
    let grid = spec.trials();
    let total = grid.len();

    for point in spec.sections.iter().flat_map(|s| &s.points) {
        point
            .scenario
            .validate(registry)
            .map_err(|e| format!("scenario '{}': {e}", point.scenario.label()))?;
    }

    let prior = match store {
        Some(store) if store.trials_path().exists() => store.read_trials()?.records,
        _ => Vec::new(),
    };
    let order: Vec<String> = grid.iter().map(TrialSpec::trial_id).collect();
    let todo: Vec<TrialSpec> = {
        let held: HashMap<String, &TrialRecord> = prior.iter().map(|r| (r.trial_id(), r)).collect();
        if let Some(telemetry) = telemetry {
            // Checkpoint hits are announced up front, in grid order: the
            // store already holds their outcomes, nothing will execute
            // for them.
            for record in order.iter().filter_map(|id| held.get(id)) {
                telemetry.emit(TrialEvent::cached(record));
            }
        }
        grid.into_iter()
            .zip(&order)
            .filter(|(_, id)| !held.contains_key(*id))
            .map(|(trial, _)| trial)
            .collect()
    };

    let writer = match store {
        Some(store) => Some(store.appender()?),
        None => None,
    };
    let start = Instant::now();
    let (executed, stats) = execute_trials(
        &todo,
        threads,
        batch,
        registry,
        cancel,
        telemetry,
        timelines,
        |slots| {
            if let Some(w) = &writer {
                for (record, _) in slots.iter().flatten() {
                    w.append(record);
                }
            }
        },
    );
    let wall = start.elapsed();

    // Merge prior + fresh records (a fresh record wins over a torn-tail
    // duplicate) and return them in grid order.
    let mut by_id: HashMap<String, TrialRecord> =
        prior.into_iter().map(|r| (r.trial_id(), r)).collect();
    let mut executed_count = 0;
    for (record, _) in executed.into_iter().flatten() {
        by_id.insert(record.trial_id(), record);
        executed_count += 1;
    }
    let ordered: Vec<TrialRecord> = order
        .iter()
        .filter_map(|id| by_id.get(id).cloned())
        .collect();

    Ok((
        ordered,
        RunSummary {
            total,
            skipped: total - todo.len(),
            executed: executed_count,
            wall,
            stats,
            cancelled: executed_count < todo.len(),
        },
    ))
}

/// One executed slot: the trial's record and its wall-clock micros, or
/// `None` when the cancel latch was set before the trial started.
pub type TrialSlot = Option<(TrialRecord, u64)>;

/// The trial executor: run `trials` on `threads` work-stealing engine
/// workers. Campaigns ([`run_campaign_observed`]), the `disp-serve` job
/// executor and the cluster worker all execute trials through this one
/// call.
///
/// - **Batches.** Work is stolen at the granularity of `batch` contiguous
///   trials (`0` counts as `1`); a batch runs its trials in order and
///   `on_done` receives its slots the moment it completes (the campaign
///   store checkpoints there). The returned [`EngineStats::per_worker`]
///   counts batches.
/// - **World pools.** Each engine worker keeps one [`disp_sim::WorldPool`]
///   for the length of the call, so after a worker's first trial world
///   construction reuses pooled buffers. The pools are dropped when the
///   call returns: nothing (no world, no graph) outlives it.
/// - **Cancellation.** The latch is checked before every trial; once set,
///   the remaining slots come back `None` within microseconds while
///   in-flight trials finish normally.
/// - **Observers.** With a telemetry handle, each trial emits
///   [`TrialEvent::started`] and [`TrialEvent::completed`]; with a
///   sidecar, each trial records a decimated timeline and appends it as
///   one JSONL chunk.
///
/// Returns one slot per trial, in trial order. Records are byte-identical
/// for any thread count, batch size, pool state or observer setting: each
/// trial depends only on the seed its spec carries.
#[allow(clippy::too_many_arguments)]
pub fn execute_trials<S>(
    trials: &[TrialSpec],
    threads: usize,
    batch: usize,
    registry: &Registry,
    cancel: &AtomicBool,
    telemetry: Option<&TelemetryHandle>,
    timelines: Option<&TimelineSidecar>,
    on_done: S,
) -> (Vec<TrialSlot>, EngineStats)
where
    S: Fn(&[TrialSlot]) + Sync,
{
    let budget = timelines.map(|_| disp_sim::DEFAULT_TIMELINE_BUDGET);
    let batches: Vec<&[TrialSpec]> = trials.chunks(batch.max(1)).collect();
    let (slots, stats) = parallel_map(
        batches,
        threads,
        disp_sim::WorldPool::new,
        |pool, _, batch: &&[TrialSpec]| {
            batch
                .iter()
                .map(|trial| {
                    if cancel.load(Ordering::SeqCst) {
                        return None;
                    }
                    if let Some(telemetry) = telemetry {
                        telemetry.emit(TrialEvent::started(&trial.point.point_id(), trial.rep));
                    }
                    let begun = Instant::now();
                    let (record, timeline) = trial
                        .point
                        .run_trial_observed(registry, trial.rep, trial.seed, pool, budget);
                    let wall_micros = begun.elapsed().as_micros() as u64;
                    if let (Some(sidecar), Some(timeline)) = (timelines, timeline) {
                        sidecar.append(&timeline_to_jsonl(
                            &timeline,
                            &trial.point.point_id(),
                            trial.seed,
                        ));
                    }
                    if let Some(telemetry) = telemetry {
                        telemetry.emit(TrialEvent::completed(&record, wall_micros));
                    }
                    Some((record, wall_micros))
                })
                .collect::<Vec<TrialSlot>>()
        },
        |_, slots: &Vec<TrialSlot>| on_done(slots),
    );
    (slots.into_iter().flatten().collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Mode;
    use disp_core::scenario::{ScenarioSpec, Schedule};
    use disp_graph::generators::GraphFamily;
    use disp_sim::Placement;

    fn reg() -> Registry {
        Registry::builtin()
    }

    fn tiny_spec(seed: u64) -> CampaignSpec {
        let mut spec = CampaignSpec::table1(Mode::Quick, seed);
        // Shrink to a fast subset: one section, small k only.
        spec.sections.truncate(1);
        spec.sections[0].points.retain(|p| p.scenario.k <= 32);
        spec
    }

    #[test]
    fn in_memory_run_covers_the_grid_in_order() {
        let spec = tiny_spec(3);
        let (records, summary) = run_campaign(&spec, None, 2, &reg()).unwrap();
        assert_eq!(records.len(), summary.total);
        assert_eq!(summary.skipped, 0);
        assert_eq!(summary.executed, summary.total);
        let expected: Vec<String> = spec.trials().iter().map(|t| t.trial_id()).collect();
        let got: Vec<String> = records.iter().map(TrialRecord::trial_id).collect();
        assert_eq!(got, expected);
        assert!(records.iter().all(|r| r.dispersed));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let spec = tiny_spec(4);
        let (a, _) = run_campaign(&spec, None, 1, &reg()).unwrap();
        let (b, _) = run_campaign(&spec, None, 4, &reg()).unwrap();
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        assert_eq!(lines(&a), lines(&b));
    }

    #[test]
    fn checkpointed_run_resumes_without_recomputing() {
        let dir =
            std::env::temp_dir().join(format!("disp-campaign-run-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = tiny_spec(5);
        let grid = spec.trials();
        let registry = reg();

        // Simulate a killed run: checkpoint only the first third by hand.
        let store = CampaignStore::create(&dir, &spec, false).unwrap();
        let writer = store.appender().unwrap();
        let prefix = grid.len() / 3;
        for t in &grid[..prefix] {
            writer.append(&t.point.run_trial(&registry, t.rep, t.seed));
        }
        drop(writer);

        let (records, summary) = run_campaign(&spec, Some(&store), 2, &registry).unwrap();
        assert_eq!(summary.total, grid.len());
        assert_eq!(summary.skipped, prefix);
        assert_eq!(summary.executed, grid.len() - prefix);
        assert_eq!(records.len(), grid.len());

        // A second resume has nothing left to do and returns identical data.
        let (again, summary2) = run_campaign(&spec, Some(&store), 2, &registry).unwrap();
        assert_eq!(summary2.executed, 0);
        assert_eq!(summary2.skipped, grid.len());
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        assert_eq!(lines(&records), lines(&again));

        // And the checkpoint file matches an unstored run, line for line.
        let (memory, _) = run_campaign(&spec, None, 1, &registry).unwrap();
        let mut on_disk: Vec<String> = store
            .read_trials()
            .unwrap()
            .records
            .iter()
            .map(TrialRecord::to_json_line)
            .collect();
        let mut in_memory = lines(&memory);
        on_disk.sort();
        in_memory.sort();
        assert_eq!(on_disk, in_memory);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaigns_with_async_schedules_disperse() {
        let spec = CampaignSpec {
            name: "table1".into(),
            mode: Mode::Quick,
            seed: 11,
            sections: vec![crate::grid::Section::new(
                "async-mini",
                "mini async",
                crate::grid::section_points(
                    &[GraphFamily::Star, GraphFamily::RandomTree],
                    &[16],
                    &["ks-dfs", "probe-dfs"],
                    Placement::Rooted,
                    Schedule::AsyncRandom { prob: 0.7, seed: 0 },
                    2,
                ),
            )],
        };
        let (records, _) = run_campaign(&spec, None, 2, &reg()).unwrap();
        assert_eq!(records.len(), 2 * 2 * 2);
        assert!(records.iter().all(|r| r.dispersed));
        assert!(records.iter().all(|r| r.outcome.epochs >= 1));
    }

    #[test]
    fn pre_set_cancel_latch_executes_nothing_and_reports_cancelled() {
        let spec = tiny_spec(6);
        let cancel = AtomicBool::new(true);
        let (records, summary) =
            run_campaign_observed(&spec, None, 2, 1, &reg(), &cancel, None, None).unwrap();
        assert!(records.is_empty());
        assert_eq!(summary.executed, 0);
        assert!(summary.cancelled);
        assert_eq!(summary.total, spec.trials().len());
    }

    #[test]
    fn cancelled_checkpoint_is_a_resumable_prefix() {
        let dir =
            std::env::temp_dir().join(format!("disp-campaign-cancel-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = tiny_spec(7);
        let registry = reg();
        let store = CampaignStore::create(&dir, &spec, false).unwrap();

        // Latch trips after the third completed trial: the rest of the grid
        // must be skipped, and what is on disk must be a clean prefix.
        let cancel = AtomicBool::new(false);
        let done = std::sync::atomic::AtomicUsize::new(0);
        let latching = {
            let cancel = &cancel;
            let done = &done;
            move || {
                if done.fetch_add(1, Ordering::SeqCst) + 1 >= 3 {
                    cancel.store(true, Ordering::SeqCst);
                }
            }
        };
        // Drive the latch from on_done via a wrapper campaign run: use one
        // thread so exactly 3 trials complete before the latch trips.
        let grid = spec.trials();
        let writer = store.appender().unwrap();
        for t in &grid {
            if cancel.load(Ordering::SeqCst) {
                break;
            }
            writer.append(&t.point.run_trial(&registry, t.rep, t.seed));
            latching();
        }
        drop(writer);
        assert!(cancel.load(Ordering::SeqCst));

        // Resuming through the observed API with a clear latch finishes
        // the grid and matches an uninterrupted run record-for-record.
        let clear = AtomicBool::new(false);
        let (records, summary) =
            run_campaign_observed(&spec, Some(&store), 2, 1, &registry, &clear, None, None)
                .unwrap();
        assert!(!summary.cancelled);
        assert_eq!(summary.skipped, 3);
        let (full, _) = run_campaign(&spec, None, 1, &registry).unwrap();
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        assert_eq!(lines(&records), lines(&full));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_mode_matches_unbatched_across_thread_counts_and_batch_sizes() {
        let spec = tiny_spec(12);
        let none = AtomicBool::new(false);
        let (reference, _) = run_campaign(&spec, None, 1, &reg()).unwrap();
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        for threads in [1, 4] {
            for batch in [2, 7, 1000] {
                let (records, summary) =
                    run_campaign_observed(&spec, None, threads, batch, &reg(), &none, None, None)
                        .unwrap();
                assert_eq!(
                    lines(&records),
                    lines(&reference),
                    "threads={threads} batch={batch}"
                );
                assert_eq!(summary.executed, reference.len());
                assert!(!summary.cancelled);
            }
        }
    }

    #[test]
    fn batched_checkpoint_resumes_into_identical_records() {
        let dir = std::env::temp_dir().join(format!(
            "disp-campaign-batch-resume-test-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let spec = tiny_spec(13);
        let registry = reg();
        let grid = spec.trials();

        // Simulate a mid-batch kill: checkpoint an arbitrary partial subset
        // (not even a prefix — batch completion order is not grid order).
        let store = CampaignStore::create(&dir, &spec, false).unwrap();
        let writer = store.appender().unwrap();
        for t in grid.iter().skip(1).step_by(2) {
            writer.append(&t.point.run_trial(&registry, t.rep, t.seed));
        }
        drop(writer);

        let none = AtomicBool::new(false);
        let (records, summary) =
            run_campaign_observed(&spec, Some(&store), 2, 3, &registry, &none, None, None).unwrap();
        assert_eq!(summary.skipped, grid.len() / 2);
        let (full, _) = run_campaign(&spec, None, 1, &registry).unwrap();
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        assert_eq!(lines(&records), lines(&full));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timeline_recording_never_changes_results() {
        // Satellite acceptance: `trials.jsonl` content is byte-identical
        // with the flight recorder on and off, across thread counts and
        // batch sizes.
        let spec = tiny_spec(14);
        let none = AtomicBool::new(false);
        let (reference, _) = run_campaign(&spec, None, 1, &reg()).unwrap();
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        let dir = std::env::temp_dir().join(format!(
            "disp-campaign-timeline-sidecar-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for threads in [1, 4] {
            for batch in [1, 32] {
                let path = dir.join(format!("timelines-t{threads}-b{batch}.jsonl"));
                let sidecar = TimelineSidecar::create(&path).unwrap();
                let (records, summary) = run_campaign_observed(
                    &spec,
                    None,
                    threads,
                    batch,
                    &reg(),
                    &none,
                    None,
                    Some(&sidecar),
                )
                .unwrap();
                assert_eq!(
                    lines(&records),
                    lines(&reference),
                    "threads={threads} batch={batch}"
                );
                assert_eq!(summary.executed, reference.len());
                // One whole timeline chunk per executed trial, never
                // interleaved: starts and ends pair up in order.
                let sidecar_text = std::fs::read_to_string(&path).unwrap();
                let starts = sidecar_text
                    .lines()
                    .filter(|l| l.contains("\"timeline_start\""))
                    .count();
                let ends = sidecar_text
                    .lines()
                    .filter(|l| l.contains("\"timeline_end\""))
                    .count();
                assert_eq!(starts, reference.len());
                assert_eq!(ends, reference.len());
                let mut open = false;
                for line in sidecar_text.lines() {
                    if line.contains("\"timeline_start\"") {
                        assert!(!open, "interleaved timeline chunks");
                        open = true;
                    } else if line.contains("\"timeline_end\"") {
                        assert!(open);
                        open = false;
                    }
                }
                assert!(!open);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trial_batches_match_the_campaign_path_across_thread_counts() {
        let spec = tiny_spec(9);
        let grid = spec.trials();
        let (campaign, _) = run_campaign(&spec, None, 1, &reg()).unwrap();
        for threads in [1, 4] {
            for batch in [1, 7] {
                let none = AtomicBool::new(false);
                let (results, _) =
                    execute_trials(&grid, threads, batch, &reg(), &none, None, None, |_| {});
                let lines: Vec<String> = results
                    .iter()
                    .map(|r| r.as_ref().unwrap().0.to_json_line())
                    .collect();
                let expected: Vec<String> =
                    campaign.iter().map(TrialRecord::to_json_line).collect();
                assert_eq!(lines, expected, "threads={threads} batch={batch}");
            }
        }
    }

    #[test]
    fn trial_batches_honor_the_cancel_latch() {
        let spec = tiny_spec(10);
        let cancel = AtomicBool::new(true);
        let (results, _) =
            execute_trials(&spec.trials(), 2, 1, &reg(), &cancel, None, None, |_| {});
        assert!(results.iter().all(Option::is_none));
    }

    #[test]
    fn invalid_scenarios_fail_before_anything_runs() {
        let spec = CampaignSpec::custom(
            vec![ScenarioSpec::new(GraphFamily::Star, 8, "probe-dfs")
                .with_placement(Placement::ScatteredUniform)],
            1,
            1,
        );
        let err = run_campaign(&spec, None, 1, &reg()).unwrap_err();
        assert!(err.contains("rooted"), "{err}");
    }

    #[test]
    fn placement_campaign_runs_deterministically_across_thread_counts() {
        let mut spec = CampaignSpec::placements(Mode::Quick, 21);
        // Shrink to a fast subset covering every placement × schedule.
        for section in &mut spec.sections {
            section.points.retain(|p| p.scenario.k == 16);
        }
        let (a, _) = run_campaign(&spec, None, 1, &reg()).unwrap();
        let (b, _) = run_campaign(&spec, None, 4, &reg()).unwrap();
        assert!(!a.is_empty());
        assert!(a.iter().all(|r| r.dispersed));
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        assert_eq!(lines(&a), lines(&b));
    }
}
