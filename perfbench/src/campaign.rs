//! `campaign-paper`: the quick `table1`, `figures` and `placements` grids
//! (335 small trials per campaign seed) through the campaign engine with a
//! fresh checkpoint store, `threads = nproc` and batch 1, over as many
//! campaign seeds as fit in the run. Graph build, world and protocol
//! set-up, scheduling, store append and encode are a large share here.

use crate::host::{nproc, peak_rss_mb, runqueue_wait_share, SchedSampler};
use crate::report::Report;
use crate::stats::{median, nearest_rank, sorted, tail};
use crate::trace::{write_trace, Span, Tracer};
use crate::trial::{layer_metrics, replay_trials, TrialRun};
use crate::wrap::{traced_registry, LayerCounters};
use crate::Args;
use disp_analysis::TrialRecord;
use disp_campaign::run::run_campaign_observed;
use disp_campaign::telemetry::VecSink;
use disp_campaign::{run_campaign, CampaignSpec, CampaignStore, Mode, Telemetry, TrialEvent};
use disp_core::scenario::Registry;
use disp_rng::{fnv1a, mix};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Grid points left out of the workload. `ks-dfs` from four clustered
/// groups on a half-occupied 256-node line under SYNC does not terminate
/// for about 1 trial seed in 500 (e.g. 327833be6cfc7493: one agent
/// oscillates until the 79616-round limit). That is a defect of the
/// protocol, not of the benchmark, and a workload must not fail operations;
/// the point is named in every result's info line.
pub const EXCLUDED: [&str; 1] = ["line/k128/occ0.5/cluster4/sync/ks-dfs"];

/// The three grids of one campaign seed, without [`EXCLUDED`].
pub fn paper_grids(seed: u64) -> [CampaignSpec; 3] {
    let mut grids = [
        CampaignSpec::table1(Mode::Quick, seed),
        CampaignSpec::figures(Mode::Quick, seed),
        CampaignSpec::placements(Mode::Quick, seed),
    ];
    for section in grids.iter_mut().flat_map(|g| g.sections.iter_mut()) {
        section
            .points
            .retain(|p| !EXCLUDED.contains(&p.scenario.label().as_str()));
    }
    grids
}

/// Digest of a JSONL record set, independent of line order (the engine
/// appends in completion order).
pub fn lines_digest<'a>(lines: impl Iterator<Item = &'a str>) -> u64 {
    let mut lines: Vec<&str> = lines.filter(|l| !l.is_empty()).collect();
    lines.sort_unstable();
    fnv1a(lines.join("\n").as_bytes())
}

/// One campaign seed's worth of work.
struct Unit {
    setup_s: f64,
    wall_s: f64,
    trials: usize,
    trial_wall_ms: Vec<f64>,
    busy_us: u64,
    steals: usize,
    checkpoint_bytes: u64,
    digests: Vec<u64>,
    records: Vec<TrialRecord>,
}

fn run_unit(
    args: &Args,
    cseed: u64,
    registry: &Registry,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Result<Unit, String> {
    let threads = nproc();
    let mut unit = Unit {
        setup_s: 0.0,
        wall_s: 0.0,
        trials: 0,
        trial_wall_ms: Vec::new(),
        busy_us: 0,
        steals: 0,
        checkpoint_bytes: 0,
        digests: Vec::new(),
        records: Vec::new(),
    };
    let group = tracer.map_or(0, Tracer::new_id);
    let root_start = tracer.map_or(0, Tracer::now_ns);
    let root = tracer.map_or(0, Tracer::new_id);
    let began = Instant::now();
    let grids = paper_grids(cseed);
    unit.setup_s += began.elapsed().as_secs_f64();
    for spec in grids {
        let name = spec.name.clone();
        let setup_start = tracer.map_or(0, Tracer::now_ns);
        let began = Instant::now();
        let dir = args.out.join(format!("{cseed:016x}-{name}"));
        let store = CampaignStore::create(&dir, &spec, true)?;
        unit.setup_s += began.elapsed().as_secs_f64();
        let (sink, events) = VecSink::new();
        let telemetry = Telemetry::start(Box::new(sink));
        let handle = telemetry.handle();
        let run_start = tracer.map_or(0, Tracer::now_ns);
        let began = Instant::now();
        let (records, summary) = run_campaign_observed(
            &spec,
            Some(&store),
            threads,
            1,
            registry,
            &AtomicBool::new(false),
            Some(&handle),
            None,
        )?;
        unit.wall_s += began.elapsed().as_secs_f64();
        if let Some(t) = tracer {
            let end = t.now_ns();
            record(
                t,
                t.new_id(),
                root,
                group,
                "campaign.setup",
                (setup_start, run_start),
            );
            record(t, t.new_id(), root, group, "campaign.run", (run_start, end));
        }
        drop(handle);
        let dropped = telemetry.finish();
        report.check(dropped == 0, || {
            format!("{name}: {dropped} telemetry events dropped")
        });
        for event in events.lock().expect("telemetry sink").iter() {
            if let TrialEvent::Completed { wall_micros, .. } = event {
                unit.trial_wall_ms.push(*wall_micros as f64 / 1e3);
                unit.busy_us += wall_micros;
            }
        }
        let expected = spec.trials().len();
        report.check(
            records.len() == expected && summary.executed == expected,
            || format!("{name}: {} of {expected} trials completed", records.len()),
        );
        for r in &records {
            check_record(report, r);
        }
        let checkpoint = std::fs::read_to_string(store.trials_path())
            .map_err(|e| format!("reading checkpoint: {e}"))?;
        unit.checkpoint_bytes += checkpoint.len() as u64;
        unit.digests.push(lines_digest(checkpoint.lines()));
        unit.steals += summary.stats.steals;
        unit.trials += records.len();
        unit.records.extend(records);
        let _ = std::fs::remove_dir_all(&dir);
    }
    if let Some(t) = tracer {
        record(t, root, 0, group, "campaign.unit", (root_start, t.now_ns()));
    }
    Ok(unit)
}

/// A trial that hit its runner limit is a failed operation (named in the
/// info line); one that reports termination must have dispersed.
pub fn check_record(report: &mut Report, r: &TrialRecord) {
    let id = || format!("{} (trial seed {:016x})", r.trial_id(), r.seed);
    report.attempt(r.outcome.terminated && r.dispersed, || {
        format!("{} hit its limit", id())
    });
    report.check(!r.outcome.terminated || r.dispersed, || {
        format!("{} terminated without dispersing", id())
    });
}

fn record(
    t: &Tracer,
    id: u64,
    parent: u64,
    group: u64,
    name: &'static str,
    (start_ns, end_ns): (u64, u64),
) {
    t.record(Span {
        id,
        parent,
        group,
        name,
        start_ns,
        end_ns,
    });
}

pub fn campaign_paper(args: &Args, report: &mut Report) -> Result<(), String> {
    let counters = Arc::new(LayerCounters::default());
    let registry = if args.trace {
        traced_registry(&counters)
    } else {
        Registry::builtin()
    };
    let tracer = Tracer::new();
    let traced = args.trace.then_some(&tracer);
    let sampler = SchedSampler::start(Duration::from_millis(25));
    let sched_before = sampler.totals();
    let began = Instant::now();
    let deadline = began + Duration::from_secs_f64(args.seconds);
    let mut units = Vec::new();
    while units.is_empty() || Instant::now() < deadline {
        let cseed = mix(&[args.seed, units.len() as u64]);
        let mut unit = run_unit(args, cseed, &registry, traced, report)?;
        if !units.is_empty() {
            // Only the first seed's records are checked again and replayed;
            // holding the rest would inflate this process's peak RSS.
            unit.records = Vec::new();
        }
        units.push(unit);
    }
    let work_s = began.elapsed().as_secs_f64();
    let wait_share = runqueue_wait_share(sched_before, sampler.totals());
    let peak = peak_rss_mb(None).unwrap_or(0.0);
    sampler.stop();

    // Reference: the offline engine without store or telemetry, one
    // thread, must give the first campaign seed's checkpoint byte for byte.
    let first = &units[0];
    for (spec, digest) in paper_grids(mix(&[args.seed, 0])).iter().zip(&first.digests) {
        let (records, _) = run_campaign(spec, None, 1, &Registry::builtin())?;
        let lines: Vec<String> = records.iter().map(TrialRecord::to_json_line).collect();
        report.check(
            lines_digest(lines.iter().map(String::as_str)) == *digest,
            || format!("{}: checkpoint differs from the offline run", spec.name),
        );
    }
    let digests: Vec<String> = first
        .digests
        .iter()
        .map(|d| format!("\"{d:016x}\""))
        .collect();
    report.info("checkpoint_digests", format!("[{}]", digests.join(",")));
    report.info("excluded", format!("{EXCLUDED:?}"));

    let trial_ms: Vec<f64> = units
        .iter()
        .flat_map(|u| u.trial_wall_ms.iter().copied())
        .collect();
    // Latency is taken per campaign seed (335 trials: the tail is their
    // p95) and reported as the median over the seeds, so one slow stretch
    // of the host moves one seed's figures, not the run's.
    let per_seed = |f: &dyn Fn(&[f64]) -> f64| {
        median(
            &units
                .iter()
                .map(|u| f(&u.trial_wall_ms))
                .collect::<Vec<_>>(),
        )
    };
    let tail_p = tail(&units[0].trial_wall_ms).0;
    let rates: Vec<f64> = units.iter().map(|u| u.trials as f64 / u.wall_s).collect();
    report.info(
        "figures",
        format!(
            "{{\"campaign_seeds\":{},\"trials\":{},\"threads\":{},\"tail_percentile\":{tail_p},\"runqueue_wait_share\":{wait_share}}}",
            units.len(),
            trial_ms.len(),
            nproc()
        ),
    );
    if !args.trace {
        let setup: Vec<f64> = units.iter().map(|u| u.setup_s).collect();
        report.set("setup_s", median(&setup));
        report.set("peak_rss_mb", peak);
        report.set("throughput_per_s", median(&rates));
        report.set("latency_p50_ms", per_seed(&median));
        report.set("latency_tail_ms", per_seed(&|xs| tail(xs).1));
        return Ok(());
    }

    let s = sorted(&trial_ms);
    report.set("campaign.trial_p50_ms", median(&trial_ms));
    report.set("campaign.trial_p99_ms", nearest_rank(&s, 99.0));
    let busy_us: u64 = units.iter().map(|u| u.busy_us).sum();
    let wall_s: f64 = units.iter().map(|u| u.wall_s).sum();
    report.set(
        "campaign.busy_share",
        busy_us as f64 / 1e6 / (wall_s * nproc() as f64),
    );
    let n = units.len() as f64;
    report.set(
        "campaign.steals",
        units.iter().map(|u| u.steals).sum::<usize>() as f64 / n,
    );
    report.set(
        "campaign.checkpoint_bytes",
        units.iter().map(|u| u.checkpoint_bytes).sum::<u64>() as f64 / n,
    );
    encode_and_append(args, &first.records, report)?;
    report.set("host.runqueue_wait_share", wait_share);
    report.set("work.units", n);
    report.set("work.seconds", work_s);

    // Overhead: one untraced campaign seed against the traced ones.
    let untraced = run_unit(
        args,
        mix(&[args.seed, 0]),
        &Registry::builtin(),
        None,
        report,
    )?;
    report.check(untraced.digests == first.digests, || {
        "traced and untraced checkpoints differ".into()
    });
    let untraced_rate = untraced.trials as f64 / untraced.wall_s;
    report.set("trace.overhead", untraced_rate / median(&rates));
    // Layers: replay the first seed's trials one at a time, split into
    // layers; each replayed outcome must equal the engine's record.
    let replay_counters = Arc::new(LayerCounters::default());
    let replay_registry = traced_registry(&replay_counters);
    let replay = replay_trials(
        &first.records,
        &replay_registry,
        &tracer,
        &replay_counters,
        report,
    )?;
    let trials: Vec<(&TrialRun, bool)> = replay.iter().map(|(t, a)| (t, *a)).collect();
    layer_metrics(report, &tracer, &replay_counters.snapshot(), &trials);
    write_trace(args, &tracer)
}

/// Time `TrialRecord::to_json_line` and `TrialWriter::append` per record.
fn encode_and_append(
    args: &Args,
    records: &[TrialRecord],
    report: &mut Report,
) -> Result<(), String> {
    let began = Instant::now();
    let mut bytes = 0;
    for r in records {
        bytes += std::hint::black_box(r.to_json_line()).len();
    }
    let n = records.len().max(1) as f64;
    report.set(
        "analysis.encode_us",
        began.elapsed().as_secs_f64() * 1e6 / n,
    );
    let spec = CampaignSpec::table1(Mode::Quick, 0);
    let dir = args.out.join("append-probe");
    let store = CampaignStore::create(&dir, &spec, true)?;
    let writer = store.appender()?;
    let began = Instant::now();
    for r in records {
        writer.append(r);
    }
    report.set(
        "campaign.store_append_us",
        began.elapsed().as_secs_f64() * 1e6 / n,
    );
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
    report.check(bytes > 0, || "encoding produced nothing".into());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grids_leave_out_exactly_the_excluded_points() {
        let full: usize = [
            CampaignSpec::table1(Mode::Quick, 3),
            CampaignSpec::figures(Mode::Quick, 3),
            CampaignSpec::placements(Mode::Quick, 3),
        ]
        .iter()
        .map(|g| g.trials().len())
        .sum();
        let trials: Vec<_> = paper_grids(3)
            .iter()
            .flat_map(CampaignSpec::trials)
            .collect();
        assert_eq!(trials.len(), full - EXCLUDED.len());
        assert!(trials
            .iter()
            .all(|t| !EXCLUDED.contains(&t.point.scenario.label().as_str())));
    }
}
