//! `scale-line`: one rooted 10^4-agent line trial under SYNC and one under
//! the lagging ASYNC adversary per iteration, on one single-threaded lane
//! per CPU. The run loop dominates; the state (about 1.5 MB) stays in the
//! core's own L2 cache. (At 10^5 and 10^6 agents it lives in the L3 cache
//! a shared host splits with its other tenants, and whole runs drifted by
//! up to 1.9x within minutes; see METRICS.md.)

use crate::host::{nproc, peak_rss_mb, runqueue_wait_share, SchedSampler};
use crate::report::Report;
use crate::stats::{median, tail};
use crate::trace::{write_trace, Tracer};
use crate::trial::{layer_metrics, outcome_key, run_trial, Traced, TrialRun};
use crate::wrap::{traced_registry, LayerCounters};
use crate::Args;
use disp_core::scenario::{Registry, ScenarioSpec};
use disp_rng::mix;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SYNC_LABEL: &str = "line/k10000/rooted/sync/probe-dfs";
const ASYNC_LABEL: &str = "line/k10000/rooted/async-lag4/probe-dfs";

pub fn scale_line(args: &Args, report: &mut Report) -> Result<(), String> {
    let specs = [
        ScenarioSpec::from_label(SYNC_LABEL).map_err(|e| e.to_string())?,
        ScenarioSpec::from_label(ASYNC_LABEL).map_err(|e| e.to_string())?,
    ];
    // Every iteration repeats the same instance, so iterations differ only
    // by host noise and must agree exactly on their outcomes.
    let seed = mix(&[args.seed, 0x5CA1E]);
    let plain = Registry::builtin();
    let counters = Arc::new(LayerCounters::default());
    let registry = if args.trace {
        traced_registry(&counters)
    } else {
        Registry::builtin()
    };
    let tracer = Tracer::new();
    let sampler = SchedSampler::start(Duration::from_millis(25));
    let sched_before = sampler.totals();

    // Untraced, one lane per CPU runs the pair back to back, as the
    // campaign engine runs trials with `threads = nproc`: a slow stretch of
    // one CPU then moves half the samples, not all of them. The traced pass
    // keeps one lane, so its overhead compares like with like.
    let lanes = if args.trace { 1 } else { nproc() };
    let began = Instant::now();
    let deadline = began + Duration::from_secs_f64(args.seconds);
    let lane = || -> Result<Vec<(f64, [TrialRun; 2])>, String> {
        let mut iterations = Vec::new();
        while iterations.len() < 2 || Instant::now() < deadline {
            let iter_began = Instant::now();
            let mut pair = Vec::with_capacity(2);
            for spec in &specs {
                let traced = args.trace.then(|| Traced {
                    tracer: &tracer,
                    counters: &counters,
                    parent: 0,
                    group: tracer.new_id(),
                });
                // A run that hits its limit is an error: there is nothing to
                // time.
                pair.push(
                    run_trial(spec, &registry, seed, traced).map_err(|e| format!("{spec}: {e}"))?,
                );
            }
            let pair: [TrialRun; 2] = pair.try_into().expect("two trials");
            iterations.push((iter_began.elapsed().as_secs_f64(), pair));
        }
        Ok(iterations)
    };
    let per_lane = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes).map(|_| scope.spawn(lane)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scale-line lane panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let work_s = began.elapsed().as_secs_f64();
    let wait_share = runqueue_wait_share(sched_before, sampler.totals());
    let peak = peak_rss_mb(None).unwrap_or(0.0);
    sampler.stop();

    let first = &per_lane[0][0].1;
    for (_, pair) in per_lane.iter().flatten() {
        for (spec, (run, first)) in specs.iter().zip(pair.iter().zip(first)) {
            report.attempt(run.dispersed, || format!("{spec} did not disperse"));
            report.check(run.dispersed, || {
                format!("{spec} terminated without dispersing")
            });
            report.check(run.outcome == first.outcome, || {
                format!("{spec} outcome changed between iterations")
            });
        }
    }
    // Each lane's first iteration warms the allocator and the caches: its
    // outcome is checked, its times are not used.
    let timed: Vec<&[TrialRun; 2]> = per_lane
        .iter()
        .flat_map(|l| l[1..].iter().map(|(_, pair)| pair))
        .collect();
    let iteration_s: Vec<f64> = per_lane
        .iter()
        .flat_map(|l| l[1..].iter().map(|(s, _)| *s))
        .collect();

    // Reference: ScenarioSpec::run of the same seed, untraced, outside the
    // measured window.
    let mut reference_s = 0.0;
    let mut keys = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let t = Instant::now();
        let reference = spec.run(&plain, seed).map_err(|e| format!("{spec}: {e}"))?;
        reference_s += t.elapsed().as_secs_f64();
        let measured = &first[i].outcome;
        report.check(
            outcome_key(measured) == outcome_key(&reference.outcome),
            || format!("{spec}: outcome differs from ScenarioSpec::run"),
        );
        report.check(reference.dispersed, || {
            format!("{spec}: reference did not disperse")
        });
        keys.push(format!("{:?}", outcome_key(measured)));
    }
    report.info(
        "outcomes",
        format!("{{\"sync\":{:?},\"async\":{:?}}}", keys[0], keys[1]),
    );

    let sync_s: Vec<f64> = timed.iter().map(|r| r[0].total_ns as f64 / 1e9).collect();
    let async_s: Vec<f64> = timed.iter().map(|r| r[1].total_ns as f64 / 1e9).collect();
    let setup_s: Vec<f64> = timed
        .iter()
        .flat_map(|r| r.iter().map(|t| t.setup_ns as f64 / 1e9))
        .collect();
    let iteration_ms: Vec<f64> = iteration_s.iter().map(|s| s * 1e3).collect();
    let (tail_p, tail_ms) = tail(&iteration_ms);
    let lane_ms: Vec<f64> = per_lane
        .iter()
        .map(|l| median(&l[1..].iter().map(|(s, _)| s * 1e3).collect::<Vec<_>>()))
        .collect();
    report.info(
        "figures",
        format!(
            "{{\"iterations\":{},\"lane_iteration_ms\":{lane_ms:?},\"sync_trial_s\":{},\"async_trial_s\":{},\"tail_percentile\":{tail_p},\"reference_s\":{reference_s},\"runqueue_wait_share\":{wait_share}}}",
            timed.len(),
            median(&sync_s),
            median(&async_s),
        ),
    );
    if !args.trace {
        report.set("setup_s", median(&setup_s));
        report.set("peak_rss_mb", peak);
        // Completed trials per second over the whole run, summed over the
        // lanes: a median of per-iteration rates would flip between the
        // host's fast and slow stretches, the run's totals average them.
        let rate: f64 = per_lane
            .iter()
            .map(|l| {
                let l = &l[1..];
                2.0 * l.len() as f64 / l.iter().map(|(s, _)| s).sum::<f64>()
            })
            .sum();
        report.set("throughput_per_s", rate);
        report.set("latency_p50_ms", median(&iteration_ms));
        report.set("latency_tail_ms", tail_ms);
        return Ok(());
    }

    let trials: Vec<(&TrialRun, bool)> = timed
        .iter()
        .flat_map(|r| [(&r[0], false), (&r[1], true)])
        .collect();
    layer_metrics(report, &tracer, &counters.snapshot(), &trials);
    report.set("host.runqueue_wait_share", wait_share);
    report.set("trace.overhead", median(&iteration_s) / reference_s);
    report.set("work.units", timed.len() as f64);
    report.set("work.seconds", work_s);
    write_trace(args, &tracer)?;
    Ok(())
}
