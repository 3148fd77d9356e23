//! One trial, exactly as `ScenarioSpec::run` executes it, through public
//! calls: build, run configuration, fault plans, adversary, runner and
//! verification. Untraced, the build is `ScenarioSpec::build`; traced, it
//! is split into its layers (graph, placement, world, protocol) under the
//! same sub-seed derivation, and the protocol and adversary are wrapped.

use crate::report::Report;
use crate::trace::{layer_times, Tracer};
use crate::wrap::{ratio, Counts, LayerCounters, TracedAdversary};
use disp_analysis::TrialRecord;
use disp_core::scenario::{Registry, ScenarioError, ScenarioSpec};
use disp_core::verify;
use disp_rng::mix;
use disp_sim::adversary::Adversary;
use disp_sim::{
    AgentProtocol, AsyncRunner, CrashPlan, DynamicAdversary, Outcome, RunConfig, RunError,
    SyncRunner, World,
};
use std::sync::Arc;
use std::time::Instant;

/// The sub-seed tags of `disp_core::scenario` (part of its documented
/// reproducibility contract). A drift here shows up as an outcome mismatch
/// against `ScenarioSpec::run`, which every workload checks.
const SEED_GRAPH: u64 = 0xD15C_0001;
const SEED_PLACEMENT: u64 = 0xD15C_0002;
const SEED_ALGORITHM: u64 = 0xD15C_0004;

/// Where a traced trial records its spans and counts.
#[derive(Clone, Copy)]
pub struct Traced<'a> {
    pub tracer: &'a Tracer,
    pub counters: &'a Arc<LayerCounters>,
    /// The span this trial's root span hangs under (0 = none).
    pub parent: u64,
    /// The trial's group id.
    pub group: u64,
}

/// What one trial did and how long its phases took.
#[derive(Debug, Clone)]
pub struct TrialRun {
    pub outcome: Outcome,
    pub dispersed: bool,
    /// Nanoseconds before the runner starts (build + run preparation).
    pub setup_ns: u64,
    /// Nanoseconds inside the runner.
    pub run_ns: u64,
    /// Nanoseconds from the first build call to the end of verification.
    pub total_ns: u64,
    /// Edges of the instantiated graph.
    pub edges: usize,
}

/// Run `spec` under `seed`. `registry` must be the traced registry when
/// `traced` is set, so the protocol is wrapped too.
pub fn run_trial(
    spec: &ScenarioSpec,
    registry: &Registry,
    seed: u64,
    traced: Option<Traced<'_>>,
) -> Result<TrialRun, String> {
    match traced {
        None => run_phases(spec, registry, seed, None),
        Some(t) => t.tracer.span(t.parent, t.group, "trial", |id| {
            run_phases(spec, registry, seed, Some(Traced { parent: id, ..t }))
        }),
    }
}

fn run_phases(
    spec: &ScenarioSpec,
    registry: &Registry,
    seed: u64,
    traced: Option<Traced<'_>>,
) -> Result<TrialRun, String> {
    let begun = Instant::now();
    let (mut world, mut protocol) = match traced {
        None => spec.build(registry, seed).map_err(|e| e.to_string())?,
        Some(_) => build_in_layers(spec, registry, seed, traced)?,
    };
    let config = spec.run_config(&world);
    let (dynamics, crashes) = spec.build_faults(world.num_agents(), seed);
    let adversary = in_span(traced, "sim.adversary_init", || {
        spec.build_adversary(world.num_agents(), seed)
    });
    let setup_ns = begun.elapsed().as_nanos() as u64;

    let run_began = Instant::now();
    let result = in_span(traced, "sim.run", || match (adversary, traced) {
        (None, _) => run_sync(config, dynamics, crashes, &mut world, protocol.as_mut()),
        (Some(a), None) => run_async(config, a, dynamics, crashes, &mut world, protocol.as_mut()),
        (Some(a), Some(t)) => run_async(
            config,
            TracedAdversary::new(a, t.counters),
            dynamics,
            crashes,
            &mut world,
            protocol.as_mut(),
        ),
    });
    let run_ns = run_began.elapsed().as_nanos() as u64;
    let outcome = result.map_err(|e| ScenarioError::from(e).to_string())?;
    let dispersed = in_span(traced, "core.verify", || {
        verify::is_dispersed_at(&world, spec.min_distance)
    });
    let total_ns = begun.elapsed().as_nanos() as u64;
    // Drop the protocol (flushing its counters) before reporting.
    drop(protocol);
    Ok(TrialRun {
        outcome,
        dispersed,
        setup_ns,
        run_ns,
        total_ns,
        edges: world.graph().num_edges(),
    })
}

/// Run `f` inside a span named `name` when tracing.
fn in_span<R>(traced: Option<Traced<'_>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match traced {
        Some(t) => t.tracer.span(t.parent, t.group, name, |_| f()),
        None => f(),
    }
}

/// `ScenarioSpec::build`, one layer at a time.
fn build_in_layers(
    spec: &ScenarioSpec,
    registry: &Registry,
    seed: u64,
    traced: Option<Traced<'_>>,
) -> Result<(World, Box<dyn AgentProtocol>), String> {
    spec.validate(registry).map_err(|e| e.to_string())?;
    let factory = registry.get(&spec.algorithm).expect("validated");
    let n_target = ((spec.k as f64 / spec.occupancy).ceil() as usize).max(spec.k);
    let graph = in_span(traced, "graph.build", || {
        spec.family
            .instantiate_topology(n_target, mix(&[seed, SEED_GRAPH]))
    });
    let k = spec.k.min(graph.num_nodes());
    let positions = in_span(traced, "sim.placement", || {
        spec.placement
            .positions(&graph, k, mix(&[seed, SEED_PLACEMENT]))
    });
    let world = in_span(traced, "sim.world_init", || World::new(graph, positions));
    let protocol = in_span(traced, "core.protocol_init", || {
        factory.build(&world, &spec.params, mix(&[seed, SEED_ALGORITHM]))
    });
    Ok((world, protocol))
}

fn run_sync(
    config: RunConfig,
    dynamics: Option<DynamicAdversary>,
    crashes: Option<CrashPlan>,
    world: &mut World,
    protocol: &mut dyn AgentProtocol,
) -> Result<Outcome, RunError> {
    let mut runner = SyncRunner::new(config);
    if let Some(d) = dynamics {
        runner = runner.with_dynamics(d);
    }
    if let Some(c) = crashes {
        runner = runner.with_crashes(c);
    }
    runner.run(world, protocol)
}

fn run_async<A: Adversary>(
    config: RunConfig,
    adversary: A,
    dynamics: Option<DynamicAdversary>,
    crashes: Option<CrashPlan>,
    world: &mut World,
    protocol: &mut dyn AgentProtocol,
) -> Result<Outcome, RunError> {
    let mut runner = AsyncRunner::new(config, adversary);
    if let Some(d) = dynamics {
        runner = runner.with_dynamics(d);
    }
    if let Some(c) = crashes {
        runner = runner.with_crashes(c);
    }
    runner.run(world, protocol)
}

/// The outcome fields a traced run must reproduce exactly.
pub fn outcome_key(o: &Outcome) -> [u64; 5] {
    [o.rounds, o.epochs, o.steps, o.activations, o.total_moves]
}

/// Per-trial means of every sim/core/graph layer metric over `trials`
/// (each flagged async or not), from the spans and counters of a traced
/// pass.
pub fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    counts: &Counts,
    trials: &[(&TrialRun, bool)],
) {
    let spans = tracer.spans();
    let times = layer_times(&spans);
    let n = trials.len().max(1) as f64;
    let per_trial_ms = |name: &str| times.get(name).map_or(0.0, |t| t.0 as f64 / 1e6 / n);
    report.set("graph.build_ms", per_trial_ms("graph.build"));
    report.set("sim.placement_ms", per_trial_ms("sim.placement"));
    report.set("sim.world_init_ms", per_trial_ms("sim.world_init"));
    report.set("sim.adversary_init_ms", per_trial_ms("sim.adversary_init"));
    report.set("core.protocol_init_ms", per_trial_ms("core.protocol_init"));
    report.set("core.verify_ms", per_trial_ms("core.verify"));
    // Run time split by the sampled share of the call-to-call interval:
    // protocol over every trial's run, adversary over the ASYNC runs.
    let run_total_ms: f64 = trials.iter().map(|(t, _)| t.run_ns as f64 / 1e6).sum();
    let run_ms = run_total_ms / n;
    report.set("sim.run_ms", run_ms);
    let async_run_ms: f64 = trials
        .iter()
        .filter(|(_, a)| *a)
        .map(|(t, _)| t.run_ns as f64 / 1e6)
        .sum();
    let activate_ms = counts.activate.share() * run_total_ms / n;
    let adversary_ms = counts.adversary.share() * async_run_ms / n;
    report.set("sim.runner_self_ms", run_ms - activate_ms - adversary_ms);
    report.set("sim.adversary_ms", adversary_ms);
    report.set("core.activate_ns", counts.activate.latency_ns());
    report.set("sim.activations_executed", counts.activate.calls as f64 / n);
    let credited: u64 = trials.iter().map(|(t, _)| t.outcome.activations).sum();
    report.set("sim.activations_credited", credited as f64 / n);
    report.set(
        "sim.activations_executed_per_credited",
        ratio(counts.activate.calls, credited),
    );
    report.set("sim.adversary_calls", counts.adversary.calls as f64 / n);
    report.set(
        "sim.adversary_batch_mean",
        ratio(counts.adversary_scheduled, counts.adversary.calls),
    );
    let mean =
        |f: &dyn Fn(&TrialRun) -> u64| trials.iter().map(|(t, _)| f(t)).sum::<u64>() as f64 / n;
    report.set("sim.rounds", mean(&|t| t.outcome.rounds));
    report.set("sim.epochs", mean(&|t| t.outcome.epochs));
    report.set("sim.moves", mean(&|t| t.outcome.total_moves));
    report.set("graph.edges", mean(&|t| t.edges as u64));
    let kind_ms = |want_async: bool| {
        let walls: Vec<f64> = trials
            .iter()
            .filter(|(_, a)| *a == want_async)
            .map(|(t, _)| t.total_ns as f64 / 1e6)
            .collect();
        if walls.is_empty() {
            0.0
        } else {
            walls.iter().sum::<f64>() / walls.len() as f64
        }
    };
    report.set("sim.sync_trial_ms", kind_ms(false));
    report.set("sim.async_trial_ms", kind_ms(true));
    if let Some(&(total, own)) = times.get("trial") {
        report.set("sim.trial_unattributed_share", ratio(own, total));
    }
    report.set("work.trials", trials.len() as f64);
    report.set("trace.spans", spans.len() as f64);
}

/// Re-run `records` one by one through the layer-split traced trial and
/// check each outcome against its record.
pub fn replay_trials(
    records: &[TrialRecord],
    registry: &Registry,
    tracer: &Tracer,
    counters: &Arc<LayerCounters>,
    report: &mut Report,
) -> Result<Vec<(TrialRun, bool)>, String> {
    let mut out = Vec::with_capacity(records.len());
    for r in records {
        let traced = Traced {
            tracer,
            counters,
            parent: 0,
            group: tracer.new_id(),
        };
        let spec = &r.point.scenario;
        let run = run_trial(spec, registry, r.seed, Some(traced))
            .map_err(|e| format!("replaying {}: {e}", r.trial_id()))?;
        report.check(
            run.outcome == r.outcome && run.dispersed == r.dispersed,
            || {
                format!(
                    "{}: traced replay differs from the engine's record",
                    r.trial_id()
                )
            },
        );
        out.push((run, spec.schedule.is_async()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrap::traced_registry;

    /// The wrapped, layer-split path must reproduce `ScenarioSpec::run`
    /// field for field on small scenarios of every schedule, placement and
    /// fault kind.
    #[test]
    fn wrappers_leave_outcomes_unchanged() {
        let counters = Arc::new(LayerCounters::default());
        let traced_reg = traced_registry(&counters);
        let plain = Registry::builtin();
        let tracer = Tracer::new();
        for label in [
            "line/k200/rooted/sync/probe-dfs",
            "line/k200/rooted/async-lag4/probe-dfs",
            "ring/k128/rooted/async-rand0.7/ks-dfs",
            "er6/k64/occ0.5/scatter/async-rand0.7/ks-dfs",
            "ring/k64/rooted/sync/dyn-ring1/probe-dfs",
            "grid/k64/rooted/sync/sync-seeker",
        ] {
            let spec = ScenarioSpec::from_label(label).unwrap();
            for seed in [1, 7] {
                let reference = spec.run(&plain, seed).unwrap();
                let untraced = run_trial(&spec, &plain, seed, None).unwrap();
                let traced = run_trial(
                    &spec,
                    &traced_reg,
                    seed,
                    Some(Traced {
                        tracer: &tracer,
                        counters: &counters,
                        parent: 0,
                        group: seed,
                    }),
                )
                .unwrap();
                assert_eq!(untraced.outcome, reference.outcome, "{label} untraced");
                assert_eq!(traced.outcome, reference.outcome, "{label} traced");
                assert_eq!(traced.dispersed, reference.dispersed, "{label}");
                assert!(reference.dispersed, "{label}");
            }
        }
        let counts = counters.snapshot();
        assert!(counts.activate.calls > 0 && counts.adversary.calls > 0);
        assert!(counts.activate.timed > 0 && counts.activate.gaps > 0 && counts.activate.empty > 0);
        let share = counts.activate.share();
        assert!(share > 0.0 && share < 1.0, "{share}");
        assert!(counts.protocol_inits == 12);
        // Every traced trial recorded its layer spans under one root.
        let names: std::collections::BTreeSet<_> = tracer.spans().iter().map(|s| s.name).collect();
        for n in [
            "trial",
            "graph.build",
            "sim.placement",
            "sim.world_init",
            "core.protocol_init",
            "sim.run",
            "core.verify",
        ] {
            assert!(names.contains(n), "missing span {n}");
        }
    }
}
