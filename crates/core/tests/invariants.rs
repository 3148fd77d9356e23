//! The every-step invariant harness.
//!
//! A seeded grid over every registered algorithm × placement family ×
//! schedule family, asserting **at every step** — via a wrapper protocol
//! that observes each activation — the safety invariant *"no two settled
//! agents share a node"*, and at termination a valid dispersion plus the
//! paper's step/round and memory envelopes. This is the oracle that must
//! catch any regression the flat-state engine (worklist, cohorts, implicit
//! topologies) introduces: every settlement, recruit, see-off and cohort
//! move passes through an activation at the affected node, so checking the
//! activated agent's node each step observes every way a collision can come
//! into existence.
//!
//! Two test-of-the-test hooks prove the oracle has teeth (see `Cargo.toml`):
//! with `inject-collision`, `probe-dfs` deliberately settles a second agent
//! on an occupied node and the harness must panic at that step; with
//! `inject-orphan`, the verifier keeps counting crashed agents' positions
//! and the harness must flag the survivor that re-settles an orphaned node.
//! CI runs `cargo test -p disp-core --features <hook> --test invariants`
//! for both.

use disp_core::extras::spacer::SpacerFactory;
use disp_core::scenario::{Registry, ScenarioSpec};
use disp_graph::generators::GraphFamily;
use disp_sim::{ActivationCtx, AgentId, AgentProtocol, AsyncRunner, Outcome, SyncRunner, World};
// The grid tests are compiled out under the injection hooks; each hook's
// own test keeps what it uses.
#[cfg(any(feature = "inject-orphan", not(feature = "inject-collision")))]
use disp_core::verify::{check_dispersion, check_dispersion_at};
#[cfg(not(any(feature = "inject-collision", feature = "inject-orphan")))]
use disp_core::{scenario::Schedule, verify::envelope};
#[cfg(not(any(feature = "inject-collision", feature = "inject-orphan")))]
use disp_rng::mix;
#[cfg(any(feature = "inject-orphan", not(feature = "inject-collision")))]
use disp_sim::Placement;

/// Wraps a protocol and checks the settled-collision safety invariant after
/// every single activation (the "trace hook" of the harness).
struct InvariantChecked {
    inner: Box<dyn AgentProtocol>,
    checks: u64,
}

impl AgentProtocol for InvariantChecked {
    fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        self.inner.on_activate(agent, ctx);
        // Safety: at most one settled agent on the activated agent's node.
        // Settled agents never ride cohorts, so the concrete occupancy list
        // sees all of them.
        let settled: Vec<AgentId> = ctx
            .agents_here()
            .filter(|&a| self.inner.is_settled(a))
            .collect();
        assert!(
            settled.len() <= 1,
            "safety violation at time {}: {} settled agents share node {} after activating {agent}: {settled:?}",
            ctx.time(),
            settled.len(),
            ctx.node(),
        );
        self.checks += 1;
    }

    fn on_crash(&mut self, agent: AgentId) {
        // Forward faults: the inner protocol must retract the corpse's
        // claims or termination never comes.
        self.inner.on_crash(agent);
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }

    fn is_settled(&self, agent: AgentId) -> bool {
        self.inner.is_settled(agent)
    }

    fn memory_bits(&self, agent: AgentId) -> usize {
        self.inner.memory_bits(agent)
    }

    fn name(&self) -> &'static str {
        "invariant-checked"
    }
}

// `random-walk` is builtin now; `spacer` rides along for the fault-world
// grid (it is ring-only, so `grid_specs` never selects it — its specs are
// added explicitly below).
fn registry() -> Registry {
    Registry::builtin().with(SpacerFactory)
}

/// Run `spec` under `seed` with the every-step checker attached. Built
/// through [`ScenarioSpec::build`], so the harness exercises exactly the
/// instances (graph/placement/algorithm sub-seeds and all) that campaigns
/// run, while keeping the `World` so the caller can verify the final
/// configuration.
fn run_checked(spec: &ScenarioSpec, registry: &Registry, seed: u64) -> (Outcome, World, u64) {
    let (mut world, inner) = spec.build(registry, seed).expect("grid specs are valid");
    let mut protocol = InvariantChecked { inner, checks: 0 };
    let config = spec.run_config(&world);
    let (dynamics, crashes) = spec.build_faults(world.num_agents(), seed);
    let outcome = match spec.build_adversary(world.num_agents(), seed) {
        None => {
            let mut runner = SyncRunner::new(config);
            if let Some(d) = dynamics {
                runner = runner.with_dynamics(d);
            }
            if let Some(c) = crashes {
                runner = runner.with_crashes(c);
            }
            runner
                .run(&mut world, &mut protocol)
                .expect("grid runs must terminate")
        }
        Some(adversary) => {
            let mut runner = AsyncRunner::new(config, adversary);
            if let Some(d) = dynamics {
                runner = runner.with_dynamics(d);
            }
            if let Some(c) = crashes {
                runner = runner.with_crashes(c);
            }
            runner
                .run(&mut world, &mut protocol)
                .expect("grid runs must terminate")
        }
    };
    (outcome, world, protocol.checks)
}

#[cfg(not(any(feature = "inject-collision", feature = "inject-orphan")))]
fn grid_specs() -> Vec<ScenarioSpec> {
    let families = [
        GraphFamily::Line,
        GraphFamily::Star,
        GraphFamily::RandomTree,
        GraphFamily::ErdosRenyi { avg_degree: 6.0 },
        GraphFamily::Torus,
        GraphFamily::Complete,
    ];
    let placements = Placement::all();
    let schedules = [
        Schedule::Sync,
        Schedule::AsyncRoundRobin,
        Schedule::AsyncRandom { prob: 0.6, seed: 0 },
        Schedule::AsyncLagging {
            max_lag: 3,
            seed: 0,
        },
        Schedule::AsyncTargeted { max_lag: 3 },
    ];
    let registry = registry();
    let mut specs = Vec::new();
    for family in families {
        for algorithm in registry.labels() {
            // spacer is ring-only — enforced by construction-time asserts,
            // not `validate` — and the grid has no ring family; its specs
            // live in `fault_world_specs`.
            if algorithm == "spacer" {
                continue;
            }
            for &placement in &placements {
                for schedule in schedules {
                    let mut spec = ScenarioSpec::new(family, 18, algorithm)
                        .with_placement(placement)
                        .with_schedule(schedule);
                    if !placement.is_rooted() {
                        // Give non-rooted starts room to actually collide.
                        spec = spec.with_occupancy(0.5);
                    }
                    if spec.validate(&registry).is_ok() {
                        specs.push(spec);
                    }
                }
            }
        }
    }
    specs
}

/// Fault-world scenarios: the dynamic-ring adversary, crash plans, and the
/// distance-k predicate, across the schedule families. Kept separate from
/// [`grid_specs`] because faults are ring-only and stretch run time past
/// the paper's fault-free envelopes.
#[cfg(not(any(feature = "inject-collision", feature = "inject-orphan")))]
fn fault_world_specs() -> Vec<ScenarioSpec> {
    let registry = registry();
    let schedules = [
        Schedule::Sync,
        Schedule::AsyncRoundRobin,
        Schedule::AsyncRandom { prob: 0.6, seed: 0 },
        Schedule::AsyncLagging {
            max_lag: 3,
            seed: 0,
        },
    ];
    let mut specs = Vec::new();
    for schedule in schedules {
        // One ring edge down per round, restored the next (arXiv 2408.12220).
        specs.push(
            ScenarioSpec::new(GraphFamily::Ring, 18, "probe-dfs")
                .with_schedule(schedule)
                .with_dynamic_ring(1),
        );
        // Crash faults from a scattered start: orphaned nodes re-settle.
        specs.push(
            ScenarioSpec::new(GraphFamily::Ring, 18, "random-walk")
                .with_placement(Placement::ScatteredUniform)
                .with_occupancy(0.5)
                .with_schedule(schedule)
                .with_crashes(4),
        );
        // Edge churn and crashes at once.
        specs.push(
            ScenarioSpec::new(GraphFamily::Ring, 18, "random-walk")
                .with_occupancy(0.5)
                .with_schedule(schedule)
                .with_dynamic_ring(1)
                .with_crashes(3),
        );
        // Distance-2 dispersion under churn (spacer is the positive oracle).
        specs.push(
            ScenarioSpec::new(GraphFamily::Ring, 12, "spacer")
                .with_occupancy(0.25)
                .with_schedule(schedule)
                .with_dynamic_ring(1)
                .with_min_distance(2),
        );
    }
    specs.retain(|s| s.validate(&registry).is_ok());
    specs
}

#[cfg(not(any(feature = "inject-collision", feature = "inject-orphan")))]
fn check_envelopes(spec: &ScenarioSpec, outcome: &Outcome) {
    assert!(
        envelope::memory_logarithmic(outcome, 36.0),
        "{spec}: peak {} bits is not O(log(k+Δ))",
        outcome.peak_memory_bits
    );
    match spec.algorithm.as_str() {
        "probe-dfs" | "sync-seeker" => assert!(
            envelope::within_k_log_k(outcome, 80.0),
            "{spec}: time {} exceeds the O(k log k) envelope",
            outcome.time()
        ),
        "ks-dfs" => assert!(
            envelope::within_min_m_k_delta(outcome, 80.0),
            "{spec}: time {} exceeds the O(min{{m, kΔ}}) envelope",
            outcome.time()
        ),
        // The random walk is a correctness guinea pig; its time is
        // cover-time-ish by design and deliberately unbounded here.
        _ => {}
    }
}

#[cfg(not(any(feature = "inject-collision", feature = "inject-orphan")))]
#[test]
fn every_algorithm_placement_schedule_combination_holds_the_invariant() {
    let registry = registry();
    let specs = grid_specs();
    assert!(specs.len() >= 100, "grid too small: {}", specs.len());
    let mut total_checks = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        for rep in 0..2u64 {
            let seed = mix(&[0x0117_C0DE, i as u64, rep]);
            let (outcome, world, checks) = run_checked(spec, &registry, seed);
            assert!(outcome.terminated, "{spec} seed {seed}");
            check_dispersion(&world)
                .unwrap_or_else(|v| panic!("{spec} seed {seed}: final config invalid: {v}"));
            check_envelopes(spec, &outcome);
            assert!(checks > 0, "{spec}: the step hook never fired");
            total_checks += checks;
        }
    }
    // The harness really did observe every executed activation.
    assert!(
        total_checks > 100_000,
        "only {total_checks} step checks ran"
    );
}

#[cfg(not(any(feature = "inject-collision", feature = "inject-orphan")))]
#[test]
fn fault_worlds_hold_the_invariant_and_disperse() {
    let registry = registry();
    let specs = fault_world_specs();
    assert!(specs.len() >= 16, "fault grid too small: {}", specs.len());
    for (i, spec) in specs.iter().enumerate() {
        for rep in 0..2u64 {
            let seed = mix(&[0xFA17_C0DE, i as u64, rep]);
            let (outcome, world, checks) = run_checked(spec, &registry, seed);
            assert!(outcome.terminated, "{spec} seed {seed}");
            check_dispersion_at(&world, spec.min_distance).unwrap_or_else(|v| {
                panic!("{spec} seed {seed}: final fault-world config invalid: {v}")
            });
            // Fault worlds still satisfy the memory envelope; the time
            // envelopes do not apply (the adversary stretches runs at will).
            assert!(
                envelope::memory_logarithmic(&outcome, 36.0),
                "{spec}: peak {} bits is not O(log(k+Δ))",
                outcome.peak_memory_bits
            );
            assert!(checks > 0, "{spec}: the step hook never fired");
        }
    }
}

#[cfg(not(any(feature = "inject-collision", feature = "inject-orphan")))]
#[test]
fn fault_worlds_are_seed_deterministic() {
    // Same spec + same seed must reproduce the exact outcome even with the
    // adversary flipping edges and the crash plan killing agents mid-run.
    let registry = registry();
    for spec in fault_world_specs().iter().take(4) {
        let (a, _, _) = run_checked(spec, &registry, 0xD1E5);
        let (b, _, _) = run_checked(spec, &registry, 0xD1E5);
        assert_eq!(a, b, "{spec}: fault injection must be seed-determined");
    }
}

#[cfg(not(any(feature = "inject-collision", feature = "inject-orphan")))]
#[test]
fn worklist_parking_is_observably_equivalent_to_full_scans() {
    // The flat engine credits parked agents instead of activating them;
    // rounds/epochs/activations/moves must all look as if everyone had been
    // activated. Spot-check the strongest observable: a SYNC run's
    // activation count is exactly k · rounds even though most agents spend
    // the run parked (settled or riding).
    let registry = registry();
    for algorithm in ["probe-dfs", "ks-dfs", "sync-seeker"] {
        let spec = ScenarioSpec::new(GraphFamily::RandomTree, 24, algorithm);
        let (outcome, _, _) = run_checked(&spec, &registry, 9);
        assert_eq!(
            outcome.activations,
            outcome.rounds * 24,
            "{algorithm}: credited activations must equal k · rounds"
        );
    }
}

/// The test-of-the-test: with the `inject-collision` feature enabled,
/// `probe-dfs` deliberately double-settles a node; the harness must abort at
/// that exact step (not at termination).
#[cfg(feature = "inject-collision")]
#[test]
fn harness_catches_the_injected_collision() {
    let registry = registry();
    let spec = ScenarioSpec::new(GraphFamily::Line, 12, "probe-dfs");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_checked(&spec, &registry, 5)
    }));
    let err = result.expect_err("the invariant harness missed the injected collision");
    let message = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("settled agents share node"),
        "unexpected panic message: {message}"
    );
}

/// The crash-side test-of-the-test: with `inject-orphan` enabled, the
/// verifier keeps counting crashed agents' final positions, so a survivor
/// re-settling an orphaned node must surface as a collision.
#[cfg(feature = "inject-orphan")]
#[test]
fn harness_catches_the_orphaned_resettlement() {
    let registry = registry();
    // A full ring (k = n) with four crashes: the survivors have to reuse
    // corpse nodes, so the orphan-counting verifier must object. The seed
    // pins a run where that reuse happens.
    let spec = ScenarioSpec::new(GraphFamily::Ring, 12, "random-walk")
        .with_placement(Placement::ScatteredUniform)
        .with_occupancy(1.0)
        .with_crashes(4);
    let (outcome, world, _) = run_checked(&spec, &registry, 3);
    assert!(outcome.terminated);
    let err =
        check_dispersion(&world).expect_err("inject-orphan must flag the re-settled corpse node");
    assert!(
        matches!(
            err,
            disp_core::verify::DispersionViolation::Collision { .. }
        ),
        "expected an orphan collision, got: {err}"
    );
    // The same configuration is legal once corpses stop counting, which is
    // exactly what the injected bug suppresses — checked from the other
    // side by `fault_worlds_hold_the_invariant_and_disperse`.
    let _ = check_dispersion_at(&world, spec.min_distance);
}
