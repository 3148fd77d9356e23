//! Delegating wrappers around the algorithm registry, the protocols it
//! builds and the adversaries the scenario builds. Every call is counted;
//! a fixed 1-in-[`SAMPLE_EVERY`] sample of `on_activate` and `next_step`
//! calls is timed (timing every activation would more than double a
//! 10^6-agent SYNC run). The wrappers forward every trait method, so a
//! wrapped run takes exactly the path an unwrapped one does.

use disp_core::extras::random_walk::RandomWalkFactory;
use disp_core::scenario::{
    AlgorithmFactory, KsDfsFactory, Params, ProbeDfsFactory, Registry, SyncSeekerFactory,
};
use disp_sim::adversary::{Adversary, AdversaryError, StepView};
use disp_sim::{ActivationCtx, AgentId, AgentProtocol, World};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// Nanoseconds since `begun`.
fn since_ns(begun: Instant) -> u64 {
    begun.elapsed().as_nanos() as u64
}

/// Plain totals of one kind of call (`on_activate` or `next_step`).
///
/// Every [`SAMPLE_EVERY`]-th call is timed, and so is the gap from its end
/// to the start of the next call; half-way between, an empty region is
/// timed the same way. The clock serializes the pipeline, so a timed call
/// reads as its isolated latency, longer than its share of a run in which
/// calls overlap; the gap reads long in the same way. The call's share of
/// the call-to-call interval, each side less the clock cost measured in
/// place, is what [`CallCounts::share`] reports.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CallCounts {
    pub calls: u64,
    pub timed: u64,
    pub timed_ns: u64,
    pub gaps: u64,
    pub gap_ns: u64,
    pub empty: u64,
    pub empty_ns: u64,
}

impl CallCounts {
    fn clock_ns(&self) -> f64 {
        ratio(self.empty_ns, self.empty)
    }

    /// Mean sampled latency of one call, clock cost subtracted.
    pub fn latency_ns(&self) -> f64 {
        (ratio(self.timed_ns, self.timed) - self.clock_ns()).max(0.0)
    }

    /// The calls' share of the time between consecutive calls.
    pub fn share(&self) -> f64 {
        let inside = self.latency_ns();
        let gap = (ratio(self.gap_ns, self.gaps) - self.clock_ns()).max(0.0);
        if inside + gap == 0.0 {
            0.0
        } else {
            inside / (inside + gap)
        }
    }

    fn fields(&self) -> [u64; 7] {
        [
            self.calls,
            self.timed,
            self.timed_ns,
            self.gaps,
            self.gap_ns,
            self.empty,
            self.empty_ns,
        ]
    }
}

/// The sampling timer a wrapper owns for its calls.
#[derive(Debug, Default)]
struct Sampler {
    counts: CallCounts,
    /// End of the last timed call, while the next call has not started.
    last_end: Option<Instant>,
}

impl Sampler {
    fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let c = &mut self.counts;
        c.calls += 1;
        if let Some(end) = self.last_end.take() {
            c.gap_ns += since_ns(end);
            c.gaps += 1;
        }
        match c.calls % SAMPLE_EVERY {
            0 => {
                let begun = Instant::now();
                let out = f();
                let end = Instant::now();
                self.counts.timed_ns += (end - begun).as_nanos() as u64;
                self.counts.timed += 1;
                self.last_end = Some(end);
                out
            }
            n if n == SAMPLE_EVERY / 2 => {
                let begun = Instant::now();
                std::hint::black_box(());
                c.empty_ns += since_ns(begun);
                c.empty += 1;
                f()
            }
            _ => f(),
        }
    }
}

/// Shared atomic totals of one kind of call.
#[derive(Debug, Default)]
pub struct CallStats([AtomicU64; 7]);

impl CallStats {
    fn add(&self, c: &CallCounts) {
        for (total, value) in self.0.iter().zip(c.fields()) {
            add(total, value);
        }
    }

    fn snapshot(&self) -> CallCounts {
        let [calls, timed, timed_ns, gaps, gap_ns, empty, empty_ns] =
            self.0.each_ref().map(|a| a.load(Ordering::Relaxed));
        CallCounts {
            calls,
            timed,
            timed_ns,
            gaps,
            gap_ns,
            empty,
            empty_ns,
        }
    }
}

/// Counters shared by every wrapper of one registry. Protocol and
/// adversary wrappers count locally and add their totals when dropped, so
/// the hot path touches no atomics.
#[derive(Debug, Default)]
pub struct LayerCounters {
    /// Protocols built.
    pub protocol_inits: AtomicU64,
    /// Nanoseconds spent in `AlgorithmFactory::build`.
    pub protocol_init_ns: AtomicU64,
    /// `on_activate` calls.
    pub activate: CallStats,
    /// `next_step` calls.
    pub adversary: CallStats,
    /// Agents scheduled by all `next_step` calls.
    pub adversary_scheduled: AtomicU64,
}

/// A plain snapshot of [`LayerCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    pub protocol_inits: u64,
    pub protocol_init_ns: u64,
    pub activate: CallCounts,
    pub adversary: CallCounts,
    pub adversary_scheduled: u64,
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl LayerCounters {
    /// Read every counter.
    pub fn snapshot(&self) -> Counts {
        Counts {
            protocol_inits: self.protocol_inits.load(Ordering::Relaxed),
            protocol_init_ns: self.protocol_init_ns.load(Ordering::Relaxed),
            activate: self.activate.snapshot(),
            adversary: self.adversary.snapshot(),
            adversary_scheduled: self.adversary_scheduled.load(Ordering::Relaxed),
        }
    }
}

fn add(counter: &AtomicU64, value: u64) {
    counter.fetch_add(value, Ordering::Relaxed);
}

/// The built-in registry with every factory wrapped, in the built-in
/// registration order.
pub fn traced_registry(counters: &Arc<LayerCounters>) -> Registry {
    let wrap = |inner: Box<dyn AlgorithmFactory>| TracedFactory {
        inner,
        counters: Arc::clone(counters),
    };
    Registry::empty()
        .with(wrap(Box::new(KsDfsFactory)))
        .with(wrap(Box::new(ProbeDfsFactory)))
        .with(wrap(Box::new(SyncSeekerFactory)))
        .with(wrap(Box::new(RandomWalkFactory)))
}

/// An [`AlgorithmFactory`] that times `build` and wraps what it builds.
pub struct TracedFactory {
    inner: Box<dyn AlgorithmFactory>,
    counters: Arc<LayerCounters>,
}

impl AlgorithmFactory for TracedFactory {
    fn label(&self) -> &'static str {
        self.inner.label()
    }
    fn supports_general(&self) -> bool {
        self.inner.supports_general()
    }
    fn supports_async(&self) -> bool {
        self.inner.supports_async()
    }
    fn supports_dynamic(&self) -> bool {
        self.inner.supports_dynamic()
    }
    fn supports_crash(&self) -> bool {
        self.inner.supports_crash()
    }
    fn default_params(&self) -> Params {
        self.inner.default_params()
    }
    fn build(&self, world: &World, params: &Params, seed: u64) -> Box<dyn AgentProtocol> {
        let begun = Instant::now();
        let inner = self.inner.build(world, params, seed);
        add(
            &self.counters.protocol_init_ns,
            begun.elapsed().as_nanos() as u64,
        );
        add(&self.counters.protocol_inits, 1);
        Box::new(TracedProtocol {
            inner,
            sampler: Sampler::default(),
            counters: Arc::clone(&self.counters),
        })
    }
}

/// An [`AgentProtocol`] that counts every activation and times a sample.
pub struct TracedProtocol {
    inner: Box<dyn AgentProtocol>,
    sampler: Sampler,
    counters: Arc<LayerCounters>,
}

impl AgentProtocol for TracedProtocol {
    fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        let inner = &mut self.inner;
        self.sampler.call(|| inner.on_activate(agent, ctx));
    }
    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }
    fn is_settled(&self, agent: AgentId) -> bool {
        self.inner.is_settled(agent)
    }
    fn on_crash(&mut self, agent: AgentId) {
        self.inner.on_crash(agent)
    }
    fn memory_bits(&self, agent: AgentId) -> usize {
        self.inner.memory_bits(agent)
    }
    fn max_memory_bits(&self) -> Option<usize> {
        self.inner.max_memory_bits()
    }
    fn class_counts(&self, out: &mut Vec<(&'static str, u32)>) {
        self.inner.class_counts(out)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Drop for TracedProtocol {
    fn drop(&mut self) {
        self.counters.activate.add(&self.sampler.counts);
    }
}

/// An [`Adversary`] that counts every `next_step` call and the agents it
/// schedules, and times a sample of the calls.
pub struct TracedAdversary {
    inner: Box<dyn Adversary>,
    sampler: Sampler,
    scheduled: u64,
    counters: Arc<LayerCounters>,
}

impl TracedAdversary {
    /// Wrap `inner`, reporting into `counters`.
    pub fn new(inner: Box<dyn Adversary>, counters: &Arc<LayerCounters>) -> TracedAdversary {
        TracedAdversary {
            inner,
            sampler: Sampler::default(),
            scheduled: 0,
            counters: Arc::clone(counters),
        }
    }
}

impl Adversary for TracedAdversary {
    fn next_step(
        &mut self,
        view: &StepView<'_>,
        out: &mut Vec<AgentId>,
    ) -> Result<u64, AdversaryError> {
        let inner = &mut self.inner;
        let result = self.sampler.call(|| inner.next_step(view, out));
        if result.is_ok() {
            self.scheduled += out.len() as u64;
        }
        result
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Drop for TracedAdversary {
    fn drop(&mut self) {
        add(&self.counters.adversary_scheduled, self.scheduled);
        self.counters.adversary.add(&self.sampler.counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_registry_mirrors_the_builtin_one() {
        let counters = Arc::new(LayerCounters::default());
        let traced = traced_registry(&counters);
        let builtin = Registry::builtin();
        assert_eq!(traced.labels(), builtin.labels());
        for label in builtin.labels() {
            let (a, b) = (traced.get(label).unwrap(), builtin.get(label).unwrap());
            assert_eq!(a.supports_general(), b.supports_general());
            assert_eq!(a.supports_async(), b.supports_async());
            assert_eq!(a.supports_dynamic(), b.supports_dynamic());
            assert_eq!(a.supports_crash(), b.supports_crash());
            assert_eq!(a.default_params(), b.default_params());
        }
    }
}
