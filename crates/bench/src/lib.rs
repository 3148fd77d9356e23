//! Shared pieces for the reproduction harness binaries (`table1`,
//! `figures`, `ablations`) and the `bench-gate` regression gate.
//!
//! The sweep machinery that used to live here moved into `disp-campaign`
//! (grids, seeds, the work-stealing engine) and `disp-analysis` (row
//! formatting); the re-exports below keep the old call sites working. What
//! remains local is [`gate`], the workloads and thresholds `bench-gate`
//! checks. Per-layer timings (graph build, protocol activations, the
//! adversary) come from the benchmark in `perfbench/`.

// `count-allocs` swaps in a counting global allocator, whose `GlobalAlloc`
// impl has no safe-Rust expression — that build carries the crate's single
// unsafe item (so `deny` + a scoped allow); every other build forbids
// unsafe entirely.
#![cfg_attr(not(feature = "count-allocs"), forbid(unsafe_code))]
#![cfg_attr(feature = "count-allocs", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod gate;

/// A counting global allocator (behind the `count-allocs` feature): every
/// heap allocation and reallocation in the process bumps one relaxed
/// counter, which the bench gate samples around a workload run to report
/// allocations-per-trial. Deallocation is deliberately not counted — the
/// gate tracks allocator pressure, and frees mirror allocs.
#[cfg(feature = "count-allocs")]
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// The system allocator with an allocation counter bolted on.
    pub struct CountingAllocator;

    #[allow(unsafe_code)]
    // SAFETY: pure delegation to `System`; the counter has no effect on
    // the returned pointers or layouts.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Allocations (+ reallocations) since process start.
    pub fn current() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn allocations_are_observed() {
            let before = super::current();
            let v: Vec<u64> = std::hint::black_box((0..4096).collect());
            assert!(super::current() > before);
            drop(v);
        }
    }
}

pub use disp_analysis::report::{measurement_header, measurement_row};
pub use disp_campaign::grid::{full_ks, quick_ks, section_points};

/// Minimal argument helpers shared by the harness binaries (they accept a
/// handful of `--flag value` pairs; anything richer lives in the
/// `disp-campaign` CLI).
pub mod cli {
    /// The value following `--name`, if present.
    pub fn flag_value(args: &[String], name: &str) -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    }

    /// `--threads N` if given and parseable, else the machine's available
    /// parallelism.
    pub fn threads(args: &[String]) -> usize {
        flag_value(args, "--threads")
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(4)
            })
    }

    /// `--seed S` if given and parseable, else 1.
    pub fn seed(args: &[String]) -> u64 {
        flag_value(args, "--seed")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disp_analysis::experiment::ExperimentPoint;
    use disp_core::scenario::{Registry, ScenarioSpec, Schedule};
    use disp_graph::generators::GraphFamily;
    use disp_sim::Placement;

    #[test]
    fn section_points_cover_the_grid() {
        let pts = section_points(
            &[GraphFamily::Line, GraphFamily::Star],
            &[16, 32],
            &["ks-dfs", "probe-dfs"],
            Placement::Rooted,
            Schedule::Sync,
            1,
        );
        assert_eq!(pts.len(), 2 * 2 * 2);
    }

    #[test]
    fn header_and_row_lengths_match() {
        let m = ExperimentPoint::new(ScenarioSpec::new(GraphFamily::Line, 16, "probe-dfs"), 1)
            .measure(&Registry::builtin());
        assert_eq!(measurement_row(&m).len(), measurement_header().len());
    }

    #[test]
    fn quick_ks_is_a_prefix_of_full_ks() {
        let quick = quick_ks();
        let full = full_ks();
        assert_eq!(&full[..quick.len()], &quick[..]);
    }
}
