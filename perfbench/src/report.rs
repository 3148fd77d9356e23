//! The result a run prints: correctness, operation counts, and the metric
//! set of its pass — every end-to-end metric untraced, every per-layer
//! metric traced, each by name with its unit.

use crate::Args;
use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit). Every workload reports each one; see
/// `METRICS.md` for what the operation is on each workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics: (name, unit), grouped by crate.
pub const PER_LAYER: [(&str, &str); 62] = [
    // disp-graph
    ("graph.build_ms", "ms"),
    ("graph.edges", "count"),
    // disp-sim
    ("sim.placement_ms", "ms"),
    ("sim.world_init_ms", "ms"),
    ("sim.adversary_init_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.runner_self_ms", "ms"),
    ("sim.activations_executed", "count"),
    ("sim.activations_credited", "count"),
    ("sim.activations_executed_per_credited", "ratio"),
    ("sim.adversary_ms", "ms"),
    ("sim.adversary_calls", "count"),
    ("sim.adversary_batch_mean", "agents"),
    ("sim.rounds", "count"),
    ("sim.epochs", "count"),
    ("sim.moves", "count"),
    ("sim.sync_trial_ms", "ms"),
    ("sim.async_trial_ms", "ms"),
    ("sim.trial_unattributed_share", "ratio"),
    // disp-core
    ("core.protocol_init_ms", "ms"),
    ("core.activate_ns", "ns"),
    ("core.verify_ms", "ms"),
    // disp-campaign
    ("campaign.trial_p50_ms", "ms"),
    ("campaign.trial_p99_ms", "ms"),
    ("campaign.busy_share", "ratio"),
    ("campaign.steals", "count"),
    ("campaign.store_append_us", "us"),
    ("campaign.checkpoint_bytes", "bytes"),
    // disp-analysis
    ("analysis.encode_us", "us"),
    // disp-serve
    ("serve.submit_warm_p50_ms", "ms"),
    ("serve.submit_warm_p99_ms", "ms"),
    ("serve.submit_cold_p50_ms", "ms"),
    ("serve.submit_cold_p99_ms", "ms"),
    ("serve.status_p50_ms", "ms"),
    ("serve.status_p99_ms", "ms"),
    ("serve.results_p50_ms", "ms"),
    ("serve.results_p99_ms", "ms"),
    ("serve.metrics_p50_ms", "ms"),
    ("serve.metrics_p99_ms", "ms"),
    ("serve.http_request_us", "us"),
    ("serve.job_queue_wait_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.refused", "count"),
    ("serve.trials_executed", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p99_ms", "ms"),
    // disp-cluster
    ("cluster.cache_hit_ratio", "ratio"),
    ("cluster.cache_bytes", "bytes"),
    ("cluster.cache_evictions", "count"),
    ("cluster.leases", "count"),
    ("cluster.leases_expired", "count"),
    ("cluster.batches_completed", "count"),
    ("cluster.batches_abandoned", "count"),
    ("cluster.worker_busy_share", "ratio"),
    // whole-run
    ("failed_share", "ratio"),
    ("host.runqueue_wait_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("work.units", "count"),
    ("work.seconds", "s"),
    ("work.trials", "count"),
];

/// What one run measured and checked.
pub struct Report {
    trace: bool,
    /// Operations attempted and failed (trials, requests, jobs).
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    /// What the first failed operations were (the count is `failed`).
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    info: Vec<(String, String)>,
}

impl Report {
    pub fn new(args: &Args) -> Report {
        Report {
            trace: args.trace,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    /// Record a metric of this pass.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = if self.trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        debug_assert!(
            known.iter().any(|(n, _)| *n == name),
            "metric {name} is not declared for this pass"
        );
        self.metrics.insert(name, value);
    }

    /// A correctness check: a false `ok` marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// A supporting figure for the info line (a raw JSON value).
    pub fn info(&mut self, key: &str, json: String) {
        self.info.push((key.to_string(), json));
    }

    /// Count one attempted operation; a failed one is named by `what`.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn print(&mut self, args: &Args) {
        let declared = if self.trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        if self.trace {
            let share = if self.attempted == 0 {
                0.0
            } else {
                self.failed as f64 / self.attempted as f64
            };
            self.metrics.insert("failed_share", share);
        }
        let mut missing = Vec::new();
        for (name, _) in declared {
            if !self.metrics.contains_key(name) {
                // A layer this workload does not exercise did no work.
                missing.push(format!("\"{name}\""));
                self.metrics.insert(name, 0.0);
            }
        }
        let correct = self.errors.is_empty() && self.attempted > 0;
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        let failures: Vec<String> = self.failures.iter().map(|e| json_str(e)).collect();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        println!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{},\"errors\":[{}],\"failures\":[{}],\"not_exercised\":[{}],\"info\":{{{}}}}}",
            json_str(&args.workload),
            args.seed,
            u8::from(self.trace),
            crate::host::fingerprint(&args.root),
            errors.join(","),
            failures.join(","),
            missing.join(","),
            info.join(",")
        );
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(self.metrics[name])
                )
            })
            .collect();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

/// A JSON number (non-finite values, which JSON cannot carry, become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// The metric lists here and in `BENCHMARK.json` must agree name for
    /// name and unit for unit, in order.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        use disp_analysis::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(listed)) = doc.get(key) else {
                panic!("{key} missing")
            };
            let listed: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap(),
                        m.get("unit").unwrap().as_str().unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, ours.to_vec(), "{key}");
        }
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
