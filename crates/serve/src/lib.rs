//! # disp-serve
//!
//! The long-running campaign service: the ROADMAP's "serves heavy traffic"
//! claim, built on the determinism the earlier layers already guarantee.
//! Because every trial is a pure function of `(canonical scenario label,
//! campaign seed, repetition)` (PR 2), a server can memoize trials across
//! requests and users — identical or overlapping submissions dedupe to
//! byte-identical cached results, and a repeated campaign returns without
//! executing anything.
//!
//! Everything is `std::net` + `std::thread` only; the HTTP/1.1 subset is
//! hand-rolled in [`http`] the same way `disp-rng` replaced `rand`.
//!
//! ## Layers
//!
//! * [`http`] — HTTP/1.1 framing in both directions: head parsing,
//!   `Content-Length` and chunked bodies under a caller-chosen cap, and the
//!   chunk writer. The server reads requests and the client reads
//!   responses through the same reader.
//! * [`cache`] — the content-addressed trial cache over a JSONL log
//!   (promoted to the shared cluster tier in `disp-cluster`; re-exported
//!   here unchanged).
//! * [`jobs`] — the job manager feeding the campaign engine (or, with a
//!   cluster backend, the lease board).
//! * [`server`] — accept loop, worker pool, endpoint routing: handlers
//!   return a reply value and one writer puts every reply on the wire.
//! * [`cluster`] — the HTTP side of coordinator/worker mode: the
//!   `/internal/*` handlers and the worker-process runner.
//! * [`metrics`] — counters and their `/metrics` text exposition.
//! * [`client`] — the minimal blocking client used by `disp-load`, the
//!   tests and the CI smoke.
//!
//! Binaries: `disp-serve` (the daemon, optionally `--role
//! coordinator|worker`) and `disp-load` (the load-generation harness that
//! proves the throughput claim with numbers). See `DESIGN.md` §9 for the
//! architecture and the determinism-under-concurrency argument, §11 for
//! the cluster design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use disp_cluster::cache;
pub mod client;
pub mod cluster;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod server;

pub use cache::TrialCache;
pub use client::{Client, HttpResponse};
pub use cluster::run_worker;
pub use jobs::{ExecBackend, Job, JobManager, JobSnapshot, JobState, Retention};
pub use metrics::{parse_metric, Metrics};
pub use server::{parse_submission, AppState, CoordinatorConfig, ServeConfig, Server};
