//! `perfbench` — the end-to-end and per-layer benchmark of the dispersion
//! workspace.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `scale-line`, `campaign-paper`, `serve-mixed`,
//! `cluster-grid` (see `BENCHMARK.json` and `perfbench/METRICS.md`). Every
//! input derives from `--seed`. The untraced pass (`--trace 0`) prints the
//! end-to-end metrics; the traced pass (`--trace 1`) wraps every layer
//! boundary it can reach from outside and prints the per-layer metrics.
//! The last stdout line is the result object; the line before it carries
//! the host fingerprint and the workload's supporting figures.
//!
//! `perfbench spread < results` prints each metric's median and
//! inter-quartile spread over a set of result lines.

mod campaign;
mod cluster;
mod host;
mod http;
mod proc;
mod report;
mod scale;
mod serve;
mod stats;
mod trace;
mod trial;
mod wrap;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Root of the checkout under test (the working directory).
    pub root: PathBuf,
    /// Scratch space inside the checkout.
    pub out: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload scale-line|campaign-paper|serve-mixed|cluster-grid \
     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds expects a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let workload = workload.ok_or(USAGE)?;
    let out = root
        .join(".bench_out")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        trace: trace.ok_or(USAGE)?,
        root,
        out,
    })
}

/// `perfbench spread`: read result lines (one run each) on stdin and
/// print, per metric, the median and the inter-quartile spread as a share
/// of the median — the run-to-run statistic the bounds are checked with.
fn spread_command() -> ExitCode {
    use disp_analysis::Json;
    let mut values: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for line in std::io::stdin().lines().map_while(Result::ok) {
        let Ok(doc) = Json::parse(line.trim()) else {
            continue;
        };
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    for (name, xs) in &values {
        if xs.len() >= 2 {
            println!(
                "{name:<40} n={:<3} median={:<14.6} spread={:.4}",
                xs.len(),
                stats::median(xs),
                stats::spread(xs)
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("spread") {
        return spread_command();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.root.join("crates").is_dir() {
        eprintln!("perfbench: run from the root of a checkout (no crates/ here)");
        return ExitCode::from(2);
    }
    let mut report = Report::new(&args);
    let result = match args.workload.as_str() {
        "scale-line" => scale::scale_line(&args, &mut report),
        "campaign-paper" => campaign::campaign_paper(&args, &mut report),
        "serve-mixed" => serve::serve_mixed(&args, &mut report),
        "cluster-grid" => cluster::cluster_grid(&args, &mut report),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&args.out);
    match result {
        Ok(()) => {
            report.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
