//! Emit the figure-equivalent scaling series as CSV: time vs `k` per graph
//! family, algorithm and schedule. The paper itself has only illustrative
//! figures; these series are what an experimental evaluation of its claims
//! would plot.
//!
//! A thin description over the `disp-campaign` engine (see `table1.rs`).
//!
//! Usage:
//! ```text
//! cargo run --release -p disp-bench --bin figures -- \
//!     [--full] [--out DIR] [--threads N] [--seed S]
//! ```

use disp_bench::cli;
use disp_campaign::grid::{CampaignSpec, Mode};
use disp_campaign::report::{render_section_csv, section_measurements};
use disp_campaign::run::run_campaign;
use disp_core::scenario::Registry;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = if args.iter().any(|a| a == "--full") {
        Mode::Full
    } else {
        Mode::Quick
    };
    let out_dir = cli::flag_value(&args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/figures"));
    let seed = cli::seed(&args);
    let threads = cli::threads(&args);
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let spec = CampaignSpec::figures(mode, seed);
    let (records, summary) =
        run_campaign(&spec, None, threads, &Registry::builtin()).expect("campaign run");
    eprintln!(
        "({} trials in {:.2?}, {} steals)",
        summary.executed, summary.wall, summary.stats.steals
    );
    for (section, measurements) in section_measurements(&spec, records) {
        let csv = render_section_csv(&measurements);
        let path = out_dir.join(format!("{}.csv", section.name));
        std::fs::write(&path, &csv).expect("write CSV");
        println!("wrote {} ({} rows)", path.display(), measurements.len());
    }
    println!("done; plot time vs k per (family, algorithm) series.");
}
