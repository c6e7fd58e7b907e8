//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload interactive|bulk_learn|offline_fit --seed N --seconds S --trace 0|1
//!           --iim PATH/TO/iim --work-dir DIR
//! ```
//!
//! Normally launched through `perfbench/run.py`, which builds the `iim`
//! binary and this program first. Each workload generates its inputs from
//! `--seed`, measures for `--seconds`, checks every output it received,
//! and prints its metrics: one human-readable line per metric, then one
//! JSON object as the last line of stdout. A failed correctness check
//! exits non-zero and prints no metrics. See `perfbench/README.md`.

mod bulk_learn;
mod checks;
mod client;
mod daemon;
mod interactive;
mod layers;
mod loadgen;
mod offline_fit;
mod report;
mod stats;
mod tenant;
mod trace;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub iim: PathBuf,
    pub work_dir: PathBuf,
}

/// Worker threads for the daemon and the in-process layers.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iim = None;
    let mut work_dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--iim" => iim = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
        iim: iim.ok_or("missing --iim")?,
        work_dir: work_dir.ok_or("missing --work-dir")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.iim.is_file() {
        eprintln!("perfbench: no iim binary at {}", args.iim.display());
        return ExitCode::from(2);
    }
    let run_dir = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "interactive" => interactive::run(&args, &run_dir),
        "bulk_learn" => bulk_learn::run(&args, &run_dir),
        "offline_fit" => offline_fit::run(&args, &run_dir),
        other => Err(format!("unknown workload {other}")),
    }
    .and_then(|outcome| outcome.validate(args.trace).map(|()| outcome));
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(outcome) => {
            outcome.print(&args.workload);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: FAILED: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
