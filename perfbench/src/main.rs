//! The repository benchmark: one named workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times untraced queries and prints the end-to-end
//! metrics; `--trace 1` splits the time between untraced and traced
//! queries, then times each layer on the workload's own pages, and
//! prints the per-layer metrics. The last stdout line is one JSON
//! object; any failed or wrong query makes the exit code 1.

mod layers;
mod query;
mod spec;
mod stats;

use spec::{Workload, END_TO_END, PER_LAYER};
use stats::Metrics;

/// What one run reports.
pub struct Outcome {
    pub attempted: usize,
    /// Errored, rejected and wrong-result queries.
    pub failed: usize,
    pub metrics: Metrics,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(spec::workload(&value).ok_or(bad(&spec::NAMES.join("|")))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(bad("> 0"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    let out = query::run(&args.workload, args.seed, args.seconds, args.trace);
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = out.failed == 0;
    for &(name, unit) in catalogue {
        if let Some(v) = out.metrics.get(name) {
            eprintln!("  {name:36} {v:>16.4} {unit}");
        }
    }
    eprintln!(
        "  {:36} {:>16.4} ({} of {} queries)",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    match out.metrics.to_json(catalogue) {
        Ok(metrics) => println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            out.attempted, out.failed
        ),
        Err(e) => {
            eprintln!("perfbench: {e}; no result");
            std::process::exit(1);
        }
    }
    if !correct {
        eprintln!("perfbench: wrong or failed queries");
        std::process::exit(1);
    }
}
