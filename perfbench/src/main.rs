//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload (`solve-milp`, `solve-comb`, `online`, `serve`) and
//! prints a report whose last line is the result object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones.

use perfbench::{Kind, DEFAULT_SECONDS, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload solve-milp|solve-comb|online|serve \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<(Kind, u64, f64, bool), String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} `{value}`");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok((kind.ok_or("--workload is required")?, seed, seconds, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok((kind, seed, seconds, trace)) => {
            print!("{}", perfbench::run(kind, seed, seconds, trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
