//! `hsbp-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Builds every input from `--seed`, drives
//! the public API of the hsbp crates, checks their outputs and prints a
//! manifest line, then one JSON result line (`correct`, `attempted`,
//! `failed`, `metrics`) as the last line of standard output. `--trace 0`
//! prints the end-to-end metrics, `--trace 1` the per-layer metrics. See
//! `perfbench/README.md` for the workloads and every metric.

mod catalog;
mod checks;
mod inputs;
mod layers;
mod manifest;
mod probe;
mod report;
mod serve;
mod span;
mod workloads;

use report::Report;
use std::process::ExitCode;
use workloads::{Args, Workload};

const USAGE: &str = "usage: hsbp-perfbench --workload <sbp_serial|hsbp_dense_2t|shard_exact_drop> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = manifest::forbidden_env() {
        eprintln!(
            "perfbench: {var} is set; it changes SbpConfig::default(), and every run must \
             measure the default configuration. Unset it and run again."
        );
        return ExitCode::from(3);
    }
    let clock = span::Clock::calibrate();
    println!("{}", manifest::json_line(&args, &clock));

    let mut report = Report::default();
    if let Err(e) = workloads::run(&args, &clock, &mut report) {
        eprintln!("perfbench: {} aborted: {e}", args.workload.name());
        return ExitCode::from(1);
    }
    if !args.trace {
        match peak_rss_mb() {
            Ok(mb) => report.set("peak_rss_mb", mb),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let (defs, cap) = if args.trace {
        (catalog::per_layer(), 128)
    } else {
        (catalog::end_to_end(), 16)
    };
    let problems = report::catalog_problems(&defs, cap);
    if !problems.is_empty() {
        eprintln!("perfbench: bad metric catalog: {}", problems.join("; "));
        return ExitCode::from(4);
    }
    match report.to_json_line(&defs) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: incomplete result: {e}");
            ExitCode::from(4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload shard_exact_drop --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ShardExactDrop);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload sbp_serial --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload sbp_serial --seed 1 --seconds 1")).is_err());
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
