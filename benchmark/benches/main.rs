//! dfsim-benchmark: one harness, six paper-scale workloads, end-to-end and
//! per-layer metrics. See README.md beside Cargo.toml.
//!
//! ```text
//! dfsim-benchmark run     [--seed N] [--rounds R] [--seconds S] [--out FILE] [--smoke]
//! dfsim-benchmark trace   [--seed N] [--out FILE] [--smoke]
//! dfsim-benchmark compare A.json B.json
//! dfsim-benchmark describe
//! dfsim-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! The last form is one run in this process — what BENCHMARK.json's command
//! invokes and what `run`/`trace` re-execute themselves as.

mod alloc;
mod compare;
mod harness;
mod host;
mod json;
mod metrics;
mod one;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use harness::Plan;
use json::Json;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: dfsim-benchmark run [--seed N] [--rounds R] [--seconds S] [--out FILE] [--smoke]
       dfsim-benchmark trace [--seed N] [--out FILE] [--smoke]
       dfsim-benchmark compare A.json B.json
       dfsim-benchmark describe
       dfsim-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]";

/// `--flag value` pairs and bare `--smoke`, in any order.
struct Flags {
    pairs: Vec<(String, String)>,
    smoke: bool,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags { pairs: Vec::new(), smoke: false };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--smoke" {
                flags.smoke = true;
            } else if known.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.pairs.push((arg.clone(), value.clone()));
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(flags)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.pairs.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: invalid value {v:?}")),
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Returns whether the command's own checks passed.
fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" | "trace" => {
            let flags = Flags::parse(rest, &["--seed", "--rounds", "--seconds", "--out"])?;
            let plan = Plan {
                seed: flags.number("--seed", 42)?,
                // Smoke: every workload once, one timed region each.
                rounds: flags.number("--rounds", if flags.smoke { 1 } else { 5 })?,
                seconds: flags.number(
                    "--seconds",
                    if flags.smoke { 0.0 } else { metrics::RUN_SECONDS as f64 },
                )?,
                smoke: flags.smoke,
                out: flags.get("--out").map(str::to_string),
            };
            if command == "trace" {
                return harness::trace(&plan);
            }
            let ran = harness::run(&plan)?;
            // Smoke covers every probe too.
            Ok(ran && (!plan.smoke || harness::trace(&Plan { out: None, ..plan })?))
        }
        "compare" => match rest {
            [a, b] => compare::compare(&load(a)?, &load(b)?, a, b),
            _ => Err(USAGE.to_string()),
        },
        "describe" => {
            print!("{}", metrics::benchmark_json().pretty());
            Ok(true)
        }
        flag if flag.starts_with("--") => {
            let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
            let name = flags.get("--workload").ok_or("--workload is required")?;
            let run = one::OneRun {
                workload: workloads::find(name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?,
                seed: flags.number("--seed", 42)?,
                seconds: flags.number("--seconds", metrics::RUN_SECONDS as f64)?,
                trace: match flags.get("--trace") {
                    None | Some("0") => false,
                    Some("1") => true,
                    Some(v) => return Err(format!("--trace: invalid value {v:?}")),
                },
                smoke: flags.smoke,
            };
            let (detail, result) = one::run(&run)?;
            println!("{}", detail.compact());
            println!("{}", result.compact());
            // A run that measured but failed its checks has said so in its
            // result line; the exit code reports only that it ran.
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dfsim-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
