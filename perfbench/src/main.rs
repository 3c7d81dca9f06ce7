//! The repository benchmark: drives the TSS library from outside, one
//! workload per process, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload static_anti --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that reports the per-layer metrics and writes
//! the spans to `.bench_out/`. `--describe` prints `BENCHMARK.json`. The
//! last line of a run's output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use trace::Tracer;
use workloads::{RunCfg, Scale};

const USAGE: &str = "usage: perfbench --workload <static_anti|dynamic_session|stream_window> \
                     [--seed N] [--seconds S] [--trace 0|1] | --describe";

/// One parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Describe,
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = spec::DEFAULT_SEED;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    // `--flag=value` is read as `--flag value`.
    let mut args = args.into_iter().flat_map(|a| match a.split_once('=') {
        Some((flag, value)) if flag.starts_with("--") => vec![flag.to_string(), value.to_string()],
        _ => vec![a],
    });
    while let Some(flag) = args.next() {
        if flag == "--describe" {
            return Ok(Command::Describe);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = parse_seed(&value).ok_or_else(|| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(bad("expected 0..=600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Command::Run {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Every variable the code base reads to change what it does: kernel,
/// faults, budgets, executor, deadline, scale, shard count.
const KNOBS: [&str; 7] = [
    "TSS_KERNEL",
    "TSS_FAULTS",
    "TSS_BUDGET",
    "TSS_EXECUTOR",
    "TSS_DEADLINE_MS",
    "TSS_FULL_SCALE",
    "BENCH_SHARDS",
];

/// The first of [`KNOBS`] in `names`. A run under any of them is not
/// comparable. Other variables, whatever their prefix, are left alone.
fn forbidden_env(names: impl IntoIterator<Item = String>) -> Option<String> {
    names.into_iter().find(|n| KNOBS.contains(&n.as_str()))
}

/// A seed: any integer, a negative one taken as its two's complement.
fn parse_seed(s: &str) -> Option<u64> {
    s.parse::<u64>()
        .ok()
        .or_else(|| s.parse::<i64>().ok().map(|v| v as u64))
}

fn main() -> ExitCode {
    let cmd = match parse_args(std::env::args().skip(1)) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (workload, seed, seconds, traced) = match cmd {
        Command::Describe => {
            print!("{}", spec::describe());
            return ExitCode::SUCCESS;
        }
        Command::Run {
            workload,
            seed,
            seconds,
            trace,
        } => (workload, seed, seconds, trace),
    };
    let env_names = std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned());
    if let Some(var) = forbidden_env(env_names) {
        eprintln!(
            "perfbench: refusing to run: {var} is set. It changes what the library does; \
             unset it and run again."
        );
        return ExitCode::from(2);
    }
    let cfg = RunCfg {
        seed,
        seconds,
        trace: traced,
        scale: Scale::Full,
    };
    let tracer = Tracer::new();
    let report = match workloads::run(&workload, &cfg, &tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload} could not run: {e}");
            return ExitCode::from(1);
        }
    };
    if traced {
        let path = format!(".bench_out/trace-{workload}-{seed}.json");
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, tracer.to_json(report.stamp_pairs())));
        match written {
            Ok(()) => println!("# trace {path}"),
            Err(e) => {
                eprintln!("perfbench: cannot write {path}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    print!("{}", report.render(traced));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        assert_eq!(
            parse_args(args(
                "--workload stream_window --seed 7 --seconds 10 --trace 1"
            )),
            Ok(Command::Run {
                workload: "stream_window".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
            })
        );
        assert_eq!(
            parse_args(args("--workload=static_anti --seed=-2 --trace=0")),
            Ok(Command::Run {
                workload: "static_anti".into(),
                seed: u64::MAX - 1,
                seconds: spec::RUN_SECONDS as f64,
                trace: false,
            })
        );
        assert_eq!(parse_args(args("--describe")), Ok(Command::Describe));
        assert!(parse_args(args("--workload nope")).is_err());
        assert!(parse_args(args("--workload static_anti --trace 2")).is_err());
        assert!(parse_args(args("--seed 3")).is_err());
        assert!(parse_args(args("--workload static_anti --seed x")).is_err());
        assert_eq!(parse_seed("-1"), Some(u64::MAX));
        assert_eq!(parse_seed("42"), Some(42));
    }

    #[test]
    fn refuses_library_knobs_from_the_environment() {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            forbidden_env(names(&["HOME", "CARGO_TARGET_DIR", "BENCH_RUN", "TSS_X"])),
            None
        );
        assert_eq!(
            forbidden_env(names(&["HOME", "TSS_KERNEL"])),
            Some("TSS_KERNEL".into())
        );
        assert_eq!(
            forbidden_env(names(&["BENCH_SHARDS"])),
            Some("BENCH_SHARDS".into())
        );
    }
}
