//! `lfm-benchmark`: one benchmark on two clocks.
//!
//! Simulated time (makespan, latency, goodput, counts) is a claim about
//! the modelled Parsl → Work Queue → LFM stack and repeats exactly for a
//! seed. Host time (wall seconds, peak memory) is a claim about this
//! engine and is reported as a median with quartiles and a bound. See
//! README.md in this directory.
//!
//! Three ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>`: one
//!   measuring process, the form `BENCHMARK.json`'s `command` takes.
//! * `--out <results.json> [--seed --reps --seconds --only --trace-out]`:
//!   every workload, a child process per repetition, results file.
//! * `--compare <a.json> <b.json>`: is `b` worse than `a`?

mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage:
  lfm-benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--trace-out <path>]
  lfm-benchmark --out <results.json> [--seed <u64>] [--reps <n>] [--seconds <s>] [--only <workload>] [--trace-out <path>]
  lfm-benchmark --compare <a.json> <b.json>
workloads:";

fn usage() -> String {
    let mut text = USAGE.to_string();
    for w in Workload::ALL {
        text.push_str(&format!("\n  {:<18} {}", w.name(), w.why()));
    }
    text
}

#[derive(Debug, Default, PartialEq)]
struct Cli {
    workload: Option<Workload>,
    only: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let workload = |name: String| {
            Workload::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(workload(value()?)?),
            "--only" => cli.only = Some(workload(value()?)?),
            "--seed" => {
                cli.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                cli.seconds = Some(s);
            }
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
                cli.reps = Some(n);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value()?)),
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let modes = usize::from(cli.workload.is_some())
        + usize::from(cli.out.is_some())
        + usize::from(cli.compare.is_some());
    if modes != 1 {
        return Err("give exactly one of --workload, --out and --compare".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("lfm-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let seed = cli.seed.unwrap_or(2021);
    let seconds = cli.seconds.unwrap_or(metrics::RUN_SECONDS as f64);
    let outcome = if let Some((a, b)) = &cli.compare {
        compare::run(a, b)
    } else if let Some(out) = cli.out {
        suite::run(&suite::SuiteArgs {
            out,
            seed,
            reps: cli.reps.unwrap_or(5),
            seconds,
            only: cli.only,
            trace_out: cli.trace_out,
        })
        .map(|()| true)
    } else {
        Ok(run::run(&run::RunArgs {
            workload: cli.workload.expect("one mode is set"),
            seed,
            seconds,
            trace: cli.trace,
            trace_out: cli.trace_out,
        }))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lfm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_invocation_parses() {
        let cli = parse_cli(&args(
            "--workload serving_steady --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload, Some(Workload::ServingSteady));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (Some(7), Some(10.0), true)
        );
    }

    #[test]
    fn suite_and_compare_invocations_parse() {
        let cli = parse_cli(&args(
            "--out r.json --reps 3 --only paper_figs --trace-out t",
        ))
        .unwrap();
        assert_eq!(cli.out, Some(PathBuf::from("r.json")));
        assert_eq!((cli.reps, cli.only), (Some(3), Some(Workload::PaperFigs)));
        let cli = parse_cli(&args("--compare a.json b.json")).unwrap();
        assert_eq!(
            cli.compare,
            Some((PathBuf::from("a.json"), PathBuf::from("b.json")))
        );
    }

    #[test]
    fn bad_invocations_are_rejected() {
        for bad in [
            "",
            "--quick",
            "--workload nope",
            "--workload master_batch --trace 2",
            "--workload master_batch --seconds 0",
            "--workload master_batch --seed x",
            "--workload master_batch --out r.json",
            "--out r.json --reps 0",
            "--compare a.json",
            "--seed",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "`{bad}` should not parse");
        }
    }
}
