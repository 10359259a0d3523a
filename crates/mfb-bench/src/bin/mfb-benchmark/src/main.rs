//! `mfb-benchmark`: the end-to-end synthesis benchmark.
//!
//! ```text
//! mfb-benchmark --workload <small|dense|verify|batch|warm>
//!               [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! One invocation runs one workload in one process, on at most
//! `MFB_THREADS` threads (every core when unset). An untraced run prints
//! the end-to-end metrics, a traced run the per-layer ones; both print an
//! environment record first and end with one JSON result line. README.md
//! describes the workloads, the metrics and which layer moves which
//! end-to-end number.

mod layers;
mod metrics;
mod run;
mod stats;
mod workload;

use metrics::result_json;
use run::{run, Plan};
use std::fmt;
use std::process::ExitCode;
use workload::Workload;

/// Why the benchmark refused to run or could not finish.
#[derive(Debug, PartialEq)]
enum BenchError {
    Usage(String),
    /// `MFB_THREADS` is not a thread count this machine can run.
    Threads {
        requested: String,
        cores: usize,
    },
    /// `--trace` on a build without the `obs-trace` feature.
    TraceNotCompiled,
    Setup(String),
    Measure(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(why) => write!(f, "{why}\n{USAGE}"),
            BenchError::Threads { requested, cores } => write!(
                f,
                "MFB_THREADS={requested} must be a thread count from 1 to the {cores} available cores"
            ),
            BenchError::TraceNotCompiled => {
                f.write_str("--trace needs the obs-trace feature, which this build lacks")
            }
            BenchError::Setup(why) => write!(f, "set-up failed: {why}"),
            BenchError::Measure(why) => write!(f, "measurement failed: {why}"),
        }
    }
}

const USAGE: &str = "usage: mfb-benchmark --workload <small|dense|verify|batch|warm> \
                     [--seed N] [--seconds S] [--trace [0|1]]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, BenchError> {
    let usage = |why: String| BenchError::Usage(why);
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // `--trace` alone means `--trace 1`.
            trace = it
                .next_if(|v| *v == "0" || *v == "1")
                .map_or(true, |v| v == "1");
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| usage(format!("unknown workload {value:?}")))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| usage(format!("--seed {value:?} is not a u64")))?;
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| {
                        usage(format!("--seconds {value:?} is not a positive number"))
                    })?;
            }
            _ => return Err(usage(format!("unknown argument {flag:?}"))),
        }
    }
    let workload = workload.ok_or_else(|| usage("--workload is required".into()))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The machine and build a run measured.
struct Environment {
    cores: usize,
    mfb_threads: Option<String>,
    /// Worker threads the crates will use (`mfb_model::par::thread_limit`).
    threads: usize,
    obs_trace: bool,
}

/// A set `MFB_THREADS` must name 1 to `cores` threads: more would only
/// oversubscribe the cores, and the crates read it as a cap.
fn check_threads(requested: &str, cores: usize) -> Result<(), BenchError> {
    match requested.trim().parse::<usize>() {
        Ok(n) if (1..=cores).contains(&n) => Ok(()),
        _ => Err(BenchError::Threads {
            requested: requested.to_string(),
            cores,
        }),
    }
}

fn environment(trace: bool) -> Result<Environment, BenchError> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mfb_threads = std::env::var("MFB_THREADS").ok();
    if let Some(requested) = &mfb_threads {
        check_threads(requested, cores)?;
    }
    let obs_trace = cfg!(feature = "obs-trace");
    if trace && !obs_trace {
        return Err(BenchError::TraceNotCompiled);
    }
    Ok(Environment {
        cores,
        mfb_threads,
        threads: mfb_model::par::thread_limit(),
        obs_trace,
    })
}

fn bench(args: &[String]) -> Result<ExitCode, BenchError> {
    let args = parse_args(args)?;
    let env = environment(args.trace)?;
    let plan = Plan::full(args.workload, args.seconds);
    let outcome = run(args.workload, args.seed, &plan, args.trace).map_err(BenchError::Setup)?;
    let metrics = outcome.metrics.map_err(BenchError::Measure)?;

    println!(
        "# run workload={} seed={} trace={} seconds={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!(
        "# env cores={} MFB_THREADS={} threads={} obs_trace={}",
        env.cores,
        env.mfb_threads.as_deref().unwrap_or("unset"),
        env.threads,
        env.obs_trace
    );
    println!(
        "# jobs per_pass={} attempted={} failed={}",
        outcome.per_pass, outcome.attempted, outcome.failed
    );
    println!("# solutions_fnv64 {:016x}", outcome.digest);
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for why in outcome.invalid.iter().take(10) {
        eprintln!("invalid output: {why}");
    }
    let correct = outcome.invalid.is_empty();
    println!(
        "{}",
        result_json(correct, outcome.attempted, outcome.failed, &metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    bench(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, BenchError> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_explicit_and_bare_trace_flags() {
        let a = args("--workload dense --seed 7 --seconds 3 --trace 0").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::Dense,
                seed: 7,
                seconds: 3.0,
                trace: false
            }
        );
        assert!(args("--workload small --trace 1").expect("valid").trace);
        assert!(args("--workload small --trace").expect("valid").trace);
        assert!(args("--trace --workload small").expect("valid").trace);
        assert_eq!(args("--workload warm").expect("valid").seed, 1);
    }

    #[test]
    fn thread_counts_beyond_the_cores_are_refused() {
        assert_eq!(check_threads("2", 2), Ok(()));
        assert_eq!(check_threads("1", 4), Ok(()));
        for bad in ["3", "0", "many", ""] {
            assert_eq!(
                check_threads(bad, 2),
                Err(BenchError::Threads {
                    requested: bad.to_string(),
                    cores: 2
                })
            );
        }
    }

    #[test]
    fn rejects_bad_arguments_with_a_usage_error() {
        for bad in [
            "",
            "--workload",
            "--workload huge",
            "--workload small --seed -1",
            "--workload small --seconds 0",
            "--workload small --frobnicate 1",
        ] {
            assert!(matches!(args(bad), Err(BenchError::Usage(_))), "{bad:?}");
        }
    }
}
