//! Grammar-based fuzzer for the assay pipeline: parse → lower →
//! synthesize → verify → DRC, under `catch_unwind`.
//!
//! The contract being enforced:
//!
//! * the parser NEVER panics — every rejection is a typed [`ParseError`]
//!   carrying a 1-based line and column;
//! * every ACCEPTED program flows through the whole pipeline without a
//!   panic, and when synthesis succeeds the solution replays valid and
//!   passes DRC (or synthesis fails with a typed error);
//!
//! Usage:
//!
//! ```text
//! assay_fuzz [--seconds N] [--cases N] [--seed S] [--crash-dir DIR]
//! ```
//!
//! With `--seconds` the run is wall-clock bounded (CI smoke); otherwise
//! it executes exactly `--cases` cases (default 500). Every failure
//! prints the case seed (re-run with `--seed` to reproduce) and writes
//! the offending program into `--crash-dir` before exiting non-zero.

use mfb_core::prelude::*;
use mfb_model::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration as WallDuration, Instant};
use xtask_tests::assaygen::{mutated_assay, valid_assay, GenOptions};

struct Args {
    seconds: Option<u64>,
    cases: u64,
    seed: u64,
    crash_dir: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seconds: None,
        cases: 500,
        seed: 0xA55A_F002,
        crash_dir: std::path::PathBuf::from("target/assay-fuzz-crashes"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--seconds" => {
                args.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--cases" => {
                args.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--crash-dir" => args.crash_dir = value("--crash-dir")?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Runs one generated program through the pipeline. Returns an error
/// message when a *property* fails (an un-positioned error, an invalid
/// accepted solution); panics propagate to the caller's `catch_unwind`.
fn run_case(text: &str) -> Result<(), String> {
    let file = match parse_assay(text) {
        Err(e) => {
            if e.line() == 0 || e.column() == 0 {
                return Err(format!("error without a 1-based position: {e}"));
            }
            return Ok(());
        }
        Ok(f) => f,
    };
    let Some(allocation) = file.allocation else {
        return Ok(()); // accepted, but not synthesizable without components
    };
    let comps = allocation.instantiate(&ComponentLibrary::default());
    let wash = LogLinearWash::paper_calibrated();
    let synth = Synthesizer::new(SynthesisConfig::for_flow(&file.flow));
    let router = synth.config().router;
    match synth.synthesize_with(
        &file.graph,
        &comps,
        &wash,
        &file.defects,
        None,
        &Budget::unlimited(),
    ) {
        Err(_) => Ok(()), // typed synthesis error: acceptable outcome
        Ok(solution) => {
            let sim = solution.verify(&file.graph, &comps, &wash);
            if !sim.is_valid() {
                return Err(format!("accepted program replayed invalid: {sim:?}"));
            }
            let drc = solution.drc_with(
                &file.graph,
                &comps,
                &wash,
                &file.defects,
                router,
                &RuleRegistry::with_all_rules(),
            );
            if !drc.is_clean() {
                return Err(format!(
                    "accepted program failed DRC: {} finding(s)",
                    drc.diagnostics.len()
                ));
            }
            Ok(())
        }
    }
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("assay_fuzz: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };

    let opts = GenOptions::default();
    let deadline = args
        .seconds
        .map(|s| Instant::now() + WallDuration::from_secs(s));
    let mut case = 0u64;
    let mut failures = 0u64;
    let started = Instant::now();

    loop {
        match deadline {
            Some(d) => {
                if Instant::now() >= d {
                    break;
                }
            }
            None => {
                if case >= args.cases {
                    break;
                }
            }
        }
        let seed = args.seed.wrapping_add(case);
        // One third valid programs (exercise the deep pipeline), two
        // thirds mutated (exercise the parser's error paths).
        let text = if case % 3 == 0 {
            valid_assay(seed, &opts)
        } else {
            mutated_assay(seed, &opts)
        };

        let outcome = catch_unwind(AssertUnwindSafe(|| run_case(&text)));
        let problem = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(msg)) => Some(msg),
            Err(_) => Some("pipeline panicked".to_owned()),
        };
        if let Some(msg) = problem {
            failures += 1;
            eprintln!("assay_fuzz: FAILURE at seed {seed}: {msg}");
            eprintln!("  reproduce with: assay_fuzz --cases 1 --seed {seed}");
            if std::fs::create_dir_all(&args.crash_dir).is_ok() {
                let path = args.crash_dir.join(format!("crash-{seed}.assay"));
                if std::fs::write(&path, &text).is_ok() {
                    eprintln!("  input written to {}", path.display());
                }
            }
        }
        case += 1;
    }

    let secs = started.elapsed().as_secs_f64();
    println!(
        "assay_fuzz: {case} case(s) in {secs:.1}s ({:.0}/s), {failures} failure(s), base seed {}",
        case as f64 / secs.max(1e-9),
        args.seed
    );
    if failures == 0 {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
