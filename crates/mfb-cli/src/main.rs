//! `mfb` — command-line driver for DCSA flow-layer physical synthesis.
//!
//! ```text
//! mfb list                         list benchmarks
//! mfb table1                       regenerate the paper's Table I
//! mfb fig8                         regenerate Fig. 8 (channel cache time)
//! mfb fig9                         regenerate Fig. 9 (channel wash time)
//! mfb motivating                   run the Fig. 2(a) running example
//! mfb run <bench|file.assay> [options]
//!                                  synthesize a benchmark or an assay file
//!     --flow ours|ba               which flow (default ours)
//!     --svg <file>                 write the layout as SVG
//!     --map                        print the ASCII layout
//!     --gantt                      print the schedule Gantt chart
//! mfb verify <bench|file.assay>    unified design-rule checker (DRC);
//!                                  exits with the worst severity found
//! mfb ablation                     binding/weight ablation study
//! mfb scalability                  the paper flow at 10 to 80 operations
//! mfb stability                    Table-I metrics across annealing seeds
//! mfb bench                        end-to-end synthesis timings
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use mfb_batch::prelude::*;
use mfb_bench_suite::{benchmark_by_name, motivating_example, table1_benchmarks, Benchmark};
use mfb_core::prelude::*;
use mfb_model::prelude::*;
use mfb_viz::prelude::*;
use out::{Failure, Stdout};
use std::process::ExitCode;

mod out;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--trace <file>` is accepted by every command as shorthand for
    // `mfb trace --out <file> <command>`: strip it before dispatch.
    let mut trace_out: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        if pos + 1 >= args.len() {
            eprintln!("error: --trace needs an output file");
            return ExitCode::FAILURE;
        }
        trace_out = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    let cmd = args.first().cloned().unwrap_or_else(|| "help".to_string());
    let rest: Vec<String> = args[1.min(args.len())..].to_vec();
    out::exit_code(match trace_out {
        Some(path) => run_traced(&path, None, &cmd, &rest),
        None => dispatch(&cmd, &rest),
    })
}

/// Routes one parsed command line to its implementation.
fn dispatch(cmd: &str, rest: &[String]) -> Result<ExitCode, Failure> {
    match cmd {
        "list" => cmd_list().map(ok),
        "table1" => print_text(&table1_text(&mfb_bench::compare_all()?)).map(ok),
        "fig8" => print_text(&fig8_text(&mfb_bench::compare_all()?)).map(ok),
        "fig9" => print_text(&fig9_text(&mfb_bench::compare_all()?)).map(ok),
        "motivating" => cmd_motivating().map(ok),
        // `run-file` predates `run` accepting assay files; kept as an alias.
        "run" | "run-file" => cmd_run(rest),
        "fmt" => cmd_fmt(rest),
        "audit" => cmd_audit(rest).map(ok),
        "events" => cmd_events(rest).map(ok),
        "validate" => cmd_validate(rest).map(ok),
        "verify" => cmd_verify(rest),
        "analyze" => cmd_analyze(rest),
        "faults" => cmd_faults(rest).map(ok),
        "bench" => cmd_bench(rest).map(ok),
        "batch" => cmd_batch(rest),
        "serve" => cmd_serve(rest).map(ok),
        "client" => cmd_client(rest).map(ok),
        "trace" => cmd_trace(rest),
        "ablation" => print_text(&mfb_bench::ablation_text()).map(ok),
        "scalability" => print_text(&mfb_bench::scalability_text()).map(ok),
        "stability" => print_text(&mfb_bench::stability_text()).map(ok),
        "help" | "--help" | "-h" => {
            write!(Stdout, "{}", HELP)?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`; try `mfb help`").into()),
    }
}

/// `mfb trace [--out FILE] [--format jsonl|chrome] <command> [args...]`:
/// runs any command with a trace collector installed, then writes the
/// schema-checked trace and prints a per-stage summary to stderr.
fn cmd_trace(rest: &[String]) -> Result<ExitCode, Failure> {
    let mut out: Option<String> = None;
    let mut format: Option<String> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--out" => {
                out = Some(trace_flag_value(rest, i, "--out")?);
                i += 2;
            }
            "--format" => {
                let f = trace_flag_value(rest, i, "--format")?;
                if f != "jsonl" && f != "chrome" {
                    return Err(format!("--format must be jsonl or chrome, got `{f}`").into());
                }
                format = Some(f);
                i += 2;
            }
            _ => break,
        }
    }
    let Some(cmd) = rest.get(i) else {
        return Err(
            "usage: mfb trace [--out FILE] [--format jsonl|chrome] <command> [args...]".into(),
        );
    };
    let out = out.unwrap_or_else(|| "trace.json".to_string());
    run_traced(&out, format.as_deref(), cmd, &rest[i + 1..])
}

fn trace_flag_value(rest: &[String], i: usize, flag: &str) -> Result<String, String> {
    rest.get(i + 1)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Dispatches `cmd` with tracing installed and exports the trace to
/// `path`. `format` defaults by extension: `.jsonl` means JSON Lines,
/// anything else Chrome trace-event JSON (for chrome://tracing/Perfetto).
fn run_traced(
    path: &str,
    format: Option<&str>,
    cmd: &str,
    rest: &[String],
) -> Result<ExitCode, Failure> {
    let collector = mfb_obs::TraceCollector::new();
    let code = {
        let _guard = mfb_obs::install(&collector);
        dispatch(cmd, rest)?
    };
    let trace = collector.finish();
    if trace.open_spans != 0 {
        return Err(format!("{} spans never closed", trace.open_spans).into());
    }
    let jsonl = match format {
        Some(f) => f == "jsonl",
        None => path.ends_with(".jsonl"),
    };
    let text = if jsonl {
        let text = mfb_obs::export::to_jsonl(&trace.events);
        mfb_obs::export::check_jsonl(&text)
            .map_err(|e| format!("trace failed schema check: {e}"))?;
        text
    } else {
        let text = mfb_obs::export::to_chrome(&trace.events);
        mfb_obs::export::check_chrome(&text)
            .map_err(|e| format!("trace failed schema check: {e}"))?;
        text
    };
    std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;

    eprintln!(
        "trace: {} events ({} spans, {} counters, {} instants) in {:.1} ms -> {path}",
        trace.events.len(),
        trace.of_kind(mfb_obs::EventKind::Span).count(),
        trace.of_kind(mfb_obs::EventKind::Counter).count(),
        trace.of_kind(mfb_obs::EventKind::Instant).count(),
        trace.wall_ns as f64 / 1e6,
    );
    for s in mfb_obs::stage_summaries(&trace.events) {
        eprintln!(
            "trace: {:<18} {:>5} spans  total {:>9.3} ms  max {:>9.3} ms",
            s.name, s.count, s.total_ms, s.max_ms
        );
    }
    for c in mfb_obs::counter_totals(&trace.events) {
        eprintln!("trace: {:<18} {:>12}", c.name, c.total);
    }
    Ok(code)
}

/// Adapter for commands whose success always exits 0.
fn ok(_: ()) -> ExitCode {
    ExitCode::SUCCESS
}

/// Writes a rendered experiment table to stdout.
fn print_text(text: &str) -> Result<(), Failure> {
    write!(Stdout, "{text}")?;
    Ok(())
}

const HELP: &str = "\
mfb - physical synthesis for flow-based microfluidic biochips with
distributed channel storage (Chen et al., DATE 2019)

USAGE:
    mfb list                       list benchmarks
    mfb table1                     regenerate the paper's Table I
    mfb fig8                       regenerate Fig. 8 (channel cache time)
    mfb fig9                       regenerate Fig. 9 (channel wash time)
    mfb motivating                 run the Fig. 2(a) running example
    mfb run <bench|file.assay> [options]
                                   synthesize a Table-I benchmark or a
                                   user-defined assay (a benchmark name
                                   wins over a file of the same name; the
                                   file must contain an `alloc` line, and
                                   its `flow` and `defect` statements are
                                   honored, `--flow` overriding the former)
        --flow ours|ba             which flow (default: ours, or the
                                   file's own `flow` statement)
        --svg <file>               write the layout as SVG
        --map                      print the ASCII layout
        --gantt                    print the schedule Gantt chart
        --heat                     print the channel-occupancy heatmap
        --save <file.json>         archive the full solution as JSON
        --timeout <secs>           abort with `deadline exceeded` if
                                   synthesis runs past the budget
    mfb run-file <file.assay>      alias of `run`
    mfb fmt <file.assay>... [--check]
                                   rewrite assay files in the canonical
                                   DSL form; with --check, exit 1 if any
                                   file is not already canonical (for CI)
    mfb audit <bench|file.assay>   physical audits of a synthesized chip:
                                   transport-time slack under a pressure-
                                   driven flow model, occupied area vs a
                                   conventional dedicated-storage design,
                                   and the control-layer estimate
    mfb events <bench|file.assay> [--flow f]
                                   chronological chip event log
    mfb validate <file.json> <bench|file.assay>
                                   load an archived solution and replay it
                                   through the independent validator
    mfb verify <bench|file.assay> [options]
                                   run the unified design-rule checker and
                                   exit with its worst severity
                                   (0 clean, 1 warnings, 2 errors)
        --flow ours|ba             which flow (default: ours)
        --format pretty|json|sarif output format (default: pretty)
        --out <file>               write the report to a file
        --only <RULE-ID>           run only the listed rules (repeatable)
        --skip <RULE-ID>           turn one rule off (repeatable;
                                   --disable is an alias)
        --list-rules               list all design rules and exit
    mfb analyze <bench|file.assay> [options]
                                   run the cross-stage dataflow analyses
                                   (contamination taint, storage liveness,
                                   valve conflicts) and exit with the
                                   worst severity (0 clean, 1 warnings,
                                   2 errors)
        --flow ours|ba             which flow (default: ours)
        --format pretty|json|sarif output format (default: pretty)
        --out <file>               write the report to a file
        --only <RULE-ID>           run only the listed rules (repeatable)
        --skip <RULE-ID>           turn one rule off (repeatable)
        --inject conflict|wash-gap corrupt the routed solution with a
                                   seeded defect first (CI fixture)
        --list-rules               list the ANA-* rule catalog and exit
    mfb faults [options]           seeded Monte-Carlo defect injection:
                                   sample defect maps, synthesize around
                                   them with the resilient escalation
                                   ladder, DRC-check every survivor
        --sweep                    sweep defect severities over the
                                   Table-I benchmarks (survival rate and
                                   quality-degradation table)
        --bench <name>             restrict to one benchmark (default:
                                   PCR, or all of Table I with --sweep)
        --trials <n>               defect maps per severity (default: 5)
        --seed <s>                 base RNG seed (default: 1)
        --flow ours|ba             which flow (default: ours)
        --timeout <secs>           per-trial resynthesis budget; expired
                                   trials count as non-survivors
    mfb bench [options]            tracked perf baseline: end-to-end
                                   synthesis time of every Table-I
                                   benchmark, Synthetic5 (the headline)
                                   and scale-80, with attempt counts and
                                   per-stage times from one traced run
                                   (see BENCH_synthesis.json)
        --json                     emit JSON instead of the text table
                                   (includes MFB_THREADS, the core and
                                   repeat counts, and solution digests)
        --out <file>               write the report to a file
        --repeats <n>              timed repetitions, best-of (default: 3)
    mfb batch <manifest.json>      batch synthesis through the shared
                                   content-addressed stage cache; reports
                                   assays/sec and cache hit/miss counters
                                   (exit 1 if any job fails)
        --threads <n>              worker threads (sets MFB_THREADS)
        --warm                     pre-populate the cache with one
                                   untimed pass before the timed batch
        --json                     emit the report as JSON
        --out <file>               write the report to a file
        --timeout <secs>           per-job budget; expired jobs fail with
                                   a typed `deadline exceeded` error
    mfb serve [options]            long-running synthesis daemon speaking
                                   line-delimited JSON (submit/status/
                                   result/cancel/stats/drain); SIGTERM or
                                   `drain` finishes queued work, writes a
                                   final cache snapshot, and exits
        --listen <addr>            host:port, or a path (with a `/`) for
                                   a Unix socket (default: 127.0.0.1:7411)
        --cache-dir <dir>          persist the stage cache here; restarts
                                   over the same dir start warm
        --workers <n>              worker threads (default: MFB_THREADS)
        --queue-cap <n>            bounded queue size (default: 64)
        --client-cap <n>           per-client in-flight cap (default: 8)
        --snapshot-every <n>       jobs between cache snapshots
                                   (default: 1)
    mfb client <addr> [request]    send one JSON request line to a daemon
                                   and print the response; with no
                                   request, forward stdin line by line
    mfb trace <command> [args...]  run any command with structured
                                   tracing on: per-stage spans, SA/A*
                                   counters, cache hit/miss and recovery
                                   rung events; prints a stage summary
                                   to stderr
        --out <file>               trace file (default: trace.json)
        --format jsonl|chrome      export format (default: by extension,
                                   .jsonl = JSON Lines, else Chrome
                                   trace-event JSON for chrome://tracing)
    (any command) --trace <file>   shorthand for `mfb trace --out <file>`
    mfb ablation                   binding/weight ablation study on CPA
                                   and Synthetic4 (quality and wash time
                                   per disabled design choice)
    mfb scalability                the paper flow on a synthetic series of
                                   10 to 80 operations: quality and wall
                                   time per size, or the typed error and
                                   time to failure where it cannot route
    mfb stability                  Table-I execution time and channel
                                   length across ten annealing seeds
                                   (min / median / max)
";

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

fn cmd_list() -> Result<(), Failure> {
    writeln!(
        Stdout,
        "{:<12} {:>4} {:>12} {:>7} {:>7}",
        "Benchmark", "Ops", "Components", "Edges", "Depth"
    )?;
    for b in table1_benchmarks() {
        writeln!(
            Stdout,
            "{:<12} {:>4} {:>12} {:>7} {:>7}",
            b.name,
            b.graph.len(),
            b.allocation.to_string(),
            b.graph.edge_count(),
            b.graph.depth()
        )?;
    }
    Ok(())
}

/// Parses a `--flow` keyword through the one keyword table,
/// [`FlowKind::parse`].
fn parse_flow(keyword: &str) -> Result<FlowKind, String> {
    FlowKind::parse(keyword)
        .ok_or_else(|| format!("unknown flow `{keyword}` (expected ours|dcsa|ba|baseline)"))
}

/// Resolves a `<bench|file.assay>` argument through the batch intake: a
/// Table-I name first, then a path. `flow` is the `--flow` value, which
/// beats an assay file's own `flow` statement.
fn resolve_target(target: &str, flow: Option<&str>) -> Result<BatchJob, String> {
    let overrides = FlowDecl {
        kind: flow.map(parse_flow).transpose()?,
        ..FlowDecl::default()
    };
    let source = if benchmark_by_name(target).is_some() {
        AssaySource::Bench(target)
    } else if std::path::Path::new(target).exists() {
        AssaySource::File(target)
    } else {
        return Err(format!(
            "`{target}` is neither a benchmark (see `mfb list`) nor an assay file"
        ));
    };
    resolve_job(source, Some(std::path::Path::new("")), &overrides).map_err(|e| e.to_string())
}

/// Parses the value of a `--timeout <secs>` flag: a finite, positive
/// number of seconds.
fn parse_timeout_secs(value: Option<&String>) -> Result<f64, String> {
    let raw = value.ok_or("--timeout needs a number of seconds")?;
    let secs: f64 = raw.parse().map_err(|e| format!("--timeout: {e}"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err("--timeout must be a positive number of seconds".into());
    }
    Ok(secs)
}

/// A fresh [`Budget`] for `timeout_secs` (the deadline starts now), or
/// an unlimited one when the flag was absent.
fn budget_for(timeout_secs: Option<f64>) -> Budget {
    match timeout_secs {
        Some(s) => Budget::with_timeout(std::time::Duration::from_secs_f64(s)),
        None => Budget::unlimited(),
    }
}

fn print_solution(name: &str, comps: &ComponentSet, solution: &Solution) -> Result<(), Failure> {
    let m = SolutionMetrics::of(solution, comps);
    writeln!(Stdout, "benchmark: {name}")?;
    writeln!(Stdout, "  execution time     : {}", m.execution_time)?;
    writeln!(
        Stdout,
        "  resource util      : {:.1}%",
        m.utilization * 100.0
    )?;
    writeln!(
        Stdout,
        "  channel length     : {:.0} mm",
        m.channel_length_mm
    )?;
    writeln!(Stdout, "  channel cache time : {}", m.cache_time)?;
    writeln!(Stdout, "  channel wash time  : {}", m.channel_wash_time)?;
    writeln!(Stdout, "  component washes   : {}", m.component_wash_time)?;
    writeln!(Stdout, "  routing delay      : {}", m.total_delay)?;
    writeln!(Stdout, "  in-place deliveries: {}", m.in_place)?;
    writeln!(Stdout, "  transports routed  : {}", m.transports)?;
    writeln!(Stdout, "  placement attempts : {}", solution.attempts)?;
    let control =
        mfb_control::ControlEstimate::of_chip(&solution.routing, &solution.placement, comps);
    writeln!(Stdout, "  control estimate   : {control}")
}

fn cmd_motivating() -> Result<(), Failure> {
    let b = motivating_example();
    let comps = b.components(&ComponentLibrary::default());
    let ours = Synthesizer::paper_dcsa()
        .synthesize(&b.graph, &comps, &wash())
        .map_err(|e| e.to_string())?;
    let ba = Synthesizer::paper_baseline()
        .synthesize(&b.graph, &comps, &wash())
        .map_err(|e| e.to_string())?;
    writeln!(Stdout, "== Fig. 2(a) running example ==\n")?;
    writeln!(Stdout, "-- our flow --")?;
    print_solution(b.name, &comps, &ours)?;
    writeln!(Stdout, "\n{}", render_gantt(&ours.schedule, &comps))?;
    writeln!(Stdout, "-- baseline --")?;
    print_solution(b.name, &comps, &ba)?;
    writeln!(Stdout, "\n{}", render_gantt(&ba.schedule, &comps))?;
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<ExitCode, Failure> {
    let mut target: Option<String> = None;
    let mut flow: Option<String> = None;
    let mut svg_out: Option<String> = None;
    let mut want_map = false;
    let mut want_gantt = false;
    let mut want_heat = false;
    let mut save: Option<String> = None;
    let mut timeout: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--flow" => flow = Some(it.next().ok_or("--flow needs a value")?.clone()),
            "--svg" => svg_out = Some(it.next().ok_or("--svg needs a file")?.clone()),
            "--map" => want_map = true,
            "--gantt" => want_gantt = true,
            "--heat" => want_heat = true,
            "--save" => save = Some(it.next().ok_or("--save needs a file")?.clone()),
            "--timeout" => timeout = Some(parse_timeout_secs(it.next())?),
            other if target.is_none() => target = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }
    let target = target.ok_or("usage: mfb run <bench|file.assay> [--flow ours|ba]")?;
    let job = resolve_target(&target, flow.as_deref())?.with_budget(budget_for(timeout));
    let solution = job.solve(None).map_err(|e| e.to_string())?;
    let comps = &job.components;
    print_solution(job.graph.name(), comps, &solution)?;

    let report = solution.verify(&job.graph, comps, &*job.wash);
    let valid = report.is_valid();
    if valid {
        writeln!(Stdout, "  replay validation  : OK")?;
    } else {
        writeln!(
            Stdout,
            "  replay validation  : {} violations!",
            report.violations.len()
        )?;
        for v in &report.violations {
            writeln!(Stdout, "    {v}")?;
        }
    }

    if want_gantt {
        writeln!(Stdout, "\n{}", render_gantt(&solution.schedule, comps))?;
    }
    if want_map {
        writeln!(
            Stdout,
            "\n{}",
            render_ascii(&solution.placement, comps, Some(&solution.routing))
        )?;
    }
    if want_heat {
        writeln!(
            Stdout,
            "\n{}",
            render_heatmap(&solution.placement, &solution.routing)
        )?;
    }
    if let Some(path) = svg_out {
        let svg = render_svg(&solution.placement, comps, Some(&solution.routing));
        std::fs::write(&path, svg).map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(Stdout, "layout written to {path}")?;
    }
    if let Some(path) = save {
        let json = serde_json::to_string_pretty(&solution)
            .map_err(|e| format!("serializing solution: {e}"))?;
        std::fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(Stdout, "solution written to {path}")?;
    }
    Ok(if valid {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// `mfb fmt <file.assay>... [--check]`: rewrites assay files into the
/// canonical DSL form (or, with `--check`, exits 1 if any file differs
/// without touching it).
fn cmd_fmt(args: &[String]) -> Result<ExitCode, Failure> {
    let mut check = false;
    let mut files: Vec<String> = Vec::new();
    for a in args {
        match a.as_str() {
            "--check" => check = true,
            other if other.starts_with("--") => {
                return Err(format!("unexpected argument `{other}`").into())
            }
            other => files.push(other.to_string()),
        }
    }
    if files.is_empty() {
        return Err("usage: mfb fmt <file.assay>... [--check]".into());
    }
    let mut dirty = 0usize;
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
        let ast = parse_assay_ast(&text).map_err(|e| format!("{file}: {e}"))?;
        let formatted = write_assay_ast(&ast);
        if formatted == text {
            continue;
        }
        if check {
            eprintln!("{file}: not canonically formatted (run `mfb fmt {file}`)");
            dirty += 1;
        } else {
            std::fs::write(file, &formatted).map_err(|e| format!("writing {file}: {e}"))?;
            writeln!(Stdout, "{file}: reformatted")?;
        }
    }
    Ok(if dirty > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_events(args: &[String]) -> Result<(), Failure> {
    let mut target: Option<String> = None;
    let mut flow: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--flow" => flow = Some(it.next().ok_or("--flow needs a value")?.clone()),
            other if target.is_none() => target = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }
    let target = target.ok_or("usage: mfb events <bench|file.assay> [--flow ours|ba]")?;
    let solution = resolve_target(&target, flow.as_deref())?
        .solve(None)
        .map_err(|e| e.to_string())?;
    let log = mfb_sim::prelude::event_log(&solution.schedule, &solution.routing);
    write!(Stdout, "{}", mfb_sim::prelude::render_event_log(&log))?;
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), Failure> {
    let [file, target] = args else {
        return Err("usage: mfb validate <file.json> <bench|file.assay>".into());
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let solution: Solution = serde_json::from_str(&text).map_err(|e| format!("{file}: {e}"))?;
    let job = resolve_target(target, None)?;
    let report = solution.verify(&job.graph, &job.components, &*job.wash);
    if report.is_valid() {
        writeln!(
            Stdout,
            "{file}: physically executable on {} ({} transports, makespan {:.1}s)",
            job.graph.name(),
            solution.routing.paths.len(),
            report.stats.makespan.as_secs_f64()
        )?;
        Ok(())
    } else {
        for v in &report.violations {
            eprintln!("  {v}");
        }
        Err(format!("{file}: {} violations", report.violations.len()).into())
    }
}

/// Validates the shared `--only`/`--skip` rule selection of `verify` and
/// `analyze`: every id must exist, so a typo cannot silently pass a check.
/// `--only` keeps just the listed rules; `--skip` is subtractive.
fn validate_rule_ids(
    command: &str,
    known: &[&str],
    only: &[String],
    skip: &[String],
) -> Result<(), String> {
    for id in only.iter().chain(skip.iter()) {
        if !known.contains(&id.as_str()) {
            return Err(format!(
                "unknown rule `{id}`; see `mfb {command} --list-rules`"
            ));
        }
    }
    Ok(())
}

/// Prints the `--list-rules` table shared by `verify` and `analyze`.
fn print_rule_table(
    rules: &[mfb_verify::RuleInfo],
    is_enabled: impl Fn(&str) -> bool,
) -> Result<(), Failure> {
    writeln!(
        Stdout,
        "{:<14} {:<8} {:<28} description",
        "rule", "severity", "name"
    )?;
    for r in rules {
        let state = if is_enabled(r.id) { "" } else { " (disabled)" };
        writeln!(
            Stdout,
            "{:<14} {:<8} {:<28} {}{state}",
            r.id, r.severity, r.name, r.description
        )?;
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<ExitCode, Failure> {
    cmd_check("verify", RuleRegistry::with_all_rules(), args)
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, Failure> {
    cmd_check("analyze", analysis_registry(), args)
}

/// The shared body of `verify` (the DRC rules) and `analyze` (the `ANA-*`
/// rules): synthesize the target, run `registry` over it, render the
/// report. `--disable` is accepted by `verify` only, `--inject` by
/// `analyze` only.
fn cmd_check(
    command: &str,
    mut registry: RuleRegistry,
    args: &[String],
) -> Result<ExitCode, Failure> {
    use mfb_verify::prelude::*;

    let mut target: Option<String> = None;
    let mut flow: Option<String> = None;
    let mut format = "pretty".to_string();
    let mut out: Option<String> = None;
    let mut only: Vec<String> = Vec::new();
    let mut skip: Vec<String> = Vec::new();
    let mut inject: Option<String> = None;
    let mut list_rules = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--flow" => flow = Some(it.next().ok_or("--flow needs a value")?.clone()),
            "--format" => format = it.next().ok_or("--format needs a value")?.clone(),
            "--out" => out = Some(it.next().ok_or("--out needs a file")?.clone()),
            "--only" => only.push(it.next().ok_or("--only needs a rule id")?.clone()),
            "--skip" => skip.push(it.next().ok_or("--skip needs a rule id")?.clone()),
            // `--disable` predates `--skip` and stays as a `verify` alias.
            "--disable" if command == "verify" => {
                skip.push(it.next().ok_or("--skip needs a rule id")?.clone())
            }
            "--inject" if command == "analyze" => {
                inject = Some(it.next().ok_or("--inject needs a defect kind")?.clone())
            }
            "--list-rules" => list_rules = true,
            other if target.is_none() => target = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }

    let known: Vec<&str> = registry.rules().map(|r| r.id).collect();
    validate_rule_ids(command, &known, &only, &skip)?;
    if !only.is_empty() {
        registry.retain_only(only.iter().map(String::as_str));
    }
    for id in &skip {
        registry.disable(id);
    }

    if list_rules {
        let rules: Vec<_> = registry.rules().collect();
        print_rule_table(&rules, |id| registry.is_enabled(id))?;
        return Ok(ExitCode::SUCCESS);
    }

    let target = target.ok_or_else(|| {
        format!("usage: mfb {command} <bench|file.assay> [--format pretty|json|sarif]")
    })?;
    let job = resolve_target(&target, flow.as_deref())?;
    let mut solution = job.solve(None).map_err(|e| e.to_string())?;
    if let Some(kind) = &inject {
        inject_defect(&mut solution, kind)?;
        eprintln!("injected `{kind}` defect into the routed solution");
    }
    let (graph, comps, router) = (&job.graph, &job.components, job.config.router);
    let report = if command == "analyze" {
        solution.analyze_with(graph, comps, &*job.wash, router, &registry)
    } else {
        solution.drc_with(graph, comps, &*job.wash, router, &registry)
    };

    let rendered = match format.as_str() {
        "pretty" => render_pretty(&report),
        "json" => render_json(&report),
        "sarif" => render_sarif(&report, &registry),
        other => {
            return Err(format!("unknown format `{other}` (expected pretty|json|sarif)").into())
        }
    };
    match out {
        Some(path) => {
            std::fs::write(&path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("report written to {path}");
        }
        None => write!(Stdout, "{rendered}")?,
    }
    Ok(ExitCode::from(report.exit_code() as u8))
}

/// Corrupts a routed solution with a known defect so the analyzer's
/// detection can be demonstrated (and CI-checked) on real benchmarks.
fn inject_defect(solution: &mut mfb_core::prelude::Solution, kind: &str) -> Result<(), String> {
    let paths = &mut solution.routing.paths;
    let donor = paths
        .iter()
        .find(|p| !p.is_empty())
        .ok_or("cannot inject: the solution has no routed paths")?;
    let donor_fluid = donor.fluid;
    let cell = donor.cells[0];
    let window = donor.windows[0];
    let victim = paths
        .iter_mut()
        .find(|p| p.fluid != donor_fluid && !p.is_empty())
        .ok_or("cannot inject: need two routed fluids")?;
    match kind {
        // A different fluid books the donor's head cell at the same time:
        // conflict classes 1–2, caught by replay and ANA-TAINT-001 alike.
        "conflict" => {
            victim.cells.push(cell);
            victim.windows.push(window);
        }
        // The different fluid arrives one tick after the donor leaves —
        // inside the residue horizon, before any wash can complete.
        "wash-gap" => {
            let start = window.end + mfb_model::prelude::Duration::from_ticks(1);
            let end = start + mfb_model::prelude::Duration::from_secs(2);
            victim.cells.push(cell);
            victim
                .windows
                .push(mfb_model::prelude::Interval::new(start, end));
        }
        other => {
            return Err(format!(
                "unknown defect kind `{other}` (expected conflict|wash-gap)"
            ))
        }
    }
    Ok(())
}

/// Aggregated outcome of one (benchmark, severity) cell of the sweep.
struct SweepCell {
    survived: u32,
    trials: u32,
    attempts_sum: u32,
    degradation_sum: f64,
    midassay_survived: u32,
    midassay_trials: u32,
    drc_fault_findings: usize,
}

fn cmd_faults(args: &[String]) -> Result<(), Failure> {
    use mfb_sim::prelude::{assess_faults, FaultEvent, FaultKind};
    use mfb_verify::prelude::{RuleRegistry, VerifyInput};

    let mut sweep = false;
    let mut bench: Option<String> = None;
    let mut trials: u32 = 5;
    let mut seed: u64 = 1;
    let mut flow = "ours".to_string();
    let mut timeout: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sweep" => sweep = true,
            "--bench" => bench = Some(it.next().ok_or("--bench needs a name")?.clone()),
            "--timeout" => timeout = Some(parse_timeout_secs(it.next())?),
            "--trials" => trials = parse_num(it.next(), "--trials")?,
            "--seed" => seed = parse_num(it.next(), "--seed")?,
            "--flow" => flow = it.next().ok_or("--flow needs a value")?.clone(),
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }
    let trials = trials.max(1);

    let table1 = table1_benchmarks();
    let benches: Vec<Benchmark> = match &bench {
        Some(name) => vec![benchmark_by_name(name)
            .ok_or_else(|| format!("unknown benchmark `{name}`; see `mfb list`"))?],
        None if sweep => table1.clone(),
        None => vec![benchmark_by_name("PCR").expect("PCR is a Table-I benchmark")],
    };
    // (cell block probability, component death probability) per severity.
    let severities: &[(f64, f64)] = if sweep {
        &[(0.0, 0.0), (0.01, 0.05), (0.03, 0.10), (0.05, 0.20)]
    } else {
        &[(0.02, 0.10)]
    };
    let synth = Synthesizer::new(SynthesisConfig::for_flow(&FlowDecl {
        kind: Some(parse_flow(&flow)?),
        ..FlowDecl::default()
    }));
    let registry = RuleRegistry::with_all_rules();

    writeln!(
        Stdout,
        "fault-injection sweep: seed {seed}, {trials} trial(s)/severity, flow {flow}, \
         ladder reseed={} grow={} relax-tc={} rebind={}",
        Rung::Reseed.attempts(),
        Rung::GrowGrid.attempts(),
        Rung::RelaxTc.attempts(),
        Rung::Rebind.attempts()
    )?;
    writeln!(
        Stdout,
        "{:<10} {:>7} {:>7} {:>9} {:>9} {:>10} {:>13} {:>10}",
        "benchmark",
        "cell_p",
        "comp_p",
        "survival",
        "mean_att",
        "mean_degr",
        "midassay_surv",
        "drc_faults"
    )?;

    for b in &benches {
        // A benchmark's trial seeds derive from its Table-I row (Synthetic5,
        // outside the table, takes the row after it), so it draws the same
        // defect maps alone as in the full sweep.
        let row = table1
            .iter()
            .position(|t| t.name == b.name)
            .unwrap_or(table1.len());
        let comps = b.components(&ComponentLibrary::default());
        let pristine = synth
            .synthesize(&b.graph, &comps, &wash())
            .map_err(|e| format!("{}: pristine synthesis failed: {e}", b.name))?;
        let grid = pristine.placement.grid();
        let pristine_completion = pristine.routing.completion().as_secs_f64();
        let midassay_at = Instant::from_secs((pristine_completion / 2.0) as u64);

        for (li, &(cell_p, comp_p)) in severities.iter().enumerate() {
            // Every trial is a pure function of its trial seed, so trials
            // run concurrently (bounded by MFB_THREADS) and fold into the
            // cell in trial order — identical totals to the serial sweep,
            // including the order-sensitive f64 degradation sum.
            struct TrialOutcome {
                /// `(attempts, degradation %, DRC-FAULT-001 findings)` of a
                /// surviving resynthesis, if any.
                survivor: Option<(u32, f64, usize)>,
                /// Whether the pristine solution survived this trial's
                /// mid-assay fault (`None` when the trial drew no defects).
                midassay: Option<bool>,
            }
            let outcomes = mfb_model::par::par_map_ordered(trials as usize, |ti| {
                let trial = ti as u32;
                // Deterministic per (seed, benchmark, severity, trial).
                let trial_seed = seed
                    .wrapping_mul(0x0000_0100_0000_01B3)
                    .wrapping_add((row as u64) << 40)
                    .wrapping_add((li as u64) << 20)
                    .wrapping_add(u64::from(trial));
                let defects = DefectMap::sample(grid, &comps, cell_p, comp_p, trial_seed);

                // Resynthesize around the defects with the full ladder.
                // Each trial gets a fresh budget (deadline measured from
                // its own start) and a private cache; an expired trial
                // simply yields no survivor, so the sweep's accounting
                // stays well-defined under `--timeout`.
                let resynthesized = synth.synthesize_resilient(
                    &b.graph,
                    &comps,
                    &wash(),
                    &defects,
                    None,
                    &budget_for(timeout),
                );
                let survivor = resynthesized.ok().map(|sol| {
                    let completion = sol.routing.completion().as_secs_f64();
                    let degradation =
                        (completion - pristine_completion) / pristine_completion * 100.0;
                    // DRC-FAULT-001: no artifact of the survivor may touch
                    // a defect.
                    let w = wash();
                    let input = VerifyInput::new(
                        &b.graph,
                        &comps,
                        &sol.schedule,
                        &sol.placement,
                        &sol.routing,
                        &w,
                        synth.config().router,
                    )
                    .with_defects(&defects);
                    let report = registry.run(&input);
                    let drc_faults = report
                        .diagnostics
                        .iter()
                        .filter(|d| d.rule == "DRC-FAULT-001")
                        .count();
                    (sol.attempts, degradation, drc_faults)
                });

                // Mid-assay: would the *pristine* solution, already
                // executing, survive this trial's first fault striking at
                // half-makespan without resynthesis?
                let midassay_fault = defects
                    .blocked_cells()
                    .first()
                    .map(|&c| FaultKind::CellBlocked(c))
                    .or_else(|| {
                        defects
                            .dead_components()
                            .first()
                            .map(|&c| FaultKind::ComponentDead(c))
                    });
                let midassay = midassay_fault.map(|kind| {
                    let impacts = assess_faults(
                        &pristine.schedule,
                        &pristine.placement,
                        &pristine.routing,
                        &[FaultEvent {
                            at: midassay_at,
                            kind,
                        }],
                    );
                    impacts.iter().all(|i| i.survives())
                });
                TrialOutcome { survivor, midassay }
            });

            let mut cell = SweepCell {
                survived: 0,
                trials,
                attempts_sum: 0,
                degradation_sum: 0.0,
                midassay_survived: 0,
                midassay_trials: 0,
                drc_fault_findings: 0,
            };
            for o in outcomes {
                if let Some((attempts, degradation, drc_faults)) = o.survivor {
                    cell.survived += 1;
                    cell.attempts_sum += attempts;
                    cell.degradation_sum += degradation;
                    cell.drc_fault_findings += drc_faults;
                }
                if let Some(survived) = o.midassay {
                    cell.midassay_trials += 1;
                    if survived {
                        cell.midassay_survived += 1;
                    }
                }
            }

            let mean_att = if cell.survived > 0 {
                f64::from(cell.attempts_sum) / f64::from(cell.survived)
            } else {
                0.0
            };
            let mean_degr = if cell.survived > 0 {
                cell.degradation_sum / f64::from(cell.survived)
            } else {
                0.0
            };
            let midassay = if cell.midassay_trials > 0 {
                format!("{}/{}", cell.midassay_survived, cell.midassay_trials)
            } else {
                "-".to_string()
            };
            writeln!(
                Stdout,
                "{:<10} {:>7.2} {:>7.2} {:>6}/{:<2} {:>9.1} {:>+9.1}% {:>13} {:>10}",
                b.name,
                cell_p,
                comp_p,
                cell.survived,
                cell.trials,
                mean_att,
                mean_degr,
                midassay,
                cell.drc_fault_findings
            )?;
        }
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), Failure> {
    let mut json = false;
    let mut out: Option<String> = None;
    let mut repeats: u32 = 3;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--out" => out = Some(it.next().ok_or("--out needs a path")?.clone()),
            "--repeats" => {
                repeats = it
                    .next()
                    .ok_or("--repeats needs a number")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
            }
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }
    let report = mfb_bench::perf::perf_report(&mfb_bench::perf::bench_set(), repeats);
    let text = if json {
        let mut s = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        s.push('\n');
        s
    } else {
        mfb_bench::perf::perf_text(&report)
    };
    match out {
        Some(path) => std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?,
        None => write!(Stdout, "{text}")?,
    }
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, Failure> {
    let mut manifest: Option<String> = None;
    let mut json = false;
    let mut warm = false;
    let mut out: Option<String> = None;
    let mut timeout: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--warm" => warm = true,
            "--out" => out = Some(it.next().ok_or("--out needs a path")?.clone()),
            "--timeout" => timeout = Some(parse_timeout_secs(it.next())?),
            "--threads" => {
                let n: usize = it
                    .next()
                    .ok_or("--threads needs a number")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                std::env::set_var("MFB_THREADS", n.to_string());
            }
            other if manifest.is_none() && !other.starts_with('-') => {
                manifest = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }
    let manifest = manifest.ok_or("usage: mfb batch <manifest.json> [options]")?;
    let text = std::fs::read_to_string(&manifest).map_err(|e| format!("{manifest}: {e}"))?;
    let base_dir = std::path::Path::new(&manifest)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| std::path::Path::new("."))
        .to_path_buf();
    let mut jobs = parse_manifest(&text, &base_dir).map_err(|e| e.to_string())?;
    // The budget's deadline starts now and is shared by the whole batch:
    // every job's checkpoints poll the same wall-clock cutoff, so a slow
    // batch degrades into typed per-job `deadline exceeded` failures
    // instead of hanging the invocation.
    if timeout.is_some() {
        let budget = budget_for(timeout);
        jobs = jobs
            .into_iter()
            .map(|j| j.with_budget(budget.clone()))
            .collect();
    }

    let cache = StageCache::new();
    if warm {
        // Untimed pre-pass: the reported batch then measures pure
        // warm-cache throughput.
        run_batch(&jobs, &cache);
    }
    let run = run_batch(&jobs, &cache);

    let rendered = if json {
        let mut s = serde_json::to_string_pretty(&run.report).map_err(|e| e.to_string())?;
        s.push('\n');
        s
    } else {
        batch_text(&run.report)
    };
    match out {
        Some(path) => std::fs::write(&path, &rendered).map_err(|e| format!("{path}: {e}"))?,
        None => write!(Stdout, "{rendered}")?,
    }
    Ok(if run.report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Plain-text rendering of a batch report.
fn batch_text(report: &mfb_batch::prelude::BatchReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>3} {:>8} {:>9} {:>10} {:>5} {:>9} {:>9}",
        "job", "ok", "attempts", "exec_s", "chan_mm", "warm", "prep_ms", "solve_ms"
    );
    for o in &report.outcomes {
        let _ = writeln!(
            out,
            "{:<16} {:>3} {:>8} {:>9.1} {:>10.1} {:>5} {:>9.2} {:>9.2}{}",
            o.name,
            if o.ok { "yes" } else { "NO" },
            o.attempts,
            o.execution_secs,
            o.channel_length_mm,
            if o.warm_schedule { "yes" } else { "no" },
            o.prep_ms,
            o.solve_ms,
            match &o.error {
                Some(e) => format!("  {e}"),
                None => String::new(),
            }
        );
    }
    let _ = writeln!(
        out,
        "{}/{} jobs ok in {:.2}s on {} threads: {:.2} assays/s; cache {} hits / {} misses \
         ({} schedule validations)",
        report.ok,
        report.jobs,
        report.wall_seconds,
        report.threads,
        report.assays_per_sec,
        report.cache.hits(),
        report.cache.misses(),
        report.cache.schedule_validations
    );
    out
}

/// `mfb serve`: run the crash-safe synthesis daemon until SIGTERM,
/// SIGINT, or a `drain` request, then print the shutdown summary.
fn cmd_serve(args: &[String]) -> Result<(), Failure> {
    use mfb_serve::prelude::*;

    let mut cfg = ServerConfig {
        listen: "127.0.0.1:7411".to_owned(),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => cfg.listen = it.next().ok_or("--listen needs an address")?.clone(),
            "--cache-dir" => {
                cfg.cache_dir = Some(std::path::PathBuf::from(
                    it.next().ok_or("--cache-dir needs a directory")?,
                ));
            }
            "--workers" => cfg.workers = parse_num(it.next(), "--workers")?,
            "--queue-cap" => {
                cfg.queue_cap = parse_num(it.next(), "--queue-cap")?;
                if cfg.queue_cap == 0 {
                    return Err("--queue-cap must be at least 1".into());
                }
            }
            "--client-cap" => {
                cfg.client_cap = parse_num(it.next(), "--client-cap")?;
                if cfg.client_cap == 0 {
                    return Err("--client-cap must be at least 1".into());
                }
            }
            "--snapshot-every" => {
                cfg.snapshot_every = parse_num(it.next(), "--snapshot-every")?;
                if cfg.snapshot_every == 0 {
                    return Err("--snapshot-every must be at least 1".into());
                }
            }
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }

    let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    match server.local_addr() {
        Some(addr) => eprintln!("mfb serve: listening on {addr}"),
        None => eprintln!("mfb serve: listening"),
    }
    let summary = server.run().map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "mfb serve: drained; {} done, {} failed{}{}",
        summary.done,
        summary.failed,
        match summary.snapshot_entries {
            Some(n) => format!(", {n} cache entries snapshotted"),
            None => String::new(),
        },
        if summary.loaded.imported + summary.loaded.dropped > 0 {
            format!(
                " (started with {} imported / {} dropped)",
                summary.loaded.imported, summary.loaded.dropped
            )
        } else {
            String::new()
        }
    );
    Ok(())
}

fn parse_num<T>(value: Option<&String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    value
        .ok_or_else(|| format!("{flag} needs a number"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// `mfb client <addr> [request]`: one-shot (or stdin-driven) client for
/// the daemon's line-delimited JSON protocol. Responses are printed one
/// per line, exactly as received.
fn cmd_client(args: &[String]) -> Result<(), Failure> {
    let mut addr: Option<String> = None;
    let mut request: Option<String> = None;
    for a in args {
        if addr.is_none() {
            addr = Some(a.clone());
        } else if request.is_none() {
            request = Some(a.clone());
        } else {
            return Err(format!("unexpected argument `{a}`").into());
        }
    }
    let addr = addr.ok_or("usage: mfb client <addr> [request-json]")?;

    // Same rule the server uses: a `/` means a Unix-socket path.
    if addr.contains('/') {
        #[cfg(unix)]
        {
            let stream = std::os::unix::net::UnixStream::connect(&addr)
                .map_err(|e| format!("{addr}: {e}"))?;
            return client_session(stream, request);
        }
        #[cfg(not(unix))]
        return Err("unix-socket paths are not supported on this platform".into());
    }
    let stream = std::net::TcpStream::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
    client_session(stream, request)
}

fn client_session<S: std::io::Read + std::io::Write>(
    stream: S,
    request: Option<String>,
) -> Result<(), Failure> {
    use std::io::{BufRead, BufReader};
    // One BufReader wraps the stream; writes go through `get_mut` (the
    // buffer only holds unread response bytes, so this is safe).
    let mut conn = BufReader::new(stream);
    let mut roundtrip = |line: &str| -> Result<(), Failure> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        conn.get_mut()
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| conn.get_mut().flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = conn
            .read_line(&mut response)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        write!(Stdout, "{response}")?;
        Ok(())
    };
    match request {
        Some(line) => roundtrip(&line),
        None => {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let line = line.map_err(|e| format!("stdin: {e}"))?;
                roundtrip(&line)?;
            }
            Ok(())
        }
    }
}

fn cmd_audit(args: &[String]) -> Result<(), Failure> {
    let target = args.first().ok_or("usage: mfb audit <bench|file.assay>")?;
    let job = resolve_target(target, None)?;
    let solution = job.solve(None).map_err(|e| e.to_string())?;
    let comps = &job.components;

    writeln!(Stdout, "physical audits for {}:", job.graph.name())?;

    // Transport-time slack: is the scheduler's constant t_c honest for the
    // routed channel lengths under realistic pumping pressure?
    let model = PressureDriven::typical_pdms();
    let audit = audit_transport_times(&solution, &model);
    writeln!(
        Stdout,
        "  transport audit ({:.0} kPa, {:.0} um channels): {}",
        model.pressure_kpa,
        model.channel_height_um,
        if audit.is_sound() {
            format!(
                "all {} transports fit t_c (worst ratio {:.2})",
                audit.tasks.len(),
                audit.worst_ratio()
            )
        } else {
            format!("{} transports exceed t_c!", audit.violations().count())
        }
    )?;

    // Area vs a conventional dedicated-storage design.
    let area = area_report(&solution);
    writeln!(
        Stdout,
        "  occupied area      : {:.0} mm^2 ({} fluids cached at peak)",
        area.occupied_mm2, area.peak_cached_fluids
    )?;
    writeln!(
        Stdout,
        "  dedicated storage  : +{:.0} mm^2 equivalent ({:.0}% saved by DCSA)",
        area.dedicated_storage_equivalent_mm2,
        area.savings_fraction() * 100.0
    )?;

    // Wash realizability: can every channel wash actually be flushed with
    // buffer in its time gap?
    let plan = mfb_route::prelude::plan_washes(
        &solution.routing,
        &solution.schedule,
        &job.graph,
        &solution.placement,
        &*job.wash,
        &mfb_route::prelude::RouterConfig::paper(),
    );
    writeln!(
        Stdout,
        "  wash plan          : {} flushes, {} incidental, {} unplannable ({:.0}% coverage)",
        plan.flushes.len(),
        plan.incidental,
        plan.unplanned.len(),
        plan.coverage() * 100.0
    )?;

    // Control layer.
    let control =
        mfb_control::ControlEstimate::of_chip(&solution.routing, &solution.placement, comps);
    writeln!(Stdout, "  control layer      : {control}")?;
    Ok(())
}
