//! Every command that takes a `<bench|file.assay>` target resolves it the
//! same way and accepts the same `--flow` keywords, and the experiment
//! tables keep their bytes: the `mfb` binary is driven end to end from the
//! workspace root.

use std::process::{Command, Output};

fn mfb(args: &[&str]) -> Output {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new(env!("CARGO_BIN_EXE_mfb"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("mfb runs")
}

/// The first fenced block after the EXPERIMENTS.md heading `heading`.
fn published_block(heading: &str) -> &'static str {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let section = &doc[doc
        .find(heading)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{heading}` section"))..];
    let body = &section[section.find("```\n").expect("a fenced block follows") + 4..];
    &body[..body.find("```").expect("the fenced block closes")]
}

/// The scalability table with every row's `Wall(ms)` value masked: wall
/// time differs run to run. The five columns before it are fixed-width
/// (51 characters); any error text after it is kept.
fn mask_wall_ms(table: &str) -> String {
    table
        .lines()
        .enumerate()
        .map(|(i, line)| match line.get(51..) {
            Some(rest) if i >= 2 => {
                let after = rest.trim_start().split_once(' ').map_or("", |(_, t)| t);
                format!("{} <wall ms> {after}\n", &line[..51])
            }
            _ => format!("{line}\n"),
        })
        .collect()
}

fn assert_success(args: &[&str]) -> String {
    let out = mfb(args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "mfb {args:?} exited {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn run_accepts_every_flow_keyword() {
    let stdout = assert_success(&["run", "PCR", "--flow", "dcsa"]);
    assert!(stdout.contains("replay validation  : OK"), "{stdout}");
}

#[test]
fn run_accepts_an_assay_file() {
    let stdout = assert_success(&["run", "assets/example.assay"]);
    assert!(stdout.contains("replay validation  : OK"), "{stdout}");
}

#[test]
fn events_accepts_an_assay_file() {
    let stdout = assert_success(&["events", "assets/example.assay"]);
    assert!(!stdout.is_empty());
}

#[test]
fn run_file_is_an_alias_of_run() {
    let run = assert_success(&["run", "assets/example.assay"]);
    let run_file = assert_success(&["run-file", "assets/example.assay"]);
    assert_eq!(run, run_file);
}

/// The fault sweep's bytes pin the recovery ladder's rung budgets (the
/// header) and, per severity, how many attempts the ladder spent. The rows
/// are the Synthetic4 rows of the full `--sweep` over Table I: trial seeds
/// follow the benchmark's Table-I row, not its place in the run's list.
#[test]
fn faults_sweep_output_is_pinned() {
    let stdout = assert_success(&[
        "faults",
        "--bench",
        "Synthetic4",
        "--sweep",
        "--trials",
        "2",
        "--seed",
        "1",
    ]);
    assert_eq!(
        stdout,
        "fault-injection sweep: seed 1, 2 trial(s)/severity, flow ours, \
         ladder reseed=8 grow=3 relax-tc=2 rebind=2\n\
         benchmark   cell_p  comp_p  survival  mean_att  mean_degr midassay_surv drc_faults\n\
         Synthetic4    0.00    0.00      2/2        3.0      +0.0%             -          0\n\
         Synthetic4    0.01    0.05      2/2        6.5      +0.0%           2/2          0\n\
         Synthetic4    0.03    0.10      2/2        1.5      +4.0%           2/2          0\n\
         Synthetic4    0.05    0.20      1/2        4.0     +28.5%           2/2          0\n"
    );
}

/// The seed-stability table is a pure function of the flow: every value,
/// and the layout, is pinned.
#[test]
fn stability_table_is_pinned() {
    let stdout = assert_success(&["stability"]);
    assert_eq!(
        stdout,
        "=== Seed stability across 10 annealing seeds ===\n\
         Benchmark       Exec(s) min/med/max        Channel(mm) min/med/max\n\
         PCR              24 /   24 /   24           80 /    90 /   130   (10 ok)\n\
         IVD              24 /   24 /   24          300 /   410 /   510   (10 ok)\n\
         CPA              75 /   75 /   75          550 /   700 /   820   (10 ok)\n\
         Synthetic1       38 /   38 /   38          610 /   940 /  1380   (10 ok)\n\
         Synthetic2       37 /   37 /   37         1180 /  1240 /  2370   (10 ok)\n\
         Synthetic3       53 /   53 /   53         1960 /  2230 /  2900   (10 ok)\n\
         Synthetic4       62 /   62 /   62         2910 /  3190 /  3400   (10 ok)\n"
    );
    assert_eq!(
        stdout,
        published_block("## Seed stability"),
        "EXPERIMENTS.md Seed stability is stale: regenerate it with `mfb stability`"
    );
}

/// The scalability table reports the paper flow only: sizes it routes
/// carry its quality, and the 80-operation size, which it cannot route,
/// carries its typed error instead of another flow's numbers.
#[test]
fn scalability_reports_the_paper_flow_or_its_error() {
    let stdout = assert_success(&["scalability"]);
    // Drop the trailing wall-time column (and any error text after it).
    let rows: Vec<String> = stdout
        .lines()
        .skip(2)
        .map(|l| l.split_whitespace().take(5).collect::<Vec<_>>().join(" "))
        .collect();
    assert_eq!(
        rows,
        [
            "10 (2,0,1,1) 33 83.6 190",
            "20 (3,2,3,0) 29 73.5 540",
            "30 (5,3,3,1) 45 59.4 1540",
            "40 (7,3,4,1) 57 66.5 1730",
            "60 (10,6,5,1) 57 54.8 4090",
            "80 (16,4,8,1) - - -",
        ],
        "{stdout}"
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.contains("failed: routing failed after 24 placement attempts"),
        "{last}"
    );
    assert_eq!(
        mask_wall_ms(&stdout),
        mask_wall_ms(published_block("## Scalability")),
        "EXPERIMENTS.md Scalability is stale: regenerate it with `mfb scalability`"
    );
}

/// The published ablation table is the printer's, minus its one-line
/// preamble.
#[test]
fn published_ablations_match_the_printer() {
    let text = mfb_bench::ablation_text();
    let (_, table) = text
        .split_once("\n\n")
        .expect("a preamble precedes the table");
    assert_eq!(
        published_block("## Ablations"),
        table,
        "EXPERIMENTS.md Ablations is stale: regenerate it with `mfb ablation`"
    );
}
