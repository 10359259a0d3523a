//! Every command that takes a `<bench|file.assay>` target resolves it the
//! same way and accepts the same `--flow` keywords: the `mfb` binary is
//! driven end to end from the workspace root.

use std::process::{Command, Output};

fn mfb(args: &[&str]) -> Output {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new(env!("CARGO_BIN_EXE_mfb"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("mfb runs")
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
/// header) and, per severity, how many attempts the ladder spent.
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
         Synthetic4    0.01    0.05      2/2        5.0      +0.0%           2/2          0\n\
         Synthetic4    0.03    0.10      2/2        1.5      +4.0%           2/2          0\n\
         Synthetic4    0.05    0.20      2/2        3.0      +4.0%           2/2          0\n"
    );
}
