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
