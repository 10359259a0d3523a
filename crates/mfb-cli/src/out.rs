//! The one path from the CLI to stdout.
//!
//! `print!`/`println!` panic when stdout is a closed pipe (`mfb run
//! Synthetic5 | head -1`). Every command writes with `write!(Stdout, ..)`
//! instead (see [`Stdout`]): a closed pipe surfaces as
//! [`Failure::ClosedStdout`], which the command propagates with `?` and
//! `main` turns into a silent exit with status 141, the status a shell
//! reports for a process killed by SIGPIPE.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// Why a command stopped before finishing.
#[derive(Debug)]
pub(crate) enum Failure {
    /// A user-facing error, printed as `error: <msg>` with exit status 1.
    Msg(String),
    /// The reader closed stdout; the command stops without a word.
    ClosedStdout,
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Msg(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Msg(msg.to_string())
    }
}

/// Writes `args` to `w`, mapping a broken pipe to
/// [`Failure::ClosedStdout`] and any other write error to a message.
pub(crate) fn write_out(w: &mut impl Write, args: std::fmt::Arguments<'_>) -> Result<(), Failure> {
    w.write_fmt(args).map_err(|e| match e.kind() {
        ErrorKind::BrokenPipe => Failure::ClosedStdout,
        _ => Failure::Msg(format!("writing stdout: {e}")),
    })
}

/// The process exit status for a command's outcome; prints the error
/// message, if any, to stderr.
pub(crate) fn exit_code(result: Result<ExitCode, Failure>) -> ExitCode {
    match result {
        Ok(code) => code,
        Err(Failure::ClosedStdout) => ExitCode::from(141),
        Err(Failure::Msg(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The process's stdout as a `write!`/`writeln!` target:
/// `writeln!(Stdout, "...")?` returns `Result<(), Failure>`.
pub(crate) struct Stdout;

impl Stdout {
    /// Writes `args` to stdout through [`write_out`].
    pub(crate) fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) -> Result<(), Failure> {
        write_out(&mut std::io::stdout().lock(), args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose reader has gone away.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(ErrorKind::BrokenPipe.into())
        }
    }

    /// A writer that fails for a reason other than a closed pipe.
    struct FullDisk;

    impl Write for FullDisk {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("no space left"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn closed_pipe_stops_quietly_with_status_141() {
        let r = write_out(&mut ClosedPipe, format_args!("benchmark: {}\n", "PCR"));
        assert!(matches!(r, Err(Failure::ClosedStdout)), "{r:?}");
        assert_eq!(
            exit_code(r.map(|()| ExitCode::SUCCESS)),
            ExitCode::from(141)
        );
    }

    #[test]
    fn other_write_errors_are_reported() {
        let r = write_out(&mut FullDisk, format_args!("x"));
        assert!(
            matches!(&r, Err(Failure::Msg(m)) if m.contains("no space left")),
            "{r:?}"
        );
        assert_eq!(exit_code(r.map(|()| ExitCode::SUCCESS)), ExitCode::FAILURE);
    }

    #[test]
    fn open_writer_receives_the_text() {
        let mut buf = Vec::new();
        write_out(&mut buf, format_args!("{}-{}\n", 1, "a")).expect("Vec never fails");
        assert_eq!(buf, b"1-a\n");
    }
}
