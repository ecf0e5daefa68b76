//! Flags and output shared by the `slsb` and `repro` binaries.

use slsb_obs::LogLevel;
use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write to stdout found the reading end closed.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout, as `print!` does, except that a closed stdout (the
/// reader went away, as `slsb run ... | head -2` does) is the end of
/// output rather than a panic: that write and every later one are
/// dropped, and the command runs to its normal exit status. Any other
/// write error is fatal: it is reported on stderr and the process exits
/// with status 1.
pub fn print_stdout(args: fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
        }
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`print_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::print_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`print_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::print_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::print_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Extracts a `--log-level <quiet|info|debug>` flag from `args`, removing
/// it (and its value) so subcommand parsers never see it. Returns the
/// parsed level, or [`LogLevel::Info`] when the flag is absent — the
/// default keeps today's progress output.
///
/// # Errors
/// Fails when the flag has no value or the value is not a known level.
pub fn extract_log_level(args: &mut Vec<String>) -> Result<LogLevel, String> {
    let Some(pos) = args.iter().position(|a| a == "--log-level") else {
        return Ok(LogLevel::Info);
    };
    if pos + 1 >= args.len() {
        return Err("--log-level needs a value (quiet, info, or debug)".into());
    }
    let level: LogLevel = args[pos + 1].parse()?;
    args.drain(pos..pos + 2);
    Ok(level)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn absent_flag_defaults_to_info() {
        let mut args = strs(&["run", "scenario.json"]);
        assert_eq!(extract_log_level(&mut args).unwrap(), LogLevel::Info);
        assert_eq!(args, strs(&["run", "scenario.json"]));
    }

    #[test]
    fn flag_is_stripped_wherever_it_appears() {
        let mut args = strs(&["run", "--log-level", "quiet", "scenario.json"]);
        assert_eq!(extract_log_level(&mut args).unwrap(), LogLevel::Quiet);
        assert_eq!(args, strs(&["run", "scenario.json"]));

        let mut leading = strs(&["--log-level", "debug", "all"]);
        assert_eq!(extract_log_level(&mut leading).unwrap(), LogLevel::Debug);
        assert_eq!(leading, strs(&["all"]));
    }

    #[test]
    fn bad_values_are_rejected() {
        let mut missing = strs(&["run", "--log-level"]);
        assert!(extract_log_level(&mut missing).is_err());
        let mut unknown = strs(&["--log-level", "loud"]);
        assert!(extract_log_level(&mut unknown).is_err());
    }
}
