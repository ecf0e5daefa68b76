//! A reader that closes stdout early (`slsb run ... | head -2`) ends the
//! binaries' output, not the binaries: no panic, no backtrace, exit 0.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Pipe capacity (Linux default) plus what a `BufReader` may pull in
/// with the first line: output past this must be written after the
/// reader is gone.
const BUFFERED_MAX: usize = 64 * 1024 + 8 * 1024;

fn scenario(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(name)
}

fn spawn(cmd: &mut Command) -> Child {
    cmd.stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts")
}

/// Waits for `child` after its stdout was closed and checks that it
/// exited quietly with success.
fn assert_quiet_success(mut child: Child, what: &str) {
    let status = child.wait().expect("child exits");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "{what}: {status}, stderr {stderr:?}");
    assert!(stderr.is_empty(), "{what}: unexpected stderr {stderr:?}");
}

/// Reads one line of `child`'s stdout, closes the pipe and returns the
/// line.
fn read_one_line_and_close(child: &mut Child) -> String {
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

/// `repro` over every experiment, four times over, at a tiny scale: more
/// output than the pipe holds, so its later writes find the pipe closed.
fn repro_many() -> Command {
    let list = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .expect("repro list");
    let list = String::from_utf8(list.stdout).unwrap();
    let slugs: Vec<&str> = list
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    for _ in 0..4 {
        cmd.args(&slugs);
    }
    cmd.args([
        "--scale",
        "0.005",
        "--no-out",
        "--jobs",
        "1",
        "--log-level",
        "quiet",
    ]);
    cmd
}

#[test]
fn repro_stops_quietly_when_the_reader_leaves() {
    let full = repro_many().output().expect("repro runs");
    assert!(full.status.success());
    assert!(
        full.stdout.len() > BUFFERED_MAX,
        "only {} bytes of output: the pipe would hold them all",
        full.stdout.len()
    );
    let mut child = spawn(&mut repro_many());
    let line = read_one_line_and_close(&mut child);
    assert!(line.starts_with("# slsbench repro"), "first line {line:?}");
    assert_quiet_success(child, "repro");
}

#[test]
fn slsb_run_stops_quietly_when_the_reader_leaves() {
    let run = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_slsb"));
        cmd.arg("run").arg(scenario("batched_serverless.json"));
        spawn(&mut cmd)
    };
    let mut child = run();
    let line = read_one_line_and_close(&mut child);
    assert!(
        line.starts_with("# batched serverless"),
        "first line {line:?}"
    );
    assert_quiet_success(child, "slsb run, one line read");
    // A reader gone before the first line: every write finds it closed.
    let mut child = run();
    drop(child.stdout.take());
    assert_quiet_success(child, "slsb run, nothing read");
}
