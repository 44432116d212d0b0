//! `semint` output piped into a reader that stops early (`semint … | head`)
//! must end the process quietly, not in a "failed printing to stdout"
//! panic.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_semint_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_semint"))
        .args(["run", "--case", "all", "--seed", "7", "--profile", "deep"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn semint");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert_eq!(first, "case sharedmem\n");
    // The reader (and with it the pipe) is dropped here, while semint still
    // has all three scenarios to run and print.
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for semint");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_ne!(status.code(), Some(101), "stderr: {stderr}");
}
