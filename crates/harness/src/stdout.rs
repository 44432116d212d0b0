//! Stdout writes that end the process quietly once the reader has gone.
//!
//! The Rust runtime ignores `SIGPIPE`, so after the reader of a piped stdout
//! exits (`semint run … | head -1`) every write fails with `BrokenPipe`, and
//! `println!` turns that into a panic.  Every stdout write of the `semint`
//! process goes through [`write()`] instead, by way of the [`out!`](crate::out)
//! and [`outln!`](crate::outln) macros: a broken pipe exits the process with
//! status 141, any other write error still panics.

use std::fmt;
use std::io::{ErrorKind, Write};

/// The exit status after stdout's reader has gone: 128 + `SIGPIPE`, what a
/// shell reports for a process that signal killed.
const BROKEN_PIPE_EXIT: i32 = 141;

/// Writes `args` to stdout, exiting with status 141 if the reader has closed
/// the pipe.
pub fn write(args: fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(BROKEN_PIPE_EXIT);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`write()`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdout::write(format_args!($($arg)*))
    };
}

/// `println!` through [`write()`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::stdout::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::stdout::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
