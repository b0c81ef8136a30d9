//! Fatal-exit handling for the experiment binaries.
//!
//! The drivers are batch programs: on an unrecoverable error (unwritable
//! results directory, a sweep that produced no usable data) the right move
//! is a diagnostic naming the failing call site and a non-zero exit, not a
//! panic with a backtrace pointing into library code. [`OrFail`] replaces
//! the `.expect("write CSV")` pattern: [`or_fail!`](crate::or_fail)
//! captures `file!()` / `line!()` at the call site and routes the error
//! text to stderr.

use std::fmt::Display;

/// Exit code used by the experiment binaries for unrecoverable errors.
pub const FATAL_EXIT_CODE: i32 = 2;

/// Formats the diagnostic printed before a fatal exit.
pub fn fatal_message(context: &str, detail: Option<&str>, file: &str, line: u32) -> String {
    match detail {
        Some(d) => format!("fatal: {context} at {file}:{line}: {d}"),
        None => format!("fatal: {context} at {file}:{line}"),
    }
}

/// Extension trait unwrapping `Result`/`Option` with a call-site diagnostic
/// and a clean process exit instead of a panic. Use via
/// [`or_fail!`](crate::or_fail).
pub trait OrFail<T> {
    /// The error detail this carrier reports, if any.
    fn fail_detail(&self) -> Option<String>;
    /// The success value, if present.
    fn into_ok(self) -> Option<T>;

    /// Unwraps, or prints `fatal: <context> at <file>:<line>[: <error>]` to
    /// stderr and exits with [`FATAL_EXIT_CODE`].
    fn or_fail_at(self, context: &str, file: &str, line: u32) -> T
    where
        Self: Sized,
    {
        let detail = self.fail_detail();
        match self.into_ok() {
            Some(v) => v,
            None => {
                eprintln!("{}", fatal_message(context, detail.as_deref(), file, line));
                std::process::exit(FATAL_EXIT_CODE);
            }
        }
    }
}

impl<T, E: Display> OrFail<T> for Result<T, E> {
    fn fail_detail(&self) -> Option<String> {
        self.as_ref().err().map(|e| e.to_string())
    }

    fn into_ok(self) -> Option<T> {
        self.ok()
    }
}

impl<T> OrFail<T> for Option<T> {
    fn fail_detail(&self) -> Option<String> {
        None
    }

    fn into_ok(self) -> Option<T> {
        self
    }
}

/// Unwraps a `Result`/`Option`, exiting the process with a diagnostic that
/// names this call site on failure: `or_fail!(csv.save(&path), "write CSV")`.
#[macro_export]
macro_rules! or_fail {
    ($expr:expr, $context:expr) => {
        $crate::fatal::OrFail::or_fail_at($expr, $context, file!(), line!())
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_includes_site_and_detail() {
        let m = fatal_message("write CSV", Some("permission denied"), "bin/fig3.rs", 53);
        assert_eq!(m, "fatal: write CSV at bin/fig3.rs:53: permission denied");
        let m = fatal_message("a pair exists", None, "bin/table2.rs", 89);
        assert_eq!(m, "fatal: a pair exists at bin/table2.rs:89");
    }

    #[test]
    fn success_values_pass_through() {
        let r: Result<u32, std::io::Error> = Ok(7);
        assert_eq!(or_fail!(r, "never fires"), 7);
        assert_eq!(or_fail!(Some("x"), "never fires"), "x");
    }

    #[test]
    fn detail_extraction() {
        let r: Result<(), String> = Err("boom".into());
        assert_eq!(r.fail_detail().as_deref(), Some("boom"));
        let o: Option<()> = None;
        assert_eq!(o.fail_detail(), None);
    }
}
