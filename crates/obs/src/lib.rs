//! `detdiv-obs`: zero-dependency observability for the detdiv
//! workspace.
//!
//! The crate provides four cooperating layers, all gated by the
//! `DETDIV_LOG` environment variable (default `warn`; `off` disables
//! everything, reducing instrumented hot paths to one relaxed atomic
//! load):
//!
//! 1. **Structured logging** — [`error!`], [`warn!`], [`info!`],
//!    [`debug!`], [`trace!`] emit single-write stderr lines of the
//!    form `[detdiv info target] message key=value ...`.
//! 2. **Hierarchical timing spans** — [`span!`] returns an RAII
//!    [`SpanGuard`]; nested guards compose slash-joined paths
//!    (`report/fig2_stide/train`) and record wall time into the
//!    `span/<path>` histogram on drop.
//! 3. **Metrics** — [`incr_counter`], [`record_duration`], and
//!    [`record_cell`] feed atomic counters and log2-bucket streaming
//!    histograms ([`histogram::Histogram`]) in a process-global
//!    registry.
//! 4. **Run telemetry** — [`snapshot`] freezes the registry into a
//!    serializable [`TelemetrySnapshot`]; [`reset`] scopes it to one
//!    run. The evaluation pipeline attaches the snapshot to
//!    `FullReport` and the regeneration binary writes it as
//!    `paper_telemetry.json`.
//!
//! Shared plumbing: [`ring`], the per-thread rings under [`mod@trace`] and
//! the flight recorder; [`introspect`], the named pages scope serves.
//!
//! # Example
//!
//! ```
//! use detdiv_obs as obs;
//!
//! obs::set_max_level(obs::Level::Info);
//! let _run = obs::span!("demo_run");
//! {
//!     let _train = obs::span!("train", detector = "stide", window = 6usize);
//!     obs::incr_counter("demo/windows_scored", 94);
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("demo/windows_scored"), 94);
//! assert!(snap.histogram("span/demo_run/train").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod histogram;
pub mod introspect;
mod level;
mod profile;
mod registry;
pub mod ring;
mod snapshot;
mod span;
pub mod trace;

pub use histogram::Histogram;
pub use level::{enabled, max_level, set_max_level, telemetry_enabled, Level};
pub use profile::{ProfileRow, SelfProfile};
pub use registry::{
    export_counters, export_histograms, incr_counter, record_cell, record_duration, record_nanos,
    reset, set_counter, set_timeseries_source, snapshot, TimeseriesSource,
};
pub use snapshot::{CellTiming, HistogramSummary, SeriesSummary, TelemetrySnapshot};
pub use span::{context, current_depth, current_path, ContextGuard, SpanGuard};

use std::fmt;

/// Implementation detail of the logging macros: formats one record and
/// writes it to stderr in a single locked write.
#[doc(hidden)]
pub fn __log(
    level: Level,
    target: &str,
    message: &dyn fmt::Display,
    fields: &[(&str, &dyn fmt::Display)],
) {
    use std::fmt::Write as _;
    use std::io::Write as _;
    let mut line = String::with_capacity(96);
    let _ = write!(line, "[detdiv {level:>5} {target}] {message}");
    for (key, value) in fields {
        let _ = write!(line, " {key}={value}");
    }
    line.push('\n');
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = handle.write_all(line.as_bytes());
}

/// Escapes `s` into `out` as the contents of a JSON string literal.
pub fn push_json_escaped(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Writes pre-formatted multi-line text (e.g. a telemetry summary
/// table) verbatim to stderr when `level` is enabled, bypassing the
/// single-line `key=value` record format.
pub fn raw(level: Level, text: &str) {
    use std::io::Write as _;
    if !enabled(level) {
        return;
    }
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = handle.write_all(text.as_bytes());
    if !text.ends_with('\n') {
        let _ = handle.write_all(b"\n");
    }
}

/// Emits one structured log record at an explicit [`Level`].
///
/// `log_event!(Level::Info, "message", key = value, ...)` — the
/// message is any `Display` value; fields are `ident = expr` pairs
/// rendered as `key=value`. Arguments are not evaluated when the
/// level is disabled.
#[macro_export]
macro_rules! log_event {
    ($level:expr, $msg:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let level = $level;
        if $crate::enabled(level) {
            $crate::__log(
                level,
                module_path!(),
                &$msg,
                &[$((stringify!($key), &$val as &dyn ::std::fmt::Display)),*],
            );
        }
    }};
}

/// Logs at [`Level::Error`]; see [`log_event!`] for the field syntax.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::log_event!($crate::Level::Error, $($arg)*) };
}

/// Logs at [`Level::Warn`]; see [`log_event!`] for the field syntax.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log_event!($crate::Level::Warn, $($arg)*) };
}

/// Logs at [`Level::Info`]; see [`log_event!`] for the field syntax.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log_event!($crate::Level::Info, $($arg)*) };
}

/// Logs at [`Level::Debug`]; see [`log_event!`] for the field syntax.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::log_event!($crate::Level::Debug, $($arg)*) };
}

/// Logs at [`Level::Trace`]; see [`log_event!`] for the field syntax.
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => { $crate::log_event!($crate::Level::Trace, $($arg)*) };
}

/// Opens a hierarchical timing span and returns its RAII
/// [`SpanGuard`]; bind it (`let _span = span!("train")`) so it lives
/// for the scope being timed.
///
/// `span!("train", detector = name, window = dw)` logs the entry at
/// [`Level::Trace`] with the given fields, and on drop records wall
/// time into the `span/<path>` histogram, where `<path>` is the
/// slash-joined stack of enclosing spans on this thread. When the
/// [`trace`] recorder is armed, the span additionally emits paired
/// `B`/`E` trace events carrying the fields as event args.
///
/// Field expressions are evaluated exactly once (they feed both the
/// log record and the trace args), so keep them cheap and
/// side-effect-free — every current call site passes plain accessors.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let name = $name;
        $(let $key = $val;)*
        let args: &[(&'static str, &dyn ::std::fmt::Display)] =
            &[$((stringify!($key), &$key as &dyn ::std::fmt::Display)),*];
        $crate::log_event!($crate::Level::Trace, "span opened", span = name $(, $key = $key)*);
        $crate::SpanGuard::enter_with(name, args)
    }};
}

#[cfg(test)]
mod tests {
    use crate as obs;

    #[test]
    fn macros_compile_in_all_arities() {
        // Logging is gated at warn by default, so these mostly
        // exercise expansion, evaluation, and field rendering.
        obs::log_event!(obs::Level::Trace, "plain message");
        obs::trace!("message", answer = 42);
        obs::debug!("message", a = 1, b = "two", c = 3.5);
        obs::info!(format!("built {}", "dynamically"), extra = true,);
        let _depth_before = obs::current_depth();
        {
            let _span = obs::span!("macro_arity_span", detector = "stide", window = 6usize);
            assert_eq!(obs::current_depth(), _depth_before + 1);
        }
        assert_eq!(obs::current_depth(), _depth_before);
    }

    #[test]
    fn span_macro_records_histogram() {
        {
            let _span = obs::span!("lib_test_span");
        }
        let snap = obs::snapshot();
        assert!(snap.histogram("span/lib_test_span").is_some());
    }

    #[test]
    fn disabled_level_skips_field_evaluation_cheaply() {
        // `Off` cannot be tested here without racing other tests (the
        // level is process-global), but an arbitrarily deep disabled
        // level must still short-circuit before formatting.
        let evaluated = std::cell::Cell::new(false);
        let observe = || {
            evaluated.set(true);
            "value"
        };
        if !obs::enabled(obs::Level::Trace) {
            obs::trace!("never emitted", field = observe());
            assert!(
                !evaluated.get(),
                "disabled trace! must not evaluate its fields"
            );
        }
    }
}
