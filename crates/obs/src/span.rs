//! Hierarchical timing spans.
//!
//! A span is an RAII guard created with [`crate::span!`] (or
//! [`SpanGuard::enter`]); while alive it sits on a thread-local stack,
//! so nested spans compose into slash-joined paths like
//! `report/fig2_stide/train`. On drop, the span's wall time (measured
//! with [`std::time::Instant`]) is recorded into the global histogram
//! `span/<path>` and logged at [`Level::Debug`].
//!
//! Guards are thread-local by design: a span opened on one thread does
//! not appear in the path of work on another thread. When telemetry is
//! disabled (`DETDIV_LOG=off`) entering a span is an atomic load and a
//! no-op guard.

use crate::level::{enabled, telemetry_enabled, Level};
use std::cell::RefCell;
use std::fmt;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's current span path (`a/b/c`), or the empty
/// string outside any span.
pub fn current_path() -> String {
    SPAN_STACK.with(|stack| stack.borrow().join("/"))
}

/// Depth of the calling thread's span stack.
pub fn current_depth() -> usize {
    SPAN_STACK.with(|stack| stack.borrow().len())
}

/// RAII guard for one timing span; see the module docs.
#[must_use = "a span guard times the scope it is bound to; dropping it immediately records ~0ns"]
#[derive(Debug)]
pub struct SpanGuard {
    /// Full slash-joined path including this span; `None` when
    /// telemetry is disabled and the guard is inert.
    path: Option<String>,
    /// Span name to emit an `E` trace event for on drop; `None` when
    /// tracing was not armed at entry (so arming mid-span never emits
    /// an unmatched `E`, and disarming mid-span never loses one).
    traced: Option<String>,
    started: Instant,
}

impl SpanGuard {
    /// Opens a span named `name`, pushing it onto the thread's span
    /// stack. Returns an inert guard when telemetry is disabled.
    pub fn enter(name: &str) -> SpanGuard {
        SpanGuard::enter_with(name, &[])
    }

    /// [`SpanGuard::enter`] carrying event arguments: when tracing is
    /// armed (see [`crate::trace`](mod@crate::trace)), the span's begin event records
    /// `args` (e.g. `detector`/`window` for a grid row) so the exported
    /// trace is self-describing. The [`crate::span!`] macro routes its
    /// `key = value` fields here.
    ///
    /// Timing spans themselves are unaffected: when telemetry is
    /// disabled (`DETDIV_LOG=off`) the guard stays inert for the
    /// histogram path even while trace events are emitted.
    pub fn enter_with(name: &str, args: &[(&'static str, &dyn fmt::Display)]) -> SpanGuard {
        let traced = if crate::trace::armed() {
            crate::trace::begin(name, args);
            Some(name.to_owned())
        } else {
            None
        };
        if !telemetry_enabled() {
            return SpanGuard {
                path: None,
                traced,
                started: Instant::now(),
            };
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name.to_owned());
            stack.join("/")
        });
        SpanGuard {
            path: Some(path),
            traced,
            started: Instant::now(),
        }
    }

    /// The span's full path, if active.
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }

    /// Elapsed wall time since the span was entered.
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }
}

/// RAII guard that adopts a parent span *path* on the current thread
/// without timing anything; see [`context`].
#[must_use = "a context guard scopes the adopted span path; dropping it immediately removes it"]
#[derive(Debug)]
pub struct ContextGuard {
    active: bool,
}

/// Adopts `path` (a pre-joined, slash-separated span path, typically a
/// [`current_path`] captured on the submitting thread) as the base of
/// the calling thread's span stack.
///
/// Spans are thread-local, so work fanned out to `detdiv-par` workers
/// would otherwise record rootless paths; a context guard lets each job
/// re-root itself under the experiment that spawned it. Unlike
/// [`SpanGuard`], dropping a context guard records **no** histogram
/// sample — the submitting thread's own span already times the fan-out.
///
/// An empty `path` (or disabled telemetry) yields an inert guard. So
/// does a `path` that is already the calling thread's current span
/// path: fan-outs that short-circuit to inline execution (one worker,
/// one job, nested maps) run their jobs on the submitting thread, and
/// adopting the prefix again there would double it — the guard keeps
/// span paths identical between inline and worker execution.
///
/// # Examples
///
/// ```
/// let parent = {
///     let _outer = detdiv_obs::span!("ctx_doc_outer");
///     detdiv_obs::current_path()
/// };
/// std::thread::scope(|scope| {
///     scope.spawn(|| {
///         let _ctx = detdiv_obs::context(&parent);
///         assert_eq!(detdiv_obs::current_path(), "ctx_doc_outer");
///     });
/// });
/// ```
pub fn context(path: &str) -> ContextGuard {
    if path.is_empty() || !telemetry_enabled() || current_path() == path {
        return ContextGuard { active: false };
    }
    SPAN_STACK.with(|stack| stack.borrow_mut().push(path.to_owned()));
    ContextGuard { active: true }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.active {
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // The `E` event pairs with the `B` emitted at entry whenever
        // the guard was created with tracing armed, independent of the
        // histogram path below — per-thread B/E balance is a trace
        // invariant the export checker enforces.
        if let Some(name) = self.traced.take() {
            crate::trace::end_paired(&name);
        }
        let Some(path) = self.path.take() else {
            return;
        };
        let elapsed = self.started.elapsed();
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        crate::registry::record_nanos(
            &format!("span/{path}"),
            elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
        );
        if enabled(Level::Debug) {
            crate::__log(
                Level::Debug,
                module_path!(),
                &"span closed",
                &[
                    ("span", &path as &dyn std::fmt::Display),
                    (
                        "elapsed_us",
                        &(elapsed.as_nanos() as f64 / 1e3) as &dyn std::fmt::Display,
                    ),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_into_slash_paths() {
        assert_eq!(current_path(), "");
        let outer = SpanGuard::enter("outer_span_test");
        assert_eq!(outer.path(), Some("outer_span_test"));
        {
            let inner = SpanGuard::enter("inner");
            assert_eq!(inner.path(), Some("outer_span_test/inner"));
            assert_eq!(current_path(), "outer_span_test/inner");
            assert_eq!(current_depth(), 2);
        }
        assert_eq!(current_path(), "outer_span_test");
        drop(outer);
        assert_eq!(current_path(), "");
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn span_durations_are_monotone_parent_covers_child() {
        {
            let _outer = SpanGuard::enter("mono_outer");
            {
                let _inner = SpanGuard::enter("mono_inner");
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = crate::snapshot();
        let outer = snap
            .histogram("span/mono_outer")
            .expect("outer span recorded");
        let inner = snap
            .histogram("span/mono_outer/mono_inner")
            .expect("inner span recorded")
            .max_ns;
        // The parent encloses the child, so its slowest observation
        // must be at least the child's.
        assert!(
            outer.max_ns >= inner,
            "parent {} < child {}",
            outer.max_ns,
            inner
        );
        assert!(inner >= 2_000_000, "inner span must cover its sleep");
    }

    #[test]
    fn context_guard_adopts_and_releases_a_path() {
        let parent = {
            let _outer = SpanGuard::enter("ctx_outer");
            let _inner = SpanGuard::enter("ctx_inner");
            current_path()
        };
        assert_eq!(parent, "ctx_outer/ctx_inner");
        {
            let _ctx = crate::context(&parent);
            assert_eq!(current_path(), "ctx_outer/ctx_inner");
            let _child = SpanGuard::enter("child");
            assert_eq!(current_path(), "ctx_outer/ctx_inner/child");
        }
        assert_eq!(current_path(), "");
    }

    #[test]
    fn context_guard_records_no_histogram() {
        {
            let _ctx = crate::context("ctx_untimed_parent");
        }
        let snap = crate::snapshot();
        assert!(
            snap.histogram("span/ctx_untimed_parent").is_none(),
            "context guards must not time anything"
        );
    }

    #[test]
    fn empty_context_is_inert() {
        let _ctx = crate::context("");
        assert_eq!(current_path(), "");
    }

    #[test]
    fn context_matching_the_current_path_is_inert() {
        let _outer = SpanGuard::enter("ctx_inline_outer");
        {
            // Inline fan-outs adopt the path they are already under;
            // the guard must not double the prefix.
            let _ctx = crate::context("ctx_inline_outer");
            assert_eq!(current_path(), "ctx_inline_outer");
        }
        assert_eq!(current_path(), "ctx_inline_outer");
    }

    #[test]
    fn spans_are_thread_local() {
        let _outer = SpanGuard::enter("thread_local_outer");
        let other = std::thread::spawn(current_path).join().unwrap();
        assert_eq!(other, "", "span stack must not leak across threads");
        assert_eq!(current_path(), "thread_local_outer");
    }
}
