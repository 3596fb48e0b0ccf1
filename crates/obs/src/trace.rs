//! Per-thread event tracing with Chrome trace-event export.
//!
//! This module is the *event recorder* underneath the timing spans: when
//! armed (via [`arm`], typically driven by `DETDIV_TRACE=<path>` or
//! `regenerate --trace <path>`), every [`crate::SpanGuard`] emits a
//! begin (`B`) event on entry and an end (`E`) event on drop, the
//! evaluation grid emits complete (`X`) events carrying
//! `(detector, window, anomaly_size)` args for every cell, and the
//! `detdiv-par` workers name their threads (`par-worker-N`). The
//! accumulated stream exports as standard
//! [Chrome trace-event JSON] loadable in Perfetto or `chrome://tracing`.
//!
//! # Recording model
//!
//! * Events are buffered in the shared per-thread rings of
//!   [`crate::ring`]: recording an event is a relaxed atomic load (the
//!   armed gate), a thread-local borrow, and a push — **no locks on the
//!   hot path**. A ring holds [`RING_CAPACITY`] events before it
//!   batch-flushes into the central sink, and flushes when its thread
//!   exits.
//! * The sink is capped at [`SINK_CAPACITY`] events; beyond that, new
//!   events are counted as dropped (see [`dropped`]) rather than
//!   growing without bound.
//! * Timestamps are monotonic nanoseconds from a process-wide epoch
//!   ([`std::time::Instant`]); within one thread, recorded timestamps
//!   never decrease, and flush batches preserve per-thread order, so
//!   the exported stream is monotonic per `tid`.
//!
//! Tracing is deliberately **orthogonal to `DETDIV_LOG`**: `off`
//! disables logging and metrics but an armed tracer still records
//! events, so the byte-identity determinism gate can run with tracing
//! on while the telemetry snapshot stays empty.
//!
//! # Export
//!
//! [`export_chrome_json`] (or [`write_chrome_trace`]) drains the sink
//! — flushing the calling thread first — and renders
//! `{"traceEvents": [...]}` with `B`/`E`/`i`/`X`/`C`/`M` phases,
//! microsecond `ts` values (fractional, nanosecond precision), and
//! per-thread `tid`s. Export is destructive: the sink is left empty.
//!
//! [Chrome trace-event JSON]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! # Example
//!
//! ```
//! use detdiv_obs as obs;
//!
//! obs::trace::arm();
//! {
//!     let _outer = obs::span!("trace_doc_outer");
//!     obs::trace::instant("milestone", &[("step", &1usize)]);
//! }
//! let json = obs::trace::export_chrome_json();
//! obs::trace::disarm();
//! assert!(json.contains("\"traceEvents\""));
//! assert!(json.contains("trace_doc_outer"));
//! assert!(json.contains("milestone"));
//! ```

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::ring::{Collector, ThreadRing};

/// Per-thread ring capacity, in events, before a batch flush to the
/// central sink.
pub const RING_CAPACITY: usize = 8192;

/// Central sink capacity, in events; events beyond this are dropped
/// (and counted) instead of growing memory without bound.
pub const SINK_CAPACITY: usize = 4_000_000;

/// Whether tracing is armed. Checked first by every record path.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The central sink every thread's ring flushes into.
static COLLECTOR: Collector<Event> = Collector::new(RING_CAPACITY, SINK_CAPACITY);

/// Next trace thread id; 0 is reserved for process-level metadata.
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// The process-wide trace clock epoch; all timestamps are nanoseconds
/// since this instant.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Chrome trace-event phase of one recorded [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Instant event (`"i"`, thread scope).
    Instant,
    /// Complete event (`"X"`) with an explicit duration.
    Complete,
    /// Counter sample (`"C"`).
    Counter,
    /// Metadata (`"M"`), e.g. thread names.
    Meta,
}

impl Phase {
    /// The phase's one-character Chrome trace-event code.
    pub fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
            Phase::Complete => "X",
            Phase::Counter => "C",
            Phase::Meta => "M",
        }
    }
}

/// One event argument value; strings render as JSON strings, counters
/// as JSON numbers (so Perfetto graphs them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// A textual argument.
    Text(String),
    /// A numeric argument.
    Uint(u64),
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::Text(s) => f.write_str(s),
            ArgValue::Uint(v) => write!(f, "{v}"),
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the process trace epoch.
    pub nanos: u64,
    /// Duration in nanoseconds ([`Phase::Complete`] only; 0 otherwise).
    pub dur_nanos: u64,
    /// Trace thread id (1-based; 0 is process metadata).
    pub tid: u32,
    /// Event phase.
    pub phase: Phase,
    /// Event name (span name, instant label, counter name, or metadata
    /// key such as `thread_name`).
    pub name: String,
    /// Event arguments, rendered under `"args"`.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// The calling thread's event ring plus its trace id, assigned on the
/// thread's first use of the ring.
struct TraceRing {
    tid: u32,
    events: ThreadRing<Event>,
}

thread_local! {
    static RING: RefCell<TraceRing> = RefCell::new(TraceRing {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: ThreadRing::new(&COLLECTOR),
    });
}

/// Whether tracing is armed: one relaxed atomic load, the only cost the
/// event paths pay when tracing is off.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms the recorder: subsequent spans, instants, cells, and counter
/// samples are recorded until [`disarm`]. Also pins the trace epoch.
pub fn arm() {
    let _ = epoch();
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the recorder. Already-recorded events stay in the sink until
/// drained by an export or [`reset`].
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// The trace output path configured in the environment
/// (`DETDIV_TRACE=<path>`), if any. Reading the variable does **not**
/// arm the recorder; binaries combine this with their `--trace` flag
/// and call [`arm`] themselves.
pub fn env_path() -> Option<String> {
    match std::env::var("DETDIV_TRACE") {
        Ok(path) if !path.trim().is_empty() => Some(path),
        _ => None,
    }
}

/// Events dropped so far because the central sink was full.
pub fn dropped() -> u64 {
    COLLECTOR.dropped()
}

/// Flushes the calling thread's ring into the central sink. Export
/// helpers call this automatically for the exporting thread; other
/// threads flush when their ring fills and when they exit.
///
/// **Scoped threads must call this before returning**: see
/// [`crate::ring`] for why the exit flush can come too late.
pub fn flush_thread() {
    RING.with(|ring| ring.borrow_mut().events.flush());
}

/// Drains every flushed event out of the central sink (flushing the
/// calling thread first), leaving the sink empty. Events are returned
/// in a stable order: ascending timestamp, with per-thread recording
/// order preserved.
pub fn drain() -> Vec<Event> {
    flush_thread();
    let mut events = COLLECTOR.drain();
    // Stable: equal timestamps keep their flush order, so per-tid
    // streams stay monotonic and stack-ordered.
    events.sort_by_key(|e| e.nanos);
    events
}

/// Clears the sink, the calling thread's ring, and the dropped-event
/// counter (test hook; also useful between repeated traced runs).
pub fn reset() {
    RING.with(|ring| ring.borrow_mut().events.clear());
    COLLECTOR.clear();
}

fn display_args(args: &[(&'static str, &dyn fmt::Display)]) -> Vec<(&'static str, ArgValue)> {
    args.iter()
        .map(|&(key, value)| (key, ArgValue::Text(value.to_string())))
        .collect()
}

/// Appends one event to the calling thread's ring.
fn push(nanos: u64, dur_nanos: u64, phase: Phase, name: &str, args: Vec<(&'static str, ArgValue)>) {
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        let tid = ring.tid;
        ring.events.push(Event {
            nanos,
            dur_nanos,
            tid,
            phase,
            name: name.to_owned(),
            args,
        });
    });
}

/// Records a span-begin (`B`) event. No-op unless [`armed`].
pub fn begin(name: &str, args: &[(&'static str, &dyn fmt::Display)]) {
    if armed() {
        push(now_nanos(), 0, Phase::Begin, name, display_args(args));
    }
}

/// Records a span-end (`E`) event. No-op unless [`armed`].
pub fn end(name: &str) {
    if armed() {
        end_paired(name);
    }
}

/// Ungated span-end used by [`crate::SpanGuard`]: a guard that emitted
/// a `B` at entry must close it even if the recorder was disarmed
/// while the span was open, so per-thread B/E balance survives
/// mid-span disarms.
pub(crate) fn end_paired(name: &str) {
    push(now_nanos(), 0, Phase::End, name, Vec::new());
}

/// Records an instant (`i`) event. No-op unless [`armed`].
pub fn instant(name: &str, args: &[(&'static str, &dyn fmt::Display)]) {
    if armed() {
        push(now_nanos(), 0, Phase::Instant, name, display_args(args));
    }
}

/// Records a complete (`X`) event that *ended now* and lasted
/// `duration` — the timestamp is backdated accordingly. Used for the
/// evaluation grid's per-cell events. No-op unless [`armed`].
pub fn complete(name: &str, duration: Duration, args: &[(&'static str, &dyn fmt::Display)]) {
    if armed() {
        let dur_nanos = duration.as_nanos().min(u128::from(u64::MAX)) as u64;
        let nanos = now_nanos().saturating_sub(dur_nanos);
        push(nanos, dur_nanos, Phase::Complete, name, display_args(args));
    }
}

/// Records a counter (`C`) sample; Perfetto renders successive samples
/// of the same name as a time series. No-op unless [`armed`].
pub fn counter(name: &str, value: u64) {
    if armed() {
        let args = vec![("value", ArgValue::Uint(value))];
        push(now_nanos(), 0, Phase::Counter, name, args);
    }
}

/// Names the calling thread in the exported trace (a `thread_name`
/// metadata event); `detdiv-par` workers call this with
/// `par-worker-N`. No-op unless [`armed`].
pub fn set_thread_name(name: &str) {
    if armed() {
        let args = vec![("name", ArgValue::Text(name.to_owned()))];
        push(now_nanos(), 0, Phase::Meta, "thread_name", args);
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event JSON export
// ---------------------------------------------------------------------

fn write_event(out: &mut String, event: &Event) {
    use crate::push_json_escaped;
    use fmt::Write as _;
    out.push_str("{\"name\":\"");
    push_json_escaped(out, &event.name);
    let _ = write!(
        out,
        "\",\"ph\":\"{}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":{}",
        event.phase.code(),
        event.nanos / 1_000,
        event.nanos % 1_000,
        event.tid
    );
    if event.phase == Phase::Complete {
        let _ = write!(
            out,
            ",\"dur\":{}.{:03}",
            event.dur_nanos / 1_000,
            event.dur_nanos % 1_000
        );
    }
    if event.phase == Phase::Instant {
        // Thread-scoped instants render as small arrows on the track.
        out.push_str(",\"s\":\"t\"");
    }
    if !event.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (key, value)) in event.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            push_json_escaped(out, key);
            out.push_str("\":");
            match value {
                ArgValue::Text(text) => {
                    out.push('"');
                    push_json_escaped(out, text);
                    out.push('"');
                }
                ArgValue::Uint(v) => {
                    let _ = write!(out, "{v}");
                }
            }
        }
        out.push('}');
    }
    out.push('}');
}

/// Renders `events` as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`), prepending a `process_name` metadata
/// record and appending a `detdiv/trace_dropped` counter when events
/// were dropped.
pub fn render_chrome_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"detdiv\"}}",
    );
    for event in events {
        out.push_str(",\n");
        write_event(&mut out, event);
    }
    let dropped = dropped();
    if dropped > 0 {
        use fmt::Write as _;
        let _ = write!(
            out,
            ",\n{{\"name\":\"detdiv/trace_dropped\",\"ph\":\"C\",\"ts\":{}.000,\
             \"pid\":1,\"tid\":0,\"args\":{{\"value\":{}}}}}",
            now_nanos() / 1_000,
            dropped
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Drains the sink and renders it as Chrome trace-event JSON; see
/// [`render_chrome_json`]. Destructive: the sink is left empty.
pub fn export_chrome_json() -> String {
    render_chrome_json(&drain())
}

/// Drains the sink and writes the Chrome trace-event JSON to `path`
/// (crash-safely, via [`detdiv_resil::AtomicFile`]: the file appears
/// complete or not at all), returning the number of exported events.
///
/// # Errors
///
/// Propagates the underlying file write error; `path` is untouched on
/// failure.
pub fn write_chrome_trace(path: &str) -> std::io::Result<usize> {
    let events = drain();
    detdiv_resil::AtomicFile::write(path, render_chrome_json(&events))?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arming is process-global; unit tests that toggle it serialize
    /// here (the integration suite in `tests/trace.rs` has its own
    /// lock — the two binaries are separate processes).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disarmed_records_nothing() {
        let _guard = lock();
        disarm();
        reset();
        begin("unit_disarmed_span", &[]);
        end("unit_disarmed_span");
        instant("unit_disarmed_instant", &[]);
        counter("unit_disarmed_counter", 7);
        // Other (non-trace) unit tests share the process and may have
        // recorded events while a sibling trace test was armed; only
        // this test's own names prove the disarmed path is inert.
        assert!(drain().iter().all(|e| !e.name.starts_with("unit_disarmed")));
    }

    #[test]
    fn armed_records_and_exports_all_phases() {
        let _guard = lock();
        reset();
        arm();
        begin("unit_phase_span", &[("detector", &"stide")]);
        instant("unit_phase_instant", &[("n", &3usize)]);
        complete(
            "unit_phase_cell",
            Duration::from_micros(5),
            &[("window", &6usize)],
        );
        counter("unit_phase_counter", 42);
        set_thread_name("unit-thread");
        end("unit_phase_span");
        disarm();
        let events = drain();
        let phases: Vec<Phase> = events.iter().map(|e| e.phase).collect();
        assert!(phases.contains(&Phase::Begin));
        assert!(phases.contains(&Phase::End));
        assert!(phases.contains(&Phase::Instant));
        assert!(phases.contains(&Phase::Complete));
        assert!(phases.contains(&Phase::Counter));
        assert!(phases.contains(&Phase::Meta));
        let json = render_chrome_json(&events);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("unit_phase_cell"));
        assert!(json.contains("\"value\":42"));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn complete_events_backdate_their_timestamp() {
        let _guard = lock();
        reset();
        arm();
        let before = now_nanos();
        complete("unit_backdate", Duration::from_millis(2), &[]);
        disarm();
        let events = drain();
        let cell = events
            .iter()
            .find(|e| e.name == "unit_backdate")
            .expect("complete event recorded");
        assert_eq!(cell.phase, Phase::Complete);
        assert!(cell.dur_nanos >= 2_000_000);
        assert!(
            cell.nanos <= before || cell.nanos.saturating_sub(before) < 2_000_000,
            "X events must start before they end"
        );
    }

    #[test]
    fn json_escapes_hostile_names() {
        let event = Event {
            nanos: 1500,
            dur_nanos: 0,
            tid: 1,
            phase: Phase::Instant,
            name: "quote\" slash\\ newline\n".to_owned(),
            args: vec![("k", ArgValue::Text("\tctrl\u{1}".to_owned()))],
        };
        let mut out = String::new();
        write_event(&mut out, &event);
        assert!(out.contains("quote\\\" slash\\\\ newline\\n"));
        assert!(out.contains("\\tctrl\\u0001"));
        assert!(out.contains("\"ts\":1.500"));
    }

    #[test]
    fn ring_flushes_to_sink_when_full() {
        let _guard = lock();
        reset();
        arm();
        for i in 0..(RING_CAPACITY + 10) {
            instant("unit_ring_fill", &[("i", &i)]);
        }
        disarm();
        // The first RING_CAPACITY events must already be in the sink
        // before any drain-triggered flush.
        let in_sink = COLLECTOR.sink().len();
        assert!(in_sink >= RING_CAPACITY, "sink has {in_sink} events");
        let events = drain();
        assert!(events.len() >= RING_CAPACITY + 10);
    }
}
