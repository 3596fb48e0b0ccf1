//! `detdiv-flight`: per-detection provenance for the detdiv workspace
//! (std only, zero dependencies beyond the workspace's own `obs` and
//! `resil` crates).
//!
//! The coverage maps say *which* (detector, DW, AS) cells alarm;
//! nothing else in the system can answer *why a specific alarm fired*
//! or *what the engine was doing when a stream degraded*. This crate is
//! that forensic layer:
//!
//! 1. **Wide-event audit log** ([`record`], [`export`]) — one
//!    structured record per detection decision, emitted from the batch
//!    grid (`detdiv-eval`'s coverage rows), the streaming engine
//!    (`detdiv-stream`), and the supervision failure path
//!    (`detdiv-resil`). Records are buffered in fixed-capacity
//!    per-thread rings (`detdiv_obs::ring`, shared with the Chrome
//!    trace) and exported as checksummed JSONL in the
//!    `detdiv-resil` journal wire format, so
//!    [`detdiv_resil::Journal::load`] validates a dump line-by-line.
//!    Records carry **no timestamps** and the export **sorts payloads
//!    lexicographically**, so a dump is byte-deterministic across
//!    repeat runs of the same configuration.
//! 2. **Crash flight recorder** ([`blackbox`]) — a bounded global ring
//!    of the last [`blackbox::BLACKBOX_CAPACITY`] wide events plus
//!    counter deltas, dumped atomically on panic (via a chained panic
//!    hook), on stream degradation, and on demand — every degradation
//!    leaves a post-mortem artifact.
//! 3. **Per-stream statistics registry** ([`streams`]) — labeled
//!    per-stream event/alarm/degradation counts maintained by the
//!    streaming engine and served live by `detdiv-scope`'s
//!    `GET /streams`.
//!
//! Disarmed (the default), every hook is **one relaxed atomic load** —
//! the workspace-wide discipline for optional subsystems. Arming comes
//! from `regenerate --flight PATH` or `DETDIV_FLIGHT=PATH`.
//!
//! Records deliberately exclude wall-clock data: the audit log answers
//! "what was decided and why", the Chrome trace answers "when and how
//! long". Keeping time out of the payload is what makes dumps
//! byte-comparable across runs — the same determinism contract the
//! rest of the workspace enforces on `paper_report.json`.
//!
//! # Example
//!
//! ```
//! use detdiv_flight as flight;
//!
//! flight::arm("unused-in-doctest.flight");
//! flight::record(flight::StreamRecord {
//!     stream_label: "host-a",
//!     stream_hash: 0x1234,
//!     slot: 0,
//!     detector: "ewma",
//!     event_index: 7,
//!     score: 0.25,
//!     confidence: 1.0,
//!     reason: "normal",
//!     warmup: false,
//! }.render());
//! flight::disarm();
//! let records = flight::drain();
//! assert!(records.iter().any(|r| r.contains("\"stream\":\"host-a\"")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod blackbox;
pub mod flags;
mod record;
mod recorder;
pub mod streams;

pub use record::{
    CellRecord, DegradedRecord, FailureRecord, GuardRecord, HeaderRecord, StreamRecord,
};
pub use recorder::{
    arm, armed, disarm, drain, dropped, env_path, export, flush_thread, path, record, recorded,
    reset, RING_CAPACITY, SINK_CAPACITY,
};

/// Serializes the unit tests that touch this crate's process-global
/// state — the recorder, the blackbox ring, the stream registry and the
/// subsystem flags — which are entangled: [`reset`] also clears the
/// blackbox, and the registry's tests disarm the recorder.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
