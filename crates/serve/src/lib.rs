//! `detdiv-serve`: a sharded multi-stream ingest service at
//! millions-of-streams scale.
//!
//! The streaming layer (`detdiv-stream`) answers *how one process
//! scores interleaved streams*; this crate answers *how a daemon
//! serves millions of them* without giving up the workspace's
//! determinism contract:
//!
//! * **Sharding** — streams are assigned to one of N shards by their
//!   FNV-1a hash ([`detdiv_stream::hash_stream_id`]); each shard owns a
//!   queue and a table of per-stream records and is only ever drained
//!   by one worker at a time, so per-stream verdict order is
//!   independent of the worker count.
//! * **Bounded queues, typed backpressure** — every shard queue has a
//!   hard capacity; a full queue rejects with [`RejectReason`], never
//!   buffers unboundedly. Load shedding is the caller's explicit
//!   decision, not an OOM kill's.
//! * **Two-tier detection** — a cheap always-on EWMA band
//!   ([`Tier1Config`]) fronts the expensive detector banks; each stream
//!   is one 40-byte record in its shard's table, and only streams that
//!   escalate past the gate get (and keep) a tier-2
//!   [`detdiv_stream::Bank`], boxed in that same record. The
//!   differential suite checks every verdict against a sequential
//!   reference model of the gate and the bank.
//! * **Supervised execution** — a panicking detector degrades exactly
//!   one slot of one stream ([`detdiv_stream::Bank`]'s isolation,
//!   surfaced through `detdiv_flight::streams`); a
//!   shard-level fault defers that shard's batch via
//!   [`detdiv_resil::supervised`] at the `serve/drain` site. Neither
//!   takes down the service.
//! * **Crash-safe snapshots** — periodic shard-state snapshots in the
//!   [`detdiv_resil`] journal wire format, written atomically;
//!   recovery resumes verdicts bit-identically (including queued but
//!   undrained events, captured as residue lines) and discards (never
//!   trips over) torn or corrupt snapshots.
//! * **Overload protection** — services built with
//!   [`IngestService::with_guard`] attach the `detdiv-guard`
//!   degradation ladder, tier-2 circuit breaker, and cold-stream
//!   hibernation to every shard: under pressure the service defers
//!   escalations, falls back to gate verdicts, spills idle streams to
//!   disk, and finally sheds load with a typed
//!   [`RejectReason::Shedding`] — each step driven by counters, never
//!   by a clock, audited through `detdiv-flight`, and reversed as
//!   pressure drains.
//!
//! Live counters are exported through [`introspect`] (scope's
//! `/servez` endpoint) and plain [`detdiv_obs`] counters
//! (`serve/rejected`, `serve/processed`, …).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod config;
mod guard;
pub mod introspect;
mod service;
mod snapshot;

pub use config::{ServeConfig, Tier1Config};
pub use guard::{
    REASON_BREAKER_FALLBACK, REASON_ESCALATION_DEFERRED, REASON_ESCALATION_DEFERRED_BREAKER,
    REASON_TIER1_ONLY,
};
pub use service::{
    DrainSummary, IngestService, NullSink, RejectReason, Tier, VerdictEvent, VerdictSink,
};
pub use snapshot::{RecoverOutcome, SnapshotStats};
