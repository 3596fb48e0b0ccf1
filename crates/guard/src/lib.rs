//! `detdiv-guard`: overload protection and graceful degradation for
//! the sharded ingest service (std only, `detdiv-resil` for the
//! checksummed wire format).
//!
//! The serve layer rejects on full queues but has no policy *above*
//! that bound: sustained overload, a stalled tier-2 bank, or unbounded
//! resident stream state all lacked a controlled response. This crate
//! is that policy layer, and every decision in it is a pure function
//! of observed counters so chaos/CI runs replay bit-identically:
//!
//! * **Pressure model** ([`PressureSample`]) — a per-shard sample of
//!   queue depth and resident state bytes classifies straight into the
//!   ladder rung it demands, by fixed queue-fill thresholds (0.5, 0.75,
//!   0.9) and the byte budget. No wall-clock value ever enters the
//!   classification, and no decision in this crate reads a clock.
//! * **Degradation ladder** ([`Ladder`], [`DegradationLevel`]) —
//!   `Full → GatedOnly → Tier1Only → Shedding` with hysteresis:
//!   escalation jumps straight to the target rung, de-escalation
//!   steps down one rung only after two consecutive calm drain
//!   cycles. Each move is reported as a `(from, to)`
//!   [`LadderTransition`] for the flight audit log.
//! * **Circuit breaker** ([`Breaker`]) around tier-2 escalation —
//!   consecutive failures open it, a cooldown counted in the caller's
//!   drain cycles half-opens it, and a successful probe closes it
//!   again. While open, escalated streams fall back to their tier-1
//!   gate verdict tagged with a degraded-confidence reason (the serve
//!   layer owns that emission).
//! * **Cold-stream hibernation** ([`HibernationStore`]) — LRU-idle
//!   streams spill their serialized state to a checksummed segment
//!   file and rehydrate on their next event, capping resident memory
//!   under a `DETDIV_GUARD_BYTES` budget.
//!
//! The live guard counters live beside the service's own in
//! `detdiv-serve`'s `introspect` module, which publishes them as
//! scope's `/guardz` page.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod breaker;
mod config;
mod hibernate;
mod ladder;
mod pressure;

pub use breaker::{Breaker, BreakerConfig, BreakerState, BreakerTransition};
pub use config::{GuardConfig, ENV_GUARD_BYTES, ENV_GUARD_DIR};
pub use hibernate::{HibernationStore, SpillChunk, CHUNK_BYTES};
pub use ladder::{Ladder, LadderTransition};
pub use pressure::{DegradationLevel, PressureSample};
