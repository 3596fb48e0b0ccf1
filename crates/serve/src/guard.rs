//! Guard wiring: per-shard overload-protection state and the verdict
//! reason labels the degraded paths emit.
//!
//! The policy machinery itself (pressure model, ladder, breaker,
//! hibernation) lives in `detdiv-guard`; this module holds the
//! service-side state that attaches it to a shard and the runtime
//! shared across shards. All guard decisions happen inside
//! `drain_shard` under the shard lock, so none of this needs its own
//! synchronization.

use std::sync::Arc;

use detdiv_guard::introspect::GuardStats;
use detdiv_guard::{Breaker, GuardConfig, HibernationStore, Ladder, LadderTransition};

/// Reason label on a gate verdict whose escalation was deferred because
/// the degradation ladder is above `Full`.
pub const REASON_ESCALATION_DEFERRED: &str = "escalation-deferred";

/// Reason label on a gate verdict whose escalation was deferred because
/// the tier-2 circuit breaker is open.
pub const REASON_ESCALATION_DEFERRED_BREAKER: &str = "escalation-deferred-breaker";

/// Reason label on the gate-fallback verdict an escalated stream
/// receives while the ladder is at `Tier1Only` or worse.
pub const REASON_TIER1_ONLY: &str = "degraded-tier1-only";

/// Reason label on the gate-fallback verdict an escalated stream
/// receives while the circuit breaker is open.
pub const REASON_BREAKER_FALLBACK: &str = "breaker-open-gate-fallback";

/// One guard transition buffered during a drain cycle, flushed to the
/// flight recorder (and the introspection counters) at cycle end.
pub(crate) struct GuardEvent {
    pub(crate) cycle: u64,
    pub(crate) kind: &'static str,
    pub(crate) from: &'static str,
    pub(crate) to: &'static str,
    pub(crate) stream_hash: u64,
}

/// Guard state owned by one shard, mutated only under the shard lock.
pub(crate) struct GuardShard {
    pub(crate) ladder: Ladder,
    pub(crate) breaker: Breaker,
    /// Hibernated streams; each stream's LRU key lives in its
    /// resident record (`StreamRecord::last_touch`).
    pub(crate) store: Option<HibernationStore>,
    /// Full ladder-transition history (the determinism suite compares
    /// these across worker widths).
    pub(crate) transitions: Vec<LadderTransition>,
    /// Events buffered this cycle, drained at cycle end.
    pub(crate) events: Vec<GuardEvent>,
    /// Per-shard monotonic flight-record counter.
    pub(crate) seq: u64,
    /// Resident-byte estimate after the previous cycle's hibernation
    /// pass (feeds the next cycle's pressure sample).
    pub(crate) resident_bytes: u64,
    /// Whether the previous drain cycle breached its deadline.
    pub(crate) deadline_breached: bool,
}

impl GuardShard {
    pub(crate) fn new(config: &GuardConfig, store: Option<HibernationStore>) -> GuardShard {
        GuardShard {
            ladder: Ladder::new(config.cool_cycles),
            breaker: Breaker::new(config.breaker),
            store,
            transitions: Vec::new(),
            events: Vec::new(),
            seq: 0,
            resident_bytes: 0,
            deadline_breached: false,
        }
    }

    pub(crate) fn push_event(
        &mut self,
        kind: &'static str,
        from: &'static str,
        to: &'static str,
        stream_hash: u64,
    ) {
        self.events.push(GuardEvent {
            cycle: self.ladder.cycle(),
            kind,
            from,
            to,
            stream_hash,
        });
    }
}

/// Guard configuration and counters shared by every shard of one
/// service.
pub(crate) struct GuardRuntime {
    pub(crate) config: GuardConfig,
    pub(crate) stats: Arc<GuardStats>,
    /// Resident-byte estimate for one gated (tier-1-only) stream.
    pub(crate) gate_cost: u64,
    /// Resident-byte estimate for one escalated stream's tier-2 bank.
    pub(crate) bank_cost: u64,
}
