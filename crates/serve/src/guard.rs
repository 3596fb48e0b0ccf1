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

use detdiv_guard::{Breaker, GuardConfig, HibernationStore, Ladder};

use crate::introspect::GuardStats;

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

/// Guard state owned by one shard, mutated only under the shard lock.
pub(crate) struct GuardShard {
    pub(crate) ladder: Ladder,
    pub(crate) breaker: Breaker,
    /// Hibernated streams; each stream's LRU key lives in its
    /// resident record (`StreamRecord::last_touch`).
    pub(crate) store: Option<HibernationStore>,
    /// Drain cycles started: the breaker's clock, the LRU stamp and
    /// every flight record's `cycle`.
    pub(crate) cycle: u64,
    /// Per-shard monotonic flight-record counter.
    pub(crate) seq: u64,
}

impl GuardShard {
    pub(crate) fn new(config: &GuardConfig, store: Option<HibernationStore>) -> GuardShard {
        GuardShard {
            ladder: Ladder::default(),
            breaker: Breaker::new(config.breaker),
            store,
            cycle: 0,
            seq: 0,
        }
    }

    /// Writes one transition's flight record, stamped with the current
    /// cycle and the next seq (which advances even when unarmed).
    pub(crate) fn record(
        &mut self,
        shard: usize,
        kind: &'static str,
        from: &'static str,
        to: &'static str,
        stream_hash: u64,
    ) {
        if detdiv_flight::armed() {
            detdiv_flight::record(
                detdiv_flight::GuardRecord {
                    shard,
                    seq: self.seq,
                    cycle: self.cycle,
                    kind,
                    from,
                    to,
                    stream_hash,
                }
                .render(),
            );
        }
        self.seq += 1;
    }
}

/// Guard budget and counters shared by every shard of one service.
pub(crate) struct GuardRuntime {
    pub(crate) stats: Arc<GuardStats>,
    /// Each shard's slice of the byte budget, if one is configured.
    pub(crate) shard_budget: Option<u64>,
    /// Resident-byte estimate for one escalated stream's tier-2 bank.
    pub(crate) bank_cost: u64,
}
