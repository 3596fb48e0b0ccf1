//! Live counters for a running [`crate::IngestService`], exposed to
//! `detdiv-scope` as pages of [`detdiv_obs::introspect`]:
//! [`ServiceStats`] as the `"serve"` page (`/servez`) and, for a
//! guarded service, [`GuardStats`] as the `"guard"` page (`/guardz`).
//!
//! The service updates plain atomics (no locks on the hot path); both
//! `render_json`s render them on demand through one field-list
//! renderer.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use detdiv_guard::DegradationLevel;

/// Per-shard counters, all monotonic except `depth` and `streams`
/// (point-in-time gauges).
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Current queue depth (set after each enqueue/drain).
    pub depth: AtomicU64,
    /// Distinct streams resident on the shard.
    pub streams: AtomicU64,
    /// Events accepted into the queue.
    pub enqueued: AtomicU64,
    /// Events rejected by backpressure.
    pub rejected: AtomicU64,
    /// Events drained through detection.
    pub processed: AtomicU64,
    /// Verdicts emitted (tier 1 + tier 2).
    pub emitted: AtomicU64,
    /// Streams escalated from the tier-1 gate to a full bank.
    pub escalated: AtomicU64,
    /// Detector slots permanently degraded by a caught panic.
    pub degraded: AtomicU64,
    /// Drain batches deferred by shard-level supervision (the whole
    /// batch stays queued and is retried on the next drain).
    pub deferred: AtomicU64,
}

/// A JSON key and the shard counter of type `S` it reads.
type Field<S> = (&'static str, fn(&S) -> &AtomicU64);

/// Renders `"key":value` for each of `fields`, comma-separated.
fn push_fields<S>(out: &mut String, fields: &[Field<S>], value: impl Fn(&Field<S>) -> u64) {
    for (i, field) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{}\":{}", field.0, value(field));
    }
}

/// `counter` summed over every shard.
fn total<S>(shards: &[S], counter: fn(&S) -> &AtomicU64) -> u64 {
    shards
        .iter()
        .map(|s| counter(s).load(Ordering::Relaxed))
        .sum()
}

/// The counters rendered both as service totals and per shard, in
/// render order: one list, so the two objects cannot drift apart.
const FIELDS: [Field<ShardStats>; 9] = [
    ("depth", |s| &s.depth),
    ("streams", |s| &s.streams),
    ("enqueued", |s| &s.enqueued),
    ("rejected", |s| &s.rejected),
    ("processed", |s| &s.processed),
    ("emitted", |s| &s.emitted),
    ("escalated", |s| &s.escalated),
    ("degraded", |s| &s.degraded),
    ("deferred", |s| &s.deferred),
];

/// Counters for one service: a fixed vector of shard stats plus
/// service-level totals.
#[derive(Debug)]
pub struct ServiceStats {
    /// One entry per shard, index = shard id.
    pub shards: Vec<ShardStats>,
    /// Snapshots written.
    pub snapshots: AtomicU64,
    /// Streams rebuilt by recovery.
    pub recovered_streams: AtomicU64,
}

impl ServiceStats {
    /// Stats for an `n`-shard service, all zero.
    pub fn new(n: usize) -> ServiceStats {
        ServiceStats {
            shards: (0..n).map(|_| ShardStats::default()).collect(),
            snapshots: AtomicU64::new(0),
            recovered_streams: AtomicU64::new(0),
        }
    }

    /// Renders the stats as one JSON object (stable key order).
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(256 + 64 * self.shards.len());
        let _ = write!(
            out,
            "{{\"registered\":true,\"shards\":{},\"totals\":{{",
            self.shards.len()
        );
        push_fields(&mut out, &FIELDS, |f| total(&self.shards, f.1));
        let _ = write!(
            out,
            "}},\"snapshots\":{},\"recovered_streams\":{},\"per_shard\":[",
            self.snapshots.load(Ordering::Relaxed),
            self.recovered_streams.load(Ordering::Relaxed)
        );
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"shard\":{i},");
            push_fields(&mut out, &FIELDS, |f| f.1(s).load(Ordering::Relaxed));
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Per-shard guard counters. `level`, `breaker_state`, and
/// `resident_bytes` are point-in-time gauges (published at the end of
/// each drain cycle); everything else is monotonic and counts each
/// transition when it happens.
#[derive(Debug, Default)]
pub struct GuardShardStats {
    /// Current [`DegradationLevel`] as its dense index.
    pub level: AtomicU64,
    /// Current breaker state as its dense index.
    pub breaker_state: AtomicU64,
    /// Estimated resident detector-state bytes after the last
    /// hibernation pass.
    pub resident_bytes: AtomicU64,
    /// Enqueues rejected with the typed `Shedding` reason.
    pub shed: AtomicU64,
    /// Ladder transitions recorded (jumps and cooldown steps).
    pub ladder_transitions: AtomicU64,
    /// Times the breaker opened.
    pub breaker_opens: AtomicU64,
    /// Streams spilled to the hibernation segment.
    pub hibernated: AtomicU64,
    /// Streams rehydrated from the segment on a later event.
    pub rehydrated: AtomicU64,
}

/// The counters rendered both as service totals and per shard, in
/// render order: one list, so the two objects cannot drift apart.
const GUARD_FIELDS: [Field<GuardShardStats>; 6] = [
    ("resident_bytes", |s| &s.resident_bytes),
    ("shed", |s| &s.shed),
    ("ladder_transitions", |s| &s.ladder_transitions),
    ("breaker_opens", |s| &s.breaker_opens),
    ("hibernated", |s| &s.hibernated),
    ("rehydrated", |s| &s.rehydrated),
];

/// Counters for one guarded service: a fixed vector of shard stats
/// plus the service-wide resident-bytes high-water mark.
#[derive(Debug)]
pub struct GuardStats {
    /// One entry per shard, index = shard id.
    pub shards: Vec<GuardShardStats>,
    /// Peak of summed per-shard resident bytes, updated at cycle ends.
    pub resident_peak: AtomicU64,
}

impl GuardStats {
    /// Stats for an `n`-shard guard, all zero, every ladder at `Full`.
    pub fn new(n: usize) -> GuardStats {
        GuardStats {
            shards: (0..n).map(|_| GuardShardStats::default()).collect(),
            resident_peak: AtomicU64::new(0),
        }
    }

    /// The published degradation level of `shard` (the enqueue path
    /// reads this to shed). Out-of-range shards read as `Full`.
    pub fn shard_level(&self, shard: usize) -> DegradationLevel {
        self.shards
            .get(shard)
            .map(|s| DegradationLevel::from_index(s.level.load(Ordering::Relaxed)))
            .unwrap_or(DegradationLevel::Full)
    }

    /// Folds the current per-shard resident bytes into the service
    /// peak and returns the summed value.
    pub fn update_resident_peak(&self) -> u64 {
        let resident = total(&self.shards, |s| &s.resident_bytes);
        self.resident_peak.fetch_max(resident, Ordering::Relaxed);
        resident
    }

    /// Renders the stats as one JSON object (stable key order). The
    /// service-wide `resident_peak` follows the summed `resident_bytes`
    /// in the totals.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(256 + 96 * self.shards.len());
        let _ = write!(
            out,
            "{{\"registered\":true,\"shards\":{},\"totals\":{{",
            self.shards.len()
        );
        let totals = |f: &Field<GuardShardStats>| total(&self.shards, f.1);
        push_fields(&mut out, &GUARD_FIELDS[..1], totals);
        let _ = write!(
            out,
            ",\"resident_peak\":{},",
            self.resident_peak.load(Ordering::Relaxed)
        );
        push_fields(&mut out, &GUARD_FIELDS[1..], totals);
        out.push_str("},\"per_shard\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let level = DegradationLevel::from_index(s.level.load(Ordering::Relaxed));
            let _ = write!(
                out,
                "{{\"shard\":{i},\"level\":\"{}\",\"breaker\":{},",
                level.name(),
                s.breaker_state.load(Ordering::Relaxed)
            );
            push_fields(&mut out, &GUARD_FIELDS, |f| f.1(s).load(Ordering::Relaxed));
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_json_sums_shards_into_totals() {
        let stats = ServiceStats::new(2);
        stats.shards[0].enqueued.store(3, Ordering::Relaxed);
        stats.shards[1].enqueued.store(4, Ordering::Relaxed);
        stats.shards[1].rejected.store(1, Ordering::Relaxed);
        let json = stats.render_json();
        assert!(json.contains("\"registered\":true"), "{json}");
        assert!(json.contains("\"enqueued\":7"), "totals summed: {json}");
        assert!(json.contains("\"rejected\":1"), "{json}");
        assert!(json.contains("\"shard\":1"), "{json}");
    }

    #[test]
    fn levels_peak_and_render_follow_the_counters() {
        let stats = GuardStats::new(2);
        stats.shards[0]
            .level
            .store(DegradationLevel::Shedding.index(), Ordering::Relaxed);
        stats.shards[0].shed.store(5, Ordering::Relaxed);
        stats.shards[1].resident_bytes.store(96, Ordering::Relaxed);
        assert_eq!(stats.shard_level(0), DegradationLevel::Shedding);
        assert_eq!(stats.shard_level(1), DegradationLevel::Full);
        assert_eq!(stats.shard_level(9), DegradationLevel::Full);
        assert_eq!(stats.update_resident_peak(), 96);
        let json = stats.render_json();
        assert!(json.contains("\"registered\":true"), "{json}");
        assert!(json.contains("\"level\":\"shedding\""), "{json}");
        assert!(json.contains("\"shed\":5"), "{json}");
        assert!(json.contains("\"resident_peak\":96"), "{json}");
    }

    #[test]
    fn resident_peak_is_a_high_water_mark() {
        let stats = GuardStats::new(1);
        stats.shards[0].resident_bytes.store(100, Ordering::Relaxed);
        assert_eq!(stats.update_resident_peak(), 100);
        stats.shards[0].resident_bytes.store(40, Ordering::Relaxed);
        assert_eq!(stats.update_resident_peak(), 40, "gauge falls");
        assert_eq!(
            stats.resident_peak.load(Ordering::Relaxed),
            100,
            "peak holds"
        );
    }
}
