//! Live guard counters, exposed to `detdiv-scope`'s `/guardz` endpoint.
//!
//! The serve layer updates plain atomics at drain-cycle boundaries (no
//! locks on the hot path) and publishes [`GuardStats::render_json`] as
//! the `"guard"` introspection page when a guarded service registers.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::pressure::DegradationLevel;

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

/// A JSON key and the shard counter it reads.
type Field = (&'static str, fn(&GuardShardStats) -> &AtomicU64);

/// The counters rendered both as service totals and per shard, in
/// render order: one list, so the two objects cannot drift apart.
const FIELDS: [Field; 6] = [
    ("resident_bytes", |s| &s.resident_bytes),
    ("shed", |s| &s.shed),
    ("ladder_transitions", |s| &s.ladder_transitions),
    ("breaker_opens", |s| &s.breaker_opens),
    ("hibernated", |s| &s.hibernated),
    ("rehydrated", |s| &s.rehydrated),
];

/// Renders `"key":value` for each of `fields`, comma-separated.
fn push_fields(out: &mut String, fields: &[Field], value: impl Fn(&Field) -> u64) {
    for (i, field) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{}\":{}", field.0, value(field));
    }
}

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
        let total = self.sum(|s| &s.resident_bytes);
        self.resident_peak.fetch_max(total, Ordering::Relaxed);
        total
    }

    fn sum(&self, field: impl Fn(&GuardShardStats) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
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
        let total = |f: &Field| self.sum(f.1);
        push_fields(&mut out, &FIELDS[..1], total);
        let _ = write!(
            out,
            ",\"resident_peak\":{},",
            self.resident_peak.load(Ordering::Relaxed)
        );
        push_fields(&mut out, &FIELDS[1..], total);
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
            push_fields(&mut out, &FIELDS, |f| f.1(s).load(Ordering::Relaxed));
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
