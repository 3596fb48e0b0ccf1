//! Live counters for a running [`crate::IngestService`], exposed to
//! `detdiv-scope`'s `/servez` endpoint as the `"serve"` page of
//! [`detdiv_obs::introspect`].
//!
//! The service updates plain atomics (no locks on the hot path);
//! [`ServiceStats::render_json`] renders them on demand.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// A JSON key and the shard counter it reads.
type Field = (&'static str, fn(&ShardStats) -> &AtomicU64);

/// The counters rendered both as service totals and per shard, in
/// render order: one list, so the two objects cannot drift apart.
const FIELDS: [Field; 9] = [
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

/// Renders `"key":value` for every field, comma-separated.
fn push_fields(out: &mut String, value: impl Fn(&Field) -> u64) {
    for (i, field) in FIELDS.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{}\":{}", field.0, value(field));
    }
}

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
        push_fields(&mut out, |f| {
            self.shards
                .iter()
                .map(|s| f.1(s).load(Ordering::Relaxed))
                .sum()
        });
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
            push_fields(&mut out, |f| f.1(s).load(Ordering::Relaxed));
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
}
