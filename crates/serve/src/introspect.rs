//! Live counters for a running [`crate::IngestService`], exposed to
//! `detdiv-scope`'s `/servez` endpoint as the `"serve"` page of
//! [`detdiv_obs::introspect`].
//!
//! The service updates plain atomics (no locks on the hot path);
//! [`ServiceStats::render_json`] renders them on demand.

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

    fn sum(&self, field: impl Fn(&ShardStats) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Renders the stats as one JSON object (stable key order).
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(256 + 64 * self.shards.len());
        out.push_str("{\"registered\":true");
        out.push_str(&format!(",\"shards\":{}", self.shards.len()));
        out.push_str(&format!(
            ",\"totals\":{{\"depth\":{},\"streams\":{},\"enqueued\":{},\"rejected\":{},\"processed\":{},\"emitted\":{},\"escalated\":{},\"degraded\":{},\"deferred\":{}}}",
            self.sum(|s| &s.depth),
            self.sum(|s| &s.streams),
            self.sum(|s| &s.enqueued),
            self.sum(|s| &s.rejected),
            self.sum(|s| &s.processed),
            self.sum(|s| &s.emitted),
            self.sum(|s| &s.escalated),
            self.sum(|s| &s.degraded),
            self.sum(|s| &s.deferred),
        ));
        out.push_str(&format!(
            ",\"snapshots\":{},\"recovered_streams\":{}",
            self.snapshots.load(Ordering::Relaxed),
            self.recovered_streams.load(Ordering::Relaxed)
        ));
        out.push_str(",\"per_shard\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{i},\"depth\":{},\"streams\":{},\"enqueued\":{},\"rejected\":{},\"processed\":{},\"emitted\":{},\"escalated\":{},\"degraded\":{},\"deferred\":{}}}",
                s.depth.load(Ordering::Relaxed),
                s.streams.load(Ordering::Relaxed),
                s.enqueued.load(Ordering::Relaxed),
                s.rejected.load(Ordering::Relaxed),
                s.processed.load(Ordering::Relaxed),
                s.emitted.load(Ordering::Relaxed),
                s.escalated.load(Ordering::Relaxed),
                s.degraded.load(Ordering::Relaxed),
                s.deferred.load(Ordering::Relaxed),
            ));
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
