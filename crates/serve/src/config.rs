//! Service shape: shard count, queue bounds, and the tier-1 gate.

/// Tier-1 gate parameters: a cheap per-stream EWMA band that decides
/// which streams earn a full (tier-2) detector bank.
///
/// Each stream's gate is a bare [`detdiv_stream::EwmaState`] driven with
/// these shared parameters — the same math as [`detdiv_stream::Ewma`],
/// same squashed z-score response, same warmup semantics — so its
/// verdicts obey the workspace-wide score contract (`[0, 1]`,
/// bit-deterministic replay).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier1Config {
    /// EWMA smoothing factor in `(0, 1]`.
    pub alpha: f64,
    /// Events consumed silently before the gate's first verdict.
    pub warmup: usize,
    /// Gate score at or above which the stream escalates to tier 2.
    /// The EWMA squashes a z-score `z` to `(z/3)² / (1 + (z/3)²)`, so
    /// the default `0.5` corresponds to a 3σ excursion.
    pub escalate_score: f64,
}

impl Default for Tier1Config {
    fn default() -> Tier1Config {
        Tier1Config {
            alpha: 0.3,
            warmup: 8,
            escalate_score: 0.5,
        }
    }
}

/// Shape of an [`crate::IngestService`].
///
/// Every service is gated: each stream's events meet the cheap tier-1
/// EWMA gate first, and only a stream that escalates past it gets (and
/// keeps) a tier-2 bank. This is what makes millions of mostly-quiet
/// streams affordable in one process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of shards; streams are assigned by
    /// `stream_id_hash % shards`.
    pub shards: usize,
    /// Per-shard ingestion queue bound. A full queue rejects — the
    /// service never buffers unboundedly.
    pub queue_capacity: usize,
    /// The tier-1 gate's parameters.
    pub tier1: Tier1Config,
}

impl ServeConfig {
    /// A config with the given shape and the default gate.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `queue_capacity` is zero.
    pub fn new(shards: usize, queue_capacity: usize) -> ServeConfig {
        assert!(shards > 0, "at least one shard");
        assert!(queue_capacity > 0, "queue capacity must be positive");
        ServeConfig {
            shards,
            queue_capacity,
            tier1: Tier1Config::default(),
        }
    }

    /// Sets the tier-1 gate's parameters.
    pub fn gated(mut self, tier1: Tier1Config) -> ServeConfig {
        self.tier1 = tier1;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_gate_escalates_at_three_sigma() {
        let t = Tier1Config::default();
        // squash(3/3) = 1/2: the documented 3σ ⇔ 0.5 correspondence.
        assert_eq!(t.escalate_score, 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_refused() {
        let _ = ServeConfig::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_capacity_refused() {
        let _ = ServeConfig::new(1, 0);
    }
}
